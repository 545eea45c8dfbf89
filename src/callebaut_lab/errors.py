"""Exception taxonomy shared across the package, ``ITEM_ERRORS``, and
``each_alone``, the rule that keeps a failing item's error in its place when
many run as one call."""

from numpy.linalg import LinAlgError


class CallebautLabError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(CallebautLabError, ValueError):
    """Operands have incompatible or malformed dimensions."""


class SizeError(CallebautLabError, ValueError):
    """A requested dimension exceeds a configured cap."""


class DomainError(CallebautLabError, ValueError):
    """A numeric argument lies outside the mathematical domain of an operation."""


class HypothesisError(CallebautLabError, ValueError):
    """Instance parameters violate the hypothesis of the statement being tested.

    The message names the violated condition.
    """


class VariantError(CallebautLabError, ValueError):
    """A variant was requested for an inequality that does not define it."""


class ConfigError(CallebautLabError, ValueError):
    """A harness configuration is invalid (bad grid, non-positive trials, ...)."""


#: What computing one item (sampling a family, evaluating a trial) can
#: raise: the package's own errors and a LAPACK failure.  ``each_alone``
#: puts these in the failing item's place; any other exception propagates.
ITEM_ERRORS = (CallebautLabError, LinAlgError)


def each_alone(stacked, items):
    """``stacked(items)``, the list of one result per item, computed together;
    if that call raises one of ``ITEM_ERRORS``, each half of the items is
    computed the same way, down to single items, and an item whose call
    ``stacked([item])`` raises one of them gets that error in its place.
    Any other exception propagates.  One failing item among ``k`` costs
    about ``2 log2(k)`` stacked calls.

    This is the one rule of the stacked stages (``sampler.sample_families``,
    ``inequalities.evaluate_stage``): the stacked kernels, the builders'
    per-trial constants included, return all their results or raise, and
    only this function puts a stacked call's error in the failing item's
    place.  A group that succeeds gives each item its result alone, so
    halving changes no result.
    """
    items = list(items)
    try:
        return stacked(items)
    except ITEM_ERRORS as exc:
        if len(items) == 1:
            return [exc]
    half = len(items) // 2
    return each_alone(stacked, items[:half]) + each_alone(stacked, items[half:])
