"""Exception taxonomy shared across the package."""


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
