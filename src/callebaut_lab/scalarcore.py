"""Scalar inequality family: Kantorovich constant, Young-type refinements and
reverses, the Callebaut chain, and its banded corollaries, evaluated as signed
gaps (RHS - LHS, so a nonnegative gap certifies the instance).

Every gap is assembled with ``math.fsum`` so that algebraic equality cases
resolve to rounding noise (~1e-15 relative), not accumulation error.

Each term has one definition: ``ScalarParams`` derives the powers and roots
the Young-type statements share (their products keep one order, since float
multiplication is not associative), ``_chain_terms`` gives ``S_0, P_s, P_t``,
and ``printed_weight`` is the paper's weight ``K(M_lo^e / m_hi^e)^p``.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from types import MappingProxyType
from typing import Sequence

from .errors import DomainError, HypothesisError

#: Half-exclusion zone: parameters with a denominator ``t - 1/2`` (or a
#: hypothesis ``nu != 1/2``) are rejected when closer than this to 1/2.
#: Coefficients blow up inside the zone and verdicts drown in rounding noise.
DELTA_HALF = 1e-6

fsum = math.fsum
_isfinite = math.isfinite
_INF = math.inf


def _kantorovich_domain(x: float) -> DomainError:
    return DomainError(f"Kantorovich constant needs a positive argument, got {x}")


def kantorovich(x: float) -> float:
    """Kantorovich constant ``(x + 1)^2 / (4 x)``; >= 1 and symmetric in x <-> 1/x.

    The hot scalar statements inline this body (check, message and
    expression), since the call costs more than the arithmetic.
    """
    if not x > 0.0:
        raise _kantorovich_domain(x)
    return (x + 1.0) * (x + 1.0) / (4.0 * x)


def kantorovich_min_over_interval(lo: float, hi: float) -> float:
    """Minimum of the Kantorovich constant over ``[lo, hi]``.

    The constant decreases left of 1 and increases right of it, so the
    minimum is 1 when the interval contains 1 and otherwise sits at the
    endpoint nearest 1.
    """
    if not 0.0 < lo <= hi:
        raise DomainError(f"interval must satisfy 0 < lo <= hi, got [{lo}, {hi}]")
    if lo <= 1.0 <= hi:
        return 1.0
    return min(kantorovich(lo), kantorovich(hi))


class _OpenParams:
    """Slot storage that :class:`ScalarParams` fills before it becomes frozen."""

    __slots__ = (
        "a", "b", "nu", "r", "r_prime", "nu_max",
        "a_nu", "b_rest", "a_rest", "b_nu", "sq_diff", "sqrt_ratio",
    )


class ScalarParams(_OpenParams):
    """Positive finite pair ``(a, b)`` with a Young weight ``nu`` in [0, 1].

    Derived once at construction: ``r = min(nu, 1-nu)``,
    ``r_prime = min(2r, 1-2r)``, ``nu_max = max(nu, 1-nu)`` (not ``s``, the
    chain exponent), and the shared terms ``a_nu = a^nu``, ``b_rest = b^(1-nu)``,
    ``a_rest = a^(1-nu)``, ``b_nu = b^nu``, ``sq_diff = sqrt a - sqrt b`` and
    ``sqrt_ratio = sqrt(a/b)``.  Statements multiply them in a fixed order,
    e.g. ``-k * a_nu * b_rest``.  None can raise; ``K(sqrt_ratio)`` (which
    fails once ``a/b`` underflows to 0) stays in each statement that uses it.

    Immutable, and slotted (no instance ``__dict__``).  Construction runs
    once per sampled tuple, so it avoids a frozen dataclass's per-field
    stores, which cost more than the fields themselves: ``__new__`` fills a
    plain :class:`_OpenParams` by ordinary attribute stores and then swaps
    its class to ``ScalarParams``, whose ``__setattr__`` always raises.
    ``repr``, ``==``, ``hash``, ``copy`` and ``pickle`` see ``(a, b, nu)``
    only; assignment raises ``dataclasses.FrozenInstanceError``.
    """

    __slots__ = ()

    def __new__(cls, a: float, b: float, nu: float):
        if not (0.0 < a < _INF and 0.0 < b < _INF):
            raise DomainError(f"a and b must be positive and finite, got a={a}, b={b}")
        if not 0.0 <= nu <= 1.0:
            raise HypothesisError(f"nu must lie in [0, 1], got {nu}")
        self = object.__new__(_OpenParams)
        self.a = a
        self.b = b
        self.nu = nu
        # The conditionals pick exactly what builtin min/max pick (the first
        # argument on ties) at a fraction of the call cost.
        rest = 1.0 - nu
        self.r = r = rest if rest < nu else nu
        two_r = 2.0 * r
        one_minus = 1.0 - two_r
        self.r_prime = one_minus if one_minus < two_r else two_r
        self.nu_max = rest if rest > nu else nu
        self.a_nu = a ** nu
        self.b_rest = b ** rest
        self.a_rest = a ** rest
        self.b_nu = b ** nu
        self.sq_diff = math.sqrt(a) - math.sqrt(b)
        self.sqrt_ratio = math.sqrt(a / b)
        self.__class__ = cls
        return self

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"ScalarParams(a={self.a!r}, b={self.b!r}, nu={self.nu!r})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b, self.nu) == (other.a, other.b, other.nu)
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.nu))

    def __reduce__(self):
        return (ScalarParams, (self.a, self.b, self.nu))


@dataclass(frozen=True)
class ExponentPair:
    """Chain exponents ``(s, t)`` on one of the two admissible branches.

    Either ``1 >= t >= s > 1/2`` or ``0 <= t <= s < 1/2``; on both branches
    the derived coefficients are nonnegative.  ``t`` must stay clear of the
    excluded zone around 1/2.
    """

    s: float
    t: float

    def __post_init__(self):
        s, t = self.s, self.t
        if not (0.5 < s <= t <= 1.0 or 0.0 <= t <= s < 0.5):
            raise HypothesisError(
                f"(s, t) = ({s}, {t}) lies on neither branch "
                "(need 1 >= t >= s > 1/2 or 0 <= t <= s < 1/2)"
            )
        if abs(t - 0.5) < DELTA_HALF:
            raise HypothesisError(
                f"t = {t} lies within {DELTA_HALF:g} of 1/2 (excluded zone)"
            )

    @property
    def c_mid(self) -> float:
        """Middle-term coefficient ``(t - s) / (t - 1/2)``."""
        return (self.t - self.s) / (self.t - 0.5)

    @property
    def r_prime_st(self) -> float:
        """Kantorovich exponent ``min((t-s)/(t-1/2), (s-1/2)/(t-1/2))``."""
        return min(self.c_mid, self.c_rev_paper)

    @property
    def c_rev_paper(self) -> float:
        """Reverse coefficient as printed: ``(s - 1/2) / (t - 1/2)``."""
        return (self.s - 0.5) / (self.t - 0.5)

    @property
    def c_rev_repair(self) -> float:
        """Reverse coefficient re-derived from the proof: ``(t + s - 1) / (t - 1/2)``."""
        return (self.t + self.s - 1.0) / (self.t - 0.5)


@dataclass(frozen=True)
class ProofChainParams:
    """Exponent pair ``(alpha, beta)`` for the tensor proof chain.

    Requires ``0 < |beta| < |alpha|`` with matching signs, so that
    ``mu = beta / alpha`` lies in (0, 1).
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha * self.beta <= 0.0:
            raise HypothesisError(
                f"alpha and beta must share a sign, got ({self.alpha}, {self.beta})"
            )
        if not 0.0 < abs(self.beta) < abs(self.alpha):
            raise HypothesisError(
                f"need 0 < |beta| < |alpha|, got ({self.alpha}, {self.beta})"
            )

    @property
    def mu(self) -> float:
        return self.beta / self.alpha

    @property
    def r_prime(self) -> float:
        return min(self.mu, 1.0 - self.mu)

    @classmethod
    def from_exponents(cls, pair: ExponentPair) -> "ProofChainParams":
        """Map chain exponents to the proof scale: ``alpha = 2t-1, beta = 2s-1``."""
        return cls(2.0 * pair.t - 1.0, 2.0 * pair.s - 1.0)


class ScalarIneqId(Enum):
    YOUNG_CLASSICAL = "YOUNG_CLASSICAL"
    YOUNG_ZUO = "YOUNG_ZUO"
    YOUNG_WU_ZHAO = "YOUNG_WU_ZHAO"
    LEMMA_SUM = "LEMMA_SUM"
    LEMMA_TTT1 = "LEMMA_TTT1"
    LEMMA_4TERM = "LEMMA_4TERM"
    REV_YOUNG = "REV_YOUNG"
    REV_SUM = "REV_SUM"
    REV_TTT = "REV_TTT"
    CHAIN_CALLEBAUT = "CHAIN_CALLEBAUT"
    COR_VOW13_SCALAR = "COR_VOW13_SCALAR"
    COR_OKMN_SCALAR = "COR_OKMN_SCALAR"
    COR_REV_SCALAR = "COR_REV_SCALAR"


def _nu_at_half(nu: float) -> HypothesisError:
    return HypothesisError(
        f"nu = {nu} lies within {DELTA_HALF:g} of 1/2 (statement excludes nu = 1/2)"
    )


# The Young-type statements take ``(params, extra)`` so that they are the
# ``_GAP_ENTRIES`` values themselves, with no wrapper frame; they ignore
# ``extra``.  They, LEMMA_TTT1 and REV_TTT inline ``kantorovich`` (its check,
# its message and its expression) because a call costs more than the
# arithmetic.  The ``nu != 1/2`` check comes before the Kantorovich check.


def young_classical_gap(p: ScalarParams, extra=None) -> float:
    """``a^nu b^(1-nu) <= nu a + (1-nu) b``."""
    nu = p.nu
    return fsum((nu * p.a, (1.0 - nu) * p.b, -p.a_nu * p.b_rest))


def young_zuo_gap(p: ScalarParams, extra=None) -> float:
    """``K(sqrt(a/b))^r a^nu b^(1-nu) <= nu a + (1-nu) b``."""
    nu, x = p.nu, p.sqrt_ratio
    if not x > 0.0:
        raise _kantorovich_domain(x)
    k = ((x + 1.0) * (x + 1.0) / (4.0 * x)) ** p.r
    return fsum((nu * p.a, (1.0 - nu) * p.b, -k * p.a_nu * p.b_rest))


def young_wu_zhao_gap(p: ScalarParams, extra=None) -> float:
    """``K(sqrt(a/b))^r' a^nu b^(1-nu) + r (sqrt a - sqrt b)^2 <= nu a + (1-nu) b``."""
    nu, x, sq = p.nu, p.sqrt_ratio, p.sq_diff
    if abs(nu - 0.5) < DELTA_HALF:
        raise _nu_at_half(nu)
    if not x > 0.0:
        raise _kantorovich_domain(x)
    k = ((x + 1.0) * (x + 1.0) / (4.0 * x)) ** p.r_prime
    return fsum((nu * p.a, (1.0 - nu) * p.b, -k * p.a_nu * p.b_rest, -p.r * sq * sq))


def lemma_sum_gap(p: ScalarParams, extra=None) -> float:
    """Two-sided Young sum: ``K^r' (a^nu b^(1-nu) + a^(1-nu) b^nu) + 2r (...)^2 <= a + b``."""
    nu, x, sq = p.nu, p.sqrt_ratio, p.sq_diff
    if abs(nu - 0.5) < DELTA_HALF:
        raise _nu_at_half(nu)
    if not x > 0.0:
        raise _kantorovich_domain(x)
    k = ((x + 1.0) * (x + 1.0) / (4.0 * x)) ** p.r_prime
    return fsum(
        (p.a, p.b, -k * p.a_nu * p.b_rest, -k * p.a_rest * p.b_nu, -2.0 * p.r * sq * sq)
    )


def lemma_ttt1_gap(a: float, mu: float) -> float:
    """``K(a)^r' (a^mu + a^-mu) + (1-mu)(a + 1/a - 2) <= a + 1/a`` for mu in (0, 1]."""
    if not 0.0 < a < _INF:
        raise DomainError(f"a must be positive and finite, got {a}")
    if not 0.0 < mu <= 1.0:
        raise HypothesisError(f"mu must lie in (0, 1], got {mu}")
    rest = 1.0 - mu
    k = ((a + 1.0) * (a + 1.0) / (4.0 * a)) ** (rest if rest < mu else mu)
    inv = 1.0 / a
    return fsum((a, inv, -k * (a ** mu + a ** (-mu)), -rest * (a + inv - 2.0)))


def lemma_4term_gap(p: ScalarParams, extra=None) -> float:
    """Four-term refinement with the quarter-power bracket, for nu in (0, 1)."""
    if not 0.0 < p.nu < 1.0:
        raise HypothesisError(f"nu must lie in (0, 1), got {p.nu}")
    a, b, sq = p.a, p.b, p.sq_diff
    bracket = fsum(
        (
            2.0 * math.sqrt(a * b),
            a,
            b,
            -2.0 * (a ** 0.25) * (b ** 0.75),
            -2.0 * (a ** 0.75) * (b ** 0.25),
        )
    )
    return fsum(
        (a, b, -p.a_nu * p.b_rest, -p.a_rest * p.b_nu, -2.0 * p.r * sq * sq,
         -p.r_prime * bracket)
    )


def rev_young_gap(p: ScalarParams, extra=None) -> float:
    """Reverse: ``nu a + (1-nu) b <= K^-r' a^nu b^(1-nu) + max(nu,1-nu) (...)^2``."""
    nu, x, sq = p.nu, p.sqrt_ratio, p.sq_diff
    if abs(nu - 0.5) < DELTA_HALF:
        raise _nu_at_half(nu)
    if not x > 0.0:
        raise _kantorovich_domain(x)
    k = ((x + 1.0) * (x + 1.0) / (4.0 * x)) ** (-p.r_prime)
    return fsum(
        (k * p.a_nu * p.b_rest, p.nu_max * sq * sq, -nu * p.a, -(1.0 - nu) * p.b)
    )


def rev_sum_gap(p: ScalarParams, extra=None) -> float:
    """Reverse of the two-sided sum with coefficient ``2 max(nu, 1-nu)``."""
    nu, x, sq = p.nu, p.sqrt_ratio, p.sq_diff
    if abs(nu - 0.5) < DELTA_HALF:
        raise _nu_at_half(nu)
    if not x > 0.0:
        raise _kantorovich_domain(x)
    k = ((x + 1.0) * (x + 1.0) / (4.0 * x)) ** (-p.r_prime)
    return fsum(
        (k * p.a_nu * p.b_rest, k * p.a_rest * p.b_nu, 2.0 * p.nu_max * sq * sq, -p.a, -p.b)
    )


def rev_ttt_gap(a: float, nu: float) -> float:
    """``a + 1/a <= K(a)^-r' (a^(1-2nu) + a^-(1-2nu)) + 2(1-nu)(a^(1/2) - a^(-1/2))^2``."""
    if not 0.0 < a < _INF:
        raise DomainError(f"a must be positive and finite, got {a}")
    if not 0.0 <= nu < 0.5:
        raise HypothesisError(f"nu must lie in [0, 1/2), got {nu}")
    two_nu = 2.0 * nu
    e = 1.0 - two_nu
    k = ((a + 1.0) * (a + 1.0) / (4.0 * a)) ** (-(e if e < two_nu else two_nu))
    root = math.sqrt(a)
    sq = root - 1.0 / root
    return fsum(
        (k * (a ** e + a ** (-e)), 2.0 * (1.0 - nu) * sq * sq, -a, -1.0 / a)
    )


def printed_weight(band, e: float, power: float) -> float:
    """The paper's Kantorovich weight ``K(M_lo^e / m_hi^e)^power``: ``e = 2t - 1``
    in the chain statements, ``e = alpha`` in the tensor proof chain."""
    return kantorovich(band.M_lo ** e / band.m_hi ** e) ** power


def _check_tuples(x: Sequence[float], y: Sequence[float]):
    if len(x) != len(y) or not x:
        raise HypothesisError(
            f"x and y must be non-empty tuples of equal length, got {len(x)} and {len(y)}"
        )
    if min(x) <= 0.0 or min(y) <= 0.0:
        raise HypothesisError("tuple entries must be positive")


def weight_product(x: Sequence[float], y: Sequence[float], u: float) -> float:
    """``(sum x_j^(1-u) y_j^u) * (sum x_j^u y_j^(1-u))`` -- the chain's building block.

    Symmetric under ``u <-> 1-u``; at ``u = 1/2`` it collapses to the squared
    Cauchy-Schwarz sum.
    """
    f1 = fsum((xi ** (1.0 - u)) * (yi ** u) for xi, yi in zip(x, y))
    f2 = fsum((xi ** u) * (yi ** (1.0 - u)) for xi, yi in zip(x, y))
    return f1 * f2


def _chain_terms(x, y, pair: ExponentPair) -> tuple[float, float, float]:
    """``S_0 = (sum sqrt(x y))^2``, ``P_s`` and ``P_t``.  Callers run their checks
    and take their weight first, which fixes the error raised when several fail."""
    s0 = fsum(math.sqrt(xi * yi) for xi, yi in zip(x, y)) ** 2
    return s0, weight_product(x, y, pair.s), weight_product(x, y, pair.t)


def chain_callebaut_gaps(
    x: Sequence[float], y: Sequence[float], pair: ExponentPair
) -> tuple[float, float, float]:
    """Three links of the scalar Callebaut chain in weight form.

    ``(sum sqrt(x y))^2 <= P_s <= P_t <= (sum x)(sum y)`` where
    ``P_u = weight_product(x, y, u)``; larger spread ``|u - 1/2|`` gives the
    larger product, which is exactly what the two branches encode.
    """
    _check_tuples(x, y)
    s0, ps, pt = _chain_terms(x, y, pair)
    top = fsum(x) * fsum(y)
    return (fsum((ps, -s0)), fsum((pt, -ps)), fsum((top, -pt)))


def check_band_tuples(x: Sequence[float], y: Sequence[float], band):
    """Require ``x`` in the upper and ``y`` in the lower band, up to 1e-12 relative."""
    for j, xi in enumerate(x):
        if not band.M_lo * (1 - 1e-12) <= xi <= band.M_hi * (1 + 1e-12):
            raise HypothesisError(
                f"x[{j}] = {xi} outside the upper band [{band.M_lo}, {band.M_hi}]"
            )
    for j, yi in enumerate(y):
        if not band.m_lo * (1 - 1e-12) <= yi <= band.m_hi * (1 + 1e-12):
            raise HypothesisError(
                f"y[{j}] = {yi} outside the lower band [{band.m_lo}, {band.m_hi}]"
            )


def cor_vow13_scalar_gaps(x, y, band, pair: ExponentPair) -> tuple[float, float]:
    """Banded scalar refinement: ``P_s <= K^r' P_s + c_mid (P_t - S_0) <= P_t``."""
    _check_tuples(x, y)
    check_band_tuples(x, y, band)
    kf = printed_weight(band, 2.0 * pair.t - 1.0, pair.r_prime_st)
    s0, ps, pt = _chain_terms(x, y, pair)
    mid = fsum((kf * ps, pair.c_mid * pt, -pair.c_mid * s0))
    return (fsum((mid, -ps)), fsum((pt, -mid)))


def cor_okmn_scalar_gap(x, y, pair: ExponentPair) -> float:
    """Band-free scalar refinement with the quarter-exponent bracket term."""
    _check_tuples(x, y)
    s0, ps, pt = _chain_terms(x, y, pair)
    tmid = weight_product(x, y, (3.0 - 2.0 * pair.s) / 4.0)
    rp = pair.r_prime_st
    return fsum(
        (
            pt,
            -ps,
            -pair.c_mid * ps,
            pair.c_mid * s0,
            -rp * ps,
            -rp * s0,
            2.0 * rp * tmid,
        )
    )


def cor_rev_scalar_gap(x, y, band, pair: ExponentPair) -> float:
    """Banded scalar reverse: ``P_t <= K^-r' P_s + c_rev (P_t - S_0)`` as printed."""
    _check_tuples(x, y)
    check_band_tuples(x, y, band)
    kf = printed_weight(band, 2.0 * pair.t - 1.0, -pair.r_prime_st)
    s0, ps, pt = _chain_terms(x, y, pair)
    return fsum((kf * ps, pair.c_rev_paper * pt, -pair.c_rev_paper * s0, -pt))


_NO_EXTRA = MappingProxyType({})


def _lemma_ttt1_entry(params, extra):
    return lemma_ttt1_gap(extra["a"], extra["mu"])


def _rev_ttt_entry(params, extra):
    return rev_ttt_gap(extra["a"], extra["nu"])


#: ``scalar_gap`` dispatch: member name -> ``(params, extra) -> gap``.  Keyed
#: by ``_name_`` (a plain string) rather than by the member, because hashing
#: an enum member runs Python-level ``Enum.__hash__`` on every lookup.
_GAP_ENTRIES = {
    "YOUNG_CLASSICAL": young_classical_gap,
    "YOUNG_ZUO": young_zuo_gap,
    "YOUNG_WU_ZHAO": young_wu_zhao_gap,
    "LEMMA_SUM": lemma_sum_gap,
    "LEMMA_TTT1": _lemma_ttt1_entry,
    "LEMMA_4TERM": lemma_4term_gap,
    "REV_YOUNG": rev_young_gap,
    "REV_SUM": rev_sum_gap,
    "REV_TTT": _rev_ttt_entry,
    "CHAIN_CALLEBAUT": lambda params, extra: chain_callebaut_gaps(
        extra["x"], extra["y"], params
    ),
    "COR_VOW13_SCALAR": lambda params, extra: cor_vow13_scalar_gaps(
        extra["x"], extra["y"], extra["band"], params
    ),
    "COR_OKMN_SCALAR": lambda params, extra: cor_okmn_scalar_gap(
        extra["x"], extra["y"], params
    ),
    "COR_REV_SCALAR": lambda params, extra: cor_rev_scalar_gap(
        extra["x"], extra["y"], extra["band"], params
    ),
}


def scalar_gap(ineq: ScalarIneqId, params=None, extra: dict | None = None):
    """Evaluate one scalar statement to its signed gap(s).

    ``params`` carries the statement's parameter object (:class:`ScalarParams`
    or :class:`ExponentPair`; the single-variable lemmas LEMMA_TTT1 and
    REV_TTT take none); ``extra`` carries whatever else the statement needs
    (``a`` with ``mu`` or ``nu`` for the single-variable lemmas, ``x``/``y``
    tuples and a band for the chain forms).  Chain statements return a tuple
    of link gaps.  A finite input on which a power or the ``math.fsum`` of the
    terms overflows, whose terms include both ``inf`` and ``-inf``, or that
    gives a gap that is not finite (an infinite term, or ``inf / inf`` inside
    a Kantorovich constant), raises :class:`DomainError`.
    """
    if ineq.__class__ is not ScalarIneqId:
        raise DomainError(f"unknown scalar inequality id: {ineq}")
    try:
        gap = _GAP_ENTRIES[ineq._name_](params, extra or _NO_EXTRA)
    except (OverflowError, ValueError) as exc:
        # A bare ValueError is an ``fsum`` of inf and -inf; the package's own
        # errors subclass ValueError and pass through unchanged.
        if isinstance(exc, ValueError) and exc.__class__ is not ValueError:
            raise
        raise DomainError(f"{ineq.value} overflows on this input: {exc}") from exc
    if gap.__class__ is tuple:
        if all(map(_isfinite, gap)):
            return gap
    elif _isfinite(gap):
        return gap
    raise DomainError(f"{ineq.value} overflows on this input: the gap is {gap!r}")
