"""Registry of the operator inequalities under test, their link builders
and their evaluation.

Each statement is defined once, by its registry record: its text, variants,
hypotheses and parameter kind, its link builder and the weights of the
sums the builder reads, each declared once by name.  A builder takes a
``_Group``, the built trials of one stage that share an id, a variant and
a dimension.  It reads the sums the stage stored for the group's weight
columns by name, computes its per-trial constants (Kantorovich weights and
coefficients) in Python, one trial at a time (a constant that raises fails
the stage, like any stacked step), and makes its ``(name, LHS, RHS)``
links, with ``LHS <= RHS`` claimed, as ``(k, D, D)`` stacks, with the
constants as ``(k, 1, 1)`` columns.  Each expression keeps the association
and order of the one-matrix form, so every entry is the one the trial gets
alone.  PROP_HBOUNDS reads the literal bound's bare scalars as multiples of
the identity; its repaired form carries the scalar bound on ``S(1/2)``.
README describes the variants, the parameter kinds, stacked evaluation and
its one failure rule.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from functools import partial, reduce
from operator import attrgetter
from typing import Any, Callable

import numpy as np

from .errors import ITEM_ERRORS, DomainError, HypothesisError, ShapeError, VariantError
from .errors import each_alone
from .matcore import (
    DEFAULT_TOL,
    LoewnerGap,
    SymMatrix,
    _finite,
    _gather,
    _mean_base,
    _mean_sums,
    _mean_weights,
    _runs,
    kron_arrays,
    loewner_gaps,
    require_positive_pairs,
    spectral_pow_stack,
)
from .sampler import FamilyInstance, SpectralBand, _band_failures, _family_parts, _sizes
from .scalarcore import (
    DELTA_HALF,
    ExponentPair,
    ProofChainParams,
    kantorovich,
    kantorovich_min_over_interval,
    printed_weight,
)

_new = object.__new__


class IneqId(Enum):
    WADA = "WADA"
    CHAIN_34RF = "CHAIN_34RF"
    MOJ_MO = "MOJ_MO"
    TENSOR_TOOL = "TENSOR_TOOL"
    PROOF_CHAIN = "PROOF_CHAIN"
    HAD_MAMAN = "HAD_MAMAN"
    HAD_MAMAN2 = "HAD_MAMAN2"
    COR_BJ_IDENTITY = "COR_BJ_IDENTITY"
    REV_TENSOR_DEAR = "REV_TENSOR_DEAR"
    REV_HAD_MAINTH = "REV_HAD_MAINTH"
    REV_T1_REMARK = "REV_T1_REMARK"
    PROP_HBOUNDS = "PROP_HBOUNDS"


class Variant(Enum):
    PAPER_LITERAL = "paper"
    REPAIRED = "repaired"


@dataclass(frozen=True)
class LinkReport:
    """One link of a chain: its name and Loewner gap."""

    name: str
    gap: LoewnerGap

    @staticmethod
    def _of(name: str, gap: LoewnerGap) -> "LinkReport":
        """``LinkReport(name, gap)``, its ``__dict__`` filled by plain stores
        in field order rather than the frozen dataclass's per-field
        ``object.__setattr__``: an equal instance."""
        link = _new(LinkReport)
        fields = link.__dict__
        fields["name"] = name
        fields["gap"] = gap
        return link


@dataclass(frozen=True)
class IneqReport:
    """Evaluation outcome for one (id, variant, instance, params) quadruple.

    ``gap`` is the worst link by relative gap, and ``lhs_norm``/``rhs_norm``
    are the spectral norms of that link's operands.  ``witness``, built when
    read from the family the report keeps outside equality and ``repr``,
    serializes the instance exactly when the inequality is not satisfied.
    """

    ineq: IneqId
    variant: Variant
    params: dict
    links: tuple[LinkReport, ...]
    gap: LoewnerGap
    lhs_norm: float
    rhs_norm: float
    family: FamilyInstance = field(compare=False, repr=False)

    @staticmethod
    def _of(ineq, variant, params, links, gap, lhs_norm, rhs_norm, family) -> "IneqReport":
        """``IneqReport(...)`` of the fields in their order, filled into its
        ``__dict__`` by plain stores rather than the frozen dataclass's
        per-field ``object.__setattr__``: an equal instance."""
        report = _new(IneqReport)
        fields = report.__dict__
        fields["ineq"] = ineq
        fields["variant"] = variant
        fields["params"] = params
        fields["links"] = links
        fields["gap"] = gap
        fields["lhs_norm"] = lhs_norm
        fields["rhs_norm"] = rhs_norm
        fields["family"] = family
        return report

    @property
    def satisfied(self) -> bool:
        return self.gap.satisfied

    @property
    def witness(self) -> dict | None:
        return None if self.gap.satisfied else {"params": self.params, **self.family.to_dict()}


@dataclass(frozen=True, eq=False)
class ParamKind:
    """One parameter domain of the paper.  When ``holds`` fails,
    ``build_links`` raises ``HypothesisError`` with ``violation`` formatted
    by the report form."""

    name: str
    type: type
    values: tuple
    report: Callable[[Any], dict]
    holds: Callable[[Any], bool] = lambda params: True
    violation: str = ""


# The parameter kinds; README describes each one.
_HIGH = tuple(k / 16 for k in range(9, 17))  # 1/2 < u <= 1
_LOW = tuple(k / 16 for k in range(8))  # 0 <= u < 1/2
ST_KIND = ParamKind(
    "st",
    ExponentPair,
    tuple(
        [ExponentPair(s, t) for t in _HIGH for s in _HIGH if s <= t]
        + [ExponentPair(s, t) for t in _LOW for s in _LOW if t <= s]
    ),
    lambda pair: {"s": pair.s, "t": pair.t},
)
ST_T1_KIND = ParamKind(
    "st_t1",
    ExponentPair,
    tuple(ExponentPair(s, 1.0) for s in _HIGH),
    ST_KIND.report,
    holds=lambda pair: pair.t == 1.0,
    violation="this statement fixes t = 1, got t = {t}",
)
ALPHA_BETA_KIND = ParamKind(
    "alpha_beta",
    ProofChainParams,
    tuple(ProofChainParams.from_exponents(p) for p in ST_KIND.values if p.s != p.t),
    lambda params: {"alpha": params.alpha, "beta": params.beta},
)
ALPHA_KIND = ParamKind(
    "alpha",
    numbers.Real,
    tuple(k / 8.0 for k in range(9)),
    lambda alpha: {"alpha": float(alpha)},
    holds=lambda alpha: 0.0 <= float(alpha) <= 1.0,
    violation="weight must lie in [0, 1], got {alpha}",
)


@dataclass(frozen=True)
class Weights:
    """The stored sums one variant's builder reads, each weight declared
    once, by name.  The builder reads a name of ``S`` as ``g.S(name)``, the
    paper's ``S(u)`` at the declared ``u``, and a name of ``sums`` as
    ``g.sums(name)``, the stored sum at the declared weight itself.  A
    weight is a float, or a function of the trial's params that gives one
    (a pair's power sum in ``sums``: a ``(p, q)`` tuple).  The record's
    ``source`` says what a weight stores; README, "Stacked links", lists
    the forms."""

    S: dict = field(default_factory=dict)
    sums: dict = field(default_factory=dict)


@dataclass(frozen=True)
class InequalityInfo:
    """One statement's record.  Outside ``==`` and ``repr`` it holds the
    link builder and the weights of the sums it reads, the only sums a
    stage stores for it, declared once by name (``Weights``): ``weights``
    is one ``Weights`` for every variant, or a dict of one per variant, and
    the record keeps it as a dict keyed by the variant's member name.

    ``source`` is ``"means"``, the mean sums ``sum_j A_j #_w B_j``, whose
    ``S(u)`` is the Hadamard product of the sums at ``u`` and ``1 - u``; or
    ``"powers"``, ``A^p x B^q + A^q x B^p`` of a pair at ``(p, q)``, whose
    ``S(u)`` is the sum at ``(u, 1 - u)``, and ``sum_j A_j^u`` of a family
    at ``u`` (COR_BJ_IDENTITY, which reads no ``S``)."""

    ineq: IneqId
    description: str
    variants: tuple[Variant, ...]
    anchor: str
    takes_pair: bool
    needs_band: bool
    kind: ParamKind
    build: Callable[[_Group], list] = field(compare=False, repr=False)
    source: str = field(default="means", compare=False, repr=False)
    weights: Any = field(default_factory=Weights, compare=False, repr=False)

    def __post_init__(self):
        each = self.weights if isinstance(self.weights, dict) else dict.fromkeys(self.variants, self.weights)
        object.__setattr__(self, "weights", {v._name_: w for v, w in each.items()})


class UndeclaredWeightError(LookupError):
    """A builder read a weight name that its record does not declare for
    the variant; a defect of the registry, not of a trial."""


def _column(weight, params) -> np.ndarray:
    """A declared weight of every trial, one row per trial."""
    if callable(weight):
        return np.array(list(map(weight, params)), dtype=np.float64)
    return np.full(len(params), weight, dtype=np.float64)


class _Group:
    """The trials ``ks`` of one stage that share an id, a variant and a
    dimension, as their builder reads them: each read gives one row per
    trial or raises.

    The group evaluates each declared weight of its record once, as a
    column with one row per trial, and keeps the distinct columns
    (``columns``): a column equal to another bit for bit on every row, as
    ``1/2`` and ``1 - 1/2`` are, is kept once.  The stage stores one
    ``(k, D, D)`` sum per column in ``stored``, and ``S`` and ``sums`` read
    them by name."""

    def __init__(self, info: InequalityInfo, variant, ks, trials):
        self.info, self.variant, self.ks = info, variant, ks
        self.params = [trials[k][2] for k in ks]
        self.families = [trials[k][1] for k in ks]
        self.dim = self.families[0].dim
        self.columns: list[np.ndarray] = []
        self.stored = None
        self._at: dict[tuple, Any] = {}  # (read, name) -> the place of its column(s)
        seen: dict[bytes, int] = {}

        def place(col):
            key = col.tobytes()
            if key not in seen:
                seen[key] = len(self.columns)
                self.columns.append(col)
            return seen[key]

        weights = info.weights[variant._name_]
        for name, weight in weights.S.items():
            u = _column(weight, self.params)
            if info.source == "means":
                self._at["S", name] = (place(u), place(1.0 - u))
            else:
                self._at["S", name] = place(np.stack([u, 1.0 - u], axis=1))
        for name, weight in weights.sums.items():
            self._at["sums", name] = place(_column(weight, self.params))

    def _place(self, read: str, name: str):
        try:
            return self._at[read, name]
        except KeyError:
            raise UndeclaredWeightError(
                f"{self.info.ineq.value}/{self.variant.value} reads {read}({name!r}), "
                "which its record does not declare"
            ) from None

    def cols(self, fn):
        """``fn(params, family)`` of each trial as a ``(k, 1, 1)`` column,
        or one column per item when ``fn`` returns a tuple.  The first
        trial whose ``fn`` raises fails the group, an overflow of a Python
        float as ``HypothesisError``."""
        try:
            values = [fn(p, f) for p, f in zip(self.params, self.families)]
        except ArithmeticError as exc:  # a power overflowed, a ratio's denominator underflowed
            raise HypothesisError(f"{self.info.ineq.value} overflows on this input: {exc}") from exc
        arr = np.array(values, dtype=np.float64)
        return arr[:, None, None] if arr.ndim == 1 else tuple(arr.T[:, :, None, None])

    def sums(self, name: str) -> np.ndarray:
        """The stored sum of the declared weight ``name`` of each trial."""
        return self.stored[self._place("sums", name)]

    def S(self, name: str) -> np.ndarray:
        """``S(u)`` of each trial, ``u`` the declared weight ``name``:
        ``A^u x B^(1-u) + A^(1-u) x B^u`` for a pair (the stored sum ``(u, 1 -
        u)``) and ``sum(A_j #_u B_j) o sum(A_j #_(1-u) B_j)`` for a family.
        A family's ``S`` that is not finite raises ``DomainError`` here,
        where a builder reads it, before any constant that the builder
        computes after it."""
        at = self._place("S", name)
        if isinstance(at, tuple):
            return _finite(self.stored[at[0]] * self.stored[at[1]])
        return self.stored[at]

    def plain(self, side: str) -> np.ndarray:
        """``sum_j A_j`` (``side="A_list"``) or ``sum_j B_j`` of each trial,
        summed left to right; a pair's ``A`` or ``B``."""
        return np.array([reduce(np.add, [m.array for m in getattr(f, side)]) for f in self.families])


def _congruence_interval(band: SpectralBand, t: float) -> tuple[float, float]:
    """Spectrum interval of the congruence-transformed tensor operand.

    Both transformed families live in ``[m_lo/M_hi, m_hi/M_lo]``, so the
    ratio operand has spectrum in ``[1/g, g]`` with
    ``g = (m_hi M_hi / (m_lo M_lo))^|t-1/2|``; the interval contains 1.
    """
    g_hi = (band.m_hi * band.M_hi / (band.m_lo * band.M_lo)) ** abs(t - 0.5)
    return 1.0 / g_hi, g_hi


def _tensor_weight(band, pair: ExponentPair, variant: Variant, sign: float) -> float:
    """Kantorovich weight ``K(c)^(sign r')`` of the tensor statements: the
    printed one, or the repaired ``c = (M_lo / m_hi)^|t - 1/2|``."""
    power = sign * pair.r_prime_st
    if variant == Variant.REPAIRED:
        return kantorovich((band.M_lo / band.m_hi) ** abs(pair.t - 0.5)) ** power
    return printed_weight(band, 2.0 * pair.t - 1.0, power)


def _hadamard_weight(band, pair: ExponentPair, variant: Variant, sign: float) -> float:
    """Kantorovich weight ``K^(sign r')`` of the Hadamard-sum statements; the
    repaired constant is the smallest one over the congruence interval."""
    power = sign * pair.r_prime_st
    if variant == Variant.REPAIRED:
        return kantorovich_min_over_interval(*_congruence_interval(band, pair.t)) ** power
    return printed_weight(band, 2.0 * pair.t - 1.0, power)


# --- link builders -----------------------------------------------------------
# Each builder takes a ``_Group`` and returns its (link_name, LHS, RHS) stacks,
# LHS <= RHS claimed; the registry binds the refinement's and reverse's weight.


def _links_wada(g: _Group):
    a, b = g.plain("A_list"), g.plain("B_list")
    mid_g, gl, gr = g.sums("half"), g.sums("alpha"), g.sums("rest")
    low = kron_arrays(mid_g, mid_g)
    mid = (kron_arrays(gl, gr) + kron_arrays(gr, gl)) * 0.5
    high = (kron_arrays(a, b) + kron_arrays(b, a)) * 0.5
    return [("geo_vs_mix", low, mid), ("mix_vs_sum", mid, high)]


def _links_chain_34rf(g: _Group):
    l0, ss, st = g.S("half"), g.S("s"), g.S("t")
    top = g.plain("A_list") * g.plain("B_list")
    return [("geo_vs_s", l0, ss), ("s_vs_t", ss, st), ("t_vs_sums", st, top)]


def _moj_mo_coefficient(pair: ExponentPair, family) -> float:
    if abs(pair.s - 0.5) < DELTA_HALF:
        raise HypothesisError(
            f"s = {pair.s} lies within {DELTA_HALF:g} of 1/2; the middle coefficient "
            "(t-s)/(s-1/2) is undefined there"
        )
    return (pair.t - pair.s) / (pair.s - 0.5)


def _links_moj_mo(g: _Group):
    c = g.cols(_moj_mo_coefficient)
    ss, l0 = g.S("s"), g.S("half")
    mid = ss + c * (ss - l0)
    return [("s_vs_mid", ss, mid), ("mid_vs_t", mid, g.S("t"))]


def _links_refinement(weight, g: _Group):
    """``K^r' S(s) + c_mid (S(t) - S(1/2)) <= S(t)`` with the id's ``weight``."""
    ss, st, l0 = g.S("s"), g.S("t"), g.S("half")
    kf, c_mid = g.cols(lambda p, f: (weight(f.band, p, g.variant, 1.0), p.c_mid))
    return [("main", kf * ss + c_mid * (st - l0), st)]


def _links_reverse(weight, g: _Group):
    """``S(t) <= K^-r' S(s) + c_rev (S(t) - S(1/2))`` with the id's ``weight``."""
    repaired = g.variant == Variant.REPAIRED
    ss, st, l0 = g.S("s"), g.S("t"), g.S("half")
    coeff, kf = g.cols(lambda p, f: (
        p.c_rev_repair if repaired else p.c_rev_paper, weight(f.band, p, g.variant, -1.0)))
    return [("main", st, kf * ss + coeff * (st - l0))]


def _pointwise(params: ProofChainParams, wa: np.ndarray, wb: np.ndarray) -> tuple[float, float]:
    """PROOF_CHAIN's pointwise step on the spectrum of ``A^alpha x
    B^-alpha``, from the eigenvalues ``wa`` of ``A`` and ``wb`` of ``B``:
    the Kantorovich-weighted two-term bound at each eigenvalue product, as
    ``(lhs, rhs)`` at the worst point.  The eigenvalues are NumPy floats,
    so an overflow gives a non-finite value, which fails the link's
    finiteness check, where a Python float's power would raise."""
    al, mu = params.alpha, params.mu
    worst = None
    for la in wa:
        for lb in wb:
            x = la ** al * lb ** (-al)
            lhs_val = kantorovich(x) ** params.r_prime * (x ** mu + x ** (-mu)) + (
                1.0 - mu
            ) * (x + 1.0 / x - 2.0)
            rhs_val = x + 1.0 / x
            if worst is None or rhs_val - lhs_val < worst[1] - worst[0]:
                worst = (lhs_val, rhs_val)
    return worst


def _links_proof_chain(g: _Group):
    kf = g.cols(lambda c, f: printed_weight(f.band, c.alpha, c.r_prime))
    (w,) = _gather([m for f in g.families for m in (f.A_list[0], f.B_list[0])], "w")
    spectra = {id(f): (wa, wb) for f, wa, wb in zip(g.families, w[::2], w[1::2])}
    lhs_pt, rhs_pt = g.cols(lambda c, f: _pointwise(c, *spectra[id(f)]))
    # The public constructor's symmetrisation of a 1x1 link: a bitwise
    # no-op, except that an entry above half the float limit overflows.
    spectra_link = ("pointwise_spectrum", (lhs_pt + lhs_pt) / 2.0, (rhs_pt + rhs_pt) / 2.0)
    one_mu = g.cols(lambda c, f: 1.0 - c.mu)

    # G_e = A^e x B^-e + swap, and H_e = A^(1+e) x B^(1-e) + swap.
    g_al = g.sums("alpha")
    ident = np.eye(g.dim * g.dim)
    lhs345 = kf * g.sums("beta") + one_mu * (g_al - ident * 2.0)
    h_al = g.sums("alpha_shifted")
    lhs3456 = kf * g.sums("beta_shifted") + one_mu * (
        h_al - kron_arrays(g.plain("A_list"), g.plain("B_list")) * 2.0
    )
    return [spectra_link, ("ratio_powers", lhs345, g_al), ("shifted_powers", lhs3456, h_al)]


def _links_had_maman2(g: _Group):
    c_mid, r_prime = g.cols(lambda p, f: (p.c_mid, p.r_prime_st))
    ss, st, l0 = g.S("s"), g.S("t"), g.S("half")
    bracket = ss + l0 - g.S("quarter") * 2.0
    lhs = ss + c_mid * (ss - l0) + r_prime * bracket
    return [("main", lhs, st), ("bracket_psd", np.zeros_like(bracket), bracket)]


def _links_cor_bj(g: _Group):
    # Lower family pinned to the identity: means become plain powers of A_j,
    # and the stored sum at u is sum_j A_j^u.
    c_mid, r_prime = g.cols(lambda p, f: (p.c_mid, p.r_prime_st))
    power_sum = g.sums
    s_s = power_sum("s_rest") * power_sum("s")
    s_t = power_sum("t_rest") * power_sum("t")
    root = power_sum("half")
    l0 = root * root
    t_mid = power_sum("quarter_rest") * power_sum("quarter")
    lhs = s_s + c_mid * (s_s - l0) + r_prime * (s_s + l0 - t_mid * 2.0)
    return [("main", lhs, s_t)]


def _links_rev_t1(g: _Group):
    repaired = g.variant == Variant.REPAIRED
    kf, coeff = g.cols(lambda p, f: (
        _hadamard_weight(f.band, p, g.variant, -1.0), 2.0 * p.s if repaired else 2.0 * p.s - 1.0))
    ss, l0 = g.S("s"), g.S("half")
    top = g.plain("A_list") * g.plain("B_list")
    return [("main", top, kf * ss + coeff * (top - l0))]


def _hbounds_paper(pair: ExponentPair, family) -> tuple[float, ...]:
    """The literal PROP_HBOUNDS constants: ``K^r'``, the lower scalar term,
    ``K^-r'`` and the upper scalar term."""
    band = family.band
    kf = kantorovich(band.h ** (2.0 * pair.t - 1.0)) ** pair.r_prime_st
    low_term = (math.sqrt(band.h) - math.sqrt(1.0 / band.h)) ** 2
    high_term = (math.sqrt(band.h_prime) - math.sqrt(1.0 / band.h_prime)) ** 2
    return kf, pair.c_mid * low_term, 1.0 / kf, pair.c_rev_paper * high_term


def _hbounds_repaired(pair: ExponentPair, family) -> tuple[float, ...]:
    """The repaired PROP_HBOUNDS constants: the transformed spectrum interval
    contains 1, so the lower scalar term is 0 and the factor 1, and the upper
    scalar bound rides on ``S(1/2)``, as the congruence produces."""
    lo, hi = _congruence_interval(family.band, pair.t)
    kf = kantorovich_min_over_interval(lo, hi) ** pair.r_prime_st
    up_term = (math.sqrt(hi) - math.sqrt(1.0 / hi)) ** 2
    return kf, 1.0 / kf, pair.c_rev_repair * up_term


def _links_prop_hbounds(g: _Group):
    ss, st = g.S("s"), g.S("t")
    if g.variant == Variant.PAPER_LITERAL:
        kf, low, inv_kf, high = g.cols(_hbounds_paper)
        ident = np.eye(g.dim)
        lower_lhs = kf * ss + low * ident
        upper_rhs = inv_kf * ss + high * ident
        return [("lower", lower_lhs, st), ("upper", st, upper_rhs)]
    kf, inv_kf, up = g.cols(_hbounds_repaired)
    upper_rhs = inv_kf * ss + up * g.S("half")
    return [("lower", kf * ss, st), ("upper", st, upper_rhs)]


# --- registry ----------------------------------------------------------------


#: The weights ``S(s)``, ``S(t)`` and ``S(1/2)`` of an ``ExponentPair``
#: statement, and its ``S(s)`` and ``S(t)`` alone.
_S_ST = {"s": attrgetter("s"), "t": attrgetter("t")}
_S_ST_HALF = Weights(S={**_S_ST, "half": 0.5})


def _quarter(pair: ExponentPair) -> float:
    """The quarter weight ``(3 - 2s)/4`` of the bracket statements."""
    return (3.0 - 2.0 * pair.s) / 4.0


#: Each id's record, keyed by member name: a member key would hash
#: through Python-level ``Enum.__hash__`` on every lookup.
_REGISTRY: dict[str, InequalityInfo] = {
    info.ineq._name_: info
    for info in (
        InequalityInfo(
            IneqId.WADA,
            "Two-link tensor chain for one positive pair via weighted means",
            (Variant.PAPER_LITERAL,),
            "(A#B)x(A#B) <= 1/2{(A#aB)x(A#(1-a)B) + swap} <= 1/2{AxB + BxA}",
            takes_pair=True,
            needs_band=False,
            kind=ALPHA_KIND,
            build=_links_wada,
            weights=Weights(sums={"half": 0.5, "alpha": float, "rest": lambda alpha: 1.0 - float(alpha)}),
        ),
        InequalityInfo(
            IneqId.CHAIN_34RF,
            "Three-link Hadamard-sum chain interpolating Cauchy-Schwarz",
            (Variant.PAPER_LITERAL,),
            "S(1/2) <= S(s) <= S(t) <= (sum A)o(sum B), S(u) = sum(A#uB) o sum(A#(1-u)B)",
            takes_pair=False,
            needs_band=False,
            kind=ST_KIND,
            build=_links_chain_34rf,
            weights=_S_ST_HALF,
        ),
        InequalityInfo(
            IneqId.MOJ_MO,
            "Refined middle link with coefficient (t-s)/(s-1/2), as printed",
            (Variant.PAPER_LITERAL,),
            "S(s) <= S(s) + (t-s)/(s-1/2)(S(s) - S(1/2)) <= S(t)",
            takes_pair=False,
            needs_band=False,
            kind=ST_KIND,
            build=_links_moj_mo,
            weights=_S_ST_HALF,
        ),
        InequalityInfo(
            IneqId.TENSOR_TOOL,
            "Kantorovich-weighted tensor two-term bound under the band hypothesis",
            (Variant.PAPER_LITERAL, Variant.REPAIRED),
            "K(c)^r'(A^s x B^(1-s) + swap) + c_mid(P_t - 2 A^(1/2) x B^(1/2)) <= P_t; "
            "c = M^(2t-1)/m^(2t-1) literal, (M/m)^|t-1/2| repaired",
            takes_pair=True,
            needs_band=True,
            kind=ST_KIND,
            build=partial(_links_refinement, _tensor_weight),
            source="powers",
            weights=_S_ST_HALF,
        ),
        InequalityInfo(
            IneqId.PROOF_CHAIN,
            "Intermediate tensor steps behind the two-term bound (pointwise, "
            "ratio powers, shifted powers)",
            (Variant.PAPER_LITERAL,),
            "K(M^a/m^a)^r'(A^b x B^-b + swap) + (1-b/a)(G_a - 2I) <= G_a, then "
            "multiplied through by A x B",
            takes_pair=True,
            needs_band=True,
            kind=ALPHA_BETA_KIND,
            build=_links_proof_chain,
            source="powers",
            weights=Weights(sums={
                "alpha": lambda c: (c.alpha, -c.alpha),
                "beta": lambda c: (c.beta, -c.beta),
                "alpha_shifted": lambda c: (1.0 + c.alpha, 1.0 - c.alpha),
                "beta_shifted": lambda c: (1.0 + c.beta, 1.0 - c.beta),
            }),
        ),
        InequalityInfo(
            IneqId.HAD_MAMAN,
            "Kantorovich-weighted Hadamard-sum refinement under the band hypothesis",
            (Variant.PAPER_LITERAL, Variant.REPAIRED),
            "K(c)^r' S(s) + c_mid(S(t) - S(1/2)) <= S(t); repaired factor "
            "collapses to 1 (transformed spectrum interval contains 1)",
            takes_pair=False,
            needs_band=True,
            kind=ST_KIND,
            build=partial(_links_refinement, _hadamard_weight),
            weights=_S_ST_HALF,
        ),
        InequalityInfo(
            IneqId.HAD_MAMAN2,
            "Band-free refinement with the quarter-weight bracket (also checks "
            "bracket positivity)",
            (Variant.PAPER_LITERAL,),
            "S(s) + c_mid(S(s) - S(1/2)) + r'(S(s) + S(1/2) - 2 S((3-2s)/4)) <= S(t)",
            takes_pair=False,
            needs_band=False,
            kind=ST_KIND,
            build=_links_had_maman2,
            weights=Weights(S={**_S_ST_HALF.S, "quarter": _quarter}),
        ),
        InequalityInfo(
            IneqId.COR_BJ_IDENTITY,
            "Quarter-weight refinement specialized to an identity lower family "
            "(plain power sums)",
            (Variant.PAPER_LITERAL,),
            "P(1-s)oP(s) + c_mid(... - P(1/2)oP(1/2)) + r'(bracket) <= P(1-t)oP(t), "
            "P(u) = sum A_j^u",
            takes_pair=False,
            needs_band=False,
            kind=ST_KIND,
            build=_links_cor_bj,
            source="powers",
            weights=Weights(sums={
                "s_rest": lambda pair: 1.0 - pair.s,
                "s": attrgetter("s"),
                "t_rest": lambda pair: 1.0 - pair.t,
                "t": attrgetter("t"),
                "half": 0.5,
                "quarter_rest": lambda pair: (1.0 + 2.0 * pair.s) / 4.0,
                "quarter": _quarter,
            }),
        ),
        InequalityInfo(
            IneqId.REV_TENSOR_DEAR,
            "Reverse tensor two-term bound with inverse Kantorovich weight",
            (Variant.PAPER_LITERAL, Variant.REPAIRED),
            "P_t <= K(c)^-r' P_s + c_rev(P_t - 2 A^(1/2) x B^(1/2)); literal "
            "c_rev = (s-1/2)/(t-1/2), repaired (t+s-1)/(t-1/2)",
            takes_pair=True,
            needs_band=True,
            kind=ST_KIND,
            build=partial(_links_reverse, _tensor_weight),
            source="powers",
            weights=_S_ST_HALF,
        ),
        InequalityInfo(
            IneqId.REV_HAD_MAINTH,
            "Reverse Hadamard-sum bound with inverse Kantorovich weight",
            (Variant.PAPER_LITERAL, Variant.REPAIRED),
            "S(t) <= K(c)^-r' S(s) + c_rev(S(t) - S(1/2))",
            takes_pair=False,
            needs_band=True,
            kind=ST_KIND,
            build=partial(_links_reverse, _hadamard_weight),
            weights=_S_ST_HALF,
        ),
        InequalityInfo(
            IneqId.REV_T1_REMARK,
            "The t = 1 specialization of the reverse Hadamard-sum bound",
            (Variant.PAPER_LITERAL, Variant.REPAIRED),
            "(sum A)o(sum B) <= K(M/m)^-r' S(s) + (2s-1)(top - S(1/2)); "
            "repaired coefficient 2s, factor 1",
            takes_pair=False,
            needs_band=True,
            kind=ST_T1_KIND,
            build=_links_rev_t1,
            weights=Weights(S={"s": attrgetter("s"), "half": 0.5}),
        ),
        InequalityInfo(
            IneqId.PROP_HBOUNDS,
            "Two-sided bound with scalar spectral-ratio terms",
            (Variant.PAPER_LITERAL, Variant.REPAIRED),
            "K(h^(2t-1))^r' S(s) + c_mid(sqrt(h)-sqrt(1/h))^2 <= S(t) <= "
            "K(h^(2t-1))^-r' S(s) + c_rev(sqrt(h')-sqrt(1/h'))^2",
            takes_pair=False,
            needs_band=True,
            kind=ST_KIND,
            build=_links_prop_hbounds,
            # Only the repaired form reads S(1/2).
            weights={Variant.PAPER_LITERAL: Weights(S=_S_ST), Variant.REPAIRED: _S_ST_HALF},
        ),
    )
}


#: Ids that define a REPAIRED variant; requesting it elsewhere is an error.
REPAIRABLE = frozenset(
    info.ineq for info in _REGISTRY.values() if Variant.REPAIRED in info.variants
)

#: Hadamard-sum ids, i.e. the family-shaped ones.
HADAMARD_SUM_IDS = tuple(i for i in IneqId if not _REGISTRY[i._name_].takes_pair)


def list_inequalities() -> tuple[InequalityInfo, ...]:
    """Static registry dump, one entry per operator inequality id."""
    return tuple(_REGISTRY[i._name_] for i in IneqId)


def inequality_info(ineq: IneqId) -> InequalityInfo:
    return _REGISTRY[ineq._name_]


def build_links(
    ineq: IneqId,
    family: FamilyInstance,
    params,
    variant: Variant = Variant.PAPER_LITERAL,
):
    """Construct the (name, LHS, RHS) operand triples for one statement.

    Shared by ``evaluate_inequality`` and the oracle's diagonal cross-check so
    that both see the identical matrix path.  Positivity failures inside the
    matrix algebra are statement-hypothesis violations at this boundary.
    This is the one-trial case of the stage's builders.
    """
    out, groups = _build_stage([(ineq, family, params, variant)])
    if out[0] is not None:
        raise out[0]
    ((_, _, links),) = groups
    return [(name, SymMatrix._exact(lhs[0]), SymMatrix._exact(rhs[0])) for name, lhs, rhs in links]


def _hypothesis(exc: Exception) -> Exception:
    """A ``DomainError`` of the matrix algebra as the statement's
    ``HypothesisError``; any other error unchanged."""
    if not isinstance(exc, DomainError):
        return exc
    err = HypothesisError(str(exc))
    err.__cause__ = exc
    return err


def _build_stage(trials) -> tuple[list, list]:
    """The links of the trials ``(ineq, family, params, variant)``, built
    together: ``(out, groups)``.  ``out[k]`` is the error of trial ``k``'s
    checks, a ``DomainError`` as ``HypothesisError``, or ``None``; a group
    ``(info, ks, links)`` holds the record of its id and ``(name, lhs,
    rhs)`` stacks whose row ``r`` is trial ``ks[r]``'s.  The stacked steps
    succeed whole or raise, a ``DomainError`` as ``HypothesisError``: the
    band checks of every family (``_band_failures``, once for the stage),
    one mean-path factoring per distinct family that takes means, the
    stored sums of every group's weight columns, and each group's builder,
    its per-trial constants included, and links, checked for finiteness.
    """
    # Each trial's record is looked up once; every later step reads
    # (info, family, params, variant).
    staged = [(_REGISTRY[ineq._name_], family, params, variant) for ineq, family, params, variant in trials]
    # Every band check of the stage runs on one stack per dimension.
    banded = {id(f): f for info, f, _, _ in staged
              if isinstance(f, FamilyInstance) and info.needs_band}
    bands = dict(zip(banded, _band_failures(list(banded.values()))))
    out = []
    for trial in staged:
        try:
            _check(*trial, bands.get(id(trial[1])))
            out.append(None)
        except ITEM_ERRORS as exc:
            out.append(_hypothesis(exc))
    by_group: dict[tuple, list[int]] = {}
    for k, err in enumerate(out):
        if err is None:
            info, family, _, variant = staged[k]
            # Keyed by names: a member key would hash through Enum.__hash__.
            by_group.setdefault((info.ineq._name_, variant._name_, family.dim), []).append(k)
    built = []
    try:
        groups = [_Group(staged[ks[0]][0], staged[ks[0]][3], ks, staged) for ks in by_group.values()]
        means = [g for g in groups if g.info.source == "means"]
        _fill_mean_sums(means)
        _fill_power_sums([g for g in groups if g.info.source == "powers"])
        with np.errstate(over="ignore", invalid="ignore"):
            for g in groups:
                links = g.info.build(g)
                built.append((g.info, g.ks, [(name, _finite(lhs), _finite(rhs)) for name, lhs, rhs in links]))
    except DomainError as exc:
        raise _hypothesis(exc)
    return out, built


def _fill_mean_sums(groups: list[_Group]):
    """Store the mean sums of each group's weight columns.  The distinct
    families of each dimension are factored together: their spectra are
    read at once (``_family_parts``) and their pairs factored by one
    ``matcore._mean_base`` call (the checks of ``MeanPath.stack``, whose
    shapes a ``FamilyInstance`` already guarantees); then one
    ``matcore._mean_sums`` call computes every group's columns, with each
    request's rows found from its family's first pair and size by array
    arithmetic."""
    by_dim: dict[int, dict] = {}  # dimension -> {id of a family: the family}, distinct
    for g in groups:
        by_dim.setdefault(g.dim, {}).update(zip(map(id, g.families), g.families))
    bases = {}
    for d, fams in by_dim.items():
        place = dict(zip(fams, range(len(fams))))
        fams = list(fams.values())
        w, q, x = _family_parts(fams, "wqx")
        ns = _sizes(fams)
        a = _runs(2 * (np.cumsum(ns) - ns), ns)  # the rows of the A's; each B follows its family's A's by n
        b = a + np.repeat(ns, ns)
        bases[d] = (_mean_base(w[a], q[a], w[b, 0], x[b]), np.cumsum(ns) - ns, ns, place)
    blocks = []
    for g in groups:
        base, firsts, ns, place = bases[g.dim]
        at = np.fromiter(map(place.__getitem__, map(id, g.families)), np.intp, len(g.families))
        m = len(g.columns)
        sizes = np.tile(ns[at], m)
        blocks.append((base, _runs(np.tile(firsts[at], m), sizes), sizes, _mean_weights(np.concatenate(g.columns))))
    for g, totals in zip(groups, _mean_sums(blocks)):
        g.stored = totals.reshape(len(g.columns), len(g.ks), *totals.shape[1:])


def _fill_power_sums(groups: list[_Group]):
    """Store the power sums of each group's weight columns, computed
    together one dimension at a time: every power with one
    ``spectral_pow_stack`` call, then, for each shape of sum, every
    Kronecker product with one broadcast product and the sums left to right
    on the stack.  A pair's column ``(p, q)`` is ``A^p x B^q + A^q x B^p``,
    a family's ``u`` is ``sum_j A_j^u``, and each sum is bit for bit the one
    that ``spectral_pow``, ``kron`` and ``+`` give.  A power that fails
    raises its ``DomainError`` (for one trial, the first in the order of
    its record's weights and the sum's factors), and a product or a sum
    that is not finite raises the one that ``kron`` and ``+`` give."""
    by_dim: dict[int, list[_Group]] = {}
    for g in groups:
        by_dim.setdefault(g.dim, []).append(g)
    for gs in by_dim.values():
        # Request r of the table is power ps[r] of mats[which[r]].
        mats, which, ps = [], [], []
        by_shape: dict[tuple[int, int], list] = {}  # (terms, factors) -> [(stored, its rows, requests)]
        count = 0
        for g in gs:
            first, k = len(mats), len(g.ks)
            if g.info.takes_pair:
                d = g.dim * g.dim
                a = first + 2 * np.arange(k)
                for f in g.families:
                    mats += (f.A_list[0], f.B_list[0])
            else:
                d = g.dim
                ns = np.fromiter((f.n for f in g.families), np.intp, k)
                ops = first + np.arange(ns.sum())
                starts = np.cumsum(ns) - ns
                for f in g.families:
                    mats += f.A_list
            g.stored = np.empty((len(g.columns), k, d, d))
            for stored, col in zip(g.stored, g.columns):
                if g.info.takes_pair:
                    # A^p x B^q + A^q x B^p: factor j of row r is request count + j k + r.
                    p, q = col.T
                    which += (a, a + 1, a, a + 1)
                    ps += (p, q, q, p)
                    by_shape.setdefault((2, 2), []).append(
                        (stored, slice(None), count + np.arange(4) * k + np.arange(k)[:, None]))
                    count += 4 * k
                else:
                    which.append(ops)
                    ps.append(np.repeat(col, ns))
                    for n in dict.fromkeys(ns.tolist()):
                        rs = np.flatnonzero(ns == n)
                        by_shape.setdefault((n, 1), []).append(
                            (stored, rs, count + starts[rs][:, None] + np.arange(n)))
                    count += len(ops)
        table = spectral_pow_stack(mats, np.concatenate(which), np.concatenate(ps))
        with np.errstate(over="ignore", invalid="ignore"):
            for (n, f), items in by_shape.items():
                idx = np.concatenate([requests for _, _, requests in items])
                for j in range(0, n * f, f):
                    term = table[idx[:, j]]
                    if f == 2:
                        term = kron_arrays(term, table[idx[:, j + 1]])
                    total = term if j == 0 else total + term
                _finite(total)
                at = 0
                for stored, rows, requests in items:
                    stored[rows] = total[at : at + len(requests)]
                    at += len(requests)


def _check(info: InequalityInfo, family, params, variant, band_failure):
    """The checks every id passes before its builder runs, given the family's ``_band_failures`` text."""
    ineq, kind = info.ineq, info.kind
    if variant not in info.variants:
        raise VariantError(f"{ineq.value} defines no {variant.value} variant")
    if not isinstance(params, kind.type):
        raise HypothesisError(
            f"{ineq.value} takes {kind.type.__name__} parameters, "
            f"got {type(params).__name__}"
        )
    if not isinstance(family, FamilyInstance):
        raise ShapeError(
            f"{ineq.value} takes a FamilyInstance, got {type(family).__name__}"
        )
    if info.takes_pair and family.n != 1:
        raise HypothesisError(
            f"pair-shaped statement needs a single pair, got n = {family.n}"
        )
    if info.needs_band and band_failure is not None:
        raise HypothesisError(band_failure)
    if not kind.holds(params):
        raise HypothesisError(kind.violation.format(**kind.report(params)))
    if not info.takes_pair and info.source == "powers":
        # COR_BJ_IDENTITY factors no mean, but a pair that could not enter
        # one fails with the text the other Hadamard-sum statements give it.
        require_positive_pairs(family.A_list, family.B_list)


def evaluate_inequality(
    ineq: IneqId,
    family: FamilyInstance,
    params,
    variant: Variant = Variant.PAPER_LITERAL,
    tol: float = DEFAULT_TOL,
) -> IneqReport:
    """Evaluate one statement on one family to an :class:`IneqReport`.

    Multi-link statements report every link and summarize by the worst
    relative gap; a witness payload is attached exactly when unsatisfied.
    This is the one-trial case of :func:`evaluate_stage`.
    """
    (report,) = evaluate_stage([(ineq, family, params, variant)], tol)
    if isinstance(report, Exception):
        raise report
    return report


def evaluate_stage(trials, tol: float = DEFAULT_TOL) -> list:
    """``evaluate_inequality(*t, tol=tol)`` for each trial ``t = (ineq,
    family, params, variant)``, evaluated together.

    Item ``i`` is the report of trial ``i``, or the error of
    ``errors.ITEM_ERRORS`` that evaluating it raised, with the text it
    raises alone; any other exception propagates.  The mean-path
    factorizations and the Loewner gaps of all trials share one stacked
    eigendecomposition per dimension.  If a stacked step raises, a
    builder's per-trial constant included, the stage is evaluated again in
    halves, down to one trial at a time (``each_alone``), so only the
    failing trial carries the error.
    """
    return each_alone(partial(_evaluate_stage, tol=tol), trials)


def _evaluate_stage(trials, tol):
    """The reports of ``evaluate_stage``: the links of every group measured
    by one ``matcore.loewner_gaps`` call, each trial's owner number its index,
    then one report per trial."""
    out, groups = _build_stage(trials)
    gaps, worst, lhs_norm, rhs_norm = loewner_gaps(
        [(lhs, rhs, ks) for _, ks, links in groups for _, lhs, rhs in links], len(trials), tol)
    new_link, new_report = LinkReport._of, IneqReport._of
    at = 0
    for info, ks, links in groups:
        names, report, k = [name for name, _, _ in links], info.kind.report, len(ks)
        # Trial r's gaps: row r of each of its links, in link order.
        mine = zip(*[gaps[at + i * k : at + (i + 1) * k] for i in range(len(links))])
        at += len(links) * k
        for t, own in zip(ks, mine):
            _, family, params, variant = trials[t]
            out[t] = new_report(info.ineq, variant, report(params), tuple(map(new_link, names, own)),
                                own[worst[t]], lhs_norm[t], rhs_norm[t], family)
    return out
