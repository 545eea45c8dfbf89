"""Registry of the operator inequalities under test.

Each id encodes one operator statement built from weighted geometric means,
Hadamard and Kronecker products, and Kantorovich factors; ``evaluate_inequality``
measures its signed Loewner gaps link by link.  Ids whose printed constants are
numerically falsifiable carry a second, derivation-consistent REPAIRED variant
alongside the PAPER_LITERAL one:

* ``TENSOR_TOOL`` / ``REV_TENSOR_DEAR``: the Kantorovich argument becomes
  ``(M/m)^|t-1/2|`` (the substitution that halves operators also halves the
  band exponent), and the reverse coefficient becomes ``(t+s-1)/(t-1/2)``.
* ``HAD_MAMAN`` / ``REV_HAD_MAINTH`` / ``REV_T1_REMARK``: the congruence-
  transformed operands live on a spectrum interval that contains 1, so the
  uniform Kantorovich factor collapses to 1 (computed through
  ``kantorovich_min_over_interval``); reverses also take the repaired
  coefficient.
* ``PROP_HBOUNDS``: the literal two-sided bound adds bare scalars, read here
  as multiples of the identity; the repaired form carries the scalar bound on
  the squared mean-sum term, which is what the congruence argument produces.

Each statement is defined once: by its registry entry and by its link builder
in ``_BUILDERS``.  Every builder has the signature
``(operands, band, params, variant)`` and returns ``(name, LHS, RHS)`` triples
with ``LHS <= RHS`` claimed; ``operands`` is the pair ``(A, B)`` for
pair-shaped statements and the memoized Hadamard-sum terms of the family
otherwise.  ``evaluate_inequality`` and ``build_links`` take a
``FamilyInstance`` and nothing else; the pair-shaped statements (the tensor
ones and WADA) need ``n = 1``, and every statement reads its band from the
family.  ``build_links`` reads the entry and runs the same checks for every
id before it calls the builder: the variant, the parameter type, the operand
shape, the band, then the condition of the parameter kind.

Each registry entry names its ``ParamKind``: the parameter type, the values
the sweep visits, the report form and any condition beyond the type.
``ST_KIND`` is ``(s, t)`` on either branch (``1 >= t >= s > 1/2`` or
``0 <= t <= s < 1/2``) at step 1/16; ``ST_T1_KIND`` fixes ``t = 1`` (the
reverse remark); ``ALPHA_BETA_KIND`` is the tensor proof's ``alpha = 2t-1``,
``beta = 2s-1`` for ``s != t``; ``ALPHA_KIND`` is WADA's weight in [0, 1] at
step 1/8.  The tensor statements are sums of ``f(A) x g(B)``
built by one swapped-Kronecker helper, and each statement family takes its
Kantorovich weight ``K^(+-r')`` from one helper.  The printed weight
``K(M_lo^e / m_hi^e)^p`` is ``scalarcore.printed_weight`` everywhere.

Operator means always go through the congruence form (``matcore.MeanPath``);
scalar shortcuts exist only in the independent oracle module.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable

import numpy as np

from .errors import DomainError, HypothesisError, ShapeError, VariantError
from .matcore import (
    DEFAULT_TOL,
    LoewnerGap,
    MeanPath,
    SymMatrix,
    hadamard,
    kron,
    loewner_gap,
    spectral_norm,
    spectral_pow,
    sum_matrices,
    sym_eigen,
)
from .sampler import FamilyInstance, SpectralBand, validate_band_containment
from .scalarcore import (
    ExponentPair,
    ProofChainParams,
    kantorovich,
    kantorovich_min_over_interval,
    printed_weight,
)


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


@dataclass(frozen=True)
class IneqReport:
    """Evaluation outcome for one (id, variant, instance, params) quadruple.

    ``gap`` is the worst link by relative gap, and ``lhs_norm``/``rhs_norm``
    are the spectral norms of that link's operands; ``witness`` serializes the
    instance exactly when the inequality is not satisfied.
    """

    ineq: IneqId
    variant: Variant
    params: dict
    links: tuple[LinkReport, ...]
    gap: LoewnerGap
    lhs_norm: float
    rhs_norm: float
    witness: dict | None

    @property
    def satisfied(self) -> bool:
        return self.gap.satisfied


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


# The parameter kinds; the module docstring describes each one.
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
class InequalityInfo:
    ineq: IneqId
    description: str
    variants: tuple[Variant, ...]
    anchor: str
    takes_pair: bool
    needs_band: bool
    kind: ParamKind


class _FamilyTerms:
    """Memoized Hadamard-sum terms of one family instance.

    ``S(u)`` is the Hadamard product of the u- and (1-u)-weighted mean sums;
    ``S(1/2)`` is the squared mean-sum and ``top`` the Hadamard product of the
    plain sums.  Each pair's congruence factorization is computed once.
    """

    def __init__(self, inst: FamilyInstance):
        self.inst = inst
        self._paths = [
            MeanPath(a, b) for a, b in zip(inst.A_list, inst.B_list)
        ]
        self._sums: dict[float, SymMatrix] = {}
        self._hadamard: dict[float, SymMatrix] = {}

    def mean_sum(self, u: float) -> SymMatrix:
        if u not in self._sums:
            self._sums[u] = sum_matrices(path.at(u) for path in self._paths)
        return self._sums[u]

    def S(self, u: float) -> SymMatrix:
        key = min(u, 1.0 - u)
        if key not in self._hadamard:
            self._hadamard[key] = hadamard(self.mean_sum(u), self.mean_sum(1.0 - u))
        return self._hadamard[key]

    @property
    def top(self) -> SymMatrix:
        return hadamard(sum_matrices(self.inst.A_list), sum_matrices(self.inst.B_list))


def _congruence_interval(band: SpectralBand, t: float) -> tuple[float, float]:
    """Spectrum interval of the congruence-transformed tensor operand.

    Both transformed families live in ``[m_lo/M_hi, m_hi/M_lo]``, so the
    ratio operand has spectrum in ``[1/g, g]`` with
    ``g = (m_hi M_hi / (m_lo M_lo))^|t-1/2|``; the interval contains 1.
    """
    g_hi = (band.m_hi * band.M_hi / (band.m_lo * band.M_lo)) ** abs(t - 0.5)
    return 1.0 / g_hi, g_hi


def _swapped_kron(a: SymMatrix, b: SymMatrix, p: float, q: float) -> SymMatrix:
    """``A^p x B^q + A^q x B^p``."""
    return kron(spectral_pow(a, p), spectral_pow(b, q)) + kron(
        spectral_pow(a, q), spectral_pow(b, p)
    )


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
# Each builder takes (operands, band, params, variant) and returns a list of
# (link_name, LHS, RHS) with LHS <= RHS claimed.


def _links_wada(operands, band, alpha, variant):
    a, b = operands
    alpha = float(alpha)
    path = MeanPath(a, b)
    g = path.at(0.5)
    gl = path.at(alpha)
    gr = path.at(1.0 - alpha)
    low = kron(g, g)
    mid = 0.5 * (kron(gl, gr) + kron(gr, gl))
    high = 0.5 * (kron(a, b) + kron(b, a))
    return [("geo_vs_mix", low, mid), ("mix_vs_sum", mid, high)]


def _links_chain_34rf(terms: _FamilyTerms, band, pair: ExponentPair, variant):
    return [
        ("geo_vs_s", terms.S(0.5), terms.S(pair.s)),
        ("s_vs_t", terms.S(pair.s), terms.S(pair.t)),
        ("t_vs_sums", terms.S(pair.t), terms.top),
    ]


def _links_moj_mo(terms: _FamilyTerms, band, pair: ExponentPair, variant):
    if abs(pair.s - 0.5) < 1e-6:
        raise HypothesisError(
            f"s = {pair.s} lies within 1e-06 of 1/2; the middle coefficient "
            "(t-s)/(s-1/2) is undefined there"
        )
    c = (pair.t - pair.s) / (pair.s - 0.5)
    ss, l0 = terms.S(pair.s), terms.S(0.5)
    mid = ss + c * (ss - l0)
    return [("s_vs_mid", ss, mid), ("mid_vs_t", mid, terms.S(pair.t))]


def _tensor_terms(a: SymMatrix, b: SymMatrix, pair: ExponentPair):
    """``P_s``, ``P_t`` and ``P_t - 2 A^(1/2) x B^(1/2)``, where
    ``P_u = A^u x B^(1-u) + A^(1-u) x B^u``."""
    p_t = _swapped_kron(a, b, pair.t, 1.0 - pair.t)
    half = kron(spectral_pow(a, 0.5), spectral_pow(b, 0.5))
    return _swapped_kron(a, b, pair.s, 1.0 - pair.s), p_t, p_t - 2.0 * half


def _links_tensor_tool(operands, band, pair: ExponentPair, variant: Variant):
    p_s, p_t, excess = _tensor_terms(*operands, pair)
    lhs = _tensor_weight(band, pair, variant, 1.0) * p_s + pair.c_mid * excess
    return [("main", lhs, p_t)]


def _links_rev_tensor_dear(operands, band, pair: ExponentPair, variant: Variant):
    coeff = pair.c_rev_repair if variant == Variant.REPAIRED else pair.c_rev_paper
    p_s, p_t, excess = _tensor_terms(*operands, pair)
    rhs = _tensor_weight(band, pair, variant, -1.0) * p_s + coeff * excess
    return [("main", p_t, rhs)]


def _links_proof_chain(operands, band, params: ProofChainParams, variant):
    a, b = operands
    al, be, mu = params.alpha, params.beta, params.mu
    kf = printed_weight(band, al, params.r_prime)

    # Pointwise step on the spectrum of A^alpha x B^-alpha: the Kantorovich-
    # weighted two-term bound at each eigenvalue product, reported at the
    # worst point as a 1x1 link.
    wa = sym_eigen(a).eigenvalues
    wb = sym_eigen(b).eigenvalues
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
    spectra_link = (
        "pointwise_spectrum",
        SymMatrix(np.array([[worst[0]]])),
        SymMatrix(np.array([[worst[1]]])),
    )

    # G_e = A^e x B^-e + swap, and H_e = A^(1+e) x B^(1-e) + swap.
    g_al = _swapped_kron(a, b, al, -al)
    ident = SymMatrix.identity(a.dim * b.dim)
    lhs345 = kf * _swapped_kron(a, b, be, -be) + (1.0 - mu) * (g_al - 2.0 * ident)
    link345 = ("ratio_powers", lhs345, g_al)

    h_al = _swapped_kron(a, b, 1.0 + al, 1.0 - al)
    lhs3456 = kf * _swapped_kron(a, b, 1.0 + be, 1.0 - be) + (1.0 - mu) * (
        h_al - 2.0 * kron(a, b)
    )
    link3456 = ("shifted_powers", lhs3456, h_al)
    return [spectra_link, link345, link3456]


def _links_had_maman(terms: _FamilyTerms, band, pair: ExponentPair, variant: Variant):
    kf = _hadamard_weight(band, pair, variant, 1.0)
    ss, st, l0 = terms.S(pair.s), terms.S(pair.t), terms.S(0.5)
    lhs = kf * ss + pair.c_mid * (st - l0)
    return [("main", lhs, st)]


def _links_had_maman2(terms: _FamilyTerms, band, pair: ExponentPair, variant):
    ss, st, l0 = terms.S(pair.s), terms.S(pair.t), terms.S(0.5)
    bracket = ss + l0 - 2.0 * terms.S((3.0 - 2.0 * pair.s) / 4.0)
    lhs = ss + pair.c_mid * (ss - l0) + pair.r_prime_st * bracket
    zero = SymMatrix.zero(ss.dim)
    return [("main", lhs, st), ("bracket_psd", zero, bracket)]


def _links_cor_bj(terms: _FamilyTerms, band, pair: ExponentPair, variant):
    # Lower family pinned to the identity: means become plain powers of A_j.
    def power_sum(u: float) -> SymMatrix:
        return sum_matrices(spectral_pow(a, u) for a in terms.inst.A_list)

    s, t = pair.s, pair.t
    s_s = hadamard(power_sum(1.0 - s), power_sum(s))
    s_t = hadamard(power_sum(1.0 - t), power_sum(t))
    root = power_sum(0.5)
    l0 = hadamard(root, root)
    t_mid = hadamard(power_sum((1.0 + 2.0 * s) / 4.0), power_sum((3.0 - 2.0 * s) / 4.0))
    lhs = s_s + pair.c_mid * (s_s - l0) + pair.r_prime_st * (s_s + l0 - 2.0 * t_mid)
    return [("main", lhs, s_t)]


def _links_rev_had_mainth(terms: _FamilyTerms, band, pair: ExponentPair, variant: Variant):
    kf = _hadamard_weight(band, pair, variant, -1.0)
    coeff = pair.c_rev_repair if variant == Variant.REPAIRED else pair.c_rev_paper
    ss, st, l0 = terms.S(pair.s), terms.S(pair.t), terms.S(0.5)
    rhs = kf * ss + coeff * (st - l0)
    return [("main", st, rhs)]


def _links_rev_t1(terms: _FamilyTerms, band, pair: ExponentPair, variant: Variant):
    kf = _hadamard_weight(band, pair, variant, -1.0)
    coeff = 2.0 * pair.s if variant == Variant.REPAIRED else 2.0 * pair.s - 1.0
    ss, l0, top = terms.S(pair.s), terms.S(0.5), terms.top
    rhs = kf * ss + coeff * (top - l0)
    return [("main", top, rhs)]


def _links_prop_hbounds(terms: _FamilyTerms, band, pair: ExponentPair, variant: Variant):
    ss, st = terms.S(pair.s), terms.S(pair.t)
    if variant == Variant.PAPER_LITERAL:
        kf = kantorovich(band.h ** (2.0 * pair.t - 1.0)) ** pair.r_prime_st
        ident = SymMatrix.identity(ss.dim)
        low_term = (math.sqrt(band.h) - math.sqrt(1.0 / band.h)) ** 2
        high_term = (math.sqrt(band.h_prime) - math.sqrt(1.0 / band.h_prime)) ** 2
        lower_lhs = kf * ss + pair.c_mid * low_term * ident
        upper_rhs = (1.0 / kf) * ss + pair.c_rev_paper * high_term * ident
        return [("lower", lower_lhs, st), ("upper", st, upper_rhs)]
    # Repaired: the transformed spectrum interval contains 1, so the lower
    # scalar term collapses to 0 and the factor to 1; the upper scalar bound
    # rides on the squared mean-sum, which is what the congruence produces.
    lo, hi = _congruence_interval(band, pair.t)
    kf = kantorovich_min_over_interval(lo, hi) ** pair.r_prime_st
    l0 = terms.S(0.5)
    up_term = (math.sqrt(hi) - math.sqrt(1.0 / hi)) ** 2
    upper_rhs = (1.0 / kf) * ss + pair.c_rev_repair * up_term * l0
    return [("lower", kf * ss, st), ("upper", st, upper_rhs)]


# --- registry ----------------------------------------------------------------

_REGISTRY: dict[IneqId, InequalityInfo] = {
    info.ineq: info
    for info in (
        InequalityInfo(
            IneqId.WADA,
            "Two-link tensor chain for one positive pair via weighted means",
            (Variant.PAPER_LITERAL,),
            "(A#B)x(A#B) <= 1/2{(A#aB)x(A#(1-a)B) + swap} <= 1/2{AxB + BxA}",
            takes_pair=True,
            needs_band=False,
            kind=ALPHA_KIND,
        ),
        InequalityInfo(
            IneqId.CHAIN_34RF,
            "Three-link Hadamard-sum chain interpolating Cauchy-Schwarz",
            (Variant.PAPER_LITERAL,),
            "S(1/2) <= S(s) <= S(t) <= (sum A)o(sum B), S(u) = sum(A#uB) o sum(A#(1-u)B)",
            takes_pair=False,
            needs_band=False,
            kind=ST_KIND,
        ),
        InequalityInfo(
            IneqId.MOJ_MO,
            "Refined middle link with coefficient (t-s)/(s-1/2), as printed",
            (Variant.PAPER_LITERAL,),
            "S(s) <= S(s) + (t-s)/(s-1/2)(S(s) - S(1/2)) <= S(t)",
            takes_pair=False,
            needs_band=False,
            kind=ST_KIND,
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
        ),
        InequalityInfo(
            IneqId.REV_HAD_MAINTH,
            "Reverse Hadamard-sum bound with inverse Kantorovich weight",
            (Variant.PAPER_LITERAL, Variant.REPAIRED),
            "S(t) <= K(c)^-r' S(s) + c_rev(S(t) - S(1/2))",
            takes_pair=False,
            needs_band=True,
            kind=ST_KIND,
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
        ),
    )
}


_BUILDERS = {
    IneqId.WADA: _links_wada,
    IneqId.CHAIN_34RF: _links_chain_34rf,
    IneqId.MOJ_MO: _links_moj_mo,
    IneqId.TENSOR_TOOL: _links_tensor_tool,
    IneqId.PROOF_CHAIN: _links_proof_chain,
    IneqId.HAD_MAMAN: _links_had_maman,
    IneqId.HAD_MAMAN2: _links_had_maman2,
    IneqId.COR_BJ_IDENTITY: _links_cor_bj,
    IneqId.REV_TENSOR_DEAR: _links_rev_tensor_dear,
    IneqId.REV_HAD_MAINTH: _links_rev_had_mainth,
    IneqId.REV_T1_REMARK: _links_rev_t1,
    IneqId.PROP_HBOUNDS: _links_prop_hbounds,
}

#: Ids that define a REPAIRED variant; requesting it elsewhere is an error.
REPAIRABLE = frozenset(
    i for i, info in _REGISTRY.items() if Variant.REPAIRED in info.variants
)

#: Hadamard-sum ids, i.e. the family-shaped ones, whose terms reduce entrywise
#: on diagonal families (the oracle's diagonal cross-check applies to exactly
#: these).
HADAMARD_SUM_IDS = tuple(i for i in IneqId if not _REGISTRY[i].takes_pair)


def list_inequalities() -> tuple[InequalityInfo, ...]:
    """Static registry dump, one entry per operator inequality id."""
    return tuple(_REGISTRY[i] for i in IneqId)


def inequality_info(ineq: IneqId) -> InequalityInfo:
    return _REGISTRY[ineq]


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
    """
    try:
        return _build_links(ineq, family, params, variant)
    except DomainError as exc:
        raise HypothesisError(str(exc)) from exc


def _build_links(ineq, family, params, variant):
    info = _REGISTRY[ineq]
    if variant not in info.variants:
        raise VariantError(f"{ineq.value} defines no {variant.value} variant")
    kind = info.kind
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
    if info.needs_band:
        validate_band_containment(family)
    if not kind.holds(params):
        raise HypothesisError(kind.violation.format(**kind.report(params)))
    if info.takes_pair:
        operands = (family.A_list[0], family.B_list[0])
    else:
        operands = _FamilyTerms(family)
    return _BUILDERS[ineq](operands, family.band, params, variant)


def params_dict(ineq: IneqId, params) -> dict:
    """Report form of a statement's parameters, given by its ``ParamKind``."""
    return _REGISTRY[ineq].kind.report(params)


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
    """
    links = build_links(ineq, family, params, variant)
    reports = tuple(
        LinkReport(name, loewner_gap(lhs, rhs, tol)) for name, lhs, rhs in links
    )
    # The worst link is the first with the smallest relative gap; only its
    # operand norms are reported, so only they are measured.
    k = min(range(len(reports)), key=lambda i: reports[i].gap.rel_gap)
    _, worst_lhs, worst_rhs = links[k]
    gap = reports[k].gap
    pdict = params_dict(ineq, params)
    witness = None if gap.satisfied else {"params": pdict, **family.to_dict()}
    return IneqReport(
        ineq=ineq,
        variant=variant,
        params=pdict,
        links=reports,
        gap=gap,
        lhs_norm=spectral_norm(worst_lhs),
        rhs_norm=spectral_norm(worst_rhs),
        witness=witness,
    )
