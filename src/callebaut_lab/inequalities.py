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
``(terms, band, params, variant)`` and returns ``(name, LHS, RHS)`` triples
with ``LHS <= RHS`` claimed; ``terms`` is ``_PairTerms`` (the pair ``.a``,
``.b``) for pair-shaped statements and ``_FamilyTerms`` otherwise.  Both give
``S(u)``: ``A^u x B^(1-u) + A^(1-u) x B^u`` for a pair and
``sum(A_j #_u B_j) o sum(A_j #_(1-u) B_j)`` for a family, so the refinement
``K^r' S(s) + c_mid (S(t) - S(1/2)) <= S(t)`` and its reverse each have one
builder, which ``_BUILDERS`` binds to the tensor or the Hadamard-sum weight.
Both subclass ``_Terms``, which holds the sums stored for the builder and
the one memo of ``S(u)`` (keyed by ``min(u, 1-u)``), which the family terms
and the oracle's scalar terms use; a pair's ``S(u)`` is a stored sum.
``evaluate_inequality`` and ``build_links`` take a ``FamilyInstance`` and
nothing else; the pair-shaped statements (the tensor ones and WADA) need
``n = 1``, and every statement reads its band from the family.
``build_links`` reads the entry and runs the same checks for every id before
it calls the builder: the variant, the parameter type, the operand shape, the
band, then the condition of the parameter kind.

``evaluate_stage`` evaluates many trials together: the checks run trial by
trial, then the weighted-mean factorizations of every family that needs them
are made at once (``matcore.MeanPath.stack``) and stored on the family, then
the sums the builders read are computed at once and stored on each trial's
terms: the weighted-mean sums of ``_MEAN_WEIGHTS`` (``matcore.MeanPath.sums``)
and the sums of spectral powers of ``_POWER_SUMS`` (the tensor sums
``A^p x B^q + A^q x B^p`` and ``A x B`` of TENSOR_TOOL, REV_TENSOR_DEAR and
PROOF_CHAIN, and COR_BJ_IDENTITY's ``sum_j A_j^u``: one
``matcore.spectral_pow_stack`` per dimension, and the Kronecker products and
sums on stacks).  Then each trial's builder makes only its linear
combinations of the stored sums, and every link of every trial is measured
at once (``matcore.loewner_gaps``).  Every number is the one the trial gets
alone.  A check or a builder that fails puts its error in its trial's place;
a stacked step succeeds whole or raises, and then ``errors.each_alone``
evaluates the trials again in halves, down to each trial alone.  So a trial
reports its first failure in stage order: its checks, its mean path, its
stored sums in declaration order, then its builder.  ``evaluate_inequality``
and ``build_links`` are the one-trial cases.

Each registry entry names its ``ParamKind``: the parameter type, the values
the sweep visits, the report form and any condition beyond the type.
``ST_KIND`` is ``(s, t)`` on either branch (``1 >= t >= s > 1/2`` or
``0 <= t <= s < 1/2``) at step 1/16; ``ST_T1_KIND`` fixes ``t = 1`` (the
reverse remark); ``ALPHA_BETA_KIND`` is the tensor proof's ``alpha = 2t-1``,
``beta = 2s-1`` for ``s != t``; ``ALPHA_KIND`` is WADA's weight in [0, 1] at
step 1/8.  The tensor statements are sums of ``A^p x B^q + A^q x B^p``
(stored under the key ``(p, q)``, which ``_PairTerms.S`` and PROOF_CHAIN
both read), and each statement family takes its Kantorovich weight
``K^(+-r')`` from one helper, ``_tensor_weight`` or ``_hadamard_weight``.
The printed weight ``K(M_lo^e / m_hi^e)^p`` is ``scalarcore.printed_weight``
everywhere.

Operator means always go through the congruence form (``matcore.MeanPath``);
scalar shortcuts exist only in the independent oracle module.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Any, Callable

import numpy as np

from .errors import CallebautLabError, DomainError, HypothesisError, ShapeError, VariantError
from .errors import each_alone
from .matcore import (
    DEFAULT_TOL,
    LoewnerGap,
    MeanPath,
    SymMatrix,
    hadamard,
    kron,
    kron_arrays,
    loewner_gaps,
    require_positive_pairs,
    spectral_norm,
    spectral_pow_stack,
    sum_matrices,
    sym_eigen,
)
from .sampler import FamilyInstance, SpectralBand, validate_band_containment
from .scalarcore import (
    DELTA_HALF,
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


class _Terms:
    """A terms object: ``S(u)`` is symmetric in ``u <-> 1-u``, so it is
    computed once per ``min(u, 1-u)``, by the subclass's ``_S``, at the first
    ``u`` asked for.  ``stored(key)`` is a sum that the stage computed before
    the builder runs: the weighted-mean sum at weight ``key`` for the ids of
    ``_MEAN_WEIGHTS`` (``_fill_mean_sums``), or the sum of spectral powers
    ``key`` for the ids of ``_POWER_SUMS`` (``_fill_power_sums``).  No id
    reads both."""

    def __init__(self):
        self._s = {}
        self._stored: dict[Any, SymMatrix] = {}

    def S(self, u: float):
        key = min(u, 1.0 - u)
        if key not in self._s:
            self._s[key] = self._S(u)
        return self._s[key]

    def stored(self, key) -> SymMatrix:
        return self._stored[key]


class _FamilyTerms(_Terms):
    """Hadamard-sum terms of one family instance.

    ``S(u)`` is the Hadamard product of the u- and (1-u)-weighted mean sums;
    ``S(1/2)`` is the squared mean-sum and ``top`` the Hadamard product of the
    plain sums.
    """

    def __init__(self, inst: FamilyInstance):
        super().__init__()
        self.inst = inst

    def _S(self, u: float) -> SymMatrix:
        return hadamard(self.stored(u), self.stored(1.0 - u))

    @property
    def top(self) -> SymMatrix:
        return hadamard(sum_matrices(self.inst.A_list), sum_matrices(self.inst.B_list))


class _PairTerms(_Terms):
    """Tensor terms of one pair: ``S(u) = A^u x B^(1-u) + A^(1-u) x B^u``,
    the stored sum ``(u, 1 - u)``.

    ``S(1/2)`` is ``2 A^(1/2) x B^(1/2)``, so the tensor statements read the
    same terms as their Hadamard-sum counterparts.
    """

    def __init__(self, a: SymMatrix, b: SymMatrix):
        super().__init__()
        self.a, self.b = a, b

    def S(self, u: float) -> SymMatrix:
        return self.stored((u, 1.0 - u))


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
# Each builder takes (terms, band, params, variant) and returns a list of
# (link_name, LHS, RHS) with LHS <= RHS claimed.  The refinement and its
# reverse serve a pair and a family alike; ``_BUILDERS`` binds each id's weight.


def _links_wada(terms: _PairTerms, band, alpha, variant):
    a, b = terms.a, terms.b
    alpha = float(alpha)
    g = terms.stored(0.5)
    gl = terms.stored(alpha)
    gr = terms.stored(1.0 - alpha)
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
    if abs(pair.s - 0.5) < DELTA_HALF:
        raise HypothesisError(
            f"s = {pair.s} lies within {DELTA_HALF:g} of 1/2; the middle coefficient "
            "(t-s)/(s-1/2) is undefined there"
        )
    c = (pair.t - pair.s) / (pair.s - 0.5)
    ss, l0 = terms.S(pair.s), terms.S(0.5)
    mid = ss + c * (ss - l0)
    return [("s_vs_mid", ss, mid), ("mid_vs_t", mid, terms.S(pair.t))]


def _links_refinement(weight, terms, band, pair: ExponentPair, variant: Variant):
    """``K^r' S(s) + c_mid (S(t) - S(1/2)) <= S(t)`` with the id's ``weight``."""
    ss, st, l0 = terms.S(pair.s), terms.S(pair.t), terms.S(0.5)
    lhs = weight(band, pair, variant, 1.0) * ss + pair.c_mid * (st - l0)
    return [("main", lhs, st)]


def _links_reverse(weight, terms, band, pair: ExponentPair, variant: Variant):
    """``S(t) <= K^-r' S(s) + c_rev (S(t) - S(1/2))`` with the id's ``weight``."""
    coeff = pair.c_rev_repair if variant == Variant.REPAIRED else pair.c_rev_paper
    ss, st, l0 = terms.S(pair.s), terms.S(pair.t), terms.S(0.5)
    rhs = weight(band, pair, variant, -1.0) * ss + coeff * (st - l0)
    return [("main", st, rhs)]


def _links_proof_chain(terms: _PairTerms, band, params: ProofChainParams, variant):
    a, b = terms.a, terms.b
    al, be, mu = params.alpha, params.beta, params.mu
    kf = printed_weight(band, al, params.r_prime)

    # Pointwise step on the spectrum of A^alpha x B^-alpha: the Kantorovich-
    # weighted two-term bound at each eigenvalue product, reported at the
    # worst point as a 1x1 link.  The eigenvalues are NumPy floats, so an
    # overflow gives a non-finite value, which fails the link's finiteness
    # check, where a Python float's power would raise.
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

    # G_e = A^e x B^-e + swap, and H_e = A^(1+e) x B^(1-e) + swap; the
    # stored sum None is A x B.
    g_al = terms.stored((al, -al))
    ident = SymMatrix.identity(a.dim * b.dim)
    lhs345 = kf * terms.stored((be, -be)) + (1.0 - mu) * (g_al - 2.0 * ident)
    link345 = ("ratio_powers", lhs345, g_al)

    h_al = terms.stored((1.0 + al, 1.0 - al))
    lhs3456 = kf * terms.stored((1.0 + be, 1.0 - be)) + (1.0 - mu) * (
        h_al - 2.0 * terms.stored(None)
    )
    link3456 = ("shifted_powers", lhs3456, h_al)
    return [spectra_link, link345, link3456]


def _links_had_maman2(terms: _FamilyTerms, band, pair: ExponentPair, variant):
    ss, st, l0 = terms.S(pair.s), terms.S(pair.t), terms.S(0.5)
    bracket = ss + l0 - 2.0 * terms.S((3.0 - 2.0 * pair.s) / 4.0)
    lhs = ss + pair.c_mid * (ss - l0) + pair.r_prime_st * bracket
    zero = SymMatrix.zero(ss.dim)
    return [("main", lhs, st), ("bracket_psd", zero, bracket)]


def _links_cor_bj(terms: _FamilyTerms, band, pair: ExponentPair, variant):
    # Lower family pinned to the identity: means become plain powers of A_j,
    # and the stored sum u is sum_j A_j^u.
    power_sum = terms.stored
    s, t = pair.s, pair.t
    s_s = hadamard(power_sum(1.0 - s), power_sum(s))
    s_t = hadamard(power_sum(1.0 - t), power_sum(t))
    root = power_sum(0.5)
    l0 = hadamard(root, root)
    t_mid = hadamard(power_sum((1.0 + 2.0 * s) / 4.0), power_sum((3.0 - 2.0 * s) / 4.0))
    lhs = s_s + pair.c_mid * (s_s - l0) + pair.r_prime_st * (s_s + l0 - 2.0 * t_mid)
    return [("main", lhs, s_t)]


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
    IneqId.TENSOR_TOOL: partial(_links_refinement, _tensor_weight),
    IneqId.PROOF_CHAIN: _links_proof_chain,
    IneqId.HAD_MAMAN: partial(_links_refinement, _hadamard_weight),
    IneqId.HAD_MAMAN2: _links_had_maman2,
    IneqId.COR_BJ_IDENTITY: _links_cor_bj,
    IneqId.REV_TENSOR_DEAR: partial(_links_reverse, _tensor_weight),
    IneqId.REV_HAD_MAINTH: partial(_links_reverse, _hadamard_weight),
    IneqId.REV_T1_REMARK: _links_rev_t1,
    IneqId.PROP_HBOUNDS: _links_prop_hbounds,
}


def _both(*us: float) -> tuple[float, ...]:
    """The weights ``u`` and ``1 - u`` that ``S(u)`` reads, for each ``u``."""
    return tuple(v for u in us for v in (u, 1.0 - u))


#: The ids whose builders read weighted-mean sums (WADA, and every
#: family-shaped id except COR_BJ_IDENTITY, which reads plain powers), and
#: the weights at which each builder reads them: ``u`` and ``1 - u``
#: for each ``S(u)`` of a Hadamard-sum builder.  ``_fill_mean_sums``
#: computes these for a whole stage at once, and they are the only sums a
#: builder can read.
_MEAN_WEIGHTS: dict[IneqId, Callable[[Any], tuple[float, ...]]] = {
    IneqId.WADA: lambda alpha: (0.5, float(alpha), 1.0 - float(alpha)),
    **dict.fromkeys(
        (IneqId.CHAIN_34RF, IneqId.MOJ_MO, IneqId.HAD_MAMAN, IneqId.REV_HAD_MAINTH,
         IneqId.PROP_HBOUNDS),
        lambda pair: _both(pair.s, pair.t, 0.5),
    ),
    IneqId.HAD_MAMAN2: lambda pair: _both(pair.s, pair.t, 0.5, (3.0 - 2.0 * pair.s) / 4.0),
    IneqId.REV_T1_REMARK: lambda pair: _both(pair.s, 0.5),
}

#: The ids whose builders read spectral powers of their operands, and the
#: sums of powers each reads, by key: for a pair, ``(p, q)`` is
#: ``A^p x B^q + A^q x B^p`` (so ``S(u)`` is ``(u, 1 - u)``) and ``None``
#: is ``A x B``; for COR_BJ_IDENTITY, ``u`` is ``sum_j A_j^u``.
#: ``_fill_power_sums`` computes these for a whole stage at once, and they
#: are the only powers a builder can read.
_POWER_SUMS: dict[IneqId, Callable[[Any], tuple]] = {
    **dict.fromkeys(
        (IneqId.TENSOR_TOOL, IneqId.REV_TENSOR_DEAR),
        lambda pair: tuple((u, 1.0 - u) for u in (pair.s, pair.t, 0.5)),
    ),
    IneqId.PROOF_CHAIN: lambda c: (
        (c.alpha, -c.alpha), (c.beta, -c.beta),
        (1.0 + c.alpha, 1.0 - c.alpha), (1.0 + c.beta, 1.0 - c.beta), None,
    ),
    IneqId.COR_BJ_IDENTITY: lambda pair: (
        1.0 - pair.s, pair.s, 1.0 - pair.t, pair.t, 0.5,
        (1.0 + 2.0 * pair.s) / 4.0, (3.0 - 2.0 * pair.s) / 4.0,
    ),
}

#: Ids that define a REPAIRED variant; requesting it elsewhere is an error.
REPAIRABLE = frozenset(
    i for i, info in _REGISTRY.items() if Variant.REPAIRED in info.variants
)

#: Hadamard-sum ids, i.e. the family-shaped ones.
HADAMARD_SUM_IDS = tuple(i for i in IneqId if not _REGISTRY[i].takes_pair)

#: What building or measuring one trial can raise: the package's own errors
#: and a LAPACK failure.  ``evaluate_stage`` returns these in the trial's
#: place; any other exception propagates.
_EVALUATION_ERRORS = (CallebautLabError, np.linalg.LinAlgError)


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
    (links,) = _build_stage([(ineq, family, params, variant)])
    if isinstance(links, Exception):
        raise links
    return links


def _hypothesis(exc: Exception) -> Exception:
    """A ``DomainError`` of the matrix algebra as the statement's
    ``HypothesisError``; any other error unchanged."""
    if not isinstance(exc, DomainError):
        return exc
    err = HypothesisError(str(exc))
    err.__cause__ = exc
    return err


def _build_stage(trials) -> list:
    """The links of each trial ``(ineq, family, params, variant)``, or the
    error that its checks or its builder raised, a ``DomainError`` as
    ``HypothesisError``.  The stacked steps between them (the ``MeanPath``
    of every family in ``_MEAN_WEIGHTS`` that has none stored, kept on the
    family, then ``_fill_mean_sums`` and ``_fill_power_sums``) succeed
    whole or raise, a ``DomainError`` as ``HypothesisError``.
    """
    out = []
    for trial in trials:
        try:
            _check(*trial)
            out.append(None)
        except _EVALUATION_ERRORS as exc:
            out.append(_hypothesis(exc))
    terms = [
        None if built is not None
        else _PairTerms(family.A_list[0], family.B_list[0]) if _REGISTRY[ineq].takes_pair
        else _FamilyTerms(family)
        for (ineq, family, _, _), built in zip(trials, out)
    ]
    todo = {
        id(family): family
        for (ineq, family, _, _), t in zip(trials, terms)
        if t is not None and ineq in _MEAN_WEIGHTS and family._means is None
    }
    try:
        paths = MeanPath.stack([(f.A_list, f.B_list) for f in todo.values()])
        for family, path in zip(todo.values(), paths):
            object.__setattr__(family, "_means", path)
        _fill_mean_sums(trials, terms)
        _fill_power_sums(trials, terms)
    except DomainError as exc:
        raise _hypothesis(exc)
    # A builder's matrix or NumPy-scalar arithmetic that overflows is
    # rejected by a finiteness check, so NumPy need not warn first.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (ineq, family, params, variant) in enumerate(trials):
            if terms[k] is None:
                continue
            try:
                out[k] = _BUILDERS[ineq](terms[k], family.band, params, variant)
            except _EVALUATION_ERRORS as exc:
                out[k] = _hypothesis(exc)
            except ArithmeticError as exc:
                # A band constant in Python floats overflowed: a power raises
                # OverflowError, a ratio whose denominator underflowed to 0
                # raises ZeroDivisionError.
                out[k] = HypothesisError(f"{ineq.value} overflows on this input: {exc}")
                out[k].__cause__ = exc
    return out


def _fill_mean_sums(trials, terms):
    """Store in each trial's terms the mean sums of its family's
    ``MeanPath`` that its builder reads (``_MEAN_WEIGHTS``), with one
    ``MeanPath.sums`` call for the stage."""
    wanted = []
    for (ineq, family, params, _), t in zip(trials, terms):
        if t is not None and ineq in _MEAN_WEIGHTS:
            wanted += ((t, family._means, u) for u in dict.fromkeys(_MEAN_WEIGHTS[ineq](params)))
    totals = MeanPath.sums([(path, u) for _, path, u in wanted])
    for (t, _, u), total in zip(wanted, totals):
        t._stored[u] = total


def _factors(pair: bool, n: int, key) -> tuple[tuple, tuple | None, int]:
    """The factors of the power sum ``key`` of ``_POWER_SUMS``, in the order
    the sum multiplies and adds them: their operands and exponents, and the
    number of factors per product.  Operands 0 and 1 are a pair's ``A`` and
    ``B``, operand ``j`` is a family's ``A_(j+1)``; the exponents ``None``
    take every operand itself."""
    if not pair:
        return tuple(range(n)), (key,) * n, 1
    if key is None:
        return (0, 1), None, 2
    p, q = key
    return (0, 1, 0, 1), (p, q, q, p), 2


def _fill_power_sums(trials, terms):
    """Store in each trial's terms the power sums its builder reads
    (``_POWER_SUMS``), computed together one dimension at a time: every
    power with one ``spectral_pow_stack`` call, then, for each shape of
    sum, every Kronecker product with one broadcast product and the sums
    left to right on the stack.  Each sum is bit for bit the one that
    ``spectral_pow``, ``kron`` and ``+`` give.  A power that fails raises its
    ``DomainError`` (the first in declaration order), and a product or a
    sum that is not finite raises the one that ``kron`` and ``+`` give."""
    by_dim: dict[int, list] = {}
    for (ineq, family, params, _), t in zip(trials, terms):
        if t is not None and ineq in _POWER_SUMS:
            by_dim.setdefault(family.dim, []).append((t, ineq, family, params))
    for group in by_dim.values():
        # Row r of the table is power r, and row ``len(ps) + i`` is operand
        # ``mats[i]`` itself, written ``~i`` until the powers are counted.
        mats, which, ps = [], [], []
        by_shape: dict[tuple[int, int], list] = {}
        operands = False
        for t, ineq, family, params in group:
            pair = _REGISTRY[ineq].takes_pair
            first = len(mats)
            mats += (family.A_list[0], family.B_list[0]) if pair else family.A_list
            for key in dict.fromkeys(_POWER_SUMS[ineq](params)):
                ops, exps, f = _factors(pair, family.n, key)
                if exps is None:
                    rows = [~(first + j) for j in ops]
                    operands = True
                else:
                    rows = list(range(len(ps), len(ps) + len(ops)))
                    which += [first + j for j in ops]
                    ps += exps
                by_shape.setdefault((len(ops) // f, f), []).append((t, key, rows))
        table = spectral_pow_stack(mats, which, ps)
        if operands:
            table = np.concatenate([table, [m.array for m in mats]])
        # A product or a sum that overflows is rejected by the finiteness
        # check below, so NumPy need not warn first; a product that is not
        # finite leaves its sum not finite.
        with np.errstate(over="ignore", invalid="ignore"):
            for (n, f), items in by_shape.items():
                idx = np.array([rows for _, _, rows in items])
                idx[idx < 0] = len(ps) - 1 - idx[idx < 0]
                for j in range(0, n * f, f):
                    term = table[idx[:, j]]
                    if f == 2:
                        term = kron_arrays(term, table[idx[:, j + 1]])
                    total = term if j == 0 else total + term
                if not np.isfinite(total).all():
                    raise DomainError("matrix entries must be finite")
                for (t, key, _), m in zip(items, SymMatrix._views(total)):
                    t._stored[key] = m


def _check(ineq, family, params, variant):
    """The checks that every id passes before its builder runs."""
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
    if not info.takes_pair and ineq not in _MEAN_WEIGHTS:
        # COR_BJ_IDENTITY factors no mean, but a pair that could not enter
        # one fails with the text the other Hadamard-sum statements give it.
        require_positive_pairs(family.A_list, family.B_list)


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
    This is the one-trial case of :func:`evaluate_stage`.
    """
    (report,) = evaluate_stage([(ineq, family, params, variant)], tol)
    if isinstance(report, Exception):
        raise report
    return report


def evaluate_stage(trials, tol: float = DEFAULT_TOL) -> list:
    """``evaluate_inequality(*t, tol=tol)`` for each trial ``t = (ineq,
    family, params, variant)``, evaluated together.

    Item ``i`` is the report of trial ``i``, or the package error or
    ``numpy.linalg.LinAlgError`` that evaluating it raised, with the text it
    raises alone; any other exception propagates.  The mean-path
    factorizations and the Loewner gaps of all trials share one stacked
    eigendecomposition per dimension.  If a stacked call raises, the stage
    is evaluated again in halves, down to one trial at a time
    (``each_alone``), so only the failing trial carries the error.
    """
    return each_alone(partial(_evaluate_stage, tol=tol), trials, _EVALUATION_ERRORS)


def _evaluate_stage(trials, tol):
    out = _build_stage(trials)
    built = [k for k, links in enumerate(out) if not isinstance(links, Exception)]
    gaps = iter(loewner_gaps([(lhs, rhs) for k in built for _, lhs, rhs in out[k]], tol))
    for k in built:
        ineq, family, params, variant = trials[k]
        links = out[k]
        reports = tuple(LinkReport(name, next(gaps)) for name, _, _ in links)
        # The worst link is the first with the smallest relative gap; its
        # operands were decomposed with the gaps, so their norms are stored.
        w = min(range(len(reports)), key=lambda i: reports[i].gap.rel_gap)
        _, worst_lhs, worst_rhs = links[w]
        gap = reports[w].gap
        pdict = params_dict(ineq, params)
        witness = None if gap.satisfied else {"params": pdict, **family.to_dict()}
        out[k] = IneqReport(
            ineq=ineq,
            variant=variant,
            params=pdict,
            links=reports,
            gap=gap,
            lhs_norm=spectral_norm(worst_lhs),
            rhs_norm=spectral_norm(worst_rhs),
            witness=witness,
        )
    return out
