"""Registry of the operator inequalities under test, their link builders
and their evaluation.

Each statement is defined once: by its registry entry and by its builder in
``_BUILDERS``.  A builder takes a ``_Group``, the built trials of one stage
that share an id, a variant and a dimension.  It computes its per-trial
constants (weights and coefficients) in Python, one trial at a time, and
makes its ``(name, LHS, RHS)`` links, with ``LHS <= RHS`` claimed, as
``(k, D, D)`` stacks from the sums the stage stored, with the constants as
``(k, 1, 1)`` columns.  Each expression keeps the association and order of
the one-matrix form, so every entry is the one the trial gets alone.
PROP_HBOUNDS reads the literal bound's bare scalars as multiples of the
identity; its repaired form carries the scalar bound on ``S(1/2)``.  README
describes the variants, the parameter kinds, stacked evaluation and its one
failure rule.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from functools import partial, reduce
from typing import Any, Callable

import numpy as np

from .errors import CallebautLabError, DomainError, HypothesisError, ShapeError, VariantError
from .errors import each_alone
from .matcore import (
    DEFAULT_TOL,
    LoewnerGap,
    MeanPath,
    SymMatrix,
    kron_arrays,
    loewner_gaps,
    require_positive_pairs,
    spectral_pow_stack,
    sym_eigen_stack,
)
from .sampler import FamilyInstance, SpectralBand, _band_failures
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
class InequalityInfo:
    ineq: IneqId
    description: str
    variants: tuple[Variant, ...]
    anchor: str
    takes_pair: bool
    needs_band: bool
    kind: ParamKind


class _Sums:
    """The sums a stage stored for its builders, kept for one evaluation:
    blocks of ``(r, D, D)`` stacks per dimension ``D``, and the place of
    the sum of each ``(trial, key)``."""

    def __init__(self):
        self._blocks: dict[int, list] = {}
        self._rows: dict = {}
        self._tables: dict = {}

    def add(self, block: np.ndarray, keys):
        """Store ``block[r]`` as the sum of ``keys[r]``."""
        d = block.shape[-1]
        blocks = self._blocks.setdefault(d, [])
        first = sum(map(len, blocks))
        self._rows.update((key, (d, r)) for r, key in enumerate(keys, first))
        blocks.append(block)

    def gather(self, keys) -> np.ndarray:
        """The stored sums of ``keys``, one dimension, as a new stack."""
        rows = [self._rows[key] for key in keys]
        d = rows[0][0]
        if d not in self._tables:
            self._tables[d] = np.concatenate(self._blocks[d])
        return self._tables[d].take([r for _, r in rows], axis=0)


class _Failed(Exception):
    """``args[0]``: the errors of a group's trials whose constants raised,
    by stage index; ``_build_stage`` builds the group again without them."""


class _Group:
    """The trials ``ks`` of one stage that share an id, a variant and a
    dimension, as their builder reads them: one row per trial.  ``S(u)`` is
    ``A^u x B^(1-u) + A^(1-u) x B^u`` for a pair (the stored sum ``(u, 1 -
    u)``) and ``sum(A_j #_u B_j) o sum(A_j #_(1-u) B_j)`` for a family."""

    def __init__(self, ineq, variant, ks, trials, sums: _Sums):
        self.ineq, self.variant, self.ks, self._sums = ineq, variant, ks, sums
        self.params = [trials[k][2] for k in ks]
        self.families = [trials[k][1] for k in ks]
        self.dim = self.families[0].dim

    def cols(self, fn):
        """``fn(params, family)`` of each trial as a ``(k, 1, 1)`` column,
        or one column per item when ``fn`` returns a tuple.  A trial whose
        ``fn`` raises fails with its error, an overflow of a Python float
        as ``HypothesisError``: this raises ``_Failed`` with every such
        trial's error."""
        values, errors = [], {}
        for k, p, f in zip(self.ks, self.params, self.families):
            try:
                values.append(fn(p, f))
            except _EVALUATION_ERRORS as exc:
                errors[k] = _hypothesis(exc)
            except ArithmeticError as exc:  # a power overflowed, a ratio's denominator underflowed
                errors[k] = HypothesisError(f"{self.ineq.value} overflows on this input: {exc}")
                errors[k].__cause__ = exc
        if errors:
            raise _Failed(errors)
        arr = np.array(values, dtype=np.float64)
        return arr[:, None, None] if arr.ndim == 1 else tuple(arr.T[:, :, None, None])

    def sums(self, key) -> np.ndarray:
        """The stored sum ``key(params)`` of each trial."""
        return self._sums.gather([(k, key(p)) for k, p in zip(self.ks, self.params)])

    def S(self, u) -> np.ndarray:
        """``S(u(params))`` of each trial.  A family's ``S`` that is not
        finite raises ``DomainError`` here, where a builder reads it, before
        any constant that the builder computes after it."""
        us = [u(p) for p in self.params]
        if _REGISTRY[self.ineq].takes_pair:
            return self._sums.gather([(k, (x, 1.0 - x)) for k, x in zip(self.ks, us)])
        both = self._sums.gather([(k, x) for k, x in zip(self.ks, us)]
                                 + [(k, 1.0 - x) for k, x in zip(self.ks, us)])
        out = both[: len(us)] * both[len(us) :]
        if not np.isfinite(out).all():
            raise DomainError("matrix entries must be finite")
        return out

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
# LHS <= RHS claimed; ``_BUILDERS`` binds the refinement's and reverse's weight.


def _links_wada(g: _Group):
    a, b = g.plain("A_list"), g.plain("B_list")
    mid_g = g.sums(lambda alpha: 0.5)
    gl = g.sums(float)
    gr = g.sums(lambda alpha: 1.0 - float(alpha))
    low = kron_arrays(mid_g, mid_g)
    mid = (kron_arrays(gl, gr) + kron_arrays(gr, gl)) * 0.5
    high = (kron_arrays(a, b) + kron_arrays(b, a)) * 0.5
    return [("geo_vs_mix", low, mid), ("mix_vs_sum", mid, high)]


def _links_chain_34rf(g: _Group):
    l0, ss, st = g.S(lambda p: 0.5), g.S(lambda p: p.s), g.S(lambda p: p.t)
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
    ss, l0 = g.S(lambda p: p.s), g.S(lambda p: 0.5)
    mid = ss + c * (ss - l0)
    return [("s_vs_mid", ss, mid), ("mid_vs_t", mid, g.S(lambda p: p.t))]


def _links_refinement(weight, g: _Group):
    """``K^r' S(s) + c_mid (S(t) - S(1/2)) <= S(t)`` with the id's ``weight``."""
    ss, st, l0 = g.S(lambda p: p.s), g.S(lambda p: p.t), g.S(lambda p: 0.5)
    kf, c_mid = g.cols(lambda p, f: (weight(f.band, p, g.variant, 1.0), p.c_mid))
    return [("main", kf * ss + c_mid * (st - l0), st)]


def _links_reverse(weight, g: _Group):
    """``S(t) <= K^-r' S(s) + c_rev (S(t) - S(1/2))`` with the id's ``weight``."""
    repaired = g.variant == Variant.REPAIRED
    ss, st, l0 = g.S(lambda p: p.s), g.S(lambda p: p.t), g.S(lambda p: 0.5)
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
    eig = sym_eigen_stack([m for f in g.families for m in (f.A_list[0], f.B_list[0])])
    spectra = {id(f): (a.eigenvalues, b.eigenvalues) for f, a, b in zip(g.families, eig[::2], eig[1::2])}
    lhs_pt, rhs_pt = g.cols(lambda c, f: _pointwise(c, *spectra[id(f)]))
    # The public constructor's symmetrisation of a 1x1 link: a bitwise
    # no-op, except that an entry above half the float limit overflows.
    spectra_link = ("pointwise_spectrum", (lhs_pt + lhs_pt) / 2.0, (rhs_pt + rhs_pt) / 2.0)
    one_mu = g.cols(lambda c, f: 1.0 - c.mu)

    # G_e = A^e x B^-e + swap, and H_e = A^(1+e) x B^(1-e) + swap; the
    # stored sum None is A x B.
    g_al = g.sums(lambda c: (c.alpha, -c.alpha))
    ident = np.eye(g.dim * g.dim)
    lhs345 = kf * g.sums(lambda c: (c.beta, -c.beta)) + one_mu * (g_al - ident * 2.0)
    h_al = g.sums(lambda c: (1.0 + c.alpha, 1.0 - c.alpha))
    lhs3456 = kf * g.sums(lambda c: (1.0 + c.beta, 1.0 - c.beta)) + one_mu * (
        h_al - g.sums(lambda c: None) * 2.0
    )
    return [spectra_link, ("ratio_powers", lhs345, g_al), ("shifted_powers", lhs3456, h_al)]


def _links_had_maman2(g: _Group):
    c_mid, r_prime = g.cols(lambda p, f: (p.c_mid, p.r_prime_st))
    ss, st, l0 = g.S(lambda p: p.s), g.S(lambda p: p.t), g.S(lambda p: 0.5)
    bracket = ss + l0 - g.S(lambda p: (3.0 - 2.0 * p.s) / 4.0) * 2.0
    lhs = ss + c_mid * (ss - l0) + r_prime * bracket
    return [("main", lhs, st), ("bracket_psd", np.zeros_like(bracket), bracket)]


def _links_cor_bj(g: _Group):
    # Lower family pinned to the identity: means become plain powers of A_j,
    # and the stored sum u is sum_j A_j^u.
    c_mid, r_prime = g.cols(lambda p, f: (p.c_mid, p.r_prime_st))
    power_sum = g.sums
    s_s = power_sum(lambda p: 1.0 - p.s) * power_sum(lambda p: p.s)
    s_t = power_sum(lambda p: 1.0 - p.t) * power_sum(lambda p: p.t)
    root = power_sum(lambda p: 0.5)
    l0 = root * root
    t_mid = power_sum(lambda p: (1.0 + 2.0 * p.s) / 4.0) * power_sum(
        lambda p: (3.0 - 2.0 * p.s) / 4.0
    )
    lhs = s_s + c_mid * (s_s - l0) + r_prime * (s_s + l0 - t_mid * 2.0)
    return [("main", lhs, s_t)]


def _links_rev_t1(g: _Group):
    repaired = g.variant == Variant.REPAIRED
    kf, coeff = g.cols(lambda p, f: (
        _hadamard_weight(f.band, p, g.variant, -1.0), 2.0 * p.s if repaired else 2.0 * p.s - 1.0))
    ss, l0 = g.S(lambda p: p.s), g.S(lambda p: 0.5)
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
    ss, st = g.S(lambda p: p.s), g.S(lambda p: p.t)
    if g.variant == Variant.PAPER_LITERAL:
        kf, low, inv_kf, high = g.cols(_hbounds_paper)
        ident = np.eye(g.dim)
        lower_lhs = kf * ss + low * ident
        upper_rhs = inv_kf * ss + high * ident
        return [("lower", lower_lhs, st), ("upper", st, upper_rhs)]
    kf, inv_kf, up = g.cols(_hbounds_repaired)
    upper_rhs = inv_kf * ss + up * g.S(lambda p: 0.5)
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
    This is the one-trial case of the stage's builders.
    """
    out, groups = _build_stage([(ineq, family, params, variant)])
    if out[0] is not None:
        raise out[0]
    ((_, links),) = groups
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
    checks or builder constants, a ``DomainError`` as ``HypothesisError``,
    or ``None``; a group ``(ks, links)`` holds ``(name, lhs, rhs)`` stacks
    whose row ``r`` is trial ``ks[r]``'s.  The stacked steps (one
    ``MeanPath`` per distinct family that takes means, the stored sums, and
    each group's links, checked for finiteness) succeed whole or raise, a
    ``DomainError`` as ``HypothesisError``.
    """
    # Every band check of the stage runs on one stack per dimension.
    banded = {id(f): f for ineq, f, _, _ in trials
              if isinstance(f, FamilyInstance) and _REGISTRY[ineq].needs_band}
    bands = dict(zip(banded, _band_failures(list(banded.values()))))
    out = []
    for trial in trials:
        try:
            _check(*trial, bands.get(id(trial[1])))
            out.append(None)
        except _EVALUATION_ERRORS as exc:
            out.append(_hypothesis(exc))
    built = [k for k, err in enumerate(out) if err is None]
    families = {id(trials[k][1]): trials[k][1] for k in built if trials[k][0] in _MEAN_WEIGHTS}
    by_group: dict[tuple, list[int]] = {}
    for k in built:
        ineq, family, _, variant = trials[k]
        by_group.setdefault((ineq, variant, family.dim), []).append(k)
    sums, groups = _Sums(), []
    try:
        paths = MeanPath.stack([(f.A_list, f.B_list) for f in families.values()])
        _fill_mean_sums(trials, built, sums, dict(zip(families, paths)))
        _fill_power_sums(trials, built, sums)
        # A link that overflows is rejected by the finiteness check below,
        # so NumPy need not warn first.
        with np.errstate(over="ignore", invalid="ignore"):
            for (ineq, variant, _), ks in by_group.items():
                while ks:
                    try:
                        links = _BUILDERS[ineq](_Group(ineq, variant, ks, trials, sums))
                    except _Failed as failed:
                        for k, exc in failed.args[0].items():
                            out[k] = exc
                        ks = [k for k in ks if out[k] is None]
                        continue
                    for _, lhs, rhs in links:
                        if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
                            raise DomainError("matrix entries must be finite")
                    groups.append((ks, links))
                    break
    except DomainError as exc:
        raise _hypothesis(exc)
    return out, groups


def _fill_mean_sums(trials, built, sums: _Sums, paths: dict):
    """Store the mean sums each trial's builder reads (``_MEAN_WEIGHTS``),
    with one ``MeanPath.sums`` call for the stage; ``paths`` maps the
    ``id`` of each family to its ``MeanPath``."""
    wanted = [
        (k, u)
        for k in built
        if trials[k][0] in _MEAN_WEIGHTS
        for u in dict.fromkeys(_MEAN_WEIGHTS[trials[k][0]](trials[k][2]))
    ]
    for total, idx in MeanPath.sums([(paths[id(trials[k][1])], u) for k, u in wanted]):
        sums.add(total, [wanted[i] for i in idx])


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


def _fill_power_sums(trials, built, sums: _Sums):
    """Store the power sums each trial's builder reads (``_POWER_SUMS``),
    computed together one dimension at a time: every power with one
    ``spectral_pow_stack`` call, then, for each shape of sum, every
    Kronecker product with one broadcast product and the sums left to
    right on the stack.  Each sum is bit for bit the one that
    ``spectral_pow``, ``kron`` and ``+`` give.  A power that fails raises its
    ``DomainError`` (the first in declaration order), and a product or a
    sum that is not finite raises the one that ``kron`` and ``+`` give."""
    by_dim: dict[int, list[int]] = {}
    for k in built:
        if trials[k][0] in _POWER_SUMS:
            by_dim.setdefault(trials[k][1].dim, []).append(k)
    for group in by_dim.values():
        # Row r of the table is power r, and row ``len(ps) + i`` is operand
        # ``mats[i]`` itself, written ``~i`` until the powers are counted.
        mats, which, ps = [], [], []
        by_shape: dict[tuple[int, int], list] = {}
        operands = False
        for k in group:
            ineq, family, params, _ = trials[k]
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
                by_shape.setdefault((len(ops) // f, f), []).append(((k, key), rows))
        table = spectral_pow_stack(mats, which, ps)
        if operands:
            table = np.concatenate([table, [m.array for m in mats]])
        # A product or a sum that overflows is rejected by the finiteness
        # check below, so NumPy need not warn first; a product that is not
        # finite leaves its sum not finite.
        with np.errstate(over="ignore", invalid="ignore"):
            for (n, f), items in by_shape.items():
                idx = np.array([rows for _, rows in items])
                idx[idx < 0] = len(ps) - 1 - idx[idx < 0]
                for j in range(0, n * f, f):
                    term = table[idx[:, j]]
                    if f == 2:
                        term = kron_arrays(term, table[idx[:, j + 1]])
                    total = term if j == 0 else total + term
                if not np.isfinite(total).all():
                    raise DomainError("matrix entries must be finite")
                sums.add(total, [key for key, _ in items])


def _check(ineq, family, params, variant, band_failure):
    """The checks every id passes before its builder runs, given the family's ``_band_failures`` text."""
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
    if info.needs_band and band_failure is not None:
        raise HypothesisError(band_failure)
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
    out, groups = _build_stage(trials)
    measured = loewner_gaps([(lhs, rhs, ks) for ks, links in groups for _, lhs, rhs in links], tol)
    for ks, links in groups:
        for k in ks:
            ineq, family, params, variant = trials[k]
            gaps, w, lhs_norm, rhs_norm = measured[k]
            out[k] = IneqReport(
                ineq=ineq,
                variant=variant,
                params=params_dict(ineq, params),
                links=tuple(LinkReport(name, gap) for (name, _, _), gap in zip(links, gaps)),
                gap=gaps[w],
                lhs_norm=lhs_norm,
                rhs_norm=rhs_norm,
                family=family,
            )
    return out
