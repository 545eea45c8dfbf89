"""Independent cross-checks for the matrix path.

Two facilities live here:

* ``diagonal_equivalence`` re-derives every link of a Hadamard-sum statement
  entrywise from scalar closed forms (diagonal families commute, so means and
  Hadamard products reduce to weighted scalar sums) and reports the worst
  absolute discrepancy against the matrix path.  TENSOR_TOOL and
  REV_TENSOR_DEAR reduce the same way on diagonal pairs of any dimension: the
  Kronecker product of diagonal ``A`` and ``B`` is diagonal with entry
  ``a_i b_j`` at ``i*d + j`` (Horn & Johnson, *Topics in Matrix Analysis*,
  4.2), so each entry's scalar terms ``S(u) = a^u b^(1-u) + a^(1-u) b^u``
  (``_ScalarPairTerms``) go through the Hadamard-sum branches with the tensor
  weight.  The registry's ``takes_pair`` says which shape an id has.  WADA
  and PROOF_CHAIN have no scalar reduction.
* ``replay_witnesses`` re-evaluates recorded witness instances through BOTH
  the full matrix path and direct compensated scalar arithmetic and checks
  each against its frozen expected gap.

The scalar side deliberately avoids the eigensolver: sums are compensated
(``math.fsum``) and powers go through exp/log with one Newton correction step
for exact-half exponents, so it is meaningfully more accurate than the matrix
arithmetic it cross-checks.

Where the independence lies: the scalar algebra (``fsum``, ``oracle_pow``,
the ``_S`` of ``_ScalarTerms`` and ``_ScalarPairTerms``, their memo
``_Memo`` and each statement's combination of terms) is re-derived here.
The Kantorovich weights
``K^(+-r')`` mostly are not re-derived: they are scalars of the band and the
exponents, and for the Hadamard and tensor statements the oracle takes them
from the same helpers as the link builders (``_hadamard_weight``,
``_tensor_weight``), just as it takes the same arguments.  The hand-derived
gaps of the recorded witnesses remain the independent pin on those weights.
PROP_HBOUNDS is the exception: no witness pins it, so its weights are derived
again here, ``K(h^(2t-1))^r'`` for the literal form and, for the repaired
one, the minimum of ``K`` over the interval that ``_congruence_interval``
returns, raised to ``r'``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CallebautLabError, ConfigError, DomainError, HypothesisError
from .errors import ShapeError
from .inequalities import (
    IneqId,
    Variant,
    _congruence_interval,
    _hadamard_weight,
    _tensor_weight,
    build_links,
    evaluate_inequality,
    inequality_info,
)
from .sampler import FamilyInstance, SpectralBand
from .scalarcore import (
    ExponentPair,
    kantorovich,
    kantorovich_min_over_interval,
)

fsum = math.fsum


def oracle_pow(x: float, p: float) -> float:
    """High-accuracy positive power for the scalar oracle path.

    Integer exponents multiply exactly; exact-half exponents take one Newton
    step on the exp/log square root; everything else is plain exp/log.
    """
    if x <= 0.0:
        raise DomainError(f"oracle power needs a positive base, got {x}")
    if p == 0.0:
        return 1.0
    if float(p).is_integer():
        return x ** int(p)
    two_p = 2.0 * p
    if float(two_p).is_integer():
        root = math.exp(0.5 * math.log(x))
        root = 0.5 * (root + x / root)  # one Newton step toward sqrt(x)
        return root ** int(two_p)
    return math.exp(p * math.log(x))


def _wsum(x, y, u: float) -> float:
    """``sum_j x_j^(1-u) y_j^u`` with compensated summation."""
    return fsum(oracle_pow(xi, 1.0 - u) * oracle_pow(yi, u) for xi, yi in zip(x, y))


class _Memo:
    """``S(u)`` is symmetric in ``u <-> 1-u``, so it is computed once per
    ``min(u, 1-u)``, by the subclass's ``_S``, at the first ``u`` asked
    for."""

    def __init__(self):
        self._s = {}

    def S(self, u: float) -> float:
        key = min(u, 1.0 - u)
        if key not in self._s:
            self._s[key] = self._S(u)
        return self._s[key]


class _ScalarTerms(_Memo):
    """Scalar mirror of the family terms for one diagonal entry."""

    def __init__(self, x, y):
        super().__init__()
        self.x, self.y = x, y

    def _S(self, u: float) -> float:
        return _wsum(self.x, self.y, u) * _wsum(self.x, self.y, 1.0 - u)

    @property
    def top(self) -> float:
        return fsum(self.x) * fsum(self.y)


class _ScalarPairTerms(_Memo):
    """Scalar mirror of the pair terms at one entry pair ``(a, b)``:
    ``S(u) = a^u b^(1-u) + a^(1-u) b^u``."""

    def __init__(self, a, b):
        super().__init__()
        self.a, self.b = a, b

    def _S(self, u: float) -> float:
        a, b = self.a, self.b
        return fsum(
            (
                oracle_pow(a, u) * oracle_pow(b, 1.0 - u),
                oracle_pow(a, 1.0 - u) * oracle_pow(b, u),
            )
        )


def _scalar_links(ineq: IneqId, inst: FamilyInstance, params, variant: Variant):
    """Scalar (name, lhs, rhs) links of a diagonal instance, one list per
    diagonal entry of the statement's operands: entry ``k`` of a family, or
    entry ``i*d + j`` of a pair's Kronecker products."""
    if not all(m.is_diagonal() for m in (*inst.A_list, *inst.B_list)):
        raise ShapeError("diagonal cross-check requires diagonal matrices")
    # Column k holds entry (k, k) of every A_j (xs) or of every B_j (ys).
    xs = [[m.array[k, k] for m in inst.A_list] for k in range(inst.dim)]
    ys = [[m.array[k, k] for m in inst.B_list] for k in range(inst.dim)]
    if inequality_info(ineq).takes_pair:
        if inst.n != 1:
            raise HypothesisError(
                f"pair-shaped statement needs a single pair, got n = {inst.n}"
            )
        terms = [_ScalarPairTerms(x[0], y[0]) for x in xs for y in ys]
    else:
        terms = [_ScalarTerms(x, y) for x, y in zip(xs, ys)]
    return [_scalar_entry_links(ineq, variant, t, inst.band, params) for t in terms]


def _scalar_entry_links(ineq: IneqId, variant: Variant, t, band: SpectralBand, params):
    """Scalar (name, lhs, rhs) values for one terms object, mirroring the
    matrix link builders term by term."""
    weight = _tensor_weight if inequality_info(ineq).takes_pair else _hadamard_weight
    if ineq == IneqId.CHAIN_34RF:
        return [
            ("geo_vs_s", t.S(0.5), t.S(params.s)),
            ("s_vs_t", t.S(params.s), t.S(params.t)),
            ("t_vs_sums", t.S(params.t), t.top),
        ]
    if ineq == IneqId.MOJ_MO:
        c = (params.t - params.s) / (params.s - 0.5)
        mid = fsum((t.S(params.s), c * t.S(params.s), -c * t.S(0.5)))
        return [("s_vs_mid", t.S(params.s), mid), ("mid_vs_t", mid, t.S(params.t))]
    if ineq in (IneqId.HAD_MAMAN, IneqId.TENSOR_TOOL):
        kf = weight(band, params, variant, 1.0)
        lhs = fsum(
            (kf * t.S(params.s), params.c_mid * t.S(params.t), -params.c_mid * t.S(0.5))
        )
        return [("main", lhs, t.S(params.t))]
    if ineq == IneqId.HAD_MAMAN2:
        bracket = fsum(
            (t.S(params.s), t.S(0.5), -2.0 * t.S((3.0 - 2.0 * params.s) / 4.0))
        )
        rp = params.r_prime_st
        lhs = fsum(
            (
                t.S(params.s),
                params.c_mid * t.S(params.s),
                -params.c_mid * t.S(0.5),
                rp * bracket,
            )
        )
        return [("main", lhs, t.S(params.t)), ("bracket_psd", 0.0, bracket)]
    if ineq == IneqId.COR_BJ_IDENTITY:
        def psum(u):
            return fsum(oracle_pow(xi, u) for xi in t.x)

        s, tt = params.s, params.t
        s_s = psum(1.0 - s) * psum(s)
        s_t = psum(1.0 - tt) * psum(tt)
        l0 = psum(0.5) ** 2
        t_mid = psum((1.0 + 2.0 * s) / 4.0) * psum((3.0 - 2.0 * s) / 4.0)
        rp = params.r_prime_st
        lhs = fsum(
            (s_s, params.c_mid * s_s, -params.c_mid * l0, rp * s_s, rp * l0, -2.0 * rp * t_mid)
        )
        return [("main", lhs, s_t)]
    if ineq in (IneqId.REV_HAD_MAINTH, IneqId.REV_TENSOR_DEAR):
        kf = weight(band, params, variant, -1.0)
        coeff = (
            params.c_rev_repair if variant == Variant.REPAIRED else params.c_rev_paper
        )
        rhs = fsum(
            (kf * t.S(params.s), coeff * t.S(params.t), -coeff * t.S(0.5))
        )
        return [("main", t.S(params.t), rhs)]
    if ineq == IneqId.REV_T1_REMARK:
        kf = _hadamard_weight(band, params, variant, -1.0)
        coeff = 2.0 * params.s if variant == Variant.REPAIRED else 2.0 * params.s - 1.0
        rhs = fsum((kf * t.S(params.s), coeff * t.top, -coeff * t.S(0.5)))
        return [("main", t.top, rhs)]
    if ineq == IneqId.PROP_HBOUNDS:
        if variant == Variant.PAPER_LITERAL:
            kf = kantorovich(band.h ** (2.0 * params.t - 1.0)) ** params.r_prime_st
            low_term = (math.sqrt(band.h) - math.sqrt(1.0 / band.h)) ** 2
            high_term = (
                math.sqrt(band.h_prime) - math.sqrt(1.0 / band.h_prime)
            ) ** 2
            lower_lhs = fsum((kf * t.S(params.s), params.c_mid * low_term))
            upper_rhs = fsum(
                ((1.0 / kf) * t.S(params.s), params.c_rev_paper * high_term)
            )
            return [
                ("lower", lower_lhs, t.S(params.t)),
                ("upper", t.S(params.t), upper_rhs),
            ]
        lo, hi = _congruence_interval(band, params.t)
        kf = kantorovich_min_over_interval(lo, hi) ** params.r_prime_st
        up_term = (math.sqrt(hi) - math.sqrt(1.0 / hi)) ** 2
        upper_rhs = fsum(
            ((1.0 / kf) * t.S(params.s), params.c_rev_repair * up_term * t.S(0.5))
        )
        return [
            ("lower", kf * t.S(params.s), t.S(params.t)),
            ("upper", t.S(params.t), upper_rhs),
        ]
    raise ShapeError(f"no scalar reduction is defined for {ineq.value}")


def scalar_min_gap(
    ineq: IneqId,
    inst: FamilyInstance,
    params,
    variant: Variant = Variant.PAPER_LITERAL,
) -> float:
    """Worst link gap of a diagonal instance computed purely in scalars."""
    worst = math.inf
    for entry in _scalar_links(ineq, inst, params, variant):
        for _, lhs, rhs in entry:
            worst = min(worst, rhs - lhs)
    return worst


def diagonal_equivalence(
    ineq: IneqId,
    diag_instance: FamilyInstance,
    params,
    variant: Variant = Variant.PAPER_LITERAL,
) -> float:
    """Worst entrywise discrepancy between matrix-path and scalar-path links.

    Only meaningful for diagonal families, where every operator expression is
    diagonal with entries given by closed scalar forms.
    """
    links = build_links(ineq, diag_instance, params, variant)
    scalar_links = _scalar_links(ineq, diag_instance, params, variant)
    worst = 0.0
    for li, (name, lhs, rhs) in enumerate(links):
        lhs_diag = np.diag([entry[li][1] for entry in scalar_links])
        rhs_diag = np.diag([entry[li][2] for entry in scalar_links])
        worst = max(
            worst,
            float(np.abs(lhs.array - lhs_diag).max()),
            float(np.abs(rhs.array - rhs_diag).max()),
        )
    return worst


@dataclass(frozen=True)
class WitnessRecord:
    """A recorded instance with its frozen expected gap.

    Replaying the record through the matrix path and through the scalar
    oracle must both reproduce ``expected_gap`` within ``tolerance``.
    """

    ineq: IneqId
    variant: Variant
    family: FamilyInstance
    pair: ExponentPair
    expected_gap: float
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "id": self.ineq.value,
            "variant": self.variant.value,
            "params": {"s": self.pair.s, "t": self.pair.t},
            "expected_gap": self.expected_gap,
            "tolerance": self.tolerance,
            **self.family.to_dict(),
        }

    @staticmethod
    def from_dict(d: dict) -> "WitnessRecord":
        """Record from its ``to_dict`` form.

        Raises ``KeyError``, ``TypeError`` or ``ValueError`` when ``d`` is not
        a complete record: a field is missing, the id or variant is unknown,
        the id takes no ``ExponentPair`` (a record's params are ``(s, t)``),
        ``FamilyInstance.from_dict`` rejects the instance, ``ExponentPair``
        rejects the params, the expected gap is not finite, or the tolerance
        is not finite and ``>= 0`` (an infinite one passes any gap, and a
        negative or NaN one fails every replay).
        """
        ineq, params = IneqId(d["id"]), d["params"]
        kind = inequality_info(ineq).kind
        if kind.type is not ExponentPair:
            raise ValueError(f"{ineq.value} takes {kind.type.__name__} parameters, not (s, t)")
        expected_gap, tolerance = float(d["expected_gap"]), float(d["tolerance"])
        if not math.isfinite(expected_gap):
            raise ValueError(f"expected_gap must be finite, got {expected_gap}")
        if not (math.isfinite(tolerance) and tolerance >= 0.0):
            raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
        return WitnessRecord(
            ineq=ineq,
            variant=Variant(d["variant"]),
            family=FamilyInstance.from_dict(d),
            pair=ExponentPair(float(params["s"]), float(params["t"])),
            expected_gap=expected_gap,
            tolerance=tolerance,
        )


#: The instance and exponents of every recorded witness: the degenerate band
#: (1, 1, 4, 4) with the single 1x1 pair A = [4], B = [1], at s = 3/4, t = 1.
WITNESS_FAMILY = FamilyInstance.from_dict(
    {"band": [1.0, 1.0, 4.0, 4.0], "n": 1, "dim": 1, "A_list": [[[4.0]]], "B_list": [[[1.0]]]}
)
WITNESS_PAIR = ExponentPair(0.75, 1.0)


def _witness(ineq, variant, expected, tol):
    return WitnessRecord(ineq, variant, WITNESS_FAMILY, WITNESS_PAIR, expected, tol)


#: The recorded witnesses.  Expected gaps were derived by hand through the
#: scalar closed forms at ``WITNESS_FAMILY`` and ``WITNESS_PAIR``, and are
#: reproduced by ``tests`` before use:
#:   TENSOR_TOOL literal:    5 - (K(4)^(1/2) * 3 sqrt(2) + 1/2) = -0.8033008588991066
#:   TENSOR_TOOL repaired:   5 - (K(2)^(1/2) * 3 sqrt(2) + 1/2) = 0
#:   HAD_MAMAN literal:      4 - K(4)^(1/2) * 4                 = -1 (all sums equal ab)
#:   HAD_MAMAN repaired:     4 - 4                              = 0 (factor collapses to 1)
#:   REV_TENSOR_DEAR literal: (K(4)^(-1/2) * 3 sqrt(2) + 1/2) - 5 = -1.1058874503045715
#:   REV_HAD_MAINTH literal:  K(4)^(-1/2) * 4 - 4                = -0.8
#:   REV_T1_REMARK literal:   same reduction at t = 1            = -0.8
BUILTIN_WITNESSES: tuple[WitnessRecord, ...] = (
    _witness(IneqId.TENSOR_TOOL, Variant.PAPER_LITERAL, -0.8033008588991066, 1e-6),
    _witness(IneqId.TENSOR_TOOL, Variant.REPAIRED, 0.0, 1e-9),
    _witness(IneqId.HAD_MAMAN, Variant.PAPER_LITERAL, -1.0, 1e-9),
    _witness(IneqId.HAD_MAMAN, Variant.REPAIRED, 0.0, 1e-9),
    _witness(IneqId.REV_TENSOR_DEAR, Variant.PAPER_LITERAL, -1.1058874503045715, 1e-6),
    _witness(IneqId.REV_HAD_MAINTH, Variant.PAPER_LITERAL, -0.8, 1e-9),
    _witness(IneqId.REV_T1_REMARK, Variant.PAPER_LITERAL, -0.8, 1e-9),
)


@dataclass(frozen=True)
class ReplayOutcome:
    """One replayed record.  A path that raised has a NaN gap, and
    ``message`` holds its error."""

    record: WitnessRecord
    matrix_gap: float
    scalar_gap: float
    passed: bool
    message: str


def replay_witnesses(catalog=None) -> list[ReplayOutcome]:
    """Replay witness records through both evaluation paths.

    Each record passes iff the matrix-path gap AND the direct scalar-path gap
    reproduce ``expected_gap`` within the record's tolerance.  A record that
    either path cannot evaluate is a failed replay, not a crash: the path
    that raised reports NaN, and a matrix gap that was measured is kept.
    """
    records = BUILTIN_WITNESSES if catalog is None else tuple(catalog)
    outcomes = []
    for rec in records:
        label = f"{rec.ineq.value}/{rec.variant.value}"
        m_gap = s_gap = math.nan
        try:
            m_gap = evaluate_inequality(rec.ineq, rec.family, rec.pair, rec.variant).gap.min_eig
            s_gap = scalar_min_gap(rec.ineq, rec.family, rec.pair, rec.variant)
        except CallebautLabError as exc:
            outcomes.append(ReplayOutcome(rec, m_gap, s_gap, False, f"{label}: {exc}"))
            continue
        ok_m = abs(m_gap - rec.expected_gap) <= rec.tolerance
        ok_s = abs(s_gap - rec.expected_gap) <= rec.tolerance
        if ok_m and ok_s:
            msg = "ok"
        else:
            msg = (
                f"{label}: expected {rec.expected_gap:.10g}"
                f", matrix path {m_gap:.10g}, scalar path {s_gap:.10g}"
            )
        outcomes.append(
            ReplayOutcome(
                record=rec,
                matrix_gap=m_gap,
                scalar_gap=s_gap,
                passed=ok_m and ok_s,
                message=msg,
            )
        )
    return outcomes


def dump_catalog(records, path):
    """Write witness records as line-delimited JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")


def load_catalog(path) -> list[WitnessRecord]:
    """Read a line-delimited witness catalog (empty file gives zero records).

    A line that is not a complete UTF-8 record raises ``ConfigError``
    naming the path and the line number.
    """
    records = []
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()  # at \n, \r and \r\n, as text mode reads
    for lineno, line in enumerate(lines, 1):
        try:
            line = line.decode("utf-8").strip()
            if line:
                records.append(WitnessRecord.from_dict(json.loads(line)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"{path}:{lineno}: not a witness record "
                f"({type(exc).__name__}: {exc})"
            ) from None
    return records
