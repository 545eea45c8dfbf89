"""Deterministic sampling of band-constrained SPD families.

Randomness comes from explicit ``(master_seed, stream_id)`` pairs: splitmix64
expands the pair into the state of a xoshiro256** generator, uniform doubles
take the top 53 bits, and Gaussians come from Box-Muller.  The exact bit-level
recipe is written down in ``docs/rng.md`` so that any run can be reproduced
from its report lines alone.

Matrices with a prescribed spectrum are built directly: eigenvalues are drawn
inside the band and conjugated by a Haar-distributed orthogonal matrix, so
containment is exact by construction instead of approximate by rejection.

Families are sampled in two stages.  The draw stage runs each family's draws
sequentially, in pure Python, on the family's own stream.  The factor stage
then handles every drawn matrix of one dimension at once: one QR of the
stacked Gaussian matrices (Mezzadri's R-diagonal sign fix, Notices AMS 2007),
one stacked rebuild, and one stacked eigendecomposition that is stored on
each new matrix for band validation and the stacked weighted-mean
factorization (``matcore.MeanPath.stack``).  At d <= 4 a LAPACK
call costs more than its work, so ``sample_families`` shares those calls
across many families; ``sample_family``, ``spd_in_band`` and
``haar_orthogonal`` are its one-item cases.  The stacked calls give each
matrix the bits per-matrix calls would give; ``tests/test_sampler.py``
checks that on the installed build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CallebautLabError, DomainError, HypothesisError, ShapeError, SizeError
from .matcore import MAX_EIGEN_DIM, SymMatrix, sym_eigen, sym_eigen_stack

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TWO_PI = 2.0 * math.pi


def _mix64(z: int) -> int:
    """splitmix64 output mix."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class RngState:
    """xoshiro256** stream with value-style determinism.

    Instances are cheap and independent; derive one per trial so execution
    order and staging cannot change any drawn number.
    """

    __slots__ = ("_s0", "_s1", "_s2", "_s3", "_spare")

    def __init__(self, s0: int, s1: int, s2: int, s3: int):
        if s0 == s1 == s2 == s3 == 0:
            s0 = _GOLDEN  # all-zero state is invalid for xoshiro
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        self._spare = None

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        x = (s1 * 5) & _MASK
        result = (((x << 7) | (x >> 57)) & _MASK) * 9 & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def uniform(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def normal(self) -> float:
        """Standard Gaussian via Box-Muller; the sine mate is cached."""
        if self._spare is not None:
            z = self._spare
            self._spare = None
            return z
        u1 = ((self.next_u64() >> 11) + 1) * 2.0 ** -53  # in (0, 1]
        u2 = (self.next_u64() >> 11) * 2.0 ** -53
        radius = math.sqrt(-2.0 * math.log(u1))
        angle = _TWO_PI * u2
        self._spare = radius * math.sin(angle)
        return radius * math.cos(angle)


def derive_rng(master_seed: int, stream_id: int) -> RngState:
    """Independent deterministic stream for ``(master_seed, stream_id)``.

    Identical arguments give an identical stream regardless of evaluation
    order; distinct stream ids decorrelate through two splitmix64 mixes.
    """
    z = _mix64(master_seed & _MASK)
    z = _mix64((z ^ (((stream_id & _MASK) * _GOLDEN) & _MASK)) + _GOLDEN)
    s = []
    for _ in range(4):
        z = (z + _GOLDEN) & _MASK
        s.append(_mix64(z))
    return RngState(*s)


@dataclass(frozen=True)
class SpectralBand:
    """The band hypothesis ``0 < m_lo <= B <= m_hi < M_lo <= A <= M_hi``.

    ``m_lo, m_hi`` bound the lower family, ``M_lo, M_hi`` the upper one;
    ``h = M_lo / m_hi`` and ``h_prime = M_hi / m_lo`` are the inner and outer
    spectral ratios.  Degenerate edges (``m_lo == m_hi``) are admitted, but
    the families must stay separated: ``m_hi < M_lo`` strictly.
    """

    m_lo: float
    m_hi: float
    M_lo: float
    M_hi: float

    def __post_init__(self):
        if not 0.0 < self.m_lo:
            raise HypothesisError(f"band needs 0 < m_lo, got m_lo={self.m_lo}")
        if not self.m_lo <= self.m_hi:
            raise HypothesisError(
                f"band needs m_lo <= m_hi, got ({self.m_lo}, {self.m_hi})"
            )
        if not self.m_hi < self.M_lo:
            raise HypothesisError(
                f"band needs m_hi < M_lo (separated families), "
                f"got ({self.m_hi}, {self.M_lo})"
            )
        if not self.M_lo <= self.M_hi:
            raise HypothesisError(
                f"band needs M_lo <= M_hi, got ({self.M_lo}, {self.M_hi})"
            )

    @property
    def h(self) -> float:
        return self.M_lo / self.m_hi

    @property
    def h_prime(self) -> float:
        return self.M_hi / self.m_lo

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.m_lo, self.m_hi, self.M_lo, self.M_hi)


def _whole(d: dict, key: str) -> int:
    """``d[key]`` as an int; a bool, a non-number or a fraction is a ValueError."""
    v = d[key]
    if type(v) is int or (type(v) is float and v.is_integer()):
        return int(v)
    raise ValueError(f"{key} must be a whole number, got {v!r}")


@dataclass(frozen=True)
class FamilyInstance:
    """Sequences ``A_1..A_n`` (upper band) and ``B_1..B_n`` (lower band).

    Equality and ``repr`` compare the fields only.  The evaluator stores the
    family's factored ``matcore.MeanPath`` on the instance, outside the
    fields, the way ``sym_eigen`` stores a decomposition on a ``SymMatrix``:
    the matrices never change and the factorization is deterministic, so a
    stored path is bit-identical to a recomputed one.
    """

    n: int
    dim: int
    A_list: tuple[SymMatrix, ...]
    B_list: tuple[SymMatrix, ...]
    band: SpectralBand

    #: The factored ``MeanPath`` of the pairs, once the evaluator has made
    #: it.  Left unannotated so that it is not a dataclass field.
    _means = None

    def __post_init__(self):
        if not isinstance(self.band, SpectralBand):
            raise HypothesisError(
                f"family requires a spectral band, got {type(self.band).__name__}"
            )
        if self.n < 1 or len(self.A_list) != self.n or len(self.B_list) != self.n:
            raise ShapeError(
                f"family needs n >= 1 matrices per side, got n={self.n}, "
                f"|A|={len(self.A_list)}, |B|={len(self.B_list)}"
            )
        for m in (*self.A_list, *self.B_list):
            if m.dim != self.dim:
                raise ShapeError(
                    f"family dimension mismatch: expected {self.dim}, got {m.dim}"
                )

    def to_dict(self) -> dict:
        """The JSON form of the instance, shared by report witnesses and
        witness catalogs."""
        return {
            "band": list(self.band.as_tuple()),
            "n": self.n,
            "dim": self.dim,
            "A_list": [m.array.tolist() for m in self.A_list],
            "B_list": [m.array.tolist() for m in self.B_list],
        }

    @staticmethod
    def from_dict(d: dict) -> "FamilyInstance":
        """Instance from its ``to_dict`` form.

        Raises ``KeyError``, ``TypeError`` or ``ValueError`` (the package's
        own errors included) when a field is missing, ``n`` or ``dim`` is not
        a whole number, the band is invalid or does not have four numbers, a
        matrix is ragged, non-numeric, non-square or non-finite, or ``n`` and
        ``dim`` disagree with the matrices.
        """
        # Entries near the float limit overflow when symmetrized; the
        # finiteness check rejects them, so NumPy need not warn first.
        with np.errstate(over="ignore", invalid="ignore"):
            return FamilyInstance(
                n=_whole(d, "n"),
                dim=_whole(d, "dim"),
                A_list=tuple(SymMatrix(np.array(m, dtype=float)) for m in d["A_list"]),
                B_list=tuple(SymMatrix(np.array(m, dtype=float)) for m in d["B_list"]),
                band=SpectralBand(*map(float, d["band"])),
            )


def _check_dim(d: int):
    if d < 1:
        raise ShapeError(f"dimension must be >= 1, got {d}")
    if d > MAX_EIGEN_DIM:
        raise SizeError(f"dimension {d} exceeds cap {MAX_EIGEN_DIM}")


def _gaussians(d: int, rng: RngState) -> list[float]:
    """The ``d*d`` Gaussians of one Haar matrix, row-major."""
    normal = rng.normal
    return [normal() for _ in range(d * d)]


def _haar_stack(g: np.ndarray) -> np.ndarray:
    """Haar orthogonal matrices from a ``(k, d, d)`` stack of Gaussian
    matrices: one QR call, then each R-diagonal sign folded into its Q column."""
    q, r = np.linalg.qr(g)
    q *= np.where(np.diagonal(r, axis1=1, axis2=2) < 0.0, -1.0, 1.0)[:, None, :]
    return q


def haar_orthogonal(d: int, rng: RngState) -> np.ndarray:
    """Haar-distributed orthogonal matrix: QR of a Gaussian matrix with the
    R-diagonal sign correction.  Gaussians fill the matrix row-major."""
    _check_dim(d)
    return _haar_stack(np.array(_gaussians(d, rng)).reshape(1, d, d))[0]


def _draw_matrix(d: int, lo: float, hi: float, rng: RngState, pin_extremes: bool):
    """The draws of one ``spd_in_band`` matrix: its spectrum, then (for
    ``d >= 2``) its Gaussian matrix.  Pure Python; no LAPACK call."""
    if not 0.0 < lo <= hi:
        raise DomainError(f"need 0 < lo <= hi, got ({lo}, {hi})")
    _check_dim(d)
    w = sorted(rng.uniform_in(lo, hi) for _ in range(d))
    if pin_extremes and d >= 2:
        w[0] = lo
        w[-1] = hi
    return w, _gaussians(d, rng) if d >= 2 else None


def _factor(draws) -> list[SymMatrix]:
    """The matrix of each ``_draw_matrix`` result, in order.

    All matrices of one dimension share one Haar QR, one stacked rebuild
    ``(q * w) @ q^T`` and one eigendecomposition, which is stored on each
    matrix for band validation and ``MeanPath.stack``.
    """
    by_dim: dict[int, list[int]] = {}
    for i, (w, _) in enumerate(draws):
        by_dim.setdefault(len(w), []).append(i)
    out = [None] * len(draws)
    for d, idx in by_dim.items():
        w = np.array([draws[i][0] for i in idx])
        if d == 1:
            mats = SymMatrix.stack(w[:, :, None])
        else:
            q = _haar_stack(np.array([draws[i][1] for i in idx]).reshape(-1, d, d))
            mats = SymMatrix.stack((q * w[:, None, :]) @ q.transpose(0, 2, 1))
        sym_eigen_stack(mats)
        for i, m in zip(idx, mats):
            out[i] = m
    return out


def spd_in_band(
    d: int, lo: float, hi: float, rng: RngState, pin_extremes: bool = False
) -> SymMatrix:
    """SPD matrix with spectrum inside ``[lo, hi]``.

    Eigenvalues are i.i.d. uniform on the interval (sorted ascending); with
    ``pin_extremes`` and ``d >= 2`` the smallest is set to ``lo`` and the
    largest to ``hi``, which is where Kantorovich-type violations live.
    """
    return _factor([_draw_matrix(d, lo, hi, rng, pin_extremes)])[0]


def sample_family(
    n: int,
    d: int,
    band: SpectralBand,
    rng: RngState,
    pin_extremes: bool = False,
) -> FamilyInstance:
    """Draw ``n`` upper-band and ``n`` lower-band matrices (A's first)."""
    (family,) = sample_families([(n, d, band, rng, pin_extremes)])
    if isinstance(family, Exception):
        raise family
    return family


#: What sampling one family can raise: the package's own errors (a bad
#: request, a non-finite matrix) and a LAPACK failure.  ``sample_families``
#: returns these in the failing family's place.
_SAMPLING_ERRORS = (CallebautLabError, np.linalg.LinAlgError)


def _assemble(n: int, d: int, band: SpectralBand, draws, mats=None):
    """The family of one request's draws, factoring them alone unless
    ``mats`` is given; the exception instead if that raises."""
    try:
        if mats is None:
            mats = _factor(draws)
        return FamilyInstance(
            n=n, dim=d, A_list=tuple(mats[:n]), B_list=tuple(mats[n:]), band=band
        )
    except _SAMPLING_ERRORS as exc:
        return exc


def sample_families(requests: Sequence[tuple]) -> list:
    """``sample_family(*r)`` for each request ``r = (n, d, band, rng,
    pin_extremes)``, sampled as one stage.

    The draw stage runs each family's draws in ``sample_family``'s order on
    its own generator, so no family depends on the others.  The factor stage
    then builds the matrices of all families together: one Haar QR and one
    eigendecomposition per dimension.  Item ``i`` is the family of request
    ``i``, or the package error or ``numpy.linalg.LinAlgError`` that
    sampling it raised; any other exception propagates.  If a stacked call
    raises, the factor stage is redone one family at a time, so only the
    failing family carries the error.
    """
    drawn = []
    for n, d, band, rng, pin_extremes in requests:
        try:
            lohi = ((band.M_lo, band.M_hi),) * n + ((band.m_lo, band.m_hi),) * n
            draws = [_draw_matrix(d, lo, hi, rng, pin_extremes) for lo, hi in lohi]
            drawn.append((n, d, band, draws))
        except _SAMPLING_ERRORS as exc:
            drawn.append(exc)
    try:
        mats = _factor([m for x in drawn if not isinstance(x, Exception) for m in x[3]])
    except _SAMPLING_ERRORS:
        return [x if isinstance(x, Exception) else _assemble(*x) for x in drawn]
    out, k = [], 0
    for x in drawn:
        if isinstance(x, Exception):
            out.append(x)
            continue
        count = len(x[3])
        out.append(_assemble(*x, mats[k : k + count]))
        k += count
    return out


#: Relative slack on each band edge in ``validate_band_containment``.
BAND_REL_SLACK = 1e-10


def validate_band_containment(inst: FamilyInstance):
    """Check every family spectrum against the band (hypothesis error if not)."""
    b = inst.band
    for label, mats, lo, hi in (
        ("A", inst.A_list, b.M_lo, b.M_hi),
        ("B", inst.B_list, b.m_lo, b.m_hi),
    ):
        for j, m in enumerate(mats):
            w = sym_eigen(m).eigenvalues
            if w[0] < lo * (1 - BAND_REL_SLACK) or w[-1] > hi * (1 + BAND_REL_SLACK):
                raise HypothesisError(
                    f"{label}_{j + 1} spectrum [{w[0]:.6g}, {w[-1]:.6g}] violates "
                    f"the band [{lo}, {hi}]"
                )
