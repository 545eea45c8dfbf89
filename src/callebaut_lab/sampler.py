"""Deterministic sampling of band-constrained SPD families.

Randomness comes from explicit ``(master_seed, stream_id)`` pairs: splitmix64
expands the pair into the state of a xoshiro256** generator, uniform doubles
take the top 53 bits, and Gaussians come from Box-Muller (``docs/rng.md``
gives the bit-level recipe).  A matrix is its drawn spectrum conjugated by a
Haar orthogonal matrix, so band containment holds by construction.

``sample_families`` and ``sample_matrices`` (whose one-item cases are
``sample_family`` and ``spd_in_band``) draw many requests together: their
streams run as NumPy ``uint64`` lanes (``_draw``), and the drawn matrices of
one dimension share one Haar QR (Mezzadri's R-diagonal sign fix, Notices AMS
2007), one rebuild and one eigendecomposition (``_factor``,
``SymMatrix.stack``).  Each new matrix refers to its stack's arrays and its
row, which band validation (``_band_failures``) and
``matcore.MeanPath.stack`` read by index.  README ("Stacked sampling")
describes the stages; ``tests/test_sampler.py`` checks that every stream
gets the numbers ``RngState`` gives it, and every matrix the bits of
per-matrix calls, on the installed build.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .errors import CallebautLabError, DomainError, HypothesisError, ShapeError, SizeError
from .errors import each_alone
from .matcore import MAX_EIGEN_DIM, SymMatrix, _gather

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TWO_PI = 2.0 * math.pi
_EPS = 2.0 ** -53

# The ``uint64`` constants of the lane generator (``_lane_tops``).
_U5, _U7, _U9, _U11, _U19, _U57 = (np.uint64(c) for c in (5, 7, 9, 11, 19, 57))
_SHIFTS = np.array([[17], [45]], dtype=np.uint64)


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

    Equality and ``repr`` compare the fields, and nothing else is stored on
    an instance: each evaluation factors the mean path it needs.
    """

    n: int
    dim: int
    A_list: tuple[SymMatrix, ...]
    B_list: tuple[SymMatrix, ...]
    band: SpectralBand

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
    normal = rng.normal
    return _haar_stack(np.array([normal() for _ in range(d * d)]).reshape(1, d, d))[0]


#: Fewest streams in one draw round that run as NumPy ``uint64`` lanes;
#: below it, each stream's words come from ``RngState.next_u64``.  On a
#: mix of ``falsify`` requests the two cost the same at about 16 streams:
#: at 8 the words took 0.73 ms serially and 0.91 ms as lanes, at 32 they
#: took 3.4 ms and 2.3 ms.
LANE_MIN = 16


class _Plan(NamedTuple):
    """Where each draw of ``m`` matrices of dimension ``d`` sits in a
    stream's words: the word of each uniform, ``(m, d)``; the two words of
    each Box-Muller pair, pair after pair, ``(pairs, 2)``; and the word
    count."""

    uniforms: np.ndarray
    pairs: np.ndarray
    words: int


@functools.cache
def _plan(m: int, d: int, spare: bool) -> _Plan:
    """The ``_Plan`` of ``m`` matrices of dimension ``d`` on a stream that
    enters with (``spare``) or without a cached Gaussian: per matrix, ``d``
    uniforms, then (for ``d >= 2``) ``d*d`` Gaussians, each the cached one
    if there is one and otherwise the first of a new pair."""
    uniforms, pairs, pos = [], [], 0
    for _ in range(m):
        uniforms.append(range(pos, pos + d))
        pos += d
        for _ in range(d * d if d >= 2 else 0):
            if spare:
                spare = False
            else:
                pairs.append((pos, pos + 1))
                pos += 2
                spare = True
    return _Plan(np.array(uniforms, dtype=np.intp),
                 np.array(pairs, dtype=np.intp).reshape(-1, 2), pos)


def _lane_words(state: np.ndarray, counts: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """xoshiro256** on every column of the ``(4, lanes)`` ``uint64`` array
    ``state`` at once, one NumPy lane per column: the first ``max(counts)``
    output words of each lane, as a ``(steps, lanes)`` array, and the state
    of lane ``r`` after its first ``counts[r]`` words, as column ``r`` of a
    ``(4, lanes)`` array.  ``state`` is advanced in place.

    A step is six whole-row operations: ``s2 ^= s0; s3 ^= s1`` as one,
    ``s1 << 17`` and ``s3 << 45`` as one, ``s0 ^= s3; s1 ^= s2`` as one,
    ``s3 >>= 19``, and one XOR of the two shifts into ``s2`` and ``s3`` (the
    halves of a rotation share no bit, so XOR is OR there), after keeping
    ``s1``.  Each output word is scrambled from its kept ``s1`` afterwards,
    in one pass.  Unsigned 64-bit NumPy arithmetic wraps modulo 2^64 as
    ``docs/rng.md`` requires.
    """
    lanes, steps = state.shape[1], max(counts)
    low, high, swapped, odd = state[:2], state[2:], state[3:1:-1], state[1::2]
    s1, s3 = state[1], state[3]
    kept = np.empty((steps, lanes), dtype=np.uint64)
    shifted = np.empty((2, lanes), dtype=np.uint64)
    ends: dict[int, list[int]] = {}
    for r, count in enumerate(counts):
        ends.setdefault(count, []).append(r)
    final = state.copy()
    for k in range(steps):
        kept[k] = s1
        high ^= low
        np.left_shift(odd, _SHIFTS, out=shifted)
        low ^= swapped
        s3 >>= _U19
        high ^= shifted
        done = ends.get(k + 1)
        if done is not None:
            final[:, done] = state[:, done]
    kept *= _U5
    spill = kept >> _U57
    kept <<= _U7
    kept |= spill
    del spill
    kept *= _U9
    return kept, final


def _lane_tops(rngs: Sequence[RngState], counts: Sequence[int]) -> np.ndarray:
    """The top 53 bits ``x >> 11`` of the first ``counts[r]`` words ``x`` of
    stream ``rngs[r]``, as row ``r`` of a ``(len(rngs), max(counts))``
    ``uint64`` array (later entries of a shorter row come from the stream's
    further words), and each stream advanced past its own words: one
    ``_lane_words`` lane per stream."""
    state = np.array([(r._s0, r._s1, r._s2, r._s3) for r in rngs], dtype=np.uint64).T.copy()
    words, final = _lane_words(state, counts)
    for r, s in zip(rngs, final.T.tolist()):
        r._s0, r._s1, r._s2, r._s3 = s
    words >>= _U11
    return words.T


@functools.cache
def _jump_table() -> np.ndarray:
    """T^64, the xoshiro256** state 64 steps on, as a read-only ``(256, 4)``
    ``uint64`` table: row ``b`` is the image of the unit state whose only set
    bit is bit ``b % 64`` of word ``b // 64``.  A step is made of XORs,
    shifts and rotations, so it is linear over GF(2), and the state 64 steps
    after any state is the XOR of the rows of its set bits."""
    b = np.arange(256)
    units = np.zeros((4, 256), dtype=np.uint64)
    units[b // 64, b] = np.left_shift(np.uint64(1), (b % 64).astype(np.uint64))
    table = _lane_words(units, [64] * 256)[1].T.copy()
    table.flags.writeable = False
    return table


def _stream_words(rng: RngState, count: int) -> np.ndarray:
    """The next ``count`` words of ``rng`` as a ``uint64`` array, with
    ``rng`` advanced past them, as ``count`` calls of ``next_u64`` give.

    The stream runs as ``_lane_words`` lanes of 64 consecutive words each:
    lane ``l`` starts at T^(64 l) of the state, one ``_jump_table`` step on
    from lane ``l - 1``, so about ``count / 64`` Python steps of NumPy work
    give the words in stream order.  Every operation is exact integer
    arithmetic."""
    lanes = max(1, -(-count // 64))
    starts = [np.array((rng._s0, rng._s1, rng._s2, rng._s3), dtype=np.uint64)]
    for _ in range(1, lanes):
        bits = np.unpackbits(starts[-1].astype("<u8").view(np.uint8), bitorder="little")
        starts.append(np.bitwise_xor.reduce(_jump_table().compress(bits, axis=0), axis=0))
    counts = [64] * (lanes - 1) + [count - 64 * (lanes - 1)]
    words, final = _lane_words(np.array(starts).T.copy(), counts)
    rng._s0, rng._s1, rng._s2, rng._s3 = final[:, -1].tolist()
    return words.T.ravel()[:count]


def _serial_tops(rngs: Sequence[RngState], counts: Sequence[int]) -> np.ndarray:
    """``_lane_tops`` from ``RngState.next_u64``, one stream at a time;
    entries past a stream's count are zero."""
    width = max(counts)
    tops = []
    for rng, count in zip(rngs, counts):
        nxt = rng.next_u64
        tops.append([nxt() >> 11 for _ in range(count)] + [0] * (width - count))
    return np.array(tops, dtype=np.uint64)


def _check_request(edges, d: int):
    """The checks of one draw request, matrix by matrix, as ``spd_in_band``
    makes them; a repeated band edge gives the same outcome again, so each
    distinct edge is checked once."""
    for lo, hi in dict.fromkeys(edges):
        if not 0.0 < lo <= hi:
            raise DomainError(f"need 0 < lo <= hi, got ({lo}, {hi})")
        _check_dim(d)


def _draw(items) -> list:
    """The draws of each item ``(edges, d, rng, pin_extremes)``, whose matrix
    ``i`` has its spectrum in ``[lo, hi] = edges[i]``.

    Item ``k`` is ``(w, g)``: the spectra ``(m, d)`` of its ``m`` matrices,
    each sorted ascending and, with ``pin_extremes`` and ``d >= 2``, with
    its ends set to ``lo`` and ``hi``; and for ``d >= 2`` their Gaussian
    matrices ``(m, d, d)``, row-major, else None.  A request that fails
    ``_check_request`` draws nothing and carries its error.

    Each stream's words are drawn in the ``docs/rng.md`` order, the cached
    Gaussian carried across its matrices and written back.  Items that
    share a stream run in successive rounds, in item order.  In a round,
    the items with the same matrix count, dimension, pinning and cached
    Gaussian share one ``_Plan`` and are converted together
    (``_draw_round``, whose comments give the exact steps), so every number
    is the one ``RngState.uniform_in`` and ``normal`` give.
    """
    out = [None] * len(items)
    rounds: list[list[int]] = []
    seen: dict[int, int] = {}
    for k, (edges, d, rng, _) in enumerate(items):
        try:
            _check_request(edges, d)
        except _SAMPLING_ERRORS as exc:
            out[k] = exc
            continue
        r = seen[id(rng)] = seen.get(id(rng), -1) + 1
        if r == len(rounds):
            rounds.append([])
        rounds[r].append(k)
    for ks in rounds:
        _draw_round(items, ks, out)
    return out


def _draw_round(items, ks: list[int], out: list):
    """``_draw`` for the items ``ks``, whose streams are distinct; the
    results go into ``out``."""
    groups: dict[tuple, list[int]] = {}
    for k in ks:
        edges, d, rng, pin = items[k]
        key = (len(edges), d, pin and d >= 2, d >= 2 and rng._spare is not None)
        groups.setdefault(key, []).append(k)
    rngs = [items[k][2] for g in groups.values() for k in g]
    counts = [_plan(m, d, spare).words for (m, d, _, spare), g in groups.items() for _ in g]
    top = (_lane_tops if len(rngs) >= LANE_MIN else _serial_tops)(rngs, counts)
    start = 0
    for (m, d, pin, spare), g in groups.items():
        plan = _plan(m, d, spare)
        rows = top[start : start + len(g)]
        start += len(g)
        edges = np.array([items[k][0] for k in g])  # (lanes, m, 2)
        lo = edges[:, :, :1]
        # lo + (hi - lo) * u, with u = top 2^-53 exact (top < 2^53 converts
        # exactly); IEEE products and sums commute, so the in-place order
        # gives the same bits.
        w = rows[:, plan.uniforms] * _EPS
        w *= edges[:, :, 1:] - lo
        w += lo
        w.sort(axis=-1)
        if pin:
            w[:, :, :: d - 1] = edges
        if d == 1:
            for k, wk in zip(g, w):
                out[k] = (wk, None)
            continue
        # Box-Muller for the whole group, in the expressions of
        # RngState.normal: u1 = (top + 1) 2^-53 and u2 = top 2^-53 are exact,
        # log, cos and sin are math's, one value at a time, and the
        # arithmetic and the correctly rounded square root are elementwise.
        z = rows[:, plan.pairs].reshape(-1, 2).astype(np.float64)
        z[:, 0] += 1.0
        z *= _EPS
        size = len(z)
        radius = np.sqrt(-2.0 * np.fromiter(map(math.log, z[:, 0].tolist()), np.float64, size))
        angle = (_TWO_PI * z[:, 1]).tolist()
        z[:, 0] = radius * np.fromiter(map(math.cos, angle), np.float64, size)
        z[:, 1] = radius * np.fromiter(map(math.sin, angle), np.float64, size)
        z = z.reshape(len(g), -1)
        if spare:
            z = np.concatenate([[[items[k][2]._spare] for k in g], z], axis=1)
        need = m * d * d
        left = z[:, need].tolist() if z.shape[1] > need else [None] * len(g)
        for k, wk, gk, s in zip(g, w, z[:, :need].reshape(len(g), m, d, d), left):
            items[k][2]._spare = s
            out[k] = (wk, gk)


def _factor(draws) -> list[list[SymMatrix]]:
    """The matrices of each ``_draw`` result ``(w, g)``, in order.

    All matrices of one dimension share one Haar QR, one stacked rebuild
    ``(q * w) @ q^T`` and one eigendecomposition, whose arrays each matrix
    refers to, for band validation and ``MeanPath.stack``.
    """
    by_dim: dict[int, list[int]] = {}
    for k, (w, _) in enumerate(draws):
        by_dim.setdefault(w.shape[1], []).append(k)
    out = [None] * len(draws)
    for d, ks in by_dim.items():
        w = np.concatenate([draws[k][0] for k in ks])
        if d == 1:
            mats = SymMatrix.stack(w[:, :, None])
        else:
            q = _haar_stack(np.concatenate([draws[k][1] for k in ks]))
            mats = SymMatrix.stack((q * w[:, None, :]) @ q.transpose(0, 2, 1))
        start = 0
        for k in ks:
            out[k] = mats[start : start + len(draws[k][0])]
            start += len(draws[k][0])
    return out


def spd_in_band(
    d: int, lo: float, hi: float, rng: RngState, pin_extremes: bool = False
) -> SymMatrix:
    """SPD matrix with spectrum inside ``[lo, hi]``.

    Eigenvalues are i.i.d. uniform on the interval (sorted ascending); with
    ``pin_extremes`` and ``d >= 2`` the smallest is set to ``lo`` and the
    largest to ``hi``, which is where Kantorovich-type violations live.
    This is the one-request case of ``sample_matrices``.
    """
    (matrix,) = sample_matrices([(d, lo, hi, rng, pin_extremes)])
    if isinstance(matrix, Exception):
        raise matrix
    return matrix


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


def _family(n: int, d: int, band: SpectralBand, mats):
    """The family of one request's matrices, or the error that building it
    raises."""
    try:
        return FamilyInstance(
            n=n, dim=d, A_list=tuple(mats[:n]), B_list=tuple(mats[n:]), band=band
        )
    except _SAMPLING_ERRORS as exc:
        return exc


def _sample(items) -> list:
    """The matrices of each ``_draw`` item, drawn (``_draw``) and then
    factored (``_factor``) together, or the package error or
    ``numpy.linalg.LinAlgError`` that sampling the item raised; any other
    exception propagates.  If a stacked factor call raises, the items are
    factored again in halves, down to one at a time (``each_alone``), so
    only the failing item carries the error."""
    drawn = _draw(items)
    ok = [k for k, got in enumerate(drawn) if not isinstance(got, Exception)]
    for k, mats in zip(ok, each_alone(_factor, [drawn[k] for k in ok], _SAMPLING_ERRORS)):
        drawn[k] = mats
    return drawn


def sample_families(requests: Sequence[tuple]) -> list:
    """``sample_family(*r)`` for each request ``r = (n, d, band, rng,
    pin_extremes)``, sampled together (``_sample``).

    Every request draws in ``sample_family``'s order on its own generator,
    so no family depends on the others, and the streams of many requests
    run as NumPy lanes; the matrices of all families share one Haar QR and
    one eigendecomposition per dimension.  Item ``i`` is the family of
    request ``i``, or the package error or ``numpy.linalg.LinAlgError``
    that sampling it raised; any other exception propagates.
    """
    items = {}
    for k, (n, d, band, rng, pin_extremes) in enumerate(requests):
        if n >= 1:
            edges = ((band.M_lo, band.M_hi),) * n + ((band.m_lo, band.m_hi),) * n
            items[k] = (edges, d, rng, pin_extremes)
    mats = dict(zip(items, _sample(list(items.values()))))
    out = []
    for k, (n, d, band, _, _) in enumerate(requests):
        # Factored matrices, else the sampling error, else (n < 1) no
        # matrices, which the family rejects.
        got = mats.get(k, ())
        out.append(got if isinstance(got, Exception) else _family(n, d, band, got))
    return out


def sample_matrices(requests: Sequence[tuple]) -> list:
    """``spd_in_band(*r)`` for each request ``r = (d, lo, hi, rng,
    pin_extremes)``, sampled together (``_sample``), as ``sample_families``
    samples families.  Item ``i`` is the matrix of request ``i``, or the
    package error or ``numpy.linalg.LinAlgError`` that sampling it raised;
    any other exception propagates."""
    drawn = _sample([(((lo, hi),), d, rng, pin) for d, lo, hi, rng, pin in requests])
    return [got if isinstance(got, Exception) else got[0] for got in drawn]


#: Relative slack on each band edge in ``validate_band_containment``.
BAND_REL_SLACK = 1e-10


def validate_band_containment(inst: FamilyInstance):
    """Check every family spectrum against the band: ``HypothesisError`` for
    the first matrix outside it, A's first (one-family ``_band_failures``)."""
    (failure,) = _band_failures([inst])
    if failure is not None:
        raise HypothesisError(failure)


def _band_failures(families: Sequence[FamilyInstance]) -> list:
    """The text of the error ``validate_band_containment`` raises for each
    family, or None.  The spectra of each dimension's matrices are read
    together (``matcore._gather``) and checked on one stack."""
    out = [None] * len(families)
    by_dim: dict[int, list[int]] = {}
    for k, f in enumerate(families):
        by_dim.setdefault(f.dim, []).append(k)
    for ks in by_dim.values():
        mats, lo, hi = [], [], []
        for k in ks:
            f, b = families[k], families[k].band
            mats += (*f.A_list, *f.B_list)
            lo += [b.M_lo] * f.n + [b.m_lo] * f.n
            hi += [b.M_hi] * f.n + [b.m_hi] * f.n
        (w,) = _gather(mats, "w")
        bad = (w[:, 0] < np.array(lo) * (1 - BAND_REL_SLACK)) | (w[:, -1] > np.array(hi) * (1 + BAND_REL_SLACK))
        firsts = [0, *accumulate(2 * families[k].n for k in ks)]
        for r in np.flatnonzero(bad).tolist():
            i = bisect_right(firsts, r) - 1
            f, j = families[ks[i]], r - firsts[i]
            if out[ks[i]] is None:
                label = "A" if j < f.n else "B"
                out[ks[i]] = (f"{label}_{j % f.n + 1} spectrum [{w[r, 0]:.6g}, {w[r, -1]:.6g}] "
                              f"violates the band [{lo[r]}, {hi[r]}]")
    return out
