"""Dense real symmetric matrix algebra.

A deterministic eigendecomposition (LAPACK's symmetric solver through
``numpy.linalg.eigh``, with a fixed order and sign convention), spectral
powers, Kronecker and Hadamard products, the compression that maps a tensor
product onto the Hadamard product, weighted geometric means in congruence
form, and signed Loewner-gap measurement.  README ("Eigensolver and
benchmarks", "Stacked evaluation") describes the conventions and the
stacked forms (``sym_eigen_stack``, ``spectral_pow_stack``,
``kron_arrays``, ``MeanPath.stack``, ``MeanPath.sums``, ``loewner_gaps``),
which read the spectra and entries of many matrices through ``_gather``,
one ``take`` per source stack.  The evaluation stage calls the mean-path
kernels (``_mean_base``, ``_mean_sums``) on arrays it reads itself.  A
stacked call gives each item the bits of its one-item case on the
installed build, and returns all its results or raises the error of its
first failing item.  Arithmetic that overflows is
rejected by one finiteness check after it (``_finite``), without a NumPy
warning first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Sequence

import numpy as np

from .errors import DomainError, ShapeError, SizeError

_new = object.__new__

#: Eigenvalues below this floor disqualify a matrix from fractional powers
#: and geometric means.  Inputs are rejected, never regularized: silently
#: shifting a spectrum could mask a genuine inequality violation.
EIG_FLOOR = 1e-12

#: Dimension cap for the eigensolver (and hence for every spectral function).
MAX_EIGEN_DIM = 64

#: Dimension cap for Kronecker products.
KRON_DIM_CAP = 4096

#: Default tolerance for Loewner-order verdicts (relative gap).
DEFAULT_TOL = 1e-9


class _SymSlots:
    """The slots of a ``SymMatrix``, which ``SymMatrix._of`` fills by plain
    stores before it makes the instance a ``SymMatrix``."""

    #: ``_stack`` and ``_row`` are the read-only ``(entries, eigenvalues,
    #: eigenvectors)`` of the ``SymMatrix.stack`` call that built a matrix
    #: and its row in them, None for any other matrix; they are not
    #: dataclass fields.
    __slots__ = ("array", "_stack", "_row")


@dataclass(frozen=True, eq=False)
class SymMatrix(_SymSlots):
    """Real symmetric matrix with value semantics.

    Every instance holds a private, read-only, finite ``float64`` array with
    ``entries[i][j] == entries[j][i]`` bitwise.  Two routes establish that
    invariant.  The public constructor and ``stack`` symmetrize their input
    exactly, ``(X + X^T) / 2``, and reject non-finite results (including
    overflow of the sum).  Operations whose fresh result is already
    symmetric bit for bit (``+``, ``-``, scalar ``*``, ``kron``,
    ``hadamard``, ``compress``) use the private ``_exact``, which checks
    finiteness only: on such an array the symmetrization is a bitwise no-op.

    Equality compares entries exactly; instances are not hashable.  A
    matrix built by ``stack`` also holds a reference to its stack's arrays
    and its row there, outside the dataclass fields, so equality and
    ``repr`` ignore them.  Nothing is written to an instance after its
    constructor returns.  Instances have slots, not a ``__dict__``; copies
    and pickles carry all three slots, with the arrays read-only.
    ``_exact`` and ``stack`` build their instances through ``_of``, which
    skips the frozen dataclass's per-slot ``object.__setattr__``.
    """

    __slots__ = ()

    array: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.array, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ShapeError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ShapeError("dimension must be at least 1")
        self._fill(_symmetrized(arr))

    def _fill(self, array: np.ndarray, stack: tuple | None = None, row: int | None = None):
        """Set the three slots of an instance that the dataclass machinery
        made (``__init__``, ``copy``, ``pickle``)."""
        object.__setattr__(self, "array", array)
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "_row", row)

    def __getstate__(self):
        return self.array, self._stack, self._row

    def __setstate__(self, state):
        # A deep copy or an unpickled array is writeable; make it read-only.
        for x in (state[0], *(state[1] or ())):
            x.flags.writeable = False
        self._fill(*state)

    @classmethod
    def _exact(cls, arr: np.ndarray) -> "SymMatrix":
        """Wrap a fresh square ``float64`` array that is symmetric bit for bit.

        The caller owns ``arr`` and guarantees its shape and exact symmetry;
        only finiteness is checked here.
        """
        _finite(arr)
        arr.flags.writeable = False
        return SymMatrix._of(arr, None, None)

    @classmethod
    def stack(cls, arrays: np.ndarray) -> list["SymMatrix"]:
        """``[SymMatrix(x) for x in arrays]`` for a ``(k, d, d)`` stack, built
        in one pass: the same exact symmetrisation and finiteness check, run
        once on the whole stack, and one decomposition of the stack, which
        the one caller, the sampler, needs whole.  Each instance holds a view
        of the shared entries and refers to the stack's arrays and its row.
        """
        arr = np.asarray(arrays, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ShapeError(f"expected a stack of square matrices, got shape {arr.shape}")
        if arr.shape[1] < 1:
            raise ShapeError("dimension must be at least 1")
        sym = _symmetrized(arr)
        stack = (sym, *_eigh_stack(sym))
        return list(map(SymMatrix._of, sym, repeat(stack), range(len(sym))))

    @staticmethod
    def _of(array: np.ndarray, stack: tuple | None, row: int | None) -> "SymMatrix":
        """The ``SymMatrix`` of an array that its caller checked, with its
        stack and row: a bare ``_SymSlots`` filled by plain slot stores,
        then given the class ``SymMatrix`` (the two have the same slots),
        the trick ``scalarcore.ScalarParams`` uses."""
        m = _new(_SymSlots)
        m.array = array
        m._stack = stack
        m._row = row
        m.__class__ = SymMatrix
        return m

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.array, other.array)

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    @staticmethod
    def identity(dim: int) -> "SymMatrix":
        return SymMatrix(np.eye(dim))

    @staticmethod
    def zero(dim: int) -> "SymMatrix":
        return SymMatrix(np.zeros((dim, dim)))

    @staticmethod
    def diagonal(values: Sequence[float]) -> "SymMatrix":
        return SymMatrix(np.diag(np.asarray(values, dtype=np.float64)))

    def is_diagonal(self) -> bool:
        off = self.array - np.diag(np.diagonal(self.array))
        return not np.any(off)

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        self._check_same_dim(other)
        with np.errstate(over="ignore", invalid="ignore"):
            return SymMatrix._exact(self.array + other.array)

    def __sub__(self, other: "SymMatrix") -> "SymMatrix":
        self._check_same_dim(other)
        with np.errstate(over="ignore", invalid="ignore"):
            return SymMatrix._exact(self.array - other.array)

    def __mul__(self, scalar: float) -> "SymMatrix":
        with np.errstate(over="ignore", invalid="ignore"):
            return SymMatrix._exact(self.array * float(scalar))

    __rmul__ = __mul__

    def _check_same_dim(self, other: "SymMatrix"):
        if self.dim != other.dim:
            raise ShapeError(f"dimension mismatch: {self.dim} vs {other.dim}")


def _symmetrized(arr: np.ndarray) -> np.ndarray:
    """``(X + X^T) / 2`` of every matrix ``X`` of ``arr`` (its last two
    axes), exactly, as a fresh read-only array; entries that are not finite
    raise ``DomainError``."""
    with np.errstate(over="ignore", invalid="ignore"):
        sym = _finite((arr + np.swapaxes(arr, -1, -2)) / 2.0)
    sym.flags.writeable = False
    return sym


def _finite(x: np.ndarray) -> np.ndarray:
    """``x``, if every entry is finite; else ``DomainError``.

    This is the one finiteness check of the matrix arithmetic.  The
    arithmetic before it runs under ``np.errstate(over="ignore",
    invalid="ignore")``: an entry that overflows, or a product or sum of
    entries that are not finite, leaves an entry that is not finite, which
    this check rejects, so NumPy need not warn first.
    """
    if not np.isfinite(x).all():
        raise DomainError("matrix entries must be finite")
    return x


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (ascending) and the matching orthogonal eigenvector matrix.

    Column ``k`` of ``eigenvectors`` pairs with ``eigenvalues[k]``; each
    column's first nonzero component is positive, so the decomposition is a
    deterministic function of the input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        q = self.eigenvectors
        return (q * self.eigenvalues) @ q.T


@dataclass(frozen=True)
class LoewnerGap:
    """Signed gap of ``LHS <= RHS`` in the Loewner order.

    ``min_eig`` is the smallest eigenvalue of ``RHS - LHS``;
    ``rel_gap = min_eig / max(1, ||RHS||_2)``; ``satisfied`` iff
    ``rel_gap >= -tol`` for the tolerance supplied at evaluation.
    """

    min_eig: float
    rel_gap: float
    satisfied: bool

    @staticmethod
    def _of(min_eig: float, rel_gap: float, satisfied: bool) -> "LoewnerGap":
        """``LoewnerGap(min_eig, rel_gap, satisfied)`` with its ``__dict__``
        filled in field order by plain stores, not the frozen dataclass's
        per-field ``object.__setattr__``: an equal instance."""
        gap = _new(LoewnerGap)
        fields = gap.__dict__
        fields["min_eig"] = min_eig
        fields["rel_gap"] = rel_gap
        fields["satisfied"] = satisfied
        return gap


def sym_eigen(a: SymMatrix) -> EigenDecomposition:
    """Full eigendecomposition by LAPACK's symmetric solver (``numpy.linalg.eigh``).

    Eigenvalues come back ascending; each eigenvector column is signed so
    that its first nonzero component is positive.  Deterministic for fixed
    input on a fixed NumPy/LAPACK build.  Raises :class:`SizeError` above
    ``MAX_EIGEN_DIM`` and ``numpy.linalg.LinAlgError`` if LAPACK fails to
    converge, which does not happen for finite input in practice.  README
    describes the 1x1 shortcut and the exact sign flip.

    The one-matrix case of :func:`sym_eigen_stack`: a matrix built by
    ``SymMatrix.stack`` gives a copy of its row of its stack's arrays, any
    other is decomposed, as a new ``EigenDecomposition`` on each call;
    nothing is stored.
    """
    return sym_eigen_stack((a,))[0]


def sym_eigen_stack(mats: Sequence[SymMatrix]) -> list[EigenDecomposition]:
    """``[sym_eigen(m) for m in mats]`` for equal-dimension matrices, read
    together (``_gather``): with one ``take`` per source stack, and one
    LAPACK call for the matrices that no ``SymMatrix.stack`` built.  The
    symmetric solver treats every matrix of a stack alone, so each result is
    bit-identical to the one-matrix call on the installed NumPy/LAPACK build
    (``tests/test_sampler.py`` checks that).
    """
    w, q = _gather(mats, "wq")
    w.flags.writeable = q.flags.writeable = False
    return list(map(EigenDecomposition, w, q))


def _gather(mats: Sequence[SymMatrix], parts: str) -> list[np.ndarray]:
    """The entries ``x`` ``(k, d, d)``, eigenvalues ``w`` ``(k, d)`` or
    eigenvectors ``q`` ``(k, d, d)`` of ``k`` equal-dimension matrices, one
    array for each letter of ``parts``, row ``r`` for ``mats[r]``.

    Matrices built by ``SymMatrix.stack`` are read from their stacks' arrays
    with one ``take`` per source stack and part; the others are stacked and
    decomposed by one ``_eigh_stack`` call; no matrices give empty arrays.
    Nothing is stored.
    """
    keys = ["xwq".index(p) for p in parts]
    if not mats:
        return [np.empty((0, 0) if i == 1 else (0, 0, 0)) for i in keys]
    stack = mats[0]._stack
    if stack is not None and all(m._stack is stack for m in mats):
        rows = [m._row for m in mats]
        return [stack[i].take(rows, axis=0) for i in keys]
    d = mats[0].dim
    sources: dict = {}  # id of a stack, or of None -> (its arrays, rows, places in mats)
    for r, m in enumerate(mats):
        if m.dim != d:
            raise ShapeError(f"dimension mismatch: {d} vs {m.dim}")
        src = sources.setdefault(id(m._stack), (m._stack, [], []))
        src[1].append(m._row)
        src[2].append(r)
    if id(None) in sources:
        places = sources.pop(id(None))[2]
        x = np.stack([mats[r].array for r in places])
        sources[None] = ((x, *_eigh_stack(x)), slice(None), places)
    out = []
    for i in keys:
        part = np.empty((len(mats), d) if i == 1 else (len(mats), d, d))
        for arrays, rows, places in sources.values():
            part[places] = arrays[i][rows]
        out.append(part)
    return out


def _eigh_stack(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenvalues ``(k, d)`` and signed eigenvectors ``(k, d, d)``
    of a ``(k, d, d)`` stack of symmetric matrices, by the ``sym_eigen``
    rules: 1x1 inputs in closed form, every eigenvector column signed so its
    first nonzero entry is positive."""
    d = arr.shape[-1]
    if d > MAX_EIGEN_DIM:
        raise SizeError(f"eigensolver supports dim <= {MAX_EIGEN_DIM}, got {d}")
    if d == 1:
        w, q = arr[:, 0].copy(), np.ones_like(arr)
    else:
        w, q = np.linalg.eigh(arr)
        lead = q[..., 0, :]
        if not lead.all():
            # Diagonal and block inputs: find each column's first nonzero.
            first = np.argmax(q != 0.0, axis=-2)
            lead = np.take_along_axis(q, first[..., None, :], axis=-2)[..., 0, :]
        q *= np.where(lead < 0.0, -1.0, 1.0)[..., None, :]
    w.flags.writeable = False
    q.flags.writeable = False
    return w, q


def spectral_pow(a: SymMatrix, p: float) -> SymMatrix:
    """Spectral power ``a^p`` through the eigendecomposition.

    Nonnegative integer powers are defined for any symmetric matrix; every
    other exponent requires all eigenvalues ``>= EIG_FLOOR``.  This is the
    one-matrix case of :func:`spectral_pow_stack`.
    """
    return SymMatrix._exact(spectral_pow_stack((a,), (0,), (p,))[0])


def spectral_pow_stack(
    mats: Sequence[SymMatrix], which: Sequence[int], ps: Sequence[float]
) -> np.ndarray:
    """``spectral_pow(mats[i], p)`` for each ``i, p`` of ``zip(which, ps)``,
    for matrices of one dimension, computed together.

    Returns a ``(k, d, d)`` array whose matrix ``r`` holds the entries of
    request ``r``, or raises the ``DomainError`` of the first failing
    request, in request order: an eigenvalue below the floor, or entries
    that are not finite.  The requests of each exponent share one
    ``np.power`` (``_powers``), and every request is rebuilt,
    ``(q * w^p) q^T``, symmetrized exactly and checked for finiteness in
    one stacked step, without a NumPy warning.  Each matrix is the
    one-request result bit for bit on the installed build
    (``tests/test_inequalities.py`` checks that).
    """
    which = np.asarray(which, dtype=np.intp)
    w, q = (part[which] for part in _gather(mats, "wq"))
    if not len(which):
        return q  # no requests: an empty (0, d, d) stack
    exps = np.array(ps, dtype=np.float64)
    # A power below the floor is never returned.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        powered = _powers(w, exps)
        x = (q * powered[:, None, :]) @ q.transpose(0, 2, 1)
        x = (x + x.transpose(0, 2, 1)) / 2.0
    below = (w[:, 0] < EIG_FLOOR) & ~((exps >= 0.0) & (exps == np.floor(exps)))
    bad = below | ~np.isfinite(x).all(axis=(1, 2))
    if bad.any():
        r = int(np.argmax(bad))
        if below[r]:
            raise DomainError(
                f"spectral power {float(ps[r])} requires eigenvalues >= {EIG_FLOOR:g}; "
                f"smallest is {w[r, 0]:.6e}"
            )
        _finite(x[r])
    return x


def _powers(w: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """``w[r] ** exps[r]`` for each entry or row ``r`` of ``w``, with one
    ``np.power`` per distinct exponent over all its entries or rows, the
    exponent always a Python-float scalar (an array of exponents may take
    another code path, see ``docs/rng.md``)."""
    # Equal exponents become contiguous; each value is raised alone, so the
    # order within a run, which an unstable sort leaves open, moves no bit.
    order = np.argsort(exps)
    ranked, ranked_w = exps[order], w[order]
    cuts = [0, *(np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist(), len(ranked)]
    out = np.empty_like(w)
    if len(ranked):
        out[order] = np.concatenate([
            np.power(ranked_w[lo:hi], p) for lo, hi, p in zip(cuts, cuts[1:], ranked[cuts[:-1]].tolist())
        ])
    return out


def spectral_norm(a: SymMatrix) -> float:
    """Operator 2-norm, i.e. the largest eigenvalue magnitude."""
    w = sym_eigen(a).eigenvalues
    return float(max(abs(w[0]), abs(w[-1])))


def kron(a: SymMatrix, b: SymMatrix) -> SymMatrix:
    """Kronecker (tensor) product; block ``(i, j)`` equals ``a[i, j] * b``."""
    out_dim = a.dim * b.dim
    if out_dim > KRON_DIM_CAP:
        raise SizeError(
            f"Kronecker product dimension {out_dim} exceeds cap {KRON_DIM_CAP}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        return SymMatrix._exact(kron_arrays(a.array, b.array))


def kron_arrays(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kronecker products of two stacks of square matrices, ``(..., d, d)``
    and ``(..., e, e)`` with equal leading shapes, as a ``(..., d*e, d*e)``
    stack.  Entry ``(i*e + k, j*e + l)`` is the one product
    ``x[i, j] * y[k, l]``, as in ``np.kron``, without ``np.kron``'s per-call
    shape handling."""
    *lead, d, _ = x.shape
    e = y.shape[-1]
    return (x[..., :, None, :, None] * y[..., None, :, None, :]).reshape(*lead, d * e, d * e)


def hadamard(a: SymMatrix, b: SymMatrix) -> SymMatrix:
    """Entrywise (Hadamard) product of equal-dimension matrices."""
    if a.dim != b.dim:
        raise ShapeError(f"dimension mismatch: {a.dim} vs {b.dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        return SymMatrix._exact(a.array * b.array)


def compress(t: SymMatrix, d: int) -> SymMatrix:
    """Compress a ``d*d``-dimensional tensor product onto its Hadamard image.

    Picks ``result[i][j] = t[i*d + i][j*d + j]``, the congruence by the
    isometry sending the j-th basis vector to its tensor square; applied to
    ``kron(a, b)`` it returns ``hadamard(a, b)`` bit-exactly.
    """
    if d < 1 or t.dim != d * d:
        raise ShapeError(f"dimension {t.dim} is not the perfect square of {d}")
    idx = np.arange(d) * (d + 1)
    return SymMatrix._exact(t.array[np.ix_(idx, idx)])


class MeanPath:
    """Weighted geometric means of equal-dimension positive-definite pairs
    ``(a_j, b_j)``, and their sums.

    Factors the congruence ``a^(1/2) (a^(-1/2) b a^(-1/2))^alpha a^(1/2)``
    of every pair once, so that repeated weights reuse the factorization:
    ``at(alpha)`` is ``sum_j a_j #_alpha b_j``, one mean for one pair.
    ``stack`` factors the pairs of many paths together, with one stacked
    call per dimension; ``MeanPath(a, b)`` is its one-item case.  ``sums``
    computes many ``at`` requests together.  A path holds its row range in
    the base arrays its ``stack`` call computed for the whole dimension.
    """

    __slots__ = ("_base", "_rows")

    def __init__(self, a: Sequence[SymMatrix], b: Sequence[SymMatrix]):
        (path,) = MeanPath.stack([(a, b)])
        self._base, self._rows = path._base, path._rows

    @classmethod
    def stack(cls, groups: Sequence[tuple]) -> list["MeanPath"]:
        """``[MeanPath(a, b) for a, b in groups]``, factored together.

        The pairs of all groups of one dimension share one read of their
        spectra (``_gather``) and one ``_mean_base`` call; each result is
        the one a one-pair path computes, bit for bit.  A pair that cannot
        be factored raises ``DomainError`` (the first such pair of the first
        dimension that has one), where each pair checks ``a``, then ``b``,
        then the inner operand.  A ``ShapeError`` (pairs that do not
        match), ``SizeError`` or ``LinAlgError`` propagates.
        """
        groups = [(tuple(a), tuple(b)) for a, b in groups]
        by_dim: dict[int, list[int]] = {}
        for g, (a, b) in enumerate(groups):
            by_dim.setdefault(_require_pairs(a, b), []).append(g)
        out = [None] * len(groups)
        for gs in by_dim.values():
            wa, qa = _gather([m for g in gs for m in groups[g][0]], "wq")
            wb, xb = _gather([m for g in gs for m in groups[g][1]], "wx")
            base = _mean_base(wa, qa, wb[:, 0], xb)
            rows = [0, *accumulate(len(groups[g][0]) for g in gs)]
            for g, lo, hi in zip(gs, rows, rows[1:]):
                path = out[g] = object.__new__(cls)
                path._base, path._rows = base, range(lo, hi)
        return out

    def at(self, alpha: float) -> SymMatrix:
        """``sum_j a_j #_alpha b_j``, the means summed left to right; the
        one-request case of :meth:`sums`."""
        (total,) = MeanPath.sums([([self], [[alpha]])])
        return SymMatrix._exact(total[0, 0])

    @staticmethod
    def sums(items: Sequence[tuple]) -> list[np.ndarray]:
        """The mean sums of each item ``(paths, weights)``: ``paths`` holds
        ``k >= 1`` paths of one ``stack`` call and dimension ``d``, and
        ``weights`` is an ``(m, k)`` array whose row ``i`` gives each path a
        weight.  Returns one ``(m, k, d, d)`` stack per item, whose matrix
        ``[i, r]`` is ``paths[r].at(weights[i, r])``.

        A weight outside [0, 1] (the first, in item, row and path order), or
        a sum that is not finite, raises ``DomainError`` for the whole call;
        paths of two ``stack`` calls or dimensions in one item raise
        ``ShapeError``.  Each item's row index into its paths' base arrays
        is built once, from each path's first row and size, for all its
        weights, and ``_mean_sums`` computes every request of the call
        together.
        """
        blocks = []
        for paths, weights in items:
            weights = _mean_weights(weights)
            base = paths[0]._base
            if any(p._base is not base for p in paths):
                raise ShapeError("the paths of one item must come from one MeanPath.stack call and dimension")
            k, m = len(paths), len(weights)
            starts = np.fromiter((p._rows.start for p in paths), np.intp, k)
            sizes = np.fromiter((len(p._rows) for p in paths), np.intp, k)
            sizes = np.tile(sizes, m)
            blocks.append((base, _runs(np.tile(starts, m), sizes), sizes, weights.ravel()))
        return [totals.reshape(len(w), len(p), *totals.shape[1:])
                for (p, w), totals in zip(items, _mean_sums(blocks))]


def _mean_weights(weights) -> np.ndarray:
    """``weights`` as a ``float64`` array, or the ``DomainError`` of its
    first weight outside [0, 1]."""
    weights = np.asarray(weights, dtype=np.float64)
    bad = ~((weights >= 0.0) & (weights <= 1.0))
    if bad.any():
        raise DomainError(f"mean weight must lie in [0, 1], got {float(weights.flat[np.argmax(bad)])}")
    return weights


def _runs(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``start, start + 1, ..., start + size - 1`` for each ``start, size``
    of ``zip(starts, sizes)``, concatenated, as one ``intp`` array."""
    return np.repeat(starts - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum(), dtype=np.intp)


def _mean_base(wa: np.ndarray, qa: np.ndarray, wb: np.ndarray, xb: np.ndarray) -> tuple:
    """The base arrays ``(a^(1/2), w, q)`` of the pairs ``(a_j, b_j)`` of
    one dimension, from the eigenvalues ``wa`` and eigenvectors ``qa`` of
    the ``a_j``, the smallest eigenvalue ``wb`` and the entries ``xb`` of
    the ``b_j``: ``w, q`` decompose the inner operand ``a^(-1/2) b
    a^(-1/2)``.  One stacked rebuild of ``a^(+-1/2)``, one stacked inner
    operand with its symmetrisation and one eigendecomposition serve every
    pair; the first pair that cannot be factored raises its
    ``DomainError`` (``_check_pair``)."""
    # Pairs that fail the a or b check get a stand-in spectrum, so the
    # inner operand of every other pair is still checked.
    usable = (wa[:, 0] >= EIG_FLOOR) & (wb >= EIG_FLOOR)
    root = np.sqrt(np.where(usable[:, None], wa, 1.0))
    qt = qa.transpose(0, 2, 1)
    a_half = (qa * root[:, None, :]) @ qt
    a_inv_half = (qa * (1.0 / root)[:, None, :]) @ qt
    with np.errstate(over="ignore", invalid="ignore"):
        inner = a_inv_half @ xb @ a_inv_half
        inner = inner + inner.transpose(0, 2, 1)
    finite = np.isfinite(inner).all(axis=(1, 2))
    w, q = _eigh_stack(np.where(finite[:, None, None], inner, 2.0) / 2.0)
    good = usable & finite & (w[:, 0] > 0.0)
    if not good.all():
        j = int(np.argmin(good))
        _check_pair(wa[j, 0], wb[j], inner[j], w[j, 0])
    return a_half, w, q


def _mean_sums(blocks: Sequence[tuple]) -> list[np.ndarray]:
    """The mean sums of each block ``(base, rows, sizes, weights)``: request
    ``i`` sums the ``sizes[i]`` pairs at the next rows of ``rows`` in the
    ``_mean_base`` arrays ``base``, each at the weight ``weights[i]`` (in
    [0, 1]).  Returns one ``(requests, d, d)`` stack per block.

    The blocks on one base share one stacked chain of products; each
    distinct weight takes one ``np.power`` over the eigenvalues of all its
    requests, of every dimension, flattened (``_powers``); and the requests
    with the same number of pairs are summed left to right together.  A
    sum that is not finite raises ``DomainError``.  Each result is bit for
    bit the one-request result.
    """
    by_base: dict[int, list] = {}  # id of a base -> [base, [rows], [sizes], [weights], [blocks]]
    for b, (base, rows, sizes, weights) in enumerate(blocks):
        got = by_base.setdefault(id(base), [base, [], [], [], []])
        got[1].append(rows)
        got[2].append(sizes)
        got[3].append(weights)
        got[4].append(b)
    merged = [(base, np.concatenate(rows), np.concatenate(sizes), np.concatenate(ws), places)
              for base, rows, sizes, ws, places in by_base.values()]
    # Every dimension's eigenvalues as one flat run, with their weights.
    eigs = [base[1][rows] for base, rows, *_ in merged]
    powered = _powers(
        np.concatenate([w.ravel() for w in eigs] or [[]]),
        np.concatenate([np.repeat(ws, sizes * w.shape[1]) for (_, _, sizes, ws, _), w in zip(merged, eigs)] or [[]]),
    )
    out = [None] * len(blocks)
    at = 0
    for (base, rows, sizes, _, places), w in zip(merged, eigs):
        a_half, q = base[0][rows], base[2][rows]
        p, at = powered[at : at + w.size].reshape(w.shape), at + w.size
        starts = np.cumsum(sizes) - sizes
        with np.errstate(over="ignore", invalid="ignore"):
            means = a_half @ ((q * p[:, None, :]) @ q.transpose(0, 2, 1)) @ a_half
            means = (means + means.transpose(0, 2, 1)) / 2.0
            totals = np.empty((len(sizes), *means.shape[1:]))
            for n in dict.fromkeys(sizes.tolist()):
                ks = np.flatnonzero(sizes == n)
                first = starts[ks]
                total = means[first]
                for j in range(1, n):
                    total = total + means[first + j]
                totals[ks] = total
        _finite(totals)
        lo = 0
        for b in places:
            hi = lo + len(blocks[b][2])
            out[b] = totals[lo:hi]
            lo = hi
    return out


def _check_pair(a_min: float, b_min: float, inner: np.ndarray | None = None, inner_min: float = 1.0):
    """Raise the ``DomainError`` of the first check of one mean-path pair,
    in order, that fails: ``a``, ``b``, then the inner operand's entries
    and positivity.  At their defaults, the inner operand's checks pass."""
    if a_min < EIG_FLOOR:
        raise DomainError(f"left operand is not positive definite (min eigenvalue {a_min:.6e} < {EIG_FLOOR:g})")
    if b_min < EIG_FLOOR:
        raise DomainError(f"right operand is not positive definite (min eigenvalue {b_min:.6e} < {EIG_FLOOR:g})")
    if inner is not None:
        _finite(inner)
    if not inner_min > 0.0:
        raise DomainError(
            "congruence-transformed operand lost positivity "
            f"(min eigenvalue {inner_min:.6e}); inputs are too ill-conditioned"
        )


def _require_pairs(a: Sequence[SymMatrix], b: Sequence[SymMatrix]) -> int:
    """The dimension of the pairs ``zip(a, b)``, or the ``ShapeError`` of
    ``MeanPath(a, b)`` unless they are at least one pair of one dimension."""
    if not a or len(a) != len(b):
        raise ShapeError(f"a mean path needs pairs, got {len(a)} and {len(b)} matrices")
    d = a[0].dim
    for x, y in zip(a, b):
        if x.dim != d or y.dim != d:
            raise ShapeError(f"dimension mismatch: {x.dim} vs {y.dim}")
    return d


def require_positive_pairs(a: Sequence[SymMatrix], b: Sequence[SymMatrix]):
    """Raise the error of ``MeanPath(a, b)`` for sides that are not pairs or
    for the first pair whose ``a`` or ``b`` is not positive definite,
    without factoring any pair: the smallest eigenvalues of each side are
    read together (``_gather``), from their stacks or by one LAPACK call."""
    _require_pairs(a, b)
    a_min, b_min = (_gather(side, "w")[0][:, 0].tolist() for side in (a, b))
    for x, y in zip(a_min, b_min):
        _check_pair(x, y)


def loewner_gap(lhs: SymMatrix, rhs: SymMatrix, tol: float = DEFAULT_TOL) -> LoewnerGap:
    """Measure the signed gap of ``lhs <= rhs`` in the Loewner order; the
    one-link case of :func:`loewner_gaps`."""
    return loewner_gaps([(lhs.array[None], rhs.array[None], [0])], 1, tol)[0][0]


def loewner_gaps(links: Sequence[tuple], owners: int, tol: float = DEFAULT_TOL) -> tuple[list, list, list, list]:
    """The gaps of many links, measured together, and the operand norms of
    each owner's worst link.

    Each item of ``links`` is ``(lhs, rhs, codes)``: two ``(k, D, D)``
    stacks and the owner of each row, a number in ``range(owners)``; an
    owner's links are its rows in the order of ``links``.  Returns
    ``(gaps, worst, lhs_norm, rhs_norm)``: the ``LoewnerGap`` of every
    link, in the order of ``links`` and their rows, and for each owner the
    index among its own links of the first with the smallest ``rel_gap``
    and the spectral norms of that link's operands (0 for a number that
    owns no link).

    Per dimension, every difference ``rhs - lhs`` is formed in one
    subtraction (a difference that is not finite raises ``DomainError``,
    before any decomposition), and the differences and the right sides are
    decomposed with one ``_eigh_stack`` call each.  Each owner's worst link
    is found on the whole table at once (one stable sort by owner, then
    ``rel_gap``), and a left side is decomposed only for its owner's worst
    link.  Each number is the one a one-link call measures, bit for bit.
    """
    by_dim: dict[int, list] = {}  # dimension -> [(lhs, rhs, first place)]
    total = 0
    for lhs, rhs, _ in links:
        if lhs.shape != rhs.shape:
            raise ShapeError(f"dimension mismatch: {lhs.shape[-1]} vs {rhs.shape[-1]}")
        by_dim.setdefault(lhs.shape[-1], []).append((lhs, rhs, total))
        total += len(lhs)
    if not total:
        return [], [0] * owners, [0.0] * owners, [0.0] * owners
    code = np.concatenate([np.asarray(c, dtype=np.intp) for _, _, c in links])
    stacks = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for d, items in by_dim.items():
            lhs = np.concatenate([x for x, _, _ in items])
            rhs = np.concatenate([y for _, y, _ in items])
            places = np.concatenate([np.arange(at, at + len(x)) for x, _, at in items])
            stacks[d] = (lhs, rhs, _finite(rhs - lhs), places)
    min_eig, rel, rhs_norm = np.empty(total), np.empty(total), np.empty(total)
    dim_of, row_of = np.empty(total, dtype=np.intp), np.empty(total, dtype=np.intp)
    for d, (_, rhs, diff, places) in stacks.items():
        norm = _norms(_eigh_stack(rhs)[0])
        low = _eigh_stack(diff)[0][:, 0]
        min_eig[places], rel[places], rhs_norm[places] = low, low / np.maximum(1.0, norm), norm
        dim_of[places], row_of[places] = d, np.arange(len(places))
    gaps = list(map(LoewnerGap._of, min_eig.tolist(), rel.tolist(), (rel >= -tol).tolist()))
    # Each owner's first link of smallest rel_gap leads its run of the
    # stable sort by (owner, rel_gap); its place among the owner's links is
    # its rank in the stable sort by owner less the owner's first rank.
    ranked = np.lexsort((rel, code))
    lead = np.ones(total, dtype=bool)
    lead[1:] = code[ranked[1:]] != code[ranked[:-1]]
    at = ranked[lead]
    of = code[at]
    rank = np.empty(total, dtype=np.intp)
    rank[np.argsort(code, kind="stable")] = np.arange(total)
    counts = np.bincount(code, minlength=owners)
    worst = np.zeros(owners, dtype=np.intp)
    worst[of] = rank[at] - (np.cumsum(counts) - counts)[of]
    lhs_norm, rhs_worst = np.zeros(owners), np.zeros(owners)
    rhs_worst[of] = rhs_norm[at]
    for d, (lhs, *_) in stacks.items():
        mine = dim_of[at] == d
        if mine.any():
            lhs_norm[of[mine]] = _norms(_eigh_stack(lhs[row_of[at[mine]]])[0])
    return gaps, worst.tolist(), lhs_norm.tolist(), rhs_worst.tolist()


def _norms(w: np.ndarray) -> np.ndarray:
    """Spectral norms ``max(|w_0|, |w_-1|)`` of rows of ascending eigenvalues."""
    return np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1]))
