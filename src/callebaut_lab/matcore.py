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
one ``take`` per source stack.  A stacked call gives each item the bits of
its one-item case on the installed build, and returns all its results or
raises the error of its first failing item.  Arithmetic that overflows is
rejected by a finiteness check after it, without a NumPy warning first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Sequence

import numpy as np

from .errors import DomainError, ShapeError, SizeError

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


@dataclass(frozen=True, eq=False)
class SymMatrix:
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
    constructor returns.
    """

    array: np.ndarray

    #: The read-only ``(entries, eigenvalues, eigenvectors)`` of the
    #: ``stack`` call that built this matrix, and its row in them; None for
    #: any other matrix.  Left unannotated so that they are not dataclass
    #: fields.
    _stack = None
    _row = None

    def __post_init__(self):
        arr = np.asarray(self.array, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ShapeError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ShapeError("dimension must be at least 1")
        object.__setattr__(self, "array", _symmetrized(arr))

    @classmethod
    def _exact(cls, arr: np.ndarray) -> "SymMatrix":
        """Wrap a fresh square ``float64`` array that is symmetric bit for bit.

        The caller owns ``arr`` and guarantees its shape and exact symmetry;
        only finiteness is checked here.
        """
        if not np.isfinite(arr).all():
            raise DomainError("matrix entries must be finite")
        arr.flags.writeable = False
        m = object.__new__(cls)
        object.__setattr__(m, "array", arr)
        return m

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
        out = []
        for row, x in enumerate(sym):
            m = object.__new__(cls)
            vars(m).update(array=x, _stack=stack, _row=row)
            out.append(m)
        return out

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

    # Arithmetic that overflows is rejected by ``_exact``'s finiteness
    # check, so NumPy need not warn first.

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
    # Entries near the float limit overflow when symmetrized; the finiteness
    # check rejects them, so NumPy need not warn first.
    with np.errstate(over="ignore", invalid="ignore"):
        sym = (arr + np.swapaxes(arr, -1, -2)) / 2.0
    if not np.isfinite(sym).all():
        raise DomainError("matrix entries must be finite")
    sym.flags.writeable = False
    return sym


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


def sym_eigen(a: SymMatrix) -> EigenDecomposition:
    """Full eigendecomposition by LAPACK's symmetric solver (``numpy.linalg.eigh``).

    Eigenvalues come back ascending; each eigenvector column is signed so
    that its first nonzero component is positive.  Deterministic for fixed
    input on a fixed NumPy/LAPACK build.  Raises :class:`SizeError` above
    ``MAX_EIGEN_DIM`` and ``numpy.linalg.LinAlgError`` if LAPACK fails to
    converge, which does not happen for finite input in practice.  README
    describes the 1x1 shortcut and the exact sign flip.

    A matrix built by ``SymMatrix.stack`` gives its row of its stack's
    arrays, any other is decomposed, as a new ``EigenDecomposition`` on each
    call; nothing is stored.  The one-matrix case of :func:`sym_eigen_stack`.
    """
    if a._stack is not None:
        return EigenDecomposition(a._stack[1][a._row], a._stack[2][a._row])
    return sym_eigen_stack((a,))[0]


def sym_eigen_stack(mats: Sequence[SymMatrix]) -> list[EigenDecomposition]:
    """``[sym_eigen(m) for m in mats]`` for equal-dimension matrices, read
    together (``_gather``): with one ``take`` per source stack, and one
    LAPACK call for the matrices that no ``SymMatrix.stack`` built.  The
    symmetric solver treats every matrix of a stack alone, so each result is
    bit-identical to the one-matrix call on the installed NumPy/LAPACK build
    (``tests/test_sampler.py`` checks that).
    """
    if not mats:
        return []
    w, q = _gather(mats, "wq")
    w.flags.writeable = q.flags.writeable = False
    return list(map(EigenDecomposition, w, q))


def _gather(mats: Sequence[SymMatrix], parts: str) -> list[np.ndarray]:
    """The entries ``x`` ``(k, d, d)``, eigenvalues ``w`` ``(k, d)`` or
    eigenvectors ``q`` ``(k, d, d)`` of ``k`` equal-dimension matrices, one
    array for each letter of ``parts``, row ``r`` for ``mats[r]``.

    Matrices built by ``SymMatrix.stack`` are read from their stacks' arrays
    with one ``take`` per source stack and part; the others are stacked and
    decomposed by one ``_eigh_stack`` call.  Nothing is stored.
    """
    keys = ["xwq".index(p) for p in parts]
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
    exps = np.array(ps, dtype=np.float64)
    # A power or a rebuild that overflows is rejected by the finiteness
    # check below, and a power below the floor is never returned.
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
        raise DomainError("matrix entries must be finite")
    return x


def _powers(w: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """``w[r] ** exps[r]`` for each row ``r`` of ``w``, with one ``np.power``
    per distinct exponent over all its rows, the exponent always a
    Python-float scalar (an array of exponents may take another code path,
    see ``docs/rng.md``)."""
    order = np.argsort(exps, kind="stable")  # equal exponents become contiguous
    ranked, ranked_w = exps[order], w[order]
    cuts = [0, *(np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist(), len(ranked)]
    ranked = ranked.tolist()
    out = np.empty_like(w)
    out[order] = np.concatenate([
        np.power(ranked_w[lo:hi], ranked[lo]) for lo, hi in zip(cuts, cuts[1:])
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
        spectra (``_gather``), one stacked rebuild of ``a^(+-1/2)``, one
        stacked inner operand ``a^(-1/2) b a^(-1/2)`` with its
        symmetrisation, and one eigendecomposition; each result is the one a
        one-pair path computes, bit for bit.  A pair that cannot be factored
        raises ``DomainError`` (the first such pair of the first dimension
        that has one), where each pair checks ``a``, then ``b``, then the
        inner operand.  A ``ShapeError`` (pairs that do not match),
        ``SizeError`` or ``LinAlgError`` propagates.
        """
        groups = [(tuple(a), tuple(b)) for a, b in groups]
        by_dim: dict[int, list[int]] = {}
        for g, (a, b) in enumerate(groups):
            if not a or len(a) != len(b):
                raise ShapeError(f"a mean path needs pairs, got {len(a)} and {len(b)} matrices")
            d = a[0].dim
            for x, y in zip(a, b):
                if x.dim != d or y.dim != d:
                    raise ShapeError(f"dimension mismatch: {x.dim} vs {y.dim}")
            by_dim.setdefault(d, []).append(g)
        out = [None] * len(groups)
        for gs in by_dim.values():
            a = [m for g in gs for m in groups[g][0]]
            b = [m for g in gs for m in groups[g][1]]
            wa, qa = _gather(a, "wq")
            wb, xb = _gather(b, "wx")
            wb = wb[:, 0]
            # Pairs that fail the a or b check get a stand-in spectrum, so the
            # inner operand of every other pair is still checked.
            usable = (wa[:, 0] >= EIG_FLOOR) & (wb >= EIG_FLOOR)
            root = np.sqrt(np.where(usable[:, None], wa, 1.0))
            qt = qa.transpose(0, 2, 1)
            a_half = (qa * root[:, None, :]) @ qt
            a_inv_half = (qa * (1.0 / root)[:, None, :]) @ qt
            # An operand that overflows is rejected by the finiteness check
            # below, so NumPy need not warn first.
            with np.errstate(over="ignore", invalid="ignore"):
                inner = a_inv_half @ xb @ a_inv_half
                inner = inner + inner.transpose(0, 2, 1)
            finite = np.isfinite(inner).all(axis=(1, 2))
            w, q = _eigh_stack(np.where(finite[:, None, None], inner, 2.0) / 2.0)
            good = usable & finite & (w[:, 0] > 0.0)
            if not good.all():
                j = int(np.argmin(good))
                raise DomainError(_pair_failure(wa[j, 0], wb[j], finite[j], w[j, 0]))
            base = (a_half, w, q)
            rows = [0, *accumulate(len(groups[g][0]) for g in gs)]
            for g, lo, hi in zip(gs, rows, rows[1:]):
                path = out[g] = object.__new__(cls)
                path._base, path._rows = base, range(lo, hi)
        return out

    def at(self, alpha: float) -> SymMatrix:
        """``sum_j a_j #_alpha b_j``, the means summed left to right; the
        one-request case of :meth:`sums`."""
        ((total, _),) = MeanPath.sums(((self, alpha),))
        return SymMatrix._exact(total[0])

    @staticmethod
    def sums(requests: Sequence[tuple]) -> list[tuple[np.ndarray, list[int]]]:
        """The mean sums of the requests ``(path, alpha)`` as blocks
        ``(total, idx)``: ``total[r]`` is the sum of request ``idx[r]``.

        A weight outside [0, 1], or a sum that is not finite, raises
        ``DomainError`` for the whole call.  The requests on the paths of one
        ``stack`` call and dimension read their rows of the paths' base
        arrays with one index and share one stacked chain of products; each
        distinct weight takes one ``np.power`` over the eigenvalues of all
        its requests (``_powers``); and the requests with the same number of
        pairs are summed left to right together, as one block.  Each result
        is bit for bit the one-request result.
        """
        by_base: dict[int, tuple] = {}  # id of a base -> (base, weights, rows, requests)
        for i, (path, alpha) in enumerate(requests):
            alpha = float(alpha)
            if not 0.0 <= alpha <= 1.0:
                raise DomainError(f"mean weight must lie in [0, 1], got {alpha}")
            got = by_base.get(id(path._base))
            if got is None:
                got = by_base[id(path._base)] = (path._base, [], [], [])
            got[1].append(alpha)
            got[2].append(path._rows)
            got[3].append(i)
        blocks = []
        for base, alphas, rows, ids in by_base.values():
            idx = np.fromiter(chain.from_iterable(rows), np.intp)
            sizes, ids = np.array(list(map(len, rows))), np.array(ids)
            a_half, w, q = (part[idx] for part in base)
            powered = _powers(w, np.repeat(alphas, sizes))
            starts = np.cumsum(sizes) - sizes
            # A mean or a sum that overflows is rejected by the finiteness
            # check below, so NumPy need not warn first.
            with np.errstate(over="ignore", invalid="ignore"):
                means = a_half @ ((q * powered[:, None, :]) @ q.transpose(0, 2, 1)) @ a_half
                means = (means + means.transpose(0, 2, 1)) / 2.0
                for n in dict.fromkeys(sizes.tolist()):
                    ks = np.flatnonzero(sizes == n)
                    first = starts[ks]
                    total = means[first]
                    for j in range(1, n):
                        total = total + means[first + j]
                    # A mean that is not finite leaves its sum not finite.
                    if not np.isfinite(total).all():
                        raise DomainError("matrix entries must be finite")
                    blocks.append((total, ids[ks].tolist()))
        return blocks


def _pair_failure(a_min: float, b_min: float, finite: bool = True, inner_min: float = 1.0) -> str | None:
    """Why one pair of a mean path cannot be factored, if it cannot: the
    first of its checks, in order, that fails.  At their defaults, the
    inner operand's checks pass."""
    if a_min < EIG_FLOOR:
        return f"left operand is not positive definite (min eigenvalue {a_min:.6e} < {EIG_FLOOR:g})"
    if b_min < EIG_FLOOR:
        return f"right operand is not positive definite (min eigenvalue {b_min:.6e} < {EIG_FLOOR:g})"
    if not finite:
        return "matrix entries must be finite"
    if not inner_min > 0.0:
        return (
            "congruence-transformed operand lost positivity "
            f"(min eigenvalue {inner_min:.6e}); inputs are too ill-conditioned"
        )
    return None


def require_positive_pairs(a: Sequence[SymMatrix], b: Sequence[SymMatrix]):
    """Raise the ``DomainError`` that ``MeanPath(a, b)`` raises for the first
    pair whose ``a`` or ``b`` is not positive definite, without factoring
    any pair: the smallest eigenvalues of each side are read together
    (``_gather``), from their stacks or by one LAPACK call."""
    a_min, b_min = (_gather(side, "w")[0][:, 0].tolist() for side in (a, b))
    for x, y in zip(a_min, b_min):
        failure = _pair_failure(x, y)
        if failure is not None:
            raise DomainError(failure)


def loewner_gap(lhs: SymMatrix, rhs: SymMatrix, tol: float = DEFAULT_TOL) -> LoewnerGap:
    """Measure the signed gap of ``lhs <= rhs`` in the Loewner order; the
    one-link case of :func:`loewner_gaps`."""
    return loewner_gaps([(lhs.array[None], rhs.array[None], [0])], tol)[0][0][0]


def loewner_gaps(links: Sequence[tuple], tol: float = DEFAULT_TOL) -> dict:
    """The gaps of many links, measured together, and the operand norms of
    each owner's worst link.

    Each item of ``links`` is ``(lhs, rhs, owners)``: two ``(k, D, D)``
    stacks and the owner of each row.  An owner's links are its rows in
    the order of ``links``.  Returns ``{owner: (gaps, worst, lhs_norm,
    rhs_norm)}``: the ``LoewnerGap`` of each of its links, the index of
    the first link with the smallest ``rel_gap``, and the spectral norms
    of that link's operands.  Per dimension, every difference ``rhs - lhs``
    is formed in one subtraction (a difference that is not finite raises
    ``DomainError``), and the differences and the right sides are
    decomposed with one ``_eigh_stack`` call each; a left side is
    decomposed only for its owner's worst link.  Each number is the one a
    one-link call measures, bit for bit.
    """
    by_dim: dict[int, list] = {}
    rows: dict = {}  # owner -> [(dimension, row)] of its links, in order
    for lhs, rhs, owners in links:
        if lhs.shape != rhs.shape:
            raise ShapeError(f"dimension mismatch: {lhs.shape[-1]} vs {rhs.shape[-1]}")
        d = lhs.shape[-1]
        items = by_dim.setdefault(d, [])
        first = sum(len(x) for x, _ in items)
        for r, owner in enumerate(owners, first):
            rows.setdefault(owner, []).append((d, r))
        items.append((lhs, rhs))
    lhs = {d: np.concatenate([x[0] for x in items]) for d, items in by_dim.items()}
    rhs = {d: np.concatenate([x[1] for x in items]) for d, items in by_dim.items()}
    # A difference that overflows is rejected by the finiteness check, so
    # NumPy need not warn first.
    with np.errstate(over="ignore", invalid="ignore"):
        diff = {d: rhs[d] - lhs[d] for d in by_dim}
    if not all(np.isfinite(x).all() for x in diff.values()):
        raise DomainError("matrix entries must be finite")
    min_eig, norm, rel, sat = {}, {}, {}, {}
    for d in by_dim:
        rhs_norm = _norms(_eigh_stack(rhs[d])[0])
        low = _eigh_stack(diff[d])[0][:, 0]
        ratio = low / np.maximum(1.0, rhs_norm)
        min_eig[d], rel[d], sat[d], norm[d] = (
            low.tolist(), ratio.tolist(), (ratio >= -tol).tolist(), rhs_norm.tolist())
    worst, wanted = {}, {}
    for owner, at in rows.items():
        gaps = [rel[d][r] for d, r in at]
        worst[owner] = gaps.index(min(gaps))
        wanted.setdefault(at[worst[owner]][0], []).append(owner)
    lhs_norm = {}
    for d, owners in wanted.items():
        w = _eigh_stack(lhs[d][[rows[o][worst[o]][1] for o in owners]])[0]
        lhs_norm.update(zip(owners, _norms(w).tolist()))
    out = {}
    for owner, at in rows.items():
        gaps = tuple(LoewnerGap(min_eig[d][r], rel[d][r], sat[d][r]) for d, r in at)
        d, r = at[worst[owner]]
        out[owner] = (gaps, worst[owner], lhs_norm[owner], norm[d][r])
    return out


def _norms(w: np.ndarray) -> np.ndarray:
    """Spectral norms ``max(|w_0|, |w_-1|)`` of rows of ascending eigenvalues."""
    return np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1]))
