"""Dense real symmetric matrix algebra.

A deterministic eigendecomposition (LAPACK's symmetric solver through
``numpy.linalg.eigh``, with a fixed order and sign convention), spectral
powers, Kronecker and Hadamard products, the compression that maps a tensor
product onto the Hadamard product, weighted geometric means in congruence
form, and signed Loewner-gap measurement.  README ("Eigensolver and
benchmarks", "Stacked evaluation") describes the solver's conventions, the
memo ``sym_eigen`` keeps on each ``SymMatrix``, and the stacked forms:
``sym_eigen_stack``, ``spectral_pow_stack``, ``kron_arrays``,
``MeanPath.stack``, ``MeanPath.sums`` and ``loewner_gaps``, whose
one-item cases are ``sym_eigen``, ``spectral_pow``, ``kron``,
``MeanPath(a, b)``, ``MeanPath.at`` and ``loewner_gap``.  A stacked call
gives each item the bits of a one-item call on the installed build, and
returns all its results or raises the error of its first failing item.
Arithmetic that overflows, stacked or on one matrix, is rejected by a
finiteness check after it, without a NumPy warning first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
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
    invariant.  The public constructor symmetrizes its input exactly,
    ``(X + X^T) / 2``, and rejects non-finite results (including overflow of
    the sum).  Operations whose fresh result is already symmetric bit for bit
    (``+``, ``-``, scalar ``*``, ``kron``, ``hadamard``, ``compress``) use the
    private ``_exact``, which checks finiteness only: on such an array the
    symmetrization is a bitwise no-op.

    Equality compares entries exactly; instances are not hashable.
    ``sym_eigen`` memoises its result on the instance, outside the dataclass
    fields, so equality and ``repr`` ignore it.
    """

    array: np.ndarray

    #: The decomposition ``sym_eigen`` stored on this instance, if any.  Left
    #: unannotated so that it is not a dataclass field.
    _eigen = None

    def __post_init__(self):
        arr = np.asarray(self.array, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ShapeError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ShapeError("dimension must be at least 1")
        # Entries near the float limit overflow when symmetrized; the
        # finiteness check rejects them, so NumPy need not warn first.
        with np.errstate(over="ignore", invalid="ignore"):
            sym = (arr + arr.T) / 2.0
        if not np.isfinite(sym).all():
            raise DomainError("matrix entries must be finite")
        sym.flags.writeable = False
        object.__setattr__(self, "array", sym)

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
        once on the whole stack.  Each instance holds a read-only view of one
        shared result array.  The stack is also decomposed with one call and
        each result stored, as ``sym_eigen_stack`` would: the one caller, the
        sampler, needs every decomposition.
        """
        arr = np.asarray(arrays, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ShapeError(f"expected a stack of square matrices, got shape {arr.shape}")
        if arr.shape[1] < 1:
            raise ShapeError("dimension must be at least 1")
        # Entries near the float limit overflow when symmetrized; the
        # finiteness check rejects them, so NumPy need not warn first.
        with np.errstate(over="ignore", invalid="ignore"):
            sym = (arr + arr.transpose(0, 2, 1)) / 2.0
        if not np.isfinite(sym).all():
            raise DomainError("matrix entries must be finite")
        out = cls._views(sym)
        _store_eigen(out, sym)
        return out

    @classmethod
    def _views(cls, arr: np.ndarray) -> list["SymMatrix"]:
        """One instance per matrix of a fresh ``(k, d, d)`` stack whose
        matrices the caller guarantees finite and symmetric bit for bit; each
        holds a read-only view of ``arr``."""
        arr.flags.writeable = False
        out = []
        for x in arr:
            m = object.__new__(cls)
            object.__setattr__(m, "array", x)
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

    The result is computed once per ``SymMatrix`` instance: it is stored on
    ``a`` and every later call on ``a`` returns that same read-only object.
    This is the one-matrix case of :func:`sym_eigen_stack`.
    """
    if a._eigen is not None:
        return a._eigen
    return sym_eigen_stack((a,))[0]


def sym_eigen_stack(mats: Sequence[SymMatrix]) -> list[EigenDecomposition]:
    """``[sym_eigen(m) for m in mats]`` for equal-dimension matrices, with
    one LAPACK call for all of them.

    Matrices whose decomposition is already stored keep it; the rest (each
    instance once) are stacked, solved by one ``numpy.linalg.eigh`` call and
    signed by the ``sym_eigen`` rule, and each result is stored on its
    matrix.  The symmetric solver treats every matrix of a stack alone, so
    each result is bit-identical to the one-matrix call on the installed
    NumPy/LAPACK build (``tests/test_sampler.py`` checks that).
    """
    todo = list({id(m): m for m in mats if m._eigen is None}.values())
    if todo:
        d = todo[0].dim
        for m in todo:
            if m.dim != d:
                raise ShapeError(f"dimension mismatch: {d} vs {m.dim}")
        _store_eigen(todo, np.stack([m.array for m in todo]))
    return [m._eigen for m in mats]


def _store_eigen(mats: Sequence[SymMatrix], arr: np.ndarray):
    """Decompose the stack ``arr`` of the matrices ``mats`` with one call and
    store each result on its matrix."""
    w, q = _eigh_stack(arr)
    for m, wi, qi in zip(mats, w, q):
        object.__setattr__(m, "_eigen", EigenDecomposition(wi, qi))


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
    return SymMatrix._views(spectral_pow_stack((a,), (0,), (p,)))[0]


def spectral_pow_stack(
    mats: Sequence[SymMatrix], which: Sequence[int], ps: Sequence[float]
) -> np.ndarray:
    """``spectral_pow(mats[i], p)`` for each ``i, p`` of ``zip(which, ps)``,
    for matrices of one dimension, computed together.

    Returns a ``(k, d, d)`` array whose matrix ``r`` holds the entries of
    request ``r``, or raises the ``DomainError`` of the first failing
    request, in request order: an eigenvalue below the floor, or entries
    that are not finite.  The requests of each exponent share one
    ``np.power`` over the stored eigenvalues, with the exponent as a
    Python-float scalar (see ``docs/rng.md``), and every request is rebuilt,
    ``(q * w^p) q^T``, symmetrized exactly and checked for finiteness in
    one stacked step, without a NumPy warning.  Each matrix is the
    one-request result bit for bit on the installed build
    (``tests/test_inequalities.py`` checks that).
    """
    eig = sym_eigen_stack(mats)
    which = np.asarray(which, dtype=np.intp)
    w = np.array([e.eigenvalues for e in eig])[which]
    q = np.array([e.eigenvectors for e in eig])[which]
    exps = np.array(ps, dtype=np.float64)
    order = np.argsort(exps, kind="stable")  # equal exponents become contiguous
    ranked, ranked_w = exps[order], w[order]
    cuts = [0, *(np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist(), len(ranked)]
    ranked = ranked.tolist()
    powered = np.empty_like(w)
    # A power or a rebuild that overflows is rejected by the finiteness
    # check below, and a power below the floor is never returned.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        powered[order] = np.concatenate([
            np.power(ranked_w[lo:hi], ranked[lo]) for lo, hi in zip(cuts, cuts[1:])
        ])
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
    computes many ``at`` requests together.
    """

    __slots__ = ("_a_half", "_w", "_q")

    def __init__(self, a: Sequence[SymMatrix], b: Sequence[SymMatrix]):
        (path,) = MeanPath.stack([(a, b)])
        self._a_half, self._w, self._q = path._a_half, path._w, path._q

    @classmethod
    def stack(cls, groups: Sequence[tuple]) -> list["MeanPath"]:
        """``[MeanPath(a, b) for a, b in groups]``, factored together.

        The pairs of all groups of one dimension share one stacked rebuild
        of ``a^(+-1/2)``, one stacked inner operand ``a^(-1/2) b a^(-1/2)``
        with its symmetrisation, and one eigendecomposition; each result is
        the one a one-pair path computes, bit for bit.  A pair that cannot
        be factored raises ``DomainError`` (the first such pair of the first
        dimension that has one), where each pair checks ``a``, then ``b``,
        then the inner operand.  A
        ``ShapeError`` (pairs that do not match), ``SizeError`` or
        ``LinAlgError`` propagates.
        """
        groups = [(tuple(a), tuple(b)) for a, b in groups]
        by_dim: dict[int, list[int]] = {}
        for g, (a, b) in enumerate(groups):
            if not a or len(a) != len(b):
                raise ShapeError(f"a mean path needs pairs, got {len(a)} and {len(b)} matrices")
            for x, y in zip(a, b):
                if x.dim != y.dim or x.dim != a[0].dim:
                    raise ShapeError(f"dimension mismatch: {x.dim} vs {y.dim}")
            by_dim.setdefault(a[0].dim, []).append(g)
        out = [None] * len(groups)
        for gs in by_dim.values():
            a = [m for g in gs for m in groups[g][0]]
            b = [m for g in gs for m in groups[g][1]]
            ea = sym_eigen_stack(a)
            wa = np.array([e.eigenvalues for e in ea])
            qa = np.array([e.eigenvectors for e in ea])
            wb = np.array([e.eigenvalues[0] for e in sym_eigen_stack(b)])
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
                inner = a_inv_half @ np.array([m.array for m in b]) @ a_inv_half
                inner = inner + inner.transpose(0, 2, 1)
            finite = np.isfinite(inner).all(axis=(1, 2))
            w, q = _eigh_stack(np.where(finite[:, None, None], inner, 2.0) / 2.0)
            good = usable & finite & (w[:, 0] > 0.0)
            if not good.all():
                j = int(np.argmin(good))
                raise DomainError(_pair_failure(wa[j, 0], wb[j], finite[j], w[j, 0]))
            rows = [0, *accumulate(len(groups[g][0]) for g in gs)]
            for g, lo, hi in zip(gs, rows, rows[1:]):
                path = out[g] = object.__new__(cls)
                path._a_half, path._w, path._q = a_half[lo:hi], w[lo:hi], q[lo:hi]
        return out

    def at(self, alpha: float) -> SymMatrix:
        """``sum_j a_j #_alpha b_j``, the means summed left to right; the
        one-request case of :meth:`sums`."""
        ((total, _),) = MeanPath.sums(((self, alpha),))
        return SymMatrix._views(total)[0]

    @staticmethod
    def sums(requests: Sequence[tuple]) -> list[tuple[np.ndarray, list[int]]]:
        """The mean sums of the requests ``(path, alpha)`` as blocks
        ``(total, idx)``: ``total[r]`` is the sum of request ``idx[r]``.

        A weight outside [0, 1], or a sum that is not finite, raises
        ``DomainError`` for the whole call.  The requests of one dimension
        share one stacked chain of products; each distinct weight takes one
        ``np.power`` over the eigenvalues of all its requests, always with
        the weight as a Python-float scalar exponent (an array of exponents
        may take another code path, see ``docs/rng.md``); and the requests
        with the same number of pairs are summed left to right together, as
        one block.  Each result is bit for bit the one-request result.
        """
        blocks = []
        by_dim: dict[int, list[tuple[float, int]]] = {}
        for i, (path, alpha) in enumerate(requests):
            alpha = float(alpha)
            if not 0.0 <= alpha <= 1.0:
                raise DomainError(f"mean weight must lie in [0, 1], got {alpha}")
            by_dim.setdefault(path._w.shape[1], []).append((alpha, i))
        for items in by_dim.values():
            items.sort()  # equal weights become contiguous rows
            paths = [requests[i][0] for _, i in items]
            sizes = [len(p._w) for p in paths]
            rows = [0, *accumulate(sizes)]
            w = np.concatenate([p._w for p in paths])
            cuts = [k for k in range(len(items)) if k == 0 or items[k][0] != items[k - 1][0]]
            cuts.append(len(items))
            powered = np.concatenate([
                np.power(w[rows[lo] : rows[hi]], items[lo][0]) for lo, hi in zip(cuts, cuts[1:])
            ])
            q = np.concatenate([p._q for p in paths])
            a_half = np.concatenate([p._a_half for p in paths])
            by_n: dict[int, list[int]] = {}
            for k, n in enumerate(sizes):
                by_n.setdefault(n, []).append(k)
            # A mean or a sum that overflows is rejected by the finiteness
            # check below, so NumPy need not warn first.
            with np.errstate(over="ignore", invalid="ignore"):
                means = a_half @ ((q * powered[:, None, :]) @ q.transpose(0, 2, 1)) @ a_half
                means = (means + means.transpose(0, 2, 1)) / 2.0
                for n, ks in by_n.items():
                    first = np.array([rows[k] for k in ks])
                    total = means[first]
                    for j in range(1, n):
                        total = total + means[first + j]
                    # A mean that is not finite leaves its sum not finite.
                    if not np.isfinite(total).all():
                        raise DomainError("matrix entries must be finite")
                    blocks.append((total, [items[k][1] for k in ks]))
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
    any pair: the smallest eigenvalues come from each matrix's stored
    decomposition, or from one stacked call per side."""
    a_min = [e.eigenvalues[0] for e in sym_eigen_stack(a)]
    b_min = [e.eigenvalues[0] for e in sym_eigen_stack(b)]
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
