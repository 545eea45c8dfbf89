"""Dense real symmetric matrix algebra.

Everything the inequality registry needs at the matrix level lives here:
a deterministic eigendecomposition (LAPACK's symmetric solver through
``numpy.linalg.eigh``, with a fixed order and sign convention), spectral
functions (fractional powers), Kronecker and Hadamard products, the
compression that maps a tensor product onto the Hadamard product, weighted
geometric means in congruence form, and signed Loewner-gap measurement.

Every operation returns the same result for the same input.  The one piece
of state is a memo: ``sym_eigen`` stores the read-only decomposition it
computes on the ``SymMatrix`` it was given, and later calls on that instance
return it.  A ``SymMatrix`` never changes after construction and the solver
is deterministic, so a stored result is bit-identical to a recomputed one.

The lab's matrices are small (d <= 16, mostly d <= 4), where the Python-level
cost of a call outweighs LAPACK's work.  Four shortcuts keep that cost down,
each bit-identical to the general route: ``sym_eigen`` answers 1x1 inputs in
closed form, fixes eigenvector signs with one vector multiply, and results
that are symmetric bit for bit by construction (sums, differences, scalings,
Kronecker and Hadamard products, compressions) skip re-symmetrisation.
``SymMatrix.stack`` and ``sym_eigen_stack`` build and decompose many
equal-dimension matrices with one call each; the sampler uses them for the
matrices it draws, and ``tests/test_sampler.py`` checks that they match the
one-matrix calls bit for bit on the installed build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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
        shared result array.
        """
        arr = np.asarray(arrays, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ShapeError(f"expected a stack of square matrices, got shape {arr.shape}")
        if arr.shape[1] < 1:
            raise ShapeError("dimension must be at least 1")
        sym = (arr + arr.transpose(0, 2, 1)) / 2.0
        if not np.isfinite(sym).all():
            raise DomainError("matrix entries must be finite")
        sym.flags.writeable = False
        out = []
        for x in sym:
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

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        self._check_same_dim(other)
        return SymMatrix._exact(self.array + other.array)

    def __sub__(self, other: "SymMatrix") -> "SymMatrix":
        self._check_same_dim(other)
        return SymMatrix._exact(self.array - other.array)

    def __mul__(self, scalar: float) -> "SymMatrix":
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
    converge, which does not happen for finite input in practice.

    A 1x1 input is answered without LAPACK, as LAPACK's own ``n = 1`` branch
    does: the eigenvalue is the entry (``-0.0`` included) and the
    eigenvector is ``[[1.0]]``.  The signs are fixed by multiplying every
    column by ``+1.0`` or ``-1.0``, which is exact; the leading entry is
    read from the first row unless that row has a zero.

    The result is computed once per ``SymMatrix`` instance: it is stored on
    ``a`` and every later call on ``a`` returns that same read-only object.
    This is the one-matrix case of :func:`sym_eigen_stack`: both run the
    same solver call and sign rule, on a 2-D array here.
    """
    if a._eigen is not None:
        return a._eigen
    d = a.dim
    if d > MAX_EIGEN_DIM:
        raise SizeError(f"eigensolver supports dim <= {MAX_EIGEN_DIM}, got {d}")
    if d == 1:
        w = a.array[0].copy()
        q = np.ones((1, 1))
        w.flags.writeable = False
        q.flags.writeable = False
    else:
        w, q = _signed_eigh(a.array)
    eig = EigenDecomposition(w, q)
    object.__setattr__(a, "_eigen", eig)
    return eig


def sym_eigen_stack(mats: Sequence[SymMatrix]) -> list[EigenDecomposition]:
    """``[sym_eigen(m) for m in mats]`` for equal-dimension matrices, with
    one LAPACK call for all of them.

    Matrices whose decomposition is already stored keep it; the rest are
    stacked, solved by one ``numpy.linalg.eigh`` call, signed by the same
    rule as ``sym_eigen``, and each result is stored on its matrix.  The
    symmetric solver treats every matrix of a stack alone, so each result is
    bit-identical to the one-matrix call on the installed NumPy/LAPACK build
    (``tests/test_sampler.py`` checks that).
    """
    todo = [m for m in mats if m._eigen is None]
    if todo:
        d = todo[0].dim
        for m in todo:
            if m.dim != d:
                raise ShapeError(f"dimension mismatch: {d} vs {m.dim}")
        if d == 1 or d > MAX_EIGEN_DIM:
            for m in todo:
                sym_eigen(m)
        else:
            w, q = _signed_eigh(np.stack([m.array for m in todo]))
            for m, wi, qi in zip(todo, w, q):
                object.__setattr__(m, "_eigen", EigenDecomposition(wi, qi))
    return [m._eigen for m in mats]


def _signed_eigh(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``numpy.linalg.eigh`` of a ``(..., d, d)`` array, ``d >= 2``,
    with every eigenvector column signed so its first nonzero entry is positive."""
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


def _rebuild(eigenvalues: np.ndarray, q: np.ndarray) -> SymMatrix:
    return SymMatrix((q * eigenvalues) @ q.T)


def spectral_pow(a: SymMatrix, p: float) -> SymMatrix:
    """Spectral power ``a^p`` through the eigendecomposition.

    Nonnegative integer powers are defined for any symmetric matrix; every
    other exponent requires all eigenvalues ``>= EIG_FLOOR``.
    """
    p = float(p)
    eig = sym_eigen(a)
    integer_power = p >= 0.0 and p.is_integer()
    if not integer_power and eig.eigenvalues[0] < EIG_FLOOR:
        raise DomainError(
            f"spectral power {p} requires eigenvalues >= {EIG_FLOOR:g}; "
            f"smallest is {eig.eigenvalues[0]:.6e}"
        )
    return _rebuild(np.power(eig.eigenvalues, p), eig.eigenvectors)


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
    return SymMatrix._exact(np.kron(a.array, b.array))


def hadamard(a: SymMatrix, b: SymMatrix) -> SymMatrix:
    """Entrywise (Hadamard) product of equal-dimension matrices."""
    if a.dim != b.dim:
        raise ShapeError(f"dimension mismatch: {a.dim} vs {b.dim}")
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
    """Weighted geometric means of one positive-definite pair.

    Factors the congruence ``a^(1/2) (a^(-1/2) b a^(-1/2))^alpha a^(1/2)`` so
    that repeated weights on the same pair reuse the two eigendecompositions.
    ``geo_mean`` is the one-shot wrapper.
    """

    def __init__(self, a: SymMatrix, b: SymMatrix):
        if a.dim != b.dim:
            raise ShapeError(f"dimension mismatch: {a.dim} vs {b.dim}")
        ea = sym_eigen(a)
        if ea.eigenvalues[0] < EIG_FLOOR:
            raise DomainError(
                f"left operand is not positive definite "
                f"(min eigenvalue {ea.eigenvalues[0]:.6e} < {EIG_FLOOR:g})"
            )
        eb = sym_eigen(b)
        if eb.eigenvalues[0] < EIG_FLOOR:
            raise DomainError(
                f"right operand is not positive definite "
                f"(min eigenvalue {eb.eigenvalues[0]:.6e} < {EIG_FLOOR:g})"
            )
        qa = ea.eigenvectors
        root = np.sqrt(ea.eigenvalues)
        self._a_half = (qa * root) @ qa.T
        a_inv_half = (qa * (1.0 / root)) @ qa.T
        inner = SymMatrix(a_inv_half @ b.array @ a_inv_half)
        self._inner = sym_eigen(inner)
        if self._inner.eigenvalues[0] <= 0.0:
            raise DomainError(
                "congruence-transformed operand lost positivity "
                f"(min eigenvalue {self._inner.eigenvalues[0]:.6e}); "
                "inputs are too ill-conditioned"
            )

    def at(self, alpha: float) -> SymMatrix:
        alpha = float(alpha)
        if not 0.0 <= alpha <= 1.0:
            raise DomainError(f"mean weight must lie in [0, 1], got {alpha}")
        qi = self._inner.eigenvectors
        powered = (qi * np.power(self._inner.eigenvalues, alpha)) @ qi.T
        return SymMatrix(self._a_half @ powered @ self._a_half)


def geo_mean(a: SymMatrix, b: SymMatrix, alpha: float) -> SymMatrix:
    """Weighted geometric mean of positive-definite ``a`` and ``b``.

    Equals ``a^(1-alpha) b^alpha`` for commuting inputs; ``alpha = 1/2`` is
    the metric geometric mean.
    """
    return MeanPath(a, b).at(alpha)


def loewner_gap(lhs: SymMatrix, rhs: SymMatrix, tol: float = DEFAULT_TOL) -> LoewnerGap:
    """Measure the signed gap of ``lhs <= rhs`` in the Loewner order."""
    if lhs.dim != rhs.dim:
        raise ShapeError(f"dimension mismatch: {lhs.dim} vs {rhs.dim}")
    diff = rhs - lhs
    min_eig = float(sym_eigen(diff).eigenvalues[0])
    rel = min_eig / max(1.0, spectral_norm(rhs))
    return LoewnerGap(min_eig=min_eig, rel_gap=rel, satisfied=rel >= -tol)


def sum_matrices(mats: Iterable[SymMatrix]) -> SymMatrix:
    """Sum a non-empty sequence of equal-dimension symmetric matrices."""
    mats = list(mats)
    if not mats:
        raise ShapeError("cannot sum an empty sequence of matrices")
    total = mats[0]
    for m in mats[1:]:
        total = total + m
    return total
