import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from callebaut_lab import matcore
from callebaut_lab.errors import DomainError, ShapeError, SizeError
from callebaut_lab.matcore import (
    EIG_FLOOR,
    MeanPath,
    SymMatrix,
    compress,
    hadamard,
    kron,
    loewner_gap,
    loewner_gaps,
    spectral_norm,
    spectral_pow,
    spectral_pow_stack,
    sym_eigen,
    sym_eigen_stack,
)


def _rand_sym(d, rng):
    x = rng.standard_normal((d, d))
    return SymMatrix(x)


def _rand_spd(d, rng, lo=0.5, hi=3.0):
    w = rng.uniform(lo, hi, d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return SymMatrix((q * w) @ q.T)


def _bits_equal(x, y):
    """Equal shape, dtype and bytes: tells ``-0.0`` from ``0.0``."""
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _attributes(obj):
    """The instance attributes of ``obj``, each by the identity of its value."""
    return {name: id(value) for name, value in vars(obj).items()}


def _reference_eigen(arr):
    """``eigh`` with each column's first nonzero entry found by search and
    negative columns flipped under a mask."""
    w, q = np.linalg.eigh(arr)
    lead = q[np.argmax(q != 0.0, axis=0), np.arange(arr.shape[0])]
    q[:, lead < 0.0] *= -1.0
    return w, q


class TestSymMatrix:
    def test_symmetrized_exactly(self):
        m = SymMatrix(np.array([[1.0, 2.0], [4.0, 3.0]]))
        assert np.array_equal(m.array, m.array.T)
        assert m.array[0, 1] == 3.0

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            SymMatrix(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            SymMatrix(np.array([[np.nan]]))
        # Finite entries whose half-sum overflows must not be stored as inf.
        with np.errstate(over="ignore"), pytest.raises(DomainError):
            SymMatrix(np.array([[1e308, 1e308], [1e308, 1e308]]))

    def test_overflowing_symmetrisation_raises_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite"):
                SymMatrix(np.array([[1e308, 1e308], [1e308, 1e308]]))

    def test_readonly(self):
        m = SymMatrix.identity(2)
        with pytest.raises(ValueError):
            m.array[0, 0] = 5.0

    def test_equality_compares_entries_and_is_unhashable(self):
        assert SymMatrix(np.eye(2)) == SymMatrix(np.eye(2))
        assert not SymMatrix(np.eye(2)) != SymMatrix(np.eye(2))
        assert SymMatrix(np.eye(2)) != SymMatrix.diagonal([1.0, 2.0])
        assert SymMatrix(np.eye(2)) != SymMatrix(np.eye(3))
        assert SymMatrix(np.array([[2.0]])) == SymMatrix(np.array([[2.0]]))
        assert SymMatrix(np.array([[2.0]])) != SymMatrix(np.array([[3.0]]))
        assert SymMatrix(np.eye(2)) != "eye"
        assert SymMatrix(np.eye(2)).__eq__(np.eye(2)) is NotImplemented
        with pytest.raises(TypeError):
            hash(SymMatrix.identity(2))

    def test_equality_ignores_memoised_decomposition(self):
        rng = np.random.default_rng(8)
        # A stacked matrix refers to its stack's arrays, a public one does
        # not; equality and ``repr`` read the entries only.
        (a,) = SymMatrix.stack(rng.standard_normal((1, 3, 3)))
        b = SymMatrix(a.array.copy())
        assert a._stack is not None and b._stack is None
        assert a == b and b == a and repr(a) == repr(b)
        assert a != a * 2.0


class TestSymEigen:
    def test_diagonal_input(self):
        e = sym_eigen(SymMatrix.diagonal([3.0, 1.0]))
        assert np.array_equal(e.eigenvalues, [1.0, 3.0])
        # Axis eigenvectors, sign-fixed positive.
        assert np.array_equal(np.abs(e.eigenvectors), np.eye(2)[:, [1, 0]])
        assert e.eigenvectors[1, 0] == 1.0 and e.eigenvectors[0, 1] == 1.0

    def test_classic_2x2(self):
        e = sym_eigen(SymMatrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
        np.testing.assert_allclose(e.eigenvalues, [1.0, 3.0], atol=1e-14)
        r = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(np.abs(e.eigenvectors), [[r, r], [r, r]], atol=1e-14)
        # first nonzero component of each column is positive
        assert e.eigenvectors[0, 0] > 0 and e.eigenvectors[0, 1] > 0

    def test_reconstruction_random_8x8(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            a = _rand_sym(8, rng)
            e = sym_eigen(a)
            err = np.linalg.norm(e.reconstruct() - a.array)
            assert err <= 1e-10 * max(1.0, np.linalg.norm(a.array))

    def test_orthogonality(self):
        rng = np.random.default_rng(7)
        a = _rand_sym(12, rng)
        q = sym_eigen(a).eigenvectors
        assert np.abs(q.T @ q - np.eye(12)).max() <= 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        a = _rand_sym(6, rng)
        # A fresh instance with equal entries is decomposed anew, bit for bit.
        e1, e2 = sym_eigen(a), sym_eigen(SymMatrix(a.array.copy()))
        assert e1 is not e2
        assert np.array_equal(e1.eigenvalues, e2.eigenvalues)
        assert np.array_equal(e1.eigenvectors, e2.eigenvectors)

    def test_memoised_on_the_instance(self):
        # A matrix built by ``SymMatrix.stack`` reads its decomposition from
        # its stack's arrays, a publicly built one is decomposed on each
        # call: both give the same bits, read-only, and neither is written to.
        rng = np.random.default_rng(4)
        a = _rand_sym(5, rng)
        before, attributes = repr(a), _attributes(a)
        e = sym_eigen(a)
        again = sym_eigen(a)
        assert _bits_equal(again.eigenvalues, e.eigenvalues)
        assert _bits_equal(again.eigenvectors, e.eigenvectors)
        assert repr(a) == before and _attributes(a) == attributes
        assert a._stack is None
        assert not e.eigenvalues.flags.writeable
        assert not e.eigenvectors.flags.writeable
        (s,) = SymMatrix.stack(a.array[None])
        attributes = _attributes(s)
        for got in (sym_eigen(s), sym_eigen(s), *sym_eigen_stack([a, s])):
            assert _bits_equal(got.eigenvalues, e.eigenvalues)
            assert _bits_equal(got.eigenvectors, e.eigenvectors)
            assert not got.eigenvalues.flags.writeable
            assert not got.eigenvectors.flags.writeable
        assert _attributes(s) == attributes

    @pytest.mark.parametrize("x", [0.0, -0.0, 1e-300, 1e300, -2.5, 5e-324])
    def test_1x1_matches_lapack(self, x):
        e = sym_eigen(SymMatrix(np.array([[x]])))
        w, q = np.linalg.eigh(np.array([[x]]))
        assert _bits_equal(e.eigenvalues, w)
        assert _bits_equal(e.eigenvectors, q)
        assert not e.eigenvalues.flags.writeable
        assert not e.eigenvectors.flags.writeable

    def test_sign_convention_matches_search_and_mask(self):
        rng = np.random.default_rng(19)
        inputs = [rng.standard_normal((d, d)) for d in (2, 3, 4, 5, 8, 16) for _ in range(5)]
        inputs += [np.diag(rng.standard_normal(d)) for d in (2, 3, 4)]
        inputs += [np.zeros((d, d)) for d in (2, 3)]
        perm = rng.permutation(4)
        inputs.append(np.diag([4.0, 1.0, 3.0, 2.0])[np.ix_(perm, perm)])
        for _ in range(10):
            # Blocks below a zero-first-row part leave zeros in q's first row.
            blk = rng.standard_normal((3, 3))
            inputs.append(np.block([[np.diag([rng.uniform(1.0, 2.0)]), np.zeros((1, 3))],
                                    [np.zeros((3, 1)), blk + blk.T]]))
            inputs.append(np.block([[blk + blk.T, np.zeros((3, 2))],
                                    [np.zeros((2, 3)), np.diag(rng.uniform(-1.0, 1.0, 2))]]))
        for x in inputs:
            a = SymMatrix(x)
            e = sym_eigen(a)
            w, q = _reference_eigen(a.array)
            assert _bits_equal(e.eigenvalues, w)
            assert _bits_equal(e.eigenvectors, q)

    def test_stack_matches_the_one_matrix_rule(self):
        # Each dimension's matrices in one stack, zero-leading-row cases
        # included; every result is the one-matrix result, bit for bit.
        rng = np.random.default_rng(23)
        for d in (2, 3, 4, 5):
            xs = [rng.standard_normal((d, d)) for _ in range(12)]
            xs += [np.diag(rng.standard_normal(d)), np.zeros((d, d))]
            blk = rng.standard_normal((d - 1, d - 1))
            xs.append(np.block([[np.ones((1, 1)), np.zeros((1, d - 1))],
                                [np.zeros((d - 1, 1)), blk + blk.T]]))
            mats = [SymMatrix(x) for x in xs]
            stacked = sym_eigen_stack(mats)
            for m, e in zip(mats, stacked):
                w, q = _reference_eigen(m.array)
                one = sym_eigen(m)
                assert _bits_equal(one.eigenvalues, e.eigenvalues)
                assert _bits_equal(one.eigenvectors, e.eigenvectors)
                assert _bits_equal(e.eigenvalues, w)
                assert _bits_equal(e.eigenvectors, q)
                assert not e.eigenvalues.flags.writeable
                assert not e.eigenvectors.flags.writeable

    def test_stack_keeps_stored_results(self):
        # Matrices built by ``SymMatrix.stack`` give their rows of their
        # stacks' arrays; the others are decomposed by the ``sym_eigen`` rule.
        rng = np.random.default_rng(24)
        a, b = SymMatrix.stack(rng.standard_normal((2, 3, 3)))
        (d,) = SymMatrix.stack(rng.standard_normal((1, 3, 3)))
        c = _rand_sym(3, rng)
        got = sym_eigen_stack([a, c, d, b])
        for m, e in zip((a, d, b), (got[0], got[2], got[3])):
            w, q = _reference_eigen(m.array)
            assert _bits_equal(e.eigenvalues, w) and _bits_equal(e.eigenvectors, q)
            assert _bits_equal(e.eigenvalues, m._stack[1][m._row])
            assert _bits_equal(e.eigenvectors, m._stack[2][m._row])
        w, q = _reference_eigen(c.array)
        assert _bits_equal(got[1].eigenvalues, w) and _bits_equal(got[1].eigenvectors, q)
        assert c._stack is None
        ones = [SymMatrix(np.array([[x]])) for x in (2.0, -0.0)]
        assert [e.eigenvalues[0] for e in sym_eigen_stack(ones)] == [2.0, -0.0]
        with pytest.raises(ShapeError):
            sym_eigen_stack([_rand_sym(2, rng), _rand_sym(3, rng)])

    def test_stack_constructor_matches_one_by_one(self):
        rng = np.random.default_rng(25)
        xs = rng.standard_normal((6, 4, 4))
        for m, x in zip(SymMatrix.stack(xs), xs):
            assert m == SymMatrix(x) and _bits_equal(m.array, SymMatrix(x).array)
            assert not m.array.flags.writeable
        xs[3, 0, 1] = np.inf
        with pytest.raises(DomainError):
            SymMatrix.stack(xs)
        with pytest.raises(ShapeError):
            SymMatrix.stack(np.ones((2, 3, 4)))

    def test_zero_matrix(self):
        e = sym_eigen(SymMatrix.zero(3))
        assert np.array_equal(e.eigenvalues, np.zeros(3))
        assert np.array_equal(e.eigenvectors, np.eye(3))

    def test_dim_cap(self):
        with pytest.raises(SizeError):
            sym_eigen(SymMatrix(np.eye(65)))


class TestSpectralPow:
    def test_diag_sqrt(self):
        b = spectral_pow(SymMatrix.diagonal([4.0, 9.0]), 0.5)
        np.testing.assert_allclose(b.array, np.diag([2.0, 3.0]), atol=1e-14)

    def test_pow_zero_is_identity(self):
        rng = np.random.default_rng(0)
        a = _rand_spd(5, rng)
        np.testing.assert_allclose(spectral_pow(a, 0).array, np.eye(5), atol=1e-12)

    def test_sqrt_squares_back(self):
        a = SymMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        b = spectral_pow(a, 0.5)
        assert np.linalg.norm(b.array @ b.array - a.array) <= 1e-10

    def test_roundtrip_half_then_two(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = _rand_spd(6, rng)
            back = spectral_pow(spectral_pow(a, 0.5), 2)
            err = np.linalg.norm(back.array - a.array) / np.linalg.norm(a.array)
            assert err <= 1e-9

    def test_integer_power_of_indefinite_ok(self):
        a = SymMatrix.diagonal([-2.0, 3.0])
        np.testing.assert_allclose(spectral_pow(a, 2).array, np.diag([4.0, 9.0]), atol=1e-14)

    def test_fractional_power_rejects_indefinite(self):
        with pytest.raises(DomainError):
            spectral_pow(SymMatrix.diagonal([-1.0, 2.0]), 0.5)
        with pytest.raises(DomainError):
            spectral_pow(SymMatrix.diagonal([0.0, 2.0]), -1.0)

    def test_stack_raises_the_first_failing_request(self):
        # The requests are ranked by exponent inside; the error is still the
        # first failing request's, in request order.
        mats = (SymMatrix.diagonal([1e-13, 2.0]), SymMatrix.diagonal([1e200, 2.0]))
        with pytest.raises(DomainError, match="^matrix entries must be finite$"):
            spectral_pow_stack(mats, (1, 1, 0), (1.0, 2.0, 0.5))
        with pytest.raises(DomainError, match=r"^spectral power 0.5 requires eigenvalues >= 1e-12; "):
            spectral_pow_stack(mats, (1, 0, 1), (1.0, 0.5, 2.0))


class TestKronHadamardCompress:
    def test_kron_identities(self):
        out = kron(SymMatrix.identity(2), SymMatrix.identity(3))
        assert np.array_equal(out.array, np.eye(6))

    def test_kron_diag(self):
        out = kron(SymMatrix.diagonal([2.0, 3.0]), SymMatrix.diagonal([5.0, 7.0]))
        assert np.array_equal(out.array, np.diag([10.0, 14.0, 15.0, 21.0]))

    def test_kron_scalars(self):
        out = kron(SymMatrix(np.array([[4.0]])), SymMatrix(np.array([[0.25]])))
        assert out.array[0, 0] == 1.0

    def test_kron_equals_numpy_kron_bit_for_bit(self):
        # Each entry is the one product a[i, j] * b[k, l] either way, so the
        # broadcast form must give np.kron's bytes, -0.0 and tiny or huge
        # entries included.
        rng = np.random.default_rng(41)
        for da in range(1, 5):
            for db in range(1, 5):
                for _ in range(5):
                    a = SymMatrix(rng.standard_normal((da, da)) * 10.0 ** rng.integers(-150, 150))
                    b = SymMatrix(rng.standard_normal((db, db)))
                    got = kron(a, b).array
                    assert _bits_equal(got, np.kron(a.array, b.array))
                    assert not got.flags.writeable
        neg = SymMatrix(np.array([[-0.0, 1.0], [1.0, 2.0]]))
        assert _bits_equal(kron(neg, neg).array, np.kron(neg.array, neg.array))

    def test_kron_cap(self):
        with pytest.raises(SizeError):
            kron(SymMatrix.identity(64), SymMatrix.identity(65))

    def test_hadamard_example(self):
        a = SymMatrix(np.array([[1.0, 2.0], [2.0, 5.0]]))
        b = SymMatrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
        assert np.array_equal(hadamard(a, b).array, [[2.0, 2.0], [2.0, 15.0]])

    def test_hadamard_with_identity_extracts_diagonal(self):
        a = SymMatrix(np.array([[1.0, 2.0], [2.0, 5.0]]))
        assert np.array_equal(hadamard(a, SymMatrix.identity(2)).array, np.diag([1.0, 5.0]))

    def test_hadamard_scalar(self):
        out = hadamard(SymMatrix(np.array([[4.0]])), SymMatrix(np.array([[9.0]])))
        assert out.array[0, 0] == 36.0

    def test_hadamard_shape_error(self):
        with pytest.raises(ShapeError):
            hadamard(SymMatrix.identity(2), SymMatrix.identity(3))

    def test_compress_kron_equals_hadamard_bit_exact(self):
        rng = np.random.default_rng(5)
        for d in (1, 2, 3, 5):
            a, b = _rand_sym(d, rng), _rand_sym(d, rng)
            assert np.array_equal(
                compress(kron(a, b), d).array, hadamard(a, b).array
            )

    def test_compress_identity(self):
        assert np.array_equal(compress(SymMatrix.identity(4), 2).array, np.eye(2))

    def test_compress_shape_error(self):
        with pytest.raises(ShapeError):
            compress(SymMatrix.identity(6), 2)


class TestExactResults:
    """Results that skip re-symmetrisation equal the public constructor's."""

    @staticmethod
    def _assert_same_as_constructor(out, arr):
        assert _bits_equal(out.array, SymMatrix(arr).array)
        assert not out.array.flags.writeable

    def test_closed_operations(self):
        rng = np.random.default_rng(23)
        for d in (1, 2, 3, 4):
            for scale in (1.0, 1e-300, 1e150):
                a = SymMatrix(scale * rng.standard_normal((d, d)))
                b = SymMatrix(scale * rng.standard_normal((d, d)))
                c = float(rng.standard_normal())
                self._assert_same_as_constructor(a + b, a.array + b.array)
                self._assert_same_as_constructor(a - b, a.array - b.array)
                self._assert_same_as_constructor(a * c, a.array * c)
                self._assert_same_as_constructor(c * a, a.array * c)
                self._assert_same_as_constructor(hadamard(a, b), a.array * b.array)
                t = kron(a, b)
                self._assert_same_as_constructor(t, np.kron(a.array, b.array))
                idx = np.arange(d) * (d + 1)
                self._assert_same_as_constructor(
                    compress(t, d), t.array[np.ix_(idx, idx)]
                )

    def test_overflow_raises(self):
        # Without a NumPy warning first: the finiteness check rejects it.
        x = SymMatrix.diagonal([8e307, 1.0])
        a = SymMatrix(np.array([[8e307]]))
        big = x + x
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for overflow in (lambda: big + x, lambda: big - (-1.0) * x, lambda: big * 10.0,
                             lambda: hadamard(big, big), lambda: kron(big, big),
                             lambda: a + a + a, lambda: 10.0 * a, lambda: hadamard(a, a),
                             lambda: kron(a, a)):
                with pytest.raises(DomainError, match="^matrix entries must be finite$"):
                    overflow()


def _mean(a, b, alpha):
    """The weighted geometric mean ``a #_alpha b`` of one pair."""
    return MeanPath((a,), (b,)).at(alpha)


class TestGeoMean:
    def test_idempotent(self):
        rng = np.random.default_rng(2)
        a = _rand_spd(4, rng)
        for alpha in (0.0, 0.25, 0.5, 1.0):
            g = _mean(a, a, alpha)
            assert np.abs(g.array - a.array).max() <= 1e-10 * spectral_norm(a)

    def test_scalar_formula(self):
        g = _mean(SymMatrix(np.array([[4.0]])), SymMatrix(np.array([[1.0]])), 0.75)
        assert abs(g.array[0, 0] - 4.0 ** 0.25) <= 1e-14

    def test_midpoint_symmetry(self):
        rng = np.random.default_rng(9)
        a, b = _rand_spd(5, rng), _rand_spd(5, rng)
        g1 = _mean(a, b, 0.5)
        g2 = _mean(b, a, 0.5)
        rel = np.abs(g1.array - g2.array).max() / spectral_norm(g1)
        assert rel <= 1e-10

    def test_endpoints(self):
        rng = np.random.default_rng(13)
        a, b = _rand_spd(4, rng), _rand_spd(4, rng)
        assert np.abs(_mean(a, b, 0.0).array - a.array).max() <= 1e-10 * spectral_norm(a)
        assert np.abs(_mean(a, b, 1.0).array - b.array).max() <= 1e-10 * spectral_norm(b)

    def test_diagonal_closed_form(self):
        a = SymMatrix.diagonal([2.0, 5.0, 1.0])
        b = SymMatrix.diagonal([3.0, 0.5, 4.0])
        for alpha in (0.25, 0.5, 0.8):
            g = _mean(a, b, alpha)
            expected = np.diag(
                np.diag(a.array) ** (1 - alpha) * np.diag(b.array) ** alpha
            )
            rel = np.abs(g.array - expected).max() / np.abs(expected).max()
            assert rel <= 1e-12

    def test_rejects_non_spd(self):
        with pytest.raises(DomainError):
            _mean(SymMatrix.diagonal([1.0, -1.0]), SymMatrix.identity(2), 0.5)
        with pytest.raises(DomainError):
            _mean(SymMatrix.identity(2), SymMatrix.diagonal([1.0, EIG_FLOOR / 10]), 0.5)

    def test_stack_raises_the_first_failing_pair(self):
        one, odd = SymMatrix.identity(2), SymMatrix.diagonal([1.0, -1.0])
        groups = [((one,), (one,)), ((one, one), (one, odd)), ((odd,), (one,))]
        with pytest.raises(DomainError, match="^right operand is not positive definite"):
            MeanPath.stack(groups)
        with pytest.raises(DomainError, match="^left operand is not positive definite"):
            MeanPath.stack(groups[::-1])

    def test_rejects_bad_weight(self):
        with pytest.raises(DomainError):
            _mean(SymMatrix.identity(2), SymMatrix.identity(2), 1.5)


class TestLoewnerGap:
    def test_strictly_positive(self):
        g = loewner_gap(SymMatrix.identity(2), 2.0 * SymMatrix.identity(2))
        assert g.min_eig == pytest.approx(1.0, abs=1e-14)
        assert g.satisfied

    def test_violated(self):
        g = loewner_gap(SymMatrix.diagonal([1.0, 3.0]), SymMatrix.diagonal([2.0, 2.0]))
        assert g.min_eig == pytest.approx(-1.0, abs=1e-14)
        assert not g.satisfied
        assert g.rel_gap == pytest.approx(-0.5, abs=1e-14)

    def test_equal_operands(self):
        x = SymMatrix(np.array([[1.0, 0.5], [0.5, 2.0]]))
        g = loewner_gap(x, x)
        assert g.min_eig == 0.0 and g.satisfied

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            loewner_gap(SymMatrix.identity(2), SymMatrix.identity(3))

    def test_antisymmetry_via_negation(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            lhs, rhs = _rand_sym(5, rng), _rand_sym(5, rng)
            fwd = loewner_gap(lhs, rhs).min_eig
            back_max = sym_eigen(lhs - rhs).eigenvalues[-1]
            scale = max(1.0, spectral_norm(rhs))
            assert abs(fwd + back_max) <= 1e-12 * scale

    def test_stacks_match_eigh_and_decompose_only_the_worst_left_sides(self, monkeypatch):
        rng = np.random.default_rng(31)

        def sym(k, d):
            x = rng.standard_normal((k, d, d))
            return x + x.transpose(0, 2, 1)

        # Owner 2's first and last links tie exactly (dyadic diagonal
        # entries, norms below 1) with different left sides: the first is
        # its worst link.
        tie_lhs = np.array([np.diag([0.5, 0.25]), np.diag([0.625, 0.25])])
        tie_rhs = np.array([np.diag([0.25, 0.5]), np.diag([0.375, 0.5])])
        a_lhs, a_rhs, c_lhs, c_rhs = sym(3, 2), sym(3, 2), sym(3, 2), sym(3, 2)
        a_lhs[2], a_rhs[2], c_lhs[2], c_rhs[2] = tie_lhs[0], tie_rhs[0], tie_lhs[1], tie_rhs[1]
        b_rhs = sym(2, 3)
        b_rhs[1] += 100.0 * np.eye(3)  # owner 2's middle link holds with room
        links = [(a_lhs, a_rhs, [0, 1, 2]), (sym(2, 3), b_rhs, [0, 2]),
                 (c_lhs, c_rhs, [0, 1, 2]), (sym(1, 1), sym(1, 1), [1])]
        seen = []
        real = matcore._eigh_stack

        def counting(arr):
            seen.extend(np.array(arr))
            return real(arr)

        monkeypatch.setattr(matcore, "_eigh_stack", counting)
        got = loewner_gaps(links, tol=1e-9)
        owned = {}
        for lhs, rhs, owners in links:
            for r, owner in enumerate(owners):
                owned.setdefault(owner, []).append((lhs[r], rhs[r]))
        assert sorted(got) == [0, 1, 2]
        for owner, pairs in owned.items():
            gaps, worst, lhs_norm, rhs_norm = got[owner]
            rels = []
            for (lhs, rhs), gap in zip(pairs, gaps):
                w_rhs = np.linalg.eigh(rhs)[0]
                norm = max(abs(w_rhs[0]), abs(w_rhs[-1]))
                min_eig = np.linalg.eigh(rhs - lhs)[0][0]
                assert gap.min_eig.hex() == float(min_eig).hex()
                assert gap.rel_gap.hex() == float(min_eig / max(1.0, norm)).hex()
                assert gap.satisfied == (gap.rel_gap >= -1e-9)
                rels.append(gap.rel_gap)
            assert worst == rels.index(min(rels))
            lhs, rhs = pairs[worst]
            w_lhs, w_rhs = np.linalg.eigh(lhs)[0], np.linalg.eigh(rhs)[0]
            assert lhs_norm.hex() == float(max(abs(w_lhs[0]), abs(w_lhs[-1]))).hex()
            assert rhs_norm.hex() == float(max(abs(w_rhs[0]), abs(w_rhs[-1]))).hex()
        assert got[2][1] == 0 and got[2][0][0].rel_gap == got[2][0][2].rel_gap
        # Every difference and right side, and one left side per owner.
        assert len(seen) == 2 * 9 + 3
        decomposed = {x.tobytes() for x in seen}
        for owner, pairs in owned.items():
            for i, (lhs, _) in enumerate(pairs):
                assert (lhs.tobytes() in decomposed) == (i == got[owner][1]), (owner, i)

    def test_tolerance_semantics(self):
        lhs = SymMatrix.identity(2)
        rhs = SymMatrix.diagonal([1.0 - 1e-12, 2.0])
        assert loewner_gap(lhs, rhs, tol=1e-9).satisfied
        assert not loewner_gap(lhs, rhs, tol=1e-15).satisfied


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=4, max_size=4))
def test_eigen_reconstruction_property(vals):
    a = SymMatrix(np.array(vals).reshape(2, 2))
    e = sym_eigen(a)
    err = np.linalg.norm(e.reconstruct() - a.array)
    assert err <= 1e-10 * max(1.0, np.linalg.norm(a.array))
