import dataclasses
import functools
import json
import math
import operator
import warnings

import numpy as np
import pytest

from callebaut_lab.cli import DEFAULT_BANDS, STAGE
from callebaut_lab.errors import DomainError, HypothesisError, ShapeError, each_alone
from callebaut_lab.inequalities import (
    IneqId,
    Variant,
    build_links,
    evaluate_inequality,
    evaluate_stage,
    inequality_info,
    list_inequalities,
)
from callebaut_lab.matcore import MeanPath, SymMatrix, sym_eigen
from callebaut_lab import sampler
from callebaut_lab.oracle import WITNESS_FAMILY, WITNESS_PAIR
from callebaut_lab.sampler import (
    FamilyInstance,
    SpectralBand,
    derive_rng,
    haar_orthogonal,
    sample_families,
    sample_family,
    sample_matrices,
    spd_in_band,
    validate_band_containment,
)


class TestRng:
    def test_same_stream_identical(self):
        r1 = derive_rng(2024, 7)
        r2 = derive_rng(2024, 7)
        assert [r1.uniform() for _ in range(1000)] == [r2.uniform() for _ in range(1000)]

    def test_streams_differ(self):
        r0 = derive_rng(2024, 0)
        r1 = derive_rng(2024, 1)
        assert [r0.next_u64() for _ in range(10)] != [r1.next_u64() for _ in range(10)]

    def test_seed_zero_valid(self):
        r = derive_rng(0, 0)
        u = r.uniform()
        assert 0.0 <= u < 1.0

    def test_uniform_range(self):
        r = derive_rng(5, 5)
        draws = [r.uniform() for _ in range(10000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert 0.45 < sum(draws) / len(draws) < 0.55

    def test_normals_reasonable(self):
        r = derive_rng(5, 6)
        draws = [r.normal() for _ in range(10000)]
        mean = sum(draws) / len(draws)
        var = sum((d - mean) ** 2 for d in draws) / len(draws)
        assert abs(mean) < 0.05 and 0.9 < var < 1.1


class TestHaar:
    def test_dim_one_is_sign(self):
        q = haar_orthogonal(1, derive_rng(1, 1))
        assert q.shape == (1, 1) and abs(abs(q[0, 0]) - 1.0) <= 1e-12

    def test_orthogonality(self):
        for stream in range(20):
            q = haar_orthogonal(5, derive_rng(3, stream))
            assert np.abs(q.T @ q - np.eye(5)).max() <= 1e-12

    def test_determinant_pm_one(self):
        for stream in range(10):
            q = haar_orthogonal(4, derive_rng(4, stream))
            assert abs(abs(np.linalg.det(q)) - 1.0) <= 1e-10


class TestSpdInBand:
    def test_degenerate_band_forces_value(self):
        m = spd_in_band(1, 4.0, 4.0, derive_rng(1, 2))
        assert m.array[0, 0] == 4.0

    def test_pinned_extremes(self):
        m = spd_in_band(3, 2.0, 5.0, derive_rng(1, 3), pin_extremes=True)
        w = sym_eigen(m).eigenvalues
        assert abs(w[0] - 2.0) <= 1e-10 and abs(w[-1] - 5.0) <= 1e-10

    def test_containment_many(self):
        for stream in range(1000):
            d = 1 + stream % 4
            m = spd_in_band(d, 0.3, 1.7, derive_rng(11, stream))
            w = sym_eigen(m).eigenvalues
            assert w[0] >= 0.3 * (1 - 1e-12) and w[-1] <= 1.7 * (1 + 1e-12)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            spd_in_band(2, 3.0, 1.0, derive_rng(0, 0))


class TestBand:
    def test_derived_ratios(self):
        band = SpectralBand(0.5, 1.0, 2.0, 8.0)
        assert band.h == 2.0 and band.h_prime == 16.0
        assert band.h > 1.0 and band.h_prime >= band.h

    def test_degenerate_admitted(self):
        band = SpectralBand(1.0, 1.0, 4.0, 4.0)
        assert band.h == 4.0

    def test_unseparated_rejected(self):
        with pytest.raises(HypothesisError):
            SpectralBand(0.5, 2.0, 2.0, 8.0)
        with pytest.raises(HypothesisError):
            SpectralBand(-1.0, 1.0, 2.0, 3.0)


class TestFamilies:
    def test_witness_instance(self):
        inst = sample_family(1, 1, SpectralBand(1.0, 1.0, 4.0, 4.0), derive_rng(1, 0))
        assert inst.A_list[0].array[0, 0] == 4.0
        assert inst.B_list[0].array[0, 0] == 1.0

    def test_containment(self):
        band = SpectralBand(0.1, 0.2, 5.0, 10.0)
        inst = sample_family(2, 3, band, derive_rng(6, 1))
        validate_band_containment(inst)

    def test_identical_seeds_identical_families(self):
        band = SpectralBand(0.5, 1.0, 2.0, 8.0)
        i1 = sample_family(2, 3, band, derive_rng(9, 4))
        i2 = sample_family(2, 3, band, derive_rng(9, 4))
        for a, b in zip(i1.A_list + i1.B_list, i2.A_list + i2.B_list):
            assert np.array_equal(a.array, b.array)

    @pytest.mark.parametrize("band", [None, (1.0, 1.0, 4.0, 4.0)])
    def test_family_requires_a_spectral_band(self, band):
        with pytest.raises(HypothesisError, match="requires a spectral band"):
            FamilyInstance(
                n=1,
                dim=1,
                A_list=(SymMatrix(np.array([[4.0]])),),
                B_list=(SymMatrix(np.array([[1.0]])),),
                band=band,
            )

    def test_dict_roundtrip(self):
        # The JSON form written by to_dict reads back to an equal instance,
        # entry for entry, across the default bands, shapes and pinning.
        mismatches = 0
        for k in range(300):
            n, d = 1 + k % 3, 1 + (k // 3) % 4
            band = DEFAULT_BANDS[(k // 12) % 3]
            inst = sample_family(n, d, band, derive_rng(23, k), pin_extremes=k % 2 == 0)
            back = FamilyInstance.from_dict(json.loads(json.dumps(inst.to_dict())))
            mismatches += back != inst
        assert mismatches == 0

    def test_containment_violation_detected(self):
        band = SpectralBand(1.0, 1.0, 4.0, 4.0)
        inst = FamilyInstance(
            n=1,
            dim=1,
            A_list=(SymMatrix(np.array([[9.0]])),),
            B_list=(SymMatrix(np.array([[1.0]])),),
            band=band,
        )
        with pytest.raises(HypothesisError, match="band"):
            validate_band_containment(inst)

    def test_containment_names_the_first_matrix_outside(self):
        # The second B leaves the band: alone and in a stage, from stacked
        # and from public matrices, the error names it; with A_1 outside
        # too, A_1 is named first; and B_1 is named when it is outside.
        band = SpectralBand(1.0, 2.0, 4.0, 8.0)
        diag = [np.diag(w) for w in ([4.0, 8.0], [5.0, 6.0], [1.0, 2.0], [1.5, 3.0], [3.0, 8.0])]
        pair = inequality_info(IneqId.HAD_MAMAN).kind.values[0]
        assert inequality_info(IneqId.HAD_MAMAN).needs_band
        good = sample_family(2, 2, band, derive_rng(58, 0))
        for mats in (SymMatrix.stack(np.array(diag)), [SymMatrix(x) for x in diag]):
            b_out = FamilyInstance(2, 2, tuple(mats[:2]), tuple(mats[2:4]), band)
            a_out = FamilyInstance(2, 2, (mats[4], mats[1]), tuple(mats[2:4]), band)
            b1_out = FamilyInstance(2, 2, tuple(mats[:2]), (mats[3], mats[2]), band)
            texts = ["B_2 spectrum [1.5, 3] violates the band [1.0, 2.0]",
                     "A_1 spectrum [3, 8] violates the band [4.0, 8.0]",
                     "B_1 spectrum [1.5, 3] violates the band [1.0, 2.0]"]
            for inst, text in zip((b_out, a_out, b1_out), texts):
                with pytest.raises(HypothesisError) as err:
                    validate_band_containment(inst)
                assert str(err.value) == text
            stage = (good, b_out, a_out, b1_out, good)
            reports = evaluate_stage([(IneqId.HAD_MAMAN, f, pair, Variant.PAPER_LITERAL) for f in stage])
            assert [str(r) for r in reports[1:4]] == texts
            assert all(isinstance(r, HypothesisError) for r in reports[1:4])
            assert reports[0] == reports[4] and not isinstance(reports[0], Exception)

    @pytest.mark.parametrize("size", [1.9, True, math.inf, "1"], ids=repr)
    def test_dict_sizes_must_be_whole_numbers(self, size):
        # int() would read 1.9 and True as 1; 1.0 is a whole number and reads.
        good = {"band": [1.0, 1.0, 4.0, 4.0], "n": 1, "dim": 1.0,
                "A_list": [[[4.0]]], "B_list": [[[1.0]]]}
        assert FamilyInstance.from_dict(good).dim == 1
        for key in ("n", "dim"):
            with pytest.raises(ValueError, match=f"{key} must be a whole number"):
                FamilyInstance.from_dict({**good, key: size})


# A per-matrix copy of the sampler as it was before stacking: one 2-D QR,
# one rebuild and one eigendecomposition per matrix.  The stacked sampler must
# reproduce it bit for bit.  That is a property of the installed NumPy/LAPACK
# build (each stacked call treats every matrix alone), so it is checked here
# rather than assumed.


def _looped_haar(d, rng):
    g = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            g[i, j] = rng.normal()
    q, r = np.linalg.qr(g)
    return q * np.where(np.diagonal(r) < 0.0, -1.0, 1.0)


def _looped_spd(d, lo, hi, rng, pin_extremes):
    """(matrix, eigenvalues, eigenvectors) of one matrix, per-matrix calls."""
    w = np.array(sorted(rng.uniform_in(lo, hi) for _ in range(d)))
    if pin_extremes and d >= 2:
        w[0] = lo
        w[-1] = hi
    if d == 1:
        return w.reshape(1, 1), w.copy(), np.ones((1, 1))
    q = _looped_haar(d, rng)
    m = (q * w) @ q.T
    m = (m + m.T) / 2.0
    ew, ev = np.linalg.eigh(m)
    lead = ev[0]
    if not lead.all():
        lead = ev[np.argmax(ev != 0.0, axis=0), np.arange(d)]
    ev *= np.where(lead < 0.0, -1.0, 1.0)
    return m, ew, ev


def _looped_family(n, d, band, rng, pin_extremes):
    edges = [(band.M_lo, band.M_hi)] * n + [(band.m_lo, band.m_hi)] * n
    return [_looped_spd(d, lo, hi, rng, pin_extremes) for lo, hi in edges]


def _same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def _requests(seed):
    """180 ``sample_family`` argument tuples, on fresh generators: six streams
    for each n in 1..3, d in 1..5 and pinning, across the default bands."""
    shapes = [(n, d, pin) for pin in (False, True) for n in (1, 2, 3)
              for d in range(1, 6) for _ in range(6)]
    return [(n, d, DEFAULT_BANDS[k % 3], derive_rng(seed, k), pin)
            for k, (n, d, pin) in enumerate(shapes)]


class TestStackedSampling:
    def test_stacked_equals_looped(self):
        mismatches = 0
        families = sample_families(_requests(31))
        for (n, d, band, rng, pin), family in zip(_requests(31), families):
            looped = _looped_family(n, d, band, rng, pin)
            for m, (arr, ew, ev) in zip(family.A_list + family.B_list, looped):
                # The sampler's matrices refer to their stack and row.
                assert _same_bits(m._stack[0][m._row], m.array)
                eig = sym_eigen(m)
                mismatches += not (
                    _same_bits(m.array, arr)
                    and _same_bits(eig.eigenvalues, ew)
                    and _same_bits(eig.eigenvectors, ev)
                )
                assert not m.array.flags.writeable
                assert not eig.eigenvalues.flags.writeable
                assert not eig.eigenvectors.flags.writeable
        assert mismatches == 0

    def test_one_stage_equals_each_family_alone(self):
        together = sample_families(_requests(32))
        alone = [sample_family(*r) for r in _requests(32)]
        for fam, ref in zip(together, alone):
            assert fam == ref
            for m, r in zip(fam.A_list + fam.B_list, ref.A_list + ref.B_list):
                assert _same_bits(sym_eigen(m).eigenvectors, sym_eigen(r).eigenvectors)
                assert _same_bits(sym_eigen(m).eigenvalues, sym_eigen(r).eigenvalues)

    def test_one_item_cases_match_the_loop(self):
        for k in range(40):
            d = 1 + k % 5
            q = haar_orthogonal(d, derive_rng(33, k))
            assert _same_bits(q, _looped_haar(d, derive_rng(33, k)))
            m = spd_in_band(d, 0.5, 3.0, derive_rng(34, k), pin_extremes=k % 2 == 0)
            arr, _, _ = _looped_spd(d, 0.5, 3.0, derive_rng(34, k), k % 2 == 0)
            assert _same_bits(m.array, arr)

    def test_a_failing_family_carries_its_own_error(self, monkeypatch):
        requests = _requests(35)[:40]
        clean = sample_families(_requests(35)[:40])
        bad = 7  # n = 1, d = 2, unpinned (see _requests)
        poisoned = clean[bad].A_list[0].array.tobytes()
        eigh = np.linalg.eigh

        def failing_eigh(a):
            if any(x.tobytes() == poisoned for x in a.reshape(-1, *a.shape[-2:])):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        got = sample_families(requests)
        assert isinstance(got[bad], np.linalg.LinAlgError)
        for k, (fam, ref) in enumerate(zip(got, clean)):
            if k != bad:
                assert fam == ref
        with pytest.raises(np.linalg.LinAlgError):
            sample_family(*_requests(35)[bad])

    def test_a_bad_request_fails_alone(self):
        band = DEFAULT_BANDS[1]
        got = sample_families([
            (1, 2, band, derive_rng(36, 0), False),
            (1, 0, band, derive_rng(36, 1), False),
            (0, 2, band, derive_rng(36, 2), False),
            (2, 3, band, derive_rng(36, 3), True),
        ])
        assert isinstance(got[1], ShapeError) and isinstance(got[2], ShapeError)
        assert got[0] == sample_family(1, 2, band, derive_rng(36, 0))
        assert got[3] == sample_family(2, 3, band, derive_rng(36, 3), True)

    @staticmethod
    def _matrix_requests(seed):
        """40 ``spd_in_band`` argument tuples: d in 1..5, pinned and
        unpinned, two intervals; every third stream enters with a cached
        Gaussian.  More than ``LANE_MIN`` streams, so the words run as
        lanes."""
        requests = []
        for k in range(40):
            rng = derive_rng(seed, k)
            if k % 3 == 0:
                rng.normal()
            requests.append((1 + k % 5, 0.5, 3.0 + k % 2, rng, k % 4 < 2))
        return requests

    def test_stacked_matrices_equal_the_loop(self):
        requests = self._matrix_requests(37)
        got = sample_matrices(requests)
        for m, (d, lo, hi, rng, pin), (*_, ref, _) in zip(got, requests, self._matrix_requests(37)):
            arr, ew, ev = _looped_spd(d, lo, hi, ref, pin)
            eig = sym_eigen(m)
            assert _same_bits(m.array, arr)
            assert _same_bits(eig.eigenvalues, ew) and _same_bits(eig.eigenvectors, ev)
            assert _state(rng) == _state(ref)

    def test_a_failing_matrix_carries_its_own_error(self, monkeypatch):
        clean = sample_matrices(self._matrix_requests(38))
        bad = 6  # d = 2
        poisoned = clean[bad].array.tobytes()
        eigh = np.linalg.eigh

        def failing_eigh(a):
            if any(x.tobytes() == poisoned for x in a.reshape(-1, *a.shape[-2:])):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        requests = self._matrix_requests(38)
        requests[1] = (2, 3.0, 1.0, derive_rng(38, 1), False)  # lo > hi
        requests[2] = (0, 0.5, 3.0, derive_rng(38, 2), False)
        got = sample_matrices(requests)
        assert isinstance(got[bad], np.linalg.LinAlgError)
        assert isinstance(got[1], DomainError) and isinstance(got[2], ShapeError)
        for k, (m, ref) in enumerate(zip(got, clean)):
            if k not in (1, 2, bad):
                assert m == ref
        with pytest.raises(np.linalg.LinAlgError):
            spd_in_band(*self._matrix_requests(38)[bad])


def _state(rng):
    return (rng._s0, rng._s1, rng._s2, rng._s3, rng._spare)


def _window(seed):
    """300 ``sample_family`` requests, more than a default stage
    (``cli.STAGE``): n in 1..3, d in 1..5, pinned and unpinned, across the
    default bands; every fifth stream enters with a cached Gaussian (one
    ``normal()`` drawn first) and every seventh has drawn some words."""
    requests = []
    for k in range(300):
        n, d, pin = 1 + k % 3, 1 + (k // 3) % 5, (k // 15) % 2 == 0
        rng = derive_rng(seed, k)
        if k % 5 == 0:
            rng.normal()
        if k % 7 == 0:
            for _ in range(k % 4):
                rng.next_u64()
        requests.append((n, d, DEFAULT_BANDS[k % 3], rng, pin))
    assert len(requests) > STAGE
    return requests


class TestLaneDraws:
    """``sample_families`` draws many streams as NumPy lanes.
    Every spectrum and Gaussian, and the state and cached Gaussian each
    stream is left with, must be what ``RngState`` gives one value at a time."""

    def test_lanes_equal_the_rng_streams(self):
        requests = _window(51)
        assert sum(r[3]._spare is not None for r in requests) >= 60
        families = sample_families(requests)
        for (n, d, band, rng, pin), ref, family in zip(requests, _window(51), families):
            ref_rng = ref[3]
            looped = _looped_family(n, d, band, ref_rng, pin)
            for m, (arr, ew, ev) in zip(family.A_list + family.B_list, looped):
                assert _same_bits(m.array, arr)
                assert _same_bits(sym_eigen(m).eigenvalues, ew)
                assert _same_bits(sym_eigen(m).eigenvectors, ev)
            assert _state(rng) == _state(ref_rng)
            assert rng._spare is None or type(rng._spare) is float

    def test_lanes_and_serial_words_agree(self, monkeypatch):
        # The same window drawn serially (RngState.next_u64 words) and as
        # lanes from the first stream on.
        serial, lanes = _window(52), _window(52)
        monkeypatch.setattr(sampler, "LANE_MIN", 10**9)
        by_words = sample_families(serial)
        monkeypatch.setattr(sampler, "LANE_MIN", 1)
        by_lanes = sample_families(lanes)
        assert by_words == by_lanes
        assert [_state(r[3]) for r in serial] == [_state(r[3]) for r in lanes]

    def test_a_shared_stream_draws_in_request_order(self):
        band = DEFAULT_BANDS[2]
        rng, alone = derive_rng(53, 0), derive_rng(53, 0)
        requests = [(2, 3, band, rng, True)] + [
            (1, 2, band, derive_rng(53, k), False) for k in range(1, 20)
        ] + [(1, 3, band, rng, False)]
        got = sample_families(requests)
        assert got[0] == sample_family(2, 3, band, alone, True)
        assert got[-1] == sample_family(1, 3, band, alone, False)
        assert _state(rng) == _state(alone)

    @pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 128, 2591, 5000])
    def test_lane_tops_equal_serial_tops(self, count):
        # LANE_MIN streams whose counts end on different steps, up to
        # ``count``: each row's first counts[r] tops are the next_u64 words
        # shifted by 11, and each stream is left where the serial draw
        # leaves it, new streams and ones that have drawn words and hold a
        # cached Gaussian alike.
        streams = sampler.LANE_MIN
        counts = [(count * k) // (streams - 1) for k in range(streams)]
        lanes, serial = [], []
        for k in range(streams):
            rng, ref = derive_rng(55, k), derive_rng(55, k)
            for r in (rng, ref):
                for _ in range(k % 3):
                    r.next_u64()
                if k % 2:
                    r.normal()
            lanes.append(rng)
            serial.append(ref)
        got = sampler._lane_tops(lanes, counts)
        want = sampler._serial_tops(serial, counts)
        assert got.dtype == np.uint64
        assert got.shape == want.shape == (streams, count)
        for row, ref_row, n in zip(got.tolist(), want.tolist(), counts):
            assert row[:n] == ref_row[:n]
        assert [_state(r) for r in lanes] == [_state(r) for r in serial]

    def test_spd_in_band_keeps_the_stream(self):
        for k in range(20):
            d = 1 + k % 5
            rng, ref = derive_rng(54, k), derive_rng(54, k)
            if k % 2:
                rng.normal(), ref.normal()
            m = spd_in_band(d, 0.5, 3.0, rng, pin_extremes=k % 3 == 0)
            arr, _, _ = _looped_spd(d, 0.5, 3.0, ref, k % 3 == 0)
            assert _same_bits(m.array, arr)
            assert _state(rng) == _state(ref)


# Per-matrix copies of the weighted mean and the eigensolver as they were
# before evaluation was stacked: 2-D calls, one pair or matrix at a time.


def _looped_eigh(m):
    """Signed eigendecomposition of one matrix, by the ``sym_eigen`` rules."""
    d = m.shape[0]
    if d == 1:
        return m[0].copy(), np.ones((1, 1))
    w, q = np.linalg.eigh(m)
    lead = q[0]
    if not lead.all():
        lead = q[np.argmax(q != 0.0, axis=0), np.arange(d)]
    return w, q * np.where(lead < 0.0, -1.0, 1.0)


def _looped_mean(a, b, u):
    """``a #_u b`` by the congruence, with 2-D calls for the one pair."""
    wa, qa = _looped_eigh(a)
    root = np.sqrt(wa)
    a_half = (qa * root) @ qa.T
    a_inv_half = (qa * (1.0 / root)) @ qa.T
    inner = a_inv_half @ b @ a_inv_half
    wi, qi = _looped_eigh((inner + inner.T) / 2.0)
    mean = a_half @ ((qi * np.power(wi, u)) @ qi.T) @ a_half
    return (mean + mean.T) / 2.0


def _bits(x):
    return np.float64(x).tobytes()


def _attributes(obj):
    """The instance attributes of ``obj``, each by the identity of its value."""
    return {name: id(value) for name, value in vars(obj).items()}


def _stage_trials(seed):
    """Trials ``(ineq, family, params, variant)`` of one mixed stage, built on
    fresh generators: every (id, variant) combo at d = 1..4 (n = 1..3 for the
    family-shaped ids), pinned and unpinned, across the default bands, plus
    the witness grid point of every id that takes (s, t)."""
    trials, k = [], 0
    for info in list_inequalities():
        for variant in info.variants:
            for d in (1, 2, 3, 4):
                n = 1 if info.takes_pair else 1 + k % 3
                family = sample_family(n, d, DEFAULT_BANDS[k % 3], derive_rng(seed, k), k % 2 == 0)
                params = info.kind.values[(7 * k) % len(info.kind.values)]
                trials.append((info.ineq, family, params, variant))
                k += 1
            if isinstance(WITNESS_PAIR, info.kind.type):
                family = FamilyInstance.from_dict(WITNESS_FAMILY.to_dict())
                trials.append((info.ineq, family, WITNESS_PAIR, variant))
    return trials


class TestStackedEvaluation:
    """``evaluate_stage`` must give every trial the numbers it gets alone,
    and those must be the per-matrix numbers.  Like stacked sampling, that
    is a property of the installed NumPy/LAPACK build, so it is checked."""

    def test_stage_equals_the_loop(self):
        staged = evaluate_stage(_stage_trials(37))
        alone = _stage_trials(37)  # the same trials, sampled again
        assert len(staged) == len(alone) > 18 * 4
        for got, trial in zip(staged, alone):
            ref = evaluate_inequality(*trial)
            assert got.ineq is ref.ineq and got.variant is ref.variant
            assert got.params == ref.params and got.witness == ref.witness
            assert [l.name for l in got.links] == [l.name for l in ref.links]
            for g, r in zip(got.links, ref.links):
                assert _bits(g.gap.min_eig) == _bits(r.gap.min_eig)
                assert _bits(g.gap.rel_gap) == _bits(r.gap.rel_gap)
                assert g.gap.satisfied == r.gap.satisfied
            assert _bits(got.lhs_norm) == _bits(ref.lhs_norm)
            assert _bits(got.rhs_norm) == _bits(ref.rhs_norm)
            # Each link's gap and operand norm against per-matrix LAPACK calls.
            for (_, lhs, rhs), g in zip(build_links(*trial), got.links):
                w_diff, _ = _looped_eigh(rhs.array - lhs.array)
                w_rhs, _ = _looped_eigh(rhs.array)
                norm = max(abs(w_rhs[0]), abs(w_rhs[-1]))
                assert _bits(g.gap.min_eig) == _bits(w_diff[0])
                assert _bits(g.gap.rel_gap) == _bits(w_diff[0] / max(1.0, norm))
        assert any(r.witness is not None for r in staged)

    def test_evaluation_writes_nothing_to_its_inputs(self):
        # Evaluating a stage of sampled and ``from_dict`` families changes no
        # attribute of any family or matrix: values are final at construction.
        trials = _stage_trials(39)
        families = [family for _, family, _, _ in trials]
        matrices = [m for f in families for m in f.A_list + f.B_list]
        assert any(m._stack is None for m in matrices)  # the from_dict ones
        before = [_attributes(v) for v in families + matrices]
        evaluate_stage(trials)
        assert [_attributes(v) for v in families + matrices] == before

    def test_a_refinement_chunk_writes_nothing_and_builds_witnesses_on_read(self):
        # Families that mix a sampled family's matrices with redrawn ones, as
        # ``falsify``'s refinement steps do, and a public copy: evaluating
        # them and reading every witness changes no attribute of a family or
        # matrix, and each witness is the JSON form of its trial.
        band = DEFAULT_BANDS[1]
        base = sample_family(2, 3, band, derive_rng(59, 0), True)
        redrawn = sample_matrices([(3, band.M_lo, band.M_hi, derive_rng(59, k), True) for k in (1, 2, 3)])
        families = [dataclasses.replace(base, A_list=(m, base.A_list[1])) for m in redrawn]
        families += [base, FamilyInstance.from_dict(base.to_dict())]
        values = inequality_info(IneqId.HAD_MAMAN).kind.values
        trials = [(IneqId.HAD_MAMAN, f, values[k % len(values)], Variant.PAPER_LITERAL)
                  for k, f in enumerate(families * 4)]
        matrices = [m for f in families for m in f.A_list + f.B_list]
        before = [_attributes(v) for v in families + matrices]
        reports = evaluate_stage(trials)
        assert any(not r.satisfied for r in reports) and any(r.satisfied for r in reports)
        for r, (_, family, _, _) in zip(reports, trials):
            expected = None if r.satisfied else {"params": r.params, **family.to_dict()}
            assert r.witness == expected and r.witness == expected
            assert r.family is family and "family" not in repr(r)
        assert [_attributes(v) for v in families + matrices] == before

    def test_stacked_mean_path_sums_equal_the_pair_loop(self):
        families = sample_families(_requests(38))
        paths = MeanPath.stack([(f.A_list, f.B_list) for f in families])
        for f, path in zip(families, paths):
            pairs = list(zip(f.A_list, f.B_list))
            for u in (0.0, 0.25, 0.5, 0.6875, 1.0):
                got = path.at(u).array
                looped = functools.reduce(operator.add, (MeanPath((a,), (b,)).at(u) for a, b in pairs))
                assert _same_bits(got, looped.array)
                reference = _looped_mean(pairs[0][0].array, pairs[0][1].array, u)
                for a, b in pairs[1:]:
                    reference = reference + _looped_mean(a.array, b.array, u)
                assert _same_bits(got, reference)

    def test_a_failing_pair_keeps_its_message(self):
        # CHAIN_34RF reads no band, so a non-positive B_2 reaches the means.
        band = DEFAULT_BANDS[1]
        good = sample_family(2, 2, band, derive_rng(39, 0))
        bad = dataclasses.replace(
            good, B_list=(good.B_list[0], SymMatrix.diagonal([1.0, -1.0]))
        )
        pair = WITNESS_PAIR
        message = "right operand is not positive definite (min eigenvalue -1.000000e+00 < 1e-12)"
        with pytest.raises(HypothesisError) as alone:
            evaluate_inequality(IneqId.CHAIN_34RF, bad, pair)
        assert str(alone.value) == message
        other = sample_family(2, 2, band, derive_rng(39, 0))
        got = evaluate_stage([
            (IneqId.CHAIN_34RF, good, pair, Variant.PAPER_LITERAL),
            (IneqId.CHAIN_34RF, bad, pair, Variant.PAPER_LITERAL),
        ])
        assert isinstance(got[1], HypothesisError) and str(got[1]) == message
        assert got[0] == evaluate_inequality(IneqId.CHAIN_34RF, other, pair)

    def test_a_factoring_failure_stays_with_the_statements_that_take_means(self):
        # B sits in its band but below the eigenvalue floor: WADA's mean path
        # rejects it, and TENSOR_TOOL, which takes no means, fails in its own
        # spectral power, in a stage as alone.
        band = SpectralBand(1e-13, 1e-13, 1.0, 1.0)
        family = FamilyInstance(
            n=1, dim=2, A_list=(SymMatrix.identity(2),),
            B_list=(SymMatrix.diagonal([1e-13, 1e-13]),), band=band,
        )
        trials = [(IneqId.WADA, family, 0.5, Variant.PAPER_LITERAL),
                  (IneqId.TENSOR_TOOL, family, WITNESS_PAIR, Variant.PAPER_LITERAL)]
        got = evaluate_stage(trials)
        assert str(got[0]).startswith("right operand is not positive definite")
        assert str(got[1]).startswith("spectral power 0.25 requires eigenvalues")
        for err, (ineq, _, params, variant) in zip(got, trials):
            fresh = FamilyInstance.from_dict(family.to_dict())
            with pytest.raises(HypothesisError) as alone:
                evaluate_inequality(ineq, fresh, params, variant)
            assert isinstance(err, HypothesisError) and str(err) == str(alone.value)

    def test_the_first_failing_pair_wins(self):
        # Pair 1 passes its a and b checks but its inner operand loses
        # positivity in floating point; pair 2 fails its a check.
        def rot(theta):
            c, s = math.cos(theta), math.sin(theta)
            return np.array([[c, -s], [s, c]])

        def thin(theta):
            q = rot(theta)
            return SymMatrix(q @ np.diag([2e-12, 1.0]) @ q.T)

        a1, b1 = thin(0.1), thin(0.42)
        with pytest.raises(DomainError) as inner:
            MeanPath((a1,), (b1,))
        assert str(inner.value).startswith("congruence-transformed operand lost positivity")
        a2 = SymMatrix.diagonal([-1.0, 1.0])
        family = FamilyInstance(
            n=2, dim=2, A_list=(a1, a2), B_list=(b1, SymMatrix.identity(2)),
            band=DEFAULT_BANDS[0],
        )
        with pytest.raises(HypothesisError, match="congruence-transformed") as alone:
            evaluate_inequality(IneqId.CHAIN_34RF, family, WITNESS_PAIR)
        assert str(alone.value) == str(inner.value)
        # The same order in a stage, and with the pairs swapped.
        swapped = FamilyInstance(
            n=2, dim=2, A_list=(a2, a1), B_list=(SymMatrix.identity(2), b1),
            band=DEFAULT_BANDS[0],
        )
        trials = [(IneqId.CHAIN_34RF, f, WITNESS_PAIR, Variant.PAPER_LITERAL)
                  for f in (family, swapped)]
        got = evaluate_stage(trials)
        assert str(got[0]) == str(inner.value)
        assert str(got[1]).startswith("left operand is not positive definite")


    def test_a_failing_mean_sum_fails_its_trial_alone_and_in_a_stage(self):
        # Each mean of diag(8e307, 8e307) with itself is finite; the sum of
        # three overflows, at every weight.  The error the stacked sums raise
        # is the trial's error, with no NumPy warning before it.
        big = SymMatrix.diagonal([8e307, 8e307])
        band = DEFAULT_BANDS[1]

        def huge():
            return FamilyInstance(n=3, dim=2, A_list=(big,) * 3, B_list=(big,) * 3, band=band)

        ineq, pair = IneqId.CHAIN_34RF, WITNESS_PAIR
        message = "matrix entries must be finite"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(HypothesisError) as alone:
                evaluate_inequality(ineq, huge(), pair)
            assert str(alone.value) == message
            good = sample_family(3, 2, band, derive_rng(58, 0))
            got = evaluate_stage([
                (ineq, huge(), pair, Variant.PAPER_LITERAL),
                (ineq, good, pair, Variant.PAPER_LITERAL),
            ])
            assert isinstance(got[0], HypothesisError) and str(got[0]) == message
            other = sample_family(3, 2, band, derive_rng(58, 0))
            assert got[1] == evaluate_inequality(ineq, other, pair)


class TestStackedMeanSums:
    """``MeanPath.sums`` computes many ``(path, weight)`` requests together,
    as blocks; ``at`` is its one-request case.  Each sum must be the
    one-request sum and the per-pair reference, bit for bit."""

    @staticmethod
    def _sums(requests):
        """``MeanPath.sums``, one array per request."""
        out = [None] * len(requests)
        for total, idx in MeanPath.sums(requests):
            for i, x in zip(idx, total):
                out[i] = x
        return out

    WEIGHTS = tuple(k / 16 for k in range(17)) + tuple((3.0 - 2.0 * k / 16) / 4.0 for k in range(9, 17))

    def test_stacked_sums_equal_each_request_alone(self):
        families = [
            sample_family(n, d, DEFAULT_BANDS[k % 3], derive_rng(55, k), k % 2 == 0)
            for k, (n, d) in enumerate((n, d) for n in (1, 2, 3) for d in (1, 2, 3, 4) for _ in range(2))
        ]
        paths = MeanPath.stack([(f.A_list, f.B_list) for f in families])
        requests = [(p, u) for p in paths for u in self.WEIGHTS]
        got = self._sums(requests[::-1])[::-1]  # any request order
        for (path, u), total in zip(requests, got):
            assert _same_bits(total, path.at(u).array)
        for f, path in zip(families, paths):
            pairs = list(zip(f.A_list, f.B_list))
            for u in (0.5, 0.3125, 0.6875, 0.625):
                reference = _looped_mean(pairs[0][0].array, pairs[0][1].array, u)
                for a, b in pairs[1:]:
                    reference = reference + _looped_mean(a.array, b.array, u)
                (total,) = self._sums([(path, u)])
                assert _same_bits(total, reference)

    def test_mixed_sources_equal_the_one_path_results(self):
        # One ``MeanPath.stack`` and one ``MeanPath.sums`` call over pairs
        # whose matrices come from two ``SymMatrix.stack`` calls (two
        # ``sample_matrices`` calls) and from the public constructor, as
        # ``falsify``'s refinement chunks mix them.
        band = DEFAULT_BANDS[2]
        draw = lambda seed: sample_matrices(
            [(3, band.M_lo, band.M_hi, derive_rng(seed, k), k % 2 == 0) for k in range(3)]
            + [(3, band.m_lo, band.m_hi, derive_rng(seed, 3 + k), k % 2 == 1) for k in range(3)])
        first, second = draw(60), draw(61)
        public = [SymMatrix(first[2].array + 0.0), SymMatrix(second[5].array + 0.0)]
        assert first[0]._stack is not second[0]._stack and public[0]._stack is None
        groups = [
            ((first[0], second[0]), (first[3], public[1])),
            ((public[0],), (second[3],)),
            ((second[1], first[1], second[2]), (second[4], first[4], first[5])),
        ]
        paths = MeanPath.stack(groups)
        weights = (0.0, 0.3125, 0.5, 0.875, 1.0)
        requests = [(p, u) for p in paths for u in weights]
        got = self._sums(requests)
        for (path, u), total, (a, b) in zip(requests, got, [g for g in groups for _ in weights]):
            assert _same_bits(total, MeanPath(a, b).at(u).array)
            reference = _looped_mean(a[0].array, b[0].array, u)
            for x, y in zip(a[1:], b[1:]):
                reference = reference + _looped_mean(x.array, y.array, u)
            assert _same_bits(total, reference)

    def test_a_failing_request_raises_its_error(self):
        good = MeanPath.stack([(f.A_list, f.B_list) for f in (
            sample_family(2, 2, DEFAULT_BANDS[0], derive_rng(56, 0)),
        )])[0]
        # Each mean is finite; the sum of the three at weight 0 overflows.
        huge = SymMatrix.diagonal([8e307, 1.0])
        wide = MeanPath((huge,) * 3, (SymMatrix.identity(2),) * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as alone:
                wide.at(0.0)
            assert str(alone.value) == "matrix entries must be finite"
            with pytest.raises(DomainError) as stacked:
                MeanPath.sums([(good, 0.5), (wide, 0.0), (wide, 1.0), (good, 0.25)])
            assert str(stacked.value) == str(alone.value)
            with pytest.raises(DomainError, match=r"^mean weight must lie in \[0, 1\], got 1.5$"):
                MeanPath.sums([(good, 0.5), (good, 1.5), (wide, 1.0)])
            got = self._sums([(good, 0.5), (wide, 1.0), (good, 0.25)])
        assert _same_bits(got[0], good.at(0.5).array)
        assert _same_bits(got[1], wide.at(1.0).array)
        assert _same_bits(got[2], good.at(0.25).array)


class TestPlainPowerStatement:
    """COR_BJ_IDENTITY reads plain powers, so its families factor no mean
    path; a pair that could not enter a mean still fails with the text the
    mean path gives it."""

    @pytest.mark.parametrize("side, message", [
        ("B_list", "right operand is not positive definite (min eigenvalue -1.000000e+00 < 1e-12)"),
        ("A_list", "left operand is not positive definite (min eigenvalue -1.000000e+00 < 1e-12)"),
    ])
    def test_a_non_positive_operand_fails_alike_alone_and_in_a_stage(
        self, side, message, monkeypatch
    ):
        factored = []
        stack = MeanPath.stack

        def spy(groups):
            groups = [(tuple(a), tuple(b)) for a, b in groups]
            factored.extend(groups)
            return stack(groups)

        monkeypatch.setattr(MeanPath, "stack", spy)
        band = DEFAULT_BANDS[1]
        good = sample_family(2, 2, band, derive_rng(57, 0))
        mats = getattr(good, side)
        bad = dataclasses.replace(good, **{side: (mats[0], SymMatrix.diagonal([1.0, -1.0]))})
        ineq, pair = IneqId.COR_BJ_IDENTITY, WITNESS_PAIR
        with pytest.raises(HypothesisError) as alone:
            evaluate_inequality(ineq, bad, pair)
        assert str(alone.value) == message
        # The mean path of the same pairs says the same.
        with pytest.raises(DomainError) as path:
            MeanPath(bad.A_list, bad.B_list)
        assert str(path.value) == message
        other = sample_family(2, 2, band, derive_rng(57, 0))
        got = evaluate_stage([
            (ineq, good, pair, Variant.PAPER_LITERAL),
            (ineq, bad, pair, Variant.PAPER_LITERAL),
        ])
        assert isinstance(got[1], HypothesisError) and str(got[1]) == message
        assert got[0] == evaluate_inequality(ineq, other, pair)
        # Only the mean path built above factored a pair: no evaluation did.
        assert factored == [(bad.A_list, bad.B_list)]


class TestEachAlone:
    """``errors.each_alone``, the one rule of the stacked stages: the
    stacked results, or each item's own result or error."""

    @staticmethod
    def _inverses(calls, error=DomainError):
        def stacked(items):
            calls.append(list(items))
            if 0 in items:
                raise error(f"zero among {items}")
            return [1.0 / x for x in items]

        return stacked

    def test_an_error_lands_in_place_of_its_item(self):
        calls = []
        stacked = self._inverses(calls)
        assert each_alone(stacked, [1, 2, 4]) == [1.0, 0.5, 0.25]
        assert calls == [[1, 2, 4]]
        calls.clear()
        got = each_alone(stacked, (1, 0, 4))
        assert got[0] == 1.0 and got[2] == 0.25
        assert isinstance(got[1], DomainError) and str(got[1]) == "zero among [0]"
        assert calls == [[1, 0, 4], [1], [0, 4], [0], [4]]

    def test_one_failing_item_among_a_stage_is_found_by_halving(self):
        # One failing item among 128 takes 1 + 2 * log2(128) stacked
        # calls, not 128 one-item calls, with the results of the
        # all-alone rule.
        for bad in (0, 37, 127):
            items = [k + 1 for k in range(128)]
            items[bad] = 0
            calls = []
            got = each_alone(self._inverses(calls), items)
            assert len(calls) <= 15
            alone = []
            for item in items:
                try:
                    alone.append(self._inverses([])([item])[0])
                except DomainError as exc:
                    alone.append(exc)
            assert got[:bad] + got[bad + 1:] == alone[:bad] + alone[bad + 1:]
            assert isinstance(got[bad], DomainError) and str(got[bad]) == str(alone[bad])

    def test_any_other_error_propagates(self):
        stacked = self._inverses([], error=ZeroDivisionError)
        with pytest.raises(ZeroDivisionError):
            each_alone(stacked, [1, 0, 4])
        with pytest.raises(ZeroDivisionError):
            each_alone(stacked, [0])
