import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from callebaut_lab.cli import DEFAULT_BANDS
from callebaut_lab.errors import ConfigError, HypothesisError, ShapeError
from callebaut_lab.inequalities import (
    HADAMARD_SUM_IDS,
    ST_KIND,
    IneqId,
    Variant,
    build_links,
    evaluate_inequality,
    evaluate_stage,
)
from callebaut_lab.matcore import SymMatrix, sym_eigen
from callebaut_lab.oracle import (
    BUILTIN_WITNESSES,
    WitnessRecord,
    diagonal_equivalence,
    dump_catalog,
    load_catalog,
    oracle_pow,
    replay_witnesses,
    scalar_min_gap,
)
from callebaut_lab.sampler import FamilyInstance, SpectralBand, derive_rng, sample_family
from callebaut_lab.scalarcore import ExponentPair, ProofChainParams, chain_callebaut_gaps

BAND = SpectralBand(0.5, 1.0, 2.0, 8.0)


def _diag_instance(n, d, stream, band=BAND, a_eq_b=False):
    rng = derive_rng(31, stream)
    a = tuple(
        SymMatrix(np.diag([rng.uniform_in(band.M_lo, band.M_hi) for _ in range(d)]))
        for _ in range(n)
    )
    if a_eq_b:
        return FamilyInstance(n=n, dim=d, A_list=a, B_list=a, band=band)
    b = tuple(
        SymMatrix(np.diag([rng.uniform_in(band.m_lo, band.m_hi) for _ in range(d)]))
        for _ in range(n)
    )
    return FamilyInstance(n=n, dim=d, A_list=a, B_list=b, band=band)


def _pair_for(ineq, stream):
    if ineq == IneqId.REV_T1_REMARK:
        return ExponentPair(9 / 16 + (stream % 7) / 16, 1.0)
    options = (
        ExponentPair(0.75, 1.0),
        ExponentPair(9 / 16, 13 / 16),
        ExponentPair(0.25, 0.125),
        ExponentPair(7 / 16, 3 / 16),
    )
    return options[stream % 4]


class TestOraclePow:
    def test_integer_powers_exact(self):
        assert oracle_pow(2.0, 3.0) == 8.0
        assert oracle_pow(5.0, 0.0) == 1.0
        assert oracle_pow(2.0, -2.0) == 0.25

    def test_half_powers(self):
        assert oracle_pow(4.0, 0.5) == pytest.approx(2.0, abs=1e-15)
        assert oracle_pow(2.0, 1.5) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)
        assert oracle_pow(4.0, -0.5) == pytest.approx(0.5, rel=1e-15)

    def test_general_matches_libm(self):
        rng = derive_rng(1, 1)
        for _ in range(200):
            x = 10.0 ** rng.uniform_in(-3, 3)
            p = rng.uniform_in(-1, 1)
            assert oracle_pow(x, p) == pytest.approx(x ** p, rel=1e-13)


class TestDiagonalEquivalence:
    def test_all_hadamard_sum_ids(self):
        for ineq in HADAMARD_SUM_IDS:
            for stream in range(20):
                inst = _diag_instance(1 + stream % 3, 1 + stream % 3, stream)
                pair = _pair_for(ineq, stream)
                disc = diagonal_equivalence(ineq, inst, pair)
                scale = max(
                    1.0, max(np.abs(m.array).max() for m in inst.A_list) ** 2 * inst.n ** 2
                )
                assert disc <= 1e-10 * scale, (ineq, stream, disc)

    def test_repaired_variants_too(self):
        for ineq in (IneqId.HAD_MAMAN, IneqId.REV_HAD_MAINTH, IneqId.PROP_HBOUNDS):
            inst = _diag_instance(2, 3, 41)
            disc = diagonal_equivalence(ineq, inst, ExponentPair(0.75, 1.0), Variant.REPAIRED)
            assert disc <= 1e-10 * 100

    def test_equal_families(self):
        inst = _diag_instance(2, 2, 7, a_eq_b=True)
        disc = diagonal_equivalence(IneqId.CHAIN_34RF, inst, _pair_for(IneqId.CHAIN_34RF, 0))
        assert disc <= 1e-12 * max(np.abs(inst.A_list[0].array).max() ** 2 * 4, 1.0)

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    @pytest.mark.parametrize(
        "ineq", [IneqId.TENSOR_TOOL, IneqId.REV_TENSOR_DEAR], ids=lambda i: i.value
    )
    def test_tensor_ids_on_1x1_pairs(self, ineq, variant):
        for k, pair in enumerate(ST_KIND.values):
            inst = _diag_instance(1, 1, 200 + k)
            disc = diagonal_equivalence(ineq, inst, pair, variant)
            assert disc <= 1e-12, (pair, disc)

    @pytest.mark.parametrize(
        "ineq, params",
        [(IneqId.WADA, 0.5), (IneqId.PROOF_CHAIN, ProofChainParams(1.0, 0.25))],
        ids=["WADA", "PROOF_CHAIN"],
    )
    def test_no_scalar_reduction_for_wada_and_proof_chain(self, ineq, params):
        with pytest.raises(ShapeError, match="no scalar reduction"):
            scalar_min_gap(ineq, _diag_instance(1, 1, 3), params)

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    @pytest.mark.parametrize(
        "ineq", [IneqId.TENSOR_TOOL, IneqId.REV_TENSOR_DEAR], ids=lambda i: i.value
    )
    def test_tensor_ids_on_diagonal_pairs(self, ineq, variant):
        # A x B of diagonal d x d matrices is diagonal with entry a_i b_j at
        # i*d + j, so every (a_i, b_j) is one scalar pair.
        for k, pair in enumerate(ST_KIND.values):
            band, d = DEFAULT_BANDS[k % 3], 2 + k % 3
            inst = _diag_instance(1, d, 300 + k, band=band)
            scale = max(1.0, *(np.abs(m.array).max() for m in inst.A_list + inst.B_list))
            disc = diagonal_equivalence(ineq, inst, pair, variant)
            assert disc <= 1e-12 * scale, (pair, band, d, disc)
            report = evaluate_inequality(ineq, inst, pair, variant)
            m = min(l.gap.min_eig for l in report.links)
            s = scalar_min_gap(ineq, inst, pair, variant)
            assert s == pytest.approx(m, abs=1e-10), (pair, band, d)

    @pytest.mark.parametrize("check", [scalar_min_gap, diagonal_equivalence])
    @pytest.mark.parametrize(
        "ineq", [IneqId.TENSOR_TOOL, IneqId.REV_TENSOR_DEAR], ids=lambda i: i.value
    )
    def test_tensor_ids_need_a_single_pair(self, ineq, check):
        with pytest.raises(HypothesisError, match="single pair, got n = 2"):
            check(ineq, _diag_instance(2, 2, 5), ExponentPair(0.75, 1.0))

    def test_rejects_non_diagonal(self):
        inst = FamilyInstance(
            n=1,
            dim=2,
            A_list=(SymMatrix(np.array([[3.0, 0.1], [0.1, 3.0]])),),
            B_list=(SymMatrix(np.eye(2) * 0.7),),
            band=BAND,
        )
        with pytest.raises(ShapeError, match="diagonal"):
            diagonal_equivalence(IneqId.CHAIN_34RF, inst, ExponentPair(0.75, 1.0))

    def test_chain_reduces_to_scalar_chain(self):
        # d = 1 diagonal family: the three link gaps coincide with the scalar
        # chain evaluated on the entry tuples.
        inst = _diag_instance(2, 1, 55)
        pair = ExponentPair(0.625, 0.875)
        report = evaluate_inequality(IneqId.CHAIN_34RF, inst, pair)
        x = tuple(m.array[0, 0] for m in inst.A_list)
        y = tuple(m.array[0, 0] for m in inst.B_list)
        expected = chain_callebaut_gaps(x, y, pair)
        got = [l.gap.min_eig for l in report.links]
        for g, e in zip(got, expected):
            assert g == pytest.approx(e, abs=1e-10)


class TestWitnessReplay:
    def test_builtin_all_pass(self):
        outcomes = replay_witnesses()
        assert len(outcomes) == len(BUILTIN_WITNESSES) == 7
        for out in outcomes:
            assert out.passed, out.message

    def test_scalar_and_matrix_paths_agree(self):
        for out in replay_witnesses():
            assert out.matrix_gap == pytest.approx(out.scalar_gap, abs=1e-11)

    def test_catalog_roundtrip(self, tmp_path):
        path = tmp_path / "witnesses.jsonl"
        dump_catalog(BUILTIN_WITNESSES, path)
        loaded = load_catalog(path)
        assert loaded == list(BUILTIN_WITNESSES)
        verdicts = [o.passed for o in replay_witnesses(loaded)]
        assert verdicts == [o.passed for o in replay_witnesses()]

    def test_empty_catalog(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert replay_witnesses(load_catalog(path)) == []

    def test_mismatch_reported(self):
        rec = BUILTIN_WITNESSES[0]
        broken = dataclasses.replace(rec, expected_gap=rec.expected_gap + 1.0)
        out = replay_witnesses([broken])[0]
        assert not out.passed
        assert "TENSOR_TOOL" in out.message

    def test_unevaluable_record_fails_cleanly(self):
        rec = BUILTIN_WITNESSES[0]
        broken = WitnessRecord(
            ineq=rec.ineq,
            variant=rec.variant,
            family=FamilyInstance(
                n=1,
                dim=2,
                A_list=(SymMatrix(np.array([[3.0, 0.5], [0.5, 3.0]])),),
                B_list=(SymMatrix(np.eye(2)),),
                band=rec.family.band,
            ),
            pair=rec.pair,
            expected_gap=rec.expected_gap,
            tolerance=rec.tolerance,
        )
        out = replay_witnesses([broken])[0]
        assert not out.passed and "TENSOR_TOOL" in out.message

    def test_scalar_failure_keeps_the_matrix_gap(self):
        # A non-diagonal pair inside its band: the matrix path measures it,
        # the scalar oracle cannot reduce it.
        rec = BUILTIN_WITNESSES[0]
        family = FamilyInstance(
            n=1,
            dim=2,
            A_list=(SymMatrix(np.array([[3.0, 0.5], [0.5, 3.0]])),),
            B_list=(SymMatrix(np.eye(2)),),
            band=SpectralBand(1.0, 1.0, 2.0, 4.0),
        )
        out = replay_witnesses([dataclasses.replace(rec, family=family)])[0]
        measured = evaluate_inequality(rec.ineq, family, rec.pair, rec.variant).gap.min_eig
        assert math.isfinite(measured) and out.matrix_gap == measured
        assert math.isnan(out.scalar_gap) and not out.passed
        assert out.message == "TENSOR_TOOL/paper: diagonal cross-check requires diagonal matrices"

    def test_overflowing_catalog_line_is_config_error_without_warning(self, tmp_path):
        # Symmetrizing 1e308 entries overflows; the finiteness check rejects
        # the line, and NumPy prints no RuntimeWarning first.
        record = {
            **BUILTIN_WITNESSES[0].to_dict(),
            "dim": 2,
            "A_list": [[[1e308, 1e308], [1e308, 1e308]]],
            "B_list": [[[1.0, 0.0], [0.0, 1.0]]],
        }
        path = tmp_path / "overflow.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="finite"):
                load_catalog(path)

    @pytest.mark.parametrize("ineq, params, kind", [
        ("PROOF_CHAIN", {"s": 0.1875, "t": 0.0}, "ProofChainParams"),
        ("WADA", {"s": 0.75, "t": 1.0}, "Real"),
    ])
    def test_a_record_of_an_id_without_exponent_pairs_fails_to_load(self, tmp_path, ineq, params, kind):
        # A record's params are (s, t); these ids take other parameters, so
        # the line could never replay.
        record = {**BUILTIN_WITNESSES[0].to_dict(), "id": ineq, "params": params}
        path = tmp_path / "other_kind.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ConfigError, match=f"{ineq} takes {kind} parameters, not \\(s, t\\)"):
            load_catalog(path)

    @pytest.mark.parametrize("field, value, message", [
        ("tolerance", math.inf, "tolerance must be finite and >= 0, got inf"),
        ("tolerance", -math.inf, "tolerance must be finite and >= 0, got -inf"),
        ("tolerance", math.nan, "tolerance must be finite and >= 0, got nan"),
        ("tolerance", -1e-9, "tolerance must be finite and >= 0, got -1e-09"),
        ("expected_gap", math.inf, "expected_gap must be finite, got inf"),
        ("expected_gap", -math.inf, "expected_gap must be finite, got -inf"),
        ("expected_gap", math.nan, "expected_gap must be finite, got nan"),
    ])
    def test_a_tolerance_or_gap_that_cannot_replay_fails_to_load(self, tmp_path, field, value, message):
        # json writes these as Infinity, -Infinity and NaN, and reads them
        # back.  An infinite tolerance passed every replay (a matrix gap of
        # -0.18 against an expected 123), and a negative or NaN one failed
        # every replay with no reason given.
        record = {**BUILTIN_WITNESSES[0].to_dict(), "A_list": [[[3.0]]], "band": [1.0, 1.0, 2.0, 4.0],
                  "expected_gap": 123.0, "tolerance": 1e-9, field: value}
        path = tmp_path / "bad_tolerance.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ConfigError, match=f"^{path}:1: not a witness record \\(ValueError: {message}\\)$"):
            load_catalog(path)

    def test_a_zero_tolerance_loads_and_asks_for_the_exact_gap(self, tmp_path):
        # Both paths miss HAD_MAMAN/repaired's 0 by one ulp of 4.
        record = {**BUILTIN_WITNESSES[3].to_dict(), "tolerance": 0.0}
        path = tmp_path / "exact.jsonl"
        path.write_text(json.dumps(record) + "\n")
        (loaded,) = load_catalog(path)
        assert loaded.tolerance == 0.0 and not replay_witnesses([loaded])[0].passed

    def test_scalar_min_gap_matches_matrix_on_diagonals(self):
        # scalar_min_gap is the minimum absolute gap over links and entries;
        # on diagonal instances that equals the minimum link min_eig.
        inst = _diag_instance(2, 3, 91)
        pair = ExponentPair(0.75, 1.0)
        for ineq in (IneqId.HAD_MAMAN, IneqId.HAD_MAMAN2, IneqId.REV_HAD_MAINTH):
            report = evaluate_inequality(ineq, inst, pair)
            m = min(l.gap.min_eig for l in report.links)
            s = scalar_min_gap(ineq, inst, pair)
            assert m == pytest.approx(s, abs=1e-10)


def test_tensor_links_on_non_diagonal_pairs_match_their_eigenvalue_pairs():
    # A sum of f(A) x g(B) is diagonal in Q_A x Q_B, so the smallest
    # eigenvalue of a tensor link on a non-diagonal pair is the scalar
    # gap on the diagonal pair of the two spectra (Horn & Johnson,
    # Topics in Matrix Analysis, 4.2).
    trials, k = [], 0
    for band in DEFAULT_BANDS:
        for ineq in (IneqId.TENSOR_TOOL, IneqId.REV_TENSOR_DEAR):
            for variant in Variant:
                for pair in ST_KIND.values:
                    family = sample_family(1, 2 + k % 3, band, derive_rng(93, k), k % 2 == 0)
                    trials.append((ineq, family, pair, variant))
                    k += 1
    for (ineq, family, pair, variant), report in zip(trials, evaluate_stage(trials)):
        a, b = family.A_list[0], family.B_list[0]
        assert not (a.is_diagonal() and b.is_diagonal())
        spectra = FamilyInstance(
            n=1, dim=family.dim,
            A_list=(SymMatrix.diagonal(sym_eigen(a).eigenvalues),),
            B_list=(SymMatrix.diagonal(sym_eigen(b).eigenvalues),),
            band=family.band,
        )
        expected = scalar_min_gap(ineq, spectra, pair, variant)
        [(_, lhs, rhs)] = build_links(ineq, family, pair, variant)
        scale = max(1.0, np.abs(lhs.array).max(), np.abs(rhs.array).max())
        assert abs(report.gap.min_eig - expected) <= 1e-12 * scale, (ineq, pair, variant)
