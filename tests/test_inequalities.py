import numpy as np
import pytest

from callebaut_lab.errors import HypothesisError, ShapeError, VariantError
from callebaut_lab.inequalities import (
    ALPHA_BETA_KIND,
    ALPHA_KIND,
    HADAMARD_SUM_IDS,
    IneqId,
    REPAIRABLE,
    ST_KIND,
    ST_T1_KIND,
    Variant,
    build_links,
    evaluate_inequality,
    inequality_info,
    list_inequalities,
)
from callebaut_lab.matcore import SymMatrix, spectral_norm
from callebaut_lab.sampler import FamilyInstance, SpectralBand, derive_rng, sample_family
from callebaut_lab.scalarcore import ExponentPair, ProofChainParams

WITNESS_BAND = SpectralBand(1.0, 1.0, 4.0, 4.0)
WITNESS_PAIR = ExponentPair(0.75, 1.0)


@pytest.fixture(scope="module")
def witness_instance():
    return sample_family(1, 1, WITNESS_BAND, derive_rng(1, 0))


def _spd_family(n, d, band, stream, a_eq_b=False):
    inst = sample_family(n, d, band, derive_rng(77, stream))
    if a_eq_b:
        return FamilyInstance(
            n=n, dim=d, A_list=inst.A_list, B_list=inst.A_list, band=band
        )
    return inst


class TestRegistry:
    def test_twelve_ids(self):
        infos = list_inequalities()
        assert len(infos) == 12
        assert {i.ineq for i in infos} == set(IneqId)

    def test_variant_flags(self):
        maman = inequality_info(IneqId.HAD_MAMAN)
        assert maman.variants == (Variant.PAPER_LITERAL, Variant.REPAIRED)
        wada = inequality_info(IneqId.WADA)
        assert wada.variants == (Variant.PAPER_LITERAL,)
        assert {i for i in IneqId if Variant.REPAIRED in inequality_info(i).variants} == set(
            REPAIRABLE
        )

    def test_repaired_undefined_is_error(self, witness_instance):
        with pytest.raises(VariantError):
            evaluate_inequality(
                IneqId.CHAIN_34RF, witness_instance, WITNESS_PAIR, Variant.REPAIRED
            )


class TestWitnessValues:
    """Frozen goldens, re-derived through the scalar closed forms by hand:
    at A=[4], B=[1], band (1,1,4,4), s=3/4, t=1 the Kantorovich arguments are
    4 (literal) and 2 (repaired), r' = 1/2, and the tensor sums are
    P_s = 3 sqrt(2), P_t = 5."""

    def test_tensor_tool_literal(self, witness_instance):
        r = evaluate_inequality(IneqId.TENSOR_TOOL, witness_instance, WITNESS_PAIR)
        assert r.gap.min_eig == pytest.approx(-0.8033008588991066, abs=1e-12)
        assert not r.satisfied and r.witness is not None

    def test_tensor_tool_repaired(self, witness_instance):
        r = evaluate_inequality(
            IneqId.TENSOR_TOOL, witness_instance, WITNESS_PAIR, Variant.REPAIRED
        )
        assert abs(r.gap.min_eig) <= 1e-12
        assert r.satisfied and r.witness is None

    def test_had_maman_literal(self, witness_instance):
        r = evaluate_inequality(IneqId.HAD_MAMAN, witness_instance, WITNESS_PAIR)
        assert r.gap.min_eig == pytest.approx(-1.0, abs=1e-12)

    def test_had_maman_repaired(self, witness_instance):
        r = evaluate_inequality(
            IneqId.HAD_MAMAN, witness_instance, WITNESS_PAIR, Variant.REPAIRED
        )
        assert abs(r.gap.min_eig) <= 1e-12

    def test_rev_tensor_dear_literal(self, witness_instance):
        r = evaluate_inequality(IneqId.REV_TENSOR_DEAR, witness_instance, WITNESS_PAIR)
        assert r.gap.min_eig == pytest.approx(-1.1058874503045715, abs=1e-12)

    def test_rev_had_mainth_literal(self, witness_instance):
        r = evaluate_inequality(IneqId.REV_HAD_MAINTH, witness_instance, WITNESS_PAIR)
        assert r.gap.min_eig == pytest.approx(-0.8, abs=1e-12)

    def test_rev_t1_literal(self, witness_instance):
        r = evaluate_inequality(IneqId.REV_T1_REMARK, witness_instance, WITNESS_PAIR)
        assert r.gap.min_eig == pytest.approx(-0.8, abs=1e-12)

    def test_reverse_repaired_hold_at_witness(self, witness_instance):
        for ineq in (IneqId.REV_TENSOR_DEAR, IneqId.REV_HAD_MAINTH, IneqId.REV_T1_REMARK):
            r = evaluate_inequality(ineq, witness_instance, WITNESS_PAIR, Variant.REPAIRED)
            assert r.gap.min_eig >= -1e-12


class TestChains:
    def test_chain_34rf_equal_families_all_zero(self):
        band = SpectralBand(0.5, 1.0, 2.0, 8.0)
        inst = _spd_family(2, 3, band, 0, a_eq_b=True)
        r = evaluate_inequality(IneqId.CHAIN_34RF, inst, ExponentPair(0.625, 0.9375))
        for link in r.links:
            assert abs(link.gap.rel_gap) <= 1e-9

    def test_chain_34rf_link_names(self):
        band = SpectralBand(0.5, 1.0, 2.0, 8.0)
        inst = _spd_family(2, 2, band, 1)
        r = evaluate_inequality(IneqId.CHAIN_34RF, inst, ExponentPair(0.625, 0.9375))
        assert [l.name for l in r.links] == ["geo_vs_s", "s_vs_t", "t_vs_sums"]
        assert r.gap.rel_gap == min(l.gap.rel_gap for l in r.links)

    def test_reported_norms_are_the_worst_links(self):
        band = SpectralBand(0.5, 1.0, 2.0, 8.0)
        inst = _spd_family(2, 3, band, 1)
        pair = ExponentPair(0.875, 0.9375)
        r = evaluate_inequality(IneqId.CHAIN_34RF, inst, pair)
        gaps = [l.gap.rel_gap for l in r.links]
        # The middle link is the worst here, so the first link's norms would fail.
        assert gaps.index(min(gaps)) == 1
        links = build_links(IneqId.CHAIN_34RF, inst, pair)
        _, lhs, rhs = links[1]
        assert r.lhs_norm == spectral_norm(lhs)
        assert r.rhs_norm == spectral_norm(rhs)
        assert r.lhs_norm != r.rhs_norm

    def test_maman2_at_s_equals_t_reduces_to_middle_link(self):
        band = SpectralBand(0.1, 0.2, 5.0, 10.0)
        inst = _spd_family(3, 3, band, 2)
        pair = ExponentPair(0.75, 0.75)
        r2 = evaluate_inequality(IneqId.HAD_MAMAN2, inst, pair)
        chain = evaluate_inequality(IneqId.CHAIN_34RF, inst, pair)
        main = next(l for l in r2.links if l.name == "main")
        middle = next(l for l in chain.links if l.name == "s_vs_t")
        assert main.gap.min_eig == pytest.approx(middle.gap.min_eig, abs=1e-12)

    def test_wada_holds(self):
        band = SpectralBand(0.5, 1.0, 2.0, 8.0)
        for stream, alpha in enumerate((0.0, 0.125, 0.5, 0.875, 1.0)):
            inst = _spd_family(1, 3, band, 10 + stream)
            r = evaluate_inequality(IneqId.WADA, inst, alpha)
            assert r.satisfied, (alpha, r.gap)

    def test_proof_chain_holds_both_signs(self):
        band = SpectralBand(0.5, 1.0, 2.0, 8.0)
        inst = _spd_family(1, 2, band, 20)
        for params in (ProofChainParams(1.0, 0.25), ProofChainParams(-0.75, -0.25)):
            r = evaluate_inequality(IneqId.PROOF_CHAIN, inst, params)
            assert r.satisfied, (params, r.gap)
            assert [l.name for l in r.links] == [
                "pointwise_spectrum",
                "ratio_powers",
                "shifted_powers",
            ]


class TestSweeps:
    BANDS = (
        SpectralBand(1.0, 1.0, 4.0, 4.0),
        SpectralBand(0.5, 1.0, 2.0, 8.0),
        SpectralBand(0.1, 0.2, 5.0, 10.0),
    )
    PAIRS = (
        ExponentPair(0.75, 1.0),
        ExponentPair(9 / 16, 13 / 16),
        ExponentPair(0.25, 0.125),
        ExponentPair(7 / 16, 3 / 16),
    )

    def test_expected_true_family_ids(self):
        for stream in range(24):
            band = self.BANDS[stream % 3]
            pair = self.PAIRS[stream % 4]
            inst = _spd_family(1 + stream % 3, 1 + stream % 4, band, 100 + stream)
            for ineq in (IneqId.CHAIN_34RF, IneqId.MOJ_MO, IneqId.HAD_MAMAN2, IneqId.COR_BJ_IDENTITY):
                r = evaluate_inequality(ineq, inst, pair)
                assert r.satisfied, (ineq, stream, r.gap)

    def test_repaired_ids_hold(self):
        for stream in range(24):
            band = self.BANDS[stream % 3]
            pair = self.PAIRS[stream % 4]
            n, d = 1 + stream % 3, 1 + stream % 4
            inst = _spd_family(n, d, band, 200 + stream)
            for ineq in REPAIRABLE:
                if ineq == IneqId.REV_T1_REMARK and pair.t != 1.0:
                    continue
                use = inst
                if ineq in (IneqId.TENSOR_TOOL, IneqId.REV_TENSOR_DEAR):
                    use = _spd_family(1, d, band, 200 + stream)
                r = evaluate_inequality(ineq, use, pair, Variant.REPAIRED)
                assert r.satisfied, (ineq, stream, r.gap)

    def test_scale_covariance_had_maman(self):
        band = SpectralBand(0.5, 1.0, 2.0, 8.0)
        inst = _spd_family(2, 3, band, 300)
        c = 10.0
        scaled = FamilyInstance(
            n=inst.n,
            dim=inst.dim,
            A_list=tuple(c * a for a in inst.A_list),
            B_list=tuple(c * b for b in inst.B_list),
            band=SpectralBand(*(c * v for v in band.as_tuple())),
        )
        for variant in (Variant.PAPER_LITERAL, Variant.REPAIRED):
            base = evaluate_inequality(IneqId.HAD_MAMAN, inst, WITNESS_PAIR, variant)
            big = evaluate_inequality(IneqId.HAD_MAMAN, scaled, WITNESS_PAIR, variant)
            assert big.lhs_norm == pytest.approx(base.lhs_norm * c * c, rel=1e-10)
            assert big.rhs_norm == pytest.approx(base.rhs_norm * c * c, rel=1e-10)
            assert big.gap.rel_gap == pytest.approx(base.gap.rel_gap, abs=1e-11)
            assert big.satisfied == base.satisfied


class TestHypotheses:
    def test_band_containment_enforced(self):
        inst = FamilyInstance(
            n=1,
            dim=1,
            A_list=(SymMatrix(np.array([[9.0]])),),
            B_list=(SymMatrix(np.array([[1.0]])),),
            band=WITNESS_BAND,
        )
        with pytest.raises(HypothesisError, match="band"):
            evaluate_inequality(IneqId.HAD_MAMAN, inst, WITNESS_PAIR)

    def test_band_free_ids_skip_containment(self):
        inst = FamilyInstance(
            n=1,
            dim=1,
            A_list=(SymMatrix(np.array([[9.0]])),),
            B_list=(SymMatrix(np.array([[1.0]])),),
            band=WITNESS_BAND,
        )
        r = evaluate_inequality(IneqId.CHAIN_34RF, inst, WITNESS_PAIR)
        assert r.satisfied

    def test_rev_t1_requires_t_equal_one(self, witness_instance):
        for t in (0.875, 0.9375):
            with pytest.raises(HypothesisError, match="fixes t = 1"):
                evaluate_inequality(
                    IneqId.REV_T1_REMARK, witness_instance, ExponentPair(0.75, t)
                )

    def test_wada_weight_must_lie_in_unit_interval(self, witness_instance):
        # Anchored: the matrix path's own check says "mean weight must ...".
        with pytest.raises(HypothesisError, match=r"^weight must lie in \[0, 1\], got 1\.5$"):
            evaluate_inequality(IneqId.WADA, witness_instance, 1.5)

    def test_moj_mo_excludes_s_near_half(self):
        band = SpectralBand(0.5, 1.0, 2.0, 8.0)
        inst = _spd_family(1, 2, band, 400)
        with pytest.raises(HypothesisError, match="s ="):
            evaluate_inequality(IneqId.MOJ_MO, inst, ExponentPair(0.5 + 1e-9, 1.0))

    def test_pair_ids_reject_families(self):
        band = SpectralBand(0.5, 1.0, 2.0, 8.0)
        inst = _spd_family(2, 2, band, 500)
        with pytest.raises(HypothesisError, match="single pair"):
            evaluate_inequality(IneqId.TENSOR_TOOL, inst, WITNESS_PAIR)

    def test_operand_tuple_is_shape_error(self):
        # Pair-shaped statements take the one-pair FamilyInstance, not (A, B).
        pair = (SymMatrix(np.array([[4.0]])), SymMatrix(np.array([[1.0]])))
        for ineq in (IneqId.TENSOR_TOOL, IneqId.CHAIN_34RF):
            with pytest.raises(ShapeError, match="FamilyInstance"):
                evaluate_inequality(ineq, pair, WITNESS_PAIR)

    def test_non_spd_input_is_hypothesis_violation(self):
        inst = FamilyInstance(
            n=1,
            dim=2,
            A_list=(SymMatrix.diagonal([3.0, -1.0]),),
            B_list=(SymMatrix.identity(2),),
            band=WITNESS_BAND,
        )
        with pytest.raises(HypothesisError, match="positive definite"):
            evaluate_inequality(IneqId.CHAIN_34RF, inst, WITNESS_PAIR)

    def test_witness_payload_iff_violated(self, witness_instance):
        bad = evaluate_inequality(IneqId.HAD_MAMAN, witness_instance, WITNESS_PAIR)
        good = evaluate_inequality(
            IneqId.HAD_MAMAN, witness_instance, WITNESS_PAIR, Variant.REPAIRED
        )
        assert (bad.witness is not None) == (not bad.satisfied)
        assert good.witness is None and good.satisfied
        assert bad.witness["A_list"] == [[[4.0]]]
        assert bad.witness["params"] == {"s": 0.75, "t": 1.0}


def test_hadamard_sum_ids_cover_the_diagonalizable_statements():
    assert HADAMARD_SUM_IDS == (
        IneqId.CHAIN_34RF,
        IneqId.MOJ_MO,
        IneqId.HAD_MAMAN,
        IneqId.HAD_MAMAN2,
        IneqId.COR_BJ_IDENTITY,
        IneqId.REV_HAD_MAINTH,
        IneqId.REV_T1_REMARK,
        IneqId.PROP_HBOUNDS,
    )


#: One parameter value of each ``ParamKind`` a pair-shaped statement takes.
_PAIR_PARAMS = {
    ALPHA_KIND: 0.5,
    ST_KIND: WITNESS_PAIR,
    ALPHA_BETA_KIND: ProofChainParams(1.0, 0.25),
}


@pytest.mark.parametrize(
    "ineq, kind",
    [
        (ineq, kind)
        for ineq in IneqId
        if inequality_info(ineq).takes_pair
        for kind in _PAIR_PARAMS
        if kind is not inequality_info(ineq).kind
    ],
    ids=lambda v: v.value if isinstance(v, IneqId) else v.name,
)
def test_wrong_parameter_type_is_hypothesis_error(ineq, kind):
    pair = FamilyInstance(
        n=1,
        dim=1,
        A_list=(SymMatrix(np.array([[4.0]])),),
        B_list=(SymMatrix(np.array([[1.0]])),),
        band=WITNESS_BAND,
    )
    with pytest.raises(HypothesisError, match="parameters"):
        evaluate_inequality(ineq, pair, _PAIR_PARAMS[kind])


def test_every_kind_sweeps_only_values_it_admits():
    kinds = {info.kind for info in list_inequalities()}
    assert kinds == {ALPHA_KIND, ALPHA_BETA_KIND, ST_KIND, ST_T1_KIND}
    for kind in kinds:
        assert kind.values
        assert all(isinstance(p, kind.type) and kind.holds(p) for p in kind.values)
