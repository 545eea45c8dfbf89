import copy
import dataclasses
import functools
import math
import operator
import pickle
import warnings

import numpy as np
import pytest

from callebaut_lab import inequalities
from callebaut_lab.cli import DEFAULT_BANDS
from callebaut_lab.errors import (
    CallebautLabError,
    DomainError,
    ITEM_ERRORS,
    HypothesisError,
    ShapeError,
    VariantError,
    each_alone,
)
from callebaut_lab.inequalities import (
    ALPHA_BETA_KIND,
    ALPHA_KIND,
    HADAMARD_SUM_IDS,
    IneqId,
    IneqReport,
    LinkReport,
    REPAIRABLE,
    ST_KIND,
    ST_T1_KIND,
    Variant,
    Weights,
    build_links,
    evaluate_inequality,
    evaluate_stage,
    inequality_info,
    list_inequalities,
)
from callebaut_lab.matcore import (
    EIG_FLOOR,
    LoewnerGap,
    MeanPath,
    SymMatrix,
    hadamard,
    kron,
    spectral_norm,
    spectral_pow,
    sym_eigen,
)
from callebaut_lab.sampler import (
    FamilyInstance,
    SpectralBand,
    derive_rng,
    sample_families,
    sample_family,
)
from callebaut_lab.scalarcore import (
    ExponentPair,
    ProofChainParams,
    kantorovich,
    kantorovich_min_over_interval,
    printed_weight,
)

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


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize(
    "ineq", [IneqId.TENSOR_TOOL, IneqId.REV_TENSOR_DEAR], ids=lambda i: i.value
)
def test_tensor_links_are_the_printed_statement(ineq, variant):
    # P_u = A^u x B^(1-u) + A^(1-u) x B^u, written out here from the matrix
    # primitives; the links must equal it bit for bit on non-diagonal pairs.
    band = SpectralBand(0.1, 0.2, 5.0, 10.0)

    def p(a, b, u):
        return kron(spectral_pow(a, u), spectral_pow(b, 1.0 - u)) + kron(
            spectral_pow(a, 1.0 - u), spectral_pow(b, u)
        )

    for k, pair in enumerate(ST_KIND.values):
        pair_inst = sample_family(1, 2 + k % 3, band, derive_rng(5, k))
        a, b = pair_inst.A_list[0], pair_inst.B_list[0]
        p_s, p_t = p(a, b, pair.s), p(a, b, pair.t)
        excess = p_t - 2.0 * kron(spectral_pow(a, 0.5), spectral_pow(b, 0.5))
        sign = 1.0 if ineq == IneqId.TENSOR_TOOL else -1.0
        if variant == Variant.REPAIRED:
            c = (band.M_lo / band.m_hi) ** abs(pair.t - 0.5)
            weight = kantorovich(c) ** (sign * pair.r_prime_st)
        else:
            weight = printed_weight(band, 2.0 * pair.t - 1.0, sign * pair.r_prime_st)
        if ineq == IneqId.TENSOR_TOOL:
            expected = (weight * p_s + pair.c_mid * excess, p_t)
        else:
            coeff = pair.c_rev_repair if variant == Variant.REPAIRED else pair.c_rev_paper
            expected = (p_t, weight * p_s + coeff * excess)
        [(name, lhs, rhs)] = build_links(ineq, pair_inst, pair, variant)
        assert name == "main"
        assert not lhs.is_diagonal()
        assert np.array_equal(lhs.array, expected[0].array), (k, pair)
        assert np.array_equal(rhs.array, expected[1].array), (k, pair)


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


def sum_matrices(mats):
    """``mats[0] + mats[1] + ...``, left to right, one ``SymMatrix`` at a time."""
    return functools.reduce(operator.add, mats)


def _reference_pow(a, p):
    """The per-matrix spectral power that the stacked one replaced: the
    floor check, ``np.power`` on one spectrum, one rebuild and the public
    constructor's symmetrisation."""
    p = float(p)
    eig = sym_eigen(a)
    if not (p >= 0.0 and p.is_integer()) and eig.eigenvalues[0] < EIG_FLOOR:
        raise DomainError(
            f"spectral power {p} requires eigenvalues >= {EIG_FLOOR:g}; "
            f"smallest is {eig.eigenvalues[0]:.6e}"
        )
    q = eig.eigenvectors
    return SymMatrix((q * np.power(eig.eigenvalues, p)) @ q.T)


def _reference_kron(x, y):
    return SymMatrix(np.kron(x.array, y.array))


def _reference_sum(ineq, family, key):
    """A power sum of a record's weights the per-trial way, one matrix at a time:
    ``A^p x B^q + A^q x B^p`` or ``sum_j A_j^u``."""
    if ineq == IneqId.COR_BJ_IDENTITY:
        return sum_matrices([_reference_pow(a, key) for a in family.A_list])
    a, b = family.A_list[0], family.B_list[0]
    p, q = key
    return _reference_kron(_reference_pow(a, p), _reference_pow(b, q)) + _reference_kron(
        _reference_pow(a, q), _reference_pow(b, p)
    )


def _power_factors(ineq, family, key):
    """The ``(matrix, exponent)`` factors of a power sum of a record's weights,
    in the order the per-trial sum raises them."""
    if ineq == IneqId.COR_BJ_IDENTITY:
        return [(a, key) for a in family.A_list]
    a, b = family.A_list[0], family.B_list[0]
    p, q = key
    return [(a, p), (b, q), (a, q), (b, p)]


def _declared_keys(ineq, params, variant):
    """The stored sum of each weight name that a trial's record declares:
    ``(u, 1 - u)`` for a pair's ``S`` name, the weight itself for a
    ``sums`` name (a pair's ``(p, q)``, a family's ``u``)."""
    weights = inequality_info(ineq).weights[variant._name_]

    def value(weight):
        return weight(params) if callable(weight) else weight

    keys = {name: (value(w), 1.0 - value(w)) for name, w in weights.S.items()}
    keys.update((name, value(w)) for name, w in weights.sums.items())
    return keys


def _reference_sums(ineq, family, params, variant):
    """The power sums of one trial the per-trial way, by weight name, or
    the error that the trial alone raises: its first power that fails, in
    the order of its record's weights, else its first product or sum that
    is not finite."""
    names = _declared_keys(ineq, params, variant)
    try:
        with np.errstate(all="ignore"):
            for key in dict.fromkeys(names.values()):
                for m, p in _power_factors(ineq, family, key):
                    _reference_pow(m, p)
            return {name: _reference_sum(ineq, family, key) for name, key in names.items()}
    except DomainError as exc:
        return exc


def _bits_or_text(value):
    """An error's type and text, or a ``SymMatrix``'s or an array's shape
    and bytes."""
    if isinstance(value, Exception):
        return type(value), str(value)
    arr = np.ascontiguousarray(getattr(value, "array", value))
    return arr.shape, arr.tobytes()


def _links_by_trial(trials):
    """``_build_stage``'s links as one list per trial, row by row, or the
    trial's error: the form ``each_alone`` reads."""
    out, groups = inequalities._build_stage(trials)
    for _, ks, links in groups:
        for r, k in enumerate(ks):
            out[k] = [(name, lhs[r], rhs[r]) for name, lhs, rhs in links]
    return out


def _failing_power_families():
    """Pairs and families whose power sums fail: a spectrum below the floor
    on either side, powers that overflow, Kronecker products of finite
    powers that overflow (after a factor below the floor, for PROOF_CHAIN's
    ``A^alpha x B^-alpha``), and power sums whose sum overflows."""
    def pair(a, b, band):
        return FamilyInstance(n=1, dim=a.dim, A_list=(a,), B_list=(b,), band=band)

    tiny = SpectralBand(1e-13, 1e-13, 1.0, 1.0)
    huge = SpectralBand(1e190, 1e190, 1e200, 1e200)
    big = SymMatrix.diagonal([8e307, 1.0])
    return [
        pair(SymMatrix.identity(2), SymMatrix.diagonal([1e-13, 1e-13]), tiny),
        pair(SymMatrix.diagonal([1e-14, 1.0]), SymMatrix.diagonal([1e-13, 1.0]), tiny),
        pair(1e200 * SymMatrix.identity(2), 1e190 * SymMatrix.identity(2), huge),
        pair(1e200 * SymMatrix.identity(1), 1e160 * SymMatrix.identity(1), huge),
        pair(SymMatrix.diagonal([1e300, 1.0]), SymMatrix.diagonal([1e-300, 1.0]), huge),
        FamilyInstance(n=3, dim=2, A_list=(big,) * 3, B_list=(SymMatrix.identity(2),) * 3, band=huge),
    ]


def _fails_alike_alone_and_beside_a_sampled_trial(ineq, family, params, variant, message):
    """``family`` fails with ``message``, alone and in a stage after a
    sampled family, without a NumPy warning; the sampled trial gets the
    report it gets alone.  Returns the error of the trial alone."""
    band = DEFAULT_BANDS[2]

    def copy(f):
        return FamilyInstance.from_dict(f.to_dict())

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(HypothesisError) as alone:
            evaluate_inequality(ineq, copy(family), params, variant)
        assert str(alone.value) == message
        good = sample_family(1, 3, band, derive_rng(62, 0))
        got = evaluate_stage([(ineq, good, params, variant),
                              (ineq, copy(family), params, variant)])
        assert type(got[1]) is HypothesisError and str(got[1]) == message
        other = sample_family(1, 3, band, derive_rng(62, 0))
        assert got[0] == evaluate_inequality(ineq, other, params, variant)
    return alone.value


class TestStackedPowerSums:
    """``_fill_power_sums`` computes the power sums of a whole stage
    together, and succeeds whole or raises.  Each sum must be the per-trial
    sum, bit for bit, and a trial alone must raise the error its per-trial
    sums raise first; and a stage must give every trial the links, report
    or error that the trial gets alone."""

    @staticmethod
    def _stage():
        specs, k = [], 0
        for ineq in (IneqId.TENSOR_TOOL, IneqId.REV_TENSOR_DEAR):
            for variant in Variant:
                for pair in ST_KIND.values:
                    specs.append((ineq, 1, 1 + k % 4, pair, variant))
                    k += 1
        for params in ALPHA_BETA_KIND.values:
            specs.append((IneqId.PROOF_CHAIN, 1, 1 + k % 4, params, Variant.PAPER_LITERAL))
            k += 1
        for pair in ST_KIND.values:
            specs.append((IneqId.COR_BJ_IDENTITY, 1 + k % 3, 1 + (k // 3) % 4, pair, Variant.PAPER_LITERAL))
            k += 1
        families = sample_families([
            (n, d, DEFAULT_BANDS[j % 3], derive_rng(61, j), j % 2 == 0)
            for j, (_, n, d, _, _) in enumerate(specs)
        ])
        trials = [(ineq, f, params, variant)
                  for (ineq, _, _, params, variant), f in zip(specs, families)]
        for f in _failing_power_families():
            for ineq in (IneqId.COR_BJ_IDENTITY,) if f.n > 1 else (
                    IneqId.TENSOR_TOOL, IneqId.REV_TENSOR_DEAR, IneqId.PROOF_CHAIN):
                for params in inequality_info(ineq).kind.values[::5]:
                    trials.append((ineq, f, params, Variant.PAPER_LITERAL))
        # The other per-trial failures of a stage: a mean path with a
        # non-positive B_2, the diag(8e307, 1) family whose mean sum at
        # weight 1 - t = 0 overflows, and COR_BJ_IDENTITY's non-positive A_2
        # (a check).  None of these ids reads the band.
        two, odd = SymMatrix.identity(2), SymMatrix.diagonal([1.0, -1.0])
        off_band = SpectralBand(0.25, 0.5, 8.0, 9.0)
        non_pd_b = FamilyInstance(n=2, dim=2, A_list=(two, two), B_list=(two, odd), band=off_band)
        non_pd_a = FamilyInstance(n=2, dim=2, A_list=(two, odd), B_list=(two, two), band=off_band)
        at_t1 = [p for p in ST_KIND.values if p.t == 1.0]
        for ineq in (IneqId.CHAIN_34RF, IneqId.HAD_MAMAN2):
            for params in ST_KIND.values[::5]:
                trials.append((ineq, non_pd_b, params, Variant.PAPER_LITERAL))
            for params in at_t1:
                trials.append((ineq, _failing_power_families()[5], params, Variant.PAPER_LITERAL))
        for params in ST_KIND.values[::5]:
            trials.append((IneqId.COR_BJ_IDENTITY, non_pd_a, params, Variant.PAPER_LITERAL))
        # Mix the dimensions and ids across the stage (37 is prime to the
        # number of trials, so this is a permutation).
        assert len(trials) % 37
        return [trials[(37 * i) % len(trials)] for i in range(len(trials))]

    @staticmethod
    def _fill(trials):
        """The stage's groups of ``trials`` (by id, variant and dimension),
        their power sums stored by one ``_fill_power_sums`` call, and the
        place of each trial: its group and row."""
        staged = [(inequality_info(ineq), f, p, v) for ineq, f, p, v in trials]
        by_group = {}
        for k, (info, f, _, v) in enumerate(staged):
            by_group.setdefault((info.ineq, v, f.dim), []).append(k)
        groups = [inequalities._Group(staged[ks[0]][0], staged[ks[0]][3], ks, staged)
                  for ks in by_group.values()]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inequalities._fill_power_sums(groups)
        return groups, {k: (g, r) for g in groups for r, k in enumerate(g.ks)}

    @staticmethod
    def _stored(group, name):
        """The stored sum of the weight ``name``, read as its builder reads it."""
        return group.S(name) if ("S", name) in group._at else group.sums(name)

    def test_stacked_sums_equal_the_per_trial_sums(self):
        trials = [t for t in self._stage() if inequality_info(t[0]).source == "powers"]
        expected = [_reference_sums(*t) for t in trials]
        # The stage holds failing trials, so the stacked fill raises.
        with pytest.raises(DomainError):
            self._fill(trials)
        good = [t for t, e in zip(trials, expected) if not isinstance(e, Exception)]
        groups, place = self._fill(good)
        want_all = [e for e in expected if not isinstance(e, Exception)]
        # Each group stores one sum per distinct weight column of the names
        # its record declares, and a row per trial.
        for g in groups:
            assert {name for _, name in g._at} == set(want_all[g.ks[0]])
            assert g.stored.shape[:2] == (len(g.columns), len(g.ks))
        for k, ((ineq, _, params, _), want) in enumerate(zip(good, want_all)):
            g, r = place[k]
            for name, total in want.items():
                got = self._stored(g, name)[r]
                assert _bits_or_text(got) == _bits_or_text(total), (ineq, params, name)
        failures = 0
        for trial, want in zip(trials, expected):
            if isinstance(want, Exception):
                with pytest.raises(DomainError) as alone:
                    self._fill([trial])
                assert str(alone.value) == str(want), (trial[0], trial[2])
                failures += 1
        assert failures > 50

    def test_a_stage_builds_the_links_of_each_trial_alone(self):
        trials = self._stage()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            staged = each_alone(_links_by_trial, trials)
        failed = 0
        for trial, got in zip(trials, staged):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    alone = build_links(*trial)
            except HypothesisError as exc:
                assert type(got) is HypothesisError and str(got) == str(exc)
                assert trial[1].band not in DEFAULT_BANDS  # only the failing families
                failed += 1
                continue
            assert [name for name, _, _ in got] == [name for name, _, _ in alone]
            for (_, lhs, rhs), (_, lhs1, rhs1) in zip(got, alone):
                assert _bits_or_text(lhs) == _bits_or_text(lhs1)
                assert _bits_or_text(rhs) == _bits_or_text(rhs1)
        assert failed > 100

    def test_a_stage_gives_each_trial_its_lone_report_or_error(self):
        # Each trial alone runs on a fresh copy of its family, so nothing it
        # reads was computed by the stage.
        trials = self._stage()
        messages = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            staged = evaluate_stage(trials)
            for (ineq, family, params, variant), got in zip(trials, staged):
                copy = FamilyInstance.from_dict(family.to_dict())
                try:
                    alone = evaluate_inequality(ineq, copy, params, variant)
                except HypothesisError as exc:
                    assert type(got) is HypothesisError and str(got) == str(exc)
                    messages.add(str(exc))
                    continue
                assert repr(got) == repr(alone)
        # The stage holds every kind of per-trial failure: a check, a mean
        # path, a mean sum or a power sum.
        for reason in ("violates the band", "left operand is not positive definite",
                       "right operand is not positive definite",
                       "matrix entries must be finite", "requires eigenvalues >= 1e-12"):
            assert any(reason in m for m in messages), reason

    @pytest.mark.parametrize("ineq, family, params, message", [
        (IneqId.PROOF_CHAIN, _failing_power_families()[2], ProofChainParams(0.75, 0.5),
         "matrix entries must be finite"),
        (IneqId.TENSOR_TOOL, _failing_power_families()[0], WITNESS_PAIR,
         "spectral power 0.25 requires eigenvalues >= 1e-12; smallest is 1.000000e-13"),
        (IneqId.PROOF_CHAIN,
         FamilyInstance(n=1, dim=1, A_list=(1e300 * SymMatrix.identity(1),),
                        B_list=(1e-300 * SymMatrix.identity(1),),
                        band=SpectralBand(1e-300, 1e-300, 1e300, 1e300)),
         ProofChainParams(1.0, 0.625),
         "spectral power -1.0 requires eigenvalues >= 1e-12; smallest is 1.000000e-300"),
    ], ids=["proof_chain_overflow", "tensor_tool_below_floor", "proof_chain_pointwise_overflow"])
    def test_a_failing_power_fails_alike_alone_and_beside_a_sampled_family(
        self, ineq, family, params, message
    ):
        # PROOF_CHAIN: A^(1 + alpha) = (1e200)^1.75 overflows.  TENSOR_TOOL:
        # B^(1 - s) needs B above the eigenvalue floor.  PROOF_CHAIN
        # pointwise: the builder's eigenvalue product 1e300^1 * (1e-300)^-1
        # would overflow, but the stacked powers come first, and B^-1 needs
        # B = 1e-300 above the floor.
        _fails_alike_alone_and_beside_a_sampled_trial(
            ineq, family, params, Variant.PAPER_LITERAL, message
        )

    @pytest.mark.parametrize("ineq, family, params, variant, message", [
        (IneqId.PROOF_CHAIN,
         FamilyInstance(n=1, dim=1, A_list=(1e-290 * SymMatrix.identity(1),),
                        B_list=(1e-310 * SymMatrix.identity(1),),
                        band=SpectralBand(1e-310, 1e-310, 1e-290, 1e-290)),
         ProofChainParams(-1.0, -0.625), Variant.PAPER_LITERAL,
         "spectral power -1.0 requires eigenvalues >= 1e-12; smallest is 1.000000e-290"),
        (IneqId.HAD_MAMAN,
         FamilyInstance(n=1, dim=1, A_list=(0.4 * SymMatrix.identity(1),),
                        B_list=(0.3 * SymMatrix.identity(1),),
                        band=SpectralBand(5e-324, 0.3, 0.4, 0.4)),
         WITNESS_PAIR, Variant.REPAIRED,
         "HAD_MAMAN overflows on this input: float division by zero"),
    ], ids=["printed_weight_after_the_powers", "congruence_interval"])
    def test_a_band_constant_that_overflows_fails_alike_alone_and_beside_a_sampled_trial(
        self, ineq, family, params, variant, message
    ):
        # PROOF_CHAIN: the printed weight's m_hi^alpha = (1e-310)^-1
        # overflows a Python float, but the builder does not run: A^-1 fails
        # first, in the stacked powers.  HAD_MAMAN repaired: m_lo * M_lo =
        # 5e-324 * 0.4 underflows to 0, so the congruence interval's ratio
        # raises ZeroDivisionError in the builder.
        err = _fails_alike_alone_and_beside_a_sampled_trial(ineq, family, params, variant, message)
        if variant == Variant.REPAIRED:
            assert type(err.__cause__) is ZeroDivisionError

    @pytest.mark.parametrize("ineq, params, message", [
        (IneqId.HAD_MAMAN, ExponentPair(0.75, 0.875), "matrix entries must be finite"),
        (IneqId.REV_HAD_MAINTH, ExponentPair(0.75, 0.875), "matrix entries must be finite"),
        (IneqId.PROP_HBOUNDS, ExponentPair(0.75, 0.875), "matrix entries must be finite"),
        (IneqId.REV_T1_REMARK, WITNESS_PAIR,
         "REV_T1_REMARK overflows on this input: float division by zero"),
    ], ids=lambda v: v.value if isinstance(v, IneqId) else None)
    def test_a_builder_fails_on_what_it_reads_first(self, ineq, params, message):
        # S(s) is about 9 A B = 2.2e308 and overflows, and the repaired band
        # constant divides by m_lo * M_lo, which underflows to 0.  The
        # refinement, its reverse and PROP_HBOUNDS read S(s) before their
        # constants; REV_T1_REMARK computes its weight first.
        a, b = 8e307 * SymMatrix.identity(1), 0.3 * SymMatrix.identity(1)
        family = FamilyInstance(n=3, dim=1, A_list=(a,) * 3, B_list=(b,) * 3,
                                band=SpectralBand(5e-324, 0.3, 0.4, 1e308))
        _fails_alike_alone_and_beside_a_sampled_trial(ineq, family, params, Variant.REPAIRED, message)


@pytest.mark.parametrize("ineq, variant", [
    pytest.param(info.ineq, v, id=f"{info.ineq.value}-{v.value}")
    for info in list_inequalities() for v in info.variants
])
def test_a_stage_stores_the_sums_its_builder_reads(monkeypatch, ineq, variant):
    # Every weight a stage stores a sum for (its record's declared names)
    # is read by the trial's builder, and every name the builder reads was
    # declared: none is computed in vain, and none is missing.
    stored, read, built = set(), set(), []
    init, S, sums = inequalities._Group.__init__, inequalities._Group.S, inequalities._Group.sums

    def recording_init(self, *args):
        init(self, *args)
        stored.update(self._at)
        built.append(self)

    def recording_S(self, name):
        read.add(("S", name))
        return S(self, name)

    def recording_sums(self, name):
        read.add(("sums", name))
        return sums(self, name)

    monkeypatch.setattr(inequalities._Group, "__init__", recording_init)
    monkeypatch.setattr(inequalities._Group, "S", recording_S)
    monkeypatch.setattr(inequalities._Group, "sums", recording_sums)
    info = inequality_info(ineq)
    trials = [
        (ineq, sample_family(1 if info.takes_pair else 1 + k % 3, 1 + k % 3,
                             DEFAULT_BANDS[k % 3], derive_rng(66, k)), params, variant)
        for k, params in enumerate(info.kind.values)
    ]
    out, groups = inequalities._build_stage(trials)
    assert out == [None] * len(trials) and groups
    declared = info.weights[variant._name_]
    assert stored == {("S", name) for name in declared.S} | {("sums", name) for name in declared.sums}
    assert stored == read
    # Every trial has its row in its group's stored sums.
    assert sorted(k for g in built for k in g.ks) == list(range(len(trials)))
    assert all(g.stored.shape[:2] == (len(g.columns), len(g.ks)) for g in built)


def test_reading_an_undeclared_weight_raises_a_named_error(monkeypatch):
    # A builder that reads a name its record does not declare fails the
    # stage with UndeclaredWeightError, which no trial absorbs, not with a
    # KeyError from inside the store.
    info = inequality_info(IneqId.PROP_HBOUNDS)
    family = sample_family(2, 2, DEFAULT_BANDS[1], derive_rng(67, 0))
    pair = ST_KIND.values[0]
    monkeypatch.setitem(inequalities._REGISTRY, "PROP_HBOUNDS", dataclasses.replace(info, weights=Weights(
        S={"s": lambda p: p.s, "t": lambda p: p.t})))
    # The paper form reads S(s) and S(t) only; the repaired form also S(1/2).
    evaluate_inequality(IneqId.PROP_HBOUNDS, family, pair, Variant.PAPER_LITERAL)
    with pytest.raises(inequalities.UndeclaredWeightError,
                       match=r"^PROP_HBOUNDS/repaired reads S\('half'\), which its record does not declare$"):
        evaluate_stage([(IneqId.PROP_HBOUNDS, family, pair, Variant.REPAIRED)])
    assert not issubclass(inequalities.UndeclaredWeightError, ITEM_ERRORS)


def test_equal_weight_columns_are_stored_once():
    # S(1/2) reads the mean sums at 1/2 and 1 - 1/2, one column; S(s) and
    # S(t) share their columns only where s == t on every row.
    family = sample_family(2, 2, DEFAULT_BANDS[1], derive_rng(68, 0))
    trials = [(IneqId.HAD_MAMAN, family, pair, Variant.PAPER_LITERAL)
              for pair in (ExponentPair(0.625, 0.75), ExponentPair(0.75, 0.75))]
    staged = [(inequality_info(i), f, p, v) for i, f, p, v in trials]
    both = inequalities._Group(staged[0][0], Variant.PAPER_LITERAL, [0, 1], staged)
    assert len(both.columns) == 5 and both._at["S", "half"] == (4, 4)
    equal = inequalities._Group(staged[0][0], Variant.PAPER_LITERAL, [1], staged)
    assert len(equal.columns) == 3
    assert equal._at["S", "s"] == equal._at["S", "t"] == (0, 1)


def _reference_weight(ineq, band, pair, variant, sign):
    """The Kantorovich weight ``K^(sign r')`` of the refinement and its
    reverse, written out: the printed one, or the repaired tensor or
    Hadamard-sum one."""
    power = sign * pair.r_prime_st
    if variant == Variant.PAPER_LITERAL:
        return printed_weight(band, 2.0 * pair.t - 1.0, power)
    if inequality_info(ineq).takes_pair:
        return kantorovich((band.M_lo / band.m_hi) ** abs(pair.t - 0.5)) ** power
    lo, hi = inequalities._congruence_interval(band, pair.t)
    return kantorovich_min_over_interval(lo, hi) ** power


def _reference_links(ineq, family, params, variant):
    """The links of one statement, one ``SymMatrix`` at a time, from the
    one-item primitives: ``MeanPath(...).at`` for the mean sums,
    ``_reference_sum`` for the power sums, and ``+``, ``-``, scalar ``*``,
    ``kron`` and ``hadamard`` for the rest, in the statement's order."""
    a, b, band = family.A_list[0], family.B_list[0], family.band
    if inequality_info(ineq).source == "means":
        path = MeanPath(family.A_list, family.B_list)

    def S(u):
        if inequality_info(ineq).takes_pair:
            return _reference_sum(ineq, family, (u, 1.0 - u))
        return hadamard(path.at(u), path.at(1.0 - u))

    def top():
        return hadamard(sum_matrices(family.A_list), sum_matrices(family.B_list))

    if ineq == IneqId.WADA:
        alpha = float(params)
        g, gl, gr = path.at(0.5), path.at(alpha), path.at(1.0 - alpha)
        mid = 0.5 * (kron(gl, gr) + kron(gr, gl))
        return [("geo_vs_mix", kron(g, g), mid), ("mix_vs_sum", mid, 0.5 * (kron(a, b) + kron(b, a)))]
    if ineq == IneqId.PROOF_CHAIN:
        al, be, mu = params.alpha, params.beta, params.mu
        kf = printed_weight(band, al, params.r_prime)
        worst = None
        for la in sym_eigen(a).eigenvalues:
            for lb in sym_eigen(b).eigenvalues:
                x = la ** al * lb ** (-al)
                lhs = kantorovich(x) ** params.r_prime * (x ** mu + x ** (-mu)) + (1.0 - mu) * (
                    x + 1.0 / x - 2.0)
                rhs = x + 1.0 / x
                if worst is None or rhs - lhs < worst[1] - worst[0]:
                    worst = (lhs, rhs)

        def power(key):
            return _reference_sum(ineq, family, key)

        g_al, h_al = power((al, -al)), power((1.0 + al, 1.0 - al))
        ident = SymMatrix.identity(a.dim * b.dim)
        return [
            ("pointwise_spectrum", SymMatrix(np.array([[worst[0]]])), SymMatrix(np.array([[worst[1]]]))),
            ("ratio_powers", kf * power((be, -be)) + (1.0 - mu) * (g_al - 2.0 * ident), g_al),
            ("shifted_powers",
             kf * power((1.0 + be, 1.0 - be)) + (1.0 - mu) * (h_al - 2.0 * _reference_kron(a, b)),
             h_al),
        ]
    s, t = params.s, params.t
    if ineq == IneqId.CHAIN_34RF:
        return [("geo_vs_s", S(0.5), S(s)), ("s_vs_t", S(s), S(t)), ("t_vs_sums", S(t), top())]
    if ineq == IneqId.MOJ_MO:
        mid = S(s) + (t - s) / (s - 0.5) * (S(s) - S(0.5))
        return [("s_vs_mid", S(s), mid), ("mid_vs_t", mid, S(t))]
    if ineq in (IneqId.TENSOR_TOOL, IneqId.HAD_MAMAN):
        kf = _reference_weight(ineq, band, params, variant, 1.0)
        return [("main", kf * S(s) + params.c_mid * (S(t) - S(0.5)), S(t))]
    if ineq in (IneqId.REV_TENSOR_DEAR, IneqId.REV_HAD_MAINTH):
        coeff = params.c_rev_repair if variant == Variant.REPAIRED else params.c_rev_paper
        kf = _reference_weight(ineq, band, params, variant, -1.0)
        return [("main", S(t), kf * S(s) + coeff * (S(t) - S(0.5)))]
    if ineq == IneqId.HAD_MAMAN2:
        bracket = S(s) + S(0.5) - 2.0 * S((3.0 - 2.0 * s) / 4.0)
        lhs = S(s) + params.c_mid * (S(s) - S(0.5)) + params.r_prime_st * bracket
        return [("main", lhs, S(t)), ("bracket_psd", SymMatrix.zero(a.dim), bracket)]
    if ineq == IneqId.COR_BJ_IDENTITY:
        def P(u):
            return _reference_sum(ineq, family, u)

        s_s, l0 = hadamard(P(1.0 - s), P(s)), hadamard(P(0.5), P(0.5))
        t_mid = hadamard(P((1.0 + 2.0 * s) / 4.0), P((3.0 - 2.0 * s) / 4.0))
        lhs = s_s + params.c_mid * (s_s - l0) + params.r_prime_st * (s_s + l0 - 2.0 * t_mid)
        return [("main", lhs, hadamard(P(1.0 - t), P(t)))]
    if ineq == IneqId.REV_T1_REMARK:
        kf = _reference_weight(ineq, band, params, variant, -1.0)
        coeff = 2.0 * s if variant == Variant.REPAIRED else 2.0 * s - 1.0
        return [("main", top(), kf * S(s) + coeff * (top() - S(0.5)))]
    assert ineq == IneqId.PROP_HBOUNDS
    if variant == Variant.PAPER_LITERAL:
        kf = kantorovich(band.h ** (2.0 * t - 1.0)) ** params.r_prime_st
        low = (math.sqrt(band.h) - math.sqrt(1.0 / band.h)) ** 2
        high = (math.sqrt(band.h_prime) - math.sqrt(1.0 / band.h_prime)) ** 2
        ident = SymMatrix.identity(a.dim)
        return [("lower", kf * S(s) + params.c_mid * low * ident, S(t)),
                ("upper", S(t), (1.0 / kf) * S(s) + params.c_rev_paper * high * ident)]
    lo, hi = inequalities._congruence_interval(band, t)
    kf = kantorovich_min_over_interval(lo, hi) ** params.r_prime_st
    up = (math.sqrt(hi) - math.sqrt(1.0 / hi)) ** 2
    return [("lower", kf * S(s), S(t)),
            ("upper", S(t), (1.0 / kf) * S(s) + params.c_rev_repair * up * S(0.5))]


def _mixed_stage():
    """Every (id, variant) at d = 1-4 and n = 1-3 (n = 1 for the pair ids)
    on sampled families, with failing trials among them: non-positive
    operands, the overflowing powers and sums of ``TestStackedPowerSums``,
    MOJ_MO with s near 1/2, and a band constant that overflows."""
    trials, k = [], 0
    for info in list_inequalities():
        for variant in info.variants:
            for d in (1, 2, 3, 4):
                for n in (1,) if info.takes_pair else (1, 2, 3):
                    params = info.kind.values[(5 * k) % len(info.kind.values)]
                    family = sample_family(n, d, DEFAULT_BANDS[k % 3], derive_rng(63, k), k % 2 == 0)
                    trials.append((info.ineq, family, params, variant))
                    k += 1
    paper = Variant.PAPER_LITERAL
    two, odd = SymMatrix.identity(2), SymMatrix.diagonal([1.0, -1.0])
    off_band = SpectralBand(0.25, 0.5, 8.0, 9.0)
    non_pd_b = FamilyInstance(n=2, dim=2, A_list=(two, two), B_list=(two, odd), band=off_band)
    non_pd_a = FamilyInstance(n=2, dim=2, A_list=(two, odd), B_list=(two, two), band=off_band)
    trials += [(IneqId.CHAIN_34RF, non_pd_b, WITNESS_PAIR, paper),
               (IneqId.COR_BJ_IDENTITY, non_pd_a, WITNESS_PAIR, paper)]
    failing = _failing_power_families()
    for f in failing[:5]:
        trials += [(IneqId.TENSOR_TOOL, f, ST_KIND.values[3], paper),
                   (IneqId.REV_TENSOR_DEAR, f, ST_KIND.values[40], paper),
                   (IneqId.PROOF_CHAIN, f, ALPHA_BETA_KIND.values[7], paper)]
    for ineq in (IneqId.COR_BJ_IDENTITY, IneqId.CHAIN_34RF, IneqId.HAD_MAMAN2):
        trials.append((ineq, failing[5], ExponentPair(0.75, 1.0), paper))
    near_half = sample_family(2, 3, DEFAULT_BANDS[1], derive_rng(64, 0))
    trials.append((IneqId.MOJ_MO, near_half, ExponentPair(0.5 + 1e-9, 1.0), paper))
    tiny_band = FamilyInstance(n=1, dim=1, A_list=(0.4 * SymMatrix.identity(1),),
                               B_list=(0.3 * SymMatrix.identity(1),),
                               band=SpectralBand(5e-324, 0.3, 0.4, 0.4))
    for ineq in (IneqId.HAD_MAMAN, IneqId.REV_HAD_MAINTH, IneqId.REV_T1_REMARK, IneqId.PROP_HBOUNDS):
        trials.append((ineq, tiny_band, WITNESS_PAIR, Variant.REPAIRED))
    assert len(trials) % 37
    return [trials[(37 * i) % len(trials)] for i in range(len(trials))]


def test_a_mixed_stage_gives_each_trial_its_lone_links_and_report():
    # Each trial alone runs on fresh copies of its family, so nothing it
    # reads was computed by the stage.
    def copy(f):
        return FamilyInstance.from_dict(f.to_dict())

    trials = _mixed_stage()
    messages = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        staged_links = each_alone(_links_by_trial, trials)
        staged = evaluate_stage(trials)
        for (ineq, family, params, variant), links, got in zip(trials, staged_links, staged):
            try:
                alone_links = build_links(ineq, copy(family), params, variant)
            except CallebautLabError as exc:
                with pytest.raises(type(exc)) as alone:
                    evaluate_inequality(ineq, copy(family), params, variant)
                for err in (links, got, alone.value):
                    assert type(err) is type(exc) and str(err) == str(exc)
                messages.add(str(exc))
                continue
            assert repr(got) == repr(evaluate_inequality(ineq, copy(family), params, variant))
            reference = _reference_links(ineq, copy(family), params, variant)
            assert [n for n, _, _ in links] == [n for n, _, _ in alone_links] == [
                n for n, _, _ in reference]
            for (_, *ops), (_, *ops_alone), (_, *ops_ref) in zip(links, alone_links, reference):
                for x, y, z in zip(ops, ops_alone, ops_ref):
                    assert _bits_or_text(x) == _bits_or_text(y) == _bits_or_text(z), (ineq, params)
    for reason in ("not positive definite", "matrix entries must be finite",
                   "requires eigenvalues >= 1e-12", "of 1/2; the middle coefficient",
                   "overflows on this input: float division by zero"):
        assert any(reason in m for m in messages), reason


def test_a_failing_builder_constant_is_found_by_halving(monkeypatch):
    # A builder constant that raises fails its stage whole, like every
    # stacked step: a stage of 128 sampled trials and one HAD_MAMAN
    # repaired trial whose band constant divides by m_lo * M_lo = 5e-324 *
    # 0.4, which underflows to 0.  Halving (each_alone) finds it in at most
    # 2 * ceil(log2(129)) + 1 = 17 stage evaluations.
    def copy(f):
        return FamilyInstance.from_dict(f.to_dict())

    combos = [(info, v) for info in list_inequalities() for v in info.variants]
    trials = []
    for k in range(128):
        info, variant = combos[k % len(combos)]
        n = 1 if info.takes_pair else 1 + k % 3
        family = sample_family(n, 1 + k % 4, DEFAULT_BANDS[k % 3], derive_rng(65, k), k % 2 == 0)
        trials.append((info.ineq, family, info.kind.values[(5 * k) % len(info.kind.values)], variant))
    bad = 77
    tiny_band = FamilyInstance(n=1, dim=1, A_list=(0.4 * SymMatrix.identity(1),),
                               B_list=(0.3 * SymMatrix.identity(1),),
                               band=SpectralBand(5e-324, 0.3, 0.4, 0.4))
    trials.insert(bad, (IneqId.HAD_MAMAN, tiny_band, WITNESS_PAIR, Variant.REPAIRED))
    calls = []
    stage = inequalities._evaluate_stage

    def counted(ts, tol):
        calls.append(len(ts))
        return stage(ts, tol)

    monkeypatch.setattr(inequalities, "_evaluate_stage", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = evaluate_stage(trials)
        assert calls[0] == 129 and 1 < len(calls) <= 17
        with pytest.raises(HypothesisError) as alone:
            evaluate_inequality(*trials[bad][:2], WITNESS_PAIR, Variant.REPAIRED)
        assert str(alone.value) == "HAD_MAMAN overflows on this input: float division by zero"
        assert type(alone.value.__cause__) is ZeroDivisionError
        assert type(got[bad]) is HypothesisError and str(got[bad]) == str(alone.value)
        assert type(got[bad].__cause__) is ZeroDivisionError
        for k, (ineq, family, params, variant) in enumerate(trials):
            if k != bad:
                assert repr(got[k]) == repr(evaluate_inequality(ineq, copy(family), params, variant))


def _records():
    """``(public, private)`` of each record that a stage builds through a
    private constructor, with the same fields."""
    entries = np.array([[2.0, 0.5], [0.5, 1.0]])
    a, b = SymMatrix(entries), SymMatrix(np.eye(2))
    (stacked,) = SymMatrix.stack(entries[None])
    gap = (-0.5, -0.25, False)
    band = DEFAULT_BANDS[1]
    matrices = (2, 2, (a, a), (b, b), band)
    link = ("main", LoewnerGap(*gap))
    family = FamilyInstance(*matrices)
    report = (IneqId.HAD_MAMAN, Variant.PAPER_LITERAL, {"s": 0.75, "t": 1.0},
              (LinkReport(*link),), LoewnerGap(*gap), 2.0, 3.0, family)
    return [
        pytest.param(SymMatrix(entries), SymMatrix._of(a.array, None, None), id="SymMatrix"),
        pytest.param(SymMatrix(entries), stacked, id="SymMatrix.stack"),
        pytest.param(LoewnerGap(*gap), LoewnerGap._of(*gap), id="LoewnerGap"),
        pytest.param(FamilyInstance(*matrices), FamilyInstance._of(*matrices), id="FamilyInstance"),
        pytest.param(LinkReport(*link), LinkReport._of(*link), id="LinkReport"),
        pytest.param(IneqReport(*report), IneqReport._of(*report), id="IneqReport"),
    ]


@pytest.mark.parametrize("public, private", _records())
def test_a_private_constructor_builds_what_the_public_one_builds(public, private):
    assert type(private) is type(public)
    assert private == public and repr(private) == repr(public)
    fields = [f.name for f in dataclasses.fields(public)]
    if hasattr(public, "__dict__"):
        # The same fields, stored in the same order, and nothing else.
        assert list(vars(private)) == list(vars(public)) == fields
    else:
        assert not hasattr(private, "__dict__")
    for copy_of in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)), dataclasses.replace):
        a, b = copy_of(public), copy_of(private)
        assert type(a) is type(b) is type(public)
        assert a == b == public and repr(a) == repr(b)
    if hasattr(public, "__dict__"):
        assert pickle.dumps(private) == pickle.dumps(public)
    for record in (public, private):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, fields[0], None)
