import copy
import enum
import hashlib
import math
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from callebaut_lab.errors import DomainError, HypothesisError
from callebaut_lab.sampler import SpectralBand, derive_rng
from callebaut_lab.scalarcore import (
    ExponentPair,
    ProofChainParams,
    ScalarIneqId,
    ScalarParams,
    chain_callebaut_gaps,
    kantorovich,
    kantorovich_min_over_interval,
    scalar_gap,
)

SWEEP_IDS = (
    ScalarIneqId.YOUNG_CLASSICAL,
    ScalarIneqId.YOUNG_ZUO,
    ScalarIneqId.YOUNG_WU_ZHAO,
    ScalarIneqId.LEMMA_SUM,
    ScalarIneqId.LEMMA_TTT1,
    ScalarIneqId.LEMMA_4TERM,
    ScalarIneqId.REV_YOUNG,
    ScalarIneqId.REV_SUM,
    ScalarIneqId.REV_TTT,
)


class TestKantorovich:
    def test_values(self):
        assert kantorovich(1.0) == 1.0
        assert kantorovich(2.0) == pytest.approx(1.125, abs=0)
        assert kantorovich(0.5) == pytest.approx(1.125, rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            kantorovich(0.0)
        with pytest.raises(DomainError):
            kantorovich(-1.0)
        with pytest.raises(DomainError, match="needs a positive argument"):
            kantorovich(math.nan)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_symmetry(self, x):
        assert kantorovich(x) == pytest.approx(kantorovich(1.0 / x), rel=1e-15)
        assert kantorovich(x) >= 1.0

    def test_symmetry_thousand_points(self):
        rng = derive_rng(17, 0)
        for _ in range(1000):
            x = 10.0 ** rng.uniform_in(-6, 6)
            assert abs(kantorovich(x) - kantorovich(1.0 / x)) <= 1e-15 * kantorovich(x)

    def test_interval_min(self):
        assert kantorovich_min_over_interval(0.5, 2.0) == 1.0
        assert kantorovich_min_over_interval(2.0, 4.0) == pytest.approx(1.125)
        assert kantorovich_min_over_interval(0.25, 1 / 3) == pytest.approx(4.0 / 3.0, rel=1e-15)
        with pytest.raises(DomainError):
            kantorovich_min_over_interval(2.0, 1.0)


class TestParams:
    def test_scalar_params_derived(self):
        p = ScalarParams(4.0, 1.0, 0.25)
        assert p.r == 0.25 and p.r_prime == 0.5 and p.nu_max == 0.75
        assert 0.0 <= p.r <= 0.5 and 0.0 <= p.r_prime <= 1.0
        # r + nu_max >= 1 on the low side (equality here)
        assert p.r + p.nu_max >= 1.0

    def test_scalar_params_validation(self):
        with pytest.raises(DomainError):
            ScalarParams(-1.0, 1.0, 0.5)
        with pytest.raises(HypothesisError):
            ScalarParams(1.0, 1.0, 1.5)
        for a, b in ((math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(DomainError, match="a and b must be positive"):
                ScalarParams(a, b, 0.3)
        with pytest.raises(DomainError, match="a must be positive"):
            scalar_gap(ScalarIneqId.LEMMA_TTT1, extra={"a": math.nan, "mu": 0.5})
        with pytest.raises(DomainError, match="a must be positive"):
            scalar_gap(ScalarIneqId.REV_TTT, extra={"a": math.nan, "nu": 0.25})

    @pytest.mark.parametrize("a, b", [(math.inf, 1.0), (1.0, math.inf), (math.inf, math.inf)])
    def test_non_finite_pair_is_a_domain_error(self, a, b):
        with pytest.raises(DomainError, match="a and b must be positive and finite"):
            ScalarParams(a, b, 0.3)

    @pytest.mark.parametrize(
        "ineq, extra",
        [
            (ScalarIneqId.LEMMA_TTT1, {"a": math.inf, "mu": 0.4}),
            (ScalarIneqId.REV_TTT, {"a": math.inf, "nu": 0.25}),
        ],
    )
    def test_non_finite_single_variable_is_a_domain_error(self, ineq, extra):
        with pytest.raises(DomainError, match="a must be positive and finite"):
            scalar_gap(ineq, extra=extra)

    def test_scalar_params_is_frozen_and_slotted(self):
        p = ScalarParams(4.0, 1.0, 0.25)
        for name in ("a", "nu", "a_nu", "sqrt_ratio", "unknown"):
            with pytest.raises(AttributeError):
                setattr(p, name, 2.0)
        with pytest.raises(FrozenInstanceError):
            p.a = 2.0
        with pytest.raises(AttributeError):
            del p.b
        assert (p.a, p.a_nu) == (4.0, 4.0 ** 0.25)
        assert not hasattr(p, "__dict__")

    def test_scalar_params_value_semantics(self):
        p = ScalarParams(4.0, 1.0, 0.25)
        assert repr(p) == "ScalarParams(a=4.0, b=1.0, nu=0.25)"
        assert p == ScalarParams(4.0, 1.0, 0.25)
        assert p != ScalarParams(4.0, 1.0, 0.75)
        assert p != (4.0, 1.0, 0.25)
        assert hash(p) == hash(ScalarParams(4.0, 1.0, 0.25)) == hash((4.0, 1.0, 0.25))
        for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert type(twin) is ScalarParams and twin == p
            assert (twin.r_prime, twin.sq_diff) == (p.r_prime, p.sq_diff)

    def test_shared_terms_match_their_definitions(self):
        a, b, nu = 3.7, 0.45, 0.3
        p = ScalarParams(a, b, nu)
        assert (p.a_nu, p.b_rest, p.a_rest, p.b_nu) == (
            a ** nu,
            b ** (1.0 - nu),
            a ** (1.0 - nu),
            b ** nu,
        )
        assert p.sq_diff == math.sqrt(a) - math.sqrt(b)
        assert p.sqrt_ratio == math.sqrt(a / b)

    @pytest.mark.parametrize("nu", [0.0, 0.3, 1.0])
    def test_underflowing_ratio_fails_only_where_it_is_used(self, nu):
        # a / b underflows to 0: constructing the shared terms must not raise,
        # and only the statements that take K(sqrt(a/b)) reject the point.
        p = ScalarParams(5e-324, 1e300, nu)
        assert math.isfinite(scalar_gap(ScalarIneqId.YOUNG_CLASSICAL, p))
        for ineq in (
            ScalarIneqId.YOUNG_ZUO,
            ScalarIneqId.YOUNG_WU_ZHAO,
            ScalarIneqId.LEMMA_SUM,
            ScalarIneqId.REV_YOUNG,
            ScalarIneqId.REV_SUM,
        ):
            with pytest.raises(
                DomainError, match="Kantorovich constant needs a positive argument"
            ):
                scalar_gap(ineq, p)

    def test_exponent_pair_branches(self):
        ExponentPair(0.75, 1.0)
        ExponentPair(0.25, 0.125)
        with pytest.raises(HypothesisError):
            ExponentPair(0.25, 0.75)
        with pytest.raises(HypothesisError):
            ExponentPair(0.75, 0.5 + 1e-9)  # t inside the excluded zone

    def test_exponent_pair_coefficients_nonnegative(self):
        for s, t in ((0.75, 1.0), (9 / 16, 13 / 16), (0.25, 0.125), (7 / 16, 3 / 16)):
            p = ExponentPair(s, t)
            assert p.c_mid >= 0.0 and p.r_prime_st >= 0.0

    def test_r_prime_vanishes_at_s_equals_t(self):
        assert ExponentPair(0.75, 0.75).r_prime_st == 0.0
        assert ExponentPair(0.5 + 1e-9, 1.0).r_prime_st <= 1e-8

    def test_proof_chain_params(self):
        p = ProofChainParams(1.0, 0.5)
        assert p.mu == 0.5 and p.r_prime == 0.5
        neg = ProofChainParams(-0.75, -0.25)
        assert neg.mu == pytest.approx(1 / 3)
        with pytest.raises(HypothesisError):
            ProofChainParams(1.0, -0.5)
        with pytest.raises(HypothesisError):
            ProofChainParams(0.5, 0.5)

    def test_from_exponents(self):
        p = ProofChainParams.from_exponents(ExponentPair(0.75, 1.0))
        assert (p.alpha, p.beta) == (1.0, 0.5)


class TestGapExamples:
    def test_wu_zhao_identity_at_quarter(self):
        gap = scalar_gap(ScalarIneqId.YOUNG_WU_ZHAO, ScalarParams(4.0, 1.0, 0.25))
        assert abs(gap) <= 1e-12 * 5.0

    def test_wu_zhao_equal_arguments(self):
        gap = scalar_gap(ScalarIneqId.YOUNG_WU_ZHAO, ScalarParams(3.7, 3.7, 0.3))
        assert abs(gap) <= 1e-12 * 7.4

    def test_ttt1_example(self):
        # LHS = 1.25 * 2.5 + 0.5 * 2.25 = 4.25 = RHS at a = 4, mu = 1/2
        gap = scalar_gap(ScalarIneqId.LEMMA_TTT1, extra={"a": 4.0, "mu": 0.5})
        assert abs(gap) <= 1e-12 * 4.25

    def test_4term_example(self):
        # LHS = 4.242640687 + 0.5 + 0.257359313 = 5 = a + b
        gap = scalar_gap(ScalarIneqId.LEMMA_4TERM, ScalarParams(4.0, 1.0, 0.25))
        assert abs(gap) <= 1e-12 * 5.0

    def test_rev_ttt_example(self):
        # RHS = 0.8 * 2.5 + 1.5 * 2.25 = 5.375, LHS = 4.25
        gap = scalar_gap(ScalarIneqId.REV_TTT, extra={"a": 4.0, "nu": 0.25})
        assert gap == pytest.approx(1.125, abs=1e-12)

    def test_identity_at_quarter_random(self):
        rng = derive_rng(99, 0)
        for _ in range(500):
            a = 10.0 ** rng.uniform_in(-3, 3)
            b = 10.0 ** rng.uniform_in(-3, 3)
            for nu in (0.25, 0.75):
                wu = scalar_gap(ScalarIneqId.YOUNG_WU_ZHAO, ScalarParams(a, b, nu))
                four = scalar_gap(ScalarIneqId.LEMMA_4TERM, ScalarParams(a, b, nu))
                assert abs(wu) <= 1e-12 * (a + b)
                assert abs(four) <= 1e-12 * (a + b)

    def test_hypothesis_errors_name_condition(self):
        with pytest.raises(HypothesisError, match="1/2"):
            scalar_gap(ScalarIneqId.YOUNG_WU_ZHAO, ScalarParams(2.0, 1.0, 0.5))
        with pytest.raises(HypothesisError, match="mu"):
            scalar_gap(ScalarIneqId.LEMMA_TTT1, extra={"a": 2.0, "mu": 1.5})
        with pytest.raises(HypothesisError, match="nu"):
            scalar_gap(ScalarIneqId.REV_TTT, extra={"a": 2.0, "nu": 0.7})
        with pytest.raises(HypothesisError, match="nu"):
            scalar_gap(ScalarIneqId.LEMMA_4TERM, ScalarParams(2.0, 1.0, 0.0))

    def test_dispatch_covers_every_id(self):
        pair = ExponentPair(0.75, 1.0)
        x, y = (2.0, 0.5, 7.0), (1.0, 3.0, 0.2)
        via_id = scalar_gap(ScalarIneqId.CHAIN_CALLEBAUT, pair, extra={"x": x, "y": y})
        assert via_id == chain_callebaut_gaps(x, y, pair)
        p = ScalarParams(4.0, 1.0, 0.3)
        for ineq in ScalarIneqId:
            try:
                scalar_gap(ineq, p)
            except KeyError as missing:
                # Reached a statement that reads ``extra``, not a missing entry.
                assert missing.args[0] in ("a", "mu", "x"), ineq
        # A member of another enum, even one named like a scalar id.
        impostor = enum.Enum("Impostor", "YOUNG_ZUO").YOUNG_ZUO
        for stranger in ("YOUNG_ZUO", None, impostor):
            with pytest.raises(DomainError, match="unknown scalar inequality id"):
                scalar_gap(stranger, p)


class TestRandomSweep:
    def test_nonnegative_gaps(self):
        rng = derive_rng(123, 1)
        for _ in range(3000):
            a = 10.0 ** rng.uniform_in(-3, 3)
            b = 10.0 ** rng.uniform_in(-3, 3)
            nu = rng.uniform()
            while abs(nu - 0.5) < 1e-6:
                nu = rng.uniform()
            p = ScalarParams(a, b, nu)
            nu_low = min(nu, 1.0 - nu)
            for ineq in SWEEP_IDS:
                if ineq == ScalarIneqId.LEMMA_TTT1:
                    gap = scalar_gap(ineq, extra={"a": a, "mu": 1.0 - 2.0 * nu_low})
                    scale = a + 1.0 / a
                elif ineq == ScalarIneqId.REV_TTT:
                    gap = scalar_gap(ineq, extra={"a": a, "nu": nu_low})
                    scale = a + 1.0 / a
                elif ineq == ScalarIneqId.LEMMA_4TERM and not 0.0 < nu < 1.0:
                    continue
                else:
                    gap = scalar_gap(ineq, p)
                    scale = a + b
                assert gap >= -1e-12 * scale, (ineq, a, b, nu)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_young_classical_property(self, a, b, nu):
        gap = scalar_gap(ScalarIneqId.YOUNG_CLASSICAL, ScalarParams(a, b, nu))
        assert gap >= -1e-12 * (a + b)


class TestChain:
    def test_all_ones(self):
        gaps = chain_callebaut_gaps((1.0, 1.0), (1.0, 1.0), ExponentPair(0.75, 1.0))
        assert all(abs(g) <= 1e-12 * 4.0 for g in gaps)

    def test_middle_gap_vanishes_at_s_equals_t(self):
        gaps = chain_callebaut_gaps((2.0, 0.5, 7.0), (1.0, 3.0, 0.2), ExponentPair(0.7, 0.7))
        assert gaps[1] == 0.0

    def test_random_tuples(self):
        rng = derive_rng(5, 2)
        for trial in range(2000):
            n = 1 + trial % 6
            x = tuple(10.0 ** rng.uniform_in(-2, 2) for _ in range(n))
            y = tuple(10.0 ** rng.uniform_in(-2, 2) for _ in range(n))
            if trial % 2:
                pair = ExponentPair(rng.uniform_in(9 / 16, 1.0), 1.0)
            else:
                pair = ExponentPair(rng.uniform_in(0.2, 7 / 16), 0.1)
            scale = math.fsum(x) * math.fsum(y)
            for g in chain_callebaut_gaps(x, y, pair):
                assert g >= -1e-12 * scale

    def test_rejects_bad_tuples(self):
        with pytest.raises(HypothesisError):
            chain_callebaut_gaps((1.0, -2.0), (1.0, 1.0), ExponentPair(0.75, 1.0))
        with pytest.raises(HypothesisError):
            chain_callebaut_gaps((1.0,), (1.0, 2.0), ExponentPair(0.75, 1.0))


class TestCorollaries:
    def setup_method(self):
        self.band = SpectralBand(0.5, 1.0, 2.0, 8.0)
        self.x = (3.0, 7.5, 2.0)
        self.y = (0.6, 1.0, 0.5)
        self.pair = ExponentPair(0.625, 0.875)

    def test_vow13_two_links(self):
        g1, g2 = scalar_gap(
            ScalarIneqId.COR_VOW13_SCALAR,
            self.pair,
            extra={"x": self.x, "y": self.y, "band": self.band},
        )
        assert g1 >= 0.0  # first link is the trivial one (factor >= 1)
        assert isinstance(g2, float)

    def test_okmn_holds_on_samples(self):
        rng = derive_rng(8, 3)
        for trial in range(300):
            n = 1 + trial % 4
            x = tuple(rng.uniform_in(0.2, 5.0) for _ in range(n))
            y = tuple(rng.uniform_in(0.2, 5.0) for _ in range(n))
            pair = ExponentPair(rng.uniform_in(9 / 16, 15 / 16), 15 / 16)
            gap = scalar_gap(ScalarIneqId.COR_OKMN_SCALAR, pair, extra={"x": x, "y": y})
            scale = math.fsum(x) * math.fsum(y)
            assert gap >= -1e-12 * scale

    def test_rev_scalar_evaluates(self):
        gap = scalar_gap(
            ScalarIneqId.COR_REV_SCALAR,
            self.pair,
            extra={"x": self.x, "y": self.y, "band": self.band},
        )
        assert isinstance(gap, float)

    def test_band_hypothesis_enforced(self):
        with pytest.raises(HypothesisError, match="band"):
            scalar_gap(
                ScalarIneqId.COR_VOW13_SCALAR,
                self.pair,
                extra={"x": (11.0,), "y": (0.6,), "band": self.band},
            )


#: Young-type statements that take a ``ScalarParams``.
_PARAMS_IDS = tuple(i for i in SWEEP_IDS if i not in (ScalarIneqId.LEMMA_TTT1, ScalarIneqId.REV_TTT))
_GOLDEN_NUS = (0.0, 1.0, 0.5 - 1e-7, 0.5 + 1e-7, 0.25, 0.75, 0.5, -0.25, 1.25, math.nan)
_GOLDEN_EDGE_PAIRS = (
    (5e-324, 1e300),  # a / b underflows to 0
    (1e300, 1e-300),  # a / b overflows, and so does K(a)
    (1e-300, 1e300),
    (5e-324, 5e-324),
    (1.7976931348623157e308, 1.0),
    (3.7, 3.7),
    (1.0, 1.0),
)
#: SHA-256 of the outcomes below.  First computed on commit 08ee92c, before
#: ``ScalarParams`` was slotted (which kept every bit).  Updated once on
#: purpose, when ``scalar_gap`` began to re-raise an overflow as
#: ``DomainError``: the 17 outcome lines that read ``OverflowError: ...``
#: (16 powers in LEMMA_TTT1/REV_TTT, one ``fsum`` in REV_YOUNG) now read
#: ``DomainError: <id> overflows on this input: ...``; no other line changed.
#: Updated once more on purpose, when ``scalar_gap`` began to reject a gap
#: that is not finite: the 374 outcome lines that read ``nan``, ``inf`` or
#: ``-inf`` (YOUNG_ZUO 39 nan; YOUNG_WU_ZHAO, LEMMA_SUM and REV_YOUNG 33 nan
#: each; REV_SUM 33 nan and 28 inf; LEMMA_TTT1 56 nan and 76 -inf; REV_TTT
#: 40 nan and 3 inf) now read ``DomainError: <id> overflows on this input:
#: the gap is <value>``; no other line changed.
#: Updated a third time on purpose, when ``scalar_gap`` began to re-raise a
#: bare ``ValueError`` as ``DomainError``: the 242 outcome lines that read
#: ``ValueError: -inf + inf in fsum`` (LEMMA_TTT1 137, REV_TTT 105) now read
#: ``DomainError: <id> overflows on this input: -inf + inf in fsum``; no
#: other line changed.
_GOLDEN_SHA256 = "a563aa900087656880cc83ef2941732585dbff3710f2e4024f7b87a5b0c45270"


def _golden_draws():
    """3,000 seeded ``(a, b, nu)``; every tenth pair is an edge pair, and
    every third ``nu`` a special value (0, 1, 1/2 and 1/2 +- 1e-7, the
    quarters, a negative, one above 1, NaN)."""
    rng = derive_rng(2026, 11)
    for i in range(3000):
        if i % 10 == 9:
            a, b = _GOLDEN_EDGE_PAIRS[rng.next_u64() % len(_GOLDEN_EDGE_PAIRS)]
        else:
            a = 10.0 ** rng.uniform_in(-8.0, 8.0)
            b = 10.0 ** rng.uniform_in(-8.0, 8.0)
        if i % 3 == 0:
            nu = _GOLDEN_NUS[rng.next_u64() % len(_GOLDEN_NUS)]
        else:
            nu = rng.uniform()
        yield a, b, nu


def _outcome(gap, *args, **kwargs) -> str:
    try:
        return repr(gap(*args, **kwargs))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def test_scalar_outcomes_match_golden():
    # Pins every gap bit and every error message of the scalar path: the 7
    # ScalarParams statements, LEMMA_TTT1 at mu = nu and mu = 1 - 2 min(nu, 1-nu),
    # and REV_TTT at nu and min(nu, 1-nu), 33,000 outcomes in all.  Every a
    # and b is positive and finite: the check that rejects the rest now says
    # "positive and finite", so those inputs are left out here and pinned by
    # TestParams instead.
    digest = hashlib.sha256()
    for a, b, nu in _golden_draws():
        nu_low = min(nu, 1.0 - nu)
        try:
            p = ScalarParams(a, b, nu)
        except HypothesisError as exc:
            outcomes = [f"{type(exc).__name__}: {exc}"] * len(_PARAMS_IDS)
        else:
            outcomes = [_outcome(scalar_gap, ineq, p) for ineq in _PARAMS_IDS]
        for mu in (nu, 1.0 - 2.0 * nu_low):
            outcomes.append(
                _outcome(scalar_gap, ScalarIneqId.LEMMA_TTT1, extra={"a": a, "mu": mu})
            )
        for v in (nu, nu_low):
            outcomes.append(
                _outcome(scalar_gap, ScalarIneqId.REV_TTT, extra={"a": a, "nu": v})
            )
        for line in outcomes:
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == _GOLDEN_SHA256


@pytest.mark.parametrize(
    "ineq, params, extra",
    [
        (ScalarIneqId.REV_YOUNG, ScalarParams(1.7976931348623157e308, 1.0, 1.0), None),
        (ScalarIneqId.LEMMA_TTT1, None, {"a": 5e-324, "mu": 0.96}),
        (ScalarIneqId.YOUNG_ZUO, ScalarParams(1e300, 1e-300, 0.3), None),
        (ScalarIneqId.LEMMA_TTT1, None, {"a": 1e300, "mu": 0.4}),
        (
            ScalarIneqId.CHAIN_CALLEBAUT,
            ExponentPair(0.625, 0.75),
            {"x": (1e200, 1.0), "y": (1.0, 1e200)},
        ),
        (
            ScalarIneqId.CHAIN_CALLEBAUT,
            ExponentPair(0.75, 1.0),
            {"x": (1e200,), "y": (1e200,)},
        ),
    ],
    ids=["fsum", "power", "nan_gap", "infinite_gap", "infinite_link", "inf_minus_inf"],
)
def test_overflow_is_a_domain_error(ineq, params, extra):
    # Finite inputs whose terms overflow stay inside the package's error
    # taxonomy instead of leaking a bare OverflowError or returning a gap
    # that is not finite (K(inf) is inf / inf, an infinite term, or one
    # infinite link of a chain), nor a bare ValueError from an ``fsum`` of
    # inf and -inf.
    with pytest.raises(DomainError, match=f"{ineq.value} overflows on this input"):
        scalar_gap(ineq, params, extra=extra)
