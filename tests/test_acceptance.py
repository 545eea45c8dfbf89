"""Acceptance suite: each criterion runs at its stated tolerance and prints
one pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import json
import math
import time

import numpy as np
import pytest

from callebaut_lab import cli
from callebaut_lab.inequalities import (
    HADAMARD_SUM_IDS,
    REPAIRABLE,
    IneqId,
    Variant,
    evaluate_inequality,
    list_inequalities,
)
from callebaut_lab.matcore import SymMatrix, compress, hadamard, kron, spectral_pow, sym_eigen
from callebaut_lab.oracle import diagonal_equivalence, replay_witnesses
from callebaut_lab.sampler import (
    FamilyInstance,
    SpectralBand,
    derive_rng,
    sample_family,
    spd_in_band,
)
from callebaut_lab.scalarcore import (
    ExponentPair,
    ScalarIneqId,
    ScalarParams,
    chain_callebaut_gaps,
    scalar_gap,
)

BANDS = (
    SpectralBand(1.0, 1.0, 4.0, 4.0),
    SpectralBand(0.5, 1.0, 2.0, 8.0),
    SpectralBand(0.1, 0.2, 5.0, 10.0),
)

ST_GRID = [(s / 16, t / 16) for t in range(9, 17) for s in range(9, t + 1)] + [
    (s / 16, t / 16) for t in range(0, 8) for s in range(t, 8)
]


def _criterion(num, desc, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def default_suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite") / "run1.jsonl"
    start = time.perf_counter()
    rc = cli.main(["verify", "--seed", "1", "--out", str(out)])
    elapsed = time.perf_counter() - start
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    return rc, out, lines, elapsed


def test_criterion_1_matrix_core():
    rng = derive_rng(2026, 1)
    start = time.perf_counter()
    worst_recon = worst_sqrt = 0.0
    bit_exact = True
    for k in range(500):
        d = 1 + k % 16
        sym = SymMatrix(
            np.array([[rng.normal() for _ in range(d)] for _ in range(d)])
        )
        eig = sym_eigen(sym)
        err = np.linalg.norm(eig.reconstruct() - sym.array)
        worst_recon = max(worst_recon, err / max(1.0, np.linalg.norm(sym.array)))

        spd = spd_in_band(d, 0.5, 3.0, rng)
        back = spectral_pow(spectral_pow(spd, 0.5), 2)
        rel = np.linalg.norm(back.array - spd.array) / np.linalg.norm(spd.array)
        worst_sqrt = max(worst_sqrt, rel)

        other = SymMatrix(
            np.array([[rng.normal() for _ in range(d)] for _ in range(d)])
        )
        if not np.array_equal(compress(kron(sym, other), d).array, hadamard(sym, other).array):
            bit_exact = False
    elapsed = time.perf_counter() - start
    _criterion(
        1,
        "matrix core on 500 random matrices (d <= 16)",
        worst_recon <= 1e-10 and worst_sqrt <= 1e-9 and bit_exact and elapsed <= 5.0,
        f"recon {worst_recon:.2e} <= 1e-10, sqrt-roundtrip {worst_sqrt:.2e} <= 1e-9, "
        f"compress(kron) bit-exact: {bit_exact}, {elapsed:.2f}s <= 5s",
    )


SCALAR_SWEEP_IDS = (
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


def test_criterion_2_scalar_suite():
    rng = derive_rng(2026, 2)
    start = time.perf_counter()
    worst = math.inf
    worst_identity = 0.0
    for _ in range(100_000):
        a = 10.0 ** rng.uniform_in(-3.0, 3.0)
        b = 10.0 ** rng.uniform_in(-3.0, 3.0)
        nu = rng.uniform()
        while abs(nu - 0.5) < 1e-6:
            nu = rng.uniform()
        params = ScalarParams(a, b, nu)
        nu_low = min(nu, 1.0 - nu)
        for ineq in SCALAR_SWEEP_IDS:
            if ineq == ScalarIneqId.LEMMA_TTT1:
                gap = scalar_gap(ineq, extra={"a": a, "mu": 1.0 - 2.0 * nu_low})
                scale = a + 1.0 / a
            elif ineq == ScalarIneqId.REV_TTT:
                gap = scalar_gap(ineq, extra={"a": a, "nu": nu_low})
                scale = a + 1.0 / a
            else:
                gap = scalar_gap(ineq, params)
                scale = a + b
            worst = min(worst, gap / (1e-12 * scale))
        for v in (0.25, 0.75):
            wu = scalar_gap(ScalarIneqId.YOUNG_WU_ZHAO, ScalarParams(a, b, v))
            four = scalar_gap(ScalarIneqId.LEMMA_4TERM, ScalarParams(a, b, v))
            worst_identity = max(worst_identity, abs(wu) / (a + b), abs(four) / (a + b))
    elapsed = time.perf_counter() - start
    _criterion(
        2,
        "scalar suite on 1e5 random (a, b, nu)",
        worst >= -1.0 and worst_identity <= 1e-12 and elapsed <= 5.0,
        f"min gap/(1e-12*scale) {worst:.2f} >= -1, quarter-identity residual "
        f"{worst_identity:.2e} <= 1e-12, {elapsed:.2f}s <= 5s",
    )


def test_criterion_3_scalar_chain():
    rng = derive_rng(2026, 3)
    worst = math.inf
    for trial in range(10_000):
        n = 1 + trial % 6
        x = tuple(10.0 ** rng.uniform_in(-2.0, 2.0) for _ in range(n))
        y = tuple(10.0 ** rng.uniform_in(-2.0, 2.0) for _ in range(n))
        if trial % 2:
            t = rng.uniform_in(9 / 16, 1.0)
            s = rng.uniform_in(0.5 + 1e-6, t)
        else:
            t = rng.uniform_in(0.0, 7 / 16)
            s = rng.uniform_in(t, 0.5 - 1e-6)
        scale = math.fsum(x) * math.fsum(y)
        for g in chain_callebaut_gaps(x, y, ExponentPair(s, t)):
            worst = min(worst, g / (1e-12 * scale))
    _criterion(
        3,
        "scalar chain on 1e4 random tuples (n <= 6)",
        worst >= -1.0,
        f"min gap/(1e-12*scale) = {worst:.2f} >= -1",
    )


def test_criterion_4_operator_chains():
    ids = (
        IneqId.CHAIN_34RF,
        IneqId.WADA,
        IneqId.MOJ_MO,
        IneqId.HAD_MAMAN2,
        IneqId.COR_BJ_IDENTITY,
    )
    start = time.perf_counter()
    worst = {ineq: 0.0 for ineq in ids}
    for ineq in ids:
        for k in range(1000):
            rng = derive_rng(2026, 40_000 + k)
            band = BANDS[k % 3]
            n, d = 1 + k % 3, 1 + k % 4
            inst = sample_family(n, d, band, rng)
            if ineq == IneqId.WADA:
                params = (k % 9) / 8.0
                instance = FamilyInstance(
                    n=1, dim=d, A_list=inst.A_list[:1], B_list=inst.B_list[:1], band=band
                )
            else:
                s, t = ST_GRID[k % len(ST_GRID)]
                params = ExponentPair(s, t)
                instance = inst
            report = evaluate_inequality(ineq, instance, params)
            worst[ineq] = min(worst[ineq], report.gap.rel_gap)
    elapsed = time.perf_counter() - start
    ok = all(v >= -1e-9 for v in worst.values()) and elapsed <= 30.0
    detail = ", ".join(f"{i.value} {v:.1e}" for i, v in worst.items())
    _criterion(
        4,
        "operator chains, 1000 instances each (n <= 3, d <= 4), "
        "incl. the bracket positivity link",
        ok,
        f"min rel gaps: {detail}; {elapsed:.1f}s <= 30s",
    )


def test_criterion_5_falsification_witnesses():
    inst = sample_family(1, 1, BANDS[0], derive_rng(1, 0))
    pair = ExponentPair(0.75, 1.0)
    tool = evaluate_inequality(IneqId.TENSOR_TOOL, inst, pair).gap.min_eig
    maman = evaluate_inequality(IneqId.HAD_MAMAN, inst, pair).gap.min_eig
    dear = evaluate_inequality(IneqId.REV_TENSOR_DEAR, inst, pair).gap.min_eig
    mainth = evaluate_inequality(IneqId.REV_HAD_MAINTH, inst, pair).gap.min_eig
    # The frozen goldens were re-derived through the independent scalar oracle
    # (replay checks both paths); the reverse witness value -1.1058875 belongs
    # to the tensor reverse, whose Hadamard specialization gives -0.8 here.
    replay_ok = all(o.passed for o in replay_witnesses())
    ok = (
        abs(tool - (-0.8033009)) <= 1e-6
        and abs(maman - (-1.0)) <= 1e-9
        and abs(dear - (-1.1058875)) <= 1e-6
        and abs(mainth - (-0.8)) <= 1e-9
        and replay_ok
    )
    _criterion(
        5,
        "recorded witnesses reproduce their negative gaps",
        ok,
        f"tensor bound {tool:.7f} ~ -0.8033009, hadamard bound {maman:.7f} ~ -1.0, "
        f"tensor reverse {dear:.7f} ~ -1.1058875, hadamard reverse {mainth:.7f} ~ -0.8, "
        f"two-path replay: {replay_ok}",
    )


def test_criterion_6_repaired_variants(default_suite):
    inst = sample_family(1, 1, BANDS[0], derive_rng(1, 0))
    pair = ExponentPair(0.75, 1.0)
    at_witness = evaluate_inequality(
        IneqId.TENSOR_TOOL, inst, pair, Variant.REPAIRED
    ).gap.min_eig

    worst_pairs = 0.0
    for k in range(1000):
        rng = derive_rng(2026, 60_000 + k)
        band = BANDS[k % 3]
        pinst = sample_family(1, 1 + k % 4, band, rng, pin_extremes=True)
        s, t = ST_GRID[k % len(ST_GRID)]
        report = evaluate_inequality(
            IneqId.TENSOR_TOOL, pinst, ExponentPair(s, t), Variant.REPAIRED
        )
        worst_pairs = min(worst_pairs, report.gap.rel_gap)

    _, _, lines, _ = default_suite
    sweep_ids = {"HAD_MAMAN", "REV_HAD_MAINTH", "REV_T1_REMARK", "PROP_HBOUNDS"}
    sweep_gaps = [
        l["rel_gap"] for l in lines if l["variant"] == "repaired" and l["id"] in sweep_ids
    ]
    worst_sweep = min(sweep_gaps)
    ok = abs(at_witness) <= 1e-9 and worst_pairs >= -1e-9 and worst_sweep >= -1e-9
    _criterion(
        6,
        "repaired variants hold (witness equality + sweeps)",
        ok,
        f"witness gap {at_witness:.1e} (<= 1e-9), 1000 band pairs min rel gap "
        f"{worst_pairs:.1e}, default-sweep min rel gap {worst_sweep:.1e} "
        f"over {len(sweep_gaps)} repaired reports",
    )


def test_criterion_7_oracle_equivalence():
    worst_ratio = 0.0
    for ineq in HADAMARD_SUM_IDS:
        for k in range(200):
            rng = derive_rng(2026, 70_000 + k)
            band = BANDS[k % 3]
            n, d = 1 + k % 3, 1 + k % 4
            a = tuple(
                SymMatrix(np.diag([rng.uniform_in(band.M_lo, band.M_hi) for _ in range(d)]))
                for _ in range(n)
            )
            b = tuple(
                SymMatrix(np.diag([rng.uniform_in(band.m_lo, band.m_hi) for _ in range(d)]))
                for _ in range(n)
            )
            inst = FamilyInstance(n=n, dim=d, A_list=a, B_list=b, band=band)
            if ineq == IneqId.REV_T1_REMARK:
                s, _ = ST_GRID[k % 36]
                pair = ExponentPair(max(s, 9 / 16), 1.0)
            else:
                s, t = ST_GRID[k % len(ST_GRID)]
                pair = ExponentPair(s, t)
            disc = diagonal_equivalence(ineq, inst, pair)
            top = max(
                sum(m.array[i, i] for m in a) * max(1.0, sum(m.array[i, i] for m in b))
                for i in range(d)
            )
            scale = max(1.0, top, top * top)
            worst_ratio = max(worst_ratio, disc / (1e-10 * scale))
    _criterion(
        7,
        "diagonal instances: matrix path vs scalar path, 200 per id",
        worst_ratio <= 1.0,
        f"max discrepancy/(1e-10*scale) = {worst_ratio:.3f} <= 1",
    )


def test_criterion_8_determinism_and_budget(default_suite, tmp_path):
    rc1, out1, _, elapsed1 = default_suite
    out2 = tmp_path / "run2.jsonl"
    start = time.perf_counter()
    rc2 = cli.main(["verify", "--seed", "1", "--out", str(out2)])
    elapsed2 = time.perf_counter() - start
    identical = out1.read_bytes() == out2.read_bytes()
    csv1 = out1.with_name(out1.stem + ".summary.csv").read_bytes()
    csv2 = out2.with_name(out2.stem + ".summary.csv").read_bytes()
    ok = (
        rc1 == 0
        and rc2 == 0
        and identical
        and csv1 == csv2
        and elapsed1 < 60.0
        and elapsed2 < 60.0
    )
    _criterion(
        8,
        "default suite is byte-deterministic and fits the time budget",
        ok,
        f"reports identical: {identical}, csv identical: {csv1 == csv2}, "
        f"wall times {elapsed1:.1f}s / {elapsed2:.1f}s < 60s",
    )


def test_default_sweep_verdict_table(default_suite):
    # The default sweep's verdicts, as integers: the report's bytes hold on
    # one LAPACK build only (README, "Where bit-exactness holds"), these
    # counts wherever no gap changes its sign.
    rc, _, lines, _ = default_suite
    tally = {}
    for line in lines:
        counts = tally.setdefault((line["id"], line["variant"]), [0, 0])
        counts[0 if line["satisfied"] else 1] += 1
    satisfied = {"HAD_MAMAN": 46, "PROP_HBOUNDS": 44, "REV_HAD_MAINTH": 48,
                 "REV_T1_REMARK": 23, "REV_TENSOR_DEAR": 71, "TENSOR_TOOL": 76}
    expected = {}
    for info in list_inequalities():
        for v in info.variants:
            ok = satisfied.get(info.ineq.value, 200) if v == Variant.PAPER_LITERAL else 200
            expected[(info.ineq.value, v.value)] = [ok, 200 - ok]
    assert tally == expected
    findings = sum(bad for (ineq, variant), (_, bad) in tally.items()
                   if variant == "paper" and IneqId(ineq) in REPAIRABLE)
    unexpected = sum(bad for _, bad in tally.values()) - findings
    assert (rc, unexpected, findings) == (0, 0, 892)
