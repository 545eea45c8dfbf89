import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from callebaut_lab import cli
from callebaut_lab.errors import ConfigError, DomainError, HypothesisError
from callebaut_lab.inequalities import (
    REPAIRABLE,
    IneqId,
    Variant,
    build_links,
    inequality_info,
)
from callebaut_lab.sampler import LANE_MIN, derive_rng, sample_family, spd_in_band
from callebaut_lab.scalarcore import ExponentPair


def _run(argv):
    return cli.main(argv)


def _looped_shuffle(points, key, tracked=None):
    """The grid shuffle one ``next_u64`` word at a time, the reference for
    ``cli._shuffled``."""
    order = list(points)
    rng = derive_rng(0xA5A5_1234, cli._stable_hash(key))
    for i in range(len(order) - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        order[i], order[j] = order[j], order[i]
        if tracked == i:
            tracked = j
        elif tracked == j:
            tracked = i
    return order, tracked


@pytest.fixture(scope="module")
def tiny_reports(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify") / "run.jsonl"
    rc = _run(["verify", "--seed", "11", "--trials", "3", "--out", str(out)])
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    return rc, out, lines


class TestVerify:
    def test_exit_zero_with_findings(self, tiny_reports):
        rc, _, lines = tiny_reports
        assert rc == cli.EXIT_OK
        assert any(not l["satisfied"] for l in lines)  # literal findings exist

    def test_expected_true_all_satisfied(self, tiny_reports):
        _, _, lines = tiny_reports
        for l in lines:
            if l["variant"] == "repaired" or IneqId(l["id"]) not in REPAIRABLE:
                assert l["satisfied"], l

    def test_only_repairable_paper_violations_are_findings(self, monkeypatch):
        def violated(config, job, family):
            return {"id": job.ineq.value, "variant": job.variant.value,
                    "stream": job.trial, "rel_gap": -1.0, "satisfied": False}

        monkeypatch.setattr(cli, "_run_trial", violated)
        summary, _ = cli.run_verify(cli.SuiteConfig(trials=1))
        # One trial per combo: 12 paper combos and 6 repaired ones.
        assert summary.findings == len(REPAIRABLE)
        assert summary.unexpected == len(IneqId)
        assert summary.verdict == "FAIL"

    @pytest.mark.parametrize(
        "violated, strict, expected",
        [
            ({IneqId.CHAIN_34RF}, False, cli.EXIT_VIOLATION),
            (REPAIRABLE, False, cli.EXIT_OK),
            (REPAIRABLE, True, cli.EXIT_VIOLATION),
        ],
        ids=["unexpected", "findings", "findings_strict"],
    )
    def test_exit_code_follows_verdict(self, monkeypatch, tmp_path, violated, strict, expected):
        # Only the paper variant violates, so a REPAIRABLE id gives findings
        # and any other id an unexpected violation.
        def run_trial(config, job, family):
            ok = job.ineq not in violated or job.variant == Variant.REPAIRED
            return {"id": job.ineq.value, "variant": job.variant.value,
                    "stream": job.trial, "rel_gap": 0.0 if ok else -1.0, "satisfied": ok}

        monkeypatch.setattr(cli, "_run_trial", run_trial)
        argv = ["verify", "--trials", "1", "--out", str(tmp_path / "v.jsonl")]
        if strict:
            argv.append("--strict")
        assert _run(argv) == expected

    @pytest.mark.parametrize(
        "error", [DomainError, HypothesisError, np.linalg.LinAlgError],
        ids=lambda e: e.__name__,
    )
    def test_failing_trial_is_reported_and_counted(self, monkeypatch, tmp_path, error):
        argv = ["verify", "--trials", "2", "--variant", "repaired", "--seed", "5"]
        clean = tmp_path / "clean.jsonl"
        assert _run(argv + ["--out", str(clean)]) == cli.EXIT_OK
        evaluated, seen = cli._evaluated, []

        # The second HAD_MAMAN trial evaluated is trial 1: its report is the error.
        def failing(trials, tol):
            reports = evaluated(trials, tol)
            for k, trial in enumerate(trials):
                if trial[0] == IneqId.HAD_MAMAN:
                    seen.append(k)
                    if len(seen) == 2:
                        reports[k] = error("boom")
            return reports

        monkeypatch.setattr(cli, "_evaluated", failing)
        out = tmp_path / "failing.jsonl"
        assert _run(argv + ["--out", str(out)]) == cli.EXIT_VIOLATION
        expected = clean.read_text().splitlines()
        got = out.read_text().splitlines()
        assert len(got) == len(expected)
        errors = [json.loads(l) for l in got if '"error"' in l]
        assert len(errors) == 1
        err = errors[0]
        assert err["error"] == f"{error.__name__}: boom"
        index = got.index(json.dumps(err, sort_keys=True, separators=(",", ":")))
        # The error line keeps the trial's head: same id, stream and grid point.
        clean_line = json.loads(expected[index])
        head = {"id", "variant", "seed", "stream", "n", "dim", "band", "params"}
        assert set(err) == head | {"error"}
        assert {k: clean_line[k] for k in head} == {k: err[k] for k in head}
        assert (err["id"], err["variant"]) == ("HAD_MAMAN", "repaired")
        # Every other trial still runs, and writes the bytes it wrote before.
        assert got[:index] + got[index + 1:] == expected[:index] + expected[index + 1:]
        rows = (tmp_path / "failing.summary.csv").read_text().splitlines()
        assert "HAD_MAMAN,repaired,2,1,1," in "\n".join(rows)

    @pytest.mark.parametrize("workers", ["1"])
    def test_failing_stage_is_attributed_to_its_trial(self, monkeypatch, tmp_path, workers):
        # Families are sampled in stages of cli.STAGE trials.  When the
        # stacked eigendecomposition of a stage fails on one trial's matrix,
        # only that trial reports the error; every other line is unchanged.
        argv = ["verify", "--trials", "40", "--variant", "repaired", "--seed", "5",
                "--workers", workers]
        clean = tmp_path / "clean.jsonl"
        assert _run(argv + ["--out", str(clean)]) == cli.EXIT_OK
        ineq, variant = IneqId.HAD_MAMAN, Variant.REPAIRED
        points = cli.grid_points(ineq, cli.SuiteConfig())
        k = next(k for k in range(40) if points[k % len(points)][2] >= 2)
        band, n, d, _ = point = points[k % len(points)]
        stream = cli._trial_stream(ineq, variant, point, k)
        family = sample_family(n, d, band, derive_rng(5, stream))
        poisoned = family.B_list[0].array.tobytes()
        eigh = np.linalg.eigh

        def failing_eigh(a):
            if any(x.tobytes() == poisoned for x in a.reshape(-1, *a.shape[-2:])):
                raise np.linalg.LinAlgError("boom")
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        out = tmp_path / "failing.jsonl"
        assert _run(argv + ["--out", str(out)]) == cli.EXIT_VIOLATION
        expected = clean.read_text().splitlines()
        got = out.read_text().splitlines()
        assert len(got) == len(expected) == 240
        bad = [i for i, l in enumerate(got) if '"error"' in l]
        assert len(bad) == 1
        err, ref = json.loads(got[bad[0]]), json.loads(expected[bad[0]])
        assert err["error"] == "LinAlgError: boom"
        assert (err["id"], err["variant"], err["stream"]) == (ineq.value, variant.value, stream)
        assert {key: ref[key] for key in err if key != "error"} == {
            key: err[key] for key in err if key != "error"
        }
        del got[bad[0]], expected[bad[0]]
        assert got == expected

    def test_failing_link_gap_is_attributed_to_its_trial(self, monkeypatch, tmp_path):
        # Trials are evaluated in stages too.  When the stacked Loewner-gap
        # decomposition of a stage fails on one trial's link, the stage is
        # evaluated again trial by trial, so only that trial reports it.
        argv = ["verify", "--trials", "40", "--variant", "repaired", "--seed", "5"]
        clean = tmp_path / "clean.jsonl"
        assert _run(argv + ["--out", str(clean)]) == cli.EXIT_OK
        ineq, variant = IneqId.PROP_HBOUNDS, Variant.REPAIRED
        points = cli.grid_points(ineq, cli.SuiteConfig())
        k = next(k for k in range(40) if points[k % len(points)][2] >= 2)
        band, n, d, params = point = points[k % len(points)]
        stream = cli._trial_stream(ineq, variant, point, k)
        family = sample_family(n, d, band, derive_rng(5, stream))
        (_, lhs, rhs), *_ = build_links(ineq, family, params, variant)
        poisoned = (rhs - lhs).array.tobytes()
        eigh = np.linalg.eigh

        def failing_eigh(a):
            if any(x.tobytes() == poisoned for x in a.reshape(-1, *a.shape[-2:])):
                raise np.linalg.LinAlgError("boom")
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        out = tmp_path / "failing.jsonl"
        assert _run(argv + ["--out", str(out)]) == cli.EXIT_VIOLATION
        expected = clean.read_text().splitlines()
        got = out.read_text().splitlines()
        assert len(got) == len(expected) == 240
        bad = [i for i, l in enumerate(got) if '"error"' in l]
        assert len(bad) == 1
        err, ref = json.loads(got[bad[0]]), json.loads(expected[bad[0]])
        assert err["error"] == "LinAlgError: boom"
        assert (err["id"], err["variant"], err["stream"]) == (ineq.value, variant.value, stream)
        assert {key: ref[key] for key in err if key != "error"} == {
            key: err[key] for key in err if key != "error"
        }
        del got[bad[0]], expected[bad[0]]
        assert got == expected

    def test_line_schema(self, tiny_reports):
        _, _, lines = tiny_reports
        keys = {
            "id", "variant", "seed", "stream", "n", "dim", "band", "params",
            "links", "min_eig", "rel_gap", "lhs_norm", "rhs_norm", "satisfied",
            "witness",
        }
        for l in lines:
            assert set(l) == keys
            assert len(l["band"]) == 4
            assert (l["witness"] is not None) == (not l["satisfied"])

    def test_sorted_by_id_variant_stream(self, tiny_reports):
        _, _, lines = tiny_reports
        key = [(l["id"], l["variant"], l["stream"]) for l in lines]
        assert key == sorted(key)

    def test_sampling_keys_are_frozen(self, tiny_reports):
        # Stream ids depend only on blake2b and the grid shuffle, whose
        # words and swaps are exact integer arithmetic, so this digest is
        # the same on every machine and NumPy build.
        _, _, lines = tiny_reports
        keys = "".join(f"{l['id']} {l['variant']} {l['stream']}\n" for l in lines)
        assert hashlib.sha256(keys.encode()).hexdigest() == (
            "8c12c3bd9031417d00cdc80f71f5f9defde0cb0d03c2f245fd0b30be8524094b"
        )

    def test_default_grid_is_frozen(self):
        # Every default grid point of every id, in sweep order, with its
        # parameters in report form; integer arithmetic only, so the same on
        # every build.
        config = cli.SuiteConfig()
        rows = [
            [ineq.value, list(band.as_tuple()), n, d, inequality_info(ineq).kind.report(params)]
            for ineq in IneqId
            for band, n, d, params in cli.grid_points(ineq, config)
        ]
        assert len(rows) == 20940
        digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
        assert digest == (
            "28abc52889e5024d98bda1ff5ce5e169a79a872c7f71f498b3ed398fb113c177"
        )

    @pytest.mark.parametrize("ineq", list(IneqId), ids=lambda i: i.value)
    def test_grid_shuffle_equals_the_word_loop(self, ineq):
        # Every id's grid in product order, shuffled with the witness, the
        # ends and no item tracked, and its first one and two points.
        info = inequality_info(ineq)
        sizes = (1,) if info.takes_pair else cli.FAMILY_SIZES
        points = [(band, n, d, p) for band in cli.DEFAULT_BANDS for n in sizes
                  for d in cli.DIMS for p in info.kind.values]
        witness = points.index(cli.WITNESS_POINT) if cli.WITNESS_POINT in points else None
        for tracked in (None, 0, witness, len(points) - 1):
            assert cli._shuffled(points, ineq.value, tracked) == _looped_shuffle(
                points, ineq.value, tracked)
        for head in (points[:1], points[:2]):
            for tracked in (None, 0, len(head) - 1):
                assert cli._shuffled(head, ineq.value, tracked) == _looped_shuffle(
                    head, ineq.value, tracked)

    def test_each_grid_is_shuffled_once_per_process(self, monkeypatch):
        # The order depends on the id alone: two sweeps and a search after
        # them shuffle each id's grid once.
        shuffled = cli._shuffled
        keys = []

        def counted(points, key, tracked=None):
            keys.append(key)
            return shuffled(points, key, tracked)

        monkeypatch.setattr(cli, "_shuffled", counted)
        cli._grid_order.cache_clear()
        for seed in (1, 2):
            cli.run_verify(cli.SuiteConfig(master_seed=seed, trials=1))
        cli.run_falsify(IneqId.HAD_MAMAN, Variant.PAPER_LITERAL, 1, cli.SuiteConfig())
        assert sorted(keys) == sorted(ineq.value for ineq in IneqId)

    @pytest.mark.parametrize("ineq", list(IneqId), ids=lambda i: i.value)
    def test_sweep_reads_grid_point_k_mod_n(self, monkeypatch, ineq):
        # verify builds only the grid points it reads; trial k reads
        # grid_points' point k % n, below, at and beyond the grid's size n.
        grid = cli.grid_points(ineq, cli.SuiteConfig())
        n = len(grid)
        read = []

        def points_read(stages, pin, tol):
            read.append([job.point for stage in stages for job, _ in stage])
            return []

        monkeypatch.setattr(cli, "_combos", lambda config: [(ineq, Variant.PAPER_LITERAL)])
        monkeypatch.setattr(cli, "_staged", points_read)
        for trials in (1, 12, n - 1, n, n + 1):
            cli.run_verify(cli.SuiteConfig(trials=trials))
            assert read.pop() == [grid[k % n] for k in range(trials)]

    def test_grid_lists_are_not_shared(self):
        ineq = IneqId.HAD_MAMAN
        first = cli.grid_points(ineq, cli.SuiteConfig())
        expected = list(first)
        first.reverse()
        first[0] = None
        assert cli.grid_points(ineq, cli.SuiteConfig()) == expected

    def test_cached_grid_order_is_read_only(self):
        for ineq in IneqId:
            order = cli._grid_order(ineq)
            assert not order.flags.writeable
            with pytest.raises(ValueError):
                order[0] = order[-1]
            assert sorted(order.tolist()) == list(range(len(order)))

    def test_grid_rebuilds_to_the_frozen_digest(self):
        config = cli.SuiteConfig()
        cli._grid_order.cache_clear()
        rows = [
            [ineq.value, list(band.as_tuple()), n, d, inequality_info(ineq).kind.report(params)]
            for ineq in IneqId
            for band, n, d, params in cli.grid_points(ineq, config)
        ]
        assert cli._grid_order.cache_info().currsize == len(IneqId)
        digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
        assert digest == (
            "28abc52889e5024d98bda1ff5ce5e169a79a872c7f71f498b3ed398fb113c177"
        )

    def test_byte_identical_reruns(self, tiny_reports, tmp_path):
        _, out, _ = tiny_reports
        out2 = tmp_path / "again.jsonl"
        rc = _run(["verify", "--seed", "11", "--trials", "3", "--out", str(out2)])
        assert rc == cli.EXIT_OK
        assert out.read_bytes() == out2.read_bytes()
        csv1 = out.with_name(out.stem + ".summary.csv")
        csv2 = out2.with_name(out2.stem + ".summary.csv")
        assert csv1.read_bytes() == csv2.read_bytes()

    def test_witness_grid_point_included(self, tiny_reports):
        _, _, lines = tiny_reports
        maman = [
            l
            for l in lines
            if l["id"] == "HAD_MAMAN" and l["variant"] == "paper" and not l["satisfied"]
        ]
        assert maman, "the default sweep must revisit the recorded counterexample"

    def test_strict_flag_fails_on_findings(self, tmp_path):
        rc = _run(
            ["verify", "--seed", "11", "--trials", "2", "--strict",
             "--out", str(tmp_path / "strict.jsonl")]
        )
        assert rc == cli.EXIT_VIOLATION

    def test_variant_selection(self, tmp_path):
        out = tmp_path / "rep.jsonl"
        rc = _run(["verify", "--seed", "3", "--trials", "2", "--variant", "repaired",
                   "--out", str(out)])
        assert rc == cli.EXIT_OK
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines and all(l["variant"] == "repaired" for l in lines)

    def test_workers_flag_accepts_only_one(self, tmp_path):
        # The benchmark still passes --workers 1; verify runs on one thread.
        a, b = tmp_path / "plain.jsonl", tmp_path / "w1.jsonl"
        assert _run(["verify", "--seed", "5", "--trials", "4", "--out", str(a)]) == cli.EXIT_OK
        assert _run(["verify", "--seed", "5", "--trials", "4", "--workers", "1",
                     "--out", str(b)]) == cli.EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        with pytest.raises(SystemExit) as exc:
            _run(["verify", "--trials", "1", "--workers", "2", "--out", str(tmp_path / "w2.jsonl")])
        assert exc.value.code == cli.EXIT_CONFIG

    def test_report_does_not_depend_on_stage_size(self, monkeypatch, tmp_path):
        # One trial per stage is the per-trial reference; 100 trials per id
        # cross the default stage boundary.
        argv = ["verify", "--trials", "100", "--variant", "repaired", "--seed", "5"]
        assert 100 * len(REPAIRABLE) > cli.STAGE
        staged, single = tmp_path / "staged.jsonl", tmp_path / "single.jsonl"
        assert _run(argv + ["--out", str(staged)]) == cli.EXIT_OK
        monkeypatch.setattr(cli, "STAGE", 1)
        assert _run(argv + ["--out", str(single)]) == cli.EXIT_OK
        assert staged.read_bytes() == single.read_bytes()

    def test_report_does_not_depend_on_draw_window(self, monkeypatch, tmp_path):
        # A stage is also the sampler's draw window.  Below sampler.LANE_MIN
        # requests each stream's words are drawn serially; at LANE_MIN the
        # window is just wide enough for lanes.
        argv = ["verify", "--trials", "50", "--variant", "repaired", "--seed", "5"]
        lanes = tmp_path / "lanes.jsonl"
        assert _run(argv + ["--out", str(lanes)]) == cli.EXIT_OK
        for window in (8, LANE_MIN):
            monkeypatch.setattr(cli, "STAGE", window)
            out = tmp_path / f"window{window}.jsonl"
            assert _run(argv + ["--out", str(out)]) == cli.EXIT_OK
            assert out.read_bytes() == lanes.read_bytes()

    def test_summary_table_follows_redirected_stdout(self, tmp_path):
        # The table goes to ``sys.stdout`` as it is when verify prints, so a
        # redirect made after import captures it with the report line.
        out = io.StringIO()
        argv = ["verify", "--trials", "1", "--variant", "repaired", "--out", str(tmp_path / "r.jsonl")]
        with contextlib.redirect_stdout(out):
            assert _run(argv) == cli.EXIT_OK
        lines = out.getvalue().splitlines()
        assert lines[0].split() == ["id", "variant", "evaluated", "satisfied", "violated", "min_rel_gap"]
        assert len(lines) == 1 + len(REPAIRABLE) + 2
        assert lines[-2].startswith("verdict: PASS") and lines[-1].startswith("report: ")


def _stream(config, key: str):
    """The stream id of a sampling key, and a fresh generator on it."""
    stream = cli._stable_hash(key)
    return stream, derive_rng(config.master_seed, stream)


class TestFalsify:
    def test_finds_maman_violation(self, capsys):
        rc = _run(["falsify", "--id", "HAD_MAMAN", "--variant", "paper",
                   "--budget", "50", "--seed", "2"])
        assert rc == cli.EXIT_OK
        best = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert best["rel_gap"] <= -0.1

    def test_true_statement_survives(self, capsys):
        rc = _run(["falsify", "--id", "CHAIN_34RF", "--variant", "paper",
                   "--budget", "40", "--seed", "2"])
        assert rc == cli.EXIT_OK
        best = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert best["rel_gap"] >= -1e-9

    def test_budget_zero(self, capsys):
        rc = _run(["falsify", "--id", "HAD_MAMAN", "--budget", "0"])
        assert rc == cli.EXIT_OK
        assert "empty result" in capsys.readouterr().out

    def test_negative_budget_is_config_error(self):
        assert _run(["falsify", "--id", "HAD_MAMAN", "--budget", "-1"]) == cli.EXIT_CONFIG
        with pytest.raises(ConfigError, match="budget must be >= 0"):
            cli.run_falsify(IneqId.HAD_MAMAN, Variant.PAPER_LITERAL, -1, cli.SuiteConfig())

    def test_unknown_id_is_config_error(self):
        assert _run(["falsify", "--id", "NOPE", "--budget", "1"]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("ineq", [IneqId.HAD_MAMAN, IneqId.TENSOR_TOOL])
    def test_best_line_does_not_depend_on_stage_size(self, monkeypatch, ineq):
        # Budgets on both sides of the default stage boundary, and one that
        # crosses two, against one trial per stage as the per-trial reference.
        budgets = (1, cli.STAGE - 1, cli.STAGE, cli.STAGE + 1, 2 * cli.STAGE + 1)
        config = cli.SuiteConfig(master_seed=1000)

        def best_lines():
            return [cli.run_falsify(ineq, Variant.PAPER_LITERAL, b, config) for b in budgets]

        staged = best_lines()
        monkeypatch.setattr(cli, "STAGE", 1)
        assert best_lines() == staged

    @pytest.mark.parametrize("ineq", [IneqId.HAD_MAMAN, IneqId.WADA])
    def test_budget_trial_reads_the_grid_point_of_its_first_word(self, monkeypatch, ineq):
        # falsify builds only the grid points its trials pick: budget trial b
        # reads grid_points' point w mod n, w the first word of its stream,
        # and samples on from the second word, across a stage boundary.
        grid = cli.grid_points(ineq, cli.SuiteConfig())
        config = cli.SuiteConfig(master_seed=4)
        read = []

        def jobs_read(stages, pin, tol):
            assert pin
            read.extend(item for stage in stages for item in stage)
            return []

        monkeypatch.setattr(cli, "_staged", jobs_read)
        budget = cli.STAGE + 3
        assert cli.run_falsify(ineq, Variant.PAPER_LITERAL, budget, config) == (None, 0)
        assert [job.trial for job, _ in read] == list(range(budget))
        for job, rng in read:
            stream, ref = _stream(config, f"falsify|{ineq.value}|paper|trial={job.trial}")
            assert (job.ineq, job.variant, job.stream) == (ineq, Variant.PAPER_LITERAL, stream)
            assert job.point == grid[ref.next_u64() % len(grid)]
            assert (rng._s0, rng._s1, rng._s2, rng._s3) == (ref._s0, ref._s1, ref._s2, ref._s3)

    def test_best_line_does_not_depend_on_draw_window(self, monkeypatch):
        # Budgets across the default draw window (the stage), drawn as lanes
        # (the default), with windows below sampler.LANE_MIN (serial words),
        # and with windows just wide enough for lanes.
        budgets = (1, 33, 600)
        assert budgets[-1] > cli.STAGE
        config = cli.SuiteConfig(master_seed=1001)

        def best_lines():
            return [cli.run_falsify(ineq, Variant.PAPER_LITERAL, b, config)
                    for ineq in (IneqId.HAD_MAMAN, IneqId.TENSOR_TOOL) for b in budgets]

        lanes = best_lines()
        for window in (8, LANE_MIN):
            monkeypatch.setattr(cli, "STAGE", window)
            assert best_lines() == lanes

    def test_failing_trial_is_skipped_and_counted(self, monkeypatch, capsys):
        # A trial whose sampling fails is skipped: the best line is the one
        # of a clean run, and stderr counts the skipped trial.
        argv = ["falsify", "--id", "HAD_MAMAN", "--budget", "40", "--seed", "3"]
        assert _run(argv) == cli.EXIT_OK
        clean = capsys.readouterr()
        assert clean.err == ""
        best = json.loads(clean.out.strip().splitlines()[-1])
        points = cli.grid_points(IneqId.HAD_MAMAN, cli.SuiteConfig())
        for b in range(40):
            if b == best["trial"]:
                continue
            stream, rng = _stream(cli.SuiteConfig(master_seed=3), f"falsify|HAD_MAMAN|paper|trial={b}")
            band, n, d, _ = points[rng.next_u64() % len(points)]
            if d >= 2:
                break
        family = sample_family(n, d, band, rng, True)
        poisoned = family.A_list[0].array.tobytes()
        eigh = np.linalg.eigh

        def failing_eigh(a):
            if any(x.tobytes() == poisoned for x in a.reshape(-1, *a.shape[-2:])):
                raise np.linalg.LinAlgError("boom")
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        assert _run(argv) == cli.EXIT_OK
        got = capsys.readouterr()
        assert got.out == clean.out
        assert got.err == "skipped 1 failing trials or refinement steps\n"

    def test_failing_evaluation_is_skipped_and_counted(self, monkeypatch, capsys):
        # Every budget trial's evaluation fails, then every refinement step:
        # no result, exit 2, and the count on stderr.
        def failing_stage(trials, tol):
            return [HypothesisError("boom") for _ in trials]

        monkeypatch.setattr(cli, "evaluate_stage", failing_stage)
        rc = _run(["falsify", "--id", "HAD_MAMAN", "--budget", "5", "--seed", "3"])
        got = capsys.readouterr()
        assert rc == cli.EXIT_VIOLATION
        assert got.out == "empty result: all 5 trials failed\n"
        assert got.err == "skipped 5 failing trials or refinement steps\n"

    def test_failing_refinement_step_is_not_better(self, monkeypatch, capsys):
        # Budget 20 fits one stage (cli.STAGE), so every later evaluate_stage
        # call evaluates refinement steps; each of those steps fails.
        argv = ["falsify", "--id", "HAD_MAMAN", "--budget", "20", "--seed", "3"]
        assert 20 <= cli.STAGE
        stage = cli.evaluate_stage
        calls = []

        def failing(trials, tol):
            calls.append(len(trials))
            if len(calls) == 1:
                return stage(trials, tol)
            return [np.linalg.LinAlgError("boom") for _ in trials]

        monkeypatch.setattr(cli, "evaluate_stage", failing)
        assert _run(argv) == cli.EXIT_OK
        got = capsys.readouterr()
        assert calls[0] == 20 and sum(calls[1:]) == cli.REFINE_STEPS
        assert got.err == "skipped 50 failing trials or refinement steps\n"
        best = json.loads(got.out.strip().splitlines()[-1])
        assert best["trial"] >= 0  # no refinement step won
        calls.clear()
        best_budget, failed = cli.run_falsify(
            IneqId.HAD_MAMAN, Variant.PAPER_LITERAL, 20, cli.SuiteConfig(master_seed=3)
        )
        assert failed == 50 and best_budget == best

    @staticmethod
    def _refine_outputs(monkeypatch, capsys, argvs):
        """(exit code, stdout, stderr) of each falsify run, and the number
        of refinement steps built in each."""
        step = cli._refine_step
        built = []

        def counted(*args):
            built[-1] += 1
            return step(*args)

        monkeypatch.setattr(cli, "_refine_step", counted)
        out = []
        for argv in argvs:
            built.append(0)
            rc = _run(argv)
            got = capsys.readouterr()
            out.append((rc, got.out, got.err))
        return out, built

    @pytest.mark.parametrize(
        "ineq, variant",
        [(ineq, variant)
         for ineq in (IneqId.HAD_MAMAN, IneqId.TENSOR_TOOL, IneqId.CHAIN_34RF, IneqId.REV_T1_REMARK)
         for variant in inequality_info(ineq).variants],
    )
    def test_best_line_does_not_depend_on_refine_chunk(self, monkeypatch, capsys, ineq, variant):
        # One step per chunk is the serial refinement.  At small budgets the
        # best is poor, so steps improve often and chunks start again from a
        # new best; the default chunk then builds steps it discards.
        argvs = [["falsify", "--id", ineq.value, "--variant", variant.value,
                  "--budget", str(b), "--seed", "1000"] for b in (1, 20, 200)]
        chunked, built = self._refine_outputs(monkeypatch, capsys, argvs)
        monkeypatch.setattr(cli, "REFINE_CHUNK", 1)
        serial, serial_built = self._refine_outputs(monkeypatch, capsys, argvs)
        assert serial == chunked
        assert serial_built == [cli.REFINE_STEPS] * 3
        assert max(built) > cli.REFINE_STEPS

    def test_discarded_failing_step_is_counted_once(self, monkeypatch, capsys):
        # A matrix redraw that fails, built first in a chunk after an
        # improving step: that build is discarded, and the step fails again
        # from the new best.  It is counted once, as in the serial run.
        ineq, variant, seed, budget = IneqId.HAD_MAMAN, Variant.PAPER_LITERAL, 3, 20
        config = cli.SuiteConfig(master_seed=seed)
        step, plan_of, run_falsify = cli._refine_step, cli._refine_plan, cli.run_falsify
        builds, plans = [], []

        def recorded(ineq, st, point):
            builds.append(st.stream)
            return step(ineq, st, point)

        def planned(*args):
            plans.append((args, plan_of(*args)))
            return plans[-1][1]

        monkeypatch.setattr(cli, "_refine_step", recorded)
        monkeypatch.setattr(cli, "_refine_plan", planned)
        clean = run_falsify(ineq, variant, budget, config)
        ((args, plan),) = plans
        # The first redraw of dimension >= 2 that is built more than once.
        for st in plan:
            if st.redraw is not None and st.redraw[2][0] >= 2 and builds.count(st.stream) > 1:
                break
        else:
            pytest.fail("no discarded redraw of dimension >= 2")
        # Its matrix, from a fresh plan: the search's generators have drawn.
        (fresh,) = [f for f in plan_of(*args) if f.stream == st.stream]
        poisoned = spd_in_band(*fresh.redraw[2]).array.tobytes()
        eigh = np.linalg.eigh

        def failing_eigh(a):
            if any(x.tobytes() == poisoned for x in a.reshape(-1, *a.shape[-2:])):
                raise np.linalg.LinAlgError("boom")
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        builds.clear()
        chunked = run_falsify(ineq, variant, budget, config)
        assert builds.count(st.stream) > 1
        assert chunked[1] == clean[1] + 1 == 1
        argv = ["falsify", "--id", ineq.value, "--budget", str(budget), "--seed", str(seed)]
        (printed,), _ = self._refine_outputs(monkeypatch, capsys, [argv])
        assert printed[2] == "skipped 1 failing trials or refinement steps\n"
        monkeypatch.setattr(cli, "REFINE_CHUNK", 1)
        assert run_falsify(ineq, variant, budget, config) == chunked
        assert self._refine_outputs(monkeypatch, capsys, [argv])[0] == [printed]

    @pytest.mark.parametrize("fails", [False, True], ids=["sampled", "failing"])
    def test_each_redraw_is_sampled_once(self, monkeypatch, fails):
        # A chunk that an improving step cuts short builds its later steps
        # again from the new best.  Their redraws, or the errors sampling
        # them raised, are kept: every redraw is sampled, once, and the
        # result and failure count are those of one step at a time.
        step, plan_of, sample = cli._refine_step, cli._refine_plan, cli.sample_matrices
        requests, built, sampled = {}, [], []

        def planned(*args):
            plan = plan_of(*args)
            for st in plan:
                if st.redraw is not None:
                    requests[id(st.redraw[2])] = (st.stream, st.redraw[2])  # held, so ids stay unique
            return plan

        def recorded(ineq, st, point):
            built.append(st.stream)
            return step(ineq, st, point)

        def counted(reqs):
            sampled.extend(requests[id(r)][0] for r in reqs)
            got = sample(reqs)
            return [np.linalg.LinAlgError("boom") for _ in got] if fails else got

        monkeypatch.setattr(cli, "_refine_plan", planned)
        monkeypatch.setattr(cli, "_refine_step", recorded)
        monkeypatch.setattr(cli, "sample_matrices", counted)
        config = cli.SuiteConfig(master_seed=1000)
        chunks = (cli.REFINE_CHUNK, 1)
        for ineq in (IneqId.HAD_MAMAN, IneqId.TENSOR_TOOL):
            for budget in (1, 20, 200):
                results = []
                for chunk in chunks:
                    monkeypatch.setattr(cli, "REFINE_CHUNK", chunk)
                    built.clear()
                    sampled.clear()
                    requests.clear()
                    results.append(cli.run_falsify(ineq, Variant.PAPER_LITERAL, budget, config))
                    redraws = {s for s, _ in requests.values()}
                    assert redraws and sorted(sampled) == sorted(redraws)
                    assert redraws <= set(built)
                    if chunk > 1 and budget == 1 and not fails:
                        assert any(built.count(s) > 1 for s in redraws)
                assert results[0] == results[1]

    @pytest.mark.parametrize("budget", ["0", "1"])
    def test_repaired_undefined_is_config_error(self, budget):
        rc = _run(["falsify", "--id", "WADA", "--variant", "repaired", "--budget", budget])
        assert rc == cli.EXIT_CONFIG

    @pytest.mark.parametrize(
        "start, expected",
        [
            ((24, 32), [(23, 31), (25, 32), (23, 31), (25, 32)]),
            ((8, 4), [(7, 3), (9, 4), (7, 5), (9, 5)]),
            ((18, 26), [(17, 25), (19, 26), (17, 27), (19, 27)]),
            ((17, 17), [(17, 18), (17, 17), (17, 18), (18, 18)]),
        ],
    )
    def test_exponent_nudges_are_frozen(self, start, expected):
        # (s, t) in 32nds, nudged by 1/32 from seed 5, streams 0..3.
        got = []
        for stream in range(4):
            pair = ExponentPair(start[0] / 32, start[1] / 32)
            pair = cli._mutate_st(pair, derive_rng(5, stream).next_u64, 1.0 / 32.0)
            assert isinstance(pair, ExponentPair)
            got.append((pair.s * 32, pair.t * 32))
        assert got == expected

    @pytest.mark.parametrize("ineq", [IneqId.HAD_MAMAN, IneqId.TENSOR_TOOL, IneqId.WADA, IneqId.PROOF_CHAIN])
    def test_the_refinement_plan_draws_what_each_step_draws_alone(self, ineq):
        # One seeding for all REFINE_STEPS streams: each step's stream,
        # choice, nudge words and redraw request (its generator where one
        # fresh stream per step leaves it) are the step's own.
        config, variant = cli.SuiteConfig(master_seed=6), Variant.PAPER_LITERAL
        for point in cli.grid_points(ineq, config)[:3]:
            band, n, d, params = point
            plan = cli._refine_plan(config, ineq, variant, point)
            assert len(plan) == cli.REFINE_STEPS
            kinds = set()
            for s, step in enumerate(plan):
                stream, rng = _stream(config, f"refine|{ineq.value}|{variant.value}|step={s}")
                assert step.stream == stream
                if isinstance(params, ExponentPair) and rng.uniform() < 0.5:
                    assert step.redraw is None
                    assert list(step.words) == [rng.next_u64() for _ in range(cli.NUDGE_WORDS)]
                    kinds.add("nudge")
                    continue
                j, side = rng.next_u64() % n, rng.next_u64() % 2
                attr, jj, (dd, lo, hi, r, pin) = step.redraw
                assert step.words is None and (attr, jj, dd, pin) == (("A_list", "B_list")[side], j, d, True)
                assert (lo, hi) == ((band.M_lo, band.M_hi) if side == 0 else (band.m_lo, band.m_hi))
                assert (r._s0, r._s1, r._s2, r._s3, r._spare) == (rng._s0, rng._s1, rng._s2, rng._s3, rng._spare)
                kinds.add("redraw")
            assert kinds == ({"nudge", "redraw"} if isinstance(params, ExponentPair) else {"redraw"})

    def test_t1_statement_keeps_t_equal_one(self, capsys):
        # The refinement nudges (s, t); REV_T1_REMARK must stay at t = 1.
        rc = _run(["falsify", "--id", "REV_T1_REMARK", "--budget", "10", "--seed", "1"])
        assert rc == cli.EXIT_OK
        best = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert best["params"]["t"] == 1.0

    @pytest.mark.parametrize(
        "ineq, budget, seed, refined",
        [("WADA", 3, 4, False), ("HAD_MAMAN", 3, -5, True)],
        ids=["budget_trial", "refinement_step"],
    )
    def test_best_line_schema(self, capsys, ineq, budget, seed, refined):
        # The best line is a verify line's head and gap, the index of the
        # trial that found it (-1 for a refinement step) and its instance.
        rc = _run(["falsify", "--id", ineq, "--budget", str(budget), "--seed", str(seed)])
        assert rc == cli.EXIT_OK
        best = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        head = {"id", "variant", "seed", "stream", "n", "dim", "band", "params"}
        assert set(best) == head | {"min_eig", "rel_gap", "satisfied", "trial", "instance"}
        assert (best["trial"] == -1) == refined and best["trial"] < budget
        assert set(best["instance"]) == {"A_list", "B_list"}
        for mats in best["instance"].values():
            assert np.array(mats).shape == (best["n"], best["dim"], best["dim"])

    def test_deterministic(self, capsys, tmp_path):
        out1, out2 = tmp_path / "f1.json", tmp_path / "f2.json"
        _run(["falsify", "--id", "TENSOR_TOOL", "--budget", "30", "--seed", "4",
              "--out", str(out1)])
        _run(["falsify", "--id", "TENSOR_TOOL", "--budget", "30", "--seed", "4",
              "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestWitness:
    def test_replay_builtin(self, capsys):
        rc = _run(["witness", "--replay"])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "7 passed" in out.replace("records from built-in: 7", "7 passed") or "7 passed, 0 failed" in out

    def test_export_then_replay_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "cat.jsonl"
        assert _run(["witness", "--export", str(path)]) == cli.EXIT_OK
        capsys.readouterr()
        assert _run(["witness", "--replay", str(path)]) == cli.EXIT_OK
        assert "0 failed" in capsys.readouterr().out

    def test_empty_catalog_passes(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert _run(["witness", "--replay", str(path)]) == cli.EXIT_OK
        assert "replayed 0 records" in capsys.readouterr().out

    def test_mismatching_catalog_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        _run(["witness", "--export", str(path)])
        records = [json.loads(l) for l in path.read_text().splitlines()]
        records[0]["expected_gap"] = 123.0
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        capsys.readouterr()
        assert _run(["witness", "--replay", str(path)]) == cli.EXIT_VIOLATION


    def test_unevaluable_record_is_failed_replay(self, tmp_path, capsys):
        path = tmp_path / "outside.jsonl"
        _run(["witness", "--export", str(path)])
        record = json.loads(path.read_text().splitlines()[0])
        record["band"] = [1.0, 1.0, 2.0, 3.0]  # loads, but A = [4] leaves the band
        path.write_text(json.dumps(record) + "\n")
        capsys.readouterr()
        assert _run(["witness", "--replay", str(path)]) == cli.EXIT_VIOLATION
        out = capsys.readouterr().out
        assert "[FAIL] TENSOR_TOOL/paper" in out and "violates the band" in out and "1 failed" in out

    def test_failed_replay_names_its_reason(self, tmp_path, capsys):
        path = tmp_path / "offdiag.jsonl"
        _run(["witness", "--export", str(path)])
        record = json.loads(path.read_text().splitlines()[0])
        # The matrix path evaluates this pair; the scalar oracle cannot.
        record.update(
            band=[1.0, 1.0, 2.0, 4.0],
            dim=2,
            A_list=[[[3.0, 0.5], [0.5, 3.0]]],
            B_list=[[[1.0, 0.0], [0.0, 1.0]]],
        )
        path.write_text(json.dumps(record) + "\n")
        capsys.readouterr()
        assert _run(["witness", "--replay", str(path)]) == cli.EXIT_VIOLATION
        fail = capsys.readouterr().out.splitlines()[0]
        assert fail.startswith("[FAIL] TENSOR_TOOL/paper: ")
        assert "requires diagonal matrices" in fail
        # The matrix path measured its gap; only the scalar gap is missing.
        assert "matrix +nan" not in fail and "scalar +nan" in fail

    @pytest.mark.parametrize(
        "line",
        [
            lambda r: "{not json",
            lambda r: json.dumps({**r, "id": "NOPE"}),
            lambda r: json.dumps({**r, "params": {"t": 1.0}}),
            lambda r: json.dumps({**r, "A_list": [[[4.0], [1.0, 2.0]]]}),
            lambda r: json.dumps({**r, "n": 2}),
            lambda r: json.dumps({**r, "band": [1.0, 4.0, 4.0, 4.0]}),
            lambda r: json.dumps({**r, "params": {"s": 0.25, "t": 1.0}}),
            lambda r: json.dumps({**r, "n": 1.9, "dim": 1.5}),
            lambda r: json.dumps({**r, "id": "PROOF_CHAIN", "params": {"s": 0.1875, "t": 0.0}}),
            lambda r: json.dumps({**r, "id": "WADA"}),
        ],
        ids=[
            "bad_json", "unknown_id", "missing_s", "ragged_matrix",
            "n_mismatch", "bad_band", "off_branch", "fractional_size",
            "proof_chain_params", "wada_params",
        ],
    )
    def test_malformed_catalog_line_is_config_error(self, tmp_path, capsys, line):
        path = tmp_path / "broken.jsonl"
        _run(["witness", "--export", str(path)])
        good = path.read_text().splitlines()[0]
        path.write_text(good + "\n" + line(json.loads(good)) + "\n")
        capsys.readouterr()
        assert _run(["witness", "--replay", str(path)]) == cli.EXIT_CONFIG
        assert f"{path}:2: not a witness record" in capsys.readouterr().err

    @pytest.mark.parametrize("lineno", [1, 2])
    def test_non_utf8_catalog_is_config_error(self, tmp_path, capsys, lineno):
        path = tmp_path / "utf16.jsonl"
        _run(["witness", "--export", str(path)])
        good = path.read_bytes().splitlines()[0]
        path.write_bytes(b"\xff\xfe" if lineno == 1 else good + b"\n\xff\xfe\n")
        capsys.readouterr()
        assert _run(["witness", "--replay", str(path)]) == cli.EXIT_CONFIG
        assert f"{path}:{lineno}: not a witness record (UnicodeDecodeError: " in capsys.readouterr().err

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_catalog_lines_end_at_any_newline(self, tmp_path, capsys, end):
        path = tmp_path / "cat.jsonl"
        _run(["witness", "--export", str(path)])
        path.write_bytes(end.join(path.read_bytes().splitlines()) + end)
        capsys.readouterr()
        assert _run(["witness", "--replay", str(path)]) == cli.EXIT_OK
        assert "7 passed, 0 failed" in capsys.readouterr().out

    def test_export_bytes_are_frozen(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        assert _run(["witness", "--export", str(path)]) == cli.EXIT_OK
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "184c433b0170e28fafccf3bd8746e331ce2ed2f5a044576abb948d7958dcf996"
        )


class TestListAndConfig:
    def test_list_shows_all_ids(self, capsys):
        assert _run(["list"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        for ineq in IneqId:
            assert ineq.value in out
        assert "paper+repaired" in out and "[paper]" in out

    def test_list_output_is_frozen(self, capsys):
        # The listing is text only, so its bytes hold on every build.
        assert _run(["list"]) == cli.EXIT_OK
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "851559609f28b1ba6efd5ce15d9642f6dab86469e5d3348ca7c90284ebf055ec"

    def test_bad_trials_is_config_error(self, tmp_path):
        rc = _run(["verify", "--trials", "0", "--out", str(tmp_path / "x.jsonl")])
        assert rc == cli.EXIT_CONFIG

    def test_bad_flag_exits_64(self):
        with pytest.raises(SystemExit) as exc:
            _run(["verify", "--no-such-flag"])
        assert exc.value.code == cli.EXIT_CONFIG

    def test_one_parser_per_process_parses_like_a_fresh_one(self, capsys):
        # main builds its parser once; an error exit and other subcommands
        # in between leave each parse equal to a fresh parser's.
        argv = ["falsify", "--id", "HAD_MAMAN", "--budget", "3", "--seed", "2"]
        assert cli._parser() is cli._parser()
        fresh = cli.build_parser().parse_args(argv)
        with pytest.raises(SystemExit):
            _run(["verify", "--workers", "2"])
        assert _run(["list"]) == cli.EXIT_OK
        again = cli._parser().parse_args(argv)
        assert vars(again) == vars(fresh) and again is not fresh

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--trials", "1"],
            ["falsify", "--id", "HAD_MAMAN", "--budget", "1"],
            ["falsify", "--id", "HAD_MAMAN", "--budget", "0"],
        ],
        ids=["verify", "falsify", "falsify_budget_0"],
    )
    def test_non_finite_tol_is_config_error(self, tmp_path, argv, tol):
        out = str(tmp_path / "x.jsonl")
        assert _run([*argv, "--tol", tol, "--out", out]) == cli.EXIT_CONFIG

    @staticmethod
    def _no_sampling(monkeypatch):
        def sampled(requests):
            raise AssertionError("a trial was sampled")

        monkeypatch.setattr(cli, "sample_families", sampled)

    def test_unwritable_out_is_io_error(self, monkeypatch, capsys):
        # The report path is opened before the first trial is sampled, and
        # only after the configuration is checked.
        self._no_sampling(monkeypatch)
        rc = _run(["verify", "--trials", "1", "--out", "/no/such/dir/report.jsonl"])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("i/o error: ")
        rc = _run(["verify", "--trials", "0", "--out", "/no/such/dir/report.jsonl"])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: trials must be >= 1")

    def test_unwritable_summary_is_io_error_before_sampling(self, monkeypatch, capsys, tmp_path):
        # The CSV summary path (cli._csv_path) is checked with the report
        # path, before the first trial, and the report stays empty.
        self._no_sampling(monkeypatch)
        (tmp_path / "r.summary.csv").mkdir()
        rc = _run(["verify", "--trials", "20", "--out", str(tmp_path / "r.jsonl")])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert (tmp_path / "r.jsonl").read_bytes() == b""

    def test_unwritable_falsify_out_is_io_error_before_search(self, monkeypatch, capsys):
        # falsify opens --out before its search: no trial is sampled and no
        # best line is printed.
        self._no_sampling(monkeypatch)
        rc = _run(["falsify", "--id", "HAD_MAMAN", "--budget", "2000", "--out", "/no/such/dir/best.json"])
        assert rc == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("i/o error: ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--id", "HAD_MAMAN", "--budget", "-1"], "budget must be >= 0, got -1"),
            (["--id", "WADA", "--variant", "repaired", "--budget", "5"],
             "WADA defines no repaired variant"),
        ],
        ids=["negative_budget", "no_repaired_variant"],
    )
    def test_falsify_setting_is_checked_before_out(self, monkeypatch, capsys, argv, message):
        # A bad budget or variant is a configuration error even when --out
        # is unusable too: the search's settings are checked before the path.
        self._no_sampling(monkeypatch)
        rc = _run(["falsify", *argv, "--out", "/no/such/dir/x.json"])
        assert rc == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"config error: {message}\n"

    def test_out_check_keeps_an_existing_report(self, monkeypatch, tmp_path):
        # Checking the path does not truncate a report that a run which
        # then fails would otherwise have lost.
        out = tmp_path / "kept.jsonl"
        out.write_text("earlier report\n")

        def interrupted(requests):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "sample_families", interrupted)
        with pytest.raises(KeyboardInterrupt):
            _run(["verify", "--trials", "1", "--out", str(out)])
        assert out.read_text() == "earlier report\n"
