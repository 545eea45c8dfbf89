import hashlib
import json

import pytest

from callebaut_lab import cli
from callebaut_lab.errors import ConfigError
from callebaut_lab.inequalities import REPAIRABLE, IneqId, Variant, params_dict
from callebaut_lab.sampler import derive_rng
from callebaut_lab.scalarcore import ExponentPair


def _run(argv):
    return cli.main(argv)


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
        def violated(config, ineq, variant, point, trial):
            return {"id": ineq.value, "variant": variant.value, "stream": trial,
                    "rel_gap": -1.0, "satisfied": False}

        monkeypatch.setattr(cli, "_run_trial", violated)
        summary, _ = cli.run_verify(cli.SuiteConfig(trials=1))
        # One trial per combo: 12 paper combos and 6 repaired ones.
        assert summary.findings == len(REPAIRABLE)
        assert summary.unexpected == len(IneqId)
        assert summary.verdict == "FAIL"

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
        # Stream ids depend only on blake2b and the pure-Python grid shuffle,
        # so this digest is the same on every machine and NumPy build.
        _, _, lines = tiny_reports
        keys = "".join(f"{l['id']} {l['variant']} {l['stream']}\n" for l in lines)
        assert hashlib.sha256(keys.encode()).hexdigest() == (
            "8c12c3bd9031417d00cdc80f71f5f9defde0cb0d03c2f245fd0b30be8524094b"
        )

    def test_default_grid_is_frozen(self):
        # Every default grid point of every id, in sweep order, with its
        # parameters in report form; pure Python, so the same on every build.
        config = cli.SuiteConfig()
        rows = [
            [ineq.value, list(band.as_tuple()), n, d, params_dict(ineq, params)]
            for ineq in IneqId
            for band, n, d, params in cli.grid_points(ineq, config)
        ]
        assert len(rows) == 20940
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

    def test_workers_do_not_change_output(self, tmp_path):
        a, b = tmp_path / "w1.jsonl", tmp_path / "w4.jsonl"
        _run(["verify", "--seed", "5", "--trials", "4", "--out", str(a)])
        _run(["verify", "--seed", "5", "--trials", "4", "--workers", "4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


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
            pair = cli._mutate_st(pair, derive_rng(5, stream), 1.0 / 32.0)
            assert isinstance(pair, ExponentPair)
            got.append((pair.s * 32, pair.t * 32))
        assert got == expected

    def test_t1_statement_keeps_t_equal_one(self, capsys):
        # The refinement nudges (s, t); REV_T1_REMARK must stay at t = 1.
        rc = _run(["falsify", "--id", "REV_T1_REMARK", "--budget", "10", "--seed", "1"])
        assert rc == cli.EXIT_OK
        best = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert best["params"]["t"] == 1.0

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
        path = tmp_path / "wada.jsonl"
        _run(["witness", "--export", str(path)])
        record = json.loads(path.read_text().splitlines()[0])
        record["id"] = "WADA"  # a pair statement that takes a weight, not (s, t)
        path.write_text(json.dumps(record) + "\n")
        capsys.readouterr()
        assert _run(["witness", "--replay", str(path)]) == cli.EXIT_VIOLATION
        out = capsys.readouterr().out
        assert "[FAIL] WADA/paper" in out and "1 failed" in out

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
        ],
        ids=[
            "bad_json", "unknown_id", "missing_s", "ragged_matrix",
            "n_mismatch", "bad_band", "off_branch",
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

    def test_bad_trials_is_config_error(self, tmp_path):
        rc = _run(["verify", "--trials", "0", "--out", str(tmp_path / "x.jsonl")])
        assert rc == cli.EXIT_CONFIG

    def test_bad_flag_exits_64(self):
        with pytest.raises(SystemExit) as exc:
            _run(["verify", "--no-such-flag"])
        assert exc.value.code == cli.EXIT_CONFIG

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

    def test_unwritable_out_is_io_error(self):
        rc = _run(["verify", "--trials", "1", "--out", "/no/such/dir/report.jsonl"])
        assert rc == cli.EXIT_CONFIG
