"""The three benchmark workloads, their output checks, and set-up timing.

Every workload runs in this one process with one worker and no threads of
its own.  A workload is a fixed-size *unit* of work that the runner repeats
for the run's duration (``falsify`` gives each unit its own search seed);
each unit checks its own output, and every operation of a unit whose check
fails counts as failed.

Why each workload exists, and which per-layer metric (``layers.py``) should
move which end-to-end metric on it, is stated in each class docstring.  The
end-to-end metric ``ops_per_s`` is the workload's own throughput: verify
trials per second on ``sweep``, evaluated candidates per second on
``falsify``, ``scalar_gap`` evaluations per second on ``scalar``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass

from callebaut_lab import cli, oracle, scalarcore

import speed
from layers import combos


@dataclass
class Unit:
    ops: int
    failed: int
    wall_s: float
    problem: str | None = None


@contextlib.contextmanager
def captured_stdout(path: str):
    """Send file descriptor 1 to ``path`` for the block; yields a dict whose
    ``"text"`` is filled in on exit.

    ``cli`` prints its summary table through a ``stream=sys.stdout`` default
    bound at import, which ``contextlib.redirect_stdout`` cannot reach, so the
    redirect happens at the descriptor level.
    """
    sys.stdout.flush()
    saved = os.dup(1)
    captured = {"text": ""}
    try:
        with open(path, "w+", encoding="utf-8") as fh:
            os.dup2(fh.fileno(), 1)
            try:
                yield captured
            finally:
                sys.stdout.flush()
                os.dup2(saved, 1)
            fh.seek(0)
            captured["text"] = fh.read()
    finally:
        os.close(saved)


def _run_cli(argv, capture_path):
    """Run ``cli.main(argv)``; returns (exit code or None, stdout, wall s, error)."""
    with captured_stdout(capture_path) as out:
        start = time.perf_counter()
        try:
            code, error = cli.main(argv), None
        except Exception as exc:  # a crash is a failed unit, not a crashed benchmark
            code, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    return code, out["text"], wall, error


class Sweep:
    """``callebaut-lab verify`` on the default grid, through ``cli.main``.

    Why: this is the lab's main job.  All 18 (id, variant) combos run, both
    variants, at a fixed trial count per combo; the JSONL report and CSV
    summary are written to a scratch directory inside the checkout.  The
    eigendecomposition does most of the work (the d=16 tensor-space solves
    above all, then d=9), and this is the only workload with report I/O.

    Predictions for ``ops_per_s`` (verify trials per second):
    * ``matcore.sym_eigen.self_s.d16`` and ``.d9`` carry most of the time; an
      eigensolver change shows here first.
    * ``matcore.sym_eigen.unique_ratio`` (distinct inputs / calls) is what a
      per-operand decomposition memo raises; the ``calls.d*`` counts drop.
    * ``inequalities.evaluate_inequality.<ID>.<variant>`` splits the time by
      statement; the tensor ids (WADA, PROOF_CHAIN, REV_TENSOR_DEAR,
      TENSOR_TOOL) dominate.
    * ``cli.write_report.total_s`` is under 1 % and should stay there.
    * ``scalarcore.scalar_gap`` is never called: prediction "no change".

    Output check per unit: exit code 0, no unexpected violation, at least one
    literal finding (the witness point leads the grid), one report line per
    trial, and a report SHA-256 identical across every repeat in the run.
    """

    name = "sweep"
    trials = 12
    warmup_trials = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.n_combos = len(combos())
        self.report_sha: dict[int, str] = {}

    @property
    def size(self):
        return {
            "trials_per_combo": self.trials,
            "combos": self.n_combos,
            "trials_per_unit": self.trials * self.n_combos,
        }

    def warmup(self) -> Unit:
        return self._verify(self.warmup_trials)

    def run_unit(self, index: int) -> Unit:
        return self._verify(self.trials)

    def _verify(self, trials: int) -> Unit:
        out = os.path.join(self.workdir, "report.jsonl")
        argv = [
            "verify", "--seed", str(self.seed), "--trials", str(trials),
            "--variant", "both", "--workers", "1", "--out", out,
        ]
        ops = trials * self.n_combos
        code, text, wall, error = _run_cli(argv, os.path.join(self.workdir, "stdout.txt"))
        problem = error or self._check(code, text, out, trials, ops)
        return Unit(ops, ops if problem else 0, wall, problem)

    def _check(self, code, text, out, trials, ops):
        if code != cli.EXIT_OK:
            return f"verify exited with {code}"
        m = re.search(r"unexpected violations: (\d+), literal findings: (\d+)", text)
        if m is None:
            return "verify printed no verdict line"
        if int(m.group(1)) != 0:
            return f"{m.group(1)} unexpected violations"
        if int(m.group(2)) < 1:
            return "no literal finding (the witness point leads the grid)"
        with open(out, "rb") as fh:
            data = fh.read()
        lines = data.count(b"\n")
        if lines != ops:
            return f"report has {lines} lines, expected {ops}"
        sha = hashlib.sha256(data).hexdigest()
        if self.report_sha.setdefault(trials, sha) != sha:
            return "report SHA-256 differs between repeats of the same seed"
        return None


class Falsify:
    """``callebaut-lab falsify --id HAD_MAMAN --variant paper`` through
    ``cli.main`` at a fixed budget.

    Why: the same layers as ``sweep``, used differently.  Hadamard-sum
    families have d <= 4, so there are no tensor-space solves; the search
    draws band-edge-pinned samples and then re-evaluates one instance over 50
    refinement steps.  Per-call overhead dominates, so a solver change that
    wins at d=16 but costs more per call at small d shows up here.

    Predictions for ``ops_per_s`` ((budget + 50 refinement candidates) per
    second):
    * ``matcore.sym_eigen.self_s.d1``..``.d4`` carry the largest share;
      ``calls.d9`` and ``calls.d16`` stay 0.
    * ``sampler.haar_orthogonal`` and ``sampler.sample_family`` are a larger
      share than on ``sweep``; a sampler change shows here first.
    * ``inequalities.build_links`` self time is the Python overhead of link
      construction.
    * ``scalarcore.scalar_gap`` is never called: prediction "no change".

    Output check per unit: exit code 0 and the best line reports
    ``satisfied == false`` for HAD_MAMAN.  The warm-up repeats the first
    unit's seed, and the two best lines must be identical.
    """

    name = "falsify"
    budget = 500
    refine_steps = 50

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.warmup_best = None

    @property
    def size(self):
        return {"id": "HAD_MAMAN", "variant": "paper", "budget": self.budget,
                "candidates_per_unit": self.budget + self.refine_steps}

    def unit_seed(self, index: int) -> int:
        """Unit ``index`` searches with its own seed, so a run's median spans
        many searches and does not hang on where one search refines."""
        return self.seed * 1000 + index

    def warmup(self) -> Unit:
        unit, self.warmup_best = self._falsify(self.unit_seed(0))
        return unit

    def run_unit(self, index: int) -> Unit:
        unit, best = self._falsify(self.unit_seed(index))
        if index == 0 and unit.problem is None and best != self.warmup_best:
            unit = Unit(unit.ops, unit.ops, unit.wall_s,
                        "falsify best line differs between repeats of the same seed")
        return unit

    def _falsify(self, seed: int):
        argv = [
            "falsify", "--id", "HAD_MAMAN", "--variant", "paper",
            "--budget", str(self.budget), "--seed", str(seed),
        ]
        ops = self.budget + self.refine_steps
        code, text, wall, error = _run_cli(argv, os.path.join(self.workdir, "stdout.txt"))
        best = text.strip().splitlines()[-1] if text.strip() else None
        problem = error or self._check(code, best)
        return Unit(ops, ops if problem else 0, wall, problem), best

    @staticmethod
    def _check(code, best_line):
        if code != cli.EXIT_OK:
            return f"falsify exited with {code}"
        try:
            best = json.loads(best_line)
        except (TypeError, ValueError):
            return "falsify printed no JSON best line"
        if not isinstance(best, dict) or best.get("id") != "HAD_MAMAN":
            return "falsify best line is not a HAD_MAMAN record"
        if best.get("satisfied") is not False:
            return "falsify found no violation of HAD_MAMAN/paper"
        return None


#: The 9 scalar statements of the acceptance suite's criterion 2.
SCALAR_SWEEP_IDS = (
    "YOUNG_CLASSICAL", "YOUNG_ZUO", "YOUNG_WU_ZHAO", "LEMMA_SUM", "LEMMA_TTT1",
    "LEMMA_4TERM", "REV_YOUNG", "REV_SUM", "REV_TTT",
)


class Scalar:
    """The criterion-2 distribution through ``scalarcore.scalar_gap``.

    Why: the only workload for ``scalarcore``, and it never touches
    ``matcore``.  Each random ``(a, b, nu)`` (a, b log-uniform on
    [1e-3, 1e3], nu uniform off the excluded zone around 1/2) is evaluated
    on the 9 sweep statements plus the 4 quarter identities (Wu-Zhao and the
    four-term lemma at nu = 1/4 and 3/4): 13 evaluations per tuple.  Inputs
    come from the seed and are drawn before timing; building ``ScalarParams``
    is timed, because that is where derived fields are computed.

    Predictions for ``ops_per_s`` (``scalar_gap`` evaluations per second):
    * ``scalarcore.scalar_gap`` self time is the whole story; a dispatch-table
      or precomputed-field change gains here.
    * every ``matcore``, ``sampler`` and ``inequalities`` count is 0: an
      eigensolver, memo or sampler change predicts "no change".

    Output check per evaluation (criterion 2's thresholds):
    ``gap / (1e-12 * scale) >= -1`` for the 9 statements, and a
    quarter-identity residual ``|gap| / (a + b) <= 1e-12``.
    """

    name = "scalar"
    tuples = 15000
    warmup_tuples = 200
    evals_per_tuple = len(SCALAR_SWEEP_IDS) + 4

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.inputs = []
        for _ in range(self.tuples):
            a = 10.0 ** rng.uniform(-3.0, 3.0)
            b = 10.0 ** rng.uniform(-3.0, 3.0)
            nu = rng.random()
            while abs(nu - 0.5) < 1e-6:
                nu = rng.random()
            self.inputs.append((a, b, nu))

    @property
    def size(self):
        return {"tuples_per_unit": self.tuples,
                "evaluations_per_unit": self.tuples * self.evals_per_tuple}

    def warmup(self) -> Unit:
        return self._evaluate(self.inputs[: self.warmup_tuples])

    def run_unit(self, index: int) -> Unit:
        return self._evaluate(self.inputs)

    def _evaluate(self, inputs) -> Unit:
        scalar_gap = scalarcore.scalar_gap
        params_of = scalarcore.ScalarParams
        ids = [scalarcore.ScalarIneqId[name] for name in SCALAR_SWEEP_IDS]
        ttt1 = scalarcore.ScalarIneqId.LEMMA_TTT1
        rev_ttt = scalarcore.ScalarIneqId.REV_TTT
        wu_zhao = scalarcore.ScalarIneqId.YOUNG_WU_ZHAO
        four_term = scalarcore.ScalarIneqId.LEMMA_4TERM
        failed = 0
        problem = None
        start = time.perf_counter()
        for a, b, nu in inputs:
            bad = 0
            try:
                params = params_of(a, b, nu)
                nu_low = min(nu, 1.0 - nu)
                for ineq in ids:
                    if ineq is ttt1:
                        gap = scalar_gap(ineq, extra={"a": a, "mu": 1.0 - 2.0 * nu_low})
                        scale = a + 1.0 / a
                    elif ineq is rev_ttt:
                        gap = scalar_gap(ineq, extra={"a": a, "nu": nu_low})
                        scale = a + 1.0 / a
                    else:
                        gap = scalar_gap(ineq, params)
                        scale = a + b
                    if not gap / (1e-12 * scale) >= -1.0:
                        bad += 1
                for v in (0.25, 0.75):
                    quarter = params_of(a, b, v)
                    for ineq in (wu_zhao, four_term):
                        if not abs(scalar_gap(ineq, quarter)) / (a + b) <= 1e-12:
                            bad += 1
            except Exception as exc:  # the whole tuple fails; keep going
                bad = self.evals_per_tuple
                problem = problem or f"{type(exc).__name__}: {exc}"
            failed += bad
        wall = time.perf_counter() - start
        if failed and problem is None:
            problem = f"{failed} evaluations outside criterion 2's thresholds"
        return Unit(len(inputs) * self.evals_per_tuple, failed, wall, problem)


WORKLOADS = {w.name: w for w in (Sweep, Falsify, Scalar)}


def replay_witnesses() -> tuple[int, int]:
    """Correctness gate on every run: (records replayed, records passed)."""
    outcomes = oracle.replay_witnesses()
    return len(outcomes), sum(1 for o in outcomes if o.passed)


#: What a user pays before the first trial: a fresh interpreter imports the
#: package and builds the sweep grid for every (id, variant) combo.
SETUP_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from callebaut_lab import cli, inequalities
config = cli.SuiteConfig()
for info in inequalities.list_inequalities():
    for _variant in info.variants:
        cli.grid_points(info.ineq, config)
"""


def setup_seconds(src_dir: str, repeats: int) -> list[tuple[float, float]]:
    """(wall s, probe s) of ``repeats`` fresh set-up interpreters, after one
    warm-up that fills the bytecode cache."""

    def once():
        # No timeout: waiting with one polls in steps of up to 50 ms, which
        # would quantise the measurement.
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, src_dir],
            check=True, stdin=subprocess.DEVNULL,
        )
        return time.perf_counter() - start

    once()
    return [speed.timed(once) for _ in range(repeats)]
