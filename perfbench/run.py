#!/usr/bin/env python3
"""Benchmark of callebaut-lab: one workload, measured end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced units of the same work and reports the
per-layer metrics plus the tracing overhead.  Metric names and units come
from ``BENCHMARK.json``; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, and the line before it
records provenance and the raw samples.

The package is imported from ``src/`` of the current directory and from
nowhere else; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

#: End-to-end runs repeat the unit at least this often, whatever --seconds says.
MIN_UNITS = 3
#: Traced runs make at least this many (untraced, traced) unit pairs.
MIN_PAIRS = 2
#: Fresh interpreters timed for setup_s (after one warm-up).
SETUP_REPEATS = 9
#: In-process repeats of the grid build timed for cli.grid_points.total_s.
GRID_REPEATS = 5

# The workloads are sized for one core; keep BLAS from starting a thread pool.
# These must be set before NumPy loads, so the benchmark modules that import
# it are imported inside functions, after ``main`` has set them.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("sweep", "falsify", "scalar"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def git_sha(root):
    """HEAD commit read from ``.git`` without running git (None outside a clone)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def tree_sha256(src):
    """SHA-256 over the package sources, so a result names its code even
    where there is no git checkout."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def blas_lapack():
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return None
    return {
        lib: {k: deps[lib].get(k) for k in ("name", "version", "openblas configuration")}
        for lib in ("blas", "lapack")
        if lib in deps
    }


def provenance(root, src):
    import numpy as np

    import callebaut_lab

    backend = getattr(callebaut_lab, "backend_name", None)
    return {
        "git_sha": git_sha(root),
        "src_sha256": tree_sha256(src),
        "package_version": getattr(callebaut_lab, "__version__", None),
        "backend": backend() if callable(backend) else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_lapack": blas_lapack(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }


def run_end_to_end(wl, seconds, src):
    import speed
    import workloads

    setup = workloads.setup_seconds(src, SETUP_REPEATS)
    warmup = wl.warmup()
    measured = []  # (unit, probe s)
    deadline = time.perf_counter() + seconds
    while len(measured) < MIN_UNITS or time.perf_counter() < deadline:
        index = len(measured)
        measured.append(speed.timed(lambda: wl.run_unit(index)))
    metrics = {
        "ops_per_s": statistics.median(
            u.ops / speed.nominal(u.wall_s, probe) for u, probe in measured
        ),
        "setup_s": statistics.median(speed.nominal(w, probe) for w, probe in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "setup_wall_s": [w for w, _ in setup],
        "setup_probe_s": [probe for _, probe in setup],
        "unit_ops": measured[0][0].ops,
        "unit_wall_s": [u.wall_s for u, _ in measured],
        "unit_probe_s": [probe for _, probe in measured],
    }
    return [warmup, *(u for u, _ in measured)], metrics, samples


def run_traced(wl, seconds, spans_path):
    import layers
    import speed
    import workloads
    from callebaut_lab import cli
    from tracer import Tracer

    def traced_call(fn, eigen_inputs):
        """(tracer, fn's result, probe s) for ``fn`` run in a traced session."""
        tracer = Tracer()

        def call():
            with tracer.session(layers.targets(eigen_inputs)):
                return fn()

        result, probe = speed.timed(call)
        return tracer, result, probe

    def span_seconds(tracer, name, probe):
        return speed.nominal(sum(s.dur_ns for s in tracer.spans if s.name == name) * 1e-9, probe)

    def build_grid():
        for ineq, _variant in layers.combos():
            cli.grid_points(ineq, cli.SuiteConfig())

    grid_s = []
    for _ in range(GRID_REPEATS):
        tracer, _, probe = traced_call(build_grid, set())
        grid_s.append(span_seconds(tracer, "cli.grid_points", probe))

    # Each pair runs one unit index untraced and traced, alternating which
    # goes first, so the overhead compares equal work.
    units = [wl.warmup()]
    plain_s, traced_s, traced = [], [], []
    deadline = time.perf_counter() + seconds
    pair = 0
    while pair < MIN_PAIRS or time.perf_counter() < deadline:
        for traced_turn in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced_turn:
                eigen_inputs = set()
                tracer, unit, probe = traced_call(lambda: wl.run_unit(pair), eigen_inputs)
                traced_s.append(speed.nominal(unit.wall_s, probe))
                traced.append(layers.unit_metrics(tracer.spans, eigen_inputs, probe))
            else:
                unit, probe = speed.timed(lambda: wl.run_unit(pair))
                plain_s.append(speed.nominal(unit.wall_s, probe))
            units.append(unit)
        pair += 1
    tracer.write_jsonl(spans_path)

    replay_tracer, (replayed, passed), probe = traced_call(workloads.replay_witnesses, set())

    metrics = layers.combine(traced)
    metrics["cli.grid_points.total_s"] = statistics.median(grid_s)
    metrics["oracle.replay_witnesses.total_s"] = span_seconds(
        replay_tracer, "oracle.replay_witnesses", probe
    )
    metrics["oracle.replay_witnesses.passed"] = passed
    metrics["trace.overhead_share"] = (
        statistics.median(t / p for t, p in zip(traced_s, plain_s)) - 1.0
    )
    samples = {
        "untraced_unit_nominal_s": plain_s,
        "traced_unit_nominal_s": traced_s,
        "evaluate_inequality_samples": sum(len(d) for _, _, d in traced),
        "spans_file": os.path.relpath(spans_path),
    }
    return units, metrics, samples, (replayed, passed)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "callebaut_lab", "__init__.py")):
        print(
            "perfbench: src/callebaut_lab not found; run from the repository root",
            file=sys.stderr,
        )
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, src)

    import callebaut_lab

    if not os.path.realpath(callebaut_lab.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"perfbench: imported {callebaut_lab.__file__}, not {src}", file=sys.stderr)
        return 2

    import workloads

    out_dir = os.path.join(root, ".perfbench")
    workdir = os.path.join(out_dir, f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
            units, values, samples, (replayed, passed) = run_traced(
                wl, args.seconds, spans_path
            )
            declared = spec["per_layer"]
        else:
            units, values, samples = run_end_to_end(wl, args.seconds, src)
            replayed, passed = workloads.replay_witnesses()
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = [m["name"] for m in declared]
    if set(names) != set(values):
        print(
            "perfbench: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(names) - set(values))}, "
            f"undeclared {sorted(set(values) - set(names))}",
            file=sys.stderr,
        )
        return 1
    problems = sorted({u.problem for u in units if u.problem})
    if passed != replayed:
        problems.append(f"witness replay: {passed}/{replayed} passed")
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    attempted = sum(u.ops for u in units) + replayed
    failed = sum(u.failed for u in units) + (replayed - passed)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": wl.size,
        "units": len(units),
        "witnesses": {"replayed": replayed, "passed": passed},
        "problems": problems,
        "samples": samples,
        "provenance": provenance(root, src),
    }
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps({"perfbench": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
