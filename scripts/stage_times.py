#!/usr/bin/env python3
"""Per-layer times of ``falsify`` searches and ``verify`` units, in one process.

Run from anywhere inside the repository:

    python3 scripts/stage_times.py --searches 60 --units 12
    python3 scripts/stage_times.py --against /tmp/parent/src

The package is imported from ``src/`` of this checkout, or from ``--src``.
With ``--against DIR``, the ``callebaut_lab`` package of ``DIR`` (for
example the ``src/`` of a ``git archive`` of the parent revision) is
imported too, under another name, and every unit runs on both trees in
turn, in alternating order, so that both sides see the same host speed.

The script first runs the work plainly, for its wall time; then it wraps
each function of ``LAYERS`` that a tree has with a timer and runs the work
again.  The work is the benchmark's: ``falsify --id HAD_MAMAN --variant
paper --budget 500`` at seeds ``1000 + i`` through ``cli.main``, and the
``sweep`` unit, ``verify --trials 12 --variant both`` at seed 1, whose
report goes to a temporary directory.

Each layer gets its calls per unit, its inclusive time and its self time:
the inclusive time less the inclusive time of the wrapped layers it calls.
Self times do not overlap, so ``SITES``, named groups of self times, add up.
Every figure is the mean of the fastest quarter of the units (by that
figure alone).  A wrapped call costs about the overhead printed at the
end, part of it counted in the layer and part in its caller.

Nothing in the test suite runs this script; it is a measuring tool.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Wrapped functions, as ``module.attr`` or ``module.Class.attr``; modules
#: are those of the package and ``numpy.linalg``.  A name missing from a
#: tree is skipped there.
LAYERS = (
    "numpy.linalg.eigh",
    "numpy.linalg.qr",
    "cli.run_verify",
    "cli.write_report",
    "cli.run_falsify",
    "cli._points",
    "cli._refine_plan",
    "cli._refine_step",
    "cli._mutate_st",
    "sampler.derive_rngs",
    "sampler.derive_streams",
    "sampler.sample_families",
    "sampler.sample_matrices",
    "sampler._check_request",
    "sampler._draw",
    "sampler._factor",
    "sampler._family",
    "sampler._checked_family",
    "sampler._band_failures",
    "matcore.SymMatrix.stack",
    "matcore.MeanPath.stack",
    "matcore.MeanPath.sums",
    "matcore._require_pairs",
    "matcore._mean_base",
    "matcore._mean_sums",
    "matcore._powers",
    "matcore.loewner_gaps",
    "inequalities.evaluate_stage",
    "inequalities._evaluate_stage",
    "inequalities._build_stage",
    "inequalities._Group.__init__",
    "inequalities._Group.cols",
    "inequalities._fill_mean_sums",
    "inequalities._fill_power_sums",
)

#: The per-trial and per-matrix Python of a ``falsify`` stage, as sums of
#: layer self times.  A layer that lives in only one tree reads 0 in the
#: other, so a site compares the same work across a change that moves it.
SITES = {
    "band checks": ["sampler._band_failures"],
    "mean-path pair checks": ["matcore._require_pairs"],
    "mean paths and sums (no LAPACK, no _powers)": [
        "inequalities._fill_mean_sums", "matcore.MeanPath.stack", "matcore.MeanPath.sums",
        "matcore._mean_base", "matcore._mean_sums",
    ],
    "group weights and constants": ["inequalities._Group.__init__", "inequalities._Group.cols"],
    "request checks and family records": [
        "sampler.sample_families", "sampler._check_request", "sampler._family", "sampler._checked_family",
    ],
    "seeding, words and refinement steps": [
        "cli.run_falsify", "cli._refine_plan", "cli._refine_step", "cli._mutate_st",
        "sampler.derive_rngs", "sampler.derive_streams",
    ],
    "redraw sampling calls": ["sampler.sample_matrices"],
    "gap bookkeeping and reports": ["matcore.loewner_gaps", "inequalities._evaluate_stage"],
}


class Clock:
    """Inclusive and self nanoseconds and calls of each wrapped layer."""

    def __init__(self):
        self.frames: list[int] = []  # per open call: ns spent in wrapped callees
        self.reset()

    def reset(self):
        self.incl: dict[str, int] = {}
        self.own: dict[str, int] = {}
        self.calls: dict[str, int] = {}

    def add(self, label: str, spent: int, inner: int):
        self.incl[label] = self.incl.get(label, 0) + spent
        self.own[label] = self.own.get(label, 0) + spent - inner
        self.calls[label] = self.calls.get(label, 0) + 1

    def snapshot(self) -> dict:
        return {k: (self.calls[k], self.incl[k] * 1e-6, self.own[k] * 1e-6) for k in self.calls}


def timed(clocks: list, label: str, fn):
    """``fn`` with a timer that records into ``clocks[0]``, the clock that
    is current when it is called."""
    now = time.perf_counter_ns

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        clock = clocks[0]
        clock.frames.append(0)
        start = now()
        try:
            return fn(*args, **kwargs)
        finally:
            spent = now() - start
            clock.add(label, spent, clock.frames.pop())
            if clock.frames:
                clock.frames[-1] += spent

    return wrapper


def install(clocks: list, package: str, numpy_too: bool) -> list[str]:
    """Wrap every layer of ``LAYERS`` present in ``package`` (and, with
    ``numpy_too``, the ``numpy.linalg`` ones); returns the wrapped names.
    A module-level function is replaced in every module of the package
    that binds it."""
    wrapped = []
    modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
    for name in LAYERS:
        parts = name.split(".")
        if parts[0] == "numpy":
            if not numpy_too:
                continue
            owner, attrs = importlib.import_module(".".join(parts[:2])), parts[2:]
        else:
            owner, attrs = importlib.import_module(f"{package}.{parts[0]}"), parts[1:]
        if len(attrs) == 2:
            cls = getattr(owner, attrs[0], None)
            raw = None if cls is None else cls.__dict__.get(attrs[1])
            if raw is None:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                setattr(cls, attrs[1], type(raw)(timed(clocks, name, raw.__func__)))
            else:
                setattr(cls, attrs[1], timed(clocks, name, raw))
        else:
            fn = getattr(owner, attrs[0], None)
            if fn is None:
                continue
            wrapper = timed(clocks, name, fn)
            setattr(owner, attrs[0], wrapper)
            for m in modules:
                if getattr(m, attrs[0], None) is fn:
                    setattr(m, attrs[0], wrapper)
        wrapped.append(name)
    return wrapped


def fastest_quarter(values) -> float:
    ordered = sorted(values)
    keep = ordered[: max(1, math.ceil(len(ordered) / 4))]
    return sum(keep) / len(keep)


def summarize(walls, snaps) -> dict:
    layers = sorted({k for s in snaps for k in s})
    out = {"wall_ms": fastest_quarter(walls), "layers": {}, "sites": {}}
    for k in layers:
        rows = [s.get(k, (0, 0.0, 0.0)) for s in snaps]
        out["layers"][k] = {
            "calls": sum(r[0] for r in rows) / len(rows),
            "incl_ms": fastest_quarter([r[1] for r in rows]),
            "self_ms": fastest_quarter([r[2] for r in rows]),
        }
    per_unit_total = [0.0] * len(snaps)
    for site, names in SITES.items():
        values = [sum(s.get(n, (0, 0.0, 0.0))[2] for n in names) for s in snaps]
        per_unit_total = [a + b for a, b in zip(per_unit_total, values)]
        out["sites"][site] = fastest_quarter(values)
    out["sites_total_ms"] = fastest_quarter(per_unit_total)
    return out


def wrapper_overhead_us() -> float:
    """The cost of one wrapped call of an empty function, less the plain call."""
    def empty():
        return None

    wrapped = timed([Clock()], "empty", empty)
    n = 20000
    best = []
    for fn in (empty, wrapped):
        start = time.perf_counter_ns()
        for _ in range(n):
            fn()
        best.append((time.perf_counter_ns() - start) / n)
    return (best[1] - best[0]) * 1e-3


def work(cli, tmp: str, args) -> dict:
    """The units of each workload, for one tree's ``cli``."""
    sink = io.StringIO()
    out = os.path.join(tmp, f"{cli.__name__}.jsonl")

    def falsify(seed):
        argv = ["falsify", "--id", "HAD_MAMAN", "--variant", "paper", "--budget", "500", "--seed", str(seed)]
        with contextlib.redirect_stdout(sink):
            assert cli.main(argv) == cli.EXIT_OK
        sink.seek(0)
        sink.truncate()

    def verify():
        argv = ["verify", "--seed", "1", "--trials", "12", "--variant", "both", "--workers", "1", "--out", out]
        with contextlib.redirect_stdout(sink):
            cli.main(argv)
        sink.seek(0)
        sink.truncate()

    return {
        "falsify": [functools.partial(falsify, 1000 + i) for i in range(args.searches)],
        "verify": [verify] * args.units,
    }


def run(sides: list, clocks: list, name: str, count: int, wrapped: bool) -> list:
    """Unit ``i`` of workload ``name`` on every side, for ``i < count``, the
    sides in alternating order; returns each side's (walls, snapshots)."""
    out = [([], []) for _ in sides]
    for i in range(count):
        for j in (range(len(sides)) if i % 2 == 0 else reversed(range(len(sides)))):
            clocks[0] = clock = sides[j]["clock"]
            clock.reset()
            start = time.perf_counter()
            sides[j]["work"][name][i]()
            out[j][0].append((time.perf_counter() - start) * 1e3)
            if wrapped:
                out[j][1].append(clock.snapshot())
    return out


def measure(sides: list, args) -> dict:
    """Plain, then wrapped, runs of the searches and verify units."""
    clocks = [None]
    counts = {"falsify": args.searches, "verify": args.units}
    results = {side["label"]: {"src": side["src"]} for side in sides}
    for side in sides:
        side["clock"] = Clock()
    for name, count in counts.items():
        run(sides, clocks, name, min(args.warmup, count), False)
        for side, (walls, _) in zip(sides, run(sides, clocks, name, count, False)):
            results[side["label"]][name] = {"plain_wall_ms": fastest_quarter(walls)}
    for k, side in enumerate(sides):
        results[side["label"]]["wrapped"] = install(clocks, side["package"], numpy_too=k == 0)
    for name, count in counts.items():
        run(sides, clocks, name, min(args.warmup, count), True)
        for side, got in zip(sides, run(sides, clocks, name, count, True)):
            results[side["label"]][name].update(summarize(*got))
    results["wrapper_overhead_us"] = wrapper_overhead_us()
    return results


def report(results: dict, labels: list):
    for name in ("falsify", "verify"):
        rs = [results[label][name] for label in labels]
        print(f"== {name} (fastest-quarter means, ms per unit): "
              + "; ".join(f"{label} plain {r['plain_wall_ms']:.2f}, wrapped {r['wall_ms']:.2f}"
                          for label, r in zip(labels, rs)))
        print(f"{'layer':<36}" + "".join(f" {label + ' calls':>14} {'self':>8}" for label in labels))
        layers = sorted({k for r in rs for k in r["layers"]},
                        key=lambda k: -max(r["layers"].get(k, {}).get("self_ms", 0.0) for r in rs))
        for k in layers:
            cells = [r["layers"].get(k, {"calls": 0, "self_ms": 0.0}) for r in rs]
            print(f"{k:<36}" + "".join(f" {c['calls']:>14.1f} {c['self_ms']:>8.3f}" for c in cells))
        print(f"{'site (sum of self times)':<44}" + "".join(f" {label:>12}" for label in labels))
        for site in rs[0]["sites"]:
            print(f"{site:<44}" + "".join(f" {r['sites'][site]:>12.3f}" for r in rs))
        print(f"{'all sites':<44}" + "".join(f" {r['sites_total_ms']:>12.3f}" for r in rs))
    print(f"wrapper overhead: {results['wrapper_overhead_us']:.2f} us per wrapped call")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory that holds callebaut_lab")
    p.add_argument("--against", help="another directory that holds callebaut_lab, measured in turn")
    p.add_argument("--searches", type=int, default=60)
    p.add_argument("--units", type=int, default=12, help="verify units")
    p.add_argument("--warmup", type=int, default=3)
    p.add_argument("--json", help="also write the results to this file")
    args = p.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    with tempfile.TemporaryDirectory(prefix="stage_times-") as tmp:
        trees = [("src", os.path.abspath(args.src), "callebaut_lab")]
        sys.path.insert(0, trees[0][1])
        if args.against:
            # The other tree's package under another name; its imports are relative.
            shutil.copytree(os.path.join(args.against, "callebaut_lab"), os.path.join(tmp, "callebaut_lab_against"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            sys.path.insert(0, tmp)
            trees.insert(0, ("against", os.path.abspath(args.against), "callebaut_lab_against"))
        sides = [{"label": label, "src": src, "package": package,
                  "work": work(importlib.import_module(f"{package}.cli"), tmp, args)}
                 for label, src, package in trees]
        results = measure(sides, args)
    report(results, [side["label"] for side in sides])
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
