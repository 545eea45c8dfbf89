"""The traced layers: which public functions get spans, and the per-layer
metrics computed from one traced unit of work.

Only public entry points of ``callebaut_lab`` are named here.  Private
kernels, solver constants and the numba backend switch are deliberately not
touched, so the same file measures the parent and the child of a change that
swaps the eigensolver or memoises decompositions.

Which end-to-end metric each layer should move, and on which workload, is
written next to each workload in ``workloads.py`` and in ``README.md``.
"""

from __future__ import annotations

import hashlib
import inspect
import math
import os
import statistics

from callebaut_lab import cli, inequalities

import speed
from tracer import PACKAGE, Target

#: Dimensions the default grid reaches: family dims 1..4 and their tensor
#: squares 9 and 16 (dims 1 and 4 are also the squares of 1 and 2).
EIGEN_DIMS = (1, 2, 3, 4, 9, 16)

#: (layer, statistic) pairs reported as ``<layer>.calls`` plus
#: ``<layer>.<statistic>``; "total_s" is span time, "self_s" is span time
#: minus the time of traced callees.
LAYER_STATS = (
    ("matcore.spectral_pow", "total_s"),
    ("matcore.spectral_norm", "total_s"),
    ("matcore.loewner_gap", "total_s"),
    ("matcore.MeanPath", "total_s"),
    ("matcore.kron", "self_s"),
    ("matcore.hadamard", "self_s"),
    ("sampler.haar_orthogonal", "self_s"),
    ("sampler.sample_family", "total_s"),
    ("sampler.validate_band_containment", "total_s"),
    ("inequalities.build_links", "self_s"),
    ("scalarcore.scalar_gap", "self_s"),
)


def combos():
    """Every registered (id, variant) pair, in registry order (18 today)."""
    return [
        (info.ineq, variant)
        for info in inequalities.list_inequalities()
        for variant in info.variants
    ]


def _bound_arg(fn, name):
    sig = inspect.signature(fn)

    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return get


def targets(eigen_inputs: set):
    """Spans for one traced session; distinct eigen inputs go to ``eigen_inputs``."""

    def eigen_key(args, kwargs):
        arr = (args[0] if args else kwargs["a"]).array
        eigen_inputs.add(hashlib.blake2b(arr.tobytes(), digest_size=16).digest())
        return arr.shape[0]

    ineq_of = _bound_arg(inequalities.evaluate_inequality, "ineq")
    variant_of = _bound_arg(inequalities.evaluate_inequality, "variant")

    def eval_key(args, kwargs):
        return f"{ineq_of(args, kwargs).value}.{variant_of(args, kwargs).value}"

    out_path_of = _bound_arg(cli.write_report, "out_path")

    def report_bytes(args, kwargs, csv_path):
        return os.path.getsize(out_path_of(args, kwargs)) + os.path.getsize(csv_path)

    plain = [
        ("matcore", "spectral_pow"),
        ("matcore", "spectral_norm"),
        ("matcore", "loewner_gap"),
        ("matcore", "kron"),
        ("matcore", "hadamard"),
        ("sampler", "haar_orthogonal"),
        ("sampler", "sample_family"),
        ("sampler", "validate_band_containment"),
        ("inequalities", "build_links"),
        ("scalarcore", "scalar_gap"),
        ("cli", "grid_points"),
        ("oracle", "replay_witnesses"),
    ]
    out = [Target(f"{PACKAGE}.{m}", a, f"{m}.{a}") for m, a in plain]
    out += [
        Target(f"{PACKAGE}.matcore", "sym_eigen", "matcore.sym_eigen", key=eigen_key),
        Target(f"{PACKAGE}.matcore", "MeanPath.__init__", "matcore.MeanPath"),
        Target(
            f"{PACKAGE}.inequalities",
            "evaluate_inequality",
            "inequalities.evaluate_inequality",
            key=eval_key,
        ),
        Target(f"{PACKAGE}.cli", "write_report", "cli.write_report", after=report_bytes),
    ]
    return out


def eval_keys():
    return [f"{ineq.value}.{variant.value}" for ineq, variant in combos()]


def unit_metrics(spans, eigen_inputs: set, probe: float) -> tuple[dict, dict, list]:
    """Per-layer values of one traced unit: (exact values, times, evaluate
    durations).

    Exact values (counts, bytes, the distinct-input ratio) repeat for a given
    seed and size.  Times are seconds scaled to nominal speed by the unit's
    reference ``probe`` (see ``speed.py``).
    """

    def sec(ns):
        return speed.nominal(ns * 1e-9, probe)

    calls: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    eigen_calls = {d: 0 for d in EIGEN_DIMS}
    eigen_self = {d: 0 for d in EIGEN_DIMS}
    eval_total = {k: 0 for k in eval_keys()}
    eval_durations = []
    report_bytes = 0
    for s in spans:
        dur, own = s.dur_ns, s.self_ns
        calls[s.name] = calls.get(s.name, 0) + 1
        total_ns[s.name] = total_ns.get(s.name, 0) + dur
        self_ns[s.name] = self_ns.get(s.name, 0) + own
        if s.name == "matcore.sym_eigen":
            if s.key in eigen_calls:
                eigen_calls[s.key] += 1
                eigen_self[s.key] += own
        elif s.name == "inequalities.evaluate_inequality":
            eval_total[s.key] = eval_total.get(s.key, 0) + dur
            eval_durations.append(sec(dur))
        elif s.name == "cli.write_report":
            report_bytes += s.note

    exact, times = {}, {}
    for d in EIGEN_DIMS:
        exact[f"matcore.sym_eigen.calls.d{d}"] = eigen_calls[d]
        times[f"matcore.sym_eigen.self_s.d{d}"] = sec(eigen_self[d])
    n_eigen = calls.get("matcore.sym_eigen", 0)
    exact["matcore.sym_eigen.unique_ratio"] = len(eigen_inputs) / n_eigen if n_eigen else 0.0
    for layer, stat in LAYER_STATS:
        exact[f"{layer}.calls"] = calls.get(layer, 0)
        source = total_ns if stat == "total_s" else self_ns
        times[f"{layer}.{stat}"] = sec(source.get(layer, 0))
    for key in eval_keys():
        times[f"inequalities.evaluate_inequality.{key}"] = sec(eval_total[key])
    times["cli.write_report.total_s"] = sec(total_ns.get("cli.write_report", 0))
    exact["cli.write_report.bytes"] = report_bytes
    return exact, times, eval_durations


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def combine(units: list[tuple[dict, dict, list]]) -> dict:
    """Fold several traced units: exact values from the first, times as
    medians, evaluate percentiles over the pooled durations (in ms)."""
    out = dict(units[0][0])
    for name in units[0][1]:
        out[name] = statistics.median(times[name] for _, times, _ in units)
    pooled = [d for _, _, durations in units for d in durations]
    out["inequalities.evaluate_inequality.p50_ms"] = percentile(pooled, 50) * 1e3
    out["inequalities.evaluate_inequality.p99_ms"] = percentile(pooled, 99) * 1e3
    return out
