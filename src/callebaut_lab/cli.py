"""Command-line harness: verification sweeps, falsification search, witness
replay/export, and the registry listing.

Exit codes: 0 = pass (literal-form findings are expected and do not fail the
run unless --strict), 2 = unexpected violation or witness mismatch, 64 = bad
configuration or unusable output path.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import groupby

from .errors import CallebautLabError, ConfigError
from .inequalities import (
    IneqId,
    REPAIRABLE,
    Variant,
    evaluate_inequality,
    inequality_info,
    list_inequalities,
    params_dict,
)
from .oracle import BUILTIN_WITNESSES, dump_catalog, load_catalog, replay_witnesses
from .oracle import WITNESS_FAMILY, WITNESS_PAIR
from .sampler import RngState, SpectralBand, derive_rng, sample_family, spd_in_band
from .scalarcore import ExponentPair

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_CONFIG = 64

#: The sweep grid: every band, family size and dimension, crossed with the
#: values of the statement's parameter kind.  Pair-shaped ids take n = 1 only.
DEFAULT_BANDS = (
    SpectralBand(1.0, 1.0, 4.0, 4.0),
    SpectralBand(0.5, 1.0, 2.0, 8.0),
    SpectralBand(0.1, 0.2, 5.0, 10.0),
)
DIMS = (1, 2, 3, 4)
FAMILY_SIZES = (1, 2, 3)

#: Grid point that reproduces the recorded witnesses; kept at the head of
#: every relevant sweep.
WITNESS_POINT = (WITNESS_FAMILY.band, WITNESS_FAMILY.n, WITNESS_FAMILY.dim, WITNESS_PAIR)


@dataclass(frozen=True)
class SuiteConfig:
    master_seed: int = 1
    trials: int = 200
    tol: float = 1e-9
    variant: str = "both"  # paper | repaired | both
    strict: bool = False
    out: str = "verify_report.jsonl"
    workers: int = 1

    def validate(self):
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ConfigError(f"tol must be finite and positive, got {self.tol}")
        if self.variant not in ("paper", "repaired", "both"):
            raise ConfigError(f"variant must be paper|repaired|both, got {self.variant}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")


@dataclass
class RunSummary:
    per_combo: dict = field(default_factory=dict)  # (id, variant) -> counts
    wall_time_s: float = 0.0
    verdict: str = "PASS"
    unexpected: int = 0
    findings: int = 0


def _stable_hash(key: str) -> int:
    return int.from_bytes(hashlib.blake2b(key.encode(), digest_size=8).digest(), "big")


def _shuffled(points, key: str):
    order = list(points)
    rng = derive_rng(0xA5A5_1234, _stable_hash(key))
    for i in range(len(order) - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def grid_points(ineq: IneqId, config: SuiteConfig):
    """Deterministic sweep points for one id: (band, n, d, params), where
    params is one of the values of the statement's ``ParamKind``.

    The grid is ``DEFAULT_BANDS`` x ``FAMILY_SIZES`` x ``DIMS`` x the kind's
    values; ``config`` is not read, and the argument stays because the
    benchmark calls ``grid_points(ineq, config)``.  The witness grid point
    leads every sweep that can express it, so the default suite always
    revisits the recorded counterexamples.
    """
    info = inequality_info(ineq)
    sizes = (1,) if info.takes_pair else FAMILY_SIZES
    points = [(band, n, d, p) for band in DEFAULT_BANDS for n in sizes
              for d in DIMS for p in info.kind.values]
    ordered = _shuffled(points, ineq.value)
    if WITNESS_POINT in ordered:
        ordered.remove(WITNESS_POINT)
        ordered.insert(0, WITNESS_POINT)
    return ordered


def _combos(config: SuiteConfig):
    combos = []
    for ineq in IneqId:
        if config.variant in ("paper", "both"):
            combos.append((ineq, Variant.PAPER_LITERAL))
        if config.variant in ("repaired", "both") and ineq in REPAIRABLE:
            combos.append((ineq, Variant.REPAIRED))
    return combos


def _stream(config: SuiteConfig, key: str):
    """Stream id of a sampling key and the generator it seeds."""
    stream = _stable_hash(key)
    return stream, derive_rng(config.master_seed, stream)


def _line(config: SuiteConfig, stream: int, point, report) -> dict:
    """The report-line fields that verify and falsify share."""
    band, n, d, _ = point
    return {
        "id": report.ineq.value,
        "variant": report.variant.value,
        "seed": config.master_seed,
        "stream": stream,
        "n": n,
        "dim": d,
        "band": list(band.as_tuple()),
        "params": report.params,
        "min_eig": report.gap.min_eig,
        "rel_gap": report.gap.rel_gap,
        "satisfied": report.satisfied,
    }


def _run_trial(config: SuiteConfig, ineq: IneqId, variant: Variant, point, trial: int):
    band, n, d, params = point
    param_key = ",".join(f"{k}={v!r}" for k, v in params_dict(ineq, params).items())
    key = f"{ineq.value}|{variant.value}|{band.as_tuple()}|n={n}|d={d}|{param_key}|trial={trial}"
    stream, rng = _stream(config, key)
    instance = sample_family(n, d, band, rng, pin_extremes=False)
    report = evaluate_inequality(ineq, instance, params, variant, tol=config.tol)
    return {
        **_line(config, stream, point, report),
        "links": [
            {
                "name": l.name,
                "min_eig": l.gap.min_eig,
                "rel_gap": l.gap.rel_gap,
                "satisfied": l.gap.satisfied,
            }
            for l in report.links
        ],
        "lhs_norm": report.lhs_norm,
        "rhs_norm": report.rhs_norm,
        "witness": report.witness,
    }


def run_verify(config: SuiteConfig):
    """Run the verification suite; returns (RunSummary, report lines)."""
    config.validate()
    started = time.perf_counter()
    jobs = []
    # _combos lists each id's variants together, so one grid serves them all;
    # only the current id's grid is held.
    for ineq, id_combos in groupby(_combos(config), key=lambda c: c[0]):
        points = grid_points(ineq, config)
        for _, variant in id_combos:
            for k in range(config.trials):
                jobs.append((ineq, variant, points[k % len(points)], k))

    def work(job):
        ineq, variant, point, k = job
        return _run_trial(config, ineq, variant, point, k)

    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            lines = list(pool.map(work, jobs))
    else:
        lines = [work(j) for j in jobs]

    lines.sort(key=lambda l: (l["id"], l["variant"], l["stream"]))

    summary = RunSummary()
    for line in lines:
        key = (line["id"], line["variant"])
        counts = summary.per_combo.setdefault(
            key, {"evaluated": 0, "satisfied": 0, "violated": 0, "min_rel_gap": 0.0}
        )
        counts["evaluated"] += 1
        counts["min_rel_gap"] = min(counts["min_rel_gap"], line["rel_gap"])
        if line["satisfied"]:
            counts["satisfied"] += 1
        else:
            counts["violated"] += 1
            # Only the printed constants of a repairable id are known to fail.
            if line["variant"] == Variant.PAPER_LITERAL.value and IneqId(line["id"]) in REPAIRABLE:
                summary.findings += 1
            else:
                summary.unexpected += 1
    summary.wall_time_s = time.perf_counter() - started
    if summary.unexpected:
        summary.verdict = "FAIL"
    elif summary.findings and config.strict:
        summary.verdict = "STRICT-FAIL"
    return summary, lines


def write_report(lines, summary: RunSummary, out_path: str) -> str:
    """Write the JSONL report plus its CSV summary table; returns the CSV path."""
    with open(out_path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n")
    csv_path = out_path + ".summary.csv" if not out_path.endswith(".jsonl") else out_path[: -len(".jsonl")] + ".summary.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "variant", "evaluated", "satisfied", "violated", "min_rel_gap"])
        for (ineq, variant), c in sorted(summary.per_combo.items()):
            writer.writerow(
                [ineq, variant, c["evaluated"], c["satisfied"], c["violated"], repr(c["min_rel_gap"])]
            )
    return csv_path


def _print_summary(summary: RunSummary, stream=sys.stdout):
    print(f"{'id':<18} {'variant':<9} {'evaluated':>9} {'satisfied':>9} {'violated':>8}  min_rel_gap", file=stream)
    for (ineq, variant), c in sorted(summary.per_combo.items()):
        print(
            f"{ineq:<18} {variant:<9} {c['evaluated']:>9} {c['satisfied']:>9} "
            f"{c['violated']:>8}  {c['min_rel_gap']:+.3e}",
            file=stream,
        )
    print(
        f"verdict: {summary.verdict} "
        f"(unexpected violations: {summary.unexpected}, literal findings: {summary.findings}, "
        f"wall time: {summary.wall_time_s:.2f}s)",
        file=stream,
    )


def cmd_verify(args) -> int:
    config = SuiteConfig(
        master_seed=args.seed,
        trials=args.trials,
        tol=args.tol,
        variant=args.variant,
        strict=args.strict,
        out=args.out,
        workers=args.workers,
    )
    summary, lines = run_verify(config)
    csv_path = write_report(lines, summary, config.out)
    _print_summary(summary)
    print(f"report: {config.out}  summary: {csv_path}")
    if summary.unexpected:
        return EXIT_VIOLATION
    if summary.findings and config.strict:
        return EXIT_VIOLATION
    return EXIT_OK


def _mutate_st(pair: ExponentPair, rng: RngState, step: float) -> ExponentPair:
    """Nudge one exponent by +-step, staying on an admissible branch."""
    for _ in range(8):
        ds = (rng.next_u64() % 3 - 1) * step
        dt = (rng.next_u64() % 3 - 1) * step
        try:
            return ExponentPair(pair.s + ds, pair.t + dt)
        except CallebautLabError:
            continue
    return pair


def run_falsify(ineq: IneqId, variant: Variant, budget: int, config: SuiteConfig):
    """Randomized counterexample search with band-edge pinning.

    Draws ``budget`` pinned instances over the sweep grid, then locally
    perturbs the best candidate for 50 steps (matrix redraws and exponent
    nudges).  Returns the most negative report line found, or None when
    ``budget`` is 0.
    """
    config.validate()
    if budget < 0:
        raise ConfigError(f"budget must be >= 0, got {budget}")
    if variant == Variant.REPAIRED and ineq not in REPAIRABLE:
        raise ConfigError(f"{ineq.value} defines no repaired variant")
    points = grid_points(ineq, config)
    best = None  # (rel_gap, line, point, instance)

    def consider(point, instance, trial, stream):
        nonlocal best
        report = evaluate_inequality(ineq, instance, point[3], variant, tol=config.tol)
        if best is None or report.gap.rel_gap < best[0]:
            line = {
                **_line(config, stream, point, report),
                "trial": trial,
                "instance": {
                    "A_list": [m.array.tolist() for m in instance.A_list],
                    "B_list": [m.array.tolist() for m in instance.B_list],
                },
            }
            best = (report.gap.rel_gap, line, point, instance)

    for b in range(budget):
        stream, rng = _stream(config, f"falsify|{ineq.value}|{variant.value}|trial={b}")
        point = points[rng.next_u64() % len(points)]
        band, n, d, _ = point
        instance = sample_family(n, d, band, rng, pin_extremes=True)
        consider(point, instance, b, stream)

    if best is not None:
        for step in range(50):
            stream, rng = _stream(config, f"refine|{ineq.value}|{variant.value}|step={step}")
            _, _, point, instance = best
            band, n, d, params = point
            if isinstance(params, ExponentPair) and rng.uniform() < 0.5:
                p2 = _mutate_st(params, rng, 1.0 / 32.0)
                if not inequality_info(ineq).kind.holds(p2):
                    p2 = params
                consider((band, n, d, p2), instance, -1, stream)
            else:
                j = rng.next_u64() % n
                redraw_a = rng.next_u64() % 2 == 0
                if redraw_a:
                    new = spd_in_band(d, band.M_lo, band.M_hi, rng, pin_extremes=True)
                    a_list = list(instance.A_list)
                    a_list[j] = new
                    cand = replace(instance, A_list=tuple(a_list))
                else:
                    new = spd_in_band(d, band.m_lo, band.m_hi, rng, pin_extremes=True)
                    b_list = list(instance.B_list)
                    b_list[j] = new
                    cand = replace(instance, B_list=tuple(b_list))
                consider(point, cand, -1, stream)
    return best[1] if best is not None else None


def cmd_falsify(args) -> int:
    try:
        ineq = IneqId(args.id)
    except ValueError:
        raise ConfigError(
            f"unknown inequality id {args.id!r}; see `callebaut-lab list`"
        ) from None
    variant = Variant.PAPER_LITERAL if args.variant == "paper" else Variant.REPAIRED
    config = SuiteConfig(master_seed=args.seed, tol=args.tol)
    best = run_falsify(ineq, variant, args.budget, config)
    if best is None:
        print("empty result: budget is 0")
        return EXIT_OK
    print(json.dumps(best, sort_keys=True))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(best, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_witness(args) -> int:
    if args.export is not None:
        dump_catalog(BUILTIN_WITNESSES, args.export)
        print(f"exported {len(BUILTIN_WITNESSES)} witness records to {args.export}")
        return EXIT_OK
    if args.replay == "__builtin__":
        records = None
        label = "built-in"
    else:
        records = load_catalog(args.replay)
        label = args.replay
    outcomes = replay_witnesses(records)
    failed = 0
    for out in outcomes:
        status = "pass" if out.passed else "FAIL"
        print(
            f"[{status}] {out.record.ineq.value}/{out.record.variant.value}: "
            f"expected {out.record.expected_gap:+.10g}, matrix {out.matrix_gap:+.10g}, "
            f"scalar {out.scalar_gap:+.10g}"
        )
        if not out.passed:
            failed += 1
    print(f"replayed {len(outcomes)} records from {label}: {len(outcomes) - failed} passed, {failed} failed")
    return EXIT_VIOLATION if failed else EXIT_OK


def cmd_list(_args) -> int:
    for info in list_inequalities():
        variants = "+".join(v.value for v in info.variants)
        print(f"{info.ineq.value:<18} [{variants}] {info.description}")
        print(f"{'':<18} {info.anchor}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="callebaut-lab",
        description="Verify and falsify Callebaut-type operator inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.add_argument("--trials", type=int, default=200, help="trials per (id, variant)")
    p_verify.add_argument("--variant", choices=("paper", "repaired", "both"), default="both")
    p_verify.add_argument("--tol", type=float, default=1e-9)
    p_verify.add_argument("--strict", action="store_true",
                          help="fail (exit 2) on literal-form findings too")
    p_verify.add_argument("--out", default="verify_report.jsonl")
    p_verify.add_argument("--workers", type=int, default=1)
    p_verify.set_defaults(func=cmd_verify)

    p_falsify = sub.add_parser("falsify", help="search for counterexamples")
    p_falsify.add_argument("--id", required=True)
    p_falsify.add_argument("--variant", choices=("paper", "repaired"), default="paper")
    p_falsify.add_argument("--budget", type=int, required=True)
    p_falsify.add_argument("--seed", type=int, default=1)
    p_falsify.add_argument("--tol", type=float, default=1e-9)
    p_falsify.add_argument("--out", default=None)
    p_falsify.set_defaults(func=cmd_falsify)

    p_witness = sub.add_parser("witness", help="replay or export witness records")
    grp = p_witness.add_mutually_exclusive_group(required=True)
    grp.add_argument("--replay", nargs="?", const="__builtin__",
                     help="replay the built-in catalog, or a JSONL file if given")
    grp.add_argument("--export", help="write the built-in catalog to PATH")
    p_witness.set_defaults(func=cmd_witness)

    p_list = sub.add_parser("list", help="list registered inequalities")
    p_list.set_defaults(func=cmd_list)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
