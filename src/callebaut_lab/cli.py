"""Command-line harness: verification sweeps, falsification search, witness
replay/export, and the registry listing.  README "Reports" gives the report
lines and the exit codes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from itertools import groupby, islice
from typing import NamedTuple

import numpy as np

from .errors import CallebautLabError, ConfigError
from .inequalities import (
    IneqId,
    REPAIRABLE,
    Variant,
    evaluate_stage,
    inequality_info,
    list_inequalities,
)
from .matcore import DEFAULT_TOL
from .oracle import BUILTIN_WITNESSES, dump_catalog, load_catalog, replay_witnesses
from .oracle import WITNESS_FAMILY, WITNESS_PAIR
from .sampler import FamilyInstance, SpectralBand, derive_rng, derive_rngs, derive_streams, next_words
from .sampler import sample_families, sample_matrices
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

#: Trials that are sampled and then evaluated together, the unit of
#: ``_staged``: ``sampler.derive_rngs`` seeds their streams and
#: ``sampler.sample_families`` draws them as NumPy lanes, which pay only
#: when many streams run at once, and one Haar QR and one
#: eigendecomposition per dimension; ``inequalities.evaluate_stage`` builds
#: each (id, variant, dimension) group's links once, on stacks.  A stage's
#: draws, families, links and reports are held until the caller has read
#: them, so this bounds the memory that staging adds.  Each stage also pays
#: a fixed cost, per-dimension set-up in the stacked steps and about 120
#: lane-draw steps, whatever its size.  512 runs the benchmark's ``sweep``
#: unit (216 trials) and a 500-trial ``falsify`` budget as one stage each.
#: Against 256, on a 2-vCPU host, peak RSS over 10 searches or runs in one
#: process rose 38.9 -> 39.9 MB on HAD_MAMAN ``falsify``, 40.5 -> 43.5 MB
#: on PROOF_CHAIN and 46.6 -> 49.2 MB on default ``verify``, and not on
#: ``sweep``; ``SymMatrix`` slots took that back to 39.7, 43.4 and 48.3 MB.
STAGE = 512

#: Grid point that reproduces the recorded witnesses; kept at the head of
#: every relevant sweep.
WITNESS_POINT = (WITNESS_FAMILY.band, WITNESS_FAMILY.n, WITNESS_FAMILY.dim, WITNESS_PAIR)


@dataclass(frozen=True)
class SuiteConfig:
    master_seed: int = 1
    trials: int = 200
    tol: float = DEFAULT_TOL
    variant: str = "both"  # paper | repaired | both
    strict: bool = False

    def validate(self):
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ConfigError(f"tol must be finite and positive, got {self.tol}")
        if self.variant not in ("paper", "repaired", "both"):
            raise ConfigError(f"variant must be paper|repaired|both, got {self.variant}")


@dataclass
class RunSummary:
    per_combo: dict = field(default_factory=dict)  # (id, variant) -> counts
    wall_time_s: float = 0.0
    verdict: str = "PASS"
    unexpected: int = 0
    findings: int = 0


def _stable_hash(key: str) -> int:
    return int.from_bytes(hashlib.blake2b(key.encode(), digest_size=8).digest(), "big")


def _shuffled(points, key: str, tracked: int | None = None):
    """``points`` in a Fisher-Yates order seeded by ``key``, and the new
    position of the item at position ``tracked`` (None if not given).

    For i = n - 1, ..., 1, item i swaps with item j = w mod (i + 1), w the
    key's stream's next ``next_u64`` word (``docs/rng.md``, "Grid order")."""
    n = len(points)
    nxt = derive_rng(0xA5A5_1234, _stable_hash(key)).next_u64
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = nxt() % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return [points[k] for k in perm], None if tracked is None else perm.index(tracked)


def _axes(ineq: IneqId):
    """An id's grid axes; pair-shaped ids take n = 1 only."""
    info = inequality_info(ineq)
    return DEFAULT_BANDS, (1,) if info.takes_pair else FAMILY_SIZES, DIMS, info.kind.values


@functools.cache
def _grid_order(ineq: IneqId) -> np.ndarray:
    """``ineq``'s sweep order as read-only positions in product order:
    ``_shuffled`` on ``range(n)``, the witness point moved to the head."""
    axes = _axes(ineq)
    witness = 0  # the witness's place in the product, found axis by axis
    try:
        for axis, value in zip(axes, WITNESS_POINT):
            witness = witness * len(axis) + axis.index(value)
    except ValueError:
        witness = None
    order, witness = _shuffled(range(math.prod(map(len, axes))), ineq.value, witness)
    if witness is not None:
        order.insert(0, order.pop(witness))
    order = np.array(order, dtype=np.uint16)
    order.flags.writeable = False
    return order


def _points(ineq: IneqId, positions) -> list:
    """The grid points (band, n, d, params) at ``positions`` in the product
    of ``_axes``, as a new list."""
    axes = _axes(ineq)
    digits = np.unravel_index(positions, [len(axis) for axis in axes])
    return list(zip(*([axis[i] for i in d.tolist()] for axis, d in zip(axes, digits))))


def grid_points(ineq: IneqId, config: SuiteConfig):
    """Sweep points (band, n, d, params) for one id, params a value of its
    ``ParamKind``, as a new list: the product of ``_axes`` in the order of
    ``_grid_order``, so the witness grid point leads every sweep that can
    express it.  ``config`` is not read; the benchmark passes it.
    """
    return _points(ineq, _grid_order(ineq))


def _combos(config: SuiteConfig):
    combos = []
    for ineq in IneqId:
        if config.variant in ("paper", "both"):
            combos.append((ineq, Variant.PAPER_LITERAL))
        if config.variant in ("repaired", "both") and ineq in REPAIRABLE:
            combos.append((ineq, Variant.REPAIRED))
    return combos


class _Job(NamedTuple):
    """One trial: its statement, grid point, index and stream id.  The index
    is a verify trial's place in its sweep, a ``falsify`` budget trial's in
    the budget, and -1 for a ``falsify`` refinement step."""

    ineq: IneqId
    variant: Variant
    point: tuple
    trial: int
    stream: int


def _line(config: SuiteConfig, job: _Job, report) -> dict:
    """The fields of every report line, from ``id`` to ``params``, then the
    gap of ``report``, or its error when ``report`` is one."""
    band, n, d, params = job.point
    line = {
        "id": job.ineq.value,
        "variant": job.variant.value,
        "seed": config.master_seed,
        "stream": job.stream,
        "n": n,
        "dim": d,
        "band": list(band.as_tuple()),
        "params": inequality_info(job.ineq).kind.report(params),
    }
    if isinstance(report, Exception):
        line["error"] = f"{type(report).__name__}: {report}"
    else:
        line.update(min_eig=report.gap.min_eig, rel_gap=report.gap.rel_gap, satisfied=report.satisfied)
    return line


def _trial_stream(ineq: IneqId, variant: Variant, point, trial: int) -> int:
    """Stream id of one verify trial, keyed by its grid coordinates."""
    band, n, d, params = point
    param_key = ",".join(f"{k}={v!r}" for k, v in inequality_info(ineq).kind.report(params).items())
    key = f"{ineq.value}|{variant.value}|{band.as_tuple()}|n={n}|d={d}|{param_key}|trial={trial}"
    return _stable_hash(key)


def _stages(items):
    """The iterable ``items`` as lists of ``STAGE`` items, the last shorter."""
    items = iter(items)
    while stage := list(islice(items, STAGE)):
        yield stage


def _staged(stages, pin: bool, tol: float):
    """``(job, family, report)`` for each ``(job, rng)`` of each stage of
    the iterable ``stages``, in order, where the family is ``job``'s grid
    point's, drawn from ``rng`` (band-edge pinned if ``pin``).

    A stage's families are sampled together (``sample_families``) and then
    evaluated together (``evaluate_stage``).  A family that could not be
    sampled is the error ``sample_families`` put in its place, and its
    report is that same error; a trial that raised has its error as its
    report.  Each stage is read after the caller has read the previous
    one's results; every family draws from its own stream and every trial
    is measured as it would be alone, so the stage size changes no number.
    """
    for stage in stages:
        jobs = [job for job, _ in stage]
        families = sample_families([(j.point[1], j.point[2], j.point[0], rng, pin) for j, rng in stage])
        trials = [(j.ineq, f, j.point[3], j.variant) for j, f in zip(jobs, families)]
        yield from zip(jobs, families, _evaluated(trials, tol))


def _evaluated(trials, tol: float) -> list:
    """``evaluate_stage(trials, tol)`` for trials ``(ineq, family, params,
    variant)`` whose family may be the error that sampling it raised; such
    a trial's report is that error."""
    sampled = [k for k, t in enumerate(trials) if not isinstance(t[1], Exception)]
    reports = [t[1] for t in trials]
    for k, report in zip(sampled, evaluate_stage([trials[k] for k in sampled], tol)):
        reports[k] = report
    return reports


def _run_trial(config: SuiteConfig, job: _Job, report):
    """Report line of one verify trial: ``_line``, then, unless ``report``
    is an error, the links, the operand norms and the witness."""
    line = _line(config, job, report)
    if not isinstance(report, Exception):
        line.update(
            links=[
                {
                    "name": l.name,
                    "min_eig": l.gap.min_eig,
                    "rel_gap": l.gap.rel_gap,
                    "satisfied": l.gap.satisfied,
                }
                for l in report.links
            ],
            lhs_norm=report.lhs_norm,
            rhs_norm=report.rhs_norm,
            witness=report.witness,
        )
    return line


def run_verify(config: SuiteConfig):
    """Run the verification suite in stages (``_staged``); returns
    (RunSummary, report lines)."""
    config.validate()
    started = time.perf_counter()

    def jobs():
        # _combos lists each id's variants together, so one list of the
        # grid points read serves them all; only the current id's is held.
        for ineq, id_combos in groupby(_combos(config), key=lambda c: c[0]):
            points = _points(ineq, _grid_order(ineq)[: config.trials])
            for _, variant in id_combos:
                for k in range(config.trials):
                    point = points[k % len(points)]
                    yield _Job(ineq, variant, point, k, _trial_stream(ineq, variant, point, k))

    def stages():
        # A stage's streams are seeded together, across its combos.
        for stage in _stages(jobs()):
            yield list(zip(stage, derive_rngs(config.master_seed, [job.stream for job in stage])))

    staged = _staged(stages(), False, config.tol)
    lines = [_run_trial(config, job, report) for job, _, report in staged]
    lines.sort(key=lambda l: (l["id"], l["variant"], l["stream"]))

    summary = RunSummary()
    for line in lines:
        key = (line["id"], line["variant"])
        counts = summary.per_combo.setdefault(
            key, {"evaluated": 0, "satisfied": 0, "violated": 0, "min_rel_gap": 0.0}
        )
        counts["evaluated"] += 1
        if "error" in line:
            counts["violated"] += 1
            summary.unexpected += 1
            continue
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


def _csv_path(out_path: str) -> str:
    """The CSV summary path of the JSONL report ``out_path``."""
    return out_path.removesuffix(".jsonl") + ".summary.csv"


def write_report(lines, summary: RunSummary, out_path: str) -> str:
    """Write the JSONL report plus its CSV summary table; returns the CSV path."""
    with open(out_path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n")
    csv_path = _csv_path(out_path)
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "variant", "evaluated", "satisfied", "violated", "min_rel_gap"])
        for (ineq, variant), c in sorted(summary.per_combo.items()):
            writer.writerow(
                [ineq, variant, c["evaluated"], c["satisfied"], c["violated"], repr(c["min_rel_gap"])]
            )
    return csv_path


def _print_summary(summary: RunSummary, stream=None):
    """Print the summary table to ``stream``, by default ``sys.stdout`` as it is at the call."""
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
    )
    config.validate()
    for path in (args.out, _csv_path(args.out)):
        open(path, "a").close()  # an unusable report path fails before the first trial
    summary, lines = run_verify(config)
    csv_path = write_report(lines, summary, args.out)
    _print_summary(summary)
    print(f"report: {args.out}  summary: {csv_path}")
    return EXIT_OK if summary.verdict == "PASS" else EXIT_VIOLATION


#: Words an exponent nudge (``_mutate_st``) reads at most: two per try.
NUDGE_WORDS = 16


def _mutate_st(pair: ExponentPair, next_u64, step: float) -> ExponentPair:
    """Nudge one exponent by +-step, staying on an admissible branch; each
    try reads two words from ``next_u64`` (a stream's ``next_u64``, or a
    replay of its words)."""
    for _ in range(NUDGE_WORDS // 2):
        ds = (next_u64() % 3 - 1) * step
        dt = (next_u64() % 3 - 1) * step
        try:
            return ExponentPair(pair.s + ds, pair.t + dt)
        except CallebautLabError:
            continue
    return pair


#: Refinement steps ``run_falsify`` takes from the best of its budget trials.
REFINE_STEPS = 50

#: Refinement steps drawn and evaluated together in ``run_falsify``.  A
#: chunk is built from the best at its start; the steps after an improving
#: one are discarded and run again from the new best, so a larger chunk
#: shares more fixed cost but wastes more work per improvement
#: (HAD_MAMAN/paper at budget 500 improved 0-8 times in 50 steps, median
#: 2.5, over 120 seeds).  Timed per seed on that search, the refinement
#: took 0.40-0.43 of its one-step time at chunks of 12 and 16, 0.44 at 8
#: and 0.56-0.60 at 50 (medians over 80 seeds, at each of two seed bases).
REFINE_CHUNK = 12


class _Step(NamedTuple):
    """The draws of one refinement step, from its own stream: the stream
    id, and either the ``NUDGE_WORDS`` words an exponent nudge reads
    (``redraw`` None) or the redrawn side, index and ``sample_matrices``
    request."""

    stream: int
    words: tuple | None
    redraw: tuple | None


def _refine_plan(config: SuiteConfig, ineq: IneqId, variant: Variant, point) -> list[_Step]:
    """The ``_Step`` of every refinement step from a best at ``point``.

    A step's draws depend only on its stream and on the best's band, size
    and dimension (no step changes them) and parameter kind, so they are
    drawn once, for every step: the ``REFINE_STEPS`` streams are seeded
    together with the words that pick each step (``derive_streams``), a
    uniform that chooses a nudge for ``ExponentPair`` params, then a
    redraw's index and side, and the later words of every nudge are drawn
    together (``next_words``)."""
    band, n, d, params = point
    key = f"refine|{ineq.value}|{variant.value}|step="
    streams = [_stable_hash(f"{key}{s}") for s in range(REFINE_STEPS)]
    nudging = isinstance(params, ExponentPair)
    rngs, words = derive_streams(config.master_seed, streams, 3 if nudging else 2)
    words = words.tolist()
    # RngState.uniform() < 0.5, from the first word.
    nudges = [s for s, w in enumerate(words) if nudging and (w[0] >> 11) * 2.0 ** -53 < 0.5]
    tails = dict(zip(nudges, next_words([rngs[s] for s in nudges], NUDGE_WORDS - 2).tolist()))
    plan = []
    for s, (stream, rng, w) in enumerate(zip(streams, rngs, words)):
        if s in tails:
            plan.append(_Step(stream, (*w[1:], *tails[s]), None))
            continue
        j, side = w[-2:]
        if side % 2 == 0:
            attr, lo, hi = "A_list", band.M_lo, band.M_hi
        else:
            attr, lo, hi = "B_list", band.m_lo, band.m_hi
        plan.append(_Step(stream, None, (attr, j % n, (d, lo, hi, rng, True))))
    return plan


def _refine_step(ineq: IneqId, step: _Step, point):
    """``step`` from the best's grid point: the point it evaluates, and
    for a matrix redraw the redrawn side and index (else None)."""
    if step.redraw is not None:
        return point, step.redraw[:2]
    band, n, d, params = point
    p2 = _mutate_st(params, iter(step.words).__next__, 1.0 / 32.0)
    if not inequality_info(ineq).kind.holds(p2):
        p2 = params
    return (band, n, d, p2), None


def _check_search(ineq: IneqId, variant: Variant, budget: int, config: SuiteConfig):
    """Raise ``ConfigError`` unless ``run_falsify`` can search with these
    arguments."""
    config.validate()
    if budget < 0:
        raise ConfigError(f"budget must be >= 0, got {budget}")
    if variant == Variant.REPAIRED and ineq not in REPAIRABLE:
        raise ConfigError(f"{ineq.value} defines no repaired variant")


def run_falsify(ineq: IneqId, variant: Variant, budget: int, config: SuiteConfig):
    """Randomized counterexample search with band-edge pinning: ``budget``
    pinned instances over the sweep grid, then ``REFINE_STEPS`` matrix
    redraws and exponent nudges, each from the best so far, in chunks of
    ``REFINE_CHUNK``.  A budget stage seeds its streams and draws their
    grid-position words at once (``derive_streams``); the refinement's
    draws are made once (``_refine_plan``), and its redraws sampled by one
    ``sample_matrices`` call, before the first chunk.  Returns the line of
    the most negative report found (``_line``, the trial index and the
    instance; None when no trial was evaluated) and the number of budget
    trials and refinement steps whose report is an error: such a trial is
    skipped, and such a step does not count as better.
    """
    _check_search(ineq, variant, budget, config)
    order = _grid_order(ineq)
    best = None  # (rel_gap, job, instance, report)
    failed = 0

    key = f"falsify|{ineq.value}|{variant.value}|trial="  # a budget trial's stream key, less its index

    def stages():
        # Each trial draws its grid point from its own stream's first word,
        # then its family; a stage seeds its streams, draws their first
        # words and builds its points together.
        for trials in _stages(range(budget)):
            streams = [_stable_hash(f"{key}{b}") for b in trials]
            rngs, words = derive_streams(config.master_seed, streams, 1)
            points = _points(ineq, order[(words[:, 0] % np.uint64(len(order))).astype(np.intp)])
            yield [(_Job(ineq, variant, p, b, s), rng) for p, b, s, rng in zip(points, trials, streams, rngs)]

    for job, instance, report in _staged(stages(), True, config.tol):
        if isinstance(report, Exception):
            failed += 1
        elif best is None or report.gap.rel_gap < best[0]:
            best = (report.gap.rel_gap, job, instance, report)

    if best is not None:
        # Every step is built once at least, so every redraw is sampled,
        # once, by one call.
        plan = _refine_plan(config, ineq, variant, best[1].point)
        redraws = [s for s, st in enumerate(plan) if st.redraw]
        redrawn = dict(zip(redraws, sample_matrices([plan[s].redraw[2] for s in redraws])))
    step = 0
    while best is not None and step < REFINE_STEPS:
        steps = []  # (job, family or its sampling error)
        for s in range(step, min(step + REFINE_CHUNK, REFINE_STEPS)):
            point, redraw = _refine_step(ineq, plan[s], best[1].point)
            instance = best[2]
            if redraw:
                attr, j = redraw
                matrix = redrawn[s]
                if isinstance(matrix, Exception):
                    instance = matrix
                else:
                    mats = list(getattr(instance, attr))
                    mats[j] = matrix
                    a, b = (tuple(mats), instance.B_list) if attr == "A_list" else (instance.A_list, tuple(mats))
                    # The redrawn matrix has the family's dimension: no field needs a check.
                    instance = FamilyInstance._of(instance.n, instance.dim, a, b, instance.band)
            steps.append((_Job(ineq, variant, point, -1, plan[s].stream), instance))
        trials = [(ineq, instance, job.point[3], variant) for job, instance in steps]
        for (job, instance), report in zip(steps, _evaluated(trials, config.tol)):
            step += 1
            if isinstance(report, Exception):
                failed += 1
            elif report.gap.rel_gap < best[0]:
                best = (report.gap.rel_gap, job, instance, report)
                break
    if best is None:
        return None, failed
    _, job, family, report = best
    instance = {attr: [m.array.tolist() for m in getattr(family, attr)] for attr in ("A_list", "B_list")}
    return {**_line(config, job, report), "trial": job.trial, "instance": instance}, failed


def cmd_falsify(args) -> int:
    try:
        ineq = IneqId(args.id)
    except ValueError:
        raise ConfigError(
            f"unknown inequality id {args.id!r}; see `callebaut-lab list`"
        ) from None
    variant = Variant.PAPER_LITERAL if args.variant == "paper" else Variant.REPAIRED
    config = SuiteConfig(master_seed=args.seed, tol=args.tol)
    if args.out:
        _check_search(ineq, variant, args.budget, config)  # a bad setting is reported first
        open(args.out, "a").close()  # an unusable --out path fails before the search
    best, failed = run_falsify(ineq, variant, args.budget, config)
    if failed:
        # stdout's last line stays the best line.
        print(f"skipped {failed} failing trials or refinement steps", file=sys.stderr)
    if best is None:
        if args.budget:
            print(f"empty result: all {args.budget} trials failed")
            return EXIT_VIOLATION
        print("empty result: budget is 0")
        return EXIT_OK
    text = json.dumps(best, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
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
        failed_path = math.isnan(out.matrix_gap) or math.isnan(out.scalar_gap)
        reason = f" (reason: {out.message})" if failed_path else ""
        print(
            f"[{status}] {out.record.ineq.value}/{out.record.variant.value}: "
            f"expected {out.record.expected_gap:+.10g}, matrix {out.matrix_gap:+.10g}, "
            f"scalar {out.scalar_gap:+.10g}{reason}"
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
    p_verify.add_argument("--seed", type=int, default=SuiteConfig.master_seed)
    p_verify.add_argument("--trials", type=int, default=SuiteConfig.trials,
                          help="trials per (id, variant)")
    p_verify.add_argument("--variant", choices=("paper", "repaired", "both"), default="both")
    p_verify.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_verify.add_argument("--strict", action="store_true",
                          help="fail (exit 2) on literal-form findings too")
    p_verify.add_argument("--out", default="verify_report.jsonl")
    # Accepted, with its one value, only because the benchmark passes it.
    p_verify.add_argument("--workers", type=int, choices=(1,), default=1, help=argparse.SUPPRESS)
    p_verify.set_defaults(func=cmd_verify)

    p_falsify = sub.add_parser("falsify", help="search for counterexamples")
    p_falsify.add_argument("--id", required=True)
    p_falsify.add_argument("--variant", choices=("paper", "repaired"), default="paper")
    p_falsify.add_argument("--budget", type=int, required=True)
    p_falsify.add_argument("--seed", type=int, default=SuiteConfig.master_seed)
    p_falsify.add_argument("--tol", type=float, default=DEFAULT_TOL)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: ``parse_args`` reads the
    parser and returns a new namespace, so every call parses alike."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
