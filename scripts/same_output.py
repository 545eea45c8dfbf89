#!/usr/bin/env python3
"""Check that the working tree gives the same output as a git revision.

Run from anywhere inside the repository:

    python3 scripts/same_output.py --against HEAD~1

The package sources (``src/``) of ``REV`` are extracted with ``git archive``
into a temporary directory; nothing is fetched.  The same battery of
commands then runs on ``REV`` and on the working tree, one interpreter per
side, both sides at once:

- ``verify`` at its defaults and ``verify --trials 2592``: exit code,
  summary table (its wall time masked), JSONL report and CSV summary;
- ``falsify`` for every (id, variant) combo at seeds 1000-1005 and budgets
  1, 300 and 600: exit code, stdout and stderr;
- ``witness --replay`` and ``list``: exit code, stdout and stderr.

Each command's output is kept as files, and the two sides' files are
compared byte for byte.  One line is printed per file that differs, with
its first differing line; the exit code is 0 only when nothing differs.
Report bytes depend on the LAPACK build, so both sides run here, on one
machine and one NumPy.

A change that moves output on purpose names the groups it moves, for
example ``--expect-change falsify`` (repeatable; the groups are
``verify``, ``falsify``, ``witness`` and ``list``).  Every differing file
is still listed, marked ``(expected)`` when its group is named; the exit
code is 0 when every difference is in a named group, and 1 when any is
not.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SEEDS = range(1000, 1006)
BUDGETS = (1, 300, 600)
VERIFY_RUNS = {"verify-default": [], "verify-trials2592": ["--trials", "2592"]}
GROUPS = ("verify", "falsify", "witness", "list")


def _group(name: str) -> str:
    """The group of an output file: the command its name starts with."""
    return name.split("-", 1)[0].split(".", 1)[0]


def _commands(list_inequalities):
    """(name, argv) of every command in the battery; verify writes its
    report to ``<name>.jsonl`` in the working directory."""
    for name, extra in VERIFY_RUNS.items():
        yield name, ["verify", *extra, "--out", f"{name}.jsonl"]
    for info in list_inequalities():
        for variant in info.variants:
            for seed in SEEDS:
                for budget in BUDGETS:
                    yield (
                        f"falsify-{info.ineq.value}-{variant.value}-seed{seed}-budget{budget}",
                        ["falsify", "--id", info.ineq.value, "--variant", variant.value,
                         "--seed", str(seed), "--budget", str(budget)],
                    )
    yield "witness-replay", ["witness", "--replay"]
    yield "list", ["list"]


class _Capture(io.StringIO):
    """Stands in for ``sys.stdout`` and ``sys.stderr`` from before the
    package is imported, so output reaches it even where a revision bound
    the stream at import."""

    def take(self) -> str:
        text = self.getvalue()
        self.seek(0)
        self.truncate()
        return text


def run_battery(src: str, workdir: str) -> None:
    """Run every command of the battery on the package under ``src`` and
    write ``<name>.txt`` (exit code, stdout, stderr) into ``workdir``."""
    os.chdir(workdir)
    sys.path.insert(0, src)
    out, err = _Capture(), _Capture()
    real_stderr = sys.stderr
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        from callebaut_lab import cli, inequalities

        for name, argv in _commands(inequalities.list_inequalities):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is output to compare, not the end of the battery
                code = f"raised {type(exc).__name__}: {exc}"
            stdout = re.sub(r"wall time: [0-9.]+s", "wall time: *", out.take())
            with open(f"{name}.txt", "w", encoding="utf-8") as fh:
                fh.write(f"exit: {code}\n--- stdout\n{stdout}--- stderr\n{err.take()}")
    print(f"{src}: ran the battery", file=real_stderr)


def _extract(rev: str, dest: str) -> str:
    """Extract ``src/`` of ``rev`` into ``dest``; returns its path."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev, "src"],
                         check=True, capture_output=True).stdout
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=tar, check=True)
    return os.path.join(dest, "src")


def _first_difference(a: bytes, b: bytes) -> str:
    """Where ``a`` and ``b`` first differ: the line, and up to 60 bytes
    either side of the first byte that differs on it."""
    for number, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
        if x != y:
            at = next((i for i, (p, q) in enumerate(zip(x, y)) if p != q), min(len(x), len(y)))
            window = slice(max(at - 60, 0), at + 60)
            return f"line {number}, byte {at + 1}: {x[window]!r} != {y[window]!r}"
    return f"{len(a.splitlines())} lines != {len(b.splitlines())} lines"


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def compare(rev_dir: str, tree_dir: str) -> list[tuple[str, str]]:
    """``(group, line)`` for each file that differs between the two sides'
    outputs."""
    names = sorted(set(os.listdir(rev_dir)) | set(os.listdir(tree_dir)))
    mismatches = []
    for name in names:
        sides = [_read(os.path.join(directory, name)) for directory in (rev_dir, tree_dir)]
        if sides[0] == sides[1]:
            continue
        if None in sides:
            where = "the working tree" if sides[1] is None else "the revision"
            mismatches.append((_group(name), f"{name}: missing in {where}"))
        else:
            mismatches.append((_group(name), f"{name}: {_first_difference(*sides)}"))
    return mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="git revision to compare the working tree with")
    parser.add_argument("--expect-change", action="append", default=[], choices=GROUPS,
                        metavar="GROUP", help=f"a group whose outputs may differ ({', '.join(GROUPS)}); "
                        "repeatable")
    parser.add_argument("--battery", nargs=2, metavar=("SRC", "WORKDIR"),
                        help=argparse.SUPPRESS)  # one side's interpreter
    args = parser.parse_args(argv)
    if args.battery:
        run_battery(*args.battery)
        return 0

    started = time.perf_counter()
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory(prefix="same_output-") as tmp:
        sides = {"rev": _extract(args.against, os.path.join(tmp, "rev")),
                 "tree": os.path.join(ROOT, "src")}
        runs = []
        for side, src in sides.items():
            workdir = os.path.join(tmp, f"out-{side}")
            os.mkdir(workdir)
            runs.append((workdir, subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--against", args.against,
                 "--battery", src, workdir], env=env, stdin=subprocess.DEVNULL)))
        if any([proc.wait() for _, proc in runs]):
            print("same_output: a battery failed to run", file=sys.stderr)
            return 2
        mismatches = compare(runs[0][0], runs[1][0])
        compared = len(os.listdir(runs[1][0]))
    unexpected = 0
    for group, line in mismatches:
        expected = group in args.expect_change
        unexpected += not expected
        print(f"{line} (expected)" if expected else line)
    named = f", {len(mismatches) - unexpected} in {'/'.join(args.expect_change)}" if args.expect_change else ""
    print(f"same_output: {len(mismatches)} of {compared} outputs differ from {args.against}{named} "
          f"({time.perf_counter() - started:.0f} s)")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
