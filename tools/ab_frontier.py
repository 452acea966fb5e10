"""Interleaved A/B of a cold frontier run, one fresh process per run:

    python3 tools/ab_frontier.py OLD NEW [--rounds N] [--order K]

OLD and NEW are checkouts, each a directory holding ``src/lmo_kernel``.
Before the first round each checkout's ``src`` is copied into a
temporary directory and byte-compiled there once.  Each round runs
``compare --knot unknot --framing 2 --lie A1 --order K`` (default 6)
once per checkout, each run a fresh ``python3 -m lmo_kernel.cli`` with
that checkout's compiled copy on ``PYTHONPATH``; the first checkout of
each round alternates.  So no child compiles a module whose bytecode is
older than its source (under ``PYTHONDONTWRITEBYTECODE`` every child
would compile each edited module again), and nothing is written into
the checkouts.  Every report must equal every other, and its exact
series must equal the reference recorded for the order: the entry of
perfbench/references.json for orders 2-4, of ``FRONTIER_REFERENCES``
for orders 5 and 6 (both files are only read).  The script prints each
side's median wall time of a run, measured around the child process,
and its median peak resident set (the child's ``ru_maxrss``), with
their interquartile ranges and the ratios NEW / OLD of the medians, as
``tools/ab_cold.py`` prints them, then one JSON line with the same
figures, the report's ``routes_equal`` and ``equal``, and ``reference``:
true or false, or null where no reference is recorded for the order.
A ratio counts only when the two medians differ by more than that
spread.  It exits 1 if a run failed, two reports differ or a report
differs from its reference.

Unlike the other two tools, it adds interpreter start-up and the whole
cold run to each figure: it measures what a frontier run keeps and how
long it takes, not one kernel's share.

A child's ``ru_maxrss`` starts at the high-water mark of the process
that spawned it (the child runs in the spawner's memory until its
``exec``), and this script's own, about 16 MB, is above a kernel run at
order 4.  So each child is spawned, timed and measured by a lean
interpreter (``LAUNCH``, about 8 MB), and the byte-compiling runs in a
process of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ab_warm import alternate, summary
from run import REFERENCES, cell_id, compare_argv as cell_argv, math_fields

#: The exact series of the orders above perfbench's, recorded as
#: perfbench/references.json records its own.
FRONTIER_REFERENCES = Path(__file__).resolve().with_name(
    "frontier_references.json")


def compiled_copy(checkout: str, into: Path) -> Path:
    """The checkout's ``src`` copied to ``into``, without its
    ``__pycache__`` directories, and byte-compiled there."""
    src = into / "src"
    shutil.copytree(Path(checkout).resolve() / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    if subprocess.run([sys.executable, "-m", "compileall", "-q",
                       str(src)]).returncode:
        raise SystemExit(f"{checkout}: a module does not compile")
    return src


def compare_argv(order: int) -> list[str]:
    """The interpreter arguments of one run."""
    return ["-m", "lmo_kernel.cli", *cell_argv("A1", 2, order)]


def reference(order: int) -> dict | None:
    """The exact series of the run at ``order``, or None where no
    reference is recorded for it."""
    refs = {**json.loads(REFERENCES.read_text()),
            **json.loads(FRONTIER_REFERENCES.read_text())}
    return refs.get(cell_id(cell_argv("A1", 2, order)))


def matches_reference(reports: list[dict | None],
                      order: int) -> bool | None:
    """Whether every report's exact series are the reference's (a failed
    run's report, None, is not), or None where no reference is recorded
    for ``order``."""
    ref = reference(order)
    return None if ref is None else all(
        r is not None and math_fields(r) == ref for r in reports)


#: Run by ``python3 -S -c`` with a child's argv: fork and exec the child,
#: and after its output print its exit code, wall seconds and
#: ``ru_maxrss`` in KB.
LAUNCH = """\
import os, sys, time
t0 = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.execv(sys.argv[1], sys.argv[1:])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
print(os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss)
"""


def cold_run(src: Path, order: int) -> tuple[float, float, dict | None]:
    """(wall seconds, peak MB, report or None) of one fresh-process
    ``compare`` of the kernel under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-S", "-c", LAUNCH,
                           sys.executable, *compare_argv(order)],
                          stdout=subprocess.PIPE, env=env, check=True)
    *out, last = proc.stdout.decode().splitlines()
    code, wall, maxrss = last.split()
    report = json.loads("\n".join(out)) if code == "0" else None
    return float(wall), int(maxrss) / 1024, report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="ab_frontier.py")
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--order", type=int, default=6)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ab_frontier_") as tmp:
        srcs = {side: compiled_copy(getattr(args, side), Path(tmp) / side)
                for side in ("old", "new")}
        runs = alternate(args.rounds, lambda side, n: cold_run(
            srcs[side], args.order))
    reports = [r for side in runs.values() for _, _, r in side]
    failed = reports.count(None)
    equal = not failed and all(r == reports[0] for r in reports)
    matches = matches_reference(reports, args.order)
    if failed:
        print(f"{failed} runs failed")
    elif not equal:
        print("the reports differ")
    elif matches is False:
        print("the reports differ from the reference")
    result: dict = {"order": args.order, "rounds": args.rounds,
                    "failed_runs": failed, "reports_equal": equal,
                    "reference": matches}
    for i, (name, unit) in enumerate((("wall", "s"), ("peak_rss", "MB"))):
        result[name] = summary(name, {side: [run[i] for run in rs]
                                      for side, rs in runs.items()},
                               unit, "runs")
    if equal:
        result.update(routes_equal=reports[0]["routes_equal"],
                      equal=reports[0]["equal"])
    print(json.dumps(result))
    return 0 if equal and matches is not False else 1


if __name__ == "__main__":
    sys.exit(main())
