"""Interleaved A/B of a cold frontier run, one fresh process per run:

    python3 tools/ab_frontier.py OLD NEW [--rounds N] [--order K]

OLD and NEW are checkouts, each a directory holding ``src/lmo_kernel``.
Each round runs ``compare --lie A1 --framing 2 --order K`` (default 6)
once per checkout, each run a fresh ``python3 -m lmo_kernel.cli`` with
that checkout's ``src`` on ``PYTHONPATH``; the first checkout of each
round alternates.  Every report must equal every other.  The script
prints each side's median wall time of a run, measured around the child
process, and its median peak resident set (the child's ``ru_maxrss``),
with their interquartile ranges and the ratios NEW / OLD of the medians,
as ``tools/ab_cold.py`` prints them, then one JSON line with the same
figures and the report's ``routes_equal`` and ``equal``.  A ratio counts
only when the two medians differ by more than that spread.  It exits 1
if a run failed or two reports differ.

Unlike the other two tools, it adds interpreter start-up and the whole
cold run to each figure: it measures what a frontier run keeps and how
long it takes, not one kernel's share.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from ab_warm import alternate, summary


def cold_run(checkout: str, order: int) -> tuple[float, float, dict | None]:
    """(wall seconds, peak MB, report or None) of one fresh-process
    ``compare`` of the checkout's kernel."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(checkout).resolve() / "src"))
    argv = [sys.executable, "-m", "lmo_kernel.cli", "compare", "--lie",
            "A1", "--framing", "2", "--order", str(order)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env)
    out = proc.stdout.read()
    proc.stdout.close()
    # wait4 gives this child's own rusage, not the largest child's so far
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = json.loads(out) if proc.returncode == 0 else None
    return wall, usage.ru_maxrss / 1024, report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="ab_frontier.py")
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--order", type=int, default=6)
    args = ap.parse_args(argv)
    runs = alternate(args.rounds, lambda side, n: cold_run(
        getattr(args, side), args.order))
    reports = [r for side in runs.values() for _, _, r in side]
    failed = reports.count(None)
    equal = not failed and all(r == reports[0] for r in reports)
    if failed:
        print(f"{failed} runs failed")
    elif not equal:
        print("the reports differ")
    result: dict = {"order": args.order, "rounds": args.rounds,
                    "failed_runs": failed, "reports_equal": equal}
    for i, (name, unit) in enumerate((("wall", "s"), ("peak_rss", "MB"))):
        result[name] = summary(name, {side: [run[i] for run in rs]
                                      for side, rs in runs.items()},
                               unit, "runs")
    if equal:
        result.update(routes_equal=reports[0]["routes_equal"],
                      equal=reports[0]["equal"])
    print(json.dumps(result))
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
