"""Benchmark of the lmo-kernel command line: cold cells and a warm sweep.

    python3 perfbench/run.py --workload cold-o4 --seed 1 --seconds 12 --trace 0

Workloads (why each exists: perfbench/README.md):

  cold-o4     rounds of two cells, each in a fresh interpreter:
              ``compare`` A1 at order 4 and ``verify --suite all --order 4``;
              the cost is the cache-miss search of ``canonicalize``.
  warm-sweep  one interpreter: a fill pass over the 40 ``compare`` cells
              of the A1/A2/A3 matrix plus ``verify --suite all --order 4``,
              then timed passes over the same cells with every cache full.

The seed draws the framing of each cold ``compare`` cell and the cell
order of every round and pass.  Every cell's report is checked exactly against
perfbench/references.json (recorded with perfbench/record_references.py);
a nonzero exit, a traceback, a timeout, a false ``routes_equal`` /
``equal`` / ``passed`` or any differing series coefficient counts as a
failed cell.  The last stdout line is the JSON result; ``--trace 1``
reports the per-layer metrics of perfbench/tracer.py instead of the
end-to-end ones.

End-to-end times are scaled to a reference processor speed with the speed
samples each process takes while it works (perfbench/speed.py), because
the shared host's speed drifts by more than the bounds between runs; the
lines before the result print each time also as measured ("raw").
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import scaled, unsampled
from tracer import layer_unit, merge_layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCES = HERE / "references.json"
TRACE_DIR = ROOT / ".perfbench-traces"

FRAMINGS = (1, -1, 2, -2, 3)
SERIES_FIELDS = ("lmo_definition", "lmo_lemma", "taupg", "difference")
# a run must end within 180 s; cells are killed when this budget is spent
RUN_BUDGET_S = 165.0

# fresh interpreters per cold run that only import the kernel and build the
# A1 data, so that set-up time has several samples in every run
SETUP_PROBES = 10
WORKLOADS = ("cold-o4", "warm-sweep")


def compare_argv(lie: str, framing: int, order: int) -> list[str]:
    return ["compare", "--knot", "unknot", "--framing", str(framing),
            "--lie", lie, "--order", str(order)]


VERIFY_ARGV = ["verify", "--suite", "all", "--order", "4"]
WARM_CELLS = (
    [compare_argv(lie, f, o) for lie in ("A1", "A2") for f in FRAMINGS
     for o in (2, 3, 4)]
    + [compare_argv("A3", f, o) for f in FRAMINGS for o in (2, 3)]
    + [VERIFY_ARGV])


def cell_id(argv: list[str]) -> str:
    return " ".join(argv)


def math_fields(report: dict) -> dict:
    """The part of a report the references pin: the exact series of a
    comparison, the check names of a verification."""
    if "suite" in report:
        return {"checks": sorted(c["name"] for c in report["checks"])}
    return {k: report[k] for k in SERIES_FIELDS}


def check_cell(cell: dict, refs: dict) -> str | None:
    """None if the cell's report is right, else why it is not."""
    if cell["error"]:
        return "traceback: " + cell["error"].strip().splitlines()[-1]
    if cell["rc"] != 0:
        return f"exit code {cell['rc']}"
    try:
        report = json.loads(cell["output"])
    except ValueError:
        return "report is not JSON"
    ref = refs.get(cell_id(cell["argv"]))
    if ref is None:
        return "no reference recorded for this cell"
    if "suite" in report:
        passed = {c["name"]: c["passed"] for c in report["checks"]}
        if report.get("passed") is not True:
            return "passed is not true"
        missing = [n for n in ref["checks"] if passed.get(n) is not True]
        return f"checks missing or failed: {missing}" if missing else None
    if report.get("routes_equal") is not True:
        return "routes_equal is not true"
    if report.get("equal") is not True:
        return "equal is not true"
    for k in SERIES_FIELDS:
        if report.get(k) != ref[k]:
            return f"{k} differs from the reference"
    return None


class Run:
    """Cells attempted and failed in one benchmark run."""

    def __init__(self, seed: int):
        self.seed = seed
        self.start = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []
        self.refs = json.loads(REFERENCES.read_text())

    def budget_left(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.start)

    def fail(self, what: str, why: str) -> None:
        self.failures.append(f"{what}: {why}")

    def spawn(self, args: list[str], what: str) -> tuple[float, dict | None]:
        """Run the worker in a fresh interpreter; wall time and its
        result, or None after recording why it failed."""
        env = dict(os.environ, PYTHONHASHSEED=str(self.seed))
        # cells import cached bytecode, as an installed command does; the
        # first child of a fresh checkout writes the cache
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                capture_output=True, text=True,
                timeout=max(self.budget_left(), 1.0))
        except subprocess.TimeoutExpired:
            self.fail(what, "timeout")
            return time.perf_counter() - t0, None
        wall = time.perf_counter() - t0
        out = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or "Traceback" in proc.stderr or not out:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            self.fail(what, f"worker exit code {proc.returncode} {tail[0]}")
            return wall, None
        return wall, json.loads(out[-1])

    def check(self, cell: dict) -> None:
        self.attempted += 1
        why = check_cell(cell, self.refs)
        if why is not None:
            self.fail(cell_id(cell["argv"]), why)


def trace_path(workload: str, seed: int, n: int) -> Path:
    return TRACE_DIR / f"{workload}-seed{seed}-{n}.json"


def cold_round(rng: random.Random) -> list[list[str]]:
    """The cells of one cold round, framing and order drawn from the seed."""
    cells = [compare_argv("A1", rng.choice(FRAMINGS), 4), VERIFY_ARGV]
    rng.shuffle(cells)
    return cells


def setup_labels(argv: list[str]) -> list[str]:
    """Lie labels whose data a cell builds: its set-up."""
    if argv[0] == "verify":
        return ["A1", "A2"]
    return [argv[argv.index("--lie") + 1]]


def cell_args(argv: list[str], trace_out: Path | None = None) -> list[str]:
    """Worker arguments that run ``argv`` as one cold cell."""
    extra = [a for lie in setup_labels(argv) for a in ("--lie", lie)]
    if trace_out is not None:
        extra += ["--trace-out", str(trace_out)]
    return ["cell", *extra, "--", *argv]


def run_cold(run: Run, seconds: float, trace: bool):
    """Rounds of cold cells, one fresh interpreter each, until ``seconds``
    have elapsed (at least one round).  A traced run makes exactly one
    round untraced and then the same round traced."""
    rng = random.Random(run.seed)
    # set-ups, raw times of untraced cells and their median speed samples
    setups, raw_walls, medians, rss = [], [], [], []
    for _ in range(SETUP_PROBES):
        run.attempted += 1
        _, res = run.spawn(["cell", "--lie", "A1"], "setup probe A1")
        if res is not None:
            setups.append(res["setup_s"])
    traced_walls, traced_layers = [], []
    t0 = time.perf_counter()
    while not raw_walls or (not trace and time.perf_counter() - t0 < seconds):
        cells = cold_round(rng)
        for traced in ([False, True] if trace else [False]):
            for argv in cells:
                if run.budget_left() <= 0:
                    run.attempted += 1
                    run.fail(cell_id(argv), "not started, run budget spent")
                    continue
                out = (trace_path("cold-o4", run.seed, len(traced_walls))
                       if traced else None)
                wall, res = run.spawn(cell_args(argv, out), cell_id(argv))
                if traced:
                    traced_walls.append(wall)
                else:
                    busy, median = unsampled(wall, res and res["speed"])
                    raw_walls.append(busy)
                    medians.append(median)
                if res is None:
                    run.attempted += 1
                    continue
                run.check(res["cell"])
                if traced:
                    traced_layers.append(res["layers"])
                else:
                    setups.append(res["setup_s"])
                    rss.append(res["peak_rss_mb"])
        if run.budget_left() <= 0:
            break
    layers = None
    if trace and traced_layers:
        layers = merge_layers(traced_layers)
        layers["trace.overhead_ratio"] = sum(traced_walls) / sum(raw_walls)

    # a cell is scaled by its own samples; a set-up (~50 ms), too short for
    # samples of its own, by the median sample of the run's cells
    walls = [scaled(w, m) for w, m in zip(raw_walls, medians)]
    known = [m for m in medians if m]
    run_median = statistics.median(known) if known else None

    def metrics(walls, setups):
        return {
            "cell_s": (statistics.median(walls) if walls else 0.0, "s"),
            "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
            "cells_per_s": (len(walls) / sum(walls) if walls else 0.0,
                            "1/s"),
            "peak_rss_mb": (max(rss, default=0.0), "MB"),
        }
    return (metrics(walls, [scaled(s, run_median) for s in setups]),
            metrics(raw_walls, setups), layers,
            f"{len(walls)} cells, {len(setups)} set-ups")


def run_warm(run: Run, seconds: float, trace: bool):
    extra = (["--trace-out", str(trace_path("warm-sweep", run.seed, 0))]
             if trace else [])
    _, res = run.spawn(["sweep", "--seed", str(run.seed), "--seconds",
                        str(seconds), "--cells", json.dumps(WARM_CELLS),
                        *extra], "warm sweep")
    if res is None:
        run.attempted += len(WARM_CELLS)
        failed = {"cell_s": (0.0, "s"), "setup_s": (0.0, "s"),
                  "cells_per_s": (0.0, "1/s"), "peak_rss_mb": (0.0, "MB")}
        return failed, failed, None, "sweep failed"
    for cell in res["fill"]:
        run.check(cell)
    timed = [cell for p in res["passes"] for cell in p["cells"]]
    for cell in timed:
        run.check(cell)
    raw_pass_s, pass_s = [], []
    for p in res["passes"]:
        busy, median = unsampled(p["seconds"], p["speed"])
        raw_pass_s.append(busy)
        pass_s.append(scaled(busy, median))
    fill_s, fill_median = unsampled(res["fill_s"], res["fill_speed"])
    layers = res["layers"]
    if layers is not None:
        layers["trace.overhead_ratio"] = raw_pass_s[1] / raw_pass_s[0]

    def metrics(pass_s, fill_s):
        # a warm cell's time is its pass's time over the pass's cells
        return {
            "cell_s": (statistics.median(s / len(WARM_CELLS)
                                         for s in pass_s), "s"),
            "setup_s": (fill_s, "s"),
            "cells_per_s": (len(timed) / sum(pass_s), "1/s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    note = (f"fill pass of {len(res['fill'])} cells, {len(pass_s)} timed "
            f"passes of {len(WARM_CELLS)} cells")
    return (metrics(pass_s, scaled(fill_s, fill_median)),
            metrics(raw_pass_s, fill_s), layers, note)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="run.py")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "lmo_kernel" / "__init__.py").is_file():
        print(f"no kernel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not REFERENCES.is_file():
        print(f"missing {REFERENCES}", file=sys.stderr)
        return 2
    run = Run(args.seed)
    trace = bool(args.trace)
    if args.workload == "cold-o4":
        metrics, raw, layers, note = run_cold(run, args.seconds, trace)
    else:
        metrics, raw, layers, note = run_warm(run, args.seconds, trace)
    failed = len(run.failures)
    attempted = max(run.attempted, 1)
    print(f"{args.workload} seed {args.seed}: {note}")
    for line in run.failures:
        print(f"FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit} (raw {raw[name][0]:.6g})")
    print(f"error_rate {failed / attempted:.6g} ratio "
          f"({failed} of {attempted})")
    if trace:
        out = {name: {"value": value, "unit": layer_unit(name)}
               for name, value in (layers or {}).items()}
    else:
        out = {name: {"value": value, "unit": unit}
               for name, (value, unit) in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
