"""Interleaved A/B timing of the warm sweep's cells, both kernels in one
interpreter:

    python3 tools/ab_warm.py OLD NEW [--passes N] [--seed S]

OLD and NEW are checkouts, each a directory holding ``src/lmo_kernel``.
Both kernels are loaded into this process under distinct package names.
Each runs one fill pass over ``WARM_CELLS`` of perfbench/run.py through
its own ``cli.main``, and every cell of that pass is checked with
perfbench's ``check_cell`` against perfbench/references.json.  Then the
two kernels alternate timed passes over the same cells, in one shuffled
cell order per round and with the first kernel of each round alternating,
N passes each.  The script prints each kernel's median pass time, the
interquartile range of its pass times and the ratio NEW / OLD of the
medians, then one JSON line with the same figures.  A ratio counts only
when the two medians differ by more than that spread.  It exits 1 if a
fill cell failed.

Two benchmark processes see different machine states, so their times
can spread more widely than a change moves them; interleaved passes in
one process share the state.  The script reads perfbench/ of the
checkout it sits in and writes nothing there.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import random
import statistics
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
sys.path.insert(0, str(PERFBENCH))

from run import REFERENCES, WARM_CELLS, check_cell  # noqa: E402
from worker import run_cli  # noqa: E402


def load_cli(name: str, checkout: str):
    """The ``cli`` module of the checkout's kernel, loaded as package
    ``name``: the kernel's imports are relative, so two checkouts load
    side by side."""
    pkg = Path(checkout).resolve() / "src" / "lmo_kernel"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    if spec is None:
        raise SystemExit(f"no lmo_kernel package under {checkout}")
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def timed_pass(cli, order: list[int]) -> float:
    t0 = time.perf_counter()
    for i in order:
        run_cli(cli, WARM_CELLS[i])
    return time.perf_counter() - t0


def iqr(xs: list[float]) -> float:
    """The distance between the quartiles; 0 for one pass."""
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q3 - q1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="ab_warm.py")
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--passes", type=int, default=10,
                    help="timed passes per kernel")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    refs = json.loads(REFERENCES.read_text())
    clis = {"old": load_cli("ab_old_kernel", args.old),
            "new": load_cli("ab_new_kernel", args.new)}
    failed = 0
    for side, cli in clis.items():
        for argv_ in WARM_CELLS:
            why = check_cell(run_cli(cli, argv_), refs)
            if why is not None:
                failed += 1
                print(f"{side}: {' '.join(argv_)}: {why}")
    rng = random.Random(args.seed)
    order = list(range(len(WARM_CELLS)))
    times: dict[str, list[float]] = {"old": [], "new": []}
    for n in range(args.passes):
        rng.shuffle(order)
        for side in (("old", "new") if n % 2 == 0 else ("new", "old")):
            times[side].append(timed_pass(clis[side], order))
    median = {side: statistics.median(ts) for side, ts in times.items()}
    spread = {side: iqr(ts) for side, ts in times.items()}
    for side in ("old", "new"):
        print(f"{side}: median pass {median[side]:.4f} s, interquartile "
              f"range {spread[side]:.4f} s over {args.passes} passes")
    old, new = median["old"], median["new"]
    print(f"ratio new/old: {new / old:.3f}")
    print(json.dumps({"old_s": old, "new_s": new, "ratio": new / old,
                      "old_iqr_s": spread["old"], "new_iqr_s": spread["new"],
                      "passes": args.passes, "failed_fill_cells": failed}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
