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
medians, then the same three figures for each pass's ``verify`` cell
and for its ``compare`` cells apart, then for each route of the
``compare`` cells (each kernel's ``pipeline.lmo_via_definition``,
``lmo_via_lemma`` and ``taupg_route`` are wrapped in a timer), then for
each suite of the ``verify`` cell (each kernel's ``pipeline._SUITES``
entries are wrapped too), and last one JSON line with all of them (keys
``old_s``, ``verify_old_s``, ``compare_old_s``, ``definition_old_s``,
``definition_ratio``, ``theta_old_s``, ``theta_ratio`` and so on).  A
change to one kind of cell, one route or one suite moves only its own
figures; in the whole pass the rest's spread blurs it.  A ratio counts
only when the two medians differ by more than that spread.  It
exits 1 if a fill cell failed.

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


#: The parts of a pass timed apart: the whole pass, and its cells of each
#: subcommand; ``time_calls`` times the routes of the ``compare`` cells
#: (``ROUTES``) and the suites of the ``verify`` cell.
PARTS = ("", "verify", "compare")

#: The routes of a ``compare`` cell, each under the name of its function
#: in ``pipeline``.
ROUTES = {"definition": "lmo_via_definition", "lemma": "lmo_via_lemma",
          "taupg": "taupg_route"}


def time_calls(table: dict, names: dict[str, str]) -> dict[str, float]:
    """Wrap each function ``table[names[part]]`` in a timer; the returned
    clock maps each part, in order, to the seconds its calls add up
    to."""
    clock = dict.fromkeys(names, 0.0)

    def timed(part, fn):
        def run(*args, **kwargs):
            t = time.perf_counter()
            out = fn(*args, **kwargs)
            clock[part] += time.perf_counter() - t
            return out
        return run

    for part, name in names.items():
        table[name] = timed(part, table[name])
    return clock


def time_kernel(cli) -> tuple[dict[str, float], dict[str, float]]:
    """The clocks of the kernel of ``cli``: its ``compare`` routes, which
    ``compare`` looks up in the module ``pipeline``, and its verify
    suites."""
    pipeline = sys.modules[cli.__package__ + ".pipeline"]
    return (time_calls(vars(pipeline), ROUTES),
            time_calls(pipeline._SUITES,
                       {name: name for name in pipeline._SUITES}))


def timed_pass(cli, order: list[int], clocks: tuple[dict[str, float], ...]
               ) -> dict[str, float]:
    """The seconds of one pass over the cells in ``order``, of its cells
    of each subcommand, under the names of ``PARTS``, and of each part
    that ``clocks`` times."""
    out = dict.fromkeys(PARTS, 0.0)
    for clock in clocks:
        clock.update(dict.fromkeys(clock, 0.0))
    t0 = time.perf_counter()
    for i in order:
        t = time.perf_counter()
        run_cli(cli, WARM_CELLS[i])
        out[WARM_CELLS[i][0]] += time.perf_counter() - t
    out[""] = time.perf_counter() - t0
    for clock in clocks:
        out.update(clock)
    return out


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
    clocks = {side: time_kernel(cli) for side, cli in clis.items()}
    # the suites both kernels run, in the old kernel's order
    shared = [name for name in clocks["old"][1] if name in clocks["new"][1]]
    rng = random.Random(args.seed)
    order = list(range(len(WARM_CELLS)))
    times: dict[str, list[dict[str, float]]] = {"old": [], "new": []}
    for n in range(args.passes):
        rng.shuffle(order)
        for side in (("old", "new") if n % 2 == 0 else ("new", "old")):
            times[side].append(timed_pass(clis[side], order, clocks[side]))
    result = {}
    for part in (*PARTS, *ROUTES, *shared):
        what = ("pass" if not part else f"{part} route" if part in ROUTES
                else f"{part} suite" if part in shared else f"{part} cells")
        key = f"{part}_" if part else ""
        median = {side: statistics.median(t[part] for t in ts)
                  for side, ts in times.items()}
        spread = {side: iqr([t[part] for t in ts])
                  for side, ts in times.items()}
        for side in ("old", "new"):
            print(f"{side}: median {what} {median[side]:.4f} s, "
                  f"interquartile range {spread[side]:.4f} s over "
                  f"{args.passes} passes")
        old, new = median["old"], median["new"]
        print(f"{what} ratio new/old: {new / old:.3f}")
        result.update({f"{key}old_s": old, f"{key}new_s": new,
                       f"{key}ratio": new / old,
                       f"{key}old_iqr_s": spread["old"],
                       f"{key}new_iqr_s": spread["new"]})
    print(json.dumps({**result, "passes": args.passes,
                      "failed_fill_cells": failed}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
