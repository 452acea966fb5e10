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
entries are wrapped too), then for the framing-polynomial reads (each
kernel's ``at_framing``, wrapped in every module that binds it, and
counted), and last one JSON line with all of them (keys ``old_s``,
``verify_old_s``, ``compare_old_s``, ``definition_old_s``,
``definition_ratio``, ``theta_old_s``, ``theta_ratio``,
``framing_old_s``, ``framing_ratio`` and so on, and ``framing_calls``,
each kernel's reads in one pass).  Every wrapped function is put back
after the timed passes.  A change to one kind of cell, one route, one
suite or the reads moves only its own figures; in the whole pass the
rest's spread blurs it.  A ratio counts only when the two medians differ
by more than that spread.  It exits 1 if a fill cell failed, or if the
passes of one kernel made different numbers of reads: with every cache
full, a pass repeats the one before.

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
#: (``ROUTES``), the suites of the ``verify`` cell and the framing reads.
PARTS = ("", "verify", "compare")

#: The routes of a ``compare`` cell, each under the name of its function
#: in ``pipeline``.
ROUTES = {"definition": "lmo_via_definition", "lemma": "lmo_via_lemma",
          "taupg": "taupg_route"}

#: The modules of a kernel that bind ``qseries.at_framing``, the one
#: reader of both sides' framing polynomials.
FRAMING_MODULES = ("qseries", "pipeline", "rootsys", "liews")


def time_calls(tables: list[dict], names: dict[str, str], undo: list
               ) -> dict[str, float]:
    """Wrap each function ``tables[0][names[part]]`` in a timer, in every
    table that binds it; the returned clock maps each part, in order, to
    the seconds its calls add up to, and ``{part}_calls`` to their
    number.  ``undo`` gains each (table, name, function) to put back."""
    clock = dict.fromkeys(names, 0.0)
    clock.update({f"{part}_calls": 0 for part in names})

    def timed(part, fn):
        def run(*args, **kwargs):
            t = time.perf_counter()
            out = fn(*args, **kwargs)
            clock[part] += time.perf_counter() - t
            clock[f"{part}_calls"] += 1
            return out
        return run

    for part, name in names.items():
        fn = tables[0][name]
        run = timed(part, fn)
        for table in tables:
            if table.get(name) is fn:
                undo.append((table, name, fn))
                table[name] = run
    return clock


def time_kernel(cli, undo: list) -> tuple[dict[str, float], ...]:
    """The clocks of the kernel of ``cli``: its ``compare`` routes, which
    ``compare`` looks up in the module ``pipeline``, its verify suites
    and its framing reads."""
    def module(name):
        return sys.modules[f"{cli.__package__}.{name}"]

    pipeline = module("pipeline")
    return (time_calls([vars(pipeline)], ROUTES, undo),
            time_calls([pipeline._SUITES],
                       {name: name for name in pipeline._SUITES}, undo),
            time_calls([vars(module(name)) for name in FRAMING_MODULES],
                       {"framing": "at_framing"}, undo))


def timed_pass(cli, order: list[int], clocks: tuple[dict[str, float], ...]
               ) -> dict[str, float]:
    """The seconds of one pass over the cells in ``order``, of its cells
    of each subcommand, under the names of ``PARTS``, and of each part
    that ``clocks`` times."""
    out = dict.fromkeys(PARTS, 0.0)
    for clock in clocks:
        clock.update(dict.fromkeys(clock, 0))
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


def alternate(rounds: int, run) -> dict[str, list]:
    """``run(side, n)`` for both sides in each round n, OLD first in the
    even rounds and NEW first in the odd ones: each side's results in
    round order."""
    out: dict[str, list] = {"old": [], "new": []}
    for n in range(rounds):
        for side in (("old", "new") if n % 2 == 0 else ("new", "old")):
            out[side].append(run(side, n))
    return out


def summary(what: str, samples: dict[str, list[float]], unit: str = "s",
            runs: str = "passes") -> dict[str, float]:
    """Print each side's median of ``samples`` and the interquartile range
    of its samples, then the ratio NEW / OLD of the medians; the same
    figures as ``old_{u}``, ``new_{u}``, ``ratio``, ``old_iqr_{u}`` and
    ``new_iqr_{u}``, u the unit in lower case."""
    median = {side: statistics.median(xs) for side, xs in samples.items()}
    spread = {side: iqr(xs) for side, xs in samples.items()}
    for side in ("old", "new"):
        print(f"{what} {side}: median {median[side]:.4f} {unit}, "
              f"interquartile range {spread[side]:.4f} {unit} over "
              f"{len(samples[side])} {runs}")
    ratio = median["new"] / median["old"]
    print(f"{what} ratio new/old: {ratio:.3f}")
    u = unit.lower()
    return {f"old_{u}": median["old"], f"new_{u}": median["new"],
            "ratio": ratio, f"old_iqr_{u}": spread["old"],
            f"new_iqr_{u}": spread["new"]}


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
    undo: list = []
    clocks = {side: time_kernel(cli, undo) for side, cli in clis.items()}
    # the suites both kernels run, in the old kernel's order
    suites = [sys.modules[f"{cli.__package__}.pipeline"]._SUITES
              for cli in clis.values()]
    shared = [name for name in suites[0] if name in suites[1]]
    rng = random.Random(args.seed)
    order = list(range(len(WARM_CELLS)))
    orders = []
    for _ in range(args.passes):
        rng.shuffle(order)
        orders.append(order[:])
    try:
        times = alternate(args.passes, lambda side, n: timed_pass(
            clis[side], orders[n], clocks[side]))
    finally:
        for table, name, fn in undo:
            table[name] = fn
    calls, uneven = {}, False
    for side, ts in times.items():
        counts = sorted({t["framing_calls"] for t in ts})
        if len(counts) > 1:
            uneven = True
            print(f"{side}: the passes read framing polynomials "
                  f"{counts} times")
        calls[side] = counts[0]
    result = {}
    for part in (*PARTS, *ROUTES, *shared, "framing"):
        what = ("pass" if not part else f"{part} route" if part in ROUTES
                else f"{part} suite" if part in shared
                else "framing reads" if part == "framing"
                else f"{part} cells")
        key = f"{part}_" if part else ""
        figures = summary(what, {side: [t[part] for t in ts]
                                 for side, ts in times.items()})
        result.update({key + name: x for name, x in figures.items()})
    print(f"framing reads per pass: old {calls['old']}, new {calls['new']}")
    print(json.dumps({**result, "framing_calls": calls,
                      "passes": args.passes, "failed_fill_cells": failed}))
    return 1 if failed or uneven else 0


if __name__ == "__main__":
    sys.exit(main())
