"""Interleaved A/B timing of the two cache-miss kernels of a cold run,
both kernels in one interpreter:

    python3 tools/ab_cold.py OLD NEW [--rounds N]

OLD and NEW are checkouts, each a directory holding ``src/lmo_kernel``;
both load side by side as ``tools/ab_warm.py`` loads them.  Each runs the
cells of a cold benchmark round, ``compare --lie A1 --order 4`` and
``verify --suite all --order 4``, once through its own ``cli.main``,
each report checked with perfbench's ``check_cell`` against
perfbench/references.json.  OLD's run records every component shape that
``diagrams._canon_component`` searches and every diagram that
``liews.contract_diagram`` contracts (with the sl_n it is weighed at).
Both kernels replay the records, and every search and contraction must
give the same result on both.  Then the kernels alternate timed replays,
the first kernel of each round alternating, N rounds each: one replay
searches every shape, another contracts every diagram.  The script
prints each kernel's median replay time, the interquartile range of its
replay times and the ratio NEW / OLD of the medians, per kernel, then one
JSON line with the same figures.  A ratio counts only when the two
medians differ by more than that spread.  It exits 1 if a cell failed or
a result differed.

Fresh processes of identical code can differ by more than a change moves
the cold cells; replays in one process share the machine state.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import sys
import time

# ab_warm also puts perfbench/ on the path
from ab_warm import alternate, load_cli, summary
from run import REFERENCES, VERIFY_ARGV, check_cell, compare_argv  # noqa: E402
from worker import run_cli  # noqa: E402

COLD_CELLS = [compare_argv("A1", 2, 4), VERIFY_ARGV]
KERNELS = ("search", "contract")


class Kernel:
    """The two cache-miss kernels of one loaded checkout."""

    def __init__(self, name: str, checkout: str):
        self.cli = load_cli(name, checkout)
        self.diagrams = importlib.import_module(f"{name}.diagrams")
        self.liews = importlib.import_module(f"{name}.liews")

    def record(self, argv: list[str], refs: dict, side: str
               ) -> tuple[str | None, list, list]:
        """Run one cell, recording the shapes searched and the diagrams
        contracted: (why the cell failed or None, shapes, (t, m, edges,
        n) per diagram)."""
        shapes, forms = [], []
        search, contract = (self.diagrams._canon_component,
                            self.liews.contract_diagram)

        def recorded_search(shape):
            shapes.append(shape)
            return search(shape)

        def recorded_contract(d, g):
            forms.append((d.t, d.m, d.edges, g.sl_n))
            return contract(d, g)

        self.diagrams._canon_component = recorded_search
        self.liews.contract_diagram = recorded_contract
        try:
            why = check_cell(run_cli(self.cli, argv), refs)
        finally:
            self.diagrams._canon_component = search
            self.liews.contract_diagram = contract
        if why is not None:
            print(f"{side}: {' '.join(argv)}: {why}")
        return why, shapes, forms

    def replays(self, shapes: list, forms: list) -> dict:
        """The replay of each kernel, as a function of no argument."""
        search, contract = (self.diagrams._canon_component,
                            self.liews.contract_diagram)
        diagrams = [(self.diagrams.JacobiDiagram(t, m, edges),
                     self.liews.build_sl(n)) for t, m, edges, n in forms]
        return {"search": lambda: [search(s) for s in shapes],
                "contract": lambda: [contract(d, g) for d, g in diagrams]}


def timed(replay) -> float:
    gc.collect()
    t0 = time.perf_counter()
    replay()
    return time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="ab_cold.py")
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--rounds", type=int, default=20,
                    help="timed replays of each kernel per side")
    args = ap.parse_args(argv)
    refs = json.loads(REFERENCES.read_text())
    # every cell of a cold round runs in a fresh interpreter: here each
    # runs in a fresh load of each kernel, OLD's load recording its work
    failed, shapes, forms = 0, [], []
    for i, argv in enumerate(COLD_CELLS):
        for side in ("old", "new"):
            checkout = getattr(args, side)
            why, met, contracted = Kernel(f"ab_{side}_cell{i}",
                                          checkout).record(argv, refs, side)
            failed += why is not None
            if side == "old":
                shapes += met
                forms += contracted
    sides = {"old": Kernel("ab_old_kernel", args.old),
             "new": Kernel("ab_new_kernel", args.new)}
    replays = {side: k.replays(shapes, forms) for side, k in sides.items()}
    differed = {kernel: sum(a != b for a, b in zip(
        replays["old"][kernel](), replays["new"][kernel]()))
        for kernel in KERNELS}
    for kernel, n in differed.items():
        if n:
            print(f"{kernel}: {n} results differ")
    times = alternate(args.rounds, lambda side, n: {
        kernel: timed(replays[side][kernel]) for kernel in KERNELS})
    result: dict = {"rounds": args.rounds, "shapes": len(shapes),
                    "forms": len(forms), "failed_cells": failed,
                    "differing_results": sum(differed.values())}
    for kernel in KERNELS:
        result[kernel] = summary(
            f"{kernel} replay", {side: [t[kernel] for t in ts]
                                 for side, ts in times.items()},
            runs="replays")
    print(json.dumps(result))
    return 1 if failed or result["differing_results"] else 0


if __name__ == "__main__":
    sys.exit(main())
