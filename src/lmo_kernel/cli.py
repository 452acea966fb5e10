"""Command line interface.

Subcommands:
    compute  -- surgery invariant of a framed knot through one or both routes
    taupg    -- perturbative invariant from expansion data
    compare  -- both sides of the main equality, as a JSON report
    verify   -- run named identity suites

Exit code is 0 iff every check requested by the invocation passed; a
knot or expansion-data file that cannot be read or parsed, framing 0, a
file knot without ``--qdata`` for the perturbative side, order 0, a
``verify`` order below 1, or an input the kernel rejects (structural,
series, Lie-data or root-system error), prints one JSON line
``{"error": ...}`` to stderr and exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .diagrams import StructuralError
from .liews import LieDataError
from .pipeline import (
    _SUITES,
    LIE_LABELS,
    ComparisonReport,
    InputError,
    SurgeryInput,
    compare,
    lmo_via_definition,
    lmo_via_lemma,
    load_qdata,
    taupg_route,
    verify_suite,
)
from .qseries import SeriesError
from .rootsys import RootSystemError

_SUITE_CHOICES = ("all", *_SUITES)


def _write(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=2)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _surgery_args(p: argparse.ArgumentParser, qdata: bool = False) -> None:
    p.add_argument("--knot", default="unknot",
                   help="'unknot' or path to a diagram-series JSON file")
    p.add_argument("--framing", type=int, required=True)
    p.add_argument("--lie", choices=LIE_LABELS, required=True)
    p.add_argument("--order", type=int, required=True,
                   help="h-order (series are run at imax = 2*order)")
    p.add_argument("--valid-degree", type=int, default=None,
                   help="certified h-order of a file input")
    if qdata:
        p.add_argument("--qdata", default=None,
                       help="expansion-data JSON for a file knot")
    p.add_argument("--out", default=None, help="write JSON here")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="lmo-kernel")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="surgery invariant of a framed knot")
    _surgery_args(p)
    p.add_argument("--route", choices=("definition", "lemma", "both"),
                   default="both")

    p = sub.add_parser("taupg", help="perturbative invariant")
    _surgery_args(p, qdata=True)

    p = sub.add_parser("compare", help="main-equality comparison report")
    _surgery_args(p, qdata=True)

    p = sub.add_parser("verify", help="identity suites")
    p.add_argument("--suite", choices=_SUITE_CHOICES, default="all")
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--out", default=None)

    args = ap.parse_args(argv)
    try:
        return _run(args)
    except (InputError, StructuralError, SeriesError, LieDataError,
            RootSystemError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    if args.command == "verify":
        if args.order < 1:
            raise InputError(f"verify needs --order >= 1, got {args.order}")
        results = verify_suite(args.suite, args.order)
        ok = all(r.passed for r in results)
        _write({"suite": args.suite, "order": args.order,
                "checks": [r.to_json() for r in results], "passed": ok},
               args.out)
        return 0 if ok else 1

    # Negative orders are not rejected yet: `compare --order -1` never
    # returns (the Neumann loop of wheeling_inverse), and the hang fixture
    # of perfbench/test_perfbench.py relies on that.
    if args.order == 0:
        raise InputError(f"{args.command} needs a nonzero --order, got 0")
    inp = SurgeryInput(args.knot, args.framing,
                       declared_valid_degree=args.valid_degree)

    if args.command == "compute":
        routes: dict[str, object] = {}
        ok = True
        if args.route in ("definition", "both"):
            routes["definition"] = lmo_via_definition(inp, args.lie,
                                                      args.order)
        if args.route in ("lemma", "both"):
            routes["lemma"] = lmo_via_lemma(inp, args.lie, args.order)
        obj = {"knot": inp.knot, "framing": inp.framing, "lie": args.lie,
               "order": args.order,
               "routes": {k: v.to_json() for k, v in routes.items()}}
        if args.route == "both":
            ok = routes["definition"] == routes["lemma"]
            obj["routes_equal"] = ok
        _write(obj, args.out)
        return 0 if ok else 1

    if args.command == "taupg":
        qdata = None if args.qdata is None else load_qdata(args.qdata)
        series = taupg_route(inp, args.lie, args.order, qdata)
        _write({"knot": inp.knot, "framing": inp.framing, "lie": args.lie,
                "order": args.order, "taupg": series.to_json()}, args.out)
        return 0

    report: ComparisonReport = compare(inp, args.lie, args.order, args.qdata)
    _write(report.to_json(), args.out)
    if report.lmo_only:
        return 0 if report.routes_equal else 1
    return 0 if (report.routes_equal and report.equal) else 1


if __name__ == "__main__":
    sys.exit(main())
