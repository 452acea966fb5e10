"""Child process of the benchmark: one cold cell or one warm sweep.  It
prints a single JSON object as the last line of stdout.

    python3 perfbench/worker.py cell --lie A1 [--trace-out F] -- <cli args>
    python3 perfbench/worker.py sweep --seed N --seconds S --cells JSON
                                     [--trace-out F]

A cold cell first builds the Lie data of each ``--lie`` label (its
set-up); without CLI arguments it stops there, as a set-up probe.

Every cell goes through ``lmo_kernel.cli.main`` with its CLI arguments,
its JSON report captured from stdout.  An untraced process samples the
processor speed while it runs (perfbench/speed.py) and reports the samples
of each timed window next to its raw times.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import Speedometer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# timed passes of a warm sweep, at least; more fit in ``--seconds`` once
# a pass is fast
MIN_PASSES = 3


def import_kernel():
    """Import the kernel from this checkout's sources; seconds taken."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import lmo_kernel
    import lmo_kernel.cli  # noqa: F401
    elapsed = time.perf_counter() - t0
    if not Path(lmo_kernel.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"lmo_kernel imported from {lmo_kernel.__file__}, "
                         f"not from {SRC}")
    return lmo_kernel, elapsed


def run_cli(cli, argv: list[str]) -> dict:
    """Run one cell in this process: wall time, exit code, report text,
    and the traceback if it raised."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    rc, error = None, None
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        error = traceback.format_exc()
    return {"argv": argv, "seconds": time.perf_counter() - t0, "rc": rc,
            "output": buf.getvalue(), "error": error}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def make_tracer(trace_out: str | None):
    if trace_out is None:
        return None
    from tracer import Tracer  # only traced runs pay for its import
    return Tracer()


def start_speedometer(tracer) -> Speedometer | None:
    """Speed samples for an untraced process; a traced one takes none, so
    that no sample falls inside a span."""
    if tracer is not None:
        return None
    meter = Speedometer()
    meter.start()
    return meter


def speed_since(meter: Speedometer | None, mark=(0, 0.0)) -> dict | None:
    return None if meter is None else meter.since(mark)


def finish_trace(tracer, trace_out: str | None, import_s: float):
    if tracer is None:
        return None
    tracer.uninstall()
    tracer.write_spans(Path(trace_out))
    layers = tracer.layer_metrics()
    layers["cli.import_s"] = import_s
    return layers


def cmd_cell(args) -> dict:
    tracer = make_tracer(args.trace_out)
    meter = start_speedometer(tracer)
    kernel, import_s = import_kernel()
    if tracer is not None:
        tracer.install()
    for lie in args.lie:
        kernel.pipeline.lie_pair(lie)
    # less the time of any speed sample taken during the set-up
    setup_s = time.perf_counter() - T_START - (meter.spent if meter else 0)
    cell = run_cli(kernel.cli, args.cli_args) if args.cli_args else None
    if meter is not None:
        meter.stop()
    return {"setup_s": setup_s, "speed": speed_since(meter),
            "import_s": import_s, "cell": cell,
            "peak_rss_mb": peak_rss_mb(),
            "layers": finish_trace(tracer, args.trace_out, import_s)}


def cmd_sweep(args) -> dict:
    """Fill pass over every cell, then timed passes until ``--seconds``
    have elapsed (at least MIN_PASSES).  A traced sweep traces the fill
    pass and runs exactly two timed passes, the first untraced and the
    second traced, whose wall-time ratio is the tracing overhead."""
    tracer = make_tracer(args.trace_out)
    kernel, import_s = import_kernel()
    cells = json.loads(args.cells)
    rng = random.Random(args.seed)
    order = list(range(len(cells)))
    meter = start_speedometer(tracer)

    def one_pass() -> tuple[float, list[dict], dict | None]:
        rng.shuffle(order)
        mark = meter.mark() if meter is not None else None
        t0 = time.perf_counter()
        out = [run_cli(kernel.cli, cells[i]) for i in order]
        return time.perf_counter() - t0, out, speed_since(meter, mark)

    if tracer is not None:
        tracer.install()
    fill_s, fill, fill_speed = one_pass()
    passes = []
    if tracer is not None:
        tracer.uninstall()
        passes.append(one_pass())
        tracer.install()
        passes.append(one_pass())
    else:
        t0 = time.perf_counter()
        while (len(passes) < MIN_PASSES
               or time.perf_counter() - t0 < args.seconds):
            passes.append(one_pass())
        meter.stop()
    return {"import_s": import_s, "fill_s": fill_s, "fill_speed": fill_speed,
            "fill": fill,
            "passes": [{"seconds": s, "cells": c, "speed": v}
                       for s, c, v in passes],
            "peak_rss_mb": peak_rss_mb(),
            "layers": finish_trace(tracer, args.trace_out, import_s)}


def main() -> int:
    ap = argparse.ArgumentParser(prog="worker.py")
    sub = ap.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("cell")
    p.add_argument("--lie", action="append", required=True,
                   help="Lie data built as set-up before the cell")
    p.add_argument("--trace-out", default=None)
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    p = sub.add_parser("sweep")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--cells", required=True)
    p.add_argument("--trace-out", default=None)
    args = ap.parse_args()
    if args.mode == "cell" and args.cli_args[:1] == ["--"]:
        args.cli_args = args.cli_args[1:]
    result = (cmd_cell if args.mode == "cell" else cmd_sweep)(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
