"""Processor-speed samples taken inside a benchmark process.

The benchmark shares a host whose processor speed drifts by up to a
quarter over tens of seconds, as the other work on the host comes and goes.
A pure-Python loop of fixed work (``chunk``) is timed every ``PERIOD_S``
seconds of wall time, from a ``SIGALRM`` handler in the measured thread
itself, so the samples come from the same core and the same stretch of time
as the kernel's own work.  The runner multiplies a measured time, less the
time spent in the samples, by ``(REF_CHUNK_S / m) ** SPEED_EXPONENT``, with
``m`` the median sample of the same process and window: the time the work
would take at the processor speed where the chunk runs in ``REF_CHUNK_S``
seconds.

The kernel's time follows the chunk's less than in proportion: part of it
waits on memory, which a faster core does not shorten.  Across runs of
the benchmark, log kernel time against log chunk time had slope 0.62
(cold cells, correlation 0.97) and 0.81 (warm passes, 0.98);
``SPEED_EXPONENT`` is that slope, one value for both workloads.

The chunk does the kind of arithmetic the kernel does (products of
series held in tuple-keyed dicts, ``Fraction`` sums with large
denominators), runs with the garbage collector off, and touches a working
set of a few kilobytes, so that the kernel's heap changes its time little.
It calls only the standard library: a change to the kernel cannot change
it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.1
# median chunk time on the 2-core x86-64 box the bounds were set on
# (Python 3.11); it sets only the scale of the reported times
REF_CHUNK_S = 1.8e-3
SPEED_EXPONENT = 0.7


def chunk() -> tuple[dict, Fraction]:
    """The product of two small series with rational coefficients, held in
    dicts keyed by (degree, class) tuples, and a sum of rationals whose
    denominators grow to a few thousand bits."""
    a = {(i, i % 3): Fraction(i + 1, i % 5 + 2) for i in range(14)}
    product: dict[tuple[int, int], Fraction] = {}
    for (i, p), x in a.items():
        for (k, q), y in a.items():
            key = (i + k, (p + q) % 3)
            product[key] = product.get(key, 0) + x * y
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i * 1000003 + 1, i * i * 999983 + 7)
    return product, total


class Speedometer:
    """Times ``chunk`` every ``PERIOD_S`` seconds while started."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        chunk()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def since(self, mark: tuple[int, float] = (0, 0.0)) -> dict:
        """The samples taken since ``mark``: their median, the seconds
        they took, and their number."""
        samples = self.samples[mark[0]:]
        return {"median_s": statistics.median(samples) if samples else None,
                "spent_s": self.spent - mark[1], "samples": len(samples)}


def unsampled(seconds: float, speed: dict | None):
    """``seconds`` measured over a window with samples ``speed`` (the
    output of ``Speedometer.since``), less the time the samples took, and
    the samples' median (None without samples)."""
    if not speed:
        return seconds, None
    return seconds - speed["spent_s"], speed["median_s"]


def scaled(seconds: float, median_s: float | None) -> float:
    """``seconds`` at the reference processor speed, given the median
    sample of the same window; as it is without samples (a traced or
    failed process)."""
    if not median_s:
        return seconds
    return seconds * (REF_CHUNK_S / median_s) ** SPEED_EXPONENT
