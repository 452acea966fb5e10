"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of every ``lmo_kernel`` module from
outside the program.  A module-level function is replaced in *every*
``lmo_kernel`` module namespace that binds it (``canonicalize`` lives in
``diagrams``, ``balg``, ``liews`` and the package itself), so calls made
inside the program through those globals are caught too; methods are
replaced on their class.  Each call records a span ``(id, parent, name,
start_ns, end_ns)`` in memory; the spans are written out once, when the
run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

# (module, attribute path) of every traced callable; the span name is
# "<module>.<path>", with ``__mul__`` reported as ``mul``.
TARGETS = (
    ("qseries", "HSeries.__mul__"),
    ("qseries", "HSeries.exp"),
    ("qseries", "HSeries.inverse"),
    ("diagrams", "canonicalize"),
    ("diagrams", "glue_legs"),
    ("diagrams", "DiagramSeries.union"),
    ("diagrams", "DiagramSeries.exp_union"),
    ("balg", "fg_integral"),
    ("balg", "pair"),
    ("balg", "partial"),
    ("balg", "wheeling_inverse"),
    ("balg", "omega"),
    ("liews", "build_sl"),
    ("liews", "contract_diagram"),
    ("liews", "hat_weight"),
    ("liews", "wick"),
    ("liews", "exp_tensor"),
    ("liews", "gaussian_eval"),
    ("rootsys", "build_root_system"),
    ("rootsys", "quantum_dim_sq_shifted"),
    ("rootsys", "tau_pg"),
    ("rootsys", "weyl_denominator"),
    ("pipeline", "lie_pair"),
    ("pipeline", "reduced_input"),
    ("pipeline", "lmo_via_definition"),
    ("pipeline", "lmo_via_lemma"),
    ("pipeline", "taupg_route"),
    ("pipeline", "compare"),
    ("pipeline", "verify_suite"),
    ("cli", "main"),
)

# spans whose call count is reported next to their self time
COUNTED = ("qseries.HSeries.mul", "diagrams.canonicalize",
           "diagrams.glue_legs", "balg.fg_integral",
           "liews.contract_diagram", "liews.wick", "rootsys.tau_pg")


def span_name(module: str, path: str) -> str:
    return f"{module}.{path.replace('__mul__', 'mul')}"


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = [f"{span_name(m, p)}.self_s" for m, p in TARGETS]
    names += [f"{n}.calls" for n in COUNTED]
    names += ["diagrams.canonicalize.misses",
              "diagrams.canonicalize.hit_ratio",
              "diagrams.canon_cache.entries",
              "liews.weight_cache.entries",
              "cli.import_s",
              "trace.overhead_ratio"]
    return names


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".misses", ".entries")):
        return "count"
    return "ratio" if name.endswith("_ratio") else "s"


def merge_layers(runs: list[dict[str, float]]) -> dict[str, float]:
    """Sum the per-layer metrics of several traced processes."""
    out = {k: sum(r[k] for r in runs) for k in runs[0]}
    calls = out["diagrams.canonicalize.calls"]
    out["diagrams.canonicalize.hit_ratio"] = (
        (calls - out["diagrams.canonicalize.misses"]) / calls
        if calls else 0.0)
    return out


class Tracer:
    """Installs span-recording wrappers and aggregates the spans."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.misses = 0
        self._stack = [0]
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            sid = self._next_id
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
        return traced

    def _count_misses(self, fn, cache: dict):
        @functools.wraps(fn)
        def canonicalize(d):
            before = len(cache)
            out = fn(d)
            if len(cache) != before:
                self.misses += 1
            return out
        return canonicalize

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target in every namespace that binds it."""
        mods = {m: importlib.import_module(f"lmo_kernel.{m}")
                for m, _ in TARGETS}
        namespaces = [mod for key, mod in sys.modules.items()
                      if mod is not None and
                      (key == "lmo_kernel" or key.startswith("lmo_kernel."))]
        for m, path in TARGETS:
            name = span_name(m, path)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mods[m], cls_name)
                self._set(cls, attr, self._wrap(name, cls.__dict__[attr]))
                continue
            orig = getattr(mods[m], path)
            fn = orig
            if name == "diagrams.canonicalize":
                fn = self._count_misses(orig, mods[m]._CANON_CACHE)
            wrapped = self._wrap(name, fn)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is orig:
                        self._set(ns, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every replaced attribute."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time per span name, plus the cache counters."""
        child_ns: dict[int, int] = {}
        for _, parent, _, t0, t1 in self.spans:
            child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
        self_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        for sid, _, name, t0, t1 in self.spans:
            self_ns[name] = (self_ns.get(name, 0) + (t1 - t0)
                             - child_ns.get(sid, 0))
            calls[name] = calls.get(name, 0) + 1
        out: dict[str, float] = {}
        for m, p in TARGETS:
            name = span_name(m, p)
            out[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9
        for name in COUNTED:
            out[f"{name}.calls"] = calls.get(name, 0)
        n_canon = calls.get("diagrams.canonicalize", 0)
        out["diagrams.canonicalize.misses"] = self.misses
        out["diagrams.canonicalize.hit_ratio"] = (
            (n_canon - self.misses) / n_canon if n_canon else 0.0)
        out["diagrams.canon_cache.entries"] = len(
            sys.modules["lmo_kernel.diagrams"]._CANON_CACHE)
        out["liews.weight_cache.entries"] = len(
            sys.modules["lmo_kernel.liews"]._WEIGHT_CACHE)
        return out

    def write_spans(self, path: Path) -> None:
        """Write every span as [id, parent, name, start_ns, end_ns]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_ns",
                                  "end_ns"],
                       "spans": sorted(self.spans)}, fh)
