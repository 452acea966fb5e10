"""Self time and share of each span name in a span file of a traced run.

    python3 perfbench/shares.py .perfbench-traces/warm-sweep-seed1-0.json
    python3 perfbench/shares.py <file> --last 41

``--last N`` keeps only the last N top-level spans and the spans under
them; on a warm-sweep trace, the last 41 are the traced timed pass.
Shares are of the summed wall time of the kept top-level spans.
"""

from __future__ import annotations

import argparse
import json


def main() -> int:
    ap = argparse.ArgumentParser(prog="shares.py")
    ap.add_argument("spans")
    ap.add_argument("--last", type=int, default=None)
    args = ap.parse_args()
    with open(args.spans) as fh:
        spans = json.load(fh)["spans"]
    top = sorted((s for s in spans if s[1] == 0), key=lambda s: s[3])
    if args.last is not None:
        top = top[-args.last:]
    start = top[0][3]
    spans = [s for s in spans if s[3] >= start]
    child_ns: dict[int, int] = {}
    for _, parent, _, t0, t1 in spans:
        child_ns[parent] = child_ns.get(parent, 0) + t1 - t0
    self_ns: dict[str, int] = {}
    for sid, _, name, t0, t1 in spans:
        self_ns[name] = self_ns.get(name, 0) + t1 - t0 - child_ns.get(sid, 0)
    total = sum(t1 - t0 for *_, t0, t1 in top)
    print(f"{len(top)} top-level spans, {total / 1e9:.3f} s")
    for name, ns in sorted(self_ns.items(), key=lambda kv: -kv[1]):
        print(f"{name:42s} {ns / 1e9:9.3f} s {100 * ns / total:6.1f} %")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
