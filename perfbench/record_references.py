"""Record perfbench/references.json: the exact series of every cell of the
benchmark, from one fill pass of the warm sweep.

    python3 perfbench/record_references.py

Run it only on a commit whose outputs are known to be right; every later
benchmark run is checked against the file it writes.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import REFERENCES, WARM_CELLS, WORKER, cell_id, math_fields


def main() -> int:
    proc = subprocess.run(
        [sys.executable, str(WORKER), "sweep", "--seed", "0", "--seconds",
         "0", "--cells", json.dumps(WARM_CELLS)],
        capture_output=True, text=True, check=True)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    refs = {}
    for cell in res["fill"]:
        report = json.loads(cell["output"]) if cell["rc"] == 0 else {}
        if not (report.get("passed") or
                (report.get("routes_equal") and report.get("equal"))):
            raise SystemExit(f"{cell_id(cell['argv'])} failed; "
                             "not recording references")
        refs[cell_id(cell["argv"])] = math_fields(report)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(refs)} cells in {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
