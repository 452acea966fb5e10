"""``tools/ab_warm.py`` runs one checkout against itself: both kernels
load side by side, every fill cell matches the benchmark references, and
the last line reports the two median pass times, their ratio and each
side's interquartile range, and the same figures for the ``verify`` cell
and the ``compare`` cells apart, for each route of the ``compare``
cells, for each suite of the ``verify`` cell and for the framing
reads, whose count per pass is the same on both sides."""

import json
import subprocess
import sys
from pathlib import Path

from lmo_kernel.pipeline import _SUITES

ROOT = Path(__file__).resolve().parents[1]

#: The route names of ``tools/ab_warm.py``.
ROUTES = ("definition", "lemma", "taupg")


def test_ab_warm_on_one_checkout_against_itself():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_warm.py"), str(ROOT),
         str(ROOT), "--passes", "2"],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["passes"] == 2 and result["failed_fill_cells"] == 0
    assert result["old_s"] > 0 and result["new_s"] > 0
    assert result["ratio"] == result["new_s"] / result["old_s"]
    assert result["old_iqr_s"] >= 0 and result["new_iqr_s"] >= 0
    for part in ("verify", "compare"):
        old, new = result[f"{part}_old_s"], result[f"{part}_new_s"]
        assert 0 < old < result["old_s"] and 0 < new < result["new_s"]
        assert result[f"{part}_ratio"] == new / old
        assert result[f"{part}_old_iqr_s"] >= 0
        assert result[f"{part}_new_iqr_s"] >= 0
    assert result["framing_calls"]["old"] == result["framing_calls"]["new"] > 0
    for part in (*ROUTES, *_SUITES, "framing"):
        old, new = result[f"{part}_old_s"], result[f"{part}_new_s"]
        assert old > 0 and new > 0
        assert result[f"{part}_ratio"] == new / old
        assert result[f"{part}_old_iqr_s"] >= 0
        assert result[f"{part}_new_iqr_s"] >= 0
    for side in ("old", "new"):
        # the parts of each pass add up to no more than the pass, the
        # routes to no more than the compare cells and the suites to no
        # more than the verify cell
        assert result[f"verify_{side}_s"] + result[f"compare_{side}_s"] \
            <= 1.01 * result[f"{side}_s"]
        assert result[f"framing_{side}_s"] <= result[f"{side}_s"]
        assert sum(result[f"{route}_{side}_s"] for route in ROUTES) \
            <= result[f"compare_{side}_s"]
        assert sum(result[f"{suite}_{side}_s"] for suite in _SUITES) \
            <= result[f"verify_{side}_s"]
