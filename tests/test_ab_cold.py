"""``tools/ab_cold.py`` runs one checkout against itself: both kernels
load side by side, every cold cell matches the benchmark references,
every recorded search and contraction gives the same result on both, and
the last line reports, per kernel, the two median replay times, their
ratio and each side's interquartile range."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_cold_on_one_checkout_against_itself():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_cold.py"), str(ROOT),
         str(ROOT), "--rounds", "2"],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["rounds"] == 2 and result["failed_cells"] == 0
    assert result["differing_results"] == 0
    # a cold compare and a cold verify each search some shapes, and the
    # verify contracts open forms
    assert result["shapes"] > 0 and result["forms"] > 0
    for kernel in ("search", "contract"):
        times = result[kernel]
        assert times["old_s"] > 0 and times["new_s"] > 0
        assert times["ratio"] == times["new_s"] / times["old_s"]
        assert times["old_iqr_s"] >= 0 and times["new_iqr_s"] >= 0
