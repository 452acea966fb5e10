"""``tools/ab_frontier.py`` runs one checkout against itself: every
fresh-process ``compare`` gives the same report, and the last line
reports the median wall time and peak resident set of each side, their
ratios and each side's interquartile ranges."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_frontier_on_one_checkout_against_itself():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_frontier.py"), str(ROOT),
         str(ROOT), "--rounds", "2", "--order", "3"],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["order"] == 3 and result["rounds"] == 2
    assert result["failed_runs"] == 0 and result["reports_equal"]
    assert result["routes_equal"] is True and result["equal"] is True
    for name, unit in (("wall", "s"), ("peak_rss", "mb")):
        figures = result[name]
        old, new = figures[f"old_{unit}"], figures[f"new_{unit}"]
        assert old > 0 and new > 0
        assert figures["ratio"] == new / old
        assert figures[f"old_iqr_{unit}"] >= 0
        assert figures[f"new_iqr_{unit}"] >= 0
