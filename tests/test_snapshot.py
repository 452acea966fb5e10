"""The outputs of ``tools/snapshot.py`` (exit codes, stdout and stderr
of a fixed matrix of commands) are byte-identical to the recorded
``tests/snapshot.txt``, under two hash seeds."""

import filecmp
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORDED = ROOT / "tests" / "snapshot.txt"


def test_snapshot_matches_the_recorded_outputs(tmp_path):
    runs = []
    try:
        for seed in ("0", "1"):
            out = tmp_path / f"snapshot-hashseed{seed}.txt"
            env = dict(os.environ, PYTHONHASHSEED=seed)
            runs.append((out, subprocess.Popen(
                [sys.executable, str(ROOT / "tools" / "snapshot.py"),
                 str(out)], env=env)))
        for out, proc in runs:
            assert proc.wait(timeout=300) == 0
            assert filecmp.cmp(out, RECORDED, shallow=False), \
                f"{out.name} differs from {RECORDED.name}"
    finally:
        for _, proc in runs:
            proc.kill()
            proc.wait()
