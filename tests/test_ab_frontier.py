"""``tools/ab_frontier.py`` runs one checkout against itself: every
fresh-process ``compare`` gives the same report, which equals the exact
reference recorded for its order, and the last line reports the median
wall time and peak resident set of each side, their ratios and each
side's interquartile ranges.  A report that differs from its reference
in one coefficient is refused.  Its children import the kernel from a
byte-compiled copy, so none compiles a module, and the checkouts gain no
bytecode; a child's peak resident set is its own, not that of the
process that runs the tool."""

import copy
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

from lmo_kernel.cli import main

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import ab_frontier  # noqa: E402


def _checkout(tmp_path: Path) -> Path:
    """A checkout of this tree's ``src`` without bytecode."""
    checkout = tmp_path / "checkout"
    shutil.copytree(ROOT / "src", checkout / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return checkout


def test_ab_frontier_on_one_checkout_against_itself(tmp_path):
    checkout = _checkout(tmp_path)
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_frontier.py"),
         str(checkout), str(checkout), "--rounds", "2", "--order", "4"],
        capture_output=True, text=True, timeout=300, env=env)
    assert run.returncode == 0, run.stdout + run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["order"] == 4 and result["rounds"] == 2
    assert result["failed_runs"] == 0 and result["reports_equal"]
    assert result["routes_equal"] is True and result["equal"] is True
    assert result["reference"] is True
    for name, unit in (("wall", "s"), ("peak_rss", "mb")):
        figures = result[name]
        old, new = figures[f"old_{unit}"], figures[f"new_{unit}"]
        assert old > 0 and new > 0
        assert figures["ratio"] == new / old
        assert figures[f"old_iqr_{unit}"] >= 0
        assert figures[f"new_iqr_{unit}"] >= 0
    # the children wrote no bytecode next to the checkout's sources
    assert list(checkout.rglob("__pycache__")) == []


def test_a_child_imports_every_module_from_fresh_bytecode(tmp_path):
    checkout = _checkout(tmp_path)
    src = ab_frontier.compiled_copy(str(checkout), tmp_path / "copy")
    run = subprocess.run(
        [sys.executable, "-v", *ab_frontier.compare_argv(1)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert run.returncode == 0, run.stderr[-2000:]
    # python -v names the file each module's code object comes from
    loaded = [Path(p) for p in re.findall(r"^# code object from '?([^'\n]+)",
                                          run.stderr, re.M)]
    kernel = [p for p in loaded if src in p.parents]
    sources = sorted((src / "lmo_kernel").glob("*.py"))
    assert len(kernel) == len(sources)
    for path in kernel:
        assert path.suffix == ".pyc" and path.parent.name == "__pycache__"
        source = path.parent.parent / (path.name.split(".")[0] + ".py")
        assert path.stat().st_mtime >= source.stat().st_mtime
    assert list(checkout.rglob("__pycache__")) == []


def test_a_run_reads_its_own_peak_not_the_spawners(tmp_path):
    # a child's ru_maxrss starts at its spawner's high-water mark: this
    # process raises its own past 64 MB, and the run still reads the
    # child's peak, about 15 MB at order 1
    src = ab_frontier.compiled_copy(str(_checkout(tmp_path)), tmp_path / "copy")
    ballast = bytearray(64 << 20)
    ballast[::4096] = b"\1" * len(range(0, 64 << 20, 4096))
    del ballast
    wall, peak, report = ab_frontier.cold_run(src, 1)
    assert wall > 0 and 0 < peak < 48
    assert report["routes_equal"] is True and report["equal"] is True


def test_the_order_5_reference_is_a_fresh_compare(capsys):
    assert main(ab_frontier.compare_argv(5)[2:]) == 0
    report = json.loads(capsys.readouterr().out)
    assert ab_frontier.matches_reference([report], 5) is True


def test_every_order_from_2_to_6_has_a_reference():
    assert [ab_frontier.reference(k) is not None for k in range(1, 8)] == \
        [False, True, True, True, True, True, False]
    assert ab_frontier.matches_reference([{}], 7) is None


def test_a_doctored_report_is_refused(monkeypatch, capsys):
    # every run reports the order-4 reference with one coefficient of
    # tau^PG changed: the reports equal each other, and the tool exits 1
    report = {"routes_equal": True, "equal": True,
              **copy.deepcopy(ab_frontier.reference(4))}
    assert ab_frontier.matches_reference([report], 4) is True
    report["taupg"]["coeffs"]["2"] = "-1/63"
    monkeypatch.setattr(ab_frontier, "compiled_copy",
                        lambda checkout, into: into)
    monkeypatch.setattr(ab_frontier, "cold_run",
                        lambda src, order: (0.1, 15.0, report))
    assert ab_frontier.main(["old", "new", "--rounds", "2",
                             "--order", "4"]) == 1
    out = capsys.readouterr().out
    assert "the reports differ from the reference" in out
    result = json.loads(out.splitlines()[-1])
    assert result["reports_equal"] is True and result["reference"] is False
    # a failed run is no match either
    assert ab_frontier.matches_reference([None], 4) is False
