"""Tests of the benchmark itself (not collected by the kernel's test suite):

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

import run
import speed
from tracer import Tracer, layer_metric_names

CHEAP = [run.compare_argv("A1", 1, 2), run.compare_argv("A1", -2, 3),
         run.compare_argv("A2", 3, 2)]
EXACT_SUFFIXES = (".calls", ".misses", ".entries")


def cold(argv, seed=7, trace_out=None):
    r = run.Run(seed)
    _, res = r.spawn(run.cell_args(argv, trace_out), run.cell_id(argv))
    assert res is not None, r.failures
    assert run.check_cell(res["cell"], r.refs) is None
    return res


def report_fields(cell):
    return run.math_fields(json.loads(cell["output"]))


def test_traced_and_untraced_runs_give_identical_series(tmp_path):
    argv = run.compare_argv("A1", 2, 3)
    plain = cold(argv)
    traced = cold(argv, trace_out=tmp_path / "spans.json")
    assert report_fields(traced["cell"]) == report_fields(plain["cell"])
    assert plain["layers"] is None
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    ids = {s[0] for s in spans}
    assert all(parent == 0 or parent in ids for _, parent, *_ in spans)


def test_two_traced_runs_repeat_every_exact_count(tmp_path):
    argv = run.compare_argv("A2", -1, 3)
    a = cold(argv, trace_out=tmp_path / "a.json")["layers"]
    b = cold(argv, trace_out=tmp_path / "b.json")["layers"]
    expected = set(layer_metric_names()) - {"trace.overhead_ratio"}
    assert set(a) == set(b) == expected
    exact = [k for k in a if k.endswith(EXACT_SUFFIXES)]
    assert {k: a[k] for k in exact} == {k: b[k] for k in exact}
    # internal calls through module globals reach the spans
    assert a["diagrams.canonicalize.calls"] > 0
    assert a["diagrams.glue_legs.calls"] > 0
    assert a["liews.contract_diagram.calls"] > 0
    assert a["diagrams.canonicalize.misses"] == a["diagrams.canon_cache.entries"]


def test_tracer_patches_every_binding_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(run.ROOT / "src"))
    from lmo_kernel import balg, diagrams, liews, pipeline, qseries
    canon, glue = diagrams.canonicalize, diagrams.glue_legs
    mul = qseries.HSeries.__mul__
    tracer = Tracer()
    tracer.install()
    try:
        assert diagrams.canonicalize is not canon
        assert balg.canonicalize is liews.canonicalize is diagrams.canonicalize
        assert balg.glue_legs is diagrams.glue_legs is not glue
        assert qseries.HSeries.__mul__ is not mul
        pipeline.hat_scalar(balg.fg_integral(balg.omega(2), f_override=1),
                            pipeline.lie_pair("A1")[1], 1)
    finally:
        tracer.uninstall()
    assert balg.canonicalize is liews.canonicalize is canon
    assert balg.glue_legs is glue and qseries.HSeries.__mul__ is mul
    names = {sid: name for sid, _, name, *_ in tracer.spans}
    parents = {names.get(parent) for _, parent, name, *_ in tracer.spans
               if name == "diagrams.glue_legs"}
    assert parents == {"balg.fg_integral"}


def test_fill_pass_gives_the_cold_cells_reports():
    r = run.Run(3)
    _, res = r.spawn(["sweep", "--seed", "3", "--seconds", "0", "--cells",
                      json.dumps(CHEAP)], "sweep")
    assert res is not None, r.failures
    fill = {run.cell_id(c["argv"]): c for c in res["fill"]}
    assert set(fill) == {run.cell_id(a) for a in CHEAP}
    for argv in CHEAP:
        warm = fill[run.cell_id(argv)]
        assert run.check_cell(warm, r.refs) is None
        assert report_fields(warm) == report_fields(cold(argv)["cell"])


def test_a_hanging_cell_is_killed_and_counted(monkeypatch):
    # --order -1 never returns (Neumann loop of wheeling_inverse)
    monkeypatch.setattr(run, "RUN_BUDGET_S", 3.0)
    r = run.Run(1)
    t0 = time.perf_counter()
    _, res = r.spawn(run.cell_args(run.compare_argv("A1", 1, -1)), "hang")
    assert res is None
    assert time.perf_counter() - t0 < 10
    assert r.failures == ["hang: timeout"]


def test_check_cell_rejects_any_wrong_coefficient():
    r = run.Run(1)
    argv = run.compare_argv("A1", 2, 3)
    cell = cold(argv)["cell"]
    report = json.loads(cell["output"])
    bad = copy.deepcopy(report)
    coeffs = bad["lmo_definition"]["coeffs"]
    k = sorted(coeffs)[-1]
    coeffs[k] = "0/1" if coeffs[k] != "0/1" else "1/1"
    assert run.check_cell(dict(cell, output=json.dumps(bad)), r.refs) \
        == "lmo_definition differs from the reference"
    assert run.check_cell(dict(cell, rc=1), r.refs) == "exit code 1"
    extra = dict(report, new_field=1)
    assert run.check_cell(dict(cell, output=json.dumps(extra)), r.refs) is None


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_run_fails_without_kernel_sources(tmp_path, workload):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speedometer_samples_while_started_and_scales_times():
    meter = speed.Speedometer()
    meter.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 5 * speed.PERIOD_S:
        speed.chunk()
    meter.stop()
    taken = meter.since()
    assert taken["samples"] >= 2 and taken["spent_s"] > 0
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    busy, median = speed.unsampled(2.0, taken)
    assert busy == 2.0 - taken["spent_s"] and median == taken["median_s"]
    assert speed.unsampled(2.0, None) == (2.0, None)
    assert speed.scaled(3.0, None) == 3.0
    assert speed.scaled(3.0, speed.REF_CHUNK_S) == 3.0
    assert speed.scaled(3.0, 2 * speed.REF_CHUNK_S) == pytest.approx(
        3.0 * 0.5 ** speed.SPEED_EXPONENT)
