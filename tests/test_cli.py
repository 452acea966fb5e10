"""CLI surface: subcommands, JSON output, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lmo_kernel import pipeline, rootsys
from lmo_kernel.balg import omega, wheel
from lmo_kernel.cli import main
from lmo_kernel.diagrams import series_of
from lmo_kernel.qseries import HSeries


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_compute_both_routes(capsys):
    code, obj = run(capsys, "compute", "--framing", "2", "--lie", "A1",
                    "--order", "2")
    assert code == 0
    assert obj["routes_equal"] is True
    assert obj["routes"]["definition"] == obj["routes"]["lemma"]
    assert obj["routes"]["definition"]["coeffs"]["0"] == "1/1"


def test_compute_single_route(capsys):
    code, obj = run(capsys, "compute", "--framing", "1", "--lie", "A1",
                    "--order", "1", "--route", "definition")
    assert code == 0 and "lemma" not in obj["routes"]


def test_taupg(capsys):
    code, obj = run(capsys, "taupg", "--framing", "2", "--lie", "A1",
                    "--order", "2")
    assert code == 0
    assert obj["taupg"]["coeffs"]["0"] == "1/2"


def test_compare_exit_code_and_payload(capsys):
    code, obj = run(capsys, "compare", "--framing", "3", "--lie", "A1",
                    "--order", "2")
    assert code == 0
    assert obj["equal"] is True
    assert obj["h1_power"] == "3/1"


def test_verify_suite(capsys):
    code, obj = run(capsys, "verify", "--suite", "bernoulli")
    assert code == 0
    assert obj["passed"] is True
    assert {c["name"] for c in obj["checks"]} >= {"bernoulli.b2"}


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["compare", "--framing", "2", "--lie", "A1", "--order", "1",
                 "--out", str(target)])
    assert code == 0
    obj = json.loads(target.read_text())
    assert obj["equal"] is True


def test_zero_framing_fails_cleanly(capsys):
    for command in ("compute", "taupg", "compare"):
        assert main([command, "--framing", "0", "--lie", "A1",
                     "--order", "1"]) == 2
        _assert_one_error_line(capsys)


def test_file_knot_without_qdata_is_one_error_line(tmp_path, capsys):
    knot = tmp_path / "knot.json"
    knot.write_text("[]")
    assert main(["taupg", "--knot", str(knot), "--framing", "2",
                 "--lie", "A1", "--order", "2"]) == 2
    _assert_one_error_line(capsys)


def _qdata_with_beta(beta) -> str:
    return json.dumps([{"beta": beta, "series": HSeries.one(1).to_json()}])


def _unknot_qdata_with_cap_zero_beta(series: HSeries) -> str:
    """The A1 unknot data at cap 4 plus beta [5] with a cap-0 series."""
    return json.dumps(rootsys.lattice_sum_to_json(
        pipeline.unknot_qdata("A1", 4)) + [
        {"beta": [5], "series": series.to_json()}])


_UNIT_KNOT = '[{"coeff": "1/1", "diagram": {"t": 0, "m": 0, "edges": []}}]'
# a file whose entry lacks a field: the message names the field
_MISSING_FIELD = {'[{"coeff": "1/1"}]': "entry 0 has no field 'diagram'",
                  _UNIT_KNOT: "entry 0 has no field 'beta'"}


@pytest.mark.parametrize("option, content", [
    ("--knot", None),                      # missing file
    ("--knot", "{not json"),
    ("--knot", '[{"coeff": "1/1", "diagram": '
               '{"t": 0, "m": 2, "edges": [[[0, 0], [1, 0]]]}}]'),  # strut
    ("--knot", '[{"coeff": "2/1", "diagram": '
               '{"t": 0, "m": 0, "edges": []}}]'),  # degree-0 coefficient 2
    ("--qdata", None),
    ("--qdata", "[1, 2"),
    ("--qdata", _qdata_with_beta([0, 1])),   # A1 has rank 1
    ("--qdata", _qdata_with_beta([])),
    ("--qdata", _qdata_with_beta([1.5])),    # not a lattice vector
    ("--qdata", json.dumps([{"beta": [0], "series": {
        "min_exp": -100, "coeffs": {"-100": "1/1"}, "cap": 2}}])),  # pole
    ("--qdata", json.dumps([{"beta": [0], "series": {
        "min_exp": 0, "coeffs": {"-1": "1/1"}, "cap": 2}}])),  # below min_exp
    ("--qdata", _unknot_qdata_with_cap_zero_beta(HSeries.zero(0))),
    ("--qdata", _unknot_qdata_with_cap_zero_beta(HSeries.one(0))),
    ("--knot", '[{"coeff": "1/1"}]'),
    ("--qdata", _UNIT_KNOT),                 # a knot file as expansion data
])
def test_bad_input_file_is_one_error_line(tmp_path, capsys, option, content):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    args = ["compare", "--framing", "2", "--lie", "A1", "--order", "1",
            option, str(path)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line, = captured.err.splitlines()
    message = json.loads(line)["error"]
    assert str(path) in message
    assert _MISSING_FIELD.get(content, "") in message


@pytest.mark.parametrize("series", [HSeries.zero(0), HSeries.one(0)])
def test_qdata_cap_below_order_is_one_error_line(tmp_path, capsys, series):
    """An entry known only through h^0, zero or not, cannot vouch for
    h^4: both commands name its beta, its cap and the order (the zero
    one used to be dropped, so taupg printed a cap-4 series)."""
    path = tmp_path / "qdata.json"
    path.write_text(_unknot_qdata_with_cap_zero_beta(series))
    for command in ("taupg", "compare"):
        assert main([command, "--lie", "A1", "--framing", "2", "--order",
                     "4", "--qdata", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        line, = captured.err.splitlines()
        message = json.loads(line)["error"]
        assert "[5]" in message and "cap 0" in message
        assert "--order 4" in message


def _assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    line, = captured.err.splitlines()
    assert "error" in json.loads(line)


def test_kernel_rejection_of_file_knot_is_one_error_line(tmp_path, capsys):
    # parses as a diagram series, but has no degree-0 term: the wheeled
    # invariant of a knot has degree-0 coefficient 1
    path = tmp_path / "knot.json"
    path.write_text(json.dumps(series_of(wheel(1), 8).to_json()))
    assert main(["compare", "--knot", str(path), "--framing", "2",
                 "--lie", "A1", "--order", "4"]) == 2
    _assert_one_error_line(capsys)
    # a readable qdata file whose perturbative invariant comes out polar
    qdata = tmp_path / "qdata.json"
    qdata.write_text(json.dumps([{"beta": [0], "series": {
        "min_exp": -2, "coeffs": {"-2": "1/1"}, "cap": 8}}]))
    for command in ("taupg", "compare"):
        assert main([command, "--framing", "2", "--lie", "A1", "--order",
                     "2", "--qdata", str(qdata)]) == 2
        _assert_one_error_line(capsys)


def test_negative_valid_degree_is_one_error_line(tmp_path, capsys):
    knot = tmp_path / "knot.json"
    knot.write_text(json.dumps(omega(4).to_json()))
    assert main(["compare", "--knot", str(knot), "--framing", "2",
                 "--lie", "A1", "--order", "2", "--valid-degree", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line, = captured.err.splitlines()
    assert "valid degree" in json.loads(line)["error"]


def test_valid_degree_bounds_the_builtin_unknot(capsys):
    assert main(["compare", "--framing", "2", "--lie", "A1", "--order", "3",
                 "--valid-degree", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["certified_order"] == 1
    for key in ("lmo_definition", "lmo_lemma", "taupg", "difference"):
        assert report[key]["cap"] == 1


@pytest.mark.parametrize("command", ("compute", "taupg"))
def test_valid_degree_is_a_compare_option(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--framing", "2", "--lie", "A1", "--order", "1",
              "--valid-degree", "1"])
    assert exc.value.code == 2
    assert "--valid-degree" in capsys.readouterr().err


def test_order_zero_is_one_error_line(capsys):
    for command in ("compute", "taupg", "compare"):
        assert main([command, "--framing", "2", "--lie", "A1",
                     "--order", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        line, = captured.err.splitlines()
        assert "--order" in json.loads(line)["error"]


@pytest.mark.parametrize("command, lie, order", [
    ("taupg", "A1", "-1"), ("taupg", "A1", "-2"), ("taupg", "A3", "-1"),
    ("taupg", "A3", "-2"), ("compute", "A1", "-1")])
def test_negative_order_is_one_error_line(capsys, command, lie, order):
    # taupg failed on a series cap at A1 and printed an empty series at
    # A3; compute never returned (the Neumann loop of wheeling_inverse)
    assert main([command, "--framing", "2", "--lie", lie,
                 "--order", order]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line, = captured.err.splitlines()
    error = json.loads(line)["error"]
    assert "--order" in error and order in error


def test_order_above_the_vertex_cap_is_one_error_line(capsys):
    # the wheels at order 7 have 28 vertices; the cap is 24
    assert pipeline.MAX_ORDER == 6
    for command in ("compute", "compare"):
        assert main([command, "--framing", "2", "--lie", "A1",
                     "--order", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        line, = captured.err.splitlines()
        error = json.loads(line)["error"]
        assert "--order" in error and "6" in error


@pytest.mark.parametrize("suite", ("all", "omega", "circle"))
def test_verify_order_above_the_vertex_cap_is_rejected_up_front(
        capsys, monkeypatch, suite):
    # the suites that build diagrams at the order fail before any runs
    def ran(order):
        raise AssertionError("a suite ran before the order was checked")

    monkeypatch.setattr(pipeline, "_SUITES",
                        dict.fromkeys(pipeline._SUITES, ran))
    assert main(["verify", "--suite", suite, "--order", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line, = captured.err.splitlines()
    error = json.loads(line)["error"]
    assert "--order" in error and "6" in error


def test_lie_only_verify_suites_take_any_order(capsys):
    assert main(["verify", "--suite", "gauss", "--order", "40"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


@pytest.mark.parametrize("order", ("0", "-5"))
def test_verify_order_below_one_is_one_error_line(capsys, order):
    assert main(["verify", "--suite", "bernoulli", "--order", order]) == 2
    _assert_one_error_line(capsys)


def test_qdata_read_before_diagram_work(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("diagram work ran before the qdata file was read")

    monkeypatch.setattr(pipeline, "lmo_via_definition", fail)
    knot = tmp_path / "knot.json"
    knot.write_text(json.dumps(omega(8).to_json()))
    assert main(["compare", "--knot", str(knot), "--framing", "2",
                 "--lie", "A1", "--order", "4",
                 "--qdata", str(tmp_path / "missing.json")]) == 2
    _assert_one_error_line(capsys)


def test_bad_suite_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "bogus"])


# Runs each command of argv[1] (a JSON list) through one process's
# ``cli.main`` and prints [exit code, stdout, stderr] per command.
_RUN_IN_ONE_PROCESS = """
import contextlib, io, json, sys
from lmo_kernel import cli
outcomes = []
for argv in json.loads(sys.argv[1]):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \\
            contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    outcomes.append([code, stdout.getvalue(), stderr.getvalue()])
print(json.dumps(outcomes))
"""


def _in_one_process(*commands) -> list:
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path
                                             else ""))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_IN_ONE_PROCESS, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    return json.loads(proc.stdout)


def test_an_argparse_error_leaves_the_next_command_unchanged():
    bad = ["compare", "--lie", "B2", "--framing", "2", "--order", "2"]
    good = ["taupg", "--lie", "A1", "--framing", "2", "--order", "2"]
    together = _in_one_process(bad, good)
    assert [code for code, _, _ in together] == [2, 0]
    assert together == _in_one_process(bad) + _in_one_process(good)


def test_order_six_main_equality(capsys):
    """The main equality at h^6: components reach 12 vertices, where the
    canonical search returns from most automorphic leaves at once."""
    code, obj = run(capsys, "compare", "--lie", "A1", "--framing", "2",
                    "--order", "6")
    assert code == 0
    assert obj["equal"] is True and obj["routes_equal"] is True
    assert obj["certified_order"] == 6
