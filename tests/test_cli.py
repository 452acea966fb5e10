"""CLI surface: subcommands, JSON output, exit codes."""

import json

import pytest

from lmo_kernel import pipeline
from lmo_kernel.balg import omega, wheel
from lmo_kernel.cli import main
from lmo_kernel.diagrams import series_of


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


@pytest.mark.parametrize("option, content", [
    ("--knot", None),                      # missing file
    ("--knot", "{not json"),
    ("--knot", '[{"coeff": "1/1", "diagram": '
               '{"t": 0, "m": 2, "edges": [[[0, 0], [1, 0]]]}}]'),  # strut
    ("--knot", '[{"coeff": "2/1", "diagram": '
               '{"t": 0, "m": 0, "edges": []}}]'),  # degree-0 coefficient 2
    ("--qdata", None),
    ("--qdata", "[1, 2"),
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
    assert str(path) in json.loads(line)["error"]


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


def test_order_zero_is_one_error_line(capsys):
    for command in ("compute", "taupg", "compare"):
        assert main([command, "--framing", "2", "--lie", "A1",
                     "--order", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        line, = captured.err.splitlines()
        assert "--order" in json.loads(line)["error"]


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
