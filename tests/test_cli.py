"""CLI surface: subcommands, JSON output, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lmo_kernel import cli, pipeline, rootsys
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


@pytest.mark.parametrize("target", ["", "missing/report.json"],
                         ids=["directory", "missing-parent"])
def test_unwritable_out_is_one_error_line(tmp_path, capsys, target):
    path = tmp_path / target
    assert main(["compare", "--framing", "2", "--lie", "A1", "--order", "1",
                 "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line, = captured.err.splitlines()
    assert str(path) in json.loads(line)["error"]


def test_closed_stdout_is_one_error_line():
    """A report written to a pipe whose reader is gone, as in
    ``compare ... | head -1``: exit 2, one JSON error line and no
    traceback, also from the flush at exit."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lmo_kernel.cli", "verify", "--suite",
             "bernoulli", "--order", "1"],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env,
            timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    line, = proc.stderr.splitlines()
    assert "Broken pipe" in json.loads(line)["error"]


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
        rootsys.quantum_dim_sq_shifted(
            rootsys.build_root_system("A1"), 4)) + [
        {"beta": [5], "series": series.to_json()}])


_UNIT_KNOT = '[{"coeff": "1/1", "diagram": {"t": 0, "m": 0, "edges": []}}]'


def _unit_plus_theta(coeff="1/1", **diagram) -> str:
    """A knot file, the unit plus a theta term, with the listed fields of
    the theta's diagram replaced."""
    theta = {"t": 2, "m": 0, "cyclic": {"0": [0, 1, 2]},
             "edges": [[[0, 0], [1, 0]], [[0, 1], [1, 2]], [[0, 2], [1, 1]]]}
    return json.dumps(json.loads(_UNIT_KNOT) + [
        {"coeff": coeff, "diagram": {**theta, **diagram}}])


def _one_series(min_exp=0, coeff="1/1", cap=1, key="0") -> str:
    return json.dumps([{"beta": [0], "series": {
        "min_exp": min_exp, "coeffs": {key: coeff}, "cap": cap}}])


# files with a float or a bool in an integer or coefficient field, each
# with the words of its message
_INEXACT_KNOTS = {
    _unit_plus_theta(t=2.0): "t 2.0 is not an integer",
    _unit_plus_theta(m=False): "m False is not an integer",
    _unit_plus_theta(edges=[[[0, 0], [1.7, 0]], [[0, 1], [1, 2]],
                            [[0, 2], [1, 1]]]): "1.7 is not an integer",
    _unit_plus_theta(cyclic={"0": [0, 1, 2.0]}): "bad cyclic order",
    _unit_plus_theta(coeff=0.1): "0.1 is not a \"p/q\" string"}
_INEXACT_QDATA = {
    _one_series(cap=1.9): "cap 1.9 is not an integer",
    _one_series(min_exp=True): "min_exp True is not an integer",
    _one_series(coeff=0.1): "0.1 is not a \"p/q\" string"}
# coefficient strings that ``Fraction`` reads but that are not "p/q" with
# p and q spelled as ``str`` spells integers and q > 0; "1e1000000" used
# to end in a traceback when the report was printed
_BAD_COEFF_STRINGS = ("0.1", "1e5", "1e1000000", " 1/2", "1_0/3", "1/0",
                      "1/-2")
_BAD_COEFFS = {
    **{_unit_plus_theta(coeff=c): f'coefficient {c!r} is not a "p/q"'
       for c in _BAD_COEFF_STRINGS},
    **{_one_series(coeff=c): f'coefficient of h^0 {c!r} is not a "p/q"'
       for c in _BAD_COEFF_STRINGS}}
# a diagram with t = -1 and m = 3 has 3t + m = 0 ports; it used to be
# read as two struts
_NEGATIVE_T = json.dumps(json.loads(_UNIT_KNOT) + [
    {"coeff": "1/1", "diagram": {"t": -1, "m": 3, "edges": []}}])
# files with a JSON object key that ``int`` reads but ``str`` would not
# write, or a cyclic key that names no trivalent vertex, each with the
# words of its message
_WHEEL_EDGES = [[[0, 0], [2, 0]], [[0, 1], [1, 2]], [[0, 2], [1, 1]],
                [[1, 0], [3, 0]]]
_BAD_SERIES_KEYS = {
    _one_series(key="1_0"): "exponent '1_0' is not an integer key",
    _one_series(key=" 2"): "exponent ' 2' is not an integer key"}
_BAD_CYCLIC_KEYS = {
    _unit_plus_theta(cyclic={"0_0": [0, 1, 2]}):
        "cyclic key '0_0' is not an integer key",
    _unit_plus_theta(cyclic={"0": [0, 1, 2], "00": [0, 2, 1]}):
        "cyclic key '00' is not an integer key",
    _unit_plus_theta(cyclic={"7": [0, 1, 2]}):
        "cyclic key '7' is not a trivalent vertex",
    _unit_plus_theta(cyclic={"-1": [0, 1, 2]}):
        "cyclic key '-1' is not a trivalent vertex",
    _unit_plus_theta(m=2, edges=_WHEEL_EDGES, cyclic={"2": [1, 0, 2]}):
        "cyclic key '2' is not a trivalent vertex"}
# a coefficient or key with more digits than the interpreter converts to
# an int, each with its message: the field, the value cut to 76
# characters, and the limit, which stays where it is
_LIMIT = sys.get_int_max_str_digits()
_LONG = "1" * (_LIMIT + 1)


def _too_long(what: str) -> str:
    return f"{what} '{'1' * 76}... has more than {_LIMIT} digits"


_TOO_LONG = {
    "knot-coefficient": (_unit_plus_theta(coeff=_LONG + "/1"),
                         _too_long("coefficient")),
    "knot-cyclic-key": (_unit_plus_theta(cyclic={_LONG: [0, 1, 2]}),
                        _too_long("cyclic key")),
    "qdata-coefficient": (_one_series(coeff="1/" + _LONG),
                          _too_long("coefficient of h^0")),
    "qdata-exponent": (_one_series(key=_LONG), _too_long("exponent")),
    # a JSON integer literal that long fails inside ``json.loads``
    "knot-json-integer": (_unit_plus_theta(t=-7).replace("-7", _LONG),
                          _too_long("JSON integer")),
    "qdata-json-integer": (_one_series(cap=-7).replace("-7", _LONG),
                           _too_long("JSON integer"))}


def _without(content: str, part: str, field: str) -> str:
    """``content`` with ``field`` deleted from the ``part`` of entry 0."""
    obj = json.loads(content)
    del obj[0][part][field]
    return json.dumps(obj)


# a field missing inside entry 0's diagram or series, with its message,
# which names the part that lacks it (it used to blame the entry)
_MISSING_INSIDE = {
    _without(content, part, field): f"entry 0: {part} has no field {field!r}"
    for content, part, field in (
        (_UNIT_KNOT, "diagram", "t"), (_UNIT_KNOT, "diagram", "edges"),
        (_one_series(), "series", "cap"), (_one_series(), "series", "min_exp"))}
# a port at slot 5 of a vertex with a cyclic order used to be read as a
# missing field 5
_BAD_SLOT = _unit_plus_theta(edges=[[[0, 0], [1, 0]], [[0, 1], [1, 2]],
                                    [[0, 5], [1, 1]]])
# an entry, diagram, series or field of another JSON type than an object,
# each with its message; they used to give Python's own wording
_NOT_OBJECTS = {
    "[1]": "entry 0 is 1, not an object",
    '[{"coeff": "1/1", "diagram": [1, 2]}]':
        "entry 0: diagram is [1, 2], not an object",
    _unit_plus_theta(cyclic=[[0, 1, 2]]):
        "entry 1: diagram field 'cyclic' is [[0, 1, 2]], not an object",
    '[{"beta": [0], "series": "1/1"}]':
        "entry 0: series is '1/1', not an object",
    _one_series().replace('{"0": "1/1"}', '[1]'):
        "entry 0: series field 'coeffs' is [1], not an object"}
# a top-level value or a beta that is not a list, each with its message;
# {} used to read as an empty file (tau^PG = 0 at exit 0, or a unit
# coefficient of 0), one entry without its list as entries of its keys,
# and a beta of 1 gave Python's own wording
_NOT_LISTS = {
    "{}": "the top-level value is {}, not a list",
    _UNIT_KNOT[1:-1]: "the top-level value is {'coeff': '1/1', ",
    _one_series()[1:-1]: "the top-level value is {'beta': [0], ",
    _qdata_with_beta(1): "beta 1 needs 1 integer coordinates"}
# JSON nested past the parser's recursion limit used to end in a traceback
_DEEP = "[" * 100_000 + "]" * 100_000
# the path names a directory, not a file
_DIRECTORY = object()
# a file whose message names the field at fault
_MESSAGE = {'[{"coeff": "1/1"}]': "entry 0 has no field 'diagram'",
            _UNIT_KNOT: "entry 0 has no field 'beta'",
            **_INEXACT_KNOTS, **_INEXACT_QDATA, **_BAD_SERIES_KEYS,
            **_BAD_CYCLIC_KEYS, **_BAD_COEFFS,
            _NEGATIVE_T: "t must be >= 0, got -1",
            **dict(_TOO_LONG.values()), **_MISSING_INSIDE, **_NOT_OBJECTS,
            **_NOT_LISTS, _BAD_SLOT: "port (0, 5): bad slot"}


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
    *(("--knot", content) for content in _INEXACT_KNOTS),
    *(("--qdata", content) for content in _INEXACT_QDATA),
    *(("--qdata", content) for content in _BAD_SERIES_KEYS),
    *(("--knot", content) for content in _BAD_CYCLIC_KEYS),
    *(("--knot" if "diagram" in content else "--qdata", content)
      for content in _BAD_COEFFS),
    ("--knot", _NEGATIVE_T),
    *(pytest.param(f"--{name.partition('-')[0]}", content, id=name)
      for name, (content, _) in _TOO_LONG.items()),
    pytest.param("--knot", _DIRECTORY, id="--knot-directory"),
    pytest.param("--knot", b"[\xff\xfe]", id="--knot-non-utf8"),
    pytest.param("--knot", "", id="--knot-empty"),
    pytest.param("--knot", "42", id="--knot-42"),
    *(("--knot" if "diagram" in content else "--qdata", content)
      for content in _MISSING_INSIDE),
    ("--knot", _BAD_SLOT),
    *(("--knot", content) for content in _NOT_OBJECTS
      if "series" not in content),
    *(("--qdata", content) for content in _NOT_OBJECTS
      if "diagram" not in content),
    *(("--knot", content) for content in _NOT_LISTS if "beta" not in content),
    *(("--qdata", content) for content in _NOT_LISTS
      if "coeff'" not in _NOT_LISTS[content]),
    pytest.param("--knot", _DEEP, id="--knot-deep"),
    pytest.param("--qdata", _DEEP, id="--qdata-deep"),
])
def test_bad_input_file_is_one_error_line(tmp_path, capsys, option, content):
    path = tmp_path / "input.json"
    if content is _DIRECTORY:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    args = ["compare", "--framing", "2", "--lie", "A1", "--order", "1",
            option, str(path)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line, = captured.err.splitlines()
    message = json.loads(line)["error"]
    assert str(path) in message
    assert _MESSAGE.get(content, "") in message


@pytest.mark.parametrize("option, content, words", [
    ("--knot", _unit_plus_theta(coeff="x" * 200_000), "coefficient '"),
    ("--knot", _unit_plus_theta(coeff="1" * 200_000), "coefficient '"),
    ("--qdata", _one_series(coeff="1/" + "x" * 200_000),
     "coefficient of h^0 '"),
    ("--qdata", _one_series(key="x" * 200_000), "exponent '"),
    ("--qdata", _one_series(cap="1" * 200_000), "cap '"),
    ("--qdata", _qdata_with_beta([0] * 200_000), "beta [0, 0, "),
    ("--qdata", json.dumps([{"beta": [int("9" * _LIMIT)],
                             "series": HSeries.one(0).to_json()}]),
     "beta [999"),
    ("--knot", _unit_plus_theta(cyclic={"0": [0, 1, 2] * 66_668}),
     "vertex 0: bad cyclic order [0, 1, 2, ")],
    ids=["knot-letters", "knot-digits", "qdata-coefficient",
         "qdata-exponent", "qdata-cap", "qdata-beta", "qdata-beta-cap",
         "knot-cyclic-order"])
def test_a_long_bad_value_is_one_short_error_line(tmp_path, capsys, option,
                                                  content, words):
    """A long value (200 000 characters or list entries, or a beta of
    4 300 digits) gives one stderr line under 1 KB that names the field:
    the message echoes the value cut to a fixed length."""
    path = tmp_path / "input.json"
    path.write_text(content)
    assert main(["compare", "--framing", "2", "--lie", "A1", "--order", "1",
                 option, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line, = captured.err.splitlines()
    assert len(captured.err.encode()) < 1024
    message = json.loads(line)["error"]
    assert f"{path}: {words}" in message


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


def test_a_report_too_long_to_print_is_one_error_line(tmp_path, capsys):
    """Each coefficient of the file has 4 299 digits, which the rule
    admits, but the report's have more than the interpreter converts to
    a string: one error line, no traceback, and the limit stays."""
    obj = omega(8).to_json()
    for entry in obj:
        if entry["coeff"] != "1/1":
            entry["coeff"] = "9" * 4299 + "/1"
    knot = tmp_path / "knot.json"
    knot.write_text(json.dumps(obj))
    assert main(["compare", "--knot", str(knot), "--framing", "2",
                 "--lie", "A1", "--order", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line, = captured.err.splitlines()
    assert "too long to print" in json.loads(line)["error"]
    assert sys.get_int_max_str_digits() == 4300


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


def test_taupg_takes_orders_up_to_its_bound(capsys):
    bound = pipeline.MAX_TAUPG_ORDER
    assert bound == 200
    assert main(["taupg", "--framing", "2", "--lie", "A1",
                 "--order", str(bound)]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == bound


def test_taupg_order_above_its_bound_is_rejected_up_front(
        capsys, monkeypatch):
    # order 1000 ran for more than a minute before the bound
    def ran(*args):
        raise AssertionError("work began before the order was checked")

    monkeypatch.setattr(cli, "lie_pair", ran)
    monkeypatch.setattr(cli, "taupg_route", ran)
    assert main(["taupg", "--framing", "2", "--lie", "A3",
                 "--order", "201"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line, = captured.err.splitlines()
    error = json.loads(line)["error"]
    assert "--order <= 200" in error and "201" in error


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


def test_gauss_suite_takes_orders_up_to_its_bound(capsys):
    bound = pipeline.MAX_GAUSS_ORDER
    assert bound == 40
    assert main(["verify", "--suite", "gauss", "--order", str(bound)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_gauss_suite_order_above_its_bound_is_rejected_up_front(
        capsys, monkeypatch):
    def ran(order):
        raise AssertionError("a suite ran before the order was checked")

    monkeypatch.setattr(pipeline, "_SUITES",
                        dict.fromkeys(pipeline._SUITES, ran))
    assert main(["verify", "--suite", "gauss", "--order", "41"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line, = captured.err.splitlines()
    error = json.loads(line)["error"]
    assert "--order <= 40" in error and "41" in error


@pytest.mark.parametrize("suite", ("bernoulli", "weyl", "theta", "bridge"))
def test_verify_suites_that_ignore_the_order_take_any_order(
        capsys, monkeypatch, suite):
    monkeypatch.setattr(pipeline, "_SUITES",
                        dict(pipeline._SUITES, **{suite: lambda order: []}))
    assert main(["verify", "--suite", suite, "--order", "1000"]) == 0
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
    canonical search returns from most automorphic leaves at once.  A3
    runs after A1 in the same process, so it reuses the diagram side and
    adds the largest Weyl fold the command line reaches (``_den_inv``
    through h^6 at 6 positive roots)."""
    for lie in ("A1", "A3"):
        code, obj = run(capsys, "compare", "--lie", lie, "--framing", "2",
                        "--order", "6")
        assert code == 0
        assert obj["equal"] is True and obj["routes_equal"] is True
        assert obj["certified_order"] == 6
