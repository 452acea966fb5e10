"""Every report the benchmark pins, recomputed through the CLI.

``perfbench/references.json`` maps each benchmark command to the exact
series of its ``compare`` report, or to the check names of its
``verify`` report.  Each command is rerun through ``cli.main`` and must
reproduce them with tolerance zero; the file is only read.
"""

import json
from pathlib import Path

import pytest

from lmo_kernel.cli import main

REFERENCES = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                         / "references.json").read_text())
SERIES_FIELDS = ("lmo_definition", "lmo_lemma", "taupg", "difference")


@pytest.mark.parametrize("command", sorted(REFERENCES))
def test_report_matches_reference(capsys, command):
    assert main(command.split()) == 0
    report = json.loads(capsys.readouterr().out)
    ref = REFERENCES[command]
    if command.startswith("verify"):
        passed = {c["name"]: c["passed"] for c in report["checks"]}
        assert report["passed"] is True
        assert all(passed.get(name) is True for name in ref["checks"])
    else:
        assert report["routes_equal"] is True and report["equal"] is True
        assert {k: report[k] for k in SERIES_FIELDS} == ref
