"""Run a fixed matrix of commands through ``cli.main`` in one process and
write each command's exit code, stdout and stderr to one file, so that the
outputs of two checkouts compare with ``cmp``:

    python3 tools/snapshot.py OUT

The matrix: ``compare`` and ``taupg`` for A1/A2 x framings {1, -1, 2, -2, 3}
x orders 2..4 and A3 x the same framings x orders 2..3, ``compare`` for
A2 and A3 at framing 2 and order 5 (closed diagrams with up to 10
trivalent vertices), two ``compute`` runs, ``compare`` and ``compute`` at
order 7 (above the largest order the vertex cap admits),
``verify --suite all --order 4``, ``compare`` on omega(8) as a knot
file, with and without ``--qdata``, and the expansion-data reader end to
end: ``taupg`` and the ``--qdata`` ``compare`` on the A1 unknot data as
written (``qdata.json``) and on the same data split into halves under
repeated betas with one extra beta that cancels (``qdata_split.json``);
the two files give the same outputs.  Last, ``taupg`` and ``compare`` at
A3, framing -2, order 3 read the A3 unknot data as written
(``qdata_a3.json``), which ties the built-in unknot's Weyl fold to the
expansion-data path at rank 3.  After them, the omega(8) knot file's
``compare`` runs again at framings -1 and 3: an uncached file knot
against the sign -1 reference surgery, and a second framing after the
first.  Last of all, ``compare`` and ``taupg`` at framings outside the
sampled five: A1 at 11, order 4; A2 at 7, order 3; A3 at -5, order 2.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lmo_kernel import balg, cli, rootsys  # noqa: E402
from lmo_kernel.qseries import HSeries  # noqa: E402


def commands() -> list[list[str]]:
    out = []
    for lie, orders in (("A1", (2, 3, 4)), ("A2", (2, 3, 4)), ("A3", (2, 3))):
        for f in (1, -1, 2, -2, 3):
            for n in orders:
                for command in ("compare", "taupg"):
                    out.append([command, "--lie", lie, "--framing", str(f),
                                "--order", str(n)])
    def knot_at(f: int) -> list[str]:
        return ["compare", "--knot", "omega8.json", "--lie", "A1",
                "--framing", str(f), "--order", "4"]

    knot = knot_at(2)
    taupg = ["taupg", "--lie", "A1", "--framing", "2", "--order", "4"]
    a3 = ["--lie", "A3", "--framing", "-2", "--order", "3", "--qdata",
          "qdata_a3.json"]
    for lie in ("A2", "A3"):
        out.append(["compare", "--lie", lie, "--framing", "2", "--order", "5"])
    return out + [
        ["compute", "--route", "both", "--lie", "A1", "--framing", "2",
         "--order", "3"],
        ["compute", "--lie", "A2", "--framing", "-2", "--order", "3"],
        ["compare", "--lie", "A1", "--framing", "2", "--order", "7"],
        ["compute", "--lie", "A1", "--framing", "2", "--order", "7"],
        ["verify", "--suite", "all", "--order", "4"],
        knot, knot + ["--qdata", "qdata.json"],
        taupg + ["--qdata", "qdata.json"],
        taupg + ["--qdata", "qdata_split.json"],
        knot + ["--qdata", "qdata_split.json"],
        ["taupg"] + a3,
        ["compare"] + a3,
    ] + [knot_at(f) for f in (-1, 3)] + [
        [command, "--lie", lie, "--framing", f, "--order", n]
        for lie, f, n in (("A1", "11", "4"), ("A2", "7", "3"),
                          ("A3", "-5", "2"))
        for command in ("compare", "taupg")]


def unknot_entries(label: str, cap: int) -> list:
    """The unknot's expansion data (the shifted squared quantum
    dimension) as a file holds it."""
    return rootsys.lattice_sum_to_json(rootsys.quantum_dim_sq_shifted(
        rootsys.build_root_system(label), cap))


def split(entries: list) -> list:
    """The same lattice sum in a file the writer never produces: every
    entry split into two halves under its beta, the second halves after
    all the first ones, and an extra beta whose two entries cancel."""
    halves = [{"beta": e["beta"], "series": HSeries.from_json(
        e["series"]).scale(Fraction(1, 2)).to_json()} for e in entries]
    extra = HSeries({-2: 1, 1: Fraction(1, 3)}, 4)
    return ([{"beta": [3], "series": extra.to_json()}] + halves + halves
            + [{"beta": [3], "series": (-extra).to_json()}])


def main(out_path: str) -> None:
    out_path, cwd = os.path.abspath(out_path), os.getcwd()
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        Path("omega8.json").write_text(json.dumps(balg.omega(8).to_json()))
        entries = unknot_entries("A1", 4)
        Path("qdata.json").write_text(json.dumps(entries))
        Path("qdata_split.json").write_text(json.dumps(split(entries)))
        Path("qdata_a3.json").write_text(json.dumps(
            unknot_entries("A3", 3)))
        for argv in commands():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(argv)
                except (Exception, SystemExit) as exc:
                    code = f"raised {type(exc).__name__}: {exc}"
            lines += [f"$ {' '.join(argv)}", f"exit {code}",
                      "stdout:", stdout.getvalue(), "stderr:",
                      stderr.getvalue()]
        os.chdir(cwd)
    Path(out_path).write_text("\n".join(lines))


if __name__ == "__main__":
    main(sys.argv[1])
