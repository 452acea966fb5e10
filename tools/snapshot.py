"""Run a fixed matrix of commands through ``cli.main`` in one process and
write each command's exit code, stdout and stderr to one file, so that the
outputs of two checkouts compare with ``cmp``:

    python3 tools/snapshot.py OUT

The matrix: ``compare`` and ``taupg`` for A1/A2 x framings {1, -1, 2, -2, 3}
x orders 2..4 and A3 x the same framings x orders 2..3, ``compare`` for
A2 and A3 at framing 2 and order 5 (closed diagrams with up to 10
trivalent vertices), two ``compute`` runs, ``compare`` and ``compute`` at
order 7 (above the largest order the vertex cap admits),
``verify --suite all --order 4``, and ``compare`` on omega(8) as a knot
file, with and without ``--qdata``.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lmo_kernel import balg, cli, pipeline  # noqa: E402


def commands() -> list[list[str]]:
    out = []
    for lie, orders in (("A1", (2, 3, 4)), ("A2", (2, 3, 4)), ("A3", (2, 3))):
        for f in (1, -1, 2, -2, 3):
            for n in orders:
                for command in ("compare", "taupg"):
                    out.append([command, "--lie", lie, "--framing", str(f),
                                "--order", str(n)])
    knot = ["compare", "--knot", "omega8.json", "--lie", "A1", "--framing",
            "2", "--order", "4"]
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
    ]


def main(out_path: str) -> None:
    out_path, cwd = os.path.abspath(out_path), os.getcwd()
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        Path("omega8.json").write_text(json.dumps(balg.omega(8).to_json()))
        Path("qdata.json").write_text(
            json.dumps(pipeline.unknot_qdata("A1", 4).to_json()))
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
