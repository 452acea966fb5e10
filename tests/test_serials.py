"""Canonical serials and signs stay what older checkouts wrote.

Component serials key ``liews._GL_POLYNOMIALS`` and fix the diagrams
that a series writes to JSON, so a faster canonical search must reach
the same serial and sign on every diagram.  ``serials.jsonl`` holds, one line per
diagram, the diagram and the ``(components, sign)`` that ``canonicalize``
gave for it once the search started from the (legs, parallel edges,
triangles) colour and refined by splitter queue.  That recording kept
the partition into classes and the sign ratios within each class of the
one before it, made on commit 6cb9d4d:

- every perfect-matching gluing of the legs of ``wheel(4)``,
  ``wheel(2) ⊔ wheel(2)`` and ``wheel(3) ⊔ wheel(1)``;
- the first 200 nonzero diagrams among random port matchings (seed 15)
  of 2 to 12 trivalent vertices and up to 6 legs: multi-edges, struts and
  several components occur.

    PYTHONPATH=src python3 tests/test_serials.py   # re-record

Re-record only when a change means to move serials, and say so.
"""

import json
import random
from pathlib import Path

from gauss_oracle import perfect_matchings, relabel_union
from lmo_kernel.balg import wheel
from lmo_kernel.diagrams import JacobiDiagram, canonicalize, glue_legs

RECORDED = Path(__file__).with_name("serials.jsonl")


def _gluings() -> list[JacobiDiagram]:
    pieces = [wheel(4), relabel_union(wheel(2), wheel(2)),
              relabel_union(wheel(3), wheel(1))]
    return [glue_legs(d, matching) for d in pieces
            for matching in perfect_matchings(list(d.legs()))]


def _random_port_matchings(n: int, seed: int) -> list[JacobiDiagram]:
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        t = rng.randint(2, 12)
        m = rng.choice([m for m in range(7) if (t + m) % 2 == 0])
        ports = [(v, s) for v in range(t) for s in (0, 1, 2)]
        ports += [(v, 0) for v in range(t, t + m)]
        rng.shuffle(ports)
        d = JacobiDiagram(t, m, tuple(zip(ports[::2], ports[1::2])))
        if canonicalize(d)[1]:
            out.append(d)
    return out


def _record(d: JacobiDiagram) -> dict:
    form, sign = canonicalize(d)
    return {"t": d.t, "m": d.m, "edges": d.edges,
            "components": form and form.components, "sign": sign}


def _tuples(x):
    return tuple(map(_tuples, x)) if isinstance(x, list) else x


def test_serials_and_signs_match_the_recorded_ones():
    lines = RECORDED.read_text().splitlines()
    assert len(lines) == 3 * 105 + 200
    for line in lines:
        rec = json.loads(line)
        d = JacobiDiagram(rec["t"], rec["m"], _tuples(rec["edges"]))
        form, sign = canonicalize(d)
        assert sign == rec["sign"], rec
        assert (form and form.components) == \
            _tuples(rec["components"]), rec


if __name__ == "__main__":
    diagrams = _gluings() + _random_port_matchings(200, seed=15)
    RECORDED.write_text("".join(
        json.dumps(_record(d), separators=(",", ":")) + "\n"
        for d in diagrams))
