"""Operational calculus on diagram series: wheels, the wheels exponential,
leg gluing (pairing and partial gluing), strut splitting, the formal
Gaussian integral, and the inverse of the wheeling map.

Gluing sums run over concrete port matchings (bijections, injections,
or perfect matchings of legs); isomorphic results are folded by
canonicalization, never by dividing through automorphism counts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .diagrams import (
    DiagramSeries,
    JacobiDiagram,
    StructuralError,
    canonicalize,
    glue_legs,
    relabel_union,
)
from .qseries import modified_bernoulli


def strut() -> JacobiDiagram:
    """The dashed interval: two legs, one edge, no internal vertex."""
    return JacobiDiagram(0, 2, (((0, 0), (1, 0)),))


def theta() -> JacobiDiagram:
    """Two trivalent vertices joined by three parallel edges.

    The slot matching realizes the planar counterclockwise orientation:
    the two cyclic orders traverse the shared edges in opposite senses.
    """
    return JacobiDiagram(2, 0, (((0, 0), (1, 0)),
                                ((0, 1), (1, 2)),
                                ((0, 2), (1, 1))))


def wheel(k: int) -> JacobiDiagram:
    """The 2k-wheel: a 2k-gon with one outward leg per rim vertex.

    Counterclockwise convention at rim vertex i: (leg, next rim edge,
    previous rim edge); adjacent rim vertices traverse a shared edge in
    opposite senses, matching the planar picture.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = 2 * k
    edges = []
    for i in range(n):
        edges.append(((i, 1), ((i + 1) % n, 2)))   # rim
        edges.append(((i, 0), (n + i, 0)))          # leg
    return JacobiDiagram(n, n, tuple(edges))


def omega(imax: int) -> DiagramSeries:
    """exp of the modified-Bernoulli-weighted wheel sum, truncated."""
    arg = DiagramSeries(imax)
    m = 1
    while 2 * m <= imax:
        arg.add_diagram(wheel(m), modified_bernoulli(m))
        m += 1
    return arg.exp_union()


def _pairings(items: list):
    """All perfect matchings of a list (yields lists of pairs)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for i in range(len(rest)):
        for tail in _pairings(rest[:i] + rest[i + 1:]):
            yield [(first, rest[i])] + tail


def pair(d: DiagramSeries, y: DiagramSeries) -> DiagramSeries:
    """Bracket pairing: sum over all bijections between the legs of each
    term pair; zero on leg-count mismatch.

    ``y`` must be strut-free so no gluing can close a circle.
    """
    d._check_policy(y)
    _assert_strut_free(y, "pairing target")
    out = DiagramSeries(d.imax)
    for f1, c1 in d.terms.items():
        for f2, c2 in y.terms.items():
            if f1.m != f2.m:
                continue
            if f1.t + f2.t > d.imax:
                continue
            g1, g2 = f1.diagram(), f2.diagram()
            combined, legs1, legs2 = relabel_union(g1, g2)
            coeff = c1 * c2
            for perm in itertools.permutations(legs2):
                glued = glue_legs(combined, list(zip(legs1, perm)))
                out.add_diagram(glued, coeff)
    return out


def partial(d: DiagramSeries, target: DiagramSeries) -> DiagramSeries:
    """Gluing operator: all legs of each ``d`` term glued to some subset
    of legs of each ``target`` term (injections)."""
    d._check_policy(target)
    _assert_strut_free(d, "gluing operator argument")
    out = DiagramSeries(d.imax)
    for f1, c1 in d.terms.items():
        for f2, c2 in target.terms.items():
            if f1.m > f2.m:
                continue
            if f1.t + f2.t > d.imax:
                continue
            g1, g2 = f1.diagram(), f2.diagram()
            combined, legs1, legs2 = relabel_union(g1, g2)
            coeff = c1 * c2
            for sel in itertools.permutations(legs2, len(legs1)):
                glued = glue_legs(combined, list(zip(legs1, sel)))
                out.add_diagram(glued, coeff)
    return out


@dataclass(frozen=True)
class StrutSplit:
    """Framing coefficient f and the strut-free remainder."""

    f: Fraction
    reduced: DiagramSeries


def _strut_count(form) -> int:
    from .diagrams import _STRUT_SERIAL
    return sum(1 for c in form.components if c == _STRUT_SERIAL)


def _assert_strut_free(s: DiagramSeries, what: str) -> None:
    for f in s.terms:
        if _strut_count(f) > 0:
            raise StructuralError(f"{what} contains a strut component")


def strut_split(s: DiagramSeries) -> StrutSplit:
    """Factor ``s`` as exp((f/2) strut) ⊔ Y with strut-free Y.

    The strut content must be exactly exponential; anything else is a
    malformed surgery input.
    """
    strut_form = canonicalize(strut()).form
    c = s.coeff(strut_form)
    # divide by exp(c * strut): multiply with exp(-c * strut)
    inv = DiagramSeries(s.imax)
    inv.add_diagram(strut(), -c)
    y = s.union(inv.exp_union())
    for form in y.terms:
        if _strut_count(form) > 0:
            raise StructuralError(
                "strut content of the input is not exponential")
    return StrutSplit(2 * c, y)


def fg_integral(s: DiagramSeries,
                f_override: Fraction | int | None = None) -> DiagramSeries:
    """Formal Gaussian integral: split off exp((f/2) strut) and pair the
    remainder against exp(-strut/(2f)).

    Gluing k struts into a 2k-legged term, summed over all (2k)!
    bijections, equals 2^k k! times the sum over perfect matchings of
    the term's legs; the matching form is used here and cross-checked
    against the bijection route in the test suite.
    """
    if f_override is not None:
        f = Fraction(f_override)
        _assert_strut_free(s, "pre-split Gaussian integrand")
        y = s
    else:
        split = strut_split(s)
        f, y = split.f, split.reduced
    if f == 0:
        raise StructuralError(
            "framing 0 is not a rational homology sphere surgery")
    out = DiagramSeries(y.imax)
    for form, coeff in y.terms.items():
        if form.m % 2 == 1:
            continue  # no perfect matching by struts
        k = form.m // 2
        weight = coeff * (Fraction(-1) / f) ** k
        g = form.diagram()
        for matching in _pairings(list(g.legs())):
            out.add_diagram(glue_legs(g, matching), weight)
    return out


def wheeling(s: DiagramSeries) -> DiagramSeries:
    """The wheeling map: partial gluing by the wheels exponential."""
    return partial(omega(s.imax), s)


def wheeling_inverse(s: DiagramSeries) -> DiagramSeries:
    """Inverse of the wheeling map, solved through the internal-vertex
    grading: the map is the identity plus grading-raising terms, so the
    Neumann series terminates under the truncation policy."""
    om = omega(s.imax)
    acc = s.copy()
    cur = s
    while True:
        nxt = cur + partial(om, cur).scale(-1)  # (id - wheeling)(cur)
        if nxt.is_zero():
            break
        acc = acc + nxt
        cur = nxt
    return acc
