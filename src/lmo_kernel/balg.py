"""Operational calculus on diagram series: wheels, the wheels exponential,
leg gluing (pairing and partial gluing), the formal Gaussian integral,
and the inverse of the wheeling map.

Gluing sums run over concrete leg matchings (injections, bijections, or
perfect matchings of legs).  Automorphisms of a term permute its
matchings without changing the glued diagram or its sign, so each
automorphism orbit is glued once and weighted by its size; the folded
result of a term, or of a term pair, is memoized as a gluing table.
Closed components take part in no gluing: a table glues the open
components alone and joins the closed ones back unchanged, and a
leg-free first term glues nothing.

The framing enters the Gaussian integral only as the weight -1/f of a
strut, so ``fg_parts`` glues an integrand once, framing-free, into one
part per strut count k, and ``fg_integral`` at framing f is the sum of
the parts times (-1/f)^k.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import lru_cache

from .diagrams import (
    CanonicalForm,
    DiagramSeries,
    JacobiDiagram,
    StructuralError,
    _STRUT_SERIAL,
    canonicalize,
    glue_legs,
    leg_automorphisms,
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


def _fold_orbits(g: JacobiDiagram, gens, gluings
                 ) -> tuple[tuple[CanonicalForm, int], ...]:
    """Sum of the glued diagrams over ``gluings``, folded by canonical form.

    A gluing is a partner tuple over the legs of ``g`` (leg ``g.t + i``
    is glued to ``g.t + p[i]``; ``p[i] == i`` leaves it free).  The leg
    generators ``gens`` act by p -> s p s^-1; one member per orbit is
    glued, weighted by the orbit size.
    """
    seen: set[tuple[int, ...]] = set()
    acc: dict[CanonicalForm, int] = {}
    for p in gluings:
        if p in seen:
            continue
        seen.add(p)
        stack, size = [p], 0
        while stack:
            q = stack.pop()
            size += 1
            for s in gens:
                r = [0] * len(q)
                for i, j in enumerate(q):
                    r[s[i]] = s[j]
                r = tuple(r)
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
        cd = canonicalize(glue_legs(g, [(g.t + i, g.t + j)
                                        for i, j in enumerate(p) if i < j]))
        if not cd.is_zero:
            acc[cd.form] = acc.get(cd.form, 0) + cd.sign * size
    return tuple((form, n) for form, n in acc.items() if n)


@lru_cache(maxsize=None)
def _gluing_table(f1: CanonicalForm, f2: CanonicalForm | None = None
                  ) -> tuple[tuple[CanonicalForm, int], ...]:
    """Glued forms with signed multiplicities: all perfect matchings of
    the legs of ``f1`` alone, or all injections of the legs of ``f1``
    into the legs of ``f2`` (bijections when the counts agree).

    Closed components take part in no gluing: they pass through, joined
    to the table of the open components.  Their sign does not change,
    since a component rebuilt from its serial canonicalizes with sign +1.
    """
    if f1.m == 0:  # glues nothing
        return ((f1 if f2 is None else f1.union(f2), 1),)
    forms = (f1,) if f2 is None else (f1, f2)
    closed = [c for f in forms for c in f.components if c[1] == 0]
    if closed:
        rest = CanonicalForm(tuple(closed))
        return tuple((form.union(rest), n) for form, n in _gluing_table(
            *(CanonicalForm(tuple(c for c in f.components if c[1]))
              for f in forms)))
    g1 = f1.diagram()
    if f2 is None:
        gluings = []
        for matching in _pairings(list(range(g1.m))):
            p = [0] * g1.m
            for i, j in matching:
                p[i], p[j] = j, i
            gluings.append(tuple(p))
        return _fold_orbits(g1, leg_automorphisms(g1), gluings)
    g2 = f2.diagram()
    m1, m2 = g1.m, g2.m
    combined, _, _ = relabel_union(g1, g2)
    gens = [s + tuple(range(m1, m1 + m2)) for s in leg_automorphisms(g1)]
    gens += [tuple(range(m1)) + tuple(m1 + i for i in s)
             for s in leg_automorphisms(g2)]
    gluings = []
    for sel in itertools.permutations(range(m1, m1 + m2), m1):
        p = list(range(m1 + m2))
        for i, j in enumerate(sel):
            p[i], p[j] = j, i
        gluings.append(tuple(p))
    return _fold_orbits(combined, gens, gluings)


def _glue_terms(d: DiagramSeries, y: DiagramSeries, fits) -> DiagramSeries:
    """Sum of the gluing tables of every term pair whose leg counts
    satisfy ``fits(m1, m2)`` and whose glued diagram fits in ``imax``."""
    d._check_policy(y)

    def terms():
        for f1, c1 in d.terms.items():
            for f2, c2 in y.terms.items():
                if fits(f1.m, f2.m) and f1.t + f2.t <= d.imax:
                    coeff = c1 * c2
                    for form, n in _gluing_table(f1, f2):
                        yield form, coeff, n
    return DiagramSeries(d.imax, terms())


def pair(d: DiagramSeries, y: DiagramSeries) -> DiagramSeries:
    """Bracket pairing: sum over all bijections between the legs of each
    term pair; zero on leg-count mismatch.

    ``y`` must be strut-free so no gluing can close a circle.
    """
    _assert_strut_free(y, "pairing target")
    return _glue_terms(d, y, operator.eq)


def partial(d: DiagramSeries, target: DiagramSeries) -> DiagramSeries:
    """Gluing operator: all legs of each ``d`` term glued to some subset
    of legs of each ``target`` term (injections)."""
    _assert_strut_free(d, "gluing operator argument")
    return _glue_terms(d, target, operator.le)


def _strut_count(form) -> int:
    return sum(1 for c in form.components if c == _STRUT_SERIAL)


def _assert_strut_free(s: DiagramSeries, what: str) -> None:
    for f in s.terms:
        if _strut_count(f) > 0:
            raise StructuralError(f"{what} contains a strut component")


def fg_parts(y: DiagramSeries) -> dict[int, DiagramSeries]:
    """The framing-free parts of the Gaussian integral of a strut-free
    ``y``: part k is the sum of the gluing tables of the 2k-legged terms
    of ``y``, every perfect matching of their legs glued by struts, with
    no framing weight.  Odd-legged terms have no perfect matching and
    give no part; a part whose tables cancel is kept, and is zero."""
    _assert_strut_free(y, "Gaussian integrand")
    by_k: dict[int, list[tuple[CanonicalForm, Fraction]]] = {}
    for form, coeff in y.terms.items():
        if form.m % 2 == 0:
            by_k.setdefault(form.m // 2, []).append((form, coeff))
    return {k: DiagramSeries(y.imax, ((glued, coeff, n)
                                      for form, coeff in terms
                                      for glued, n in _gluing_table(form)))
            for k, terms in sorted(by_k.items())}


def fg_integral(y: DiagramSeries, f_override: Fraction | int) -> DiagramSeries:
    """Formal Gaussian integral of exp((f/2) strut) ⊔ y, with the framing
    f given as data and ``y`` strut-free: pair ``y`` against
    exp(-strut/(2f)), which is the sum over k of (-1/f)^k times part k
    of ``fg_parts(y)``.

    Gluing k struts into a 2k-legged term, summed over all (2k)!
    bijections, equals 2^k k! times the sum over perfect matchings of
    the term's legs.  That sum comes from the term's gluing table: one
    matching per automorphism orbit, weighted by the orbit size.  The
    bijection and full-matching sums are the test suite's oracles.
    """
    f = Fraction(f_override)
    if f == 0:
        raise StructuralError(
            "framing 0 is not a rational homology sphere surgery")
    return DiagramSeries(y.imax, (
        (form, (-1 / f) ** k, c) for k, part in fg_parts(y).items()
        for form, c in part.terms.items()))


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
