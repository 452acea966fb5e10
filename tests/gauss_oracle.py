"""Reference gluings that glue every concrete leg matching.

``fg_integral_bijections`` is the literal bijection route of the formal
Gaussian integral: it expands exp(-strut/(2f)) as a diagram series and
glues each k-strut term into every 2k-legged term of the integrand over
all (2k)! leg bijections.  ``fg_integral``, ``pair`` and ``partial``
glue every perfect matching, bijection or injection of each term (or
term pair) and fold the results by canonicalization alone.  They are
slow but follow the definitions word for word, so the tests compare the
orbit-summed gluing tables of ``balg`` against them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from lmo_kernel.balg import (
    _assert_strut_free,
    _pairings,
    _strut_count,
    strut,
    strut_split,
)
from lmo_kernel.diagrams import (
    DiagramSeries,
    StructuralError,
    glue_legs,
    relabel_union,
)


def fg_integral_bijections(y: DiagramSeries, f) -> DiagramSeries:
    """Bijection-route Gaussian integral of a strut-free series."""
    f = Fraction(f)
    _assert_strut_free(y, "Gaussian integrand")
    out = DiagramSeries(y.imax)
    struts = DiagramSeries(y.imax)
    struts.add_diagram(strut(), Fraction(-1, 2) / f)
    exp_struts = struts.exp_union()
    for form, coeff in exp_struts.terms.items():
        k = _strut_count(form)
        if k != len(form.components):
            raise AssertionError("strut exponential is impure")
        for yform, ycoeff in y.terms.items():
            if yform.m != 2 * k:
                continue
            combined, legs1, legs2 = relabel_union(form.diagram(),
                                                   yform.diagram())
            for perm in itertools.permutations(legs2):
                out.add_diagram(glue_legs(combined, list(zip(legs1, perm))),
                                coeff * ycoeff)
    return out


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
