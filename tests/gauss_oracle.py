"""Reference gluings that glue every concrete leg matching.

``fg_integral_bijections`` is the literal bijection route of the formal
Gaussian integral: it expands exp(-strut/(2f)) as a diagram series and
glues each k-strut term into every 2k-legged term of the integrand over
all (2k)! leg bijections.  ``fg_integral``, ``pair`` and ``partial``
glue every perfect matching, bijection or injection of each term (or
term pair) and fold the results by canonicalization alone.  They are
slow but follow the definitions word for word, so the tests compare the
orbit-summed gluing tables of ``balg`` against them.

``fg_integral`` integrates a framed series exp((f/2) strut) ⊔ Y
literally: ``strut_split`` reads f off the strut coefficient and divides
the strut exponential back out, where ``balg.fg_integral`` takes f as
data and Y alone.

``reduced_integrand`` is the definition route's integrand at the
input's framing f, built literally as one series: the wheeled base ⊔
exp(-(f/48) theta), where ``pipeline.reduced_input`` returns its
framing-free coefficients in -f/48.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from lmo_kernel.balg import (
    _assert_strut_free, _pairings, _strut_count, strut, theta)
from lmo_kernel.diagrams import (
    DiagramSeries,
    StructuralError,
    canonicalize,
    glue_legs,
    relabel_union,
)
from lmo_kernel.pipeline import SurgeryInput, _wheeled_base


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


def strut_split(s: DiagramSeries) -> tuple[Fraction, DiagramSeries]:
    """Factor ``s`` as exp((f/2) strut) ⊔ Y with strut-free Y; returns
    (f, Y).  The strut content must be exactly exponential."""
    c = s.coeff(canonicalize(strut()).form)
    inv = DiagramSeries(s.imax)
    inv.add_diagram(strut(), -c)
    y = s.union(inv.exp_union())
    if any(_strut_count(form) > 0 for form in y.terms):
        raise StructuralError("strut content of the input is not exponential")
    return 2 * c, y


def fg_integral(s: DiagramSeries) -> DiagramSeries:
    """Formal Gaussian integral of a framed series: split off
    exp((f/2) strut) and pair the remainder against exp(-strut/(2f)),
    summing over every perfect matching of each term's legs."""
    f, y = strut_split(s)
    if f == 0:
        raise StructuralError(
            "framing 0 is not a rational homology sphere surgery")
    out = DiagramSeries(y.imax)
    for form, coeff in y.terms.items():
        if form.m % 2 == 1:
            continue  # no perfect matching by struts
        weight = coeff * (Fraction(-1) / f) ** (form.m // 2)
        g = form.diagram()
        for matching in _pairings(list(g.legs())):
            out.add_diagram(glue_legs(g, matching), weight)
    return out


def reduced_integrand(inp: SurgeryInput, imax: int) -> DiagramSeries:
    """The strut-free definition-route integrand at ``inp.framing``: the
    wheeled base ⊔ exp(-(f/48) theta), the theta part of the framing
    exponential exp((f/2)(strut - theta/24))."""
    arg = DiagramSeries(imax)
    arg.add_diagram(theta(), -Fraction(inp.framing, 48))
    return _wheeled_base(inp, imax).union(arg.exp_union())
