"""Reference gluings that glue every concrete leg matching.

``fg_integral_bijections`` is the literal bijection route of the formal
Gaussian integral: it expands exp(-strut/(2f)) as a diagram series and
glues each k-strut term into every 2k-legged term of the integrand over
all (2k)! leg bijections.  ``fg_integral``, ``pair`` and ``partial``
glue every perfect matching, bijection or injection of each term (or
term pair) and fold the results by canonicalization alone.  They are
slow but follow the definitions word for word, so the tests compare the
orbit-summed gluing tables of ``balg`` against them.  They enumerate
matchings with ``itertools`` and ``perfect_matchings``, and build a
union of two diagrams with ``relabel_union``, never through ``balg``'s
own enumerator or ``diagrams.diagram_of``.

``fg_integral`` integrates a framed series exp((f/2) strut) ⊔ Y
literally: ``strut_split`` reads f off the strut coefficient and divides
the strut exponential back out, where ``balg.fg_integral`` takes f as
data and Y alone.

``wheeling`` is the forward wheeling map, the literal ``partial`` by
the wheels exponential, which ``balg.wheeling_inverse`` inverts.
``omega_inverse`` is the union inverse of the wheels exponential, so
that ``partial`` by it inverts the wheeling map in one gluing.

``reduced_integrand`` is the definition route's integrand at the
input's framing f, built literally as one series: the wheeled base ⊔
exp(-(f/48) theta), where ``pipeline.reduced_input`` returns its
framing-free coefficients in -f/48.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from lmo_kernel.balg import (
    _assert_strut_free, _strut_count, omega, strut, theta, wheel)
from lmo_kernel.diagrams import (
    DiagramSeries,
    JacobiDiagram,
    StructuralError,
    canonicalize,
    glue_legs,
    series_of,
)
from lmo_kernel.pipeline import SurgeryInput, _wheeled_base, knot_key
from lmo_kernel.qseries import modified_bernoulli


def perfect_matchings(items: list) -> list[list[tuple]]:
    """Every perfect matching of ``items``, as lists of pairs: the first
    item paired with each later one in turn, then the matchings of the
    rest.  An odd list has none."""
    if not items:
        return [[]]
    out = []
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1:]
        out += [[(items[0], items[i])] + m for m in perfect_matchings(rest)]
    return out


def relabel_union(d1: JacobiDiagram, d2: JacobiDiagram) -> JacobiDiagram:
    """Disjoint union of two labeled diagrams: the trivalent vertices of
    ``d1``, then of ``d2``, then the legs of ``d1``, then of ``d2``, each
    in their original order."""
    def shifted(d: JacobiDiagram, tv_shift: int, leg_shift: int) -> list:
        return [tuple((v + (tv_shift if v < d.t else leg_shift), s)
                      for v, s in e) for e in d.edges]

    return JacobiDiagram(d1.t + d2.t, d1.m + d2.m, tuple(
        shifted(d1, 0, d2.t) + shifted(d2, d1.t, d1.t + d1.m)))


def _union_with_legs(d1, d2):
    """``relabel_union(d1, d2)`` with the legs it took from each input."""
    u = relabel_union(d1, d2)
    return u, range(u.t, u.t + d1.m), range(u.t + d1.m, u.t + u.m)


def fg_integral_bijections(y: DiagramSeries, f) -> DiagramSeries:
    """Bijection-route Gaussian integral of a strut-free series."""
    f = Fraction(f)
    _assert_strut_free(y, "Gaussian integrand")
    exp_struts = series_of(strut(), y.imax,
                           coeff=Fraction(-1, 2) / f).exp_union()

    def glued():
        for form, coeff in exp_struts.terms.items():
            k = _strut_count(form)
            if k != len(form.components):
                raise AssertionError("strut exponential is impure")
            for yform, ycoeff in y.terms.items():
                if yform.m != 2 * k:
                    continue
                combined, legs1, legs2 = _union_with_legs(form.diagram(),
                                                          yform.diagram())
                for perm in itertools.permutations(legs2):
                    yield (glue_legs(combined, list(zip(legs1, perm))),
                           coeff * ycoeff)
    return DiagramSeries.of_diagrams(y.imax, glued())


def pair(d: DiagramSeries, y: DiagramSeries) -> DiagramSeries:
    """Bracket pairing: sum over all bijections between the legs of each
    term pair; zero on leg-count mismatch.

    ``y`` must be strut-free so no gluing can close a circle.
    """
    d._check_policy(y)
    _assert_strut_free(y, "pairing target")

    def glued():
        for f1, c1 in d.terms.items():
            for f2, c2 in y.terms.items():
                if f1.m != f2.m:
                    continue
                if f1.t + f2.t > d.imax:
                    continue
                g1, g2 = f1.diagram(), f2.diagram()
                combined, legs1, legs2 = _union_with_legs(g1, g2)
                coeff = c1 * c2
                for perm in itertools.permutations(legs2):
                    yield glue_legs(combined, list(zip(legs1, perm))), coeff
    return DiagramSeries.of_diagrams(d.imax, glued())


def partial(d: DiagramSeries, target: DiagramSeries) -> DiagramSeries:
    """Gluing operator: all legs of each ``d`` term glued to some subset
    of legs of each ``target`` term (injections)."""
    d._check_policy(target)
    _assert_strut_free(d, "gluing operator argument")

    def glued():
        for f1, c1 in d.terms.items():
            for f2, c2 in target.terms.items():
                if f1.m > f2.m:
                    continue
                if f1.t + f2.t > d.imax:
                    continue
                g1, g2 = f1.diagram(), f2.diagram()
                combined, legs1, legs2 = _union_with_legs(g1, g2)
                coeff = c1 * c2
                for sel in itertools.permutations(legs2, len(legs1)):
                    yield glue_legs(combined, list(zip(legs1, sel))), coeff
    return DiagramSeries.of_diagrams(d.imax, glued())


def wheeling(s: DiagramSeries) -> DiagramSeries:
    """The wheeling map: partial gluing by the wheels exponential."""
    return partial(omega(s.imax), s)


def omega_inverse(imax: int) -> DiagramSeries:
    """The union inverse of ``omega``: exp of the wheel sum with negated
    coefficients."""
    return DiagramSeries.of_diagrams(imax, (
        (wheel(m), -modified_bernoulli(m))
        for m in range(1, imax // 2 + 1))).exp_union()


def strut_split(s: DiagramSeries) -> tuple[Fraction, DiagramSeries]:
    """Factor ``s`` as exp((f/2) strut) ⊔ Y with strut-free Y; returns
    (f, Y).  The strut content must be exactly exponential."""
    c = s.coeff(canonicalize(strut())[0])
    y = s.union(series_of(strut(), s.imax, coeff=-c).exp_union())
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

    def glued():
        for form, coeff in y.terms.items():
            if form.m % 2 == 1:
                continue  # no perfect matching by struts
            weight = coeff * (Fraction(-1) / f) ** (form.m // 2)
            g = form.diagram()
            for matching in perfect_matchings(list(g.legs())):
                yield glue_legs(g, matching), weight
    return DiagramSeries.of_diagrams(y.imax, glued())


def reduced_integrand(inp: SurgeryInput, imax: int) -> DiagramSeries:
    """The strut-free definition-route integrand at ``inp.framing``: the
    wheeled base ⊔ exp(-(f/48) theta), the theta part of the framing
    exponential exp((f/2)(strut - theta/24))."""
    arg = series_of(theta(), imax, coeff=-Fraction(inp.framing, 48))
    return _wheeled_base(knot_key(inp), imax).union(arg.exp_union())
