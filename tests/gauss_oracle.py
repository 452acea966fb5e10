"""Reference formal Gaussian integral: the literal bijection route.

It expands exp(-strut/(2f)) as a diagram series and glues each k-strut
term into every 2k-legged term of the integrand over all (2k)! leg
bijections.  It is slow but follows the definition word for word, so
the tests compare ``balg.fg_integral`` (perfect matchings of the legs)
against it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from lmo_kernel.balg import _assert_strut_free, _strut_count, strut
from lmo_kernel.diagrams import DiagramSeries, glue_legs, relabel_union


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
