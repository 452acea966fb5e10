"""The two LMO routes composed at one framing, as series.

``lmo_via_definition`` evaluates the numerator polynomial at f, inverts
the matching-sign reference surgery and multiplies; ``lmo_via_lemma``
builds exp(((3 sign(f) - f)/48) theta_h) at f and multiplies the wheels
pairing, that exponential and the Gaussian integral at f.  They read the
framing-free pieces of ``pipeline`` and do every framing-dependent step
with ``HSeries`` arithmetic, so they are the oracle of the route
polynomials, which fold those steps in once per sign.
"""

from fractions import Fraction

from lmo_kernel.pipeline import (
    SurgeryInput, _definition_poly, _lemma_poly, _omega_pair_scalar,
    _reference_surgery, _theta_weight, knot_key)
from lmo_kernel.qseries import HSeries, at_framing


def lmo_via_definition(inp: SurgeryInput, label: str, order: int) -> HSeries:
    num = at_framing(_definition_poly(knot_key(inp), label, order),
                     inp.framing)
    out = num * _reference_surgery(label, inp.sign, order).inverse()
    return out.truncate(min(order, out.cap))


def lmo_via_lemma(inp: SurgeryInput, label: str, order: int) -> HSeries:
    fgv = at_framing(_lemma_poly(knot_key(inp), label, order),
                     inp.framing)
    theta_h = _theta_weight(label, order)
    factor = theta_h.scale(Fraction(3 * inp.sign - inp.framing, 48)).exp()
    out = _omega_pair_scalar(label, order) * factor * fgv
    return out.truncate(min(order, out.cap))
