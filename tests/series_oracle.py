"""Test-only oracles for the series fast paths.

``exp`` and ``inverse`` are the power-loop and geometric-series versions
of ``HSeries.exp`` / ``HSeries.inverse`` (O(n^3) in the cap), written as
functions of the series (``self``).  ``gaussian_on_exponentials`` and
``gaussian_sum_route`` are the two Gaussian routes of ``tau_pg`` that
integrate every lattice vector beta on its own, with no grouping by
|beta|^2.  The fast code in ``lmo_kernel`` must agree with them exactly.
"""

from fractions import Fraction

from lmo_kernel.qseries import HSeries, SeriesError, q_power
from lmo_kernel.rootsys import (
    ExponentialWeightSum,
    RootSystem,
    double_factorial,
)


def exp(self: HSeries) -> HSeries:
    """exp of a series with no constant or polar part."""
    v = self.valuation()
    if v is None:
        return HSeries.one(self.cap)
    if v < 1:
        raise SeriesError("exp requires valuation >= 1")
    out = HSeries.one(self.cap)
    term = HSeries.one(self.cap)
    k = 0
    while True:
        k += 1
        if k * v > self.cap:
            break
        term = (term * self).scale(Fraction(1, k))
        if term.is_zero():
            break
        out = out + term
    return out


def inverse(self: HSeries) -> HSeries:
    """Multiplicative inverse; needs a nonzero leading coefficient."""
    v = self.valuation()
    if v is None:
        raise ZeroDivisionError("inverse of the zero series")
    lead = self.coeffs[v]
    # u = self / (lead * h^v) - 1 has valuation >= 1
    u = HSeries({k - v: c / lead for k, c in self.coeffs.items()},
                self.cap - v) - HSeries.one(self.cap - v)
    geo = HSeries.one(self.cap - v)
    term = HSeries.one(self.cap - v)
    uv = u.valuation()
    if uv is not None:
        k = 0
        while (k + 1) * uv <= self.cap - v:
            k += 1
            term = term * (-u)
            if term.is_zero():
                break
            geo = geo + term
    return geo.scale(1 / lead).shift(-v)


def gaussian_on_exponentials(rs: RootSystem, E: ExponentialWeightSum,
                             f, cap: int) -> HSeries:
    """Closed form of the Gaussian contraction on lattice exponentials:
    q^(beta, .) integrates to exp(-h |beta|^2 / (2f))."""
    f = Fraction(f)
    P = rs.num_pos
    out = HSeries.zero(cap)
    for beta, g in E.terms.items():
        gauss = q_power(-rs.norm_sq(beta) / (2 * f), cap + 2 * P)
        out = out + (g * gauss).truncate(cap)
    return out


def gaussian_sum_route(rs: RootSystem, E: ExponentialWeightSum,
                       f, cap: int) -> HSeries:
    """Independent route through the extracted c-coefficients:
    sum of c_{beta,2j,n} (2j-1)!! (-|beta|^2/f)^j h^(n-j)."""
    import math
    f = Fraction(f)
    coeffs: dict[int, Fraction] = {}
    for beta, g in E.terms.items():
        bsq = rs.norm_sq(beta)
        lo = g.valuation()
        if lo is None:
            continue
        for k in range(lo, g.cap + 1):
            base = g.coeff(k)
            if base == 0:
                continue
            j = 0
            while k + j <= cap:
                n = k + 2 * j
                c = base / math.factorial(2 * j)   # c_{beta,2j,n}
                term = c * double_factorial(2 * j - 1) * (-bsq / f) ** j
                if term:
                    e = n - j
                    coeffs[e] = coeffs.get(e, Fraction(0)) + term
                j += 1
    return HSeries(coeffs, cap)


def agrees_with(self: HSeries, other: HSeries, upto: int) -> bool:
    """Exact coefficient equality on every exponent <= upto."""
    if upto > self.cap or upto > other.cap:
        raise SeriesError("comparison order exceeds a cap")
    for k in set(self.coeffs) | set(other.coeffs):
        if k <= upto and self.coeffs.get(k, 0) != other.coeffs.get(k, 0):
            return False
    return True
