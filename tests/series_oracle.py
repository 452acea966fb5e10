"""Test-only oracles for the series fast paths.

``sum_products`` and ``mul`` add ``Fraction``s one term at a time, as
the kernel did before its sums accumulated integer numerators; they are
the oracles of ``qseries.sum_products`` and ``HSeries.__mul__``.
``exp`` and ``inverse`` are the power-loop and geometric-series versions
of ``HSeries.exp`` / ``HSeries.inverse`` (O(n^3) in the cap), written as
functions of the series (``self``); ``q_power`` is ``exp`` of c h.
``at_framing`` reads a framing polynomial's terms one ``Fraction``
product at a time, each power of f taken once: the oracle of the
integer rows of ``qseries.at_framing``.
``gaussian_on_exponentials`` and ``gaussian_sum_route`` are the two
Gaussian routes of ``tau_pg`` that integrate every lattice vector beta
on its own, with no grouping by |beta|^2, and ``tau_pg`` is the surgery
formula on them with the literal Weyl prefactor (``weyl_prefactor``, one
product per root) expanded through h^(cap + 2P), whatever part of it the
product reads.  ``diagram_sum`` and
``diagram_union`` add the terms of ``DiagramSeries`` sums and
disjoint-union products one ``Fraction`` at a time under the truncation
bound.  The fast code in ``lmo_kernel`` must
agree with them exactly.  ``coeff_of`` reads the coefficient of a
concrete diagram from a ``DiagramSeries``.
"""

from fractions import Fraction

from lmo_kernel.diagrams import canonicalize
from lmo_kernel.qseries import HSeries, PoleError, SeriesError
from lmo_kernel.rootsys import (
    RootSystem, RootSystemError, Vec, double_factorial)


def sum_products(terms) -> dict:
    """{key: sum(x * y, Fraction(0)) over the terms (key, x, y)}, nonzero
    sums only."""
    products: dict = {}
    for key, x, y in terms:
        products.setdefault(key, []).append(Fraction(x) * Fraction(y))
    sums = {key: sum(xs, Fraction(0)) for key, xs in products.items()}
    return {key: v for key, v in sums.items() if v}


def at_framing(poly: dict, f, cap: int) -> HSeries:
    """The terms {(e, n): c} of ``poly`` at the framing ``f``, read
    through h^cap: each power of f is taken once, and every term below
    the cap adds one ``Fraction`` product."""
    f = Fraction(f)
    powers = {e: f ** e for e in {e for e, _ in poly}}
    return HSeries(sum_products((n, powers[e], a) for (e, n), a in poly.items()
                                if n <= cap), cap)


def mul(self: HSeries, other: HSeries) -> HSeries:
    """Series product, one ``Fraction`` product and sum per pair of
    coefficients."""
    va = self.valuation()
    vb = other.valuation()
    va = self.cap + 1 if va is None else va
    vb = other.cap + 1 if vb is None else vb
    cap = min(self.cap + vb, other.cap + va)
    out: dict[int, Fraction] = {}
    for i, a in self.coeffs.items():
        for j, b in other.coeffs.items():
            k = i + j
            if k > cap:
                continue
            out[k] = out.get(k, Fraction(0)) + a * b
    return HSeries(out, cap)


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


def q_power(c, cap: int) -> HSeries:
    """q^c = exp(c*h) through the power loop of ``exp``."""
    return exp(HSeries({1: c}, cap))


def gaussian_on_exponentials(rs: RootSystem, E: dict[Vec, HSeries],
                             f, cap: int) -> HSeries:
    """Closed form of the Gaussian contraction on lattice exponentials:
    q^(beta, .) integrates to exp(-h |beta|^2 / (2f))."""
    f = Fraction(f)
    P = rs.num_pos
    out = HSeries.zero(cap)
    for beta, g in E.items():
        gauss = q_power(-rs.norm_sq(beta) / (2 * f), cap + 2 * P)
        out = out + (g * gauss).truncate(cap)
    return out


def gaussian_sum_route(rs: RootSystem, E: dict[Vec, HSeries],
                       f, cap: int) -> HSeries:
    """Independent route through the extracted c-coefficients:
    sum of c_{beta,2j,n} (2j-1)!! (-|beta|^2/f)^j h^(n-j)."""
    import math
    f = Fraction(f)
    coeffs: dict[int, Fraction] = {}
    for beta, g in E.items():
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


def weyl_prefactor(rs: RootSystem, f: int, work: int) -> HSeries:
    """The literal Weyl prefactor (1/|W|) q^((s - f)|rho|^2/2) prod_{a>0}
    (1 - q^(s (rho, a))), s = sign(f), one product per factor, each
    factor expanded through h^work; the product comes out known through
    h^(work + P - 1)."""
    s = 1 if f > 0 else -1
    pre = HSeries({0: Fraction(1, rs.order)}, work)
    pre = pre * q_power(Fraction(s - f, 2) * rs.norm_sq(rs.rho), work)
    for alpha in rs.pos_roots:
        pre = pre * (HSeries.one(work) - q_power(s * rs.inner(rs.rho, alpha),
                                                 work))
    return pre


def tau_pg(rs: RootSystem, E: dict[Vec, HSeries], f: int,
           cap: int) -> HSeries:
    """Perturbative invariant of surgery with framing f: both per-beta
    routes must agree, and the prefactor is expanded through
    h^(cap + 2P)."""
    if f == 0:
        raise RootSystemError("framing 0 is not a rational homology sphere")
    S_sum = gaussian_sum_route(rs, E, f, cap)
    S_exp = gaussian_on_exponentials(rs, E, f, cap)
    if S_sum != S_exp:
        raise RootSystemError("Gaussian sum route disagrees with the "
                              "exponential route")
    out = weyl_prefactor(rs, f, cap + 2 * rs.num_pos) * S_sum
    v = out.valuation()
    if v is not None and v < 0:
        raise PoleError("perturbative invariant came out polar")
    return out.truncate(min(cap, out.cap))


def agrees_with(self: HSeries, other: HSeries, upto: int) -> bool:
    """Exact coefficient equality on every exponent <= upto."""
    if upto > self.cap or upto > other.cap:
        raise SeriesError("comparison order exceeds a cap")
    for k in set(self.coeffs) | set(other.coeffs):
        if k <= upto and self.coeffs.get(k, 0) != other.coeffs.get(k, 0):
            return False
    return True


def _bounded_terms(imax: int, terms) -> dict:
    """{form: coefficient} of the terms (form, c) added one at a time;
    forms with more than imax vertices or 2 * imax legs are dropped, and
    so are zero sums."""
    out: dict = {}
    for form, c in terms:
        if form.t <= imax and form.m <= 2 * imax:
            out[form] = out.get(form, Fraction(0)) + c
    return {form: c for form, c in out.items() if c}


def diagram_sum(a, b) -> dict:
    """The terms of the sum of two diagram series."""
    return _bounded_terms(a.imax, [*a.terms.items(), *b.terms.items()])


def diagram_union(a, b) -> dict:
    """The terms of the disjoint-union product of two diagram series."""
    return _bounded_terms(a.imax, [(f1.union(f2), c1 * c2)
                                   for f1, c1 in a.terms.items()
                                   for f2, c2 in b.terms.items()])


def coeff_of(s, d) -> Fraction:
    """Coefficient of a concrete diagram d in the series s, orientation
    sign included."""
    form, sign = canonicalize(d)
    if not sign:
        return Fraction(0)
    return s.coeff(form) * sign
