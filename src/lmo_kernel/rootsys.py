"""Root systems of type A (rank <= 7), Weyl groups, lattice-exponential
sums, and the surgery formula for the perturbative invariant.

Weights live in simple-root coordinates throughout; the bilinear form
is the symmetrized Cartan matrix in the normalization where every root
has squared length 2.  Everything else comes from that matrix by one
reflection closure: the roots are the closure of the simple roots under
the simple reflections, and the Weyl group is kept as the orbit of rho
with the sign of each element (rho is regular, so w -> w(rho) is one to
one and W is never enumerated as matrices).  ``build_root_system``
makes A1 to A7; the command line offers A1 to A3 (``pipeline``).

Lattice coordinates are integers: the Gram matrix, the roots and every
beta of a lattice sum are ``int`` tuples.  Only rho and its Weyl orbit
are half-integral; they keep ``Fraction`` coordinates.  The sums over
such points (``_square_sum``, ``_root_product``) scale them by their
common denominator, 2 in practice, add integer keys and scale each key
back at the end, to an ``int`` where it is integral.  Equal ``int`` and
``Fraction`` tuples hash and compare equal, so a map reads the same
whichever it holds.

Lattice exponentials q^(beta, lambda) stay symbolic until coefficient
extraction, since the monomials (beta, lambda)^j are linearly dependent
across beta while the exponential presentation is canonical.  A lattice
sum is a plain map {beta: Laurent series}, nonzero series only, read
from and written to the expansion-data format by
``lattice_sum_from_json`` / ``lattice_sum_to_json``.  Every Weyl double
sum over w, w' of sign(ww') q^(w(rho)+w'(rho), .) is built by
``_square_sum``.

``tau_pg`` reads a norm-class map {|beta|^2: (class sums of [h^k]
g_beta, smallest cap)}, and both Gaussian routes read that map, each
integrating a class in its own way.  ``norm_classes`` makes it from an
expansion-data file's lattice sum in one pass.  The built-in unknot's
map comes from ``unknot_classes`` without any lattice sum: |beta|^2 is
W-invariant, so the Weyl fold beta = w(rho + u(rho)) counts each class
from the |W| points rho + u(rho), and every g_beta is its count times
one series.  ``quantum_dim_sq_shifted`` still builds the unfolded
|W|^2-point sum, to write it as expansion data.  The Weyl prefactor is
computed only to the order the product with the Gaussian sum can show.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, mul

from .qseries import (
    HSeries, PoleError, q_power, series_sum, sinh_ratio, sum_products)

#: A lattice vector in simple-root coordinates.
Vec = tuple[int, ...]
#: A weight that may be half-integral, such as rho.
Weight = tuple[Fraction, ...]
#: {|beta|^2: (class sums of [h^k] g_beta, smallest cap)}: ``norm_classes``,
#: ``unknot_classes``
NormClasses = dict[Fraction, tuple[dict[int, Fraction], int]]

#: The labels ``build_root_system`` accepts.
TYPE_A_LABELS = ("A1", "A2", "A3", "A4", "A5", "A6", "A7")


class RootSystemError(ValueError):
    pass


def _scaled(x, d: int) -> int:
    """d * x for a rational x whose denominator divides d."""
    return x.numerator * (d // x.denominator)


def _unscaled(n: int, d: int):
    """n / d: an ``int`` when d divides n, else a ``Fraction``."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def _common_denominator(xs) -> int:
    return math.lcm(*(x.denominator for x in xs))


@dataclass(frozen=True)
class RootSystem:
    label: str
    rank: int
    gram: tuple[Vec, ...]          # (alpha_i, alpha_j)
    pos_roots: tuple[Vec, ...]     # in simple-root coordinates
    rho: Weight
    weyl: tuple[tuple[Weight, int], ...]   # sorted (w(rho), sign w)

    def inner(self, x, y) -> Fraction:
        # x . (G y): integer arithmetic on integer coordinates
        return Fraction(sum(map(mul, x, [sum(map(mul, row, y))
                                          for row in self.gram])))

    def norm_sq(self, x) -> Fraction:
        return self.inner(x, x)

    @property
    def order(self) -> int:
        return len(self.weyl)

    @property
    def num_pos(self) -> int:
        return len(self.pos_roots)


def _reflection_closure(gram, seeds) -> dict[Vec, int]:
    """Close ``seeds`` (sign 1) under the simple reflections; a newly
    reached point s_i(x) gets the sign -sign(x)."""
    signs = dict.fromkeys(seeds, 1)
    todo = list(signs)
    while todo:
        x = todo.pop()
        for i, row in enumerate(gram):
            # s_i(x) = x - (x, alpha_i) alpha_i, as every root has length^2 2
            y = x[:i] + (x[i] - sum(map(mul, row, x)),) + x[i + 1:]
            if y not in signs:
                signs[y] = -signs[x]
                todo.append(y)
    return signs


@lru_cache(maxsize=None)
def build_root_system(label: str) -> RootSystem:
    """Type A_1 to A_7 from its Cartan matrix: the roots are the
    reflection closure of the simple roots, the positive ones those with
    nonnegative coordinates, and W is the signed reflection closure of
    rho, taken on 2 rho so that it runs on integers."""
    if label not in TYPE_A_LABELS:
        raise RootSystemError(f"unsupported root system {label!r}")
    r = int(label[1:])
    gram = tuple(tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0)
                       for j in range(r)) for i in range(r))
    simple = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    roots = _reflection_closure(gram, simple)
    pos = sorted(a for a in roots if min(a) >= 0)
    # rho is half the sum of the positive roots
    rho2 = tuple(map(sum, zip(*pos)))
    orbit = sorted(_reflection_closure(gram, [rho2]).items())
    weyl = tuple((tuple(Fraction(v, 2) for v in x), sign) for x, sign in orbit)

    rs = RootSystem(label=label, rank=r, gram=gram, pos_roots=tuple(pos),
                    rho=tuple(Fraction(v, 2) for v in rho2), weyl=weyl)
    if rs.order != math.factorial(r + 1) or rs.num_pos != r * (r + 1) // 2:
        raise RootSystemError("Weyl group enumeration failed")
    for a in pos:
        if rs.inner(rs.rho, a) <= 0:
            raise RootSystemError("rho is not dominant")
    return rs


# ---------------------------------------------------------------------------
# lattice-exponential sums
# ---------------------------------------------------------------------------

def lattice_sum_from_json(obj: list) -> dict[Vec, HSeries]:
    """Read expansion data as {beta: g_beta}: entries that share a beta
    add in file order, and a sum that comes out zero is dropped."""
    out: dict[Vec, HSeries] = {}
    for entry in obj:
        beta = tuple(entry["beta"])
        series = HSeries.from_json(entry["series"])
        if beta in out:
            series = out[beta] + series
        if series.is_zero():
            out.pop(beta, None)
        else:
            out[beta] = series
    return out


def lattice_sum_to_json(E: dict[Vec, HSeries]) -> list:
    """Expansion data as a JSON list, one entry per beta in sorted order."""
    out = []
    for beta, series in sorted(E.items()):
        if any(x.denominator != 1 for x in beta):
            raise RootSystemError("non-integral lattice vector in dump")
        out.append({"beta": [int(x) for x in beta],
                    "series": series.to_json()})
    return out


def _root_product(rs: RootSystem, factor) -> dict[tuple, Fraction]:
    """Expand prod over alpha > 0 of sum c q^(t alpha) over the pairs
    (t, c) of ``factor``."""
    d = _common_denominator(t for t, _ in factor)
    out = {(0,) * rs.rank: 1}
    for alpha in rs.pos_roots:
        steps = [(tuple([_scaled(t, d) * a for a in alpha]), c)
                 for t, c in factor]
        out = sum_products((tuple(map(add, mu, v)), c, s)
                           for mu, c in out.items() for v, s in steps)
    return {tuple([_unscaled(m, d) for m in mu]): c for mu, c in out.items()}


def _square_sum(a: dict) -> dict[tuple, Fraction]:
    """The square of a lattice sum with scalar coefficients."""
    d = _common_denominator(x for m in a for x in m)
    pts = [(tuple([_scaled(x, d) for x in m]), c) for m, c in a.items()]
    out = sum_products((tuple(map(add, m1, m2)), c1, c2)
                       for m1, c1 in pts for m2, c2 in pts)
    return {tuple([_unscaled(x, d) for x in m]): c for m, c in out.items()}


@dataclass(frozen=True)
class WeylDenominatorReport:
    product: tuple
    alternating_sum: tuple
    squared_product: tuple
    squared_sum: tuple
    equal: bool
    equal_squared: bool


def weyl_denominator(rs: RootSystem) -> WeylDenominatorReport:
    """Expand both sides of the denominator identity and compare exactly;
    the squared identity expands prod (q^alpha - 2 + q^-alpha) on its own
    and meets the square of the alternating sum.

    Meant for A5 and below: the squared check needs the full |W|^2-point
    square of the alternating sum (518 400 pairs at A5, 1.6e9 at A7)."""
    half = Fraction(1, 2)
    prod = _root_product(rs, ((half, 1), (-half, -1)))
    alt = dict(rs.weyl)
    prod2 = _root_product(rs, ((1, 1), (0, -2), (-1, 1)))
    alt2 = _square_sum(alt)
    as_t = lambda d: tuple(sorted(d.items()))
    return WeylDenominatorReport(
        product=as_t(prod), alternating_sum=as_t(alt),
        squared_product=as_t(prod2), squared_sum=as_t(alt2),
        equal=prod == alt, equal_squared=prod2 == alt2)


def quantum_dim_sq_shifted(rs: RootSystem, cap: int) -> dict[Vec, HSeries]:
    """Shifted squared quantum dimension of the unknot:
    [sum over w, w' of sign(ww') q^(w(rho)+w'(rho), .)] divided by the
    lambda-free series prod_{a>0} (q^((rho,a)/2) - q^(-(rho,a)/2))^2.

    The g_beta are Laurent series with poles of depth 2 * num_pos.
    """
    P = rs.num_pos
    work = cap + 4 * P
    den = HSeries.one(work)
    for alpha in rs.pos_roots:
        c = rs.inner(rs.rho, alpha)
        factor = HSeries({1: c}, work) * sinh_ratio(c, work)
        den = den * factor * factor
    # every product with a valuation-1 factor but the first raises the
    # cap by one, so den has cap work + 2P - 1 and den_inv, of valuation
    # -2P, cap cap + 2P - 1 (A1 at cap 4: 5; A3 at cap 2: 13)
    den_inv = den.inverse()
    return {beta: den_inv.scale(count)
            for beta, count in _square_sum(dict(rs.weyl)).items()}


def norm_classes(rs: RootSystem, E: dict[Vec, HSeries]) -> NormClasses:
    """The norm classes of a lattice sum, from one pass over E:
    {|beta|^2: (sums, cap)}, where sums[k] is the sum of [h^k] g_beta
    over the class (every k, nonzero sums only) and cap the smallest cap
    among its g_beta.  |beta|^2 is taken in the arithmetic of the keys,
    ``int`` on integer keys, and made a ``Fraction`` once per class."""
    members: dict = {}
    for beta, g in E.items():
        n = sum(map(mul, beta, [sum(map(mul, row, beta)) for row in rs.gram]))
        members.setdefault(n, []).append(g)
    return {Fraction(n): (sum_products((k, c, 1) for g in gs
                                       for k, c in g.coeffs.items()),
                          min(g.cap for g in gs))
            for n, gs in members.items()}


def unknot_classes(rs: RootSystem, cap: int) -> NormClasses:
    """The norm classes of ``quantum_dim_sq_shifted(rs, cap)`` from |W|
    points instead of |W|^2, their sums read through h^cap.

    |beta|^2 is W-invariant and every beta = w(rho) + w'(rho) is
    w(rho + u(rho)) with u = w^-1 w', so the signed count of the class of
    n is |W| times the sum of sign(u) over the u with |rho + u(rho)|^2 =
    n.  Every g_beta is its count times the one series den_inv below, so
    a class's sums are its count times den_inv.  A class whose count
    cancels is left out: its sums are zero."""
    P = rs.num_pos
    work = cap + 2 * P
    # prod_{a>0} (q^(c/2) - q^(-c/2))^2 with c = (rho, a) is h^2P times
    # the square of prod c * sinh_ratio(c): invert that unit through
    # h^(cap + 2P), then shift by h^-2P
    unit = HSeries.one(work)
    for alpha in rs.pos_roots:
        c = rs.inner(rs.rho, alpha)
        unit = unit * sinh_ratio(c, work).scale(c)
    den_inv = (unit * unit).inverse().shift(-2 * P)
    # d^2 |rho + u(rho)|^2 = 2 d^2 |rho|^2 + 2 d^2 (u(rho), rho), on the
    # integer points d rho and d u(rho)
    d = _common_denominator(rs.rho)
    rho = [_scaled(x, d) for x in rs.rho]
    g_rho = [sum(map(mul, row, rho)) for row in rs.gram]
    rho_sq = sum(map(mul, rho, g_rho))
    counts: dict[int, int] = {}
    for u_rho, sign in rs.weyl:
        n = 2 * (rho_sq + sum(map(mul, [_scaled(x, d) for x in u_rho],
                                  g_rho)))
        counts[n] = counts.get(n, 0) + sign
    return {Fraction(n, d * d): ({k: rs.order * count * c
                                  for k, c in den_inv.coeffs.items()}, cap)
            for n, count in counts.items() if count}


def gaussian_on_exponentials(rs: RootSystem, classes: NormClasses,
                             f, cap: int) -> HSeries:
    """Closed form of the Gaussian contraction on lattice exponentials:
    q^(beta, .) integrates to exp(-h |beta|^2 / (2f)), so the g_beta of
    one norm class (``norm_classes``) are summed first, at the smallest
    cap among them, and integrated together."""
    f = Fraction(f)
    P = rs.num_pos
    out = [HSeries.zero(cap)]
    for bsq, (sums, ccap) in classes.items():
        gauss = q_power(-bsq / (2 * f), cap + 2 * P)
        S = HSeries({k: b for k, b in sums.items() if k <= ccap}, ccap)
        out.append((S * gauss).truncate(cap))
    return series_sum(out)


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _gaussian_sum_route(classes: NormClasses, f, cap: int) -> HSeries:
    """Independent route through the extracted c-coefficients:
    sum of c_{beta,2j,n} (2j-1)!! (-|beta|^2/f)^j h^(n-j), with the
    [h^k] g_beta of one norm class (``norm_classes``) summed before the
    j loop.

    The class sum b_k of [h^k] g_beta gives c_{beta,2j,k+2j} summed over
    the class as b_k / (2j)!, so [h^k] of the class meets the per-class
    weight (2j-1)!! (-|beta|^2/f)^j / (2j)! at h^(k+j)."""
    f = Fraction(f)
    terms = []
    for bsq, (bs, _) in classes.items():
        x = -bsq / f
        weights = [double_factorial(2 * j - 1) * x ** j / math.factorial(2 * j)
                   for j in range(cap - min(bs, default=cap) + 1)]
        terms += ((k + j, b, w) for k, b in bs.items() if k <= cap
                  for j, w in enumerate(weights[:cap - k + 1]))
    return HSeries(sum_products(terms), cap)


def tau_pg(rs: RootSystem, classes: NormClasses, f: int,
           cap: int) -> HSeries:
    """Perturbative invariant of surgery with framing f, from the norm
    classes of the shifted expansion data of the zero-framed knot
    (``norm_classes`` of a lattice sum, or ``unknot_classes``).

    Evaluates the surgery formula literally through the extracted
    c-coefficients and, as an internal consistency requirement, through
    the closed Gaussian-on-exponentials form; the two must agree and the
    result must be pole-free.  Both read the one class map.
    """
    if f == 0:
        raise RootSystemError("framing 0 is not a rational homology sphere")
    s = 1 if f > 0 else -1
    P = rs.num_pos
    S_sum = _gaussian_sum_route(classes, f, cap)
    S_exp = gaussian_on_exponentials(rs, classes, f, cap)
    if S_sum != S_exp:
        raise RootSystemError("Gaussian sum route disagrees with the "
                              "exponential route")
    # out = pre * S is read through h^cap and pre has valuation P: pre is
    # needed only through h^(cap - v(S)), and at least through h^P, so
    # that its leading term, which sets the valuation of out, is kept
    vs = S_sum.valuation()
    work = cap + 2 * P if vs is None else min(cap + 2 * P, max(cap - vs, P))
    rho_sq = rs.norm_sq(rs.rho)
    pre = HSeries({0: Fraction(1, rs.order)}, work)
    pre = pre * q_power(Fraction(s - f, 2) * rho_sq, work)
    for alpha in rs.pos_roots:
        pre = pre * (HSeries.one(work) - q_power(s * rs.inner(rs.rho, alpha),
                                                 work))
    out = pre * S_sum
    v = out.valuation()
    if v is not None and v < 0:
        raise PoleError("perturbative invariant came out polar")
    return out.truncate(min(cap, out.cap))


def gaussian_weyl_closed_form(rs: RootSystem, f, cap: int) -> HSeries:
    """|W| * prod_{a>0} (q^(-(rho,a)/f) - 1): the value of the Gaussian
    contraction on the squared alternating Weyl sum."""
    f = Fraction(f)
    out = HSeries({0: rs.order}, cap)
    for alpha in rs.pos_roots:
        out = out * (q_power(-rs.inner(rs.rho, alpha) / f, cap + 1)
                     - HSeries.one(cap + 1))
    return out.truncate(cap)
