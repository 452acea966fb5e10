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
are half-integral; they keep ``Fraction`` coordinates.  Every Weyl
double sum and root product is one ``_lattice_product``: it scales the
points by their common denominator, 2 in practice, adds integer keys
and scales each key back, to an ``int`` where it is integral.  Equal
``int`` and ``Fraction`` tuples hash and compare equal, so a map reads
the same whichever it holds.  Norms |beta|^2 are ``int`` keys: a file's
betas are integer vectors, and rho + u(rho) is in the root lattice.

Lattice exponentials q^(beta, lambda) stay symbolic until coefficient
extraction, since the monomials (beta, lambda)^j are linearly dependent
across beta while the exponential presentation is canonical.  A lattice
sum is a plain map {beta: Laurent series}, nonzero series only, summed
from (beta, series) entries by ``lattice_sum`` (the expansion-data
reader ``pipeline.load_qdata`` feeds it) and written to the
expansion-data format by ``lattice_sum_to_json``.

The perturbative invariant is built once per knot and cap, for every
framing at once.  ``tau_poly`` reads a list of norm-class groups (sums,
cap, {|beta|^2: count}): the norm classes of one group share one
series, the sums of [h^k] read through h^cap, each class carrying it
times its count.  Both Gaussian routes integrate a whole group with one
operation, by linearity, each in its own way: the sum route weighs the
series by power sums of the counted norms, the exponential route
multiplies it by the counted sum of the classes' exponentials.
``norm_classes`` makes one group per class, with count 1, from an
expansion-data file's lattice sum in one pass.  The built-in unknot is
one group from ``unknot_classes``, without any lattice sum: |beta|^2 is
W-invariant, so the Weyl fold beta = w(rho + u(rho)) counts each class
from the |W| points rho + u(rho), and every g_beta is its count times
one series, ``_den_inv``, the inverse of prod_{a>0} (q^((rho,a)/2) -
q^(-(rho,a)/2))^2.  ``quantum_dim_sq_shifted`` still builds the
unfolded |W|^2-point sum, each point's count times that series, to
write it as expansion data.

The framing f enters the surgery formula in three places only:
(-|beta|^2/f)^j in the sum route, exp(-h |beta|^2/(2f)) in the
exponential route, and q^(-f|rho|^2/2) in the Weyl prefactor.  So for
a fixed sign of f each h^n coefficient is a Laurent polynomial in f, a
``qseries.FramingPoly`` {(e, n): coefficient of f^e h^n}, and
``tau_poly`` builds them framing-free (a ``TauPoly``): the Gaussian sum S
by both routes, which must agree as polynomials, and, per sign s, the
Weyl prefactor (1/|W|) q^((s-f)|rho|^2/2) prod_{a>0} (1 - q^(s(rho,
a))), which is lead * h^P times the unit q^(3s|rho|^2/2) prod
sinh_ratio((rho, a)) times q^(-f|rho|^2/2) (``_weyl_prefactor``).
``tau_pg`` is the one per-framing step: it evaluates S at f, reads the
prefactor only to the order that the product with S at that f can show,
multiplies once and checks for a pole.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add, mul

from .qseries import (
    FramingPoly, FrozenRecord, HSeries, PoleError, SeriesError, at_framing,
    product_cap, q_power, sinh_ratio, sum_products)

#: A lattice vector in simple-root coordinates.
Vec = tuple[int, ...]
#: A weight that may be half-integral, such as rho.
Weight = tuple[Fraction, ...]
#: Groups of norm classes that share one series: (sums of [h^k], cap,
#: {|beta|^2: count}); ``norm_classes``, ``unknot_classes``
NormClasses = list[tuple[dict[int, Fraction], int, dict[int, int]]]
#: tau^PG of one knot through h^cap for every framing (``tau_poly``):
#: (P, cap, the Gaussian sum S, {sign s of f: the Weyl prefactor}), each
#: series a Laurent polynomial in f; P is the number of positive roots
TauPoly = tuple[int, int, FramingPoly, dict[int, FramingPoly]]

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


class RootSystem(FrozenRecord):
    """``weyl`` lists the pairs (w(rho), sign w) in sorted order."""

    __slots__ = ("label", "rank", "gram", "pos_roots", "rho", "weyl")

    def __init__(self, label: str, rank: int,
                 gram: tuple[Vec, ...],       # (alpha_i, alpha_j)
                 pos_roots: tuple[Vec, ...],  # in simple-root coordinates
                 rho: Weight,
                 weyl: tuple[tuple[Weight, int], ...]):
        self._set_fields(label, rank, gram, pos_roots, rho, weyl)

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


@lru_cache(maxsize=len(TYPE_A_LABELS))
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

def lattice_sum(entries) -> dict[Vec, HSeries]:
    """The lattice sum {beta: g_beta} of (beta, series) entries: entries
    that share a beta add in order, and a sum that comes out zero is
    dropped."""
    out: dict[Vec, HSeries] = {}
    for beta, series in entries:
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


def _lattice_product(factors) -> dict[tuple, Fraction]:
    """The product of lattice sums with scalar coefficients, each a list
    of (point, c) pairs (pairs that share a point add), on the points
    scaled by their common denominator."""
    factors = [list(factor) for factor in factors]
    d = _common_denominator(x for factor in factors
                            for point, _ in factor for x in point)
    scaled = [[(tuple([_scaled(x, d) for x in point]), c)
               for point, c in factor] for factor in factors]
    out = sum_products((point, c, 1) for point, c in scaled[0])
    for factor in scaled[1:]:
        out = sum_products((tuple(map(add, mu, point)), c, s)
                           for mu, c in out.items() for point, s in factor)
    return {tuple([_unscaled(x, d) for x in mu]): c for mu, c in out.items()}


def weyl_denominator(rs: RootSystem) -> tuple[bool, bool]:
    """Expand both sides of the denominator identity and compare exactly:
    (the identity holds, its square holds).  The squared identity expands
    prod (q^alpha - 2 + q^-alpha) on its own and meets the square of the
    alternating sum.

    Meant for A5 and below: the squared check needs the full |W|^2-point
    square of the alternating sum (518 400 pairs at A5, 1.6e9 at A7)."""
    def root_product(factor):
        # prod over alpha > 0 of sum c q^(t alpha) over the pairs (t, c)
        return _lattice_product([(tuple([t * a for a in alpha]), c)
                                 for t, c in factor]
                                for alpha in rs.pos_roots)

    half = Fraction(1, 2)
    return (root_product(((half, 1), (-half, -1))) == dict(rs.weyl),
            root_product(((1, 1), (0, -2), (-1, 1))) ==
            _lattice_product([rs.weyl, rs.weyl]))


def rho_sinh_product(rs: RootSystem, cap: int) -> HSeries:
    """prod_{a>0} sinh_ratio((rho, a)) through h^cap, a unit series."""
    unit = HSeries.one(cap)
    for alpha in rs.pos_roots:
        unit = unit * sinh_ratio(rs.inner(rs.rho, alpha), cap)
    return unit


def _den_inv(rs: RootSystem, cap: int) -> HSeries:
    """1 / prod_{a>0} (q^(c/2) - q^(-c/2))^2 with c = (rho, a), through
    h^cap, of valuation -2P.  The product is h^2P times the square of
    the unit prod c * sinh_ratio(c): invert that square through
    h^(cap + 2P), then shift by h^-2P."""
    P = rs.num_pos
    unit = rho_sinh_product(rs, cap + 2 * P).scale(
        math.prod(rs.inner(rs.rho, alpha) for alpha in rs.pos_roots))
    return (unit * unit).inverse().shift(-2 * P)


def quantum_dim_sq_shifted(rs: RootSystem, cap: int) -> dict[Vec, HSeries]:
    """Shifted squared quantum dimension of the unknot:
    [sum over w, w' of sign(ww') q^(w(rho)+w'(rho), .)] divided by the
    lambda-free series prod_{a>0} (q^((rho,a)/2) - q^(-(rho,a)/2))^2.

    The g_beta are Laurent series with poles of depth 2 * num_pos, known
    through h^(cap + 2P - 1).
    """
    den_inv = _den_inv(rs, cap + 2 * rs.num_pos - 1)
    # one scaled copy per distinct count (25 at A5, for 56 183 points)
    sq = _lattice_product([rs.weyl, rs.weyl])
    scaled = {count: den_inv.scale(count) for count in set(sq.values())}
    return {beta: scaled[count] for beta, count in sq.items()}


def norm_classes(rs: RootSystem, E: dict[Vec, HSeries]) -> NormClasses:
    """The norm classes of a lattice sum, from one pass over E, one group
    each with count 1: (sums, cap, {|beta|^2: 1}), where sums[k] is the
    sum of [h^k] g_beta over the class (every k, nonzero sums only) and
    cap the smallest cap among its g_beta.  |beta|^2 is taken in the
    arithmetic of the keys: an ``int`` on integer keys."""
    members: dict = {}
    for beta, g in E.items():
        n = sum(map(mul, beta, [sum(map(mul, row, beta)) for row in rs.gram]))
        members.setdefault(n, []).append(g)
    return [(sum_products((k, c, 1) for g in gs for k, c in g.coeffs.items()),
             min(g.cap for g in gs), {n: 1})
            for n, gs in members.items()]


def unknot_classes(rs: RootSystem, cap: int) -> NormClasses:
    """The norm classes of ``quantum_dim_sq_shifted(rs, cap)`` from |W|
    points instead of |W|^2, as one group that reads its series through
    h^cap.

    |beta|^2 is W-invariant and every beta = w(rho) + w'(rho) is
    w(rho + u(rho)) with u = w^-1 w', so the signed count of the class of
    n is |W| times the sum of sign(u) over the u with |rho + u(rho)|^2 =
    n.  Every g_beta is its count times the one series ``_den_inv``, so
    the classes share it.  A class whose count cancels is left out."""
    den_inv = _den_inv(rs, cap)
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
    # rho + u(rho) = 2 rho - (rho - u(rho)) lies in the root lattice, where
    # the Gram matrix is integral, so d^2 divides n
    return [(den_inv.coeffs, cap, {n // (d * d): rs.order * count
                                   for n, count in counts.items() if count})]


def _framing_product(a: HSeries, b: HSeries, t: int, cap: int):
    """The terms ((t k, i + k), a_i, b_k) of a(h) b(f^t h) through h^cap,
    a and b framing-free: [h^k] of b(f^t h) is f^(t k) b_k.  The product
    is known where a * b is, whatever f is (``product_cap``); a cap
    beyond that raises."""
    known = product_cap(a, b)
    if known < cap:
        raise SeriesError(f"a product known through h^{known} cannot be "
                          f"read through h^{cap}")
    return [((t * k, i + k), x, y) for i, x in a.coeffs.items()
            for k, y in b.coeffs.items() if i + k <= cap]


def gaussian_on_exponentials(rs: RootSystem, classes: NormClasses,
                             cap: int) -> FramingPoly:
    """Closed form of the Gaussian contraction on lattice exponentials,
    as a polynomial in f: q^(beta, .) integrates to exp(-h |beta|^2 /
    (2f)).  The classes of a group (``norm_classes``, ``unknot_classes``)
    share one series S, known through the group's cap, so the group
    integrates to S(h) G(h/f), where G = sum of count * exp(-h |beta|^2 /
    2) over its classes: one product per group."""
    work = cap + 2 * rs.num_pos
    terms = []
    for sums, ccap, counts in classes:
        G = HSeries(sum_products(
            (k, c, count) for bsq, count in counts.items()
            for k, c in q_power(Fraction(-bsq, 2), work).coeffs.items()),
            work)
        S = HSeries({k: b for k, b in sums.items() if k <= ccap}, ccap)
        terms += _framing_product(S, G, -1, cap)
    return sum_products(terms)


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _gaussian_sum_route(classes: NormClasses, cap: int) -> FramingPoly:
    """Independent route through the extracted c-coefficients, as a
    polynomial in f: sum of c_{beta,2j,n} (2j-1)!! (-|beta|^2/f)^j
    h^(n-j), with the [h^k] g_beta of one group (``norm_classes``,
    ``unknot_classes``) summed before the j loop.

    The group's sum b_k of [h^k] g_beta gives c_{beta,2j,k+2j} summed over
    a class as count * b_k / (2j)!, so [h^k] of the group meets the
    weight (2j-1)!!/(2j)! * p_j at f^-j h^(k+j), where the power sum
    p_j = sum of count * (-|beta|^2)^j is an integer on integer norms."""
    terms = []
    for bs, _, counts in classes:
        powers = list(counts.values())  # count * (-|beta|^2)^j, from j = 0
        weights = []
        for j in range(cap - min(bs, default=cap) + 1):
            weights.append(Fraction(double_factorial(2 * j - 1) * sum(powers),
                                    math.factorial(2 * j)))
            powers = [p * -n for p, n in zip(powers, counts)]
        terms += (((-j, k + j), b, w) for k, b in bs.items() if k <= cap
                  for j, w in enumerate(weights[:cap - k + 1]) if w)
    return sum_products(terms)


def _weyl_prefactor(rs: RootSystem, cap: int) -> dict[int, FramingPoly]:
    """The Weyl prefactor (1/|W|) q^((s - f)|rho|^2/2) prod_{a>0} (1 -
    q^(s (rho, a))) of the surgery formula at the framings of each sign
    s, as {s: a polynomial in f through h^(cap + P)}, for a cap of at
    least 1.

    With c = (rho, a), 1 - q^(sc) = -s c h q^(sc/2) sinh_ratio(c), and the
    c add up to 2|rho|^2, so the prefactor is lead * h^P times the unit
    q^(3s|rho|^2/2) prod sinh_ratio(c), with lead = (-s)^P prod c / |W|,
    times b(f h) with b = q^(-|rho|^2/2): the framing enters only there,
    its h^k meeting f^k."""
    P = rs.num_pos
    prod_c = math.prod(rs.inner(rs.rho, alpha) for alpha in rs.pos_roots)
    rho_sq = rs.norm_sq(rs.rho)
    sinh = rho_sinh_product(rs, cap)
    b = q_power(-rho_sq / 2, cap)
    out = {}
    for s in (1, -1):
        unit = q_power(Fraction(3 * s, 2) * rho_sq, cap) * sinh
        lead = Fraction((-s) ** P, rs.order) * prod_c
        out[s] = sum_products(_framing_product(unit.scale(lead).shift(P), b,
                                               1, cap + P))
    return out


def tau_poly(rs: RootSystem, classes: NormClasses, cap: int) -> TauPoly:
    """The perturbative invariant's framing polynomials through h^cap,
    from the norm-class groups of the shifted expansion data of the
    zero-framed knot (``norm_classes`` of a lattice sum, or
    ``unknot_classes``).

    The Gaussian sum is built through the extracted c-coefficients and,
    as an internal consistency requirement, through the closed
    Gaussian-on-exponentials form; the two must agree as polynomials, so
    at every framing.  Both read the one list of groups.  The prefactor
    is read through h^(cap + P), at least h^(1 + P)."""
    S = _gaussian_sum_route(classes, cap)
    if S != gaussian_on_exponentials(rs, classes, cap):
        raise RootSystemError("Gaussian sum route disagrees with the "
                              "exponential route")
    return rs.num_pos, cap, S, _weyl_prefactor(rs, max(1, cap))


def tau_pg(tau: TauPoly, f: int) -> HSeries:
    """Perturbative invariant of surgery with framing f, from the knot's
    framing polynomials (``tau_poly``): the Gaussian sum S at f times the
    prefactor of sign(f) at f, which must come out pole-free."""
    if f == 0:
        raise RootSystemError("framing 0 is not a rational homology sphere")
    P, cap, gaussian, prefactor = tau
    S = at_framing(gaussian, f, cap)
    # out = pre * S is read through h^cap and pre is h^P times a unit, so
    # the unit is read through h^(cap - P - v(S)): through h^cap at most,
    # as any cap shows a pole of S deeper than h^-P, and through h^1 at
    # least, as the prefactor is built
    vs = S.valuation()
    unit_cap = 1 if vs is None else max(1, min(cap, cap - P - vs))
    out = at_framing(prefactor[1 if f > 0 else -1], f, unit_cap + P) * S
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
