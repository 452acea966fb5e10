"""Root systems of type A (rank <= 3), Weyl groups, lattice-exponential
sums, and the surgery formula for the perturbative invariant.

Weights live in simple-root coordinates throughout; the bilinear form
is the symmetrized Cartan matrix in the normalization where every root
has squared length 2.  Everything else comes from that matrix by one
reflection closure: the roots are the closure of the simple roots under
the simple reflections, and the Weyl group is kept as the orbit of rho
with the sign of each element (rho is regular, so w -> w(rho) is one to
one and W is never enumerated as matrices).

Lattice exponentials q^(beta, lambda) stay symbolic until coefficient
extraction, since the monomials (beta, lambda)^j are linearly dependent
across beta while the exponential presentation is canonical.  A lattice
sum is a plain map {beta: Laurent series}, nonzero series only, read
from and written to the expansion-data format by
``lattice_sum_from_json`` / ``lattice_sum_to_json``.  Every Weyl double
sum over w, w' of sign(ww') q^(w(rho)+w'(rho), .) is built by
``_square_sum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .qseries import (
    ZERO, HSeries, PoleError, q_power, series_sum, sinh_ratio, sum_products)

Vec = tuple[Fraction, ...]


class RootSystemError(ValueError):
    pass


def _vec(xs) -> Vec:
    return tuple(Fraction(x) for x in xs)


def _add(x: Vec, y: Vec) -> Vec:
    return tuple(a + b for a, b in zip(x, y))


def _scale_vec(c, x: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * a for a in x)


@dataclass(frozen=True)
class RootSystem:
    label: str
    rank: int
    gram: tuple[Vec, ...]          # (alpha_i, alpha_j)
    pos_roots: tuple[Vec, ...]     # in simple-root coordinates
    rho: Vec
    weyl: tuple[tuple[Vec, int], ...]   # sorted (w(rho), sign w)

    def inner(self, x, y) -> Fraction:
        # x . (G y), with (G y)_i summed first (G is symmetric)
        gy = sum_products((i, g, b) for j, b in enumerate(y) if b
                          for i, g in enumerate(self.gram[j]) if g)
        return sum_products((None, a, gy[i]) for i, a in enumerate(x)
                            if i in gy).get(None, ZERO)

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
    """Type A_1, A_2 or A_3 from its Cartan matrix: the roots are the
    reflection closure of the simple roots, the positive ones those with
    nonnegative coordinates, and W is the signed reflection closure of
    rho."""
    if label not in ("A1", "A2", "A3"):
        raise RootSystemError(f"unsupported root system {label!r}")
    r = int(label[1])
    gram = tuple(tuple(Fraction(2 if i == j else (-1 if abs(i - j) == 1 else 0))
                       for j in range(r)) for i in range(r))
    simple = [tuple(Fraction(int(i == j)) for j in range(r)) for i in range(r)]
    roots = _reflection_closure(gram, simple)
    pos = sorted(a for a in roots if min(a) >= 0)
    # rho is half the sum of the positive roots
    rho = _scale_vec(Fraction(1, 2), tuple(map(sum, zip(*pos))))
    weyl = tuple(sorted(_reflection_closure(gram, [rho]).items()))

    rs = RootSystem(label=label, rank=r, gram=gram, pos_roots=tuple(pos),
                    rho=rho, weyl=weyl)
    expected = {1: 2, 2: 6, 3: 24}[r]
    if rs.order != expected or rs.num_pos != r * (r + 1) // 2:
        raise RootSystemError("Weyl group enumeration failed")
    for a in pos:
        if rs.inner(rho, a) <= 0:
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
        beta = _vec(entry["beta"])
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


def _root_product(rs: RootSystem, factor) -> dict[Vec, Fraction]:
    """Expand prod over alpha > 0 of sum c q^(t alpha) over the pairs
    (t, c) of ``factor``."""
    out = {tuple(Fraction(0) for _ in range(rs.rank)): Fraction(1)}
    for alpha in rs.pos_roots:
        out = sum_products((_add(mu, _scale_vec(t, alpha)), c, s)
                           for mu, c in out.items() for t, s in factor)
    return out


def _square_sum(a: dict[Vec, int]) -> dict[Vec, Fraction]:
    """The square of a lattice sum with scalar coefficients."""
    return sum_products((_add(m1, m2), c1, c2)
                        for m1, c1 in a.items() for m2, c2 in a.items())


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
    and meets the square of the alternating sum."""
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
    den_inv = den.inverse()   # cap = work - 4P = cap, valuation -2P
    return {beta: den_inv.scale(count)
            for beta, count in _square_sum(dict(rs.weyl)).items()}


def gaussian_on_exponentials(rs: RootSystem, E: dict[Vec, HSeries],
                             f, cap: int) -> HSeries:
    """Closed form of the Gaussian contraction on lattice exponentials:
    q^(beta, .) integrates to exp(-h |beta|^2 / (2f)), so the g_beta of
    one norm class are summed first and integrated together."""
    f = Fraction(f)
    P = rs.num_pos
    classes: dict[Fraction, list[HSeries]] = {}
    for beta, g in E.items():
        classes.setdefault(rs.norm_sq(beta), []).append(g)
    out = [HSeries.zero(cap)]
    for bsq, gs in classes.items():
        gauss = q_power(-bsq / (2 * f), cap + 2 * P)
        out.append((series_sum(gs) * gauss).truncate(cap))
    return series_sum(out)


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _gaussian_sum_route(rs: RootSystem, E: dict[Vec, HSeries],
                        f, cap: int) -> HSeries:
    """Independent route through the extracted c-coefficients:
    sum of c_{beta,2j,n} (2j-1)!! (-|beta|^2/f)^j h^(n-j), with the
    [h^k] g_beta of one norm class summed before the j loop.

    The class sum b_k of [h^k] g_beta gives c_{beta,2j,k+2j} summed over
    the class as b_k / (2j)!, so [h^k] of the class meets the per-class
    weight (2j-1)!! (-|beta|^2/f)^j / (2j)! at h^(k+j)."""
    f = Fraction(f)
    classes: dict[Fraction, list[HSeries]] = {}
    for beta, g in E.items():
        classes.setdefault(rs.norm_sq(beta), []).append(g)
    terms = []
    for bsq, gs in classes.items():
        bs = sum_products((k, c, 1) for g in gs for k, c in g.coeffs.items())
        x = -bsq / f
        weights = [double_factorial(2 * j - 1) * x ** j / math.factorial(2 * j)
                   for j in range(cap - min(bs, default=cap) + 1)]
        terms += ((k + j, b, w) for k, b in bs.items() if k <= cap
                  for j, w in enumerate(weights[:cap - k + 1]))
    return HSeries(sum_products(terms), cap)


def tau_pg(rs: RootSystem, E: dict[Vec, HSeries], f: int,
           cap: int) -> HSeries:
    """Perturbative invariant of surgery with framing f, from the shifted
    expansion data E of the zero-framed knot.

    Evaluates the surgery formula literally through the extracted
    c-coefficients and, as an internal consistency requirement, through
    the closed Gaussian-on-exponentials form; the two must agree and the
    result must be pole-free.
    """
    if f == 0:
        raise RootSystemError("framing 0 is not a rational homology sphere")
    s = 1 if f > 0 else -1
    P = rs.num_pos
    work = cap + 2 * P
    S_sum = _gaussian_sum_route(rs, E, f, cap)
    S_exp = gaussian_on_exponentials(rs, E, f, cap)
    if S_sum != S_exp:
        raise RootSystemError("Gaussian sum route disagrees with the "
                              "exponential route")
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
