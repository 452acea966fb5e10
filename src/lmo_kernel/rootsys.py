"""Root systems of type A (rank <= 3), Weyl groups, lattice-exponential
sums, and the surgery formula for the perturbative invariant.

Weights live in simple-root coordinates throughout; the bilinear form
is the symmetrized Cartan matrix in the normalization where every root
has squared length 2.  Everything else comes from that matrix by one
reflection closure: the roots are the closure of the simple roots under
the simple reflections, and the Weyl group is kept as the orbit of rho
with the sign of each element (rho is regular, so w -> w(rho) is one to
one and W is never enumerated as matrices).

Lattice exponentials q^(beta, lambda) stay symbolic (a finite map
beta -> Laurent series) until coefficient extraction, since the
monomials (beta, lambda)^j are linearly dependent across beta while the
exponential presentation is canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .qseries import HSeries, PoleError, q_power, sinh_ratio

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
        xs = [(i, Fraction(a)) for i, a in enumerate(x) if a]
        ys = [(j, Fraction(b)) for j, b in enumerate(y) if b]
        return sum((self.gram[i][j] * a * b for i, a in xs for j, b in ys
                    if self.gram[i][j]), Fraction(0))

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

class ExponentialWeightSum:
    """Finite sum over lattice vectors beta of g_beta(h) * q^(beta, .)."""

    __slots__ = ("terms",)

    def __init__(self):
        self.terms: dict[Vec, HSeries] = {}

    def add(self, beta: Vec, series: HSeries) -> None:
        cur = self.terms.get(beta)
        acc = series if cur is None else cur + series
        if acc.is_zero():
            self.terms.pop(beta, None)
        else:
            self.terms[beta] = acc

    def items(self):
        return sorted(self.terms.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExponentialWeightSum):
            return NotImplemented
        # ``add`` drops zero sums, so ``terms`` holds no zero series
        return self.terms == other.terms

    def to_json(self) -> list:
        out = []
        for beta, series in self.items():
            if any(x.denominator != 1 for x in beta):
                raise RootSystemError("non-integral lattice vector in dump")
            out.append({"beta": [int(x) for x in beta],
                        "series": series.to_json()})
        return out

    @classmethod
    def from_json(cls, obj: list) -> "ExponentialWeightSum":
        e = cls()
        for entry in obj:
            e.add(_vec(entry["beta"]), HSeries.from_json(entry["series"]))
        return e


def _product_side(rs: RootSystem) -> dict[Vec, int]:
    out: dict[Vec, int] = {tuple(Fraction(0) for _ in range(rs.rank)): 1}
    for alpha in rs.pos_roots:
        half = _scale_vec(Fraction(1, 2), alpha)
        nxt: dict[Vec, int] = {}
        for mu, c in out.items():
            for vec, s in ((_add(mu, half), c), (_add(mu, _scale_vec(-1, half)), -c)):
                acc = nxt.get(vec, 0) + s
                if acc:
                    nxt[vec] = acc
                else:
                    nxt.pop(vec, None)
        out = nxt
    return out


def _square_sum(a: dict[Vec, int]) -> dict[Vec, int]:
    out: dict[Vec, int] = {}
    for m1, c1 in a.items():
        for m2, c2 in a.items():
            v = _add(m1, m2)
            acc = out.get(v, 0) + c1 * c2
            if acc:
                out[v] = acc
            else:
                out.pop(v, None)
    return out


@dataclass(frozen=True)
class WeylDenominatorReport:
    product: tuple
    alternating_sum: tuple
    squared_product: tuple
    squared_sum: tuple
    equal: bool
    equal_squared: bool


def weyl_denominator(rs: RootSystem) -> WeylDenominatorReport:
    """Expand both sides of the denominator identity (and its square) as
    lattice-exponential sums and compare exactly."""
    prod = _product_side(rs)
    alt = dict(rs.weyl)
    prod2 = _square_sum(prod)
    alt2 = _square_sum(alt)
    as_t = lambda d: tuple(sorted(d.items()))
    return WeylDenominatorReport(
        product=as_t(prod), alternating_sum=as_t(alt),
        squared_product=as_t(prod2), squared_sum=as_t(alt2),
        equal=prod == alt, equal_squared=prod2 == alt2)


def quantum_dim_sq_shifted(rs: RootSystem, cap: int) -> ExponentialWeightSum:
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
    out = ExponentialWeightSum()
    for beta, count in _square_sum(dict(rs.weyl)).items():
        out.add(beta, den_inv.scale(count))
    return out


def gaussian_on_exponentials(rs: RootSystem, E: ExponentialWeightSum,
                             f, cap: int) -> HSeries:
    """Closed form of the Gaussian contraction on lattice exponentials:
    q^(beta, .) integrates to exp(-h |beta|^2 / (2f)), so the g_beta of
    one norm class are summed first and integrated together."""
    f = Fraction(f)
    P = rs.num_pos
    classes: dict[Fraction, HSeries] = {}
    for beta, g in E.terms.items():
        bsq = rs.norm_sq(beta)
        classes[bsq] = g + classes[bsq] if bsq in classes else g
    out = HSeries.zero(cap)
    for bsq, g in classes.items():
        gauss = q_power(-bsq / (2 * f), cap + 2 * P)
        out = out + (g * gauss).truncate(cap)
    return out


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _gaussian_sum_route(rs: RootSystem, E: ExponentialWeightSum,
                        f, cap: int) -> HSeries:
    """Independent route through the extracted c-coefficients:
    sum of c_{beta,2j,n} (2j-1)!! (-|beta|^2/f)^j h^(n-j), with the
    [h^k] g_beta of one norm class summed before the j loop."""
    import math
    f = Fraction(f)
    classes: dict[Fraction, dict[int, Fraction]] = {}
    for beta, g in E.terms.items():
        base = classes.setdefault(rs.norm_sq(beta), {})
        for k, c in g.coeffs.items():
            base[k] = base.get(k, Fraction(0)) + c
    coeffs: dict[int, Fraction] = {}
    for bsq, base in classes.items():
        for k, b in base.items():
            if b == 0:
                continue
            j = 0
            while k + j <= cap:
                n = k + 2 * j
                c = b / math.factorial(2 * j)   # class sum of c_{beta,2j,n}
                term = c * double_factorial(2 * j - 1) * (-bsq / f) ** j
                if term:
                    e = n - j
                    coeffs[e] = coeffs.get(e, Fraction(0)) + term
                j += 1
    return HSeries(coeffs, cap)


def tau_pg(rs: RootSystem, E: ExponentialWeightSum, f: int,
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
