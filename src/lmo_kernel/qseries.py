"""Exact truncated Laurent series in the formal variable h, with q = e^h.

A series is its nonzero coefficients, arbitrary-precision rationals
(``fractions.Fraction``; no floating point exists anywhere in this
package), and its truncation cap.  Arithmetic between series of
different precision degrades explicitly instead of silently: the
result's cap is the largest order at which the result is still fully
determined by the inputs.

Sums accumulate on integers: ``sum_products`` keeps one running
numerator and denominator per key and reduces each sum to one
``Fraction`` only at the end, so no gcd is taken per term.  Every stored
value (a coefficient, a sum handed back) is a reduced ``Fraction``.  It
is the one place in the package that adds rationals into a sparse map,
and the one place that drops a zero sum.  Built on it: here, the series
sum (``series_sum``, ``+``), product, ``exp`` and ``inverse``; in
``diagrams``, every ``DiagramSeries`` (its constructor, ``+``,
``union``, ``add_form``), and through it the gluing sums of ``balg``;
in ``rootsys``, the inner product, the Weyl double sums, the root
products and the Gaussian norm-class sums; in ``liews``, the pair
contraction, the leg erasure of a contracted diagram, ``hat_weight``
and ``wick``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Any, Hashable, Iterable, Mapping

#: Deepest pole any series may carry.  Intermediate data in the
#: perturbative-invariant computation is polar of depth 2 * (number of
#: positive roots) before prefactor multiplication; 64 leaves ample room
#: at desk scale.
POLE_CAP = 64


ZERO = Fraction(0)


class PoleError(ArithmeticError):
    """A series developed a pole deeper than POLE_CAP."""


class SeriesError(ValueError):
    """Malformed series operation (bad cap, polar exponential, ...)."""


def _as_rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class HSeries:
    """A Laurent series in h, known exactly up to h^cap.

    ``coeffs`` holds the nonzero coefficients, none below h^-POLE_CAP;
    exponents above ``cap`` are unknown (never silently zero).
    """

    __slots__ = ("coeffs", "cap")

    def __init__(self, coeffs: Mapping[int, Fraction | int], cap: int):
        clean: dict[int, Fraction] = {}
        for k, v in coeffs.items():
            v = _as_rational(v)
            if v != 0:
                clean[int(k)] = v
        if any(k > cap for k in clean):
            raise SeriesError("coefficient beyond declared cap")
        if clean and min(clean) < -POLE_CAP:
            raise PoleError(f"pole deeper than {POLE_CAP}")
        self.coeffs = clean
        self.cap = int(cap)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, cap: int) -> "HSeries":
        return cls({}, cap)

    @classmethod
    def one(cls, cap: int) -> "HSeries":
        return cls({0: Fraction(1)}, cap)

    # -- basic queries ------------------------------------------------

    def coeff(self, k: int) -> Fraction:
        """Coefficient of h^k.  Raises beyond the cap: unknown, not zero."""
        if k > self.cap:
            raise SeriesError(f"h^{k} is beyond the cap {self.cap}")
        return self.coeffs.get(k, Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def valuation(self) -> int | None:
        """Lowest exponent with nonzero coefficient, or None for zero."""
        return min(self.coeffs) if self.coeffs else None

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "HSeries") -> "HSeries":
        return series_sum([self, other])

    def __neg__(self) -> "HSeries":
        return HSeries({k: -v for k, v in self.coeffs.items()}, self.cap)

    def __sub__(self, other: "HSeries") -> "HSeries":
        return self + (-other)

    def __mul__(self, other: "HSeries") -> "HSeries":
        # The product is determined at order k only while unknown tail
        # coefficients of one factor cannot meet the support of the other.
        va = self.valuation()
        vb = other.valuation()
        va = self.cap + 1 if va is None else va
        vb = other.cap + 1 if vb is None else vb
        cap = min(self.cap + vb, other.cap + va)
        return HSeries(sum_products(
            (i + j, a, b) for i, a in self.coeffs.items()
            for j, b in other.coeffs.items() if i + j <= cap), cap)

    def scale(self, c) -> "HSeries":
        c = _as_rational(c)
        if c == 0:
            return HSeries.zero(self.cap)
        return HSeries({k: c * v for k, v in self.coeffs.items()}, self.cap)

    def shift(self, n: int) -> "HSeries":
        """Exact multiplication by h^n (n may be negative)."""
        return HSeries({k + n: v for k, v in self.coeffs.items()},
                       self.cap + n)

    def truncate(self, cap: int) -> "HSeries":
        if cap > self.cap:
            raise SeriesError("cannot raise a cap by truncation")
        return HSeries({k: v for k, v in self.coeffs.items() if k <= cap},
                       cap)

    def exp(self) -> "HSeries":
        """exp of a series with no constant or polar part."""
        v = self.valuation()
        if v is None:
            return HSeries.one(self.cap)
        if v < 1:
            raise SeriesError("exp requires valuation >= 1")
        # e = exp(a) solves e' = a' e:  n e_n = sum_k k a_k e_(n-k)
        ka = [(k, k * c) for k, c in sorted(self.coeffs.items())]
        e = [Fraction(1)]
        for n in range(1, self.cap + 1):
            e.append(sum_products((None, kc, e[n - k]) for k, kc in ka
                                  if k <= n).get(None, ZERO) / n)
        return HSeries(dict(enumerate(e)), self.cap)

    def inverse(self) -> "HSeries":
        """Multiplicative inverse; needs a nonzero leading coefficient."""
        v = self.valuation()
        if v is None:
            raise ZeroDivisionError("inverse of the zero series")
        # self = h^v (a_0 + a_1 h + ...) with a_0 != 0; its inverse is
        # h^-v (b_0 + b_1 h + ...) with b_n = sum_i (-a_i/a_0) b_(n-i)
        lead = self.coeffs[v]
        rest = sorted((k - v, -c / lead) for k, c in self.coeffs.items()
                      if k > v)
        b = [1 / lead]
        for n in range(1, self.cap - v + 1):
            b.append(sum_products((None, c, b[n - i]) for i, c in rest
                                  if i <= n).get(None, ZERO))
        return HSeries({n - v: c for n, c in enumerate(b)}, self.cap - 2 * v)

    # -- comparison / io ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, HSeries):
            return NotImplemented
        # ``coeffs`` holds exactly the nonzero coefficients
        return self.cap == other.cap and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return f"HSeries(0; cap={self.cap})"
        parts = [f"({v})h^{k}" if k else f"({v})"
                 for k, v in sorted(self.coeffs.items())]
        return f"HSeries({' + '.join(parts)}; cap={self.cap})"

    def to_json(self) -> dict:
        return {
            "min_exp": min(min(self.coeffs, default=0), 0),
            "coeffs": {str(k): f"{v.numerator}/{v.denominator}"
                       for k, v in sorted(self.coeffs.items())},
            "cap": self.cap,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "HSeries":
        """Inverse of ``to_json``; a coefficient below the file's
        ``min_exp`` is malformed input."""
        coeffs = {int(k): Fraction(v) for k, v in obj["coeffs"].items()}
        cap, min_exp = int(obj["cap"]), int(obj["min_exp"])
        out = cls(coeffs, cap)
        if any(k < min_exp for k in out.coeffs):
            raise SeriesError("coefficient below declared min_exp")
        return out


def sum_products(terms: Iterable[tuple[Hashable, Fraction | int,
                                        Fraction | int]]
                 ) -> dict[Hashable, Fraction]:
    """Exact sums of products: {key: the sum of x * y over the terms
    (key, x, y)}, nonzero sums only.  A plain sum passes y = 1.

    No product is reduced on its own.  Each key keeps one running
    integer pair [den, num]: a product over ``den`` adds its numerator,
    any other first moves the pair to the least common multiple of the
    two denominators.  Each key's sum is reduced to one ``Fraction`` at
    the end.
    """
    acc: dict[Hashable, Any] = {}
    for key, x, y in terms:
        den = x.denominator * y.denominator
        num = x.numerator * y.numerator
        run = acc.get(key)
        if run is None:
            acc[key] = [den, num]
        elif run[0] == den:
            run[1] += num
        else:
            common = math.lcm(run[0], den)
            run[1] = run[1] * (common // run[0]) + num * (common // den)
            run[0] = common
    # reduced in place, so no second map lives beside the accumulator
    for key in [key for key, (_, num) in acc.items() if not num]:
        del acc[key]
    for key, (den, num) in acc.items():
        acc[key] = Fraction(num, den)
    return acc


def series_sum(series: list[HSeries]) -> HSeries:
    """The sum of one or more series, known up to the smallest cap."""
    cap = min(s.cap for s in series)
    return HSeries(sum_products((k, c, 1) for s in series
                                for k, c in s.coeffs.items() if k <= cap),
                   cap)


def q_power(c, cap: int) -> HSeries:
    """q^c = exp(c*h) as a truncated series, for exact rational c."""
    return HSeries({1: c}, cap).exp()


def sinh_ratio(c, cap: int) -> HSeries:
    """sinh(c*h/2) / (c*h/2); equals 1 for c = 0 and is even in c."""
    c = _as_rational(c)
    if c == 0:
        return HSeries.one(cap)
    out: dict[int, Fraction] = {}
    k = 0
    while 2 * k <= cap:
        out[2 * k] = c ** (2 * k) / (4 ** k * math.factorial(2 * k + 1))
        k += 1
    return HSeries(out, cap)


@lru_cache(maxsize=None)
def _bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n, from sum_{k <= n} C(n+1, k) B_k = 0, B_0 = 1."""
    if n == 0:
        return Fraction(1)
    return -sum(math.comb(n + 1, k) * _bernoulli(k)
                for k in range(n)) / (n + 1)


def modified_bernoulli(m: int) -> Fraction:
    """Coefficient of x^(2m) in (1/2) log(sinh(x/2)/(x/2)), m >= 1:
    b_m = B_2m / (4m (2m)!).  Independent of ``sinh_ratio``, so checks
    that combine the two can fail."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _bernoulli(2 * m) / (4 * m * math.factorial(2 * m))
