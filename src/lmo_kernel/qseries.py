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
``union``), and through it the gluing sums of ``balg``;
in ``rootsys``, the Weyl double sums and the root products (on
integer lattice keys), the class sums of a lattice sum's norm-class
map and the framing polynomials of both Gaussian routes and of the Weyl
prefactor; in ``liews``, the pair
contraction, the leg erasure of a contracted diagram, ``wick`` and
``series_tensor``, which builds the weight tensors of ``hat_weight`` and
the gauss check's sum of the weighed exponential tensors of a squared
Weyl sum; in ``pipeline``, the diagram side's framing polynomials.

A framing polynomial (``FramingPoly``) is a series in h whose
coefficients are Laurent polynomials in the framing f, stored as {(e,
n): the coefficient of f^e h^n}, that carries its cap as an ``HSeries``
does: unknown is never zero.  Both sides build theirs once per knot,
label and order, the diagram side in ``pipeline`` and tau^PG in
``rootsys``, and both evaluate them at a framing through the one
``at_framing``.  A polynomial also holds, built once with it, one
integer row per power h^n: f^lo times a polynomial in f with integer
coefficients a_K .. a_0 over one denominator.  So a read at f = p/q is
one Horner pass in integers per power of h, homogeneous in (p, q), and
one ``Fraction``.

``q_power`` builds q^c = exp(c h) in closed form, [h^k] = c^k / k!,
each numerator and denominator from the one before, with no
``sum_products`` call.

The module also holds what every other module reads: the JSON field
readers (``json_object``, ``json_int``, ``json_key``, ``json_rational``,
each naming the field it rejects) and the record base ``FrozenRecord``,
a plain slotted class, so that an import generates no code.
"""

from __future__ import annotations

import math
import sys
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


def _echo(x) -> str:
    """``repr(x)`` for an error message, cut to 80 characters."""
    r = repr(x)
    return r if len(r) <= 80 else r[:77] + "..."


def json_object(x, what: str) -> dict:
    """An object of a JSON file; a list or a scalar is not one."""
    if type(x) is not dict:
        raise TypeError(f"{what} is {_echo(x)}, not an object")
    return x


def json_list(x, what: str) -> list:
    """A list of a JSON file; an object or a scalar is not one."""
    if type(x) is not list:
        raise TypeError(f"{what} is {_echo(x)}, not a list")
    return x


def json_int(x, what: str) -> int:
    """An integer field of a JSON file; a float or a bool is not one."""
    if type(x) is not int:
        raise TypeError(f"{what} {_echo(x)} is not an integer")
    return x


def _too_many_digits(s: str, what: str) -> ValueError:
    """The error for an integer with more digits than the interpreter
    converts; it names ``what``."""
    return ValueError(f"{what} {_echo(s)} has more than "
                      f"{sys.get_int_max_str_digits()} digits")


def _spells_int(s: str, what: str) -> bool:
    """Whether ``s`` is an integer spelled as ``str`` spells it: ``int``
    alone also reads "1_0", " 2" and "02".  An integer with more digits
    than the interpreter converts is an error that names ``what``."""
    try:
        return s.removeprefix("-").isdecimal() and str(int(s)) == s
    except ValueError:
        raise _too_many_digits(s, what) from None


def parse_json_int(s: str) -> int:
    """The ``parse_int`` of every input file's ``json.loads``: a literal
    with more digits than the interpreter converts is an error of this
    package's own, and the limit stays."""
    try:
        return int(s)
    except ValueError:
        raise _too_many_digits(s, "JSON integer") from None


def json_key(k: str, what: str) -> int:
    """An integer key of a JSON object, spelled as ``str`` spells it."""
    if not _spells_int(k, what):
        raise ValueError(f"{what} {_echo(k)} is not an integer key")
    return int(k)


def json_rational(x, what: str) -> Fraction:
    """A coefficient field of a JSON file: an integer, or a "p/q" string,
    p and q spelled as ``str`` spells integers and q > 0 (``Fraction``
    also reads "0.1", and "1e10000000" only after seconds)."""
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, str):
        p, slash, q = x.partition("/")
        if slash and all(_spells_int(n, what) for n in (p, q)) and int(q) > 0:
            return Fraction(int(p), int(q))
    raise ValueError(f'{what} {_echo(x)} is not a "p/q" string or an '
                     'integer')


def rational_str(v: Fraction) -> str:
    """``v`` as "p/q"; past ``sys.get_int_max_str_digits``, a SeriesError."""
    try:
        return f"{v.numerator}/{v.denominator}"
    except ValueError as exc:
        raise SeriesError("a coefficient is too long to print") from exc


class FrozenRecord:
    """A plain record: its fields are its ``__slots__``, in declaration
    order, and two records of one class are equal when their fields are.
    Nothing changes it once ``__init__`` has filled it (``_set_fields``
    bypasses ``__setattr__``); it hashes its fields."""

    __slots__ = ()

    def _set_fields(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


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
        cap = product_cap(self, other)
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
            "coeffs": {str(k): rational_str(v)
                       for k, v in sorted(self.coeffs.items())},
            "cap": self.cap,
        }

    @classmethod
    def from_json(cls, obj: dict, what: str = "series") -> "HSeries":
        """Inverse of ``to_json``; a coefficient below the file's
        ``min_exp``, an inexact coefficient, a ``cap`` or ``min_exp``
        that is not a JSON integer and a series or ``coeffs`` that is not
        a JSON object are malformed input, the last two named as
        ``what``."""
        json_object(obj, what)
        coeffs = {json_key(k, "exponent"):
                  json_rational(v, f"coefficient of h^{k}")
                  for k, v in json_object(obj["coeffs"],
                                          f"{what} field 'coeffs'").items()}
        cap, min_exp = (json_int(obj[f], f) for f in ("cap", "min_exp"))
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


def product_cap(a: HSeries | FramingPoly, b: HSeries | FramingPoly) -> int:
    """The cap of the product a * b of two series or framing polynomials:
    it is determined at order k only while unknown tail coefficients of
    one factor cannot meet the support of the other."""
    va = a.valuation()
    vb = b.valuation()
    va = a.cap + 1 if va is None else va
    vb = b.cap + 1 if vb is None else vb
    return min(a.cap + vb, b.cap + va)


def series_sum(series: list[HSeries]) -> HSeries:
    """The sum of one or more series, known up to the smallest cap."""
    cap = min(s.cap for s in series)
    return HSeries(sum_products((k, c, 1) for s in series
                                for k, c in s.coeffs.items() if k <= cap),
                   cap)


class FramingPoly(dict):
    """A series in h whose coefficients are Laurent polynomials in the
    framing f, known exactly up to h^cap: {(e, n): the coefficient of
    f^e h^n}, a ``dict`` and equal to a plain one with the same terms.
    As in ``HSeries``, powers of h above ``cap`` are unknown, never
    zero, and a term there is rejected.

    The constructor also builds ``rows``, once: one integer row (n, lo,
    den, a) per power h^n with a nonzero term, in increasing n, where a =
    (a_K, ..., a_0) and [h^n] = f^lo (a_K f^K + ... + a_0) / den, den
    the least common multiple of the row's denominators.  A polynomial
    is not edited once built, so its rows stay its terms'."""

    __slots__ = ("rows", "cap")

    def __init__(self, terms, cap: int):
        super().__init__(terms)
        by_power: dict[int, dict[int, Fraction]] = {}
        for (e, n), c in self.items():
            if n > cap:
                raise SeriesError(f"a term f^{e} h^{n} is beyond the cap "
                                  f"{cap}")
            if c:
                by_power.setdefault(n, {})[e] = _as_rational(c)
        rows = []
        for n, row in sorted(by_power.items()):
            lo, hi = min(row), max(row)
            den = math.lcm(*[c.denominator for c in row.values()])
            a = [0] * (hi - lo + 1)
            for e, c in row.items():
                a[hi - e] = c.numerator * (den // c.denominator)
            rows.append((n, lo, den, tuple(a)))
        self.rows = rows
        self.cap = cap

    def valuation(self) -> int | None:
        """Lowest power of h with a nonzero term, or None for zero."""
        return self.rows[0][0] if self.rows else None


def at_framing(poly: FramingPoly, f: int | Fraction) -> HSeries:
    """``poly`` evaluated at the framing ``f``, an integer or a
    ``Fraction`` p/q, known through the polynomial's cap.  Each row (n,
    lo, den, a) is one integer Horner pass, homogeneous in (p, q): [h^n]
    = p^lo N / (den q^(K + lo)), N = the sum of a_j p^j q^(K - j), and
    one ``Fraction``."""
    p, q = f.numerator, f.denominator
    coeffs = {}
    for n, lo, den, a in poly.rows:
        num, qk = 0, 1
        for c in a:
            num = num * p + c * qk
            qk *= q
        hi = len(a) - 1 + lo  # the row's top power of f, K + lo
        if lo >= 0:
            num *= p ** lo
        else:
            den *= p ** -lo
        if hi >= 0:
            den *= q ** hi
        else:
            num *= q ** -hi
        coeffs[n] = Fraction(num, den)
    return HSeries(coeffs, poly.cap)


def q_power(c, cap: int) -> HSeries:
    """q^c = exp(c*h) as a truncated series, for exact rational c, in
    closed form: [h^k] is c^k / k!, each numerator and denominator from
    the one before.  Below cap 1 it is ``HSeries({1: c}, cap).exp()``,
    which raises for c != 0."""
    c = _as_rational(c)
    if cap < 1:
        return HSeries({1: c}, cap).exp()
    coeffs = {0: Fraction(1)}
    num = den = 1
    for k in range(1, cap + 1):
        num *= c.numerator
        den *= c.denominator * k
        coeffs[k] = Fraction(num, den)
    return HSeries(coeffs, cap)


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
