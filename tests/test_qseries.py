"""Series arithmetic, modified Bernoulli numbers, sinh ratio."""

import json
import math
import re
import sys
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

import series_oracle
from lmo_kernel.qseries import (
    FramingPoly,
    HSeries,
    PoleError,
    SeriesError,
    at_framing,
    json_int,
    json_key,
    json_rational,
    modified_bernoulli,
    q_power,
    sinh_ratio,
    sum_products,
)


H = HSeries


class TestArithmetic:
    def test_difference_of_squares(self):
        a = H({0: 1, 1: 1}, 6)
        b = H({0: 1, 1: -1}, 6)
        assert a * b == H({0: 1, 2: -1}, 6)

    def test_exponent_cancellation(self):
        one = H({-1: 1}, 6) * H({1: 1}, 6)
        assert one.coeff(0) == 1 and one.valuation() == 0

    def test_truncation_meet(self):
        assert (H({0: 1}, 4) + H({0: 1}, 6)).cap == 4

    def test_scale(self):
        assert H({1: Q(1, 2)}, 3).scale(4) == H({1: 2}, 3)

    def test_coeff_beyond_cap_is_not_zero(self):
        with pytest.raises(SeriesError):
            H({0: 1}, 2).coeff(3)

    def test_pole_cap_enforced(self):
        with pytest.raises(PoleError):
            H({-100: 1}, 0)


class TestExp:
    def test_taylor_coefficient(self):
        assert H({1: Q(3)}, 6).exp().coeff(2) == Q(9, 2)

    def test_empty_series(self):
        assert HSeries.zero(5).exp() == HSeries.one(5)

    def test_inverse_pair(self):
        a = H({2: Q(1, 24)}, 8).exp()
        b = H({2: Q(-1, 24)}, 8).exp()
        assert a * b == HSeries.one(8)

    def test_rejects_constant_part(self):
        with pytest.raises(SeriesError):
            H({0: 1, 1: 1}, 4).exp()

    def test_rejects_polar_part(self):
        with pytest.raises(SeriesError):
            H({-1: 1}, 4).exp()


class TestInverse:
    def test_geometric_series(self):
        inv = H({0: 1, 1: 1}, 5).inverse()
        assert inv == H({k: (-1) ** k for k in range(6)}, 5)

    def test_pole_shift(self):
        inv = H({1: 1, 2: 1}, 6).inverse()
        assert inv.valuation() == -1
        assert inv.coeff(-1) == 1 and inv.coeff(0) == -1

    def test_constant(self):
        assert H({0: 2}, 4).inverse() == H({0: Q(1, 2)}, 4)

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            HSeries.zero(4).inverse()


class TestBernoulli:
    def test_b2(self):
        assert modified_bernoulli(1) == Q(1, 48)

    def test_b4(self):
        assert modified_bernoulli(2) == Q(-1, 5760)

    def test_round_trip_to_x12(self):
        cap = 12
        acc = HSeries.zero(cap)
        for m in range(1, cap // 2 + 1):
            acc = acc + H({2 * m: 2 * modified_bernoulli(m)}, cap)
        assert acc.exp() * sinh_ratio(1, cap).inverse() == HSeries.one(cap)

    def test_bad_argument(self):
        with pytest.raises(ValueError):
            modified_bernoulli(0)


class TestSinhRatio:
    def test_series(self):
        s = sinh_ratio(1, 4)
        assert (s.coeff(0), s.coeff(2), s.coeff(4)) == (1, Q(1, 24), Q(1, 1920))

    def test_zero_argument(self):
        assert sinh_ratio(0, 6) == HSeries.one(6)

    def test_even_in_argument(self):
        assert sinh_ratio(-1, 8) == sinh_ratio(1, 8)

    def test_odd_coefficients_vanish(self):
        s = sinh_ratio(Q(5, 3), 7)
        assert all(s.coeff(k) == 0 for k in (1, 3, 5, 7))

    def test_modified_bernoulli_from_bernoulli_numbers(self):
        # b_m = B_2m / (4m (2m)!), with the tabulated B_2 .. B_12
        B = (Q(1, 6), Q(-1, 30), Q(1, 42), Q(-1, 30), Q(5, 66),
             Q(-691, 2730))
        for m, b in enumerate(B, start=1):
            assert modified_bernoulli(m) == \
                b / (4 * m * math.factorial(2 * m))

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.just(Q(0)), st.fractions(-5, 5, max_denominator=9)),
           st.integers(0, 12))
    def test_exp_of_modified_bernoulli_sum(self, c, cap):
        # log sinh(ch/2)/(ch/2) = sum_m 2 b_m (ch)^(2m)
        log = H({2 * m: 2 * modified_bernoulli(m) * c ** (2 * m)
                 for m in range(1, cap // 2 + 1)}, cap)
        assert log.exp() == sinh_ratio(c, cap)
        assert sinh_ratio(-c, cap) == sinh_ratio(c, cap)


def test_q_power_multiplies_exponents():
    assert q_power(Q(1, 2), 6) * q_power(Q(3, 2), 6) == q_power(2, 6)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.just(Q(0)), st.fractions(-5, 5, max_denominator=9)),
       st.integers(-2, 20))
def test_q_power_matches_the_exp_recurrence(c, cap):
    # the closed form c^k / k! against exp of c h, error cases included
    try:
        want = HSeries({1: c}, cap).exp()
    except SeriesError as exc:
        with pytest.raises(type(exc)):
            q_power(c, cap)
        return
    assert q_power(c, cap) == want == series_oracle.exp(H({1: c}, cap))


def test_equality_sees_every_exponent():
    assert H({-3: 1, 0: 1}, 4) != H({0: 1}, 4)
    assert H({0: 1}, 4) != H({-3: 1, 0: 1}, 4)
    assert H({-3: 0, 0: 1}, 4) == H({0: 1}, 4)


def test_json_round_trip():
    s = H({-2: Q(3, 7), 0: 1, 4: Q(-1, 5)}, 5)
    assert HSeries.from_json(s.to_json()) == s
    assert s.to_json()["coeffs"]["-2"] == "3/7"


def test_a_series_or_coeffs_that_is_no_object_is_named():
    with pytest.raises(TypeError, match=r"^series is \[\], not an object$"):
        HSeries.from_json([])
    obj = {**H({0: 1}, 1).to_json(), "coeffs": [1]}
    with pytest.raises(TypeError, match=r"^series field 'coeffs' is \[1\]"):
        HSeries.from_json(obj)
    with pytest.raises(TypeError, match="^entry 3: series field 'coeffs'"):
        HSeries.from_json(obj, "entry 3: series")


@pytest.mark.parametrize("key", ["1_0", " 2", "2 ", "02", "+1", "-0", "",
                                 "x", "\u0663"])
def test_json_key_is_spelled_as_str_spells_it(key):
    """``int`` reads most of these keys, each as some other key's value."""
    assert json_key("-12", "exponent") == -12
    with pytest.raises(ValueError, match=re.escape(f"exponent {key!r} is not")):
        json_key(key, "exponent")


@pytest.mark.parametrize("coeff", [
    "0.1", "1e5", "1e1000000", " 1/2", "1_0/3", "1/0", "1/-2", "-0/1",
    "1/02", "3", "1/2/3", "\u0663/1", "", 0.5, True, None, [1, 2]])
def test_json_rational_is_an_int_or_p_over_q_spelled_as_str_spells_them(
        coeff):
    """``Fraction`` reads the strings "0.1" through "3" but "1/0" and
    "1/-2", and "\u0663/1" as 3."""
    assert json_rational("-6/4", "coefficient") == Q(-3, 2)
    assert json_rational(7, "coefficient") == 7
    with pytest.raises(ValueError, match='is not a "p/q" string'):
        json_rational(coeff, "coefficient")


def test_an_integer_past_the_digit_limit_is_named_and_the_limit_stays():
    limit = sys.get_int_max_str_digits()
    long = "1" * (limit + 1)
    for read, value in ((json_key, long), (json_key, "-" + long),
                        (json_rational, long + "/1"),
                        (json_rational, "1/" + long)):
        with pytest.raises(ValueError, match=rf"^field '-?1+\.\.\. has "
                           rf"more than {limit} digits$"):
            read(value, "field")
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("read", [json_int, json_key, json_rational])
@pytest.mark.parametrize("length, echo", [
    (78, "'" + "x" * 78 + "'"), (79, "'" + "x" * 76 + "...")])
def test_a_bad_value_is_echoed_cut_to_80_characters(read, length, echo):
    with pytest.raises((TypeError, ValueError)) as info:
        read("x" * length, "field")
    assert str(info.value).startswith(f"field {echo} is not")


_rat = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def _series(draw, invertible=False):
    coeffs = {k: draw(_rat) for k in range(5) if draw(st.booleans())}
    if invertible:
        coeffs[0] = draw(_rat.filter(lambda x: x != 0))
    return HSeries(coeffs, 5)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ring_axioms_randomized(data):
    # caps are conservative bookkeeping and may differ across routes when
    # intermediate sums cancel; values must agree on the common range
    def same(x, y):
        return series_oracle.agrees_with(x, y, min(x.cap, y.cap))

    a = _series(data.draw)
    b = _series(data.draw)
    c = _series(data.draw)
    assert a * b == b * a
    assert same((a * b) * c, a * (b * c))
    assert same(a * (b + c), a * b + a * c)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_inverse_round_trip_randomized(data):
    a = _series(data.draw, invertible=True)
    assert a * a.inverse() == HSeries.one(5)


@st.composite
def _any_series(draw):
    """A series with cap 0..14 and valuation -5..4 (or zero); draws the
    constructor rejects are discarded."""
    cap = draw(st.integers(0, 14))
    coeffs = {}
    if draw(st.integers(0, 9)):
        v = draw(st.integers(-5, 4))
        n = max(cap - v, 0)
        nums = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
        den = draw(st.integers(1, 6))
        coeffs = {k: Q(c, den) for k, c in enumerate(nums, start=v + 1)}
        coeffs[v] = Q(draw(st.integers(-6, 6).filter(bool)), den)
    try:
        return HSeries(coeffs, cap)
    except SeriesError:
        assume(False)


def _outcome(op, s):
    try:
        out = op(s)
    except (ArithmeticError, SeriesError) as exc:
        return type(exc)
    return out.coeffs, out.cap


@settings(max_examples=200, deadline=None)
@given(_any_series())
def test_exp_matches_power_loop_oracle(s):
    assert _outcome(HSeries.exp, s) == _outcome(series_oracle.exp, s)


@settings(max_examples=200, deadline=None)
@given(_any_series())
def test_inverse_matches_geometric_series_oracle(s):
    assert _outcome(HSeries.inverse, s) == \
        _outcome(series_oracle.inverse, s)


@settings(max_examples=100, deadline=None)
@given(_any_series())
def test_json_round_trip_randomized(s):
    assert HSeries.from_json(json.loads(json.dumps(s.to_json()))) == s
    assert s.to_json()["min_exp"] == min(s.valuation() or 0, 0)


# negative denominators, pairwise-coprime ones and ones sharing factors
_den = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9, 11, 13, 35, -1, -3, -10])
_q = st.builds(Q, st.integers(-30, 30), _den)
_factor = st.one_of(_q, st.integers(-5, 5))
_terms = st.lists(st.tuples(st.integers(0, 3), _factor, _factor),
                  max_size=24)


class TestSumProducts:
    def test_empty_input(self):
        assert sum_products([]) == {}
        assert sum_products(iter(())) == {}

    def test_exact_cancellation_drops_the_key(self):
        terms = [(0, Q(1, 6), 1), (0, Q(1, 3), 1), (0, Q(-1, 2), 1),
                 (1, 2, Q(1, 3))]
        assert sum_products(terms) == {1: Q(2, 3)}

    def test_coprime_denominators(self):
        terms = [("a", Q(1, 2), 1), ("a", Q(1, 3), 1), ("a", Q(2, 5), Q(1, 2))]
        assert sum_products(terms) == {"a": Q(31, 30)}

    def test_denominators_sharing_a_factor(self):
        # 6/12 + 1/4 = 9/12, reduced to 3/4
        out = sum_products([(None, Q(3, 4), Q(2, 3)), (None, Q(1, 4), 1)])
        assert out == {None: Q(3, 4)}

    @settings(max_examples=300, deadline=None)
    @given(_terms)
    def test_matches_fraction_sum_oracle(self, terms):
        out = sum_products(terms)
        assert out == series_oracle.sum_products(terms)
        assert all(type(v) is Q and v for v in out.values())

    @settings(max_examples=100, deadline=None)
    @given(_terms)
    def test_a_sum_with_its_negation_is_empty(self, terms):
        assert sum_products(terms + [(k, -x, y) for k, x, y in terms]) == {}


@st.composite
def _mixed_series(draw):
    """A series with cap 0..14 and valuation -5..4 (or zero), each
    coefficient over its own denominator; draws the constructor rejects
    are discarded."""
    cap = draw(st.integers(0, 14))
    coeffs = {}
    if draw(st.integers(0, 9)):
        v = draw(st.integers(-5, 4))
        coeffs = {k: Q(draw(st.integers(-6, 6)), draw(_den))
                  for k in range(v + 1, cap + 1)}
        coeffs[v] = Q(draw(st.integers(-6, 6).filter(bool)), draw(_den))
    try:
        return HSeries(coeffs, cap)
    except SeriesError:
        assume(False)


@settings(max_examples=200, deadline=None)
@given(_mixed_series(), _mixed_series())
def test_mul_matches_fraction_loop_oracle(a, b):
    assert a * b == series_oracle.mul(a, b)


@st.composite
def _framing_terms(draw):
    """The terms of a framing polynomial, f^e h^n with e in -8..8 and n
    in -4..10, each coefficient over its own denominator.  Some terms
    come with their negation at the same key, which leaves the key out,
    or at f^(e + 2), which cancels the pair at f = 1 and f = -1; a
    hand-built zero term may stay in the map."""
    terms = []
    for e, n, c in draw(st.lists(st.tuples(st.integers(-8, 8),
                                           st.integers(-4, 10), _q),
                                 max_size=30)):
        terms.append(((e, n), c, 1))
        shift = draw(st.sampled_from([None, 0, 2]))
        if shift is not None and e + shift <= 8:
            terms.append(((e + shift, n), -c, 1))
    terms = sum_products(terms)
    if draw(st.booleans()):
        terms[draw(st.integers(-8, 8)), draw(st.integers(-4, 10))] = Q(0)
    return terms


#: Nonzero framings: +-1, integers up to 10^20 in size and non-integral
#: p/q.  Every caller rejects f = 0 before it reads.
_framings = st.one_of(
    st.sampled_from([1, -1]),
    st.integers(-10 ** 20, 10 ** 20).filter(bool),
    st.builds(Q, st.integers(-10 ** 20, 10 ** 20).filter(bool),
              st.integers(2, 10 ** 6)).filter(lambda f: f.denominator > 1))


class TestAtFraming:
    @settings(max_examples=400, deadline=None)
    @given(_framing_terms(), _framings, st.integers(-7, 13))
    def test_matches_the_fraction_oracle(self, terms, f, cap):
        # caps below, inside and above the support -4..10 of h, each the
        # cap of a polynomial that holds the terms through it
        poly = FramingPoly({k: c for k, c in terms.items() if k[1] <= cap},
                           cap)
        assert at_framing(poly, f) == series_oracle.at_framing(terms, f, cap)

    @settings(max_examples=200, deadline=None)
    @given(_framing_terms(), st.integers(-7, 13))
    def test_a_term_above_the_cap_is_rejected(self, terms, cap):
        # unknown is never zero: a polynomial holds no term it cannot know
        if any(n > cap for _, n in terms):
            with pytest.raises(SeriesError, match=f"beyond the cap {cap}"):
                FramingPoly(terms, cap)
        else:
            assert FramingPoly(terms, cap).cap == cap

    @settings(max_examples=200, deadline=None)
    @given(_framing_terms())
    def test_valuation_is_the_lowest_power_of_a_nonzero_term(self, terms):
        powers = [n for (_, n), c in terms.items() if c]
        assert FramingPoly(terms, 10).valuation() == min(powers, default=None)

    def test_a_polynomial_is_the_dict_of_its_terms(self):
        terms = {(-1, 2): Q(1, 2), (3, 2): Q(-2, 3), (0, 0): Q(1)}
        poly = FramingPoly(terms, 3)
        assert poly == terms and dict(poly) == terms
        # [h^2] = f^-1 (-4 f^4 + 3) / 6: a_K .. a_0 over one denominator
        assert poly.rows == [(0, 0, 1, (1,)), (2, -1, 6, (-4, 0, 0, 0, 3))]
        # read through the cap 3: h^3 is known, and zero
        assert at_framing(poly, Q(-1, 2)) == \
            HSeries({0: 1, 2: Q(-11, 12)}, 3)


_small_q = st.builds(Q, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def _capped_polys(draw):
    """A framing polynomial with a cap in -2..6 and terms f^e h^n, e in
    -3..3 and n from -3 to the cap: polar ones in about half the cases,
    and else none below h^0 or, in a third of the others, none below h^1."""
    cap = draw(st.integers(-2, 6))
    low = draw(st.sampled_from([-3, -3, -3, 0, 0, 1]))
    keys = st.tuples(st.integers(-3, 3), st.integers(low, max(low, cap)))
    terms = draw(st.dictionaries(keys, _small_q, max_size=8))
    return FramingPoly({k: c for k, c in terms.items() if c and k[1] <= cap},
                       cap)


_small_framings = st.one_of(st.integers(-9, 9).filter(bool),
                            st.builds(Q, st.integers(-9, 9).filter(bool),
                                      st.integers(2, 5)))

_capped_series = st.integers(-3, 6).flatmap(lambda cap: st.builds(
    HSeries, st.dictionaries(st.integers(-3, cap), _small_q, max_size=6),
    st.just(cap)))


class TestCarriedCap:
    """A framing polynomial carries the cap through which it is known,
    as a series does, and a product of polynomials is known as far as
    the product of their series at any framing."""

    @settings(max_examples=300, deadline=None)
    @given(_capped_polys(), _capped_polys(), _small_framings)
    def test_a_product_reads_as_the_product_of_the_reads(self, a, b, f):
        got = at_framing(a * b, f)
        a_f, b_f = at_framing(a, f), at_framing(b, f)
        want = a_f * b_f
        if (a_f.valuation(), b_f.valuation()) == (a.valuation(),
                                                  b.valuation()):
            assert got == want
        else:
            # a lowest row that vanishes at f: the polynomial's cap holds
            # whatever f is, so it may stop below the series'
            assert got.cap <= want.cap
            assert got == want.truncate(got.cap)

    @settings(max_examples=200, deadline=None)
    @given(_capped_series, st.sampled_from([-1, 0, 1]), _small_framings)
    def test_a_series_reads_as_itself_at_f_to_the_t_h(self, s, t, f):
        # s(f^t h): h^n scaled by f^(t n), through the cap of s
        want = HSeries({n: c * Q(f) ** (t * n) for n, c in s.coeffs.items()},
                       s.cap)
        assert at_framing(FramingPoly.of_series(s, t), f) == want
        if t == 0:
            assert FramingPoly.of_series(s) == FramingPoly.of_series(s, 0)

    def test_a_product_read_past_what_is_known_raises(self):
        # a pole in h leaves the product of two factors known through h^2
        # known through h^1 only, and h^2 of it is unknown, not zero
        product = FramingPoly.of_series(H({-1: 1}, 2)) * \
            FramingPoly.of_series(H({0: 1, 1: 1}, 2), 1)
        assert product.cap == 1 and product == {(0, -1): 1, (1, 0): 1}
        assert at_framing(product, 2) == H({-1: 1, 0: 2}, 1)
        with pytest.raises(SeriesError, match="beyond the cap 1"):
            at_framing(product, 2).coeff(2)
        series = at_framing(FramingPoly.of_series(H.one(1), -1), 2)
        with pytest.raises(SeriesError, match="beyond the cap 1"):
            series.coeff(2)
        with pytest.raises(SeriesError, match="cannot raise a cap"):
            product.truncate(2)
        assert product.truncate(-1) == {(0, -1): 1}

    def test_rows_are_built_on_the_first_read_only(self):
        a = FramingPoly.of_series(H({0: 1, 1: 2}, 3), 1)
        b = FramingPoly({(-1, 1): Q(1, 2), (0, 0): 1}, 3)
        product = a * b
        assert product.valuation() == 0
        assert not any("rows" in vars(p) for p in (a, b, product))
        assert at_framing(product, 2) == H({0: 1, 1: Q(17, 4), 2: 1}, 3)
        assert "rows" in vars(product) and product.rows is product.rows
        assert not any("rows" in vars(p) for p in (a, b))
