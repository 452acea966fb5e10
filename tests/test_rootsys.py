"""Root systems, Weyl identities, expansion data, and the perturbative
surgery formula."""

import functools
import json
import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import series_oracle
import weyl_oracle
from lmo_kernel import balg, liews, rootsys
from lmo_kernel.qseries import (
    HSeries, PoleError, SeriesError, at_framing, q_power)
from lmo_kernel.rootsys import (
    TYPE_A_LABELS,
    RootSystemError,
    _gaussian_sum_route,
    _lattice_product,
    _weyl_prefactor,
    build_root_system,
    gaussian_on_exponentials,
    gaussian_weyl_closed_form,
    lattice_sum,
    lattice_sum_to_json,
    norm_classes,
    quantum_dim_sq_shifted,
    tau_pg,
    tau_poly,
    unknot_classes,
    weyl_denominator,
)

A1 = build_root_system("A1")
A2 = build_root_system("A2")
A3 = build_root_system("A3")
A4 = build_root_system("A4")
A5 = build_root_system("A5")


_half_integer = st.integers(-9, 9).map(lambda n: Q(n, 2))


def _exp_of(rs, classes, f, cap):
    """The exponential route's polynomial at the framing f."""
    return at_framing(gaussian_on_exponentials(rs, classes, cap), f, cap)


def _sum_of(classes, f, cap):
    """The sum route's polynomial at the framing f."""
    return at_framing(_gaussian_sum_route(classes, cap), f, cap)


def _tau_of(rs, classes, f, cap):
    """``tau_pg`` at the framing f of the groups' polynomials."""
    return tau_pg(tau_poly(rs, classes, cap), f)


def _exponential_route(rs, E, f, cap):
    return _exp_of(rs, norm_classes(rs, E), f, cap)


def _sum_route(rs, E, f, cap):
    return _sum_of(norm_classes(rs, E), f, cap)


def _tau(rs, E, f, cap):
    """``tau_pg`` on a lattice sum, as the ``--qdata`` path reads it."""
    return _tau_of(rs, norm_classes(rs, E), f, cap)


def _root_factors(rs, factor) -> list:
    """The factors of prod over alpha > 0 of sum c q^(t alpha) over the
    pairs (t, c) of ``factor``, as ``weyl_denominator`` expands it."""
    return [[(tuple(t * a for a in alpha), c) for t, c in factor]
            for alpha in rs.pos_roots]


def _from_json(obj: list) -> dict:
    """The lattice sum of expansion data, its entries in file order."""
    return lattice_sum((tuple(e["beta"]), HSeries.from_json(e["series"]))
                       for e in obj)


def _fold(entries) -> dict:
    """{beta: series} from (beta, series) entries added in order, one
    exact coefficient at a time, each sum known to the smaller cap; a
    beta whose sum comes out zero is dropped and a later entry starts it
    afresh."""
    acc: dict = {}
    for beta, s in entries:
        if beta in acc:
            coeffs, cap = acc[beta]
            cap = min(cap, s.cap)
            coeffs = {k: coeffs.get(k, Q(0)) + s.coeffs.get(k, Q(0))
                      for k in coeffs.keys() | s.coeffs.keys() if k <= cap}
            acc[beta] = ({k: c for k, c in coeffs.items() if c}, cap)
        else:
            acc[beta] = (dict(s.coeffs), s.cap)
        if not acc[beta][0]:
            del acc[beta]
    return {beta: HSeries(c, cap) for beta, (c, cap) in acc.items()}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([A1, A2, A3]), st.data())
def test_inner_matches_fraction_sum_oracle(rs, data):
    vec = st.lists(_half_integer, min_size=rs.rank, max_size=rs.rank)
    x, y = tuple(data.draw(vec)), tuple(data.draw(vec))
    got = rs.inner(x, y)
    assert type(got) is Q
    assert got == weyl_oracle.inner(rs, x, y) == rs.inner(y, x)


class TestBuild:
    @pytest.mark.parametrize("rs,order,npos,rho_sq", [
        (A1, 2, 1, Q(1, 2)), (A2, 6, 3, Q(2)), (A3, 24, 6, Q(5))])
    def test_counts(self, rs, order, npos, rho_sq):
        assert rs.order == order
        assert rs.num_pos == npos
        assert rs.norm_sq(rs.rho) == rho_sq

    def test_rho_pairings(self):
        assert A1.inner(A1.rho, A1.pos_roots[0]) == 1
        assert sorted(A2.inner(A2.rho, a) for a in A2.pos_roots) == [1, 1, 2]

    def test_rho_is_half_the_positive_root_sum(self):
        for rs in (A1, A2, A3):
            total = [sum(a[i] for a in rs.pos_roots) for i in range(rs.rank)]
            assert rs.rho == tuple(Q(x, 2) for x in total)

    def test_weyl_sign_is_the_determinant(self):
        for rs in (A1, A2, A3):
            mats = weyl_oracle.weyl_matrices(rs)
            assert len(mats) == rs.order
            assert dict(rs.weyl) == {weyl_oracle.apply(w, rs.rho):
                                     weyl_oracle.det(w) for w in mats}

    def test_roots_have_length_two(self):
        for rs in (A1, A2, A3):
            assert all(rs.norm_sq(a) == 2 for a in rs.pos_roots)

    def test_weyl_permutes_roots(self):
        for rs in (A1, A2, A3):
            roots = {a for a in rs.pos_roots}
            roots |= {tuple(-x for x in a) for a in rs.pos_roots}
            for w in weyl_oracle.weyl_matrices(rs):
                assert {weyl_oracle.apply(w, a) for a in roots} == roots
            # ... and they are the orbit of the simple roots (columns of w)
            assert roots == {tuple(row[i] for row in w)
                             for w in weyl_oracle.weyl_matrices(rs)
                             for i in range(rs.rank)}

    def test_sign_is_a_homomorphism(self):
        # sign(s_i x) = -sign(x) on the orbit of rho, s_i the reflection
        # in the simple root alpha_i
        for rs in (A1, A2, A3):
            sign = dict(rs.weyl)
            for x, s in rs.weyl:
                for i in range(rs.rank):
                    alpha = tuple(Q(int(j == i)) for j in range(rs.rank))
                    y = tuple(a - rs.inner(x, alpha) * b
                              for a, b in zip(x, alpha))
                    assert sign[y] == -s

    def test_unsupported_label(self):
        with pytest.raises(RootSystemError):
            build_root_system("B2")
        with pytest.raises(RootSystemError):
            build_root_system("A8")

    @pytest.mark.parametrize("label", TYPE_A_LABELS)
    def test_type_a_counts_and_integer_lattice(self, label):
        rs = build_root_system(label)
        r = rs.rank
        assert label == f"A{r}"
        assert rs.order == math.factorial(r + 1)
        assert rs.num_pos == r * (r + 1) // 2
        # 2 rho is an integer vector; the lattice data holds no Fraction
        assert all(type(x) is Q and (2 * x).denominator == 1
                   for w, _ in rs.weyl for x in w)
        assert all(type(x) is int for v in rs.gram + rs.pos_roots for x in v)


@pytest.mark.parametrize("label", TYPE_A_LABELS)
def test_theta_normalization_across_the_two_sides(label):
    """P_theta(N) = 2N(N^2 - 1) = 24 (rho, rho) for A_(N-1): the diagram
    side's state sum against the root system, which share no code."""
    rs = build_root_system(label)
    n = rs.rank + 1
    state_sum = liews._evaluate(liews.gl_polynomial(balg.theta()), n)
    assert state_sum == 2 * n * (n * n - 1) == 24 * rs.norm_sq(rs.rho)


class TestWeylDenominator:
    def test_all_types(self):
        for rs in (A1, A2, A3, A4):
            assert weyl_denominator(rs) == (True, True)

    def test_a1_explicit(self):
        factors = _root_factors(A1, ((Q(1, 2), 1), (Q(-1, 2), -1)))
        assert _lattice_product(factors) == {(Q(1, 2),): 1, (Q(-1, 2),): -1}

    def test_a1_square_explicit(self):
        assert _lattice_product([A1.weyl, A1.weyl]) == \
            {(Q(1),): 1, (Q(0),): -2, (Q(-1),): 1}

    def test_a2_term_count(self):
        factors = _root_factors(A2, ((Q(1, 2), 1), (Q(-1, 2), -1)))
        product = _lattice_product(factors)
        assert len(product) == 6
        assert all(c in (1, -1) for c in product.values())


def _is_int_where_integral(key) -> bool:
    return all(type(x) is int if x.denominator == 1 else type(x) is Q
               for x in key)


@st.composite
def _lattice_sums(draw):
    """A signed lattice sum of rank 1 to 4 whose points are integral or
    half-integral."""
    rank = draw(st.integers(1, 4))
    coord = _half_integer if draw(st.booleans()) else st.integers(-4, 4)
    point = st.lists(coord, min_size=rank, max_size=rank).map(tuple)
    return draw(st.dictionaries(point, st.integers(-3, 3).filter(bool),
                                max_size=8))


class TestIntegerSumsAgainstFractionOracle:
    @settings(max_examples=150, deadline=None)
    @given(_lattice_sums())
    def test_square_sum(self, a):
        got = _lattice_product([a.items(), a.items()])
        assert got == weyl_oracle.square_sum(a)
        assert all(type(c) is Q for c in got.values())
        assert all(_is_int_where_integral(key) for key in got)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([A1, A2, A3, A4]), st.data())
    def test_root_product(self, rs, data):
        pair = st.tuples(st.one_of(_half_integer, st.integers(-2, 2)),
                         st.integers(-3, 3).filter(bool))
        factor = data.draw(st.lists(pair, min_size=1,
                                    max_size=3 if rs.rank < 4 else 2))
        got = _lattice_product(_root_factors(rs, factor))
        assert got == weyl_oracle.root_product(rs, factor)
        assert all(_is_int_where_integral(key) for key in got)

    def test_weyl_square_lands_on_integer_keys(self):
        for rs in (A1, A2, A3, A4):
            got = _lattice_product([rs.weyl, rs.weyl])
            assert got == weyl_oracle.square_sum(dict(rs.weyl))
            assert all(type(x) is int for key in got for x in key)


class TestExpansionData:
    def test_a1_supports_and_values(self):
        E = quantum_dim_sq_shifted(A1, 6)
        assert set(E) == {(Q(1),), (Q(0),), (Q(-1),)}
        g1 = E[(Q(1),)]
        g0 = E[(Q(0),)]
        assert g1.coeff(-2) == 1          # leading Laurent coefficient
        assert g0.coeff(-2) == -2
        assert g0 == g1.scale(-2)

    def test_weyl_symmetry(self):
        for rs in (A1, A2):
            E = quantum_dim_sq_shifted(rs, 4)
            for beta, series in E.items():
                minus = tuple(-x for x in beta)
                assert E[minus] == series

    def test_classical_limit_at_shifted_zero(self):
        # evaluating at lambda = rho gives the trivial module: exactly 1
        for rs in (A1, A2):
            E = quantum_dim_sq_shifted(rs, 6)
            total = HSeries.zero(6)
            for beta, series in E.items():
                total = total + \
                    (series * q_power(rs.inner(beta, rs.rho), 6 + 4 * rs.num_pos)
                     ).truncate(6)
            assert total == HSeries.one(6)

    def test_json_round_trip(self):
        E = quantum_dim_sq_shifted(A2, 3)
        back = _from_json(lattice_sum_to_json(E))
        assert back == E

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_json_round_trip_randomized(self, data):
        rank = data.draw(st.integers(1, 3))
        E = {}
        for _ in range(data.draw(st.integers(0, 4))):
            beta = tuple(data.draw(st.lists(st.integers(-4, 4),
                                            min_size=rank, max_size=rank)))
            cap = data.draw(st.integers(0, 6))
            coeffs = {k: Q(data.draw(st.integers(-6, 6)),
                           data.draw(st.integers(1, 6)))
                      for k in range(-2, cap + 1)}
            if any(coeffs.values()):
                E[beta] = HSeries(coeffs, cap)
        back = _from_json(json.loads(json.dumps(
            lattice_sum_to_json(E))))
        assert back == E

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_reader_against_a_sequential_fold(self, data):
        # files the writer never produces: betas drawn from a small pool
        # repeat, caps differ, and one entry meets its negation later,
        # possibly truncated
        rank = data.draw(st.integers(1, 3))
        pool = data.draw(st.lists(
            st.lists(st.integers(-3, 3), min_size=rank, max_size=rank),
            min_size=1, max_size=3))

        def series():
            cap = data.draw(st.integers(-1, 6))
            v = data.draw(st.integers(-2, max(cap, -2)))
            return HSeries({k: Q(data.draw(st.integers(-4, 4)),
                                 data.draw(st.integers(1, 4)))
                            for k in range(v, cap + 1)}, cap)

        entries = [(data.draw(st.sampled_from(pool)), series())
                   for _ in range(data.draw(st.integers(2, 8)))]
        i = data.draw(st.integers(0, len(entries) - 1))
        beta, g = entries[i]
        partner = (-g).truncate(data.draw(st.integers(g.cap - 2, g.cap)))
        entries.insert(data.draw(st.integers(i + 1, len(entries))),
                       (beta, partner))
        obj = json.loads(json.dumps([{"beta": b, "series": s.to_json()}
                                     for b, s in entries]))
        want = _fold([(tuple(Q(x) for x in b), s) for b, s in entries])
        assert _from_json(obj) == want


class TestCoefficients:
    def test_a1_unknot_leading(self):
        # g_beta at beta = 2 rho (the positive root) starts at h^-2 with 1
        E = quantum_dim_sq_shifted(A1, 6)
        assert E[(1,)].coeff(-2) == 1


class TestTau:
    def test_sphere_normalization(self):
        for rs in (A1, A2, A3):
            E = quantum_dim_sq_shifted(rs, 6)
            assert _tau(rs, E, 1, 3) == HSeries.one(3)
            assert _tau(rs, E, -1, 3) == HSeries.one(3)

    def test_lens_space_two_one(self):
        E = quantum_dim_sq_shifted(A1, 10)
        got = _tau(A1, E, 2, 4)
        assert got == HSeries({0: Q(1, 2), 2: Q(-1, 64), 4: Q(5, 12288)}, 4)

    def test_lens_space_three_one_a2(self):
        E = quantum_dim_sq_shifted(A2, 12)
        got = _tau(A2, E, 3, 3)
        assert got == HSeries({0: Q(1, 27), 1: Q(-2, 81), 3: Q(8, 2187)}, 3)

    def test_sum_route_equals_exponential_route(self):
        rng = random.Random(5)
        for rs in (A1, A2, A3):
            E = {}
            for beta in sorted(quantum_dim_sq_shifted(rs, 4))[:4]:
                coeffs = {k: Q(rng.randint(-5, 5), rng.randint(1, 4))
                          for k in range(-2, 5)}
                E[beta] = HSeries(coeffs, 4)
            for f in (3, -2):
                assert _sum_route(rs, E, f, 4) == \
                    _exponential_route(rs, E, f, 4)

    def test_pole_cancelling_inside_a_norm_class(self):
        # beta and -beta share |beta|^2: a pole deeper than 2P that
        # cancels between them no longer reaches the per-class product
        g = HSeries({-4: 1, 0: Q(1, 3)}, 6)
        E = {(Q(1),): g, (Q(-1),): -g + HSeries.one(6)}
        with pytest.raises(SeriesError):
            series_oracle.gaussian_on_exponentials(A1, E, 2, 4)
        want = q_power(Q(-1, 2), 4)
        assert _exponential_route(A1, E, 2, 4) == want
        assert _sum_route(A1, E, 2, 4) == want

    def test_outputs_are_power_series(self):
        for rs, fs in ((A1, (2, -2, 3, 5)), (A2, (2, 3, -3))):
            E = quantum_dim_sq_shifted(rs, 8 + 2 * rs.num_pos)
            for f in fs:
                out = _tau(rs, E, f, 3)
                v = out.valuation()
                assert v is None or v >= 0

    def test_same_value_on_int_and_fraction_keys(self):
        for rs in (A1, A2):
            E = quantum_dim_sq_shifted(rs, 4 + 2 * rs.num_pos)
            assert all(type(x) is int for beta in E for x in beta)
            fractional = {tuple(map(Q, beta)): g for beta, g in E.items()}
            for f in (2, -3):
                assert _tau(rs, E, f, 3) == _tau(rs, fractional, f, 3)

    def test_zero_framing_rejected(self):
        E = quantum_dim_sq_shifted(A1, 4)
        with pytest.raises(RootSystemError):
            tau_pg(tau_poly(A1, norm_classes(A1, E), 2), 0)


_small = st.integers(-6, 6)
_nonzero = st.integers(-6, 6).filter(bool)


def _series(draw, P, cap, short, deep):
    """A series of valuation at least -P (-2P if ``deep``), known through
    h^(cap - 1) in half the ``short`` cases and through h^cap to
    h^(cap + 2) otherwise."""
    if short and draw(st.booleans()):
        top = cap - 1
    else:
        top = cap + draw(st.integers(0, 2))
    v = draw(st.integers(-2 * P if deep else -P, top))
    nums = draw(st.lists(_small, min_size=top - v, max_size=top - v))
    den = draw(st.integers(1, 6))
    coeffs = {k: Q(c, den) for k, c in enumerate(nums, start=v + 1)}
    coeffs[v] = Q(draw(_nonzero), den)
    return HSeries(coeffs, top)


@st.composite
def _classed_sums(draw):
    """(rs, E, f, cap): an expansion-data sum over a few norm classes, each
    the images of one lattice vector under random Weyl elements, so that
    several beta share a norm; some classes carry series that cancel
    between their members, polar parts included."""
    rs = draw(st.sampled_from([A1, A2, A3]))
    cap = draw(st.integers(0, 4))
    f = draw(st.sampled_from([1, -1, 2, -2, 3, 5]))
    P = rs.num_pos
    # top = cap - 1 makes the exponential route raise, old and new alike,
    # and a pole deeper than h^-P leaves tau^PG polar: each is drawn in
    # about a quarter of the cases only, so that most cases give a value
    short = draw(st.booleans()) and draw(st.booleans())
    deep = draw(st.booleans()) and draw(st.booleans())

    def series():
        return _series(draw, P, cap, short, deep)

    entries = []
    for _ in range(draw(st.integers(1, 3))):
        base = tuple(Q(x) for x in
                     draw(st.lists(st.integers(-2, 2), min_size=rs.rank,
                                   max_size=rs.rank)))
        ws = draw(st.lists(st.sampled_from(weyl_oracle.weyl_matrices(rs)),
                           min_size=1, max_size=4))
        betas = [weyl_oracle.apply(w, base) for w in ws]
        entries += [(beta, series()) for beta in betas]
        if len(betas) > 1 and draw(st.booleans()):
            g = series()
            entries += [(betas[0], g), (betas[-1], -g)]
    return rs, _fold(entries), f, cap


def _outcome(route, *args):
    try:
        return route(*args)
    except (SeriesError, PoleError, RootSystemError) as exc:
        return type(exc)


class TestGroupedRoutesAgainstOracle:
    @settings(max_examples=100, deadline=None)
    @given(_classed_sums())
    def test_exponential_route(self, case):
        assert _outcome(_exponential_route, *case) == \
            _outcome(series_oracle.gaussian_on_exponentials, *case)

    @settings(max_examples=100, deadline=None)
    @given(_classed_sums())
    def test_sum_route(self, case):
        assert _outcome(_sum_route, *case) == \
            _outcome(series_oracle.gaussian_sum_route, *case)

    @settings(max_examples=100, deadline=None)
    @given(_classed_sums())
    def test_tau_pg(self, case):
        assert _outcome(_tau, *case) == \
            _outcome(series_oracle.tau_pg, *case)


@st.composite
def _shared_series(draw):
    """(rs, g, {beta: count}, f, cap): lattice vectors whose series are
    their counts times one series g.  In a third of the cases they are
    the built-in unknot's |W| points rho + u(rho), each counted |W| sign(u),
    whose counts cancel in total and in their first power sums; else a
    few random vectors, whose counts cancel in total in half the cases."""
    rs = draw(st.sampled_from([A1, A2, A3]))
    cap = draw(st.integers(0, 4))
    f = draw(st.sampled_from([1, -1, 2, -2, 3, 5]))
    g = _series(draw, rs.num_pos, cap, draw(st.booleans()),
                draw(st.booleans()) and draw(st.booleans()))
    counts: dict = {}
    if draw(st.integers(0, 2)) == 0:
        for u_rho, sign in rs.weyl:
            beta = tuple(int(a + b) for a, b in zip(rs.rho, u_rho))
            counts[beta] = counts.get(beta, 0) + rs.order * sign
    else:
        vec = st.lists(st.integers(-2, 2), min_size=rs.rank,
                       max_size=rs.rank).map(tuple)
        for beta in draw(st.lists(vec, min_size=1, max_size=4)):
            counts[beta] = counts.get(beta, 0) + draw(_nonzero)
        total = sum(counts.values())
        if total and draw(st.booleans()):
            beta = draw(vec)
            counts[beta] = counts.get(beta, 0) - total
    return rs, g, {b: c for b, c in counts.items() if c}, f, cap


def _by_norm(rs, counts) -> dict:
    """{|beta|^2: summed count} of {beta: count}, cancelled norms left out."""
    out: dict = {}
    for beta, count in counts.items():
        n = rs.norm_sq(beta)
        out[n] = out.get(n, 0) + count
    return {n: c for n, c in out.items() if c}


class TestGroupsOfOneSeries:
    """A group of norm classes that share one series integrates as the
    same classes one by one (``norm_classes``) and as the per-beta oracle,
    by linearity.  Where g is known below the cap, the exponential route
    cannot integrate a class on its own, while a group whose counted sum
    of exponentials G vanishes through h^(v - 1) needs g only through
    h^(cap - v): its outcome then holds for any continuation of g."""

    @settings(max_examples=150, deadline=None)
    @given(_shared_series(), st.data())
    def test_grouped_split_and_per_beta(self, case, data):
        rs, g, counts, f, cap = case
        grouped = [(g.coeffs, g.cap, _by_norm(rs, counts))]
        E = {beta: g.scale(c) for beta, c in counts.items()}
        split = norm_classes(rs, E)
        tail = {k: Q(data.draw(_small), data.draw(st.integers(1, 6)))
                for k in range(g.cap + 1, cap + 1)}
        g_on = HSeries({**g.coeffs, **tail}, max(g.cap, cap))
        E_on = {beta: g_on.scale(c) for beta, c in counts.items()}
        got = _outcome(_sum_of, grouped, f, cap)
        assert got == _outcome(_sum_of, split, f, cap) == \
            _outcome(series_oracle.gaussian_sum_route, rs, E, f, cap)
        for route, oracle in (
                (_exp_of, series_oracle.gaussian_on_exponentials),
                (_tau_of, series_oracle.tau_pg)):
            got = _outcome(route, rs, grouped, f, cap)
            one_by_one = _outcome(route, rs, split, f, cap)
            assert one_by_one == _outcome(oracle, rs, E, f, cap)
            if got is SeriesError and g.cap < cap:
                assert one_by_one is SeriesError
            else:
                # E_on is E when g is known through the cap
                assert got == _outcome(oracle, rs, E_on, f, cap)

    def test_one_product_per_group(self, monkeypatch):
        # the route multiplies each group's series by its exponentials in
        # one framing product, and no series product besides
        products = []
        product = rootsys._framing_product

        def counted(a, b, *args):
            products.append((a, b))
            return product(a, b, *args)

        def uncounted(a, b):
            raise AssertionError("a series product outside the route's")

        unknot = unknot_classes(A3, 3)
        split = norm_classes(A3, quantum_dim_sq_shifted(A3, 3))
        monkeypatch.setattr(rootsys, "_framing_product", counted)
        monkeypatch.setattr(HSeries, "__mul__", uncounted)
        gaussian_on_exponentials(A3, unknot, 3)
        assert len(products) == len(unknot) == 1
        assert len(unknot[0][2]) == 11
        products.clear()
        gaussian_on_exponentials(A3, split, 3)
        assert len(products) == len(split) >= 11


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["A1", "A2", "A3", "A4", "A5"]),
       st.integers(-7, 7).filter(bool), st.integers(1, 6))
def test_weyl_prefactor_equals_the_literal_product(label, f, cap):
    """lead * h^P times one unit series read through h^cap is the product
    of 1/|W|, q^((s - f)|rho|^2/2) and the P factors 1 - q^(s (rho, a)),
    through h^(cap + P)."""
    rs = build_root_system(label)
    P = rs.num_pos
    assert at_framing(_weyl_prefactor(rs, cap)[1 if f > 0 else -1], f,
                      cap + P) == \
        series_oracle.weyl_prefactor(rs, f, cap + P).truncate(cap + P)


class TestGaussClosedForm:
    def test_matches_paired_weyl_sum(self):
        # direct evaluation of the Gaussian on the squared alternating sum
        for rs in (A1, A2):
            for f in (2, -3):
                total = HSeries.zero(6)
                sq = {}
                for x, sw in rs.weyl:
                    for x2, sw2 in rs.weyl:
                        beta = tuple(a + b for a, b in zip(x, x2))
                        sq[beta] = sq.get(beta, 0) + sw * sw2
                for beta, cnt in sq.items():
                    total = total + q_power(-rs.norm_sq(beta) / (2 * Q(f)), 6) \
                        .scale(cnt)
                assert total == gaussian_weyl_closed_form(rs, f, 6)


def _per_norm(classes) -> dict:
    """{|beta|^2: (class sums, cap)} of a list of groups: each class's
    sums are its count times its group's."""
    out = {}
    for sums, cap, counts in classes:
        for n, count in counts.items():
            assert n not in out
            out[n] = ({k: count * c for k, c in sums.items()}, cap)
    return out


class TestNormClasses:
    def test_one_pass_over_the_lattice_sum(self):
        class Passes(dict):
            """A lattice sum that counts the passes made over it."""
            count = 0

            def _pass(self, view):
                self.count += 1
                return view

            def items(self):
                return self._pass(super().items())

            def keys(self):
                return self._pass(super().keys())

            def values(self):
                return self._pass(super().values())

            def __iter__(self):
                return self._pass(super().__iter__())

        plain = quantum_dim_sq_shifted(A3, 3)
        E = Passes(plain)
        assert norm_classes(A3, E) == norm_classes(A3, plain)
        assert E.count == 1

    @pytest.mark.parametrize("rs", [A1, A2, A3, A4, A5],
                             ids=lambda rs: rs.label)
    def test_fold_equals_the_unfolded_classes(self, rs):
        # the classes of the |W|^2-point sum, their sums read through the
        # cap and classes whose count cancels left out; one unfolded A5
        # build and its classes take about 3 s, so A5 reads every cap from
        # its cap-5 build
        def unfolded(cap):
            return _per_norm(norm_classes(rs, quantum_dim_sq_shifted(rs, cap)))

        A5_classes = unfolded(5) if rs is A5 else None
        for cap in range(1, 6):
            classes = A5_classes if rs is A5 else unfolded(cap)
            want = {}
            for n, (sums, _) in classes.items():
                low = {k: c for k, c in sums.items() if k <= cap}
                if low:
                    want[n] = (low, cap)
            assert _per_norm(unknot_classes(rs, cap)) == want

    @pytest.mark.parametrize("label", TYPE_A_LABELS)
    def test_norms_are_even_ints(self, label):
        # the Gram matrix is integral with an even diagonal, and every
        # beta is a root-lattice vector
        rs = build_root_system(label)
        norms = [n for _, _, counts in unknot_classes(rs, 0) for n in counts]
        if rs.rank <= 4:
            E = quantum_dim_sq_shifted(rs, 1)
            assert all(type(x) is int for beta in E for x in beta)
            norms += [n for _, _, counts in norm_classes(rs, E)
                      for n in counts]
        assert norms and all(type(n) is int and n % 2 == 0 for n in norms)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(TYPE_A_LABELS), st.data())
    def test_norms_of_integer_betas_are_even_ints(self, label, data):
        rs = build_root_system(label)
        beta = st.lists(st.integers(-5, 5), min_size=rs.rank,
                        max_size=rs.rank).map(tuple)
        E = {b: HSeries.one(1) for b in data.draw(st.lists(beta, max_size=5))}
        norms = [n for _, _, counts in norm_classes(rs, E) for n in counts]
        assert all(type(n) is int and n % 2 == 0 for n in norms)

    def test_quantum_dim_caps(self):
        # every product with a valuation-1 factor but the first raises the
        # cap: den_inv comes back at cap + 2P - 1
        assert {E.cap for E in quantum_dim_sq_shifted(A1, 4).values()} == {5}
        assert {E.cap for E in quantum_dim_sq_shifted(A3, 2).values()} == {13}


@functools.lru_cache(maxsize=None)
def _unfolded(label: str, cap: int):
    return quantum_dim_sq_shifted(build_root_system(label), cap)


class TestFoldedTau:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["A1", "A2", "A3"]),
           st.integers(-5, 5).filter(bool), st.integers(1, 5))
    def test_against_the_per_beta_oracle(self, label, f, cap):
        rs = build_root_system(label)
        assert _tau_of(rs, unknot_classes(rs, cap), f, cap) == \
            series_oracle.tau_pg(rs, _unfolded(label, cap), f, cap)

    @pytest.mark.parametrize("label", ["A1", "A2"])
    def test_cap_zero_reads_the_unit_through_h1(self, label):
        # at cap 0 the unknot's S has valuation -P, so the prefactor's unit
        # is read through h^0: the floor at h^1 keeps q_power defined
        rs = build_root_system(label)
        for f in (1, -1, 2, -2, 3, -7):
            assert _tau_of(rs, unknot_classes(rs, 0), f, 0) == \
                series_oracle.tau_pg(rs, _unfolded(label, 0), f, 0)

    @pytest.mark.parametrize("label", ["A4", "A5", "A6", "A7"])
    def test_spheres_and_the_lens_space_two_one(self, label):
        # tau^PG of S^3 is 1; on L(2, 1) it starts at |H_1|^-P = 2^-P
        rs = build_root_system(label)
        tau = tau_poly(rs, unknot_classes(rs, 3), 3)
        assert tau_pg(tau, 1) == HSeries.one(3)
        assert tau_pg(tau, -1) == HSeries.one(3)
        lens = tau_pg(tau, 2)
        assert lens.valuation() == 0
        assert lens.coeff(0) == Q(1, 2 ** rs.num_pos)


def _times(a: dict, b: dict, cap: int) -> dict:
    """The product of two framing polynomials through h^cap."""
    out: dict = {}
    for (e1, n1), x in a.items():
        for (e2, n2), y in b.items():
            if n1 + n2 <= cap:
                key = (e1 + e2, n1 + n2)
                out[key] = out.get(key, 0) + x * y
    return {key: c for key, c in out.items() if c}


@functools.lru_cache(maxsize=None)
def _unknot_tau(label: str, cap: int):
    rs = build_root_system(label)
    return tau_poly(rs, unknot_classes(rs, cap), cap)


@functools.lru_cache(maxsize=None)
def _unknot_representatives(label: str, cap: int) -> dict:
    """The built-in unknot's classes as a lattice sum with one vector per
    class: a vector rho + u(rho) of the class's norm carrying the class's
    series.  The Gaussian integrates a vector through its norm alone, so
    the per-beta oracle reads it as the unfolded sum."""
    rs = build_root_system(label)
    (sums, ccap, counts), = unknot_classes(rs, cap)
    out = {}
    for u_rho, _ in rs.weyl:
        beta = tuple(int(a + b) for a, b in zip(rs.rho, u_rho))
        n = rs.norm_sq(beta)
        if n in counts and all(rs.norm_sq(b) != n for b in out):
            out[beta] = HSeries(sums, ccap).scale(counts[n])
    return out


@st.composite
def _framing_cases(draw):
    """(rs, classes, E, f, cap): A1 to A5, |f| <= 60 (0 included), cap 0 to
    6, and the norm-class groups with a lattice sum E that the per-beta
    oracle reads: the built-in unknot's, or a few random vectors with
    series known through the cap, whose poles may reach h^-2P."""
    label = draw(st.sampled_from(["A1", "A2", "A3", "A4", "A5"]))
    rs = build_root_system(label)
    cap = draw(st.integers(0, 6))
    f = draw(st.integers(-60, 60))
    if draw(st.booleans()):
        return (rs, unknot_classes(rs, cap),
                _unknot_representatives(label, cap), f, cap)
    vec = st.lists(st.integers(-2, 2), min_size=rs.rank,
                   max_size=rs.rank).map(tuple)
    deep = draw(st.booleans()) and draw(st.booleans())
    E = lattice_sum((beta, _series(draw, rs.num_pos, cap, False, deep))
                    for beta in draw(st.lists(vec, min_size=1, max_size=3)))
    return rs, norm_classes(rs, E), E, f, cap


class TestFramingPolynomial:
    """tau^PG is built once per knot, label and order as framing
    polynomials (``tau_poly``), and ``tau_pg`` evaluates them at a
    framing."""

    @settings(max_examples=120, deadline=None)
    @given(_framing_cases())
    def test_against_the_per_beta_oracle(self, case):
        rs, classes, E, f, cap = case
        assert _outcome(_tau_of, rs, classes, f, cap) == \
            _outcome(series_oracle.tau_pg, rs, E, f, cap)

    @pytest.mark.parametrize("label", ["A1", "A2", "A3"])
    def test_support_of_each_order_is_minus_n_to_n(self, label):
        # [h^n] of f^P tau^PG, read off the product of the prefactor and
        # Gaussian polynomials, has exactly the f-exponents -n .. n, for
        # each sign; 2n + 1 framings of one sign therefore fix it
        for cap in range(1, 7):
            P, _, gaussian, prefactor = _unknot_tau(label, cap)
            for s in (1, -1):
                poly = _times(prefactor[s], gaussian, cap)
                support: dict = {}
                for e, n in poly:
                    support.setdefault(n, set()).add(e + P)
                assert support == {n: set(range(-n, n + 1))
                                   for n in range(cap + 1)}

    @pytest.mark.parametrize("label", ["A1", "A2", "A3"])
    def test_the_polynomial_predicts_a_framing_outside_the_fit(self, label):
        # past the 2 cap + 1 framings of one sign that the support [-n, n]
        # needs, the polynomial on that support is tau_pg's value
        for cap in range(1, 7):
            tau = _unknot_tau(label, cap)
            P, _, gaussian, prefactor = tau
            for f in (2 * cap + 2, -2 * cap - 3):
                poly = _times(prefactor[1 if f > 0 else -1], gaussian, cap)
                on_support = {(e, n): c for (e, n), c in poly.items()
                              if -n <= e + P <= n}
                assert at_framing(on_support, f, cap) == tau_pg(tau, f)

    def test_routes_are_compared_as_polynomials(self, monkeypatch):
        # a sum route off by one term at f^-1 h^2 is caught when the
        # polynomials are built, before any framing
        route = rootsys._gaussian_sum_route

        def off(classes, cap):
            out = dict(route(classes, cap))
            out[(-1, 2)] = out.get((-1, 2), 0) + 1
            return out

        monkeypatch.setattr(rootsys, "_gaussian_sum_route", off)
        with pytest.raises(RootSystemError, match="Gaussian sum route "
                           "disagrees with the exponential route"):
            tau_poly(A1, unknot_classes(A1, 3), 3)
