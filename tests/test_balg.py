"""Gluing calculus: pairing, partial gluing, strut splitting, the formal
Gaussian integral, and the wheeling inverse."""

import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import gauss_oracle
from lmo_kernel.balg import (
    _strut_count,
    fg_integral,
    omega,
    pair,
    partial,
    strut,
    strut_split,
    theta,
    wheel,
    wheeling,
    wheeling_inverse,
)
from lmo_kernel.diagrams import (
    MAX_VERTICES,
    DiagramSeries,
    JacobiDiagram,
    StructuralError,
    canonicalize,
    glue_legs,
    leg_automorphisms,
    relabel_union,
    series_of,
)
from lmo_kernel.pipeline import SurgeryInput, reduced_input


class TestWheelBuilders:
    def test_wheel_counts(self):
        w = wheel(1)
        assert (w.t, w.m) == (2, 2)
        assert (wheel(3).t, wheel(3).m) == (6, 6)

    def test_strut_counts(self):
        assert (strut().t, strut().m) == (0, 2)

    def test_theta_counts(self):
        assert (theta().t, theta().m) == (2, 0)

    def test_bad_wheel(self):
        with pytest.raises(ValueError):
            wheel(0)


class TestOmega:
    def test_low_orders(self):
        om = omega(2)
        assert om.coeff_of(wheel(1)) == Q(1, 48) and len(om.terms) == 2

    def test_order_four(self):
        om = omega(4)
        w2w2, _, _ = relabel_union(wheel(1), wheel(1))
        assert om.coeff_of(wheel(2)) == Q(-1, 5760)
        assert om.coeff_of(w2w2) == Q(1, 4608)

    def test_degree_zero(self):
        assert omega(0) == DiagramSeries.unit(0)


class TestPair:
    def test_leg_count_mismatch_is_zero(self):
        assert pair(series_of(wheel(1), 8), series_of(wheel(2), 8)).is_zero()

    def test_strut_against_wheel(self):
        got = pair(series_of(strut(), 6), series_of(wheel(1), 6))
        assert got == series_of(theta(), 6, coeff=2)

    def test_empty_pairing(self):
        assert pair(DiagramSeries.unit(4), DiagramSeries.unit(4)) == \
            DiagramSeries.unit(4)

    def test_symmetric_on_strut_free(self):
        a = series_of(wheel(1), 8) + series_of(wheel(2), 8, coeff=Q(1, 3))
        b = series_of(wheel(1), 8, coeff=Q(2)) + series_of(wheel(2), 8)
        assert pair(a, b) == pair(b, a)

    def test_strutful_target_rejected(self):
        with pytest.raises(StructuralError):
            pair(series_of(wheel(1), 6), series_of(strut(), 6))

    def test_leg_count_law_randomized(self):
        # every surviving product comes from equal leg counts, so gluing
        # terms of distinct leg parity can never contribute
        odd = partial(series_of(wheel(1), 8), series_of(wheel(2), 8))
        assert all(f.m == 2 for f in odd.terms)
        assert pair(series_of(strut(), 8), odd).is_zero() is False
        assert pair(series_of(wheel(2), 8), odd).is_zero()


class TestPartial:
    def test_identity(self):
        d = series_of(wheel(2), 8) + series_of(theta(), 8, coeff=Q(5))
        assert partial(DiagramSeries.unit(8), d) == d

    def test_total_gluing_into_strut(self):
        got = partial(series_of(wheel(1), 6), series_of(strut(), 6))
        assert got == series_of(theta(), 6, coeff=2)

    def test_injection_count_into_w4(self):
        # 2 legs into 4 legs: 4 * 3 = 12 concrete injections
        combined, legs1, legs2 = relabel_union(wheel(1), wheel(2))
        injections = list(itertools.permutations(legs2, len(legs1)))
        assert len(injections) == 12
        manual = DiagramSeries(8)
        for sel in injections:
            manual.add_diagram(glue_legs(combined, list(zip(legs1, sel))), 1)
        assert partial(series_of(wheel(1), 8), series_of(wheel(2), 8)) == manual

    def test_internal_vertex_conservation(self):
        got = partial(series_of(wheel(1), 8), series_of(wheel(2), 8))
        assert all(f.t == 6 for f in got.terms)


class TestStrutSplit:
    def test_defining_case(self):
        fr = DiagramSeries(6)
        fr.add_diagram(strut(), Q(3, 2))
        y = DiagramSeries.unit(6) + series_of(wheel(1), 6, coeff=Q(1, 48))
        split = strut_split(fr.exp_union().union(y))
        assert split.f == 3
        assert split.reduced == y

    def test_omega_has_no_struts(self):
        split = strut_split(omega(4))
        assert split.f == 0 and split.reduced == omega(4)

    def test_non_exponential_rejected(self):
        s = series_of(strut(), 6)
        s.add_diagram(theta(), 1)
        s = s + DiagramSeries.unit(6)
        # strut coefficient 1 but no strut^2/2 term
        with pytest.raises(StructuralError):
            strut_split(s)


class TestGaussianIntegral:
    def test_unit(self):
        assert fg_integral(DiagramSeries.unit(6), f_override=2) == \
            DiagramSeries.unit(6)

    def test_odd_leg_terms_vanish(self):
        # no perfect matching exists on an odd leg set, so odd-legged
        # terms integrate to zero ...
        from lmo_kernel.balg import _pairings
        assert list(_pairings([1, 2, 3])) == []
        assert list(_pairings([1, 2, 3, 4, 5])) == []
        # ... and at desk scale the small odd-legged diagrams are already
        # killed by an orientation-odd symmetry before integration
        pentagon = JacobiDiagram(
            5, 1, (((0, 0), (1, 1)), ((1, 0), (2, 1)), ((2, 0), (3, 1)),
                   ((3, 0), (4, 1)), ((4, 0), (0, 1)), ((0, 2), (2, 2)),
                   ((1, 2), (3, 2)), ((4, 2), (5, 0))))
        assert canonicalize(pentagon).is_zero
        odd = DiagramSeries(6)
        odd.add_diagram(pentagon, 1)
        assert fg_integral(odd, f_override=3).is_zero()

    def test_wheel_two(self):
        for f in (1, 2, -3, Q(5, 2)):
            got = fg_integral(series_of(wheel(1), 6), f_override=f)
            assert got == series_of(theta(), 6, coeff=Q(-1) / f)

    def test_zero_framing_rejected(self):
        with pytest.raises(StructuralError):
            fg_integral(omega(4))

    def test_framed_input_uses_split(self):
        fr = DiagramSeries(6)
        fr.add_diagram(strut(), Q(2, 2))
        y = DiagramSeries.unit(6) + series_of(wheel(1), 6)
        got = fg_integral(fr.exp_union().union(y))
        assert got == DiagramSeries.unit(6) + \
            series_of(theta(), 6, coeff=Q(-1, 2))

    def test_matching_route_equals_bijection_route(self):
        w2 = series_of(wheel(1), 8)
        fam = [w2, w2.union(w2), partial(w2, series_of(wheel(2), 8)),
               omega(6)]
        for y in fam:
            for f in (1, -2, 3):
                assert fg_integral(y, f_override=f) == \
                    gauss_oracle.fg_integral_bijections(y, f)


class TestWheeling:
    def test_unit_fixed(self):
        assert wheeling_inverse(DiagramSeries.unit(6)) == \
            DiagramSeries.unit(6)

    def test_left_inverse_property(self):
        for d in (series_of(wheel(1), 6), series_of(wheel(2), 6),
                  omega(6), series_of(theta(), 6)):
            assert wheeling(wheeling_inverse(d)) == d
            assert wheeling_inverse(wheeling(d)) == d

    def test_low_cap_fixes_wheels(self):
        # at imax = 2 no gluing correction fits, so the inverse is the input
        assert wheeling_inverse(omega(2)) == omega(2)

    def test_correction_appears_at_imax_four(self):
        inv = wheeling_inverse(omega(4))
        assert inv.coeff_of(wheel(1)) == Q(1, 48)
        closed4 = [f for f in inv.terms if f.m == 0 and f.t == 4]
        assert closed4, "expected a closed gluing correction at t = 4"


@st.composite
def pieces(draw, struts: bool, max_t: int = 4) -> JacobiDiagram:
    """A wheel, theta, (optionally) strut, or a random diagram of at most
    ``max_t`` trivalent vertices, each carrying at most one leg; two legs
    on one vertex would make it zero."""
    if draw(st.booleans()):
        pool = [wheel(1), wheel(2), theta()] + ([strut()] if struts else [])
        return draw(st.sampled_from(pool))
    t = draw(st.integers(1, max_t))
    m = draw(st.sampled_from([m for m in range(min(t, 6) + 1)
                              if (t + m) % 2 == 0]))
    ports = [(v, s) for v in range(t) for s in (0, 1, 2)]
    with_leg = draw(st.permutations(range(t)))[:m]
    edges = [((v, draw(st.integers(0, 2))), (t + i, 0))
             for i, v in enumerate(with_leg)]
    rest = draw(st.permutations([p for p in ports
                                 if p not in {e[0] for e in edges}]))
    edges += zip(rest[::2], rest[1::2])
    return JacobiDiagram(t, m, tuple(edges))


@st.composite
def gluing_series(draw, struts: bool, max_legs: int) -> DiagramSeries:
    """1-3 terms at imax 12, each a disjoint union of pieces in which a
    piece is often repeated, so terms carry component swaps."""
    s = DiagramSeries(12)
    for _ in range(draw(st.integers(1, 3))):
        d = draw(pieces(struts))
        for _ in range(draw(st.integers(0, 2))):
            nxt = d if draw(st.booleans()) else draw(pieces(struts))
            if d.m + nxt.m <= max_legs and d.t + nxt.t <= 8:
                d, _, _ = relabel_union(d, nxt)
        form = canonicalize(d).form
        if d.m > max_legs or (not struts and form and _strut_count(form)):
            continue
        s.add_diagram(d, Q(draw(st.integers(-3, 3)), draw(st.integers(1, 4))))
    return s


def leg_group_order(gens, m: int) -> int:
    """Order of the permutation group on range(m) the generators span."""
    ident = tuple(range(m))
    seen, stack = {ident}, [ident]
    while stack:
        g = stack.pop()
        for s in gens:
            h = tuple(s[i] for i in g)
            if h not in seen:
                seen.add(h)
                stack.append(h)
    return len(seen)


def _glued_one_pair(d: JacobiDiagram, i: int, j: int):
    try:
        return canonicalize(glue_legs(d, [(d.t + i, d.t + j)]))
    except StructuralError:
        return "circle"


class TestLegAutomorphisms:
    @pytest.mark.parametrize("k", [2, 3])
    def test_wheel_group_is_dihedral(self, k):
        assert leg_group_order(leg_automorphisms(wheel(k)), 2 * k) == 4 * k

    def test_equal_components_swap(self):
        d, _, _ = relabel_union(wheel(1), wheel(1))
        assert leg_group_order(leg_automorphisms(d), 4) == 8

    def test_struts_flip_and_swap(self):
        d, _, _ = relabel_union(strut(), strut())
        assert leg_group_order(leg_automorphisms(d), 4) == 8

    def test_different_components_do_not_swap(self):
        # two hexagons with a chord: t = 6, m = 4 each, different serials
        a, b = (canonicalize(glue_legs(wheel(3), [(6, j)])).form.diagram()
                for j in (9, 7))
        assert leg_group_order(leg_automorphisms(a), 4) == 4
        assert leg_group_order(leg_automorphisms(b), 4) == 2
        d, _, _ = relabel_union(a, b)
        assert leg_group_order(leg_automorphisms(d), 8) == 8

    def test_closed_components_move_no_leg(self):
        d, _, _ = relabel_union(theta(), wheel(1))
        assert leg_automorphisms(d) == ((1, 0),)

    def test_zero_diagram_rejected(self):
        tripod = JacobiDiagram(1, 3, (((0, 0), (1, 0)), ((0, 1), (2, 0)),
                                      ((0, 2), (3, 0))))
        assert canonicalize(tripod).is_zero
        with pytest.raises(StructuralError):
            leg_automorphisms(tripod)

    @settings(max_examples=200, deadline=None)
    @given(pieces(struts=True, max_t=8), pieces(struts=True, max_t=8),
           st.integers(0, 2))
    def test_generators_are_orientation_even_automorphisms(self, d, e, n):
        """On d, d + d or d + e: gluing any leg pair, or its image under a
        generator, gives the same canonical diagram and sign."""
        if n == 1:
            e = d
        cd, ce = canonicalize(d), canonicalize(e)
        if cd.is_zero or ce.is_zero:
            return
        g = cd.form.diagram()
        if n and g.t + g.m + e.t + e.m <= MAX_VERTICES:
            g, _, _ = relabel_union(g, ce.form.diagram())
        for s in leg_automorphisms(g):
            assert sorted(s) == list(range(g.m))
            for i in range(g.m):
                for j in range(i + 1, g.m):
                    assert _glued_one_pair(g, i, j) == \
                        _glued_one_pair(g, s[i], s[j])


class TestGluingTablesAgainstOracle:
    """The orbit-summed tables glue one matching per automorphism orbit;
    the oracles glue every matching."""

    @settings(max_examples=60, deadline=None)
    @given(gluing_series(struts=False, max_legs=8),
           st.sampled_from([1, -2, 3, Q(5, 2)]))
    def test_fg_integral(self, y, f):
        assert fg_integral(y, f_override=f) == \
            gauss_oracle.fg_integral(y, f_override=f)

    @settings(max_examples=60, deadline=None)
    @given(gluing_series(struts=True, max_legs=5),
           gluing_series(struts=False, max_legs=5))
    def test_pair(self, d, y):
        assert pair(d, y) == gauss_oracle.pair(d, y)
        assert pair(y, y) == gauss_oracle.pair(y, y)

    @settings(max_examples=60, deadline=None)
    @given(gluing_series(struts=False, max_legs=4),
           gluing_series(struts=True, max_legs=6))
    def test_partial(self, d, target):
        assert partial(d, target) == gauss_oracle.partial(d, target)

    @pytest.mark.parametrize("f", [1, -1, 2])
    def test_pipeline_series(self, f):
        y = reduced_input(SurgeryInput("unknot", f), 6)
        assert fg_integral(y) == gauss_oracle.fg_integral(y)

    def test_wheels_pairing_and_wheeling(self):
        om = omega(6)
        assert pair(om, om) == gauss_oracle.pair(om, om)
        assert partial(om, om) == gauss_oracle.partial(om, om)
