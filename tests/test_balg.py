"""Gluing calculus: pairing, partial gluing, strut splitting, the formal
Gaussian integral, and the wheeling inverse."""

import itertools
from fractions import Fraction as Q

import pytest

import gauss_oracle
from lmo_kernel.balg import (
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
    DiagramSeries,
    JacobiDiagram,
    StructuralError,
    canonicalize,
    glue_legs,
    relabel_union,
    series_of,
)


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
