"""Gluing calculus: pairing, partial gluing, the formal Gaussian
integral, and the wheeling inverse."""

import itertools
import math
import sys
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

import canon_oracle
import gauss_oracle
from canon_oracle import leg_group
from gauss_oracle import relabel_union
from lmo_kernel.balg import (
    _gluing_table,
    _gluings,
    _strut_count,
    fg_integral,
    fg_parts,
    omega,
    pair,
    partial,
    strut,
    theta,
    wheel,
    wheeling_inverse,
)
from lmo_kernel import diagrams
from lmo_kernel.diagrams import (
    LEG,
    MAX_VERTICES,
    CanonicalForm,
    DiagramSeries,
    JacobiDiagram,
    StructuralError,
    _canon_component,
    canonicalize,
    diagram_of,
    glue_legs,
    leg_automorphisms,
    series_of,
)
from lmo_kernel.pipeline import SurgeryInput, _wheeled_base, knot_key
from series_oracle import coeff_of
from test_diagrams import port_matchings, shape_of


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
        assert coeff_of(om, wheel(1)) == Q(1, 48) and len(om.terms) == 2

    def test_order_four(self):
        om = omega(4)
        w2w2 = relabel_union(wheel(1), wheel(1))
        assert coeff_of(om, wheel(2)) == Q(-1, 5760)
        assert coeff_of(om, w2w2) == Q(1, 4608)

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
        combined = relabel_union(wheel(1), wheel(2))
        legs1, legs2 = range(6, 8), range(8, 12)  # the legs of each input
        injections = list(itertools.permutations(legs2, len(legs1)))
        assert len(injections) == 12
        manual = DiagramSeries.of_diagrams(8, (
            (glue_legs(combined, list(zip(legs1, sel))), 1)
            for sel in injections))
        assert partial(series_of(wheel(1), 8), series_of(wheel(2), 8)) == manual

    def test_internal_vertex_conservation(self):
        got = partial(series_of(wheel(1), 8), series_of(wheel(2), 8))
        assert all(f.t == 6 for f in got.terms)


class TestStrutSplit:
    """The test oracle's split, which lets ``gauss_oracle.fg_integral``
    integrate a framed series exp((f/2) strut) ⊔ Y literally."""

    def test_defining_case(self):
        fr = series_of(strut(), 6, coeff=Q(3, 2))
        y = DiagramSeries.unit(6) + series_of(wheel(1), 6, coeff=Q(1, 48))
        assert gauss_oracle.strut_split(fr.exp_union().union(y)) == (3, y)

    def test_omega_has_no_struts(self):
        assert gauss_oracle.strut_split(omega(4)) == (0, omega(4))

    def test_non_exponential_rejected(self):
        s = DiagramSeries.of_diagrams(6, [(strut(), 1), (theta(), 1)]) + \
            DiagramSeries.unit(6)
        # strut coefficient 1 but no strut^2/2 term
        with pytest.raises(StructuralError):
            gauss_oracle.strut_split(s)


def _as_partner_tuple(m: int, pairs) -> tuple[int, ...]:
    p = list(range(m))
    for i, j in pairs:
        p[i], p[j] = j, i
    return tuple(p)


class TestGluings:
    """``_gluings`` lists every matching once, in the order of the literal
    enumerators: that order fixes which member of each orbit is glued."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10))
    def test_perfect_matchings(self, m):
        got = list(_gluings(m, range(m), range(m)))
        assert got == [_as_partner_tuple(m, matching) for matching in
                       gauss_oracle.perfect_matchings(list(range(m)))]
        assert len(set(got)) == len(got) == (
            0 if m % 2 else math.prod(range(1, m, 2)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10).flatmap(
        lambda m: st.tuples(st.integers(0, m // 2), st.just(m))))
    def test_injections(self, sizes):
        m1, m = sizes
        got = list(_gluings(m, range(m1), range(m1, m)))
        assert got == [_as_partner_tuple(m, enumerate(sel)) for sel in
                       itertools.permutations(range(m1, m), m1)]
        assert len(set(got)) == len(got) == math.perm(m - m1, m1)


class TestGaussianIntegral:
    def test_unit(self):
        assert fg_integral(DiagramSeries.unit(6), f_override=2) == \
            DiagramSeries.unit(6)

    def test_odd_leg_terms_vanish(self):
        # no perfect matching exists on an odd leg set, so odd-legged
        # terms integrate to zero ...
        for m in (3, 5):
            assert gauss_oracle.perfect_matchings(list(range(m))) == []
            assert list(_gluings(m, range(m), range(m))) == []
        # ... and at desk scale the small odd-legged diagrams are already
        # killed by an orientation-odd symmetry before integration
        pentagon = JacobiDiagram(
            5, 1, (((0, 0), (1, 1)), ((1, 0), (2, 1)), ((2, 0), (3, 1)),
                   ((3, 0), (4, 1)), ((4, 0), (0, 1)), ((0, 2), (2, 2)),
                   ((1, 2), (3, 2)), ((4, 2), (5, 0))))
        assert canonicalize(pentagon) == (None, 0)
        odd = series_of(pentagon, 6)
        assert fg_integral(odd, f_override=3).is_zero()

    def test_wheel_two(self):
        for f in (1, 2, -3, Q(5, 2)):
            got = fg_integral(series_of(wheel(1), 6), f_override=f)
            assert got == series_of(theta(), 6, coeff=Q(-1) / f)

    def test_zero_framing_rejected(self):
        with pytest.raises(StructuralError):
            fg_integral(omega(4), 0)

    def test_strutful_integrand_rejected(self):
        # the strut part is the framing, passed as data, never a term
        y = DiagramSeries.unit(6) + series_of(strut(), 6)
        with pytest.raises(StructuralError):
            fg_integral(y, 1)

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
            assert gauss_oracle.wheeling(wheeling_inverse(d)) == d
            assert wheeling_inverse(gauss_oracle.wheeling(d)) == d

    def test_low_cap_fixes_wheels(self):
        # at imax = 2 no gluing correction fits, so the inverse is the input
        assert wheeling_inverse(omega(2)) == omega(2)

    @pytest.mark.parametrize("imax", [2, 4, 6, 8, 10])
    def test_inverse_wheels_glue_the_inverse_in_one_step(self, imax):
        """Omega^-1, the wheels exponential with negated coefficients, is
        the union inverse of Omega, and partial gluing by it is the
        wheeling inverse that the Neumann loop computes."""
        om, inv = omega(imax), gauss_oracle.omega_inverse(imax)
        assert om.union(inv) == DiagramSeries.unit(imax)
        wheels = DiagramSeries.of_diagrams(imax, (
            (wheel(k), Q(k, 3)) for k in range(1, imax // 2 + 1)))
        glued = DiagramSeries.of_diagrams(imax, [
            (glue_legs(wheel(2), [(4, 5)]), 1),
            (glue_legs(wheel(3), [(6, 9)]), Q(-1, 2))])
        for y in (om, wheels, glued, series_of(theta(), imax)):
            inverted = wheeling_inverse(y)
            assert inverted == partial(inv, y)
            assert partial(om, inverted) == y

    def test_correction_appears_at_imax_four(self):
        inv = wheeling_inverse(omega(4))
        assert coeff_of(inv, wheel(1)) == Q(1, 48)
        closed4 = [f for f in inv.terms if f.m == 0 and f.t == 4]
        assert closed4, "expected a closed gluing correction at t = 4"


def _framed(f, theta_coeff, y: DiagramSeries) -> DiagramSeries:
    """exp((f/2) strut + theta_coeff theta) ⊔ y."""
    arg = DiagramSeries.of_diagrams(
        y.imax, [(strut(), Q(f, 2)), (theta(), theta_coeff)])
    return arg.exp_union().union(y)


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
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(pieces(struts))
        for _ in range(draw(st.integers(0, 2))):
            nxt = d if draw(st.booleans()) else draw(pieces(struts))
            if d.m + nxt.m <= max_legs and d.t + nxt.t <= 8:
                d = relabel_union(d, nxt)
        form = canonicalize(d)[0]
        if d.m > max_legs or (not struts and form and _strut_count(form)):
            continue
        pairs.append((d, Q(draw(st.integers(-3, 3)),
                           draw(st.integers(1, 4)))))
    return DiagramSeries.of_diagrams(12, pairs)


def leg_group_order(gens, m: int) -> int:
    """Order of the permutation group on range(m) the generators span."""
    return len(leg_group(gens, m))


@st.composite
def several_components(draw) -> JacobiDiagram:
    """A nonzero disjoint union of 1-3 pieces, each often a copy of the
    one before: at most 8 trivalent vertices and 6 legs in all.  A piece
    is a random port matching with legs and a trivalent vertex, or,
    where that is zero (most are), one of ``pieces``."""
    def piece():
        d = draw(port_matchings())
        if d.t and d.m and canonicalize(d)[1]:
            return d
        return draw(pieces(struts=True, max_t=8).filter(
            lambda d: canonicalize(d)[1]))

    d = piece()
    for _ in range(draw(st.integers(0, 2))):
        nxt = d if draw(st.booleans()) else piece()
        if d.t + nxt.t <= 8 and d.m + nxt.m <= 6:
            d = relabel_union(d, nxt)
    return d


def _glued_one_pair(d: JacobiDiagram, i: int, j: int):
    try:
        return canonicalize(glue_legs(d, [(d.t + i, d.t + j)]))
    except StructuralError:
        return "circle"


class TestLegAutomorphisms:
    @pytest.mark.parametrize("k", [2, 3])
    def test_wheel_group_is_dihedral(self, k):
        form = canonicalize(wheel(k))[0]
        assert leg_group_order(leg_automorphisms(form), 2 * k) == 4 * k

    def test_equal_components_swap(self):
        form = canonicalize(relabel_union(wheel(1), wheel(1)))[0]
        assert leg_group_order(leg_automorphisms(form), 4) == 8

    def test_struts_flip_and_swap(self):
        form = canonicalize(relabel_union(strut(), strut()))[0]
        assert leg_automorphisms(form) == ((0, 1, 3, 2), (1, 0, 2, 3),
                                           (2, 3, 0, 1))
        assert leg_group_order(leg_automorphisms(form), 4) == 8

    def test_different_components_do_not_swap(self):
        # two hexagons with a chord: t = 6, m = 4 each, different serials
        a, b = (canonicalize(glue_legs(wheel(3), [(6, j)]))[0]
                for j in (9, 7))
        assert leg_group_order(leg_automorphisms(a), 4) == 4
        assert leg_group_order(leg_automorphisms(b), 4) == 2
        assert leg_group_order(leg_automorphisms(a.union(b)), 8) == 8

    def test_forms_do_not_swap_with_each_other(self):
        """The legs of ``diagram_of(w, w)`` belong to two forms: each
        wheel keeps its own group, and no generator swaps the two."""
        w = canonicalize(wheel(1))[0]
        assert leg_automorphisms(w, w) == ((0, 1, 3, 2), (1, 0, 2, 3))
        assert leg_group_order(leg_automorphisms(w, w), 4) == 4
        assert leg_group_order(leg_automorphisms(w.union(w)), 4) == 8

    @settings(max_examples=100, deadline=None)
    @given(several_components(), several_components())
    def test_diagram_of_numbers_as_relabel_union(self, d, e):
        f1, f2 = canonicalize(d)[0], canonicalize(e)[0]
        assume(f1.t + f1.m + f2.t + f2.m <= MAX_VERTICES)
        assert diagram_of(f1, f2) == relabel_union(f1.diagram(),
                                                   f2.diagram())

    def test_closed_components_move_no_leg(self):
        form = canonicalize(relabel_union(theta(), wheel(1)))[0]
        assert leg_automorphisms(form) == ((1, 0),)

    @settings(max_examples=100, deadline=None)
    @given(several_components())
    def test_generators_span_the_whole_leg_group(self, d):
        """The pruned canonical search keeps enough automorphisms: the
        generators span every leg permutation that the exhaustive
        search's minimal labelings induce."""
        form = canonicalize(d)[0]
        assert leg_group(leg_automorphisms(form), d.m) == \
            leg_group(canon_oracle.leg_maps(form.diagram()), d.m)

    def test_tied_labelings_span_a_group_of_order_four(self):
        """This search never beats its first serial: its tied labelings
        alone span the whole leg group."""
        d = JacobiDiagram(8, 4, (
            ((0, 0), (4, 0)), ((0, 1), (4, 1)), ((0, 2), (10, 0)),
            ((1, 0), (3, 0)), ((1, 1), (2, 0)), ((1, 2), (8, 0)),
            ((2, 1), (5, 2)), ((2, 2), (7, 1)), ((3, 1), (4, 2)),
            ((3, 2), (7, 2)), ((5, 0), (6, 2)), ((5, 1), (6, 0)),
            ((6, 1), (9, 0)), ((7, 0), (11, 0))))
        form = canonicalize(d)[0]
        group = leg_group(canon_oracle.leg_maps(form.diagram()), 4)
        assert len(group) == 4
        # whichever shape of the serial came first, this one's search
        # finds the whole group
        assert leg_group(_canon_component(shape_of(d))[2], 4) == group
        assert leg_group(leg_automorphisms(form), 4) == group

    def test_generators_from_an_overtaken_serial_are_kept(self):
        """This shape's search ties at a serial that a later candidate
        beats: the automorphism found at the overtaken serial stays a
        generator, and the generators span the oracle's leg group."""
        shape = (0, 16, 1, 7, 2, 10, 3, 12, 4, 15, 5, 6, 8, LEG, 9, LEG,
                 11, 23, 13, 18, 14, 19, 17, 21, 20, 22)
        overtaken = []

        def watch(frame, event, arg):
            # a leaf with no first labeling, after automorphisms were
            # found, is the first at a serial that beat theirs
            code = frame.f_code
            if (event == "call" and code.co_name == "leaf"
                    and code.co_filename == diagrams.__file__
                    and not frame.f_locals["first"]):
                overtaken.append(len(frame.f_locals["autos"]))

        sys.setprofile(watch)
        try:
            serial, sign, gens = _canon_component(shape)
        finally:
            sys.setprofile(None)
        assert overtaken[-1] > 0
        assert (serial[0], serial[1], sign, gens) == (8, 2, -1, ((1, 0),))
        form = CanonicalForm((serial,))
        assert leg_group(gens, 2) == \
            leg_group(canon_oracle.leg_maps(form.diagram()), 2)

    def test_zero_diagram_rejected(self):
        tripod = JacobiDiagram(1, 3, (((0, 0), (1, 0)), ((0, 1), (2, 0)),
                                      ((0, 2), (3, 0))))
        assert canonicalize(tripod) == (None, 0)

    @settings(max_examples=200, deadline=None)
    @given(pieces(struts=True, max_t=8), pieces(struts=True, max_t=8),
           st.integers(0, 2))
    def test_generators_are_orientation_even_automorphisms(self, d, e, n):
        """On d, d + d or d + e: gluing any leg pair, or its image under a
        generator, gives the same canonical diagram and sign."""
        if n == 1:
            e = d
        (form, sign), (other, other_sign) = canonicalize(d), canonicalize(e)
        if not (sign and other_sign):
            return
        if n and form.t + form.m + other.t + other.m <= MAX_VERTICES:
            form = form.union(other)
        g = form.diagram()
        for s in leg_automorphisms(form):
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
    def test_fg_integral(self, s, f):
        # framing as data equals the literal integral of the framed series
        # exp((f/2) strut) ⊔ y, whose strut content is exponential when
        # y is group-like (degree-0 coefficient 1)
        y = DiagramSeries.unit(s.imax) + s
        assert fg_integral(y, f) == \
            gauss_oracle.fg_integral(_framed(f, Q(0), y))

    @settings(max_examples=60, deadline=None)
    @given(gluing_series(struts=False, max_legs=8),
           st.fractions(-5, 5, max_denominator=6).filter(bool))
    def test_fg_parts(self, s, f):
        # the integral at f is the sum over k of (-1/f)^k times part k,
        # the closed gluings of the 2k-legged terms, whatever f is
        y = DiagramSeries.unit(s.imax) + s
        parts = fg_parts(y)
        assert set(parts) == {form.m // 2 for form in y.terms
                              if form.m % 2 == 0}
        assert all(form.m == 0 for part in parts.values()
                   for form in part.terms)
        total = DiagramSeries(y.imax)
        for k, part in parts.items():
            total = total + part.scale((-1 / f) ** k)
        assert fg_integral(y, f) == total == \
            gauss_oracle.fg_integral(_framed(f, Q(0), y))

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
        # the framed definition-route integrand, built from its parts:
        # wheeled base ⊔ exp((f/2)(strut - theta/24))
        inp = SurgeryInput("unknot", f)
        framed = _framed(f, Q(-f, 48), _wheeled_base(knot_key(inp), 6))
        assert fg_integral(gauss_oracle.reduced_integrand(inp, 6), f) == \
            gauss_oracle.fg_integral(framed)

    def test_wheels_pairing_and_wheeling(self):
        om = omega(6)
        assert pair(om, om) == gauss_oracle.pair(om, om)
        assert partial(om, om) == gauss_oracle.partial(om, om)


def _with_thetas(d: JacobiDiagram, k: int) -> JacobiDiagram:
    """``d`` ⊔ theta^k."""
    for _ in range(k):
        d = relabel_union(d, theta())
    return d


class TestClosedComponentsPassThrough:
    """Closed components glue nothing: a gluing table joins them to the
    table of the open components, and a leg-free first term glues
    nothing at all."""

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_fg_integral(self, k):
        y = series_of(_with_thetas(wheel(2), k), 8, coeff=Q(3, 2))
        for f in (1, -2, Q(5, 2)):
            assert fg_integral(y, f) == \
                gauss_oracle.fg_integral_bijections(y, f)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_leg_free_first_term(self, k):
        # the empty form, theta and theta ⊔ theta
        d = series_of(_with_thetas(JacobiDiagram(0, 0, ()), k), 8,
                      coeff=Q(-2, 3))
        y = (DiagramSeries.unit(8) + series_of(theta(), 8, coeff=Q(1, 5))
             + series_of(_with_thetas(wheel(1), 1), 8)
             + series_of(wheel(2), 8, coeff=Q(7)))
        assert pair(d, y) == gauss_oracle.pair(d, y)
        assert partial(d, y) == gauss_oracle.partial(d, y)
        assert partial(d, y) == d.union(y)

    def test_closed_only_pair(self):
        a = series_of(theta(), 8) + series_of(_with_thetas(theta(), 1), 8,
                                              coeff=Q(-1, 4))
        assert pair(a, a) == gauss_oracle.pair(a, a) == a.union(a)
        assert partial(a, a) == gauss_oracle.partial(a, a)

    def test_table_is_the_open_table_with_the_closed_part(self):
        def split(d):
            form = canonicalize(d)[0]
            return form, tuple(CanonicalForm(tuple(
                c for c in form.components if bool(c[1]) == is_open))
                for is_open in (True, False))

        w1w1 = relabel_union(wheel(1), wheel(1))
        for d in (_with_thetas(wheel(2), 1), _with_thetas(w1w1, 2)):
            form, (open_part, closed) = split(d)
            assert _gluing_table(form) == tuple(
                (f.union(closed), n) for f, n in _gluing_table(open_part))
        (f1, (o1, c1)), (f2, (o2, c2)) = (
            split(_with_thetas(wheel(1), 1)), split(_with_thetas(wheel(2), 2)))
        assert _gluing_table(f1, f2) == tuple(
            (f.union(c1).union(c2), n) for f, n in _gluing_table(o1, o2))
