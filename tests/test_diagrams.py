"""Diagram canonicalization, orientation signs, series algebra."""

import json
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import canon_oracle
from lmo_kernel.balg import fg_integral, strut, theta, wheel
from lmo_kernel.diagrams import (
    DiagramSeries,
    EMPTY_FORM,
    SLOT_PERMS,
    JacobiDiagram,
    StructuralError,
    canonicalize,
    glue_legs,
    series_of,
)
from lmo_kernel.pipeline import SurgeryInput, reduced_input
from lmo_kernel.qseries import modified_bernoulli


def flip_vertex(d: JacobiDiagram, v: int) -> JacobiDiagram:
    """Reverse the cyclic order at one trivalent vertex (swap slots 1, 2)."""
    sw = {1: 2, 2: 1}

    def mp(p):
        return (p[0], sw.get(p[1], p[1])) if p[0] == v else p

    return JacobiDiagram(d.t, d.m, tuple((mp(p), mp(q)) for p, q in d.edges))


def relabel(d: JacobiDiagram, perm_t, rots) -> JacobiDiagram:
    """Apply a trivalent-vertex permutation and per-vertex rotations."""
    def mp(p):
        v, s = p
        if v < d.t:
            return (perm_t[v], rots[v][s])
        return p

    return JacobiDiagram(d.t, d.m, tuple((mp(p), mp(q)) for p, q in d.edges))


@st.composite
def port_matchings(draw, t=None, m=None):
    """A random perfect matching of the ports of t trivalent
    vertices and m legs: loops, multi-edges, vertices with 2-3 legs,
    struts and several components all occur."""
    if t is None:
        t = draw(st.integers(0, 8))
        m = draw(st.sampled_from([m for m in range(7) if (t + m) % 2 == 0]))
    ports = [(v, s) for v in range(t) for s in (0, 1, 2)]
    ports += [(v, 0) for v in range(t, t + m)]
    ports = draw(st.permutations(ports))
    return JacobiDiagram(t, m, tuple(zip(ports[::2], ports[1::2])))


def odd_wheel(n: int) -> JacobiDiagram:
    edges = []
    for i in range(n):
        edges.append(((i, 1), ((i + 1) % n, 2)))
        edges.append(((i, 0), (n + i, 0)))
    return JacobiDiagram(n, n, tuple(edges))


class TestValidation:
    def test_parity(self):
        with pytest.raises(StructuralError):
            JacobiDiagram(1, 2, (((0, 0), (1, 0)), ((0, 1), (2, 0)),
                                 ((0, 2), (0, 2))))

    def test_port_reuse_rejected(self):
        with pytest.raises(StructuralError):
            JacobiDiagram(0, 2, (((0, 0), (1, 0)), ((0, 0), (1, 0))))

    def test_uncovered_port_rejected(self):
        with pytest.raises(StructuralError):
            JacobiDiagram(2, 0, (((0, 0), (1, 0)),))

    def test_desk_scale_cap(self):
        with pytest.raises(StructuralError):
            wheel(7)

    def test_degrees(self):
        assert wheel(1).degree == 2 and wheel(1).t == 2 and wheel(1).m == 2
        assert strut().degree == 1
        assert theta().degree == 1 and theta().m == 0
        assert wheel(2).degree == 4


class TestCanonicalization:
    def test_isomorphism_invariance(self):
        base = canonicalize(wheel(2))
        rot_choices = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
        rng = random.Random(7)
        for _ in range(40):
            pt = list(range(4))
            rng.shuffle(pt)
            rots = {v: rng.choice(rot_choices) for v in range(4)}
            cd = canonicalize(relabel(wheel(2), pt, rots))
            assert cd.form == base.form and cd.sign == base.sign

    def test_orientation_flip_negates(self):
        base = canonicalize(wheel(1))
        flipped = canonicalize(flip_vertex(wheel(1), 0))
        assert flipped.form == base.form
        assert flipped.sign == -base.sign

    def test_double_flip_is_identity(self):
        base = canonicalize(wheel(1))
        assert canonicalize(flip_vertex(flip_vertex(wheel(1), 0), 0)) == base

    def test_idempotent_on_representative(self):
        # closed multi-edge forms as the Gaussian integral produces them
        closed = fg_integral(reduced_input(SurgeryInput("unknot", 1), 6), 1)
        forms = [canonicalize(d).form
                 for d in (wheel(1), wheel(2), wheel(3), theta(), strut())]
        for form in forms + list(closed.terms):
            again = canonicalize(form.diagram())
            assert again.form == form and again.sign == 1

    @pytest.mark.parametrize("n", [3, 5])
    def test_odd_wheels_vanish(self, n):
        assert canonicalize(odd_wheel(n)).is_zero

    def test_one_vertex_star_vanishes(self):
        star = JacobiDiagram(1, 3, (((0, 0), (1, 0)), ((0, 1), (2, 0)),
                                    ((0, 2), (3, 0))))
        assert canonicalize(star).is_zero

    def test_theta_does_not_vanish(self):
        assert not canonicalize(theta()).is_zero


class TestCanonicalAgainstOracle:
    """The refinement-guided search against the exhaustive one."""

    @settings(max_examples=150, deadline=None)
    @given(port_matchings(), st.data())
    def test_zero_rule_relabeling_and_flip(self, d, data):
        cd = canonicalize(d)
        assert cd.is_zero == canon_oracle.canonicalize(d).is_zero
        pt = data.draw(st.permutations(range(d.t)))
        rots = [data.draw(st.sampled_from([p for p, sg in SLOT_PERMS
                                           if sg == 1]))
                for _ in range(d.t)]
        assert canonicalize(relabel(d, pt, rots)) == cd
        if d.t and not cd.is_zero:
            v = data.draw(st.integers(0, d.t - 1))
            flipped = canonicalize(flip_vertex(d, v))
            assert flipped.form == cd.form and flipped.sign == -cd.sign

    @settings(max_examples=150, deadline=None)
    @given(port_matchings(), st.data())
    def test_classes_and_sign_ratios_match_oracle(self, d1, data):
        if data.draw(st.booleans()):
            d2 = data.draw(port_matchings(d1.t, d1.m))
        else:
            pt = data.draw(st.permutations(range(d1.t)))
            perms = [data.draw(st.sampled_from([p for p, _ in SLOT_PERMS]))
                     for _ in range(d1.t)]
            d2 = relabel(d1, pt, perms)
        n1, n2 = canonicalize(d1), canonicalize(d2)
        o1, o2 = canon_oracle.canonicalize(d1), canon_oracle.canonicalize(d2)
        assert (n1.is_zero, n2.is_zero) == (o1.is_zero, o2.is_zero)
        assert (n1.form == n2.form) == (o1.form == o2.form)
        if n1.form == n2.form:
            assert n1.sign * n2.sign == o1.sign * o2.sign


class TestSeries:
    def test_unit_is_union_identity(self):
        s = series_of(wheel(1), 6)
        assert DiagramSeries.unit(6).union(s) == s

    def test_degree_additivity(self):
        s = series_of(wheel(1), 6).union(series_of(wheel(1), 6))
        (form, coeff), = s.terms.items()
        assert form.degree == 4 and coeff == 1

    def test_bilinearity(self):
        from lmo_kernel.diagrams import relabel_union
        a = series_of(wheel(1), 8, coeff=2)
        b = series_of(wheel(2), 8, coeff=3)
        w24, _, _ = relabel_union(wheel(1), wheel(2))
        assert a.union(b).coeff_of(w24) == 6

    def test_union_commutative_associative(self):
        a = series_of(wheel(1), 10) + series_of(theta(), 10, coeff=Q(1, 3))
        b = series_of(wheel(2), 10)
        c = series_of(strut(), 10, coeff=Q(-2))
        assert a.union(b) == b.union(a)
        assert a.union(b).union(c) == a.union(b.union(c))

    def test_policy_mismatch_rejected(self):
        with pytest.raises(StructuralError):
            series_of(wheel(1), 4).union(series_of(wheel(1), 6))

    def test_truncation_flag_on_drop(self):
        s = series_of(wheel(2), 4)         # t = 4 fits
        prod = s.union(s)                  # t = 8 dropped
        assert prod.is_zero()

    def test_no_stored_zero_coefficients(self):
        s = series_of(wheel(1), 6) + series_of(wheel(1), 6, coeff=-1)
        assert s.is_zero() and not s.terms


class TestExpUnion:
    def test_exp_of_zero(self):
        assert DiagramSeries(4).exp_union() == DiagramSeries.unit(4)

    def test_wheel_exponential_truncated(self):
        from lmo_kernel.diagrams import relabel_union
        arg = series_of(wheel(1), 4, coeff=modified_bernoulli(1))
        e = arg.exp_union()
        w2w2, _, _ = relabel_union(wheel(1), wheel(1))
        assert e.coeff(EMPTY_FORM) == 1
        assert e.coeff_of(wheel(1)) == Q(1, 48)
        assert e.coeff_of(w2w2) == Q(1, 4608)

    def test_leg_bound_is_twice_imax(self):
        # struts have no internal vertex, so only the leg bound 2 * imax
        # cuts exp(strut): at imax 3 it keeps 0..3 struts, each 1/k!
        from math import factorial
        from lmo_kernel.diagrams import relabel_union
        e = series_of(strut(), 3, coeff=1).exp_union()
        assert sorted(f.m for f in e.terms) == [0, 2, 4, 6]
        d = JacobiDiagram(0, 0, ())
        for k in range(4):
            assert e.coeff_of(d) == Q(1, factorial(k))
            d, _, _ = relabel_union(d, strut())

    def test_strut_exponential_degree_two(self):
        from lmo_kernel.diagrams import relabel_union
        f = Q(3)
        arg = series_of(strut(), 4, coeff=f / 2)
        e = arg.exp_union()
        ss, _, _ = relabel_union(strut(), strut())
        assert e.coeff_of(ss) == f ** 2 / 8

    def test_rejects_degree_zero_part(self):
        with pytest.raises(StructuralError):
            DiagramSeries.unit(4).exp_union()


class TestGlue:
    def test_wheel_closes_to_theta(self):
        glued = glue_legs(wheel(1), [(2, 3)])
        assert canonicalize(glued).form == canonicalize(theta()).form

    def test_circle_detected(self):
        with pytest.raises(StructuralError):
            glue_legs(strut(), [(0, 1)])

    def test_internal_vertices_conserved(self):
        g = glue_legs(wheel(2), [(4, 5)])
        assert g.t == 4 and g.m == 2


class TestJson:
    def test_round_trip(self):
        s = series_of(wheel(2), 8, coeff=Q(7, 3)) + series_of(theta(), 8)
        assert DiagramSeries.from_json(s.to_json(), 8) == s

    def test_nontrivial_cyclic_order(self):
        # the same wheel presented with one vertex's cyclic order reversed
        obj = wheel(1).to_json()
        obj["cyclic"]["0"] = [0, 2, 1]
        loaded = JacobiDiagram.from_json(obj)
        cd = canonicalize(loaded)
        base = canonicalize(wheel(1))
        assert cd.form == base.form and cd.sign == -base.sign

    def test_rotated_cyclic_order_is_same_diagram(self):
        obj = wheel(1).to_json()
        obj["cyclic"]["0"] = [1, 2, 0]
        assert canonicalize(JacobiDiagram.from_json(obj)) == \
            canonicalize(wheel(1))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 8), st.lists(
    st.tuples(port_matchings(),
              st.fractions(min_value=-9, max_value=9, max_denominator=7)),
    max_size=4))
def test_series_json_round_trip(imax, terms):
    s = DiagramSeries(imax)
    for d, c in terms:
        s.add_diagram(d, c)
    back = DiagramSeries.from_json(json.loads(json.dumps(s.to_json())), imax)
    assert back == s
