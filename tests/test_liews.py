"""Weight systems: structure data, tensor contraction, the Gaussian
operator, and the gluing/contraction bridge."""

import itertools
import random
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

import lie_oracle
from gauss_oracle import reduced_integrand
from lmo_kernel import liews
from lmo_kernel.balg import fg_integral, partial, strut, theta, wheel
from lmo_kernel.diagrams import (
    DiagramSeries, JacobiDiagram, StructuralError, canonicalize, series_of)
from lmo_kernel.liews import (
    LieDataError,
    _check_jacobi,
    _mat_inv,
    brute_force_contract,
    build_sl,
    closed_weight,
    contract_diagram,
    exp_tensor,
    gaussian_eval,
    gl_polynomial,
    hat_weight,
    wick,
)
from lmo_kernel.pipeline import SurgeryInput, hat_scalar
from lmo_kernel.qseries import HSeries, q_power, series_sum

sl2 = build_sl(2)
sl3 = build_sl(3)
sl4 = build_sl(4)


class TestBuild:
    def test_dimensions(self):
        assert (sl2.dim, sl2.rank) == (3, 1)
        assert (sl3.dim, sl3.rank) == (8, 2)
        assert (build_sl(4).dim, build_sl(4).rank) == (15, 3)

    def test_sl2_form_values(self):
        # basis order: H, E_12, E_21
        assert sl2.gram[0][0] == 2
        assert sl2.gram[1][2] == 1 and sl2.gram[1][1] == 0

    def test_out_of_range(self):
        with pytest.raises(LieDataError):
            build_sl(5)

    def test_records_n(self):
        assert (sl2.sl_n, sl3.sl_n, sl4.sl_n) == (2, 3, 4)

    def test_state_sum_off_the_structure_data_rejected(self, monkeypatch):
        # a state sum one power of N too low no longer weighs theta as
        # the structure tensor does
        true_poly = liews.gl_polynomial
        monkeypatch.setattr(liews, "gl_polynomial", lambda d: {
            k - 1: c for k, c in true_poly(d).items()})
        with pytest.raises(LieDataError):
            build_sl.__wrapped__(3)

    def test_cartan_pairing_matches_root_form(self):
        # (t_a, t_b) = symmetrized Cartan matrix entries
        for g in (sl2, sl3):
            for i, a in enumerate(g.cartan_idx):
                for j, b in enumerate(g.cartan_idx):
                    expected = 2 if i == j else (-1 if abs(i - j) == 1 else 0)
                    assert g.gram[a][b] == expected


def _dense_jacobi_sum_vanishes(dim, gram_inv, f_low) -> bool:
    """Whether sum_{e,e'} f(a,b,e) ginv(e,e') f(e',c,d), summed
    cyclically over (a, b, c), is 0 for every (a, b, c, d), evaluated
    on dense arrays."""
    f = [[[f_low.get((a, b, c), 0) for c in range(dim)] for b in range(dim)]
         for a in range(dim)]
    raised = [[[sum(f[a][b][e] * gram_inv[e][e2] for e in range(dim))
                for e2 in range(dim)] for b in range(dim)] for a in range(dim)]

    def lowered(a, b, c, d):
        return sum(raised[a][b][e2] * f[e2][c][d] for e2 in range(dim))

    return all(lowered(a, b, c, d) + lowered(b, c, a, d)
               + lowered(c, a, b, d) == 0
               for a, b, c, d in itertools.product(range(dim), repeat=4))


def _rejected(gram_inv, f_low) -> bool:
    try:
        _check_jacobi(gram_inv, f_low)
    except LieDataError:
        return True
    return False


def _scale_orbit(f_low: dict, key: tuple, r: Q) -> dict:
    """``f_low`` with the six entries of the orbit of ``key`` under
    index permutations scaled by ``r``; total antisymmetry survives."""
    out = dict(f_low)
    for perm in itertools.permutations(key):
        out[perm] = out[perm] * r
        if not out[perm]:
            del out[perm]
    return out


class TestBuildAgainstOracle:
    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_data_equals_dense_construction(self, n):
        g = build_sl(n)
        _, gram, f_low = lie_oracle.dense_sl(n)
        assert g.gram == gram
        assert g.gram_inv == _mat_inv(gram)
        assert g.f_low == f_low and list(g.f_low) == list(f_low)
        values = [v for row in g.gram + g.gram_inv for v in row]
        assert all(type(v) is Q for v in values + list(g.f_low.values()))

    @pytest.mark.parametrize("n", (2, 3))
    def test_dense_jacobi_holds(self, n):
        assert lie_oracle.dense_jacobi(lie_oracle.dense_sl(n)[0])

    def test_true_tensor_passes_both(self):
        assert not _rejected(sl3.gram_inv, sl3.f_low)
        assert _dense_jacobi_sum_vanishes(sl3.dim, sl3.gram_inv, sl3.f_low)

    @pytest.mark.parametrize("n", (3, 4))
    def test_scaled_orbit_rejected(self, n):
        g = build_sl(n)
        key = next(iter(g.f_low))
        assert _rejected(g.gram_inv, _scale_orbit(g.f_low, key, Q(2)))

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(sl3.f_low)),
           st.fractions(max_denominator=7).filter(lambda r: r != 1))
    def test_tensor_check_matches_dense_sum(self, key, r):
        # sl_3, not sl_2: sl_2 has one orbit, and scaling it keeps Jacobi
        mutated = _scale_orbit(sl3.f_low, key, r)
        assert _rejected(sl3.gram_inv, mutated) == \
            (not _dense_jacobi_sum_vanishes(sl3.dim, sl3.gram_inv, mutated))

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3),
                           st.integers(-2, 2).filter(bool), max_size=4),
           st.lists(st.lists(st.integers(-1, 1), min_size=4, max_size=4),
                    min_size=4, max_size=4))
    def test_tensor_check_matches_dense_sum_on_any_tensor(self, f_low, ginv):
        # small arbitrary tensors: failures can sit at a single d
        f_low = {k: Q(v) for k, v in f_low.items()}
        assert _rejected(ginv, f_low) == \
            (not _dense_jacobi_sum_vanishes(4, ginv, f_low))


class TestContraction:
    def test_theta_values(self):
        assert contract_diagram(theta(), sl2) == {(): Q(12)}
        assert contract_diagram(theta(), sl3) == {(): Q(48)}
        assert brute_force_contract(theta(), sl3) == {(): Q(48)}

    def test_brute_force_agreement(self):
        for d in (theta(), wheel(1), strut()):
            assert contract_diagram(d, sl2) == brute_force_contract(d, sl2)

    def test_strut_is_casimir(self):
        got = contract_diagram(strut(), sl2)
        # aggregated over orderings: diagonal entries once, off-diagonal twice
        expected = {}
        for a in range(3):
            for b in range(a, 3):
                v = sl2.gram_inv[a][b] * (1 if a == b else 2)
                if v:
                    expected[(a, b)] = v
        assert got == expected

    def test_empty_diagram(self):
        assert contract_diagram(JacobiDiagram(0, 0, ()), sl2) == {(): Q(1)}

    def test_orientation_flip_negates(self):
        flipped = JacobiDiagram(2, 0, (((0, 0), (1, 0)), ((0, 2), (1, 2)),
                                       ((0, 1), (1, 1))))
        assert contract_diagram(flipped, sl2) == {(): Q(-12)}

    def test_schedule_independence(self):
        for d, g in ((wheel(2), sl2), (theta(), sl3)):
            expected = contract_diagram(d, g)
            for perm in itertools.permutations(range(d.t)):
                copy = lie_oracle.relabel_vertices(d, perm)
                assert contract_diagram(copy, g) == expected

    def test_intermediates_stay_narrow(self, monkeypatch):
        # a term of the bridge family's legged w2 glued into w4 (t = 6,
        # m = 2): contracting every edge into its vertex first built a
        # 1176-entry intermediate at sl3, while the schedule that keeps the
        # fewest ports builds at most 172, a bound never to be raised
        d = JacobiDiagram(6, 2, (
            ((0, 0), (1, 0)), ((0, 1), (2, 0)), ((0, 2), (3, 0)),
            ((1, 1), (4, 0)), ((1, 2), (4, 1)), ((2, 1), (6, 0)),
            ((2, 2), (5, 0)), ((3, 1), (7, 0)), ((3, 2), (5, 1)),
            ((4, 2), (5, 2))))
        expected = contract_diagram(
            lie_oracle.relabel_vertices(d, (5, 4, 3, 2, 1, 0)), sl3)
        sizes = []
        pair = liews._contract_pair

        def counted(t1, t2):
            out = pair(t1, t2)
            sizes.append(len(out[1]))
            return out

        monkeypatch.setattr(liews, "_contract_pair", counted)
        assert contract_diagram(d, sl3) == expected
        assert max(sizes) <= 172

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_diagram_matches_brute_force(self, data):
        _check_random_diagram(data, sl2, tmax=4, size=6)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_diagram_matches_brute_force_on_sl3(self, data):
        # sl_3 has 10 nonzero inverse-Gram entries of 64 (sl_2: 3 of 9);
        # t <= 2 and t + m <= 4 keep the brute force to 48^t 8^m <= 147 456
        # assignments
        _check_random_diagram(data, sl3, tmax=2, size=4)


def _check_random_diagram(data, g, tmax: int, size: int) -> None:
    """Contraction against the brute force, before and after a vertex
    relabeling, on a random diagram with t <= tmax and t + m <= size:
    any perfect matching of the ports, so disconnected diagrams, struts,
    loops at one vertex and closed parts beside open ones."""
    t = data.draw(st.integers(0, tmax), label="t")
    m = data.draw(st.sampled_from(range(t % 2, size + 1 - t, 2)), label="m")
    ports = [(v, s) for v in range(t) for s in range(3)]
    ports += [(v, 0) for v in range(t, t + m)]
    ports = data.draw(st.permutations(ports), label="ports")
    d = JacobiDiagram(t, m, tuple(zip(ports[::2], ports[1::2])))
    perm = data.draw(st.permutations(range(t)), label="perm")
    brute = brute_force_contract(d, g)
    assert contract_diagram(d, g) == brute
    assert contract_diagram(lie_oracle.relabel_vertices(d, perm), g) == brute


def _ports(t: int) -> list:
    return [(v, s) for v in range(t) for s in range(3)]


def _closed(ports: list) -> JacobiDiagram:
    """The closed diagram gluing consecutive pairs of ``ports``."""
    return JacobiDiagram(len(ports) // 3, 0,
                         tuple(zip(ports[::2], ports[1::2])))


def _at(poly: dict, n: int) -> int:
    return sum(c * n ** k for k, c in poly.items())


# theta beside theta; a dumbbell (two tadpoles); a connected, loop-free
# diagram with an orientation-odd automorphism
_TWO_THETAS = [(0, 0), (1, 0), (0, 1), (1, 2), (0, 2), (1, 1),
               (2, 0), (3, 0), (2, 1), (3, 2), (2, 2), (3, 1)]
_DUMBBELL = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
_AS_ZERO = [(0, 2), (5, 0), (1, 1), (3, 0), (2, 0), (1, 2), (3, 1), (1, 0),
            (3, 2), (2, 2), (4, 0), (2, 1), (4, 1), (0, 0), (4, 2), (5, 1),
            (5, 2), (0, 1)]


class TestStateSum:
    """Closed sl_n weights from the gl_N state sum against the tensor
    contraction."""

    def test_theta_polynomial(self):
        assert gl_polynomial(theta()) == {3: 2, 1: -2}   # 2N^3 - 2N

    def test_examples_are_what_they_claim(self):
        assert closed_weight(canonicalize(_closed(_TWO_THETAS))[0], 3) \
            == 48 ** 2
        assert canonicalize(_closed(_DUMBBELL)) == (None, 0)
        assert canonicalize(_closed(_AS_ZERO)) == (None, 0)
        assert all(p[0] != q[0] for p, q in _closed(_AS_ZERO).edges)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda k: st.permutations(_ports(2 * k))))
    @example(_TWO_THETAS)
    @example(_DUMBBELL)
    @example(_AS_ZERO)
    def test_random_closed_diagram_matches_contraction(self, ports):
        # any perfect matching of the ports of t <= 8 vertices: parts
        # side by side, tadpoles, diagrams equal to their negatives
        d = _closed(ports)
        form, sign = canonicalize(d)
        for g in (sl2, sl3, sl4) if d.t <= 6 else (sl2, sl3):
            want = contract_diagram(d, g).get((), 0)
            assert _at(gl_polynomial(d), g.sl_n) == want
            got = sign and sign * closed_weight(form, g.sl_n)
            assert got == want

    def test_every_closed_form_of_the_compare_matrix(self):
        # the Gaussian integrals of the compare matrix (A1, A2 at orders
        # 2..4, A3 at 2..3, five framings) depend on framing and order
        # only; their forms are weighed for sl_2, sl_3 and sl_4 alike
        forms = set()
        for f in (1, -1, 2, -2, 3):
            for order in (2, 3, 4):
                inp = SurgeryInput("unknot", f)
                forms |= set(fg_integral(reduced_integrand(inp, 2 * order),
                                         f).terms)
        assert max(form.t for form in forms) == 8
        for g in (sl2, sl3, sl4):
            for form in forms:
                assert form.m == 0
                assert closed_weight(form, g.sl_n) == \
                    contract_diagram(form.diagram(), g).get((), 0)

    def test_open_diagram_rejected(self):
        with pytest.raises(LieDataError):
            gl_polynomial(wheel(1))


class TestIHX:
    def _frame(self, xslots, yslots):
        """Two trivalent vertices x=0, y=1 joined by a bar, their four
        outer ports tied to frame vertices z1=2, z2=3 carrying one leg
        each; xslots/yslots name the frame ports of (slot0, slot1)."""
        anchors = {"A": (2, 0), "B": (2, 1), "C": (3, 0), "D": (3, 1)}
        edges = [((0, 2), (1, 2)),
                 ((2, 2), (4, 0)), ((3, 2), (5, 0))]
        for s, name in enumerate(xslots):
            edges.append(((0, s), anchors[name]))
        for s, name in enumerate(yslots):
            edges.append(((1, s), anchors[name]))
        return JacobiDiagram(4, 2, tuple(edges))

    def test_embedded_identity(self):
        i_cfg = self._frame("AB", "CD")
        h_cfg = self._frame("AC", "BD")
        x_cfg = self._frame("AD", "BC")
        for g in (sl2, sl3):
            ti = contract_diagram(i_cfg, g)
            th = contract_diagram(h_cfg, g)
            tx = contract_diagram(x_cfg, g)
            keys = set(ti) | set(th) | set(tx)
            assert ti and any(ti.values())
            for k in keys:
                assert ti.get(k, 0) == th.get(k, 0) - tx.get(k, 0)


class TestHatWeight:
    def test_theta_grading(self):
        for g, rr in ((sl2, Q(1, 2)), (sl3, Q(2))):
            got = hat_weight(series_of(theta(), 4), g, 4)[()]
            assert got == HSeries({1: 24 * rr}, 4)

    def test_wheel_grading(self):
        T = hat_weight(series_of(wheel(1), 4, coeff=Q(1, 48)), sl2, 4)
        plain = contract_diagram(wheel(1), sl2)
        assert set(T) == {k for k, v in plain.items() if v}
        for key, series in T.items():
            assert series == HSeries({2: plain[key] / 48}, 4)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_per_form_series_sum(self, data):
        # closed forms (m = 0) and open ones of up to 4 vertices and 4
        # legs, so degrees stay within the cap 4
        g = data.draw(st.sampled_from([sl2, sl3]), label="g")
        pairs = []
        for _ in range(data.draw(st.integers(1, 5), label="terms")):
            t = 2 * data.draw(st.integers(0, 2), label="t/2")
            m = 2 * data.draw(st.integers(0, 2), label="m/2")
            ports = _ports(t) + [(v, 0) for v in range(t, t + m)]
            ports = data.draw(st.permutations(ports), label="ports")
            pairs.append((JacobiDiagram(t, m, tuple(zip(ports[::2],
                                                        ports[1::2]))),
                          data.draw(st.fractions(-9, 9, max_denominator=7),
                                    label="coeff")))
        s = DiagramSeries.of_diagrams(4, pairs)
        expected: dict = {}
        for form, coeff in s.terms.items():
            weight = ({(): Q(closed_weight(form, g.sl_n))} if form.m == 0
                      else contract_diagram(form.diagram(), g))
            for key, v in weight.items():
                mono = HSeries({int(form.degree): coeff * v}, 4)
                expected[key] = expected[key] + mono if key in expected \
                    else mono
        assert hat_weight(s, g, 4) == \
            {k: v for k, v in expected.items() if not v.is_zero()}

    def test_unit(self):
        assert hat_weight(DiagramSeries.unit(4), sl2, 4) == \
            {(): HSeries.one(4)}


def _plain_tensor(d: JacobiDiagram, g, cap: int) -> dict:
    """Weight tensor of one diagram with constant series coefficients."""
    return {k: HSeries({0: v}, cap)
            for k, v in contract_diagram(d, g).items() if v}


def _at_weight(T: dict, g, root_coords, cap: int) -> HSeries:
    """Every leg slot of ``T`` evaluated at the Cartan element of a weight
    in simple-root coordinates: slot a picks up b(t, x_a)."""
    t = g.cartan_vector(root_coords)
    u = [sum(g.gram[c][a] * t[c] for c in range(g.dim)) for a in range(g.dim)]
    out = HSeries.zero(cap)
    for key, series in T.items():
        scale = Q(1)
        for a in key:
            scale *= u[a]
        out = out + series.scale(scale)
    return out


class TestEvaluate:
    """Weight tensors at the Cartan element of a weight: the strut weight
    is the Casimir, so it gives the root-form norm of the weight."""

    def test_casimir_gives_norm(self):
        T = _plain_tensor(strut(), sl2, 2)
        rng = random.Random(11)
        for _ in range(20):
            lam = [Q(rng.randint(-9, 9), rng.randint(1, 7))]
            got = _at_weight(T, sl2, lam, 2)
            assert got == HSeries({0: 2 * lam[0] ** 2}, 2)
        T3 = _plain_tensor(strut(), sl3, 2)
        rs_gram = [[2, -1], [-1, 2]]
        for _ in range(20):
            lam = [Q(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(2)]
            norm = sum(rs_gram[i][j] * lam[i] * lam[j]
                       for i in range(2) for j in range(2))
            assert _at_weight(T3, sl3, lam, 2) == HSeries({0: norm}, 2)

    def test_rho_on_sl2(self):
        T = _plain_tensor(strut(), sl2, 2)
        assert _at_weight(T, sl2, [Q(1, 2)], 2) == HSeries({0: Q(1, 2)}, 2)

    def test_zero_weight_keeps_scalar_part(self):
        s = series_of(theta(), 4) + series_of(strut(), 4)
        T = hat_weight(s, sl2, 4)
        assert set(T) - {()}
        assert _at_weight(T, sl2, [0], 4) == T[()] == HSeries({1: 12}, 4)

    def test_open_series_has_no_scalar(self):
        with pytest.raises(StructuralError):
            hat_scalar(series_of(wheel(1), 4), sl2, 4)


class TestWick:
    def test_casimir(self):
        T = _plain_tensor(strut(), sl2, 4)
        for f in (1, 2, Q(-3, 2)):
            assert wick(T, sl2, f, 4) == HSeries({1: Q(-3) / f}, 4)

    def test_odd_terms_vanish(self):
        T = {(0,): HSeries.one(4), (0, 1, 2): HSeries.one(4)}
        assert wick(T, sl2, 1, 4) == HSeries.zero(4)
        assert wick({}, sl2, 1, 4) == HSeries.zero(4)

    def test_pure_power_family(self):
        from math import factorial
        beta = [1]                      # the positive root of sl2
        vec = sl2.cartan_vector(beta)
        bsq = sum(sl2.gram[a][b] * vec[a] * vec[b]
                  for a in range(sl2.dim) for b in range(sl2.dim))
        assert bsq == 2
        for j in (0, 1, 2, 3):
            T = exp_tensor(vec, j)
            got = wick(T, sl2, 3, j)
            # the exp tensor packs 1/(2i)! into its 2i-slot layer
            manual = HSeries.zero(j)
            for i in range(j + 1):
                closed = lie_oracle.pure_power_wick_check(i, bsq, 3, j)
                manual = manual + closed.scale(Q(1, factorial(2 * i)))
            assert got == manual

    def test_closed_formula_examples(self):
        assert lie_oracle.pure_power_wick_check(0, 5, 7, 4) == HSeries.one(4)
        assert lie_oracle.pure_power_wick_check(1, 2, 2, 4) == \
            HSeries({1: -1}, 4)
        assert lie_oracle.pure_power_wick_check(2, 2, 1, 4) == \
            HSeries({2: 12}, 4)

    def test_gaussian_of_exponential(self):
        vec = sl2.cartan_vector([Q(1, 2)])
        T = exp_tensor(vec, 6)
        assert wick(T, sl2, 2, 6) == q_power(Q(-1, 8), 6)

    def test_zero_framing_rejected(self):
        with pytest.raises(LieDataError):
            wick(_plain_tensor(strut(), sl2, 2), sl2, 0, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([sl2, sl3]), st.data())
    def test_exp_tensor_matches_the_per_key_oracle(self, g, data):
        # sparse vectors with repeated and rational entries, zeros
        # included, so that keys repeat an index up to 2 * cap times
        entry = st.one_of(st.just(0), st.integers(-3, 3),
                          st.fractions(-3, 3, max_denominator=4))
        vec = data.draw(st.lists(entry, min_size=g.dim, max_size=g.dim))
        cap = data.draw(st.integers(0, 3 if g is sl2 else 2))
        got = exp_tensor(vec, cap)
        assert got == lie_oracle.exp_tensor(vec, cap)
        assert all(type(c) is Q for s in got.values()
                   for c in s.coeffs.values())


@st.composite
def _weight_tensors(draw, g=None, f=None):
    """(T, g, f, cap): a tensor over sl_2 or sl_3 with a few keys of up
    to six slots, repeated indices included, each with a series of its
    own cap and its own denominators; g and f are drawn unless given."""
    if g is None:
        g = draw(st.sampled_from([sl2, sl3]))
    cap = draw(st.integers(0, 6))
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        key = tuple(sorted(draw(st.lists(st.integers(0, g.dim - 1),
                                         max_size=6))))
        top = draw(st.integers(cap - 6, cap))
        coeffs = {k: Q(draw(st.integers(-6, 6)), draw(st.integers(1, 12)))
                  for k in range(top - 3, top + 1)}
        terms[key] = HSeries(coeffs, top)
    if f is None:
        f = draw(st.sampled_from([1, -1, 2, -2, 3, Q(3, 2), Q(-5, 3)]))
    return terms, g, f, cap


@settings(max_examples=150, deadline=None)
@given(_weight_tensors())
def test_wick_matches_fraction_hafnian_oracle(case):
    assert wick(*case) == lie_oracle.wick(*case)


_ratios = st.builds(Q, st.integers(-4, 4), st.integers(1, 5))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_wick_is_linear(data):
    # wick(a T1 + b T2) = a wick(T1) + b wick(T2), the fact that lets the
    # gauss check contract one summed tensor instead of one per point
    T1, g, f, cap1 = data.draw(_weight_tensors(), label="T1")
    T2, _, _, cap2 = data.draw(_weight_tensors(g, f), label="T2")
    a, b = data.draw(_ratios, label="a"), data.draw(_ratios, label="b")
    cap = min(cap1, cap2)
    combined = {}
    for key in T1.keys() | T2.keys():
        parts = [T[key].scale(c) for T, c in ((T1, a), (T2, b)) if key in T]
        total = series_sum(parts)
        if not total.is_zero():
            combined[key] = total
    lhs = wick(combined, g, f, cap)
    rhs = wick(T1, g, f, cap).scale(a) + wick(T2, g, f, cap).scale(b)
    low = min(lhs.cap, rhs.cap)
    assert lhs.truncate(low) == rhs.truncate(low)


class TestBridge:
    def test_gluing_matches_gaussian(self):
        w2 = series_of(wheel(1), 8)
        family = {
            "w2": w2,
            "w4": series_of(wheel(2), 8),
            "w2w2": w2.union(w2),
            "legged": partial(w2, series_of(wheel(2), 8)),
        }
        for g in (sl2, sl3):
            for y in family.values():
                for f in (1, -1, 2, -2, 3):
                    lhs = hat_scalar(fg_integral(y, f), g, 4)
                    assert lhs == gaussian_eval(y, g, f, 4)

    def test_wheeling_invariance_of_integral(self):
        # the Gaussian integral, at framing f, of a group-like input
        # equals that of the strut-free part of the inverse wheeling
        # image of exp((f/2) strut) ⊔ input; the identity holds in the
        # weight image
        from lmo_kernel.balg import _strut_count, omega, strut, \
            wheeling_inverse
        imax = 4
        for f in (1, 2, -2):
            fr = series_of(strut(), imax, coeff=Q(f, 2))
            for base in (omega(imax),
                         DiagramSeries.unit(imax)
                         + series_of(wheel(1), imax, coeff=Q(1, 7))):
                wheeled = wheeling_inverse(fr.exp_union().union(base))
                strut_free = DiagramSeries(imax, (
                    (form, c, 1) for form, c in wheeled.terms.items()
                    if _strut_count(form) == 0))
                a = hat_scalar(fg_integral(base, f), sl2, imax // 2)
                b = hat_scalar(fg_integral(strut_free, f), sl2, imax // 2)
                assert a == b
