"""Root systems, Weyl identities, expansion data, and the perturbative
surgery formula."""

import json
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import series_oracle
import weyl_oracle
from lmo_kernel.qseries import HSeries, SeriesError, q_power
from lmo_kernel.rootsys import (
    ExponentialWeightSum,
    RootSystemError,
    _gaussian_sum_route,
    build_root_system,
    gaussian_on_exponentials,
    gaussian_weyl_closed_form,
    quantum_dim_sq_shifted,
    tau_pg,
    weyl_denominator,
)

A1 = build_root_system("A1")
A2 = build_root_system("A2")
A3 = build_root_system("A3")


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


class TestWeylDenominator:
    def test_all_types(self):
        for rs in (A1, A2, A3):
            rep = weyl_denominator(rs)
            assert rep.equal and rep.equal_squared

    def test_a1_explicit(self):
        rep = weyl_denominator(A1)
        assert dict(rep.product) == {(Q(1, 2),): 1, (Q(-1, 2),): -1}

    def test_a1_square_explicit(self):
        rep = weyl_denominator(A1)
        assert dict(rep.squared_sum) == \
            {(Q(1),): 1, (Q(0),): -2, (Q(-1),): 1}

    def test_a2_term_count(self):
        rep = weyl_denominator(A2)
        assert len(rep.alternating_sum) == 6
        assert all(c in (1, -1) for _, c in rep.alternating_sum)


class TestExpansionData:
    def test_a1_supports_and_values(self):
        E = quantum_dim_sq_shifted(A1, 6)
        assert set(E.terms) == {(Q(1),), (Q(0),), (Q(-1),)}
        g1 = E.terms[(Q(1),)]
        g0 = E.terms[(Q(0),)]
        assert g1.coeff(-2) == 1          # leading Laurent coefficient
        assert g0.coeff(-2) == -2
        assert g0 == g1.scale(-2)

    def test_weyl_symmetry(self):
        for rs in (A1, A2):
            E = quantum_dim_sq_shifted(rs, 4)
            for beta, series in E.terms.items():
                minus = tuple(-x for x in beta)
                assert E.terms[minus] == series

    def test_classical_limit_at_shifted_zero(self):
        # evaluating at lambda = rho gives the trivial module: exactly 1
        for rs in (A1, A2):
            E = quantum_dim_sq_shifted(rs, 6)
            total = HSeries.zero(6)
            for beta, series in E.terms.items():
                total = total + \
                    (series * q_power(rs.inner(beta, rs.rho), 6 + 4 * rs.num_pos)
                     ).truncate(6)
            assert total == HSeries.one(6)

    def test_json_round_trip(self):
        E = quantum_dim_sq_shifted(A2, 3)
        back = ExponentialWeightSum.from_json(E.to_json())
        assert back == E

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_json_round_trip_randomized(self, data):
        rank = data.draw(st.integers(1, 3))
        E = ExponentialWeightSum()
        for _ in range(data.draw(st.integers(0, 4))):
            beta = tuple(data.draw(st.lists(st.integers(-4, 4),
                                            min_size=rank, max_size=rank)))
            cap = data.draw(st.integers(0, 6))
            coeffs = {k: Q(data.draw(st.integers(-6, 6)),
                           data.draw(st.integers(1, 6)))
                      for k in range(-2, cap + 1)}
            E.add(beta, HSeries(coeffs, cap))
        back = ExponentialWeightSum.from_json(json.loads(json.dumps(
            E.to_json())))
        assert back == E


class TestCoefficients:
    def test_a1_unknot_leading(self):
        # g_beta at beta = 2 rho (the positive root) starts at h^-2 with 1
        E = quantum_dim_sq_shifted(A1, 6)
        assert E.terms[(1,)].coeff(-2) == 1


class TestTau:
    def test_sphere_normalization(self):
        for rs in (A1, A2, A3):
            E = quantum_dim_sq_shifted(rs, 6)
            assert tau_pg(rs, E, 1, 3) == HSeries.one(3)
            assert tau_pg(rs, E, -1, 3) == HSeries.one(3)

    def test_lens_space_two_one(self):
        E = quantum_dim_sq_shifted(A1, 10)
        got = tau_pg(A1, E, 2, 4)
        assert got == HSeries({0: Q(1, 2), 2: Q(-1, 64), 4: Q(5, 12288)}, 4)

    def test_lens_space_three_one_a2(self):
        E = quantum_dim_sq_shifted(A2, 12)
        got = tau_pg(A2, E, 3, 3)
        assert got == HSeries({0: Q(1, 27), 1: Q(-2, 81), 3: Q(8, 2187)}, 3)

    def test_sum_route_equals_exponential_route(self):
        rng = random.Random(5)
        for rs in (A1, A2, A3):
            E = ExponentialWeightSum()
            for beta, _ in list(quantum_dim_sq_shifted(rs, 4).items())[:4]:
                coeffs = {k: Q(rng.randint(-5, 5), rng.randint(1, 4))
                          for k in range(-2, 5)}
                E.add(beta, HSeries(coeffs, 4))
            for f in (3, -2):
                assert _gaussian_sum_route(rs, E, f, 4) == \
                    gaussian_on_exponentials(rs, E, f, 4)

    def test_pole_cancelling_inside_a_norm_class(self):
        # beta and -beta share |beta|^2: a pole deeper than 2P that
        # cancels between them no longer reaches the per-class product
        g = HSeries({-4: 1, 0: Q(1, 3)}, 6)
        E = ExponentialWeightSum()
        E.add((Q(1),), g)
        E.add((Q(-1),), -g + HSeries.one(6))
        with pytest.raises(SeriesError):
            series_oracle.gaussian_on_exponentials(A1, E, 2, 4)
        want = q_power(Q(-1, 2), 4)
        assert gaussian_on_exponentials(A1, E, 2, 4) == want
        assert _gaussian_sum_route(A1, E, 2, 4) == want

    def test_outputs_are_power_series(self):
        for rs, fs in ((A1, (2, -2, 3, 5)), (A2, (2, 3, -3))):
            E = quantum_dim_sq_shifted(rs, 8 + 2 * rs.num_pos)
            for f in fs:
                out = tau_pg(rs, E, f, 3)
                v = out.valuation()
                assert v is None or v >= 0

    def test_zero_framing_rejected(self):
        E = quantum_dim_sq_shifted(A1, 4)
        with pytest.raises(RootSystemError):
            tau_pg(A1, E, 0, 2)


_small = st.integers(-6, 6)
_nonzero = st.integers(-6, 6).filter(bool)


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

    def series():
        # top = cap - 1 makes the exponential route raise, old and new alike
        top = cap + draw(st.integers(-1, 2))
        v = draw(st.integers(-2 * P, max(top, -2 * P)))
        nums = draw(st.lists(_small, min_size=top - v, max_size=top - v))
        den = draw(st.integers(1, 6))
        coeffs = {k: Q(c, den) for k, c in enumerate(nums, start=v + 1)}
        coeffs[v] = Q(draw(_nonzero), den)
        return HSeries(coeffs, top)

    E = ExponentialWeightSum()
    for _ in range(draw(st.integers(1, 3))):
        base = tuple(Q(x) for x in
                     draw(st.lists(st.integers(-2, 2), min_size=rs.rank,
                                   max_size=rs.rank)))
        ws = draw(st.lists(st.sampled_from(weyl_oracle.weyl_matrices(rs)),
                           min_size=1, max_size=4))
        betas = [weyl_oracle.apply(w, base) for w in ws]
        for beta in betas:
            E.add(beta, series())
        if len(betas) > 1 and draw(st.booleans()):
            g = series()
            E.add(betas[0], g)
            E.add(betas[-1], -g)
    return rs, E, f, cap


def _outcome(route, *args):
    try:
        return route(*args)
    except SeriesError as exc:
        return type(exc)


class TestGroupedRoutesAgainstOracle:
    @settings(max_examples=100, deadline=None)
    @given(_classed_sums())
    def test_exponential_route(self, case):
        assert _outcome(gaussian_on_exponentials, *case) == \
            _outcome(series_oracle.gaussian_on_exponentials, *case)

    @settings(max_examples=100, deadline=None)
    @given(_classed_sums())
    def test_sum_route(self, case):
        assert _outcome(_gaussian_sum_route, *case) == \
            _outcome(series_oracle.gaussian_sum_route, *case)


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
