"""Acceptance criteria.

Every equality below is an exact rational coefficient match (tolerance
zero).  Each criterion prints one PASS line when it holds and asserts
its stated runtime budget.  Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.
"""

import itertools
import time
from fractions import Fraction as Q

import lie_oracle
from gauss_oracle import reduced_integrand
from lmo_kernel import balg, liews, pipeline, rootsys
from lmo_kernel.balg import fg_integral, omega, pair, partial, theta, wheel
from lmo_kernel.diagrams import JacobiDiagram, canonicalize, series_of
from lmo_kernel.liews import build_sl, contract_diagram, gaussian_eval
from lmo_kernel.pipeline import (
    SurgeryInput,
    compare,
    hat_scalar,
    lie_pair,
    lmo_via_definition,
    lmo_via_lemma,
)
from lmo_kernel.qseries import HSeries, modified_bernoulli, sinh_ratio


def _report(n: int, name: str, started: float, budget: float) -> None:
    elapsed = time.time() - started
    assert elapsed < budget, f"criterion {n} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {n:2d} PASS  {name}  ({elapsed:.2f}s)")


def test_criterion_01_bernoulli():
    t0 = time.time()
    assert modified_bernoulli(1) == Q(1, 48)
    assert modified_bernoulli(2) == Q(-1, 5760)
    cap = 12
    acc = HSeries.zero(cap)
    for m in range(1, cap // 2 + 1):
        acc = acc + HSeries({2 * m: 2 * modified_bernoulli(m)}, cap)
    assert acc.exp() * sinh_ratio(1, cap).inverse() == HSeries.one(cap)
    _report(1, "modified Bernoulli numbers and round-trip to x^12", t0, 1)


def test_criterion_02_weyl_denominator():
    t0 = time.time()
    for label in ("A1", "A2", "A3"):
        assert rootsys.weyl_denominator(
            rootsys.build_root_system(label)) == (True, True), label
    _report(2, "Weyl denominator identity and its square (A1-A3)", t0, 1)


def test_criterion_03_theta_value():
    t0 = time.time()
    for label, expected in (("A1", 12), ("A2", 48)):
        rs, g = lie_pair(label)
        brute = liews.brute_force_contract(theta(), g)
        assert brute == {(): Q(expected)}
        assert 24 * rs.norm_sq(rs.rho) == expected
        assert contract_diagram(theta(), g) == brute
    _report(3, "theta weight 24(rho,rho) by brute-force contraction", t0, 1)


def test_criterion_04_wheels_pairing_identity():
    t0 = time.time()
    om = omega(8)
    paired = pair(om, om)
    for label in ("A1", "A2"):
        rs, g = lie_pair(label)
        lhs = hat_scalar(paired, g, 4)
        rhs = HSeries.one(4)
        for alpha in rs.pos_roots:
            rhs = rhs * sinh_ratio(rs.inner(rs.rho, alpha), 4)
        assert lhs == rhs, label
    _report(4, "graded weight of <Omega,Omega> vs sinh product to h^4", t0, 60)


def test_criterion_05_bridge():
    t0 = time.time()
    imax = 8
    w2 = series_of(wheel(1), imax)
    family = {
        "w2": w2,
        "w4": series_of(wheel(2), imax),
        "w2w2": w2.union(w2),
        "legged_w2_w4": partial(w2, series_of(wheel(2), imax)),
        "legged_w2_w2w2": partial(w2, w2.union(w2)),
    }
    for label in ("A1", "A2"):
        _, g = lie_pair(label)
        for name, y in family.items():
            for f in (1, -1, 2, -2, 3):
                lhs = hat_scalar(fg_integral(y, f), g, imax // 2)
                rhs = gaussian_eval(y, g, f, imax // 2)
                assert lhs == rhs, (label, name, f)
    _report(5, "gluing-vs-Wick bridge on the wheel family", t0, 300)


def test_criterion_06_route_equality():
    t0 = time.time()
    for label in ("A1", "A2"):
        for f in (1, -1, 2, -2, 3):
            inp = SurgeryInput("unknot", f)
            d = lmo_via_definition(inp, label, 3)
            l = lmo_via_lemma(inp, label, 3)
            assert d == l, (label, f)
    _report(6, "definition route == closed-form route at h^3 (imax 6)",
            t0, 600)


def test_criterion_07_reference_surgery_value():
    t0 = time.time()
    label = "A1"
    _, g = lie_pair(label)
    oo_inv = pipeline._omega_pair_scalar(label, 4).inverse()
    theta_h = pipeline._theta_weight(label, 4)
    for s in (1, -1):
        lhs = hat_scalar(fg_integral(
            reduced_integrand(SurgeryInput("unknot", s), 8), s), g, 4)
        rhs = oo_inv * theta_h.scale(Q(-s, 16)).exp()
        assert lhs == rhs, s
    _report(7, "reference unknot surgery = <Omega,Omega>^-1 exp(-+theta/16)"
               " to h^4", t0, 300)


def test_criterion_08_main_theorem():
    t0 = time.time()
    for label in ("A1", "A2"):
        for f in (1, -1, 2, -2, 3):
            rep = compare(SurgeryInput("unknot", f), label, 3)
            assert rep.routes_equal, (label, f)
            assert rep.equal, (label, f)
            if abs(f) == 1:
                assert rep.lmo_definition == HSeries.one(3)
                assert rep.taupg == HSeries.one(3)
                assert rep.h1_power == 1
    _report(8, "main equality: weight of surgery invariant = "
               "|H1|^|Phi+| tau at h^3", t0, 900)


def test_criterion_09_gauss_display():
    t0 = time.time()
    cap = 6
    for label in ("A1", "A2"):
        rs, g = lie_pair(label)
        for f in (2, 3, -2):
            total = HSeries.zero(cap)
            for x, sw in rs.weyl:
                for x2, sw2 in rs.weyl:
                    beta = tuple(a + b for a, b in zip(x, x2))
                    tensor = liews.exp_tensor(g.cartan_vector(beta), cap)
                    total = total + \
                        liews.wick(tensor, g, f, cap).scale(sw * sw2)
            closed = rootsys.gaussian_weyl_closed_form(rs, f, cap)
            assert total == closed, (label, f)
            # same value in product form:
            #   |W| q^(-|rho|^2/f) prod (q^(-(rho,a)/2f) - q^((rho,a)/2f))
            from lmo_kernel.qseries import q_power
            mid = HSeries({0: rs.order}, cap + 2 * rs.num_pos)
            mid = mid * q_power(-rs.norm_sq(rs.rho) / Q(f), cap + 2 * rs.num_pos)
            for alpha in rs.pos_roots:
                c = rs.inner(rs.rho, alpha) / (2 * Q(f))
                mid = mid * (q_power(-c, cap + 2 * rs.num_pos)
                             - q_power(c, cap + 2 * rs.num_pos))
            assert mid.truncate(cap) == closed, (label, f)
            P = rs.num_pos
            lead = Q(rs.order) * Q(-1, f) ** P
            for alpha in rs.pos_roots:
                lead *= rs.inner(rs.rho, alpha)
            assert all(total.coeff(k) == 0 for k in range(P))
            assert total.coeff(P) == lead, (label, f)
    _report(9, "Wick on squared Weyl sum: closed product and leading term"
               " to h^6", t0, 60)


def test_criterion_10_structural_suites():
    t0 = time.time()
    # AS double flip
    def flip(d, v):
        sw = {1: 2, 2: 1}
        mp = lambda p: (p[0], sw.get(p[1], p[1])) if p[0] == v else p
        return JacobiDiagram(d.t, d.m, tuple((mp(p), mp(q)) for p, q in d.edges))
    base = canonicalize(wheel(2))
    once = canonicalize(flip(wheel(2), 1))
    twice = canonicalize(flip(flip(wheel(2), 1), 1))
    assert once == (base[0], -base[1])
    assert twice == base

    # odd wheel vanishes
    tri = JacobiDiagram(3, 3, (((0, 1), (1, 2)), ((1, 1), (2, 2)),
                               ((2, 1), (0, 2)), ((0, 0), (3, 0)),
                               ((1, 0), (4, 0)), ((2, 0), (5, 0))))
    assert canonicalize(tri) == (None, 0)

    # embedded IHX configurations (weight-system compatibility)
    def frame(xslots, yslots):
        anchors = {"A": (2, 0), "B": (2, 1), "C": (3, 0), "D": (3, 1)}
        edges = [((0, 2), (1, 2)), ((2, 2), (4, 0)), ((3, 2), (5, 0))]
        for s, nm in enumerate(xslots):
            edges.append(((0, s), anchors[nm]))
        for s, nm in enumerate(yslots):
            edges.append(((1, s), anchors[nm]))
        return JacobiDiagram(4, 2, tuple(edges))
    for g in (build_sl(2), build_sl(3)):
        ti = contract_diagram(frame("AB", "CD"), g)
        th = contract_diagram(frame("AC", "BD"), g)
        tx = contract_diagram(frame("AD", "BC"), g)
        assert ti and any(v for v in ti.values())
        for k in set(ti) | set(th) | set(tx):
            assert ti.get(k, 0) == th.get(k, 0) - tx.get(k, 0)

    # contraction-order independence: relabeled vertices reorder the
    # greedy schedule
    expected = contract_diagram(wheel(2), build_sl(2))
    for perm in itertools.permutations(range(4)):
        copy = lie_oracle.relabel_vertices(wheel(2), perm)
        assert contract_diagram(copy, build_sl(2)) == expected

    # pole-freeness of every perturbative output in the test family
    for label in ("A1", "A2"):
        rs, _ = lie_pair(label)
        E = rootsys.quantum_dim_sq_shifted(rs, 8)
        for f in (1, -1, 2, -2, 3, 5):
            out = rootsys.tau_pg(rootsys.tau_poly(
                rs, rootsys.norm_classes(rs, E), 3), f)
            v = out.valuation()
            assert v is None or v >= 0
    _report(10, "structural suites: AS, odd wheels, IHX, schedules, poles",
            t0, 300)
