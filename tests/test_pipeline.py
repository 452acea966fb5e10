"""End-to-end pipeline: reduced inputs, the two surgery-invariant routes,
the comparison report, and file-knot handling."""

import json
import math
from fractions import Fraction as Q

import pytest

from lmo_kernel.balg import omega, strut, theta, wheel, wheeling_inverse
from lmo_kernel.diagrams import DiagramSeries, StructuralError, series_of
from lmo_kernel.pipeline import (
    SurgeryInput,
    _wheeled_base,
    compare,
    hat_scalar,
    knot_key,
    lie_pair,
    lmo_via_definition,
    lmo_via_lemma,
    load_qdata,
    reduced_input,
    taupg_route,
    verify_suite,
)
from lmo_kernel.qseries import HSeries
from lmo_kernel import (
    balg, cli, diagrams, liews, pipeline, qseries, rootsys)
from gauss_oracle import reduced_integrand
from series_oracle import coeff_of


def test_public_names_resolve():
    import lmo_kernel
    missing = [n for n in lmo_kernel.__all__ if not hasattr(lmo_kernel, n)]
    assert missing == [] and len(set(lmo_kernel.__all__)) == \
        len(lmo_kernel.__all__)


class TestSurgeryInput:
    def test_zero_framing_rejected(self):
        with pytest.raises(ValueError):
            SurgeryInput("unknot", 0)

    def test_h1_order(self):
        assert SurgeryInput("unknot", -5).h1_order == 5
        assert SurgeryInput("unknot", 3).sign == 1


class TestReducedInput:
    def test_unknot_unframed_part(self):
        # the squared wheeled Omega times the theta part exp(-theta/48) of
        # the framing exponential; the strut part is never built
        got = reduced_integrand(SurgeryInput("unknot", 1), 4)
        w = wheeling_inverse(omega(4))
        th = series_of(theta(), 4, coeff=Q(-1, 48))
        assert got == w.union(w).union(th.exp_union())

    def test_reference_object_is_same_construction(self):
        key = knot_key(SurgeryInput("unknot", 1))
        assert reduced_input(key, 4) == reduced_input(key, 4)

    def test_framing_theta_correction(self):
        # exp((f/2)(strut - theta/24)) carries a -f/48 theta coefficient;
        # theta is connected and the base has degree-0 coefficient 1, so
        # the framing shifts the theta coefficient of the base by -f/48
        for f in (3, -1):
            inp = SurgeryInput("unknot", f)
            shift = coeff_of(reduced_integrand(inp, 6), theta()) - \
                coeff_of(_wheeled_base(knot_key(inp), 6), theta())
            assert shift == Q(-f, 48)

    @pytest.mark.parametrize("knot", ("unknot", "omega8.json"))
    def test_coefficients_sum_to_the_integrand(self, tmp_path, knot):
        # sum_j (-f/48)^j X_j is the literal integrand at every framing
        if knot != "unknot":
            knot = tmp_path / knot
            knot.write_text(json.dumps(omega(8).to_json()))
        for order in (1, 2, 3, 4):
            imax = 2 * order
            xs = reduced_input(knot_key(SurgeryInput(str(knot), 1)), imax)
            assert set(xs) == set(range(order + 1))
            for f in (1, -1, 2, -2, 3, 7):
                total = DiagramSeries(imax)
                for j, x in xs.items():
                    total = total + x.scale(Q(-f, 48) ** j)
                assert total == reduced_integrand(
                    SurgeryInput(str(knot), f), imax)

    def test_strutful_file_rejected(self, tmp_path):
        s = series_of(strut(), 4)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(s.to_json()))
        with pytest.raises(Exception):
            reduced_input(knot_key(SurgeryInput(str(p), 2)), 4)


class TestRoutes:
    def test_sphere_both_signs(self):
        for f in (1, -1):
            for lab in ("A1", "A2"):
                assert lmo_via_definition(SurgeryInput("unknot", f), lab, 2) \
                    == HSeries.one(2)
                assert lmo_via_lemma(SurgeryInput("unknot", f), lab, 2) \
                    == HSeries.one(2)

    def test_first_order_gaussian_value(self):
        # by hand: the integral of the reduced unknot at framing f equals
        # 1 - (2 + f^2) h / (4 f) + O(h^2) for sl2
        _, g = lie_pair("A1")
        for f in (1, -1, 2, 3):
            got = hat_scalar(balg.fg_integral(
                reduced_integrand(SurgeryInput("unknot", f), 2), f), g, 1)
            assert got == HSeries({0: 1, 1: Q(-(2 + f * f), 4 * f)}, 1)

    def test_open_series_rejected_before_weighing(self, monkeypatch):
        calls = []
        true_hat_weight = liews.hat_weight
        monkeypatch.setattr(liews, "hat_weight",
                            lambda *args: calls.append(args)
                            or true_hat_weight(*args))
        _, g = lie_pair("A1")
        with pytest.raises(StructuralError, match="closed"):
            hat_scalar(series_of(wheel(1), 4), g, 4)
        assert calls == []

    def test_route_equality_low_order(self):
        for lab in ("A1", "A2"):
            for f in (2, -2, 3):
                inp = SurgeryInput("unknot", f)
                assert lmo_via_definition(inp, lab, 2) == \
                    lmo_via_lemma(inp, lab, 2)


class TestTauRoute:
    def test_sphere(self):
        assert taupg_route(SurgeryInput("unknot", 1), "A1", 3) == \
            HSeries.one(3)

    def test_file_knot_requires_qdata(self):
        with pytest.raises(ValueError):
            taupg_route(SurgeryInput("somEfile.json", 2), "A1", 2)

    def test_qdata_file_round_trip(self, tmp_path):
        E = rootsys.quantum_dim_sq_shifted(
            rootsys.build_root_system("A1"), 3)
        p = tmp_path / "q.json"
        p.write_text(json.dumps(rootsys.lattice_sum_to_json(E)))
        a = taupg_route(SurgeryInput("unknot", 2), "A1", 3,
                        load_qdata(str(p), 1, 3))
        b = taupg_route(SurgeryInput("unknot", 2), "A1", 3)
        assert a == b

    def test_qdata_parses_each_series_once(self, tmp_path, monkeypatch):
        # the 3 entries of the A1 unknot data at cap 4
        E = rootsys.quantum_dim_sq_shifted(
            rootsys.build_root_system("A1"), 4)
        p = tmp_path / "q.json"
        p.write_text(json.dumps(rootsys.lattice_sum_to_json(E)))
        calls = []
        true_from_json = HSeries.from_json.__func__

        def counted(cls, obj, *what):
            calls.append(obj)
            return true_from_json(cls, obj, *what)

        monkeypatch.setattr(HSeries, "from_json", classmethod(counted))
        assert load_qdata(str(p), 1, 4) == E
        assert len(calls) == len(E) == 3


class TestCompare:
    def test_main_equality_flagship(self):
        rep = compare(SurgeryInput("unknot", 2), "A1", 3)
        assert rep.routes_equal and rep.equal
        assert rep.h1_power == 2
        assert rep.certified_order == 3

    def test_h1_power_law(self):
        rep = compare(SurgeryInput("unknot", 3), "A2", 2)
        assert rep.h1_power == 27
        assert rep.equal

    def test_sphere_cases(self):
        for f in (1, -1):
            rep = compare(SurgeryInput("unknot", f), "A1", 2)
            assert rep.equal and rep.h1_power == 1
            assert rep.lmo_definition == HSeries.one(2)
            assert rep.taupg == HSeries.one(2)

    def test_report_json_shape(self):
        rep = compare(SurgeryInput("unknot", 2), "A1", 2)
        obj = rep.to_json()
        assert obj["equal"] is True and obj["routes_equal"] is True
        assert obj["h1_power"] == "2/1"
        assert set(obj["lmo_definition"]) == {"min_exp", "coeffs", "cap"}

    def test_file_knot_lmo_only(self, tmp_path):
        # the unknot's own wheeled invariant, shipped as a file
        p = tmp_path / "unknot.json"
        p.write_text(json.dumps(omega(4).to_json()))
        inp = SurgeryInput(str(p), 2, declared_valid_degree=2)
        rep = compare(inp, "A1", 2)
        assert rep.lmo_only and rep.taupg is None and rep.equal is None
        assert rep.routes_equal
        builtin = compare(SurgeryInput("unknot", 2), "A1", 2)
        assert rep.lmo_definition == builtin.lmo_definition

    def test_file_knot_with_qdata_closes_comparison(self, tmp_path):
        p = tmp_path / "unknot.json"
        p.write_text(json.dumps(omega(4).to_json()))
        q = tmp_path / "q.json"
        q.write_text(json.dumps(rootsys.lattice_sum_to_json(
            rootsys.quantum_dim_sq_shifted(
                rootsys.build_root_system("A1"), 2))))
        rep = compare(SurgeryInput(str(p), 2, declared_valid_degree=2),
                      "A1", 2, load_qdata(str(q), 1, 2))
        assert rep.equal and not rep.lmo_only

    @pytest.mark.parametrize("f", (-1, 2))
    def test_main_equality_a3(self, f):
        rep = compare(SurgeryInput("unknot", f), "A3", 3)
        assert rep.routes_equal and rep.equal

    @pytest.mark.parametrize("f", (-1, 2))
    def test_main_equality_a3_order_five(self, f):
        rep = compare(SurgeryInput("unknot", f), "A3", 5)
        assert rep.routes_equal and rep.equal and rep.certified_order == 5

    @pytest.mark.parametrize("f", (-1, 2))
    def test_main_equality_a1_order_five(self, f):
        rep = compare(SurgeryInput("unknot", f), "A1", 5)
        assert rep.routes_equal and rep.equal

    def test_declared_degree_bounds_certificate(self):
        rep = compare(SurgeryInput("unknot", 2), "A1", 2)
        assert rep.certified_order == 2


def _clear_route_caches():
    pipeline._definition_poly.cache_clear()
    pipeline._lemma_poly.cache_clear()


class TestUnknotIsBuiltOnce:
    def test_reference_surgery_once_per_sign(self, monkeypatch, capsys):
        # framing 2 integrates the definition route's four coefficients
        # X_0..X_3 and the lemma route's base once each, framing-free, and
        # its reference surgery is the same polynomial at f = 1; framing 3
        # only evaluates the cached polynomials, gluing, canonicalizing
        # and weighing nothing
        _clear_route_caches()
        counted_names = ((balg, "fg_parts"), (balg, "fg_integral"),
                         (diagrams, "canonicalize"), (liews, "hat_weight"))
        calls = {name: 0 for _, name in counted_names}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper
        for mod, name in counted_names:
            monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
        monkeypatch.setattr(balg, "canonicalize", diagrams.canonicalize)
        counts = []
        for f in (2, 3):
            before = dict(calls)
            assert cli.main(["compare", "--lie", "A2", "--framing", str(f),
                             "--order", "3"]) == 0
            counts.append({k: calls[k] - before[k] for k in calls})
            assert json.loads(capsys.readouterr().out)["equal"] is True
        assert counts[0]["fg_parts"] <= 5 and counts[0]["fg_integral"] == 0
        assert counts[1] == dict.fromkeys(calls, 0)

    def test_wheeled_base_once_per_order(self, monkeypatch, capsys):
        # both routes of both framings read one square of the wheeled Omega
        _clear_route_caches()
        pipeline._wheeled_base.cache_clear()
        om = pipeline._wheeled_knot(pipeline._UNKNOT_KEY, 6)
        squares = []
        union = DiagramSeries.union

        def counted(a, b):
            if a is om and b is om:
                squares.append(a)
            return union(a, b)
        monkeypatch.setattr(DiagramSeries, "union", counted)
        for f in (2, 3):
            assert cli.main(["compare", "--lie", "A1", "--framing", str(f),
                             "--order", "3"]) == 0
            assert json.loads(capsys.readouterr().out)["equal"] is True
        assert len(squares) == 1

    def test_shared_wheeled_base_is_only_read(self, capsys):
        # a compare and a verify read the cached square and leave it as built
        base = _wheeled_base(knot_key(SurgeryInput("unknot", 2)), 8)
        assert cli.main(["compare", "--lie", "A1", "--framing", "-2",
                         "--order", "4"]) == 0
        assert cli.main(["verify", "--suite", "circle", "--order", "4"]) == 0
        capsys.readouterr()
        assert _wheeled_base(knot_key(SurgeryInput("unknot", -1)), 8) is base
        om = pipeline._wheeled_knot(pipeline._UNKNOT_KEY, 8)
        assert base == om.union(om)

    def test_taupg_reads_the_fold_on_the_builtin_unknot(self, monkeypatch):
        # only an expansion-data file goes through norm_classes
        def unused(*args):
            raise AssertionError("the built-in unknot needs no lattice sum")
        monkeypatch.setattr(rootsys, "norm_classes", unused)
        monkeypatch.setattr(rootsys, "quantum_dim_sq_shifted", unused)
        pipeline._unknot_tau.cache_clear()
        assert taupg_route(SurgeryInput("unknot", -1), "A3", 2) == \
            HSeries.one(2)

    def test_taupg_builds_once_per_label_and_order(self, monkeypatch):
        # every framing of the built-in unknot evaluates one polynomial
        # build per label and order; an expansion-data file builds its own
        # on every call, uncached
        builds = []
        build = rootsys.tau_poly

        def counted(*args):
            builds.append(args[2])
            return build(*args)

        monkeypatch.setattr(rootsys, "tau_poly", counted)
        pipeline._unknot_tau.cache_clear()
        for f in (1, -1, 2, -7, 11):
            for order in (2, 3):
                taupg_route(SurgeryInput("unknot", f), "A2", order)
        assert builds == [2, 3]
        rs, _ = pipeline.lie_pair("A1")
        qdata = rootsys.quantum_dim_sq_shifted(rs, 3)
        for f in (2, -3):
            assert taupg_route(SurgeryInput("unknot", f), "A1", 3, qdata) == \
                taupg_route(SurgeryInput("unknot", f), "A1", 3)
        assert builds == [2, 3, 3, 3, 3]


def _compare_knot_file(capsys, path, framing: int, order: int) -> dict:
    """The report of an A1 ``compare`` on the knot file ``path``."""
    assert cli.main(["compare", "--knot", str(path), "--lie", "A1",
                     "--framing", str(framing), "--order", str(order)]) == 0
    return json.loads(capsys.readouterr().out)


class TestKnotFileIsReadOnce:
    def test_parsed_and_wheeled_once_per_content(self, tmp_path,
                                                 monkeypatch, capsys):
        # framing 2 parses the file and wheels its series once for both
        # routes; framing 3 finds both routes' polynomials under the same
        # key, and parses and glues nothing
        knot = tmp_path / "omega8.json"
        knot.write_text(json.dumps(omega(8).to_json()))
        parsed, wheeled, glued = [], [], []
        true_from_json = DiagramSeries.from_json

        def from_json(obj, imax):
            parsed.append(true_from_json(obj, imax))
            return parsed[-1]

        def recorded(args, fn):
            def wrapper(s):
                args.append(s)
                return fn(s)
            return wrapper
        monkeypatch.setattr(DiagramSeries, "from_json",
                            staticmethod(from_json))
        monkeypatch.setattr(balg, "wheeling_inverse",
                            recorded(wheeled, balg.wheeling_inverse))
        monkeypatch.setattr(balg, "fg_parts", recorded(glued, balg.fg_parts))
        counts = []
        for f in (2, 3):
            before = len(parsed), len(glued)
            assert _compare_knot_file(capsys, knot, f, 4)["routes_equal"]
            counts.append((len(parsed) - before[0], len(glued) - before[1]))
        assert counts[0][0] == 1 and counts[1] == (0, 0)
        assert sum(s is parsed[0] for s in wheeled) == 1

    def test_rewritten_file_gets_a_new_key(self, tmp_path, capsys):
        # the same path with new content is a new knot: Omega, then Omega
        # squared, then Omega again
        knot = tmp_path / "knot.json"
        reports = []
        for s in (omega(4), omega(4).union(omega(4)), omega(4)):
            knot.write_text(json.dumps(s.to_json()))
            reports.append(_compare_knot_file(capsys, knot, 2, 2))
        assert reports[0]["lmo_definition"] != reports[1]["lmo_definition"]
        assert reports[0] == reports[2]
        builtin = compare(SurgeryInput("unknot", 2), "A1", 2)
        assert reports[0]["lmo_definition"] == builtin.lmo_definition.to_json()


def test_every_cache_is_bounded():
    # each builder with a finite key set holds at most those keys
    caches = {name: fn.cache_parameters()["maxsize"]
              for name, fn in vars(pipeline).items()
              if hasattr(fn, "cache_parameters")}
    assert caches and None not in caches.values(), caches
    assert caches["lie_pair"] == len(pipeline.LIE_LABELS)
    assert caches["_unknot_tau"] == \
        len(pipeline.LIE_LABELS) * pipeline.MAX_ORDER
    assert liews.build_sl.cache_parameters()["maxsize"] == 3
    assert rootsys.build_root_system.cache_parameters()["maxsize"] == \
        len(rootsys.TYPE_A_LABELS)


class TestVerifySuite:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            verify_suite("nonsense")

    def test_bernoulli_suite(self):
        assert all(r.passed for r in verify_suite("bernoulli"))

    def test_bernoulli_round_trip_sees_a_wrong_sinh_ratio(self, monkeypatch):
        # double the h^6 coefficient of sinh(ch/2)/(ch/2) wherever it is read
        true_sinh_ratio = qseries.sinh_ratio

        def mutant(c, cap):
            s = true_sinh_ratio(c, cap)
            return s + HSeries({6: s.coeff(6)}, cap) if cap >= 6 else s

        monkeypatch.setattr(qseries, "sinh_ratio", mutant)
        monkeypatch.setattr(pipeline, "sinh_ratio", mutant)
        passed = {r.name: r.passed for r in pipeline._check_bernoulli(4)}
        assert passed["bernoulli.round_trip_x12"] is False
        assert cli.main(["verify", "--suite", "bernoulli"]) == 1

    def test_weyl_suite(self):
        assert all(r.passed for r in verify_suite("weyl"))

    def test_squared_denominator_check_sees_a_wrong_square(self,
                                                          monkeypatch):
        # a square of the Weyl sum that skips the diagonal pairs w = w';
        # the root products (1, 3 and 6 factors) stay true
        true_product = rootsys._lattice_product

        def mutant(factors):
            factors = [list(factor) for factor in factors]
            if len(factors) != 2:
                return true_product(factors)
            out = {}
            for m1, c1 in factors[0]:
                for m2, c2 in factors[1]:
                    if m1 != m2:
                        v = tuple(x + y for x, y in zip(m1, m2))
                        out[v] = out.get(v, 0) + c1 * c2
            return {v: c for v, c in out.items() if c}

        monkeypatch.setattr(rootsys, "_lattice_product", mutant)
        failed = [r.name for r in verify_suite("weyl") if not r.passed]
        assert failed == [f"weyl.denominator_squared.{label}"
                          for label in ("A1", "A2", "A3")]

    def test_theta_suite(self):
        results = verify_suite("theta")
        assert all(r.passed for r in results)
        assert {"theta.state_sum_agrees.A1", "theta.state_sum_agrees.A2"} \
            <= {r.name for r in results}

    def test_theta_state_sum_check_sees_a_wrong_state_sum(self, monkeypatch):
        true_poly = liews.gl_polynomial
        monkeypatch.setattr(liews, "gl_polynomial", lambda d: {
            k: 2 * c for k, c in true_poly(d).items()})
        passed = {r.name: r.passed for r in verify_suite("theta")}
        assert passed["theta.state_sum_agrees.A1"] is False
        assert passed["theta.state_sum_agrees.A2"] is False
        assert passed["theta.contraction_agrees.A1"] is True

    @pytest.mark.parametrize("mutant", ["plus_h_over_f", "no_2p_slot_terms",
                                        "scaled_2p_key"])
    def test_gauss_check_sees_a_wrong_contraction(self, monkeypatch,
                                                  mutant):
        # the summed tensor cancels every key below 2P slots (P positive
        # roots): a fault in what survives must still fail a gauss check
        true_wick, true_exp = liews.wick, liews.exp_tensor

        def two_p(dim):
            n = math.isqrt(dim + 1)  # sl_n has dimension n^2 - 1
            return n * (n - 1)       # 2P slots: one per root

        if mutant == "plus_h_over_f":
            monkeypatch.setattr(liews, "wick", lambda T, g, f, cap:
                                true_wick(T, g, -f, cap))
        elif mutant == "no_2p_slot_terms":
            monkeypatch.setattr(liews, "wick", lambda T, g, f, cap: true_wick(
                {k: s for k, s in T.items() if len(k) != two_p(g.dim)},
                g, f, cap))
        else:
            def scaled(vec, cap):
                # the first key of 2P slots, if any (the zero point has none)
                T = true_exp(vec, cap)
                for key in T:
                    if len(key) == two_p(len(vec)):
                        T[key] = T[key].scale(2)
                        break
                return T
            monkeypatch.setattr(liews, "exp_tensor", scaled)
        results = pipeline._check_gauss(4)
        assert all(r.name.startswith("gauss.") for r in results)
        assert not all(r.passed for r in results)

    def test_gauss_check_contracts_once_per_framing(self, monkeypatch):
        # 3 + 19 points of the squared Weyl sums of A1 and A2, one Wick
        # contraction per algebra and framing
        calls = {"wick": 0, "exp_tensor": 0}
        for name in calls:
            def counted(*args, _name=name, _true=getattr(liews, name)):
                calls[_name] += 1
                return _true(*args)
            monkeypatch.setattr(liews, name, counted)
        assert all(r.passed for r in pipeline._check_gauss(4))
        assert calls == {"wick": 6, "exp_tensor": 22}
