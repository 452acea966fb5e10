"""Diagram canonicalization, orientation signs, series algebra."""

import functools
import itertools
import json
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import canon_oracle
import series_oracle
from gauss_oracle import reduced_integrand, relabel_union
from series_oracle import coeff_of
from lmo_kernel import diagrams, pipeline
from lmo_kernel.balg import fg_integral, strut, theta, wheel
from lmo_kernel.diagrams import (
    CanonicalForm,
    DiagramSeries,
    EMPTY_FORM,
    LEG,
    SLOT_PERMS,
    JacobiDiagram,
    StructuralError,
    _equitable,
    _refine,
    canonicalize,
    glue_legs,
    leg_automorphisms,
    series_of,
)
from lmo_kernel.pipeline import SurgeryInput
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


def shape_of(d: JacobiDiagram) -> tuple[int, ...]:
    """The shape that ``canonicalize`` searches for a connected ``d``."""
    return tuple(3 * v + s if v < d.t else LEG for e in d.edges for v, s in e)


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

    @pytest.mark.parametrize("t, m", [(-1, 3), (2, -2)])
    def test_negative_counts_rejected(self, t, m):
        """(-1, 3) has 3t + m = 0 ports, so no port check sees it; it
        used to canonicalize as two struts, which have 4 legs."""
        name = "t" if t < 0 else "m"
        with pytest.raises(StructuralError, match=f"{name} must be >= 0"):
            JacobiDiagram(t, m, ())

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
            assert canonicalize(relabel(wheel(2), pt, rots)) == base

    def test_orientation_flip_negates(self):
        form, sign = canonicalize(wheel(1))
        assert canonicalize(flip_vertex(wheel(1), 0)) == (form, -sign)

    def test_double_flip_is_identity(self):
        base = canonicalize(wheel(1))
        assert canonicalize(flip_vertex(flip_vertex(wheel(1), 0), 0)) == base

    def test_idempotent_on_representative(self):
        # closed multi-edge forms as the Gaussian integral produces them
        closed = fg_integral(
            reduced_integrand(SurgeryInput("unknot", 1), 6), 1)
        forms = [canonicalize(d)[0]
                 for d in (wheel(1), wheel(2), wheel(3), theta(), strut())]
        for form in forms + list(closed.terms):
            assert canonicalize(form.diagram()) == (form, 1)

    @pytest.mark.parametrize("n", [3, 5])
    def test_odd_wheels_vanish(self, n):
        assert canonicalize(odd_wheel(n)) == (None, 0)

    def test_one_vertex_star_vanishes(self):
        star = JacobiDiagram(1, 3, (((0, 0), (1, 0)), ((0, 1), (2, 0)),
                                    ((0, 2), (3, 0))))
        assert canonicalize(star) == (None, 0)

    @settings(max_examples=300, deadline=None)
    @given(port_matchings())
    def test_nonzero_strut_free_forms_have_no_more_legs_than_vertices(
            self, d):
        # each leg of a strut-free diagram ends at a trivalent vertex, and
        # swapping two legs at one vertex is an automorphism that reverses
        # its cyclic order, so m > t forces a zero diagram: the Gaussian
        # integral keeps every input's internal-vertex certificate
        ends = [(p[0], q[0]) for p, q in d.edges]
        ends += [(b, a) for a, b in ends]
        legs_at = Counter(v for v, leg in ends if v < d.t <= leg)
        form, sign = canonicalize(d)
        if max(legs_at.values(), default=0) >= 2:
            assert (form, sign) == (None, 0)
        if sign and all(min(a, b) < d.t for a, b in ends):
            assert form.m <= form.t

    def test_theta_does_not_vanish(self):
        assert canonicalize(theta())[1]


class TestCanonicalAgainstOracle:
    """The refinement-guided search against the exhaustive one."""

    @settings(max_examples=150, deadline=None)
    @given(port_matchings(), st.data())
    def test_zero_rule_relabeling_and_flip(self, d, data):
        form, sign = canonicalize(d)
        assert (sign == 0) == (canon_oracle.canonicalize(d)[1] == 0)
        pt = data.draw(st.permutations(range(d.t)))
        rots = [data.draw(st.sampled_from([p for p, sg in SLOT_PERMS
                                           if sg == 1]))
                for _ in range(d.t)]
        assert canonicalize(relabel(d, pt, rots)) == (form, sign)
        if d.t and sign:
            v = data.draw(st.integers(0, d.t - 1))
            assert canonicalize(flip_vertex(d, v)) == (form, -sign)

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
        (n1, s1), (n2, s2) = canonicalize(d1), canonicalize(d2)
        (o1, r1), (o2, r2) = (canon_oracle.canonicalize(d1),
                              canon_oracle.canonicalize(d2))
        assert (s1 == 0, s2 == 0) == (r1 == 0, r2 == 0)
        assert (n1 == n2) == (o1 == o2)
        if n1 == n2:
            assert s1 * s2 == r1 * r2


def _partition(colour: dict[int, int]) -> set[frozenset[int]]:
    classes: dict[int, set[int]] = {}
    for v, c in colour.items():
        classes.setdefault(c, set()).add(v)
    return {frozenset(vs) for vs in classes.values()}


@settings(max_examples=200, deadline=None)
@given(port_matchings(), st.data())
def test_splitter_refinement_gives_the_oracle_partition(d, data):
    """From any start colouring of a multigraph (loops and parallel edges
    included), the splitter queue reaches the stable partition of
    whole-graph 1-WL rounds; from that partition with one vertex singled
    out, queuing only its cell does too."""
    nbrs: dict[int, list[int]] = {v: [] for v in range(d.t)}
    for (p, _), (q, _) in d.edges:
        if p < d.t and q < d.t:
            nbrs[p].append(q)
            nbrs[q].append(p)
    key = {v: (data.draw(st.integers(0, 2)),) for v in range(d.t)}
    cells, colour = _equitable(key, nbrs)
    stable = canon_oracle.refine({v: k[0] for v, k in key.items()}, nbrs)
    assert _partition(colour) == _partition(stable)
    assert sorted(cells) == sorted(set(colour.values()))
    if not d.t:
        return
    v = data.draw(st.integers(0, d.t - 1))
    c = colour[v]
    if len(cells[c]) > 1:
        cells[c], cells[c + 1] = [v], [w for w in cells[c] if w != v]
        colour.update(dict.fromkeys(cells[c + 1], c + 1))
        _refine(cells, colour, nbrs, [c])
    assert _partition(colour) == \
        _partition(canon_oracle.refine({**stable, v: -1}, nbrs))


#: Vertex-transitive closed cubic graphs as edge lists.
CUBIC = {
    "theta": [(0, 1)] * 3,
    "K4": list(itertools.combinations(range(4), 2)),
    "K33": [(a, b) for a in range(3) for b in range(3, 6)],
    "prism": [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
              (0, 3), (1, 4), (2, 5)],
    "cube": [(a, a ^ b) for a in range(8) for b in (1, 2, 4) if a < a ^ b],
    "wagner": [(i, (i + 1) % 8) for i in range(8)]
              + [(i, i + 4) for i in range(4)],
    "petersen": [(i, (i + 1) % 5) for i in range(5)]
                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                + [(i, 5 + i) for i in range(5)],
}


def cut_open(name: str, cut: tuple[int, ...]) -> JacobiDiagram:
    """The cubic graph ``name``, its vertices' edges in slots 0, 1, 2 in
    list order, with each edge listed in ``cut`` replaced by two legs."""
    pairs = CUBIC[name]
    t = 1 + max(map(max, pairs))
    used = [0] * t
    edges, leg = [], t
    for i, (u, w) in enumerate(pairs):
        p, q = (u, used[u]), (w, used[w])
        used[u] += 1
        used[w] += 1
        if i in cut:
            edges += [(p, (leg, 0)), (q, (leg + 1, 0))]
            leg += 2
        else:
            edges.append((p, q))
    return JacobiDiagram(t, leg - t, tuple(edges))


#: Each graph closed, cut at its first or last edge (the two edge orbits
#: of the prism and of the Wagner graph), and cut at two edges.  Petersen
#: keeps two cases: the exhaustive oracle takes seconds on it once open.
CUTS = [(name, cut) for name, pairs in CUBIC.items() if name != "petersen"
        for cut in ((), (0,), (len(pairs) - 1,), (0, 1),
                    (0, len(pairs) - 1))] + [
    ("petersen", ()), ("petersen", (0, 14))]


@functools.lru_cache(maxsize=None)
def _oracle(name: str, cut: tuple[int, ...]):
    d = cut_open(name, cut)
    o = canon_oracle.canonicalize(d)
    return o, (None if o[1] == 0 else canon_oracle.leg_group(
        canon_oracle.leg_maps(canonicalize(d)[0].diagram()), d.m))


class TestVertexTransitive:
    """Graphs with large automorphism groups, where pruning by the
    automorphisms found does the most (``port_matchings`` rarely draws
    them), against the exhaustive oracle."""

    def test_zero_graphs(self):
        zero = {name for name in CUBIC if _oracle(name, ())[0][1] == 0}
        assert zero == {"K33", "petersen"}

    @pytest.mark.parametrize("name, cut", CUTS)
    def test_relabelings_and_flips_match_oracle(self, name, cut):
        d = cut_open(name, cut)
        (_, oracle_sign), group = _oracle(name, cut)
        base, base_sign = canonicalize(d)
        assert (base_sign == 0) == (oracle_sign == 0)
        if oracle_sign:
            assert canon_oracle.leg_group(leg_automorphisms(base),
                                          d.m) == group
        rng = random.Random(f"{name} {cut}")
        for _ in range(10):
            pt = rng.sample(range(d.t), d.t)
            perms = [rng.choice(SLOT_PERMS) for _ in range(d.t)]
            e = relabel(d, pt, [p for p, _ in perms])
            form, sign = canonicalize(e)
            assert (sign == 0) == (oracle_sign == 0)
            if not oracle_sign:
                continue
            expected = base_sign
            for _, psign in perms:
                expected *= psign
            assert (form, sign) == (base, expected)
            # the search of each relabeling's shape finds the whole group
            gens = diagrams._canon_component(shape_of(e))[2]
            assert canon_oracle.leg_group(gens, e.m) == group

    def test_classes_and_sign_ratios_match_oracle(self):
        for a, b in itertools.combinations(CUTS, 2):
            da, db = cut_open(*a), cut_open(*b)
            if (da.t, da.m) != (db.t, db.m):
                continue
            ((oa, ra), _), ((ob, rb), _) = _oracle(*a), _oracle(*b)
            (na, sa), (nb, sb) = canonicalize(da), canonicalize(db)
            assert (na == nb) == (oa == ob), (a, b)
            if na == nb and sa:
                assert sa * sb == ra * rb, (a, b)


@st.composite
def glued_wheels(draw) -> JacobiDiagram:
    """1-3 wheels, 6 trivalent vertices in all at most, some of their legs
    glued in random pairs, under a random renumbering of the trivalent
    vertices, slot rotations and reflections at each, and a random
    renumbering of the legs: components of the shapes the gluing tables
    meet, each in many numberings."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)
                 .filter(lambda ks: sum(ks) <= 3))
    d = wheel(sizes[0])
    for k in sizes[1:]:
        d = relabel_union(d, wheel(k))
    legs = draw(st.permutations(list(d.legs())))
    n = draw(st.integers(0, len(legs) // 2))
    try:
        d = glue_legs(d, zip(legs[:n], legs[n:2 * n]))
    except StructuralError:
        pass  # a glued pair closed a circle: keep the unglued wheels
    perm_t = draw(st.permutations(range(d.t)))
    slots = [draw(st.sampled_from(SLOT_PERMS))[0] for _ in range(d.t)]
    leg_perm = draw(st.permutations(list(d.legs())))

    def mp(p):
        v, s = p
        return (perm_t[v], slots[v][s]) if v < d.t else (leg_perm[v - d.t], 0)

    return JacobiDiagram(d.t, d.m, tuple((mp(p), mp(q)) for p, q in d.edges))


class TestShapeCache:
    """A component's search runs once per shape: in ``relabel_union(e, d)``
    the components of ``d`` keep their shapes under shifted vertex and leg
    numbers, so they read the entries that ``d`` filled."""

    @settings(max_examples=150, deadline=None)
    @given(glued_wheels(), glued_wheels())
    def test_union_reads_the_entries_of_its_parts(self, d, e):
        (fd, sd), (fe, se) = canonicalize(d), canonicalize(e)
        both = relabel_union(e, d)
        searched = len(diagrams._SHAPE_CACHE)
        form, sign = canonicalize(both)
        if not (sd and se):
            # the search of a part stops at its first zero component
            assert (form, sign) == (None, 0)
            return
        assert (form, sign) == (fe.union(fd), se * sd)
        assert canon_oracle.leg_group(leg_automorphisms(form),
                                      both.m) == canon_oracle.leg_group(
            canon_oracle.leg_maps(form.diagram()), both.m)
        assert len(diagrams._SHAPE_CACHE) == searched

    @settings(max_examples=100, deadline=None)
    @given(glued_wheels(), st.data())
    def test_every_shape_of_a_serial_finds_its_leg_group(self, d, data):
        """``_LEG_GROUPS`` keeps the generators of the first shape that
        reached a serial: under random relabelings and slot flips of a
        component, every shape's search generates the same leg group,
        that of the serial's own diagram."""
        form, sign = canonicalize(d)
        if not sign:
            return
        for comp in set(form.components):
            c = CanonicalForm((comp,)).diagram()
            group = canon_oracle.leg_group(canon_oracle.leg_maps(c), c.m)
            for _ in range(3):
                e = relabel(c, data.draw(st.permutations(range(c.t))),
                            [data.draw(st.sampled_from(SLOT_PERMS))[0]
                             for _ in range(c.t)])
                serial, _, gens = diagrams._canon_component(shape_of(e))
                assert serial == comp
                assert canon_oracle.leg_group(gens, c.m) == group


def decode_key(key: bytes) -> tuple[int, int, tuple]:
    """(t, m, edges) read back from a ``_canon_key`` key."""
    ports = [divmod(b, 3) for b in key[2:]]
    return key[0], key[1], tuple(zip(ports[::2], ports[1::2]))


@st.composite
def diagrams_of_one_size(draw):
    """A random port matching and another of the same t and m: the same
    edges built again, a vertex flipped (another edge list on the same
    vertices), a relabeling, or a fresh matching."""
    d = draw(port_matchings())
    kind = draw(st.sampled_from(["rebuilt", "flip", "relabel", "fresh"]))
    if kind == "rebuilt" or (kind == "flip" and not d.t):
        e = JacobiDiagram(d.t, d.m, tuple((q, p) for p, q in d.edges[::-1]))
    elif kind == "flip":
        e = flip_vertex(d, draw(st.integers(0, d.t - 1)))
    elif kind == "relabel":
        e = relabel(d, draw(st.permutations(range(d.t))),
                    [draw(st.sampled_from(SLOT_PERMS))[0]
                     for _ in range(d.t)])
    else:
        e = draw(port_matchings(d.t, d.m))
    return d, e


class TestCanonCacheKeys:
    """``_CANON_CACHE`` keys a labeled diagram by the bytes of ``t``,
    ``m`` and its ports, and the serials share one tuple per row entry."""

    def test_every_port_fits_a_byte(self):
        # ports 3 * v + s reach 3 * MAX_VERTICES - 1, t and m MAX_VERTICES
        assert 3 * diagrams.MAX_VERTICES <= 256

    @settings(max_examples=300, deadline=None)
    @given(diagrams_of_one_size(), port_matchings())
    def test_keys_are_equal_exactly_when_the_diagrams_are(self, pair, f):
        d, e = pair
        kd = diagrams._canon_key(d)
        assert decode_key(kd) == (d.t, d.m, d.edges)
        for other in (e, f):
            assert (diagrams._canon_key(other) == kd) == (
                (other.t, other.m, other.edges) == (d.t, d.m, d.edges))

    @settings(max_examples=200, deadline=None)
    @given(diagrams_of_one_size())
    def test_a_filled_cache_gives_what_a_cleared_one_gives(self, pair):
        filled = [canonicalize(d) for d in pair]
        saved = dict(diagrams._CANON_CACHE)
        try:
            for d, hit in zip(pair, filled):
                diagrams._CANON_CACHE.clear()
                assert canonicalize(d) == hit
        finally:
            diagrams._CANON_CACHE.update(saved)


_CACHES_AFTER_COMPARE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from lmo_kernel import cli, diagrams
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:])
serials = [c for form, _ in diagrams._CANON_CACHE.values() if form
           for c in form.components]
serials += [s for s, _ in diagrams._SHAPE_CACHE.values() if s]
serials += list(diagrams._LEG_GROUPS)
pairs = [p for _, _, rows in serials for row in rows for p in row]
print(json.dumps({
    "code": code, "entries": len(diagrams._CANON_CACHE),
    "bytes_keys": all(type(k) is bytes for k in diagrams._CANON_CACHE),
    "key_lengths": all(len(k) == 2 + 3 * k[0] + k[1]
                       for k in diagrams._CANON_CACHE),
    "pairs": len(pairs),
    "shared": all(diagrams._PAIRS[p] is p for p in pairs),
    "map": len(diagrams._PAIRS)}))
"""


def test_caches_after_a_cold_order_four_compare():
    """A fresh ``compare --lie A1 --framing 2 --order 4`` leaves 111
    canonical entries, each keyed by ``bytes`` of length 2 + 3t + m;
    every row entry of every serial it keeps is the one tuple of
    ``_PAIRS``, which stays within its bound."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", _CACHES_AFTER_COMPARE, str(src), "compare",
         "--lie", "A1", "--framing", "2", "--order", "4"],
        capture_output=True, text=True, timeout=300, check=True)
    got = json.loads(out.stdout)
    assert got["code"] == 0 and got["entries"] == 111
    assert got["bytes_keys"] and got["key_lengths"]
    assert got["pairs"] > got["map"] > 0 and got["shared"]
    bound = 3 * diagrams.MAX_VERTICES
    assert got["map"] <= (bound + 1) * bound


class TestSeries:
    def test_unit_is_union_identity(self):
        s = series_of(wheel(1), 6)
        assert DiagramSeries.unit(6).union(s) == s

    def test_degree_additivity(self):
        s = series_of(wheel(1), 6).union(series_of(wheel(1), 6))
        (form, coeff), = s.terms.items()
        assert form.degree == 4 and coeff == 1

    def test_bilinearity(self):
        a = series_of(wheel(1), 8, coeff=2)
        b = series_of(wheel(2), 8, coeff=3)
        w24 = relabel_union(wheel(1), wheel(2))
        assert coeff_of(a.union(b), w24) == 6

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


@settings(max_examples=100, deadline=None)
@given(st.lists(glued_wheels(), min_size=1, max_size=4), st.data())
def test_forms_of_any_union_order_hash_once_and_dedupe(pieces, data):
    """A form stores its hash: forms built by unions in different orders
    compare equal, hash equal, to the hash of their one compared field
    (``hash((components,))``), and key one dict entry."""
    forms = [form for form, sign in map(canonicalize, pieces) if sign]
    first = functools.reduce(CanonicalForm.union, forms, EMPTY_FORM)
    shuffled = data.draw(st.permutations(forms))
    second = EMPTY_FORM
    for form in reversed(shuffled):
        second = form.union(second)
    assert first == second
    assert hash(first) == hash(second) == hash((first.components,))
    assert len({first: 1, second: 2, CanonicalForm(first.components): 3}) == 1


class TestExpUnion:
    def test_exp_of_zero(self):
        assert DiagramSeries(4).exp_union() == DiagramSeries.unit(4)

    def test_wheel_exponential_truncated(self):
        arg = series_of(wheel(1), 4, coeff=modified_bernoulli(1))
        e = arg.exp_union()
        w2w2 = relabel_union(wheel(1), wheel(1))
        assert e.coeff(EMPTY_FORM) == 1
        assert coeff_of(e, wheel(1)) == Q(1, 48)
        assert coeff_of(e, w2w2) == Q(1, 4608)

    def test_leg_bound_is_twice_imax(self):
        # struts have no internal vertex, so only the leg bound 2 * imax
        # cuts exp(strut): at imax 3 it keeps 0..3 struts, each 1/k!
        from math import factorial
        e = series_of(strut(), 3, coeff=1).exp_union()
        assert sorted(f.m for f in e.terms) == [0, 2, 4, 6]
        d = JacobiDiagram(0, 0, ())
        for k in range(4):
            assert coeff_of(e, d) == Q(1, factorial(k))
            d = relabel_union(d, strut())

    def test_strut_exponential_degree_two(self):
        f = Q(3)
        arg = series_of(strut(), 4, coeff=f / 2)
        e = arg.exp_union()
        ss = relabel_union(strut(), strut())
        assert coeff_of(e, ss) == f ** 2 / 8

    def test_rejects_degree_zero_part(self):
        with pytest.raises(StructuralError):
            DiagramSeries.unit(4).exp_union()


class TestGlue:
    def test_wheel_closes_to_theta(self):
        glued = glue_legs(wheel(1), [(2, 3)])
        assert canonicalize(glued)[0] == canonicalize(theta())[0]

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
        form, sign = canonicalize(wheel(1))
        assert canonicalize(loaded) == (form, -sign)

    def test_rotated_cyclic_order_is_same_diagram(self):
        obj = wheel(1).to_json()
        obj["cyclic"]["0"] = [1, 2, 0]
        assert canonicalize(JacobiDiagram.from_json(obj)) == \
            canonicalize(wheel(1))

    def test_a_diagram_or_cyclic_order_that_is_no_object_is_named(self):
        with pytest.raises(TypeError, match=r"^diagram is \[1\], not an "
                           "object$"):
            JacobiDiagram.from_json([1])
        obj = {**wheel(1).to_json(), "cyclic": [[0, 1, 2]]}
        with pytest.raises(TypeError, match="^diagram field 'cyclic' is"):
            JacobiDiagram.from_json(obj)
        with pytest.raises(TypeError, match="^entry 1: diagram is 7, not"):
            DiagramSeries.from_json(
                [{"coeff": "1/1", "diagram": wheel(1).to_json()},
                 {"coeff": "1/1", "diagram": 7}], 8)
        with pytest.raises(TypeError, match="^entry 0 is 'x', not an object"):
            DiagramSeries.from_json(["x"], 8)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 8), st.lists(
    st.tuples(port_matchings(),
              st.fractions(min_value=-9, max_value=9, max_denominator=7)),
    max_size=4))
def test_series_json_round_trip(imax, terms):
    s = DiagramSeries.of_diagrams(imax, terms)
    back = DiagramSeries.from_json(json.loads(json.dumps(s.to_json())), imax)
    assert back == s


@st.composite
def diagram_pairs(draw):
    """imax 0..3 and (diagram, coefficient) pairs: random matchings of up
    to imax + 2 vertices and 2 * imax + 2 legs, so terms fall past
    either bound, many of them zero under AS (a vertex with two legs);
    odd wheels, which always are; and repeats of drawn pairs, often
    negated, so sums cancel."""
    imax = draw(st.integers(0, 3))
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=7)

    def diagram():
        if draw(st.integers(0, 4)) == 0:
            return draw(st.sampled_from([odd_wheel(1), odd_wheel(3)]))
        t = draw(st.integers(0, imax + 2))
        m = draw(st.sampled_from([m for m in range(2 * imax + 3)
                                  if (t + m) % 2 == 0]))
        return draw(port_matchings(t, m))

    pairs = [(diagram(), draw(coeffs))
             for _ in range(draw(st.integers(0, 6)))]
    pairs += [(d, sign * c) for (d, c), sign in zip(
        pairs, draw(st.lists(st.sampled_from([0, 1, -1]),
                             min_size=len(pairs), max_size=len(pairs))))]
    return imax, draw(st.permutations(pairs))


@settings(max_examples=150, deadline=None)
@given(diagram_pairs())
def test_of_diagrams_matches_fraction_loop_oracle(case):
    imax, pairs = case
    signed = [(canonicalize(d), c) for d, c in pairs]
    assert DiagramSeries.of_diagrams(imax, pairs).terms == \
        series_oracle._bounded_terms(imax, [
            (form, c * sign) for (form, sign), c in signed if sign])


@st.composite
def series_pairs(draw):
    """Two series at imax 1..3 whose terms have up to imax + 1 vertices
    (an even number: random port matchings with an odd one came out
    zero in every sample) and 2 * imax + 2
    legs, so drawn terms and their unions fall on both sides of the
    bound.  The second series repeats terms of the first, often negated,
    so sums and unions cancel."""
    imax = draw(st.integers(1, 3))

    def terms(size):
        out = []
        for _ in range(size):
            t = 2 * draw(st.integers(0, (imax + 1) // 2))
            m = draw(st.sampled_from(range(0, min(2 * imax + 2, 6) + 1, 2)))
            c = draw(st.fractions(min_value=-9, max_value=9,
                                  max_denominator=7))
            out.append((draw(port_matchings(t, m)), c))
        return out

    a_terms = terms(draw(st.integers(0, 6)))
    b_terms = terms(draw(st.integers(0, 3)))
    b_terms += [(d, sign * c) for (d, c), sign in zip(
        a_terms, draw(st.lists(st.sampled_from([0, 1, -1]),
                               min_size=len(a_terms),
                               max_size=len(a_terms))))]
    return tuple(DiagramSeries.of_diagrams(imax, draw(st.permutations(ts)))
                 for ts in (a_terms, b_terms))


class TestSeriesSums:
    """``+`` and ``union`` against the one-``Fraction``-per-term loops of
    ``series_oracle``, which apply the truncation bound themselves."""

    @settings(max_examples=150, deadline=None)
    @given(series_pairs())
    def test_sum_matches_fraction_loop_oracle(self, ab):
        a, b = ab
        assert (a + b).terms == series_oracle.diagram_sum(a, b)
        assert (b + a).terms == series_oracle.diagram_sum(b, a)

    @settings(max_examples=150, deadline=None)
    @given(series_pairs())
    def test_union_matches_fraction_loop_oracle(self, ab):
        a, b = ab
        assert a.union(b).terms == series_oracle.diagram_union(a, b)
        assert b.union(a).terms == series_oracle.diagram_union(b, a)

    def test_union_builds_only_forms_the_bound_keeps(self, monkeypatch):
        """The square of the wheeled Omega at imax 8 builds at most 89
        forms, each pair it skips one the bound drops (900 pairs).  The
        bound was set from the first measurement; do not raise it."""
        omega8 = pipeline._wheeled_knot(pipeline._UNKNOT_KEY, 8)
        built = []
        union = CanonicalForm.union

        def counted(f1, f2):
            built.append((f1, f2))
            return union(f1, f2)

        monkeypatch.setattr(CanonicalForm, "union", counted)
        square = omega8.union(omega8)
        assert len(built) <= 89
        assert square.terms == series_oracle.diagram_union(omega8, omega8)


_COUNT_SEARCHES = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from lmo_kernel import cli, diagrams
counts = {"_canon_component": 0, "search": 0, "start": 0}
def count(frame, event, arg):
    code = frame.f_code
    if (event == "call" and code.co_filename == diagrams.__file__
            and code.co_name in counts):
        counts[code.co_name] += 1
        if code.co_name == "search" and frame.f_locals["entry"] is None:
            counts["start"] += 1
sys.setprofile(count)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:])
sys.setprofile(None)
print(code, *counts.values())
"""


#: (order, component searches, search frames, starts) of a fresh
#: ``compare --lie A1 --framing 2``, measured when the leg groups moved
#: onto the serials; do not raise them.
_COLD_COMPARE_WORK = ((4, 80, 2444, 169), (5, 416, 17106, 759))


def test_cold_compare_work_count():
    """A fresh ``compare --lie A1 --framing 2`` runs one component
    search per component shape that ``canonicalize`` meets, within the
    bounds of ``_COLD_COMPARE_WORK``: closed components pass through the
    gluing tables and leg-free first terms glue nothing.  Earlier counts
    at order 4, as searches / frames / starts: 89 / 2 631 / 185 when
    ``leg_automorphisms`` searched the shapes of the forms' diagrams
    again (457 / 18 297 / 829 at order 5); 220 searches when
    ``canonicalize`` and ``leg_automorphisms`` searched every component
    they met, 429 when every gluing table canonicalized its closed
    components again; 4 196 frames and 467 starts before the shape
    cache; 10 265 and 582 when every automorphism was a leaf of its own
    and every start was refined from scratch."""
    src = Path(__file__).resolve().parents[1] / "src"
    for order, max_calls, max_nodes, max_starts in _COLD_COMPARE_WORK:
        out = subprocess.run(
            [sys.executable, "-c", _COUNT_SEARCHES, str(src), "compare",
             "--lie", "A1", "--framing", "2", "--order", str(order)],
            capture_output=True, text=True, timeout=300, check=True)
        code, calls, nodes, starts = map(int, out.stdout.split())
        assert code == 0
        assert calls <= max_calls, order
        assert nodes <= max_nodes, order
        assert starts <= max_starts, order


_COUNT_GLUINGS = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from lmo_kernel import balg, cli
counts = {"tables": 0, "matchings": 0, "orbits": 0}
gluings, glue_legs = balg._gluings, balg.glue_legs
def counted_gluings(*args):
    counts["tables"] += 1
    for p in gluings(*args):
        counts["matchings"] += 1
        yield p
def counted_glue_legs(*args):
    counts["orbits"] += 1
    return glue_legs(*args)
balg._gluings, balg.glue_legs = counted_gluings, counted_glue_legs
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:])
print(code, *counts.values())
"""


#: (order, gluing tables enumerated, matchings, orbits glued) of a fresh
#: ``compare --lie A1 --framing 2``, measured when every table came to
#: enumerate its matchings through ``balg._gluings``; do not raise them.
_COLD_COMPARE_GLUINGS = ((4, 34, 819, 114), (5, 104, 10227, 577))


def test_cold_compare_gluing_count():
    """A fresh ``compare --lie A1 --framing 2`` enumerates leg matchings
    and glues one per automorphism orbit (one ``glue_legs`` call) within
    the bounds of ``_COLD_COMPARE_GLUINGS``."""
    src = Path(__file__).resolve().parents[1] / "src"
    for order, max_tables, max_matchings, max_orbits in \
            _COLD_COMPARE_GLUINGS:
        out = subprocess.run(
            [sys.executable, "-c", _COUNT_GLUINGS, str(src), "compare",
             "--lie", "A1", "--framing", "2", "--order", str(order)],
            capture_output=True, text=True, timeout=300, check=True)
        code, tables, matchings, orbits = map(int, out.stdout.split())
        assert code == 0
        assert tables <= max_tables, order
        assert matchings <= max_matchings, order
        assert orbits <= max_orbits, order
