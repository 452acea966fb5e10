"""Vertex-oriented uni-trivalent graphs and their graded linear combinations.

A diagram has ``t`` trivalent vertices (labels ``0..t-1``, ports
``(v, 0..2)``, the slot order *is* the cyclic order) and ``m`` legs
(univalent vertices ``t..t+m-1``, single port ``(v, 0)``).  Legs are
unlabeled: series terms are canonical forms in which leg identity has
been erased.

Canonicalization extracts the orientation sign: reversing the cyclic
order at a vertex costs -1, and a diagram carrying an orientation-odd
automorphism is the zero element.  Each connected component is keyed by
the smallest row serial over a set of candidate labelings.  The vertices
start coloured by their legs, parallel edges and triangles; a
splitter-queue refinement (McKay and Piperno, "Practical graph
isomorphism, II", J. Symb. Comput. 60, 2014, §3) splits the colours to
the coarsest equitable partition.  A candidate starts at one vertex of
the smallest colour class, refines again with only that vertex's new
cell as splitter, and labels the rest in breadth-first order.  A newly
reached vertex puts its entry port in slot 0 and orders its other slots
by leg, then port of a labeled neighbour, then colour of an unlabeled
one; only ties branch.  Every rule is invariant, so an automorphism maps
candidates to candidates.  Hence two candidates reaching the same serial
differ by an automorphism, and the component is zero exactly when it has
an orientation-odd one: the search stops as soon as two candidates of
one serial carry both signs.  The automorphisms found prune twice (the
same paper, §3).  A candidate that ties the first one at the current
minimal serial gives an automorphism that fixes their common prefix and
maps the first one's explored subtree onto the rest of the current one,
so the search returns straight to their deepest common ancestor, or
leaves the start when the two starts differ.  A start in the orbit of an
explored start, under the automorphisms found so far, is skipped.  The
tied candidates at the minimal serial, measured against the first one,
together with the automorphisms that merged start orbits, generate the
component's automorphism group; ``leg_automorphisms`` reads them to give
the leg permutations the gluing tables fold by.  The search runs once
per component shape, its edges with the trivalent vertices numbered by
rank and every leg as ``LEG`` (``_search_shape``): it reads vertices
only in list order, so every numbering of a shape reads one result,
which ``canonicalize`` and ``leg_automorphisms`` share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator

from .qseries import ZERO, sum_products

Port = tuple[int, int]
Edge = tuple[Port, Port]

#: Sentinel used for anonymous leg endpoints inside canonical serials.
LEG = 10 ** 9

#: Hard cap on total vertex count.  Canonical search branches only on
#: colour ties, and an automorphism costs it one leaf, not the subtree it
#: maps onto an explored one.  Ties that no automorphism explains still
#: branch, so one start can cost up to 6 * 2**(t - 1) candidate labelings.
MAX_VERTICES = 24

#: Slot relabelings of a trivalent vertex: rotations preserve the cyclic
#: order (+1), reflections reverse it (-1).
SLOT_PERMS: tuple[tuple[tuple[int, int, int], int], ...] = (
    ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
    ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1),
)

#: Old slots of a vertex listed in the new slot order a permutation gives.
_SLOTS_IN_ORDER = {p: tuple(p.index(j) for j in (0, 1, 2))
                   for p, _ in SLOT_PERMS}

_STRUT_SERIAL = (0, 2, ((LEG, LEG),))


class StructuralError(ValueError):
    """Malformed diagram, or an operation that would create a circle."""


def _norm_edge(p: Port, q: Port) -> Edge:
    return (p, q) if p <= q else (q, p)


@dataclass(frozen=True)
class JacobiDiagram:
    """A concrete labeled diagram; see module docstring for conventions."""

    t: int
    m: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.t + self.m > MAX_VERTICES:
            raise StructuralError(
                f"diagram with {self.t + self.m} vertices exceeds desk scale")
        if (self.t + self.m) % 2 != 0:
            raise StructuralError("t + m must be even")
        seen: set[Port] = set()
        for e in self.edges:
            for v, s in e:
                if v < 0 or v >= self.t + self.m:
                    raise StructuralError(f"port {(v, s)}: no such vertex")
                if v < self.t and s not in (0, 1, 2):
                    raise StructuralError(f"port {(v, s)}: bad slot")
                if v >= self.t and s != 0:
                    raise StructuralError(f"port {(v, s)}: legs have slot 0")
                if (v, s) in seen:
                    raise StructuralError(f"port {(v, s)} used twice")
                seen.add((v, s))
        expected = 3 * self.t + self.m
        if len(seen) != expected:
            raise StructuralError("some port is not covered by an edge")
        object.__setattr__(self, "edges",
                           tuple(sorted(_norm_edge(*e) for e in self.edges)))

    @property
    def degree(self) -> Fraction:
        return Fraction(self.t + self.m, 2)

    def legs(self) -> range:
        return range(self.t, self.t + self.m)

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "m": self.m,
            "edges": [[[p[0], p[1]], [q[0], q[1]]] for p, q in self.edges],
            "cyclic": {str(v): [0, 1, 2] for v in range(self.t)},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "JacobiDiagram":
        t, m = int(obj["t"]), int(obj["m"])
        # A file may present the cyclic order as any permutation of the
        # slots; rename slots per vertex so the order becomes (0, 1, 2).
        remap: dict[int, dict[int, int]] = {}
        for v, cyc in obj.get("cyclic", {}).items():
            if sorted(cyc) != [0, 1, 2]:
                raise StructuralError(f"vertex {v}: bad cyclic order {cyc}")
            remap[int(v)] = {int(old): i for i, old in enumerate(cyc)}
        edges = []
        for (pv, ps), (qv, qs) in (map(tuple, e) for e in obj["edges"]):
            pv, ps, qv, qs = int(pv), int(ps), int(qv), int(qs)
            if pv in remap:
                ps = remap[pv][ps]
            if qv in remap:
                qs = remap[qv][qs]
            edges.append(((pv, ps), (qv, qs)))
        return cls(t, m, tuple(edges))


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalForm:
    """Isomorphism-class key: the sorted multiset of component serials.

    ``t`` and ``m`` are totals over the components, stored once; equality
    and hashing use ``components`` alone.  The hash is stored once too, as
    the value a generated ``__hash__`` would return, ``hash((components,))``:
    a form is hashed on every series lookup, and each hash would walk the
    nested serial tuple again.
    """

    components: tuple
    t: int = field(init=False, compare=False, repr=False)
    m: int = field(init=False, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # Every union builds a form, so the totals are stored straight
        # into the instance dict, the cheapest store a frozen class has.
        self.__dict__["t"] = sum([c[0] for c in self.components])
        self.__dict__["m"] = sum([c[1] for c in self.components])
        self.__dict__["_hash"] = hash((self.components,))

    def __hash__(self) -> int:
        return self._hash

    @property
    def degree(self) -> Fraction:
        return Fraction(self.t + self.m, 2)

    def union(self, other: "CanonicalForm") -> "CanonicalForm":
        return CanonicalForm(tuple(sorted(self.components + other.components)))

    def diagram(self) -> JacobiDiagram:
        """Rebuild a concrete representative with spec vertex numbering."""
        edges: list[Edge] = []
        tv_off = 0
        t_total = self.t
        leg_next = t_total
        for t_c, m_c, rows in self.components:
            if t_c == 0:  # strut
                edges.append(((leg_next, 0), (leg_next + 1, 0)))
                leg_next += 2
                continue
            for k, row in enumerate(rows):
                for other, own in row:
                    own_port = (tv_off + own // 3, own % 3)
                    if other == LEG:
                        edges.append((own_port, (leg_next, 0)))
                        leg_next += 1
                    else:
                        edges.append(((tv_off + other // 3, other % 3),
                                      own_port))
            tv_off += t_c
        return JacobiDiagram(t_total, self.m, tuple(edges))


EMPTY_FORM = CanonicalForm(())


@dataclass(frozen=True)
class CanonicalDiagram:
    """Canonical form plus the orientation sign extracted on the way.

    ``sign == 0`` marks a diagram equal to its own negative (an
    orientation-odd automorphism exists), i.e. the zero element.
    """

    form: CanonicalForm | None
    sign: int

    @property
    def is_zero(self) -> bool:
        return self.sign == 0


def _components(d: JacobiDiagram) -> list[tuple[list[int], int, list[Edge]]]:
    """Connected components as (trivalent vertices, leg count, edges)."""
    parent = list(range(d.t + d.m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (pv, _), (qv, _) in d.edges:
        parent[find(pv)] = find(qv)
    buckets: dict[int, tuple[list[int], list[int], list[Edge]]] = {}
    for v in range(d.t + d.m):
        buckets.setdefault(find(v), ([], [], []))
        (buckets[find(v)][0] if v < d.t else buckets[find(v)][1]).append(v)
    for e in d.edges:
        buckets[find(e[0][0])][2].append(e)
    return [(tv, len(lg), es) for tv, lg, es in buckets.values()]


def _refine(cells: dict[int, list[int]], colour: dict[int, int],
            nbrs: dict[int, list[int]], queue: list[int]) -> None:
    """Split an ordered partition of a multigraph's vertices, in place, to
    the coarsest equitable one finer than it: every vertex of a cell then
    has as many neighbours (edges counted with multiplicity) in each cell.

    ``cells`` maps the position of a cell in the ordered partition (the
    number of vertices before it) to its vertices; ``colour`` maps each
    vertex to the position of its cell.  ``queue`` lists the positions of
    the splitter cells.  A splitter splits every cell by the number of
    neighbours its vertices have in it; the fragments take the cell's
    place in order of that number, and all but the first largest one join
    the queue (all, if the cell was queued).  Positions and counts are the
    only things read, so colours depend on the graph and the initial
    partition, never on the vertex numbering.
    """
    queued = set(queue)
    for w in queue:
        queued.discard(w)
        count: dict[int, int] = {}
        for x in cells[w]:
            for y in nbrs[x]:
                count[y] = count.get(y, 0) + 1
        for c in sorted({colour[y] for y in count}):
            split: dict[int, list[int]] = {}
            for y in cells[c]:
                split.setdefault(count.get(y, 0), []).append(y)
            if len(split) == 1:
                continue
            frags = [split[n] for n in sorted(split)]
            largest = max(frags, key=len)
            requeue = c in queued
            for frag in frags:
                cells[c] = frag
                for y in frag:
                    colour[y] = c
                if (requeue or frag is not largest) and c not in queued:
                    queue.append(c)
                    queued.add(c)
                c += len(frag)


def _equitable(key: dict[int, tuple], nbrs: dict[int, list[int]]
               ) -> tuple[dict[int, list[int]], dict[int, int]]:
    """The coarsest equitable partition finer than the one into equal
    ``key`` values, as ``_refine`` gives it (cells, colour): the cells
    start in key order, and every cell is a splitter."""
    cells: dict[int, list[int]] = {}
    colour: dict[int, int] = {}
    for k in sorted(set(key.values())):
        c = len(colour)
        cells[c] = [v for v in key if key[v] == k]
        colour.update(dict.fromkeys(cells[c], c))
    _refine(cells, colour, nbrs, list(cells))
    return cells, colour


def _canon_component(trivalent: list[int], edges: list[Edge],
                     t_bound: int, ties: list | None = None
                     ) -> tuple[tuple | None, int]:
    """Minimal serialization of one connected component, with its sign.

    Candidate labelings start at a vertex of the smallest colour class,
    one per orbit of the automorphisms found, visit the rest in
    breadth-first order and return to the common ancestor of a tie; see
    the module docstring.  Returns (serial, sign); sign 0 encodes the zero
    diagram.  A ``ties`` list of a nonzero component receives pairs (a, b)
    of labelings that reach one serial, each labeling a (vertex -> label,
    vertex -> slot permutation) pair, so each pair is an automorphism:
    first (t0, t) for every labeling t at the minimal serial that the
    search reached, t0 the first of them, then every pair that merged
    start orbits.  Together they generate the automorphism group.
    """
    n_legs = sum(1 for e in edges for (v, _) in e if v >= t_bound)
    if not trivalent:
        # Only struts have no trivalent vertex (circles are unrepresentable).
        return _STRUT_SERIAL, 1

    # adjacency by slot: ('L',) for a leg, else (neighbor, neighbor slot)
    adj: dict[int, list] = {v: [None, None, None] for v in trivalent}
    for (pv, ps), (qv, qs) in edges:
        if pv == qv:
            # A loop edge occupies two slots of one cyclic triple; swapping
            # them is an orientation-odd automorphism, so the diagram is 0.
            return None, 0
        if pv < t_bound and qv < t_bound:
            adj[pv][ps] = (qv, qs)
            adj[qv][qs] = (pv, ps)
        elif pv < t_bound:
            adj[pv][ps] = ("L",)
        else:
            adj[qv][qs] = ("L",)

    nbrs = {v: [nb[0] for nb in adj[v] if nb != ("L",)] for v in trivalent}
    # start colour: legs, parallel edges and triangles at each vertex
    key = {v: (adj[v].count(("L",)), len(nbrs[v]) - len(set(nbrs[v])),
               sum(b in nbrs[a] for a, b in combinations(set(nbrs[v]), 2)))
           for v in trivalent}
    cells, colour = _equitable(key, nbrs)
    starts = cells[min(cells, key=lambda c: (len(cells[c]), c))]

    T = len(trivalent)
    best: list = [None]        # best complete serial
    best_signs: set[int] = set()
    tied: list = []            # labelings at best, the first one first
    kept: list = []            # labeling pairs that merged start orbits
    orbit = {v: v for v in starts}  # union-find of starts under those

    def find(v: int) -> int:
        while orbit[v] != v:
            orbit[v] = orbit[orbit[v]]
            v = orbit[v]
        return v

    def leaf(label: dict[int, int], perm: dict, order: list[int],
             sign: int) -> int:
        """A complete labeling at the best serial: record it with its
        sign, merge the start orbits that the automorphism from the first
        such labeling onto it joins, and return the depth to resume at."""
        best_signs.add(sign)
        tied.append((dict(label), dict(perm)))
        if len(tied) == 1:
            return T
        (label0, perm0), here = tied[0], tied[-1]
        merged = False
        for v in starts:
            a, b = find(v), find(order[label0[v]])
            if a != b:
                orbit[a] = b
                merged = True
        if merged:
            kept.append((tied[0], here))
        if len(best_signs) == 2:
            return -1  # an orientation-odd automorphism: the zero diagram
        if label0[order[0]] != 0:
            return -1  # the whole start is the image of an explored one
        # the automorphism fixes the common prefix and maps the first
        # labeling's explored subtree onto the rest of this one
        return next(k for k, u in enumerate(order) if perm[u] != perm0[u])

    def search(u: int, entry: int | None, head: int, col: dict[int, int],
               order: list[int], label: dict[int, int],
               perm: dict[int, tuple[int, int, int]],
               rows: list, sign: int) -> int:
        """Give ``u`` label k = len(order), entered through slot ``entry``
        (None for the start), under each admissible slot permutation.
        Returns the depth of the frame to resume at: one above k unwinds."""
        k = len(order)
        # slot keys: leg < port of a labeled neighbour < colour of another
        keys = []
        for nb in adj[u]:
            if nb == ("L",):
                keys.append((0, LEG))
            elif nb[0] in label:
                keys.append((1, 3 * label[nb[0]] + perm[nb[0]][nb[1]]))
            else:
                keys.append((2, col[nb[0]]))
        for p, psign in SLOT_PERMS:
            if entry is not None and p[entry] != 0:
                continue
            by_slot = [keys[s] for s in _SLOTS_IN_ORDER[p]]
            if by_slot[1] > by_slot[2] or (entry is None
                                           and by_slot[0] > by_slot[1]):
                continue
            row = tuple(sorted((key[1], 3 * k + p[s])
                               for s, key in enumerate(keys) if key[0] < 2))
            if best[0] is not None:
                ref = best[0][k]
                if row > ref:
                    continue
                if row < ref:
                    best[0] = None  # strictly better prefix found
                    best_signs.clear()
                    tied.clear()
            label[u] = k
            perm[u] = p
            order.append(u)
            rows.append(row)
            if k + 1 == T:
                if best[0] is None:
                    best[0] = tuple(rows)
                # otherwise comparisons en route guarantee equality
                back = leaf(label, perm, order, sign * psign)
            else:
                # next vertex: first unlabeled neighbour of the labeled
                # vertices in label order, their slots in new slot order
                nxt, h = None, head
                while nxt is None:
                    x = order[h]
                    for s in _SLOTS_IN_ORDER[perm[x]]:
                        nb = adj[x][s]
                        if nb != ("L",) and nb[0] not in label:
                            nxt = nb
                            break
                    else:
                        h += 1
                back = search(nxt[0], nxt[1], h, col, order, label, perm,
                              rows, sign * psign)
            rows.pop()
            order.pop()
            del label[u], perm[u]
            if back < k:
                return back
        return k

    explored: list[int] = []
    for v in starts:
        if any(find(v) == find(u) for u in explored):
            continue  # an automorphism maps an explored start onto v
        explored.append(v)
        col, split = dict(colour), dict(cells)
        c = col[v]
        if len(split[c]) > 1:  # equitable before, so only {v} splits
            split[c], split[c + 1] = [v], [w for w in split[c] if w != v]
            col.update(dict.fromkeys(split[c + 1], c + 1))
            _refine(split, col, nbrs, [c])
        search(v, None, 0, col, [], {}, {}, [], 1)
        if len(best_signs) == 2:
            return None, 0
    if ties is not None:
        ties.extend((tied[0], t) for t in tied)
        ties.extend(kept)
    return (T, n_legs, best[0]), next(iter(best_signs))


_CANON_CACHE: dict[tuple, CanonicalDiagram] = {}

#: ``_canon_component`` results by component shape: {the ports of the
#: edges in order, port (rank, slot) of a trivalent vertex as the int
#: 3 * rank + slot and every leg as LEG: (serial, sign, leg orders)}
_SHAPE_CACHE: dict[tuple, tuple] = {}


def _search_shape(trivalent: list[int], edges: list[Edge], t_bound: int
                  ) -> tuple[tuple | None, int, tuple]:
    """``_canon_component`` of a component, read from its shape: the
    search reads vertices only in list order and legs only as legs, so
    it runs once per shape, on the renumbered edges.  Components that
    differ only by a monotone renumbering of their sorted trivalent
    vertices and by their leg numbers share a shape.

    Returns (serial, sign, leg orders).  Each pair (a, b) of labelings
    in the search's ties becomes a pair of leg orders: the leg ports
    3 * r + slot of vertex ``trivalent[r]``, listed by label and then
    new slot under a and under b.  Both labelings give one serial, so
    the automorphism from a to b sends the i-th port of the one to the
    i-th of the other.  A closed or zero component keeps none."""
    rank = {v: r for r, v in enumerate(trivalent)}
    shape = tuple([3 * rank[v] + s if v < t_bound else LEG
                   for e in edges for v, s in e])
    hit = _SHAPE_CACHE.get(shape)
    if hit is None:
        ports = [(LEG, 0) if p == LEG else divmod(p, 3) for p in shape]
        renumbered = list(zip(ports[::2], ports[1::2]))
        ties: list = []
        serial, sign = _canon_component(list(range(len(trivalent))),
                                        renumbered, LEG, ties)
        # a leg edge lists its trivalent port first
        legs = [p for p, q in renumbered if q[0] == LEG]

        def order(labeling) -> tuple[int, ...]:
            label, perm = labeling
            return tuple(3 * r + s for _, r, s in sorted(
                (3 * label[r] + perm[r][s], r, s) for r, s in legs))

        hit = _SHAPE_CACHE[shape] = (serial, sign, tuple(
            (order(a), order(b)) for a, b in ties) if sign and legs else ())
    return hit


def canonicalize(d: JacobiDiagram) -> CanonicalDiagram:
    """Canonical form of ``d`` with the accumulated orientation sign."""
    key = (d.t, d.m, d.edges)
    hit = _CANON_CACHE.get(key)
    if hit is not None:
        return hit
    comps = []
    sign = 1
    for tv, _, es in _components(d):
        serial, s, _ = _search_shape(sorted(tv), es, d.t)
        if s == 0:
            out = CanonicalDiagram(None, 0)
            _CANON_CACHE[key] = out
            return out
        sign *= s
        comps.append(serial)
    out = CanonicalDiagram(CanonicalForm(tuple(sorted(comps))), sign)
    _CANON_CACHE[key] = out
    return out


def leg_automorphisms(d: JacobiDiagram) -> tuple[tuple[int, ...], ...]:
    """Generators of the leg permutations that automorphisms of a nonzero
    diagram induce: generator g sends leg ``d.t + i`` to ``d.t + g[i]``.

    Each component contributes the automorphisms its canonical search
    found; components with equal serials are swapped through their first
    minimal labelings; each strut flips, and neighbouring struts swap.  Every
    automorphism of a nonzero diagram preserves the orientation.
    """
    leg_at: dict[Port, int] = {}
    for p, q in d.edges:
        if p[0] < d.t <= q[0]:
            leg_at[p] = q[0] - d.t

    maps: list[dict[int, int]] = []
    by_serial: dict[tuple, list] = {}
    struts = []
    for tv, n_legs, es in _components(d):
        if not tv:
            (a, _), (b, _) = es[0]
            struts.append((a - d.t, b - d.t))
            continue
        if n_legs == 0:
            continue  # closed: moves no leg
        tv = sorted(tv)
        serial, s, orders = _search_shape(tv, es, d.t)
        if s == 0:
            raise StructuralError("the zero diagram has no leg group")
        # the leg numbers at the ports of both orders of every pair
        legs = [[leg_at[(tv[p // 3], p % 3)] for p in order]
                for pair in orders for order in pair]
        maps.extend(dict(zip(a, b)) for a, b in zip(legs[::2], legs[1::2]))
        by_serial.setdefault(serial, []).append(legs[0])
    for same in by_serial.values():
        for a, b in zip(same, same[1:]):
            maps.append({**dict(zip(a, b)), **dict(zip(b, a))})
    for a, b in struts:
        maps.append({a: b, b: a})
    for (a, b), (c, e) in zip(struts, struts[1:]):
        maps.append({a: c, c: a, b: e, e: b})
    ident = range(d.m)
    gens = {tuple(g.get(i, i) for i in ident) for g in maps}
    gens.discard(tuple(ident))
    return tuple(sorted(gens))


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

class DiagramSeries:
    """Rational linear combination of canonical diagrams.

    Built from terms (form, x, y), each adding x * y to the coefficient
    of its form; every sum goes through ``qseries.sum_products``.
    Truncation policy, stated once in ``fits`` and applied by the
    constructor and ``add_form``: terms with more than ``imax``
    trivalent vertices or more than ``2 * imax`` legs are dropped.
    ``union`` skips the pairs of terms the bound would drop before it
    builds their form.  ``+`` and ``scale`` make no new form, so they
    apply no bound: the unit keeps its empty form even at a negative
    ``imax``, where ``balg.wheeling_inverse`` then never returns (see
    ``cli``).
    """

    __slots__ = ("terms", "imax")

    def __init__(self, imax: int,
                 terms: Iterable[tuple[CanonicalForm, Fraction | int,
                                       Fraction | int]] = ()):
        self.imax = imax
        self.terms: dict[CanonicalForm, Fraction] = sum_products(
            (form, x, y) for form, x, y in terms if self.fits(form))

    def fits(self, form: CanonicalForm) -> bool:
        return form.t <= self.imax and form.m <= 2 * self.imax

    @classmethod
    def unit(cls, imax: int) -> "DiagramSeries":
        s = cls(imax)
        s.terms[EMPTY_FORM] = Fraction(1)
        return s

    def copy(self) -> "DiagramSeries":
        s = DiagramSeries(self.imax)
        s.terms = dict(self.terms)
        return s

    def add_form(self, form: CanonicalForm, coeff: Fraction | int) -> None:
        if self.fits(form):
            self.terms.update(sum_products(
                ((form, self.terms.pop(form, ZERO), 1), (form, coeff, 1))))

    def add_diagram(self, d: JacobiDiagram, coeff: Fraction | int) -> None:
        cd = canonicalize(d)
        if cd.is_zero:
            return
        self.add_form(cd.form, Fraction(coeff) * cd.sign)

    def items(self) -> Iterator[tuple[CanonicalForm, Fraction]]:
        return iter(sorted(self.terms.items(),
                           key=lambda kv: kv[0].components))

    def coeff(self, form: CanonicalForm) -> Fraction:
        return self.terms.get(form, Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def _check_policy(self, other: "DiagramSeries") -> None:
        if self.imax != other.imax:
            raise StructuralError("incompatible truncation policies")

    def __add__(self, other: "DiagramSeries") -> "DiagramSeries":
        self._check_policy(other)
        out = DiagramSeries(self.imax)
        out.terms = sum_products((f, c, 1) for s in (self, other)
                                 for f, c in s.terms.items())
        return out

    def scale(self, c) -> "DiagramSeries":
        c = Fraction(c)
        out = DiagramSeries(self.imax)
        if c != 0:
            out.terms = {f: c * v for f, v in self.terms.items()}
        return out

    def union(self, other: "DiagramSeries") -> "DiagramSeries":
        """Disjoint-union product, extended bilinearly.  A pair whose
        union the bound would drop is skipped before its form is built."""
        self._check_policy(other)
        imax = self.imax
        return DiagramSeries(imax, (
            (f1.union(f2), c1, c2) for f1, c1 in self.terms.items()
            for f2, c2 in other.terms.items()
            if f1.t + f2.t <= imax and f1.m + f2.m <= 2 * imax))

    def exp_union(self) -> "DiagramSeries":
        """exp under disjoint union; the argument may have no degree-0 part."""
        if EMPTY_FORM in self.terms:
            raise StructuralError("exp_union argument has a degree-0 part")
        out = DiagramSeries.unit(self.imax)
        power = DiagramSeries.unit(self.imax)
        k = 0
        while True:
            k += 1
            power = power.union(self).scale(Fraction(1, k))
            if power.is_zero():
                break
            out = out + power
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiagramSeries):
            return NotImplemented
        return self.terms == other.terms and self.imax == other.imax

    def __repr__(self) -> str:
        return f"DiagramSeries({len(self.terms)} terms, imax={self.imax})"

    def to_json(self) -> list:
        return [{"coeff": f"{c.numerator}/{c.denominator}",
                 "diagram": f.diagram().to_json()}
                for f, c in self.items()]

    @classmethod
    def from_json(cls, obj: list, imax: int) -> "DiagramSeries":
        """Read a list of {"coeff", "diagram"} entries; a missing field
        is named with its entry's index."""
        s = cls(imax)
        for i, entry in enumerate(obj):
            try:
                d = JacobiDiagram.from_json(entry["diagram"])
                coeff = Fraction(entry["coeff"])
            except KeyError as exc:
                raise StructuralError(
                    f"entry {i} has no field {exc.args[0]!r}") from exc
            s.add_diagram(d, coeff)
        return s


def series_of(d: JacobiDiagram, imax: int, *,
              coeff: Fraction | int = 1) -> DiagramSeries:
    s = DiagramSeries(imax)
    s.add_diagram(d, coeff)
    return s


def relabel_union(d1: JacobiDiagram, d2: JacobiDiagram
                  ) -> tuple[JacobiDiagram, list[int], list[int]]:
    """Disjoint union of two labeled diagrams.

    Returns the union plus the new leg ids coming from each input, in
    the input legs' original order.
    """
    t = d1.t + d2.t

    def remap1(p: Port) -> Port:
        v, s = p
        return (v, s) if v < d1.t else (v - d1.t + t, s)

    def remap2(p: Port) -> Port:
        v, s = p
        return (v + d1.t, s) if v < d2.t else (v - d2.t + t + d1.m, s)

    edges = [(remap1(p), remap1(q)) for p, q in d1.edges]
    edges += [(remap2(p), remap2(q)) for p, q in d2.edges]
    legs1 = [v - d1.t + t for v in d1.legs()]
    legs2 = [v - d2.t + t + d1.m for v in d2.legs()]
    return JacobiDiagram(t, d1.m + d2.m, tuple(edges)), legs1, legs2


def glue_legs(d: JacobiDiagram, pairs: Iterable[tuple[int, int]]
              ) -> JacobiDiagram:
    """Glue the listed leg pairs: each glued pair of legs disappears and
    their two incident edges merge into one.

    Raises StructuralError if a gluing would close a vertex-free circle.
    """
    partner: dict[Port, Port] = {}
    for p, q in d.edges:
        partner[p] = q
        partner[q] = p
    glued: set[int] = set()
    for a, b in pairs:
        pa, pb = (a, 0), (b, 0)
        na, nb = partner.pop(pa), partner.pop(pb)
        if na == pb:
            raise StructuralError("gluing would create a vertex-free circle")
        partner[na] = nb
        partner[nb] = na
        glued.update((a, b))
    leg_map = {v: d.t + i
               for i, v in enumerate(v for v in d.legs() if v not in glued)}

    def remap(p: Port) -> Port:
        v, s = p
        return (v, s) if v < d.t else (leg_map[v], 0)

    edges = []
    for p, q in partner.items():
        if p <= q:
            edges.append((remap(p), remap(q)))
    return JacobiDiagram(d.t, d.m - len(glued), tuple(edges))
