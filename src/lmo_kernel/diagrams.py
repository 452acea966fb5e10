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
one; only ties branch.  The search keeps to ints and lists: a slot's key
is -1 for a leg, the new port 3 * label + slot of a labeled neighbour
and 3T + colour for an unlabeled one (T trivalent vertices), a row entry
(other, own) is other * 3T + own until the serial is written, a
labeling is a list of labels and a list of slot permutations, and the
slot permutations each entry slot admits are listed once
(``_ENTRY_PERMS``).  Every rule is invariant, so an automorphism maps
candidates to candidates.  Hence two candidates reaching the same serial
differ by an automorphism, and the component is zero exactly when it has
an orientation-odd one: the search stops as soon as two candidates of
one serial carry both signs.  The automorphisms found prune twice (the
same paper, §3).  A candidate that ties the first one at the current
minimal serial gives an automorphism that fixes their common prefix and
maps the first one's explored subtree onto the rest of the current one,
so the search returns straight to their deepest common ancestor, or
leaves the start when the two starts differ.  A start in the orbit of an
explored start, under the automorphisms found so far, is skipped.  Every
automorphism found is a generator, the ones found at a serial that a
later candidate beats too, and together they generate the component's
automorphism group.  The search reads a component's shape
and nothing else: the ports of its edges in order, a trivalent port as
3 * rank + slot with the vertices ranked in ascending order, and every
leg as ``LEG``.  Components that differ only by a monotone renumbering
of their trivalent vertices and by their leg numbers share a shape, so
the search runs once per shape (``_search_shape``).  The leg group
belongs to the serial: the first search to reach a serial keeps its leg
permutations, numbered as the serial's own diagram numbers its legs
(``_LEG_GROUPS``), and ``leg_automorphisms`` reads a form's group from
them with no search.

These caches are most of what a run keeps.  ``canonicalize`` memoizes
each labeled diagram under one ``bytes`` key, ``t``, ``m`` and every
port (v, s) of its sorted edges as the byte 3 * v + s (``_canon_key``):
a tuple key would keep every glued diagram's nested edge tuples alive,
and the cache hardly hits.  Every serial builds its rows from one shared
tuple per row entry (other, own), kept in ``_PAIRS``, which holds at
most (3 * MAX_VERTICES + 1) * 3 * MAX_VERTICES of them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .qseries import (FrozenRecord, _echo, json_int, json_key, json_list,
                      json_object, json_rational, rational_str, sum_products)

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

#: The slot permutations a vertex entered through slot ``entry`` may take
#: (those moving it to slot 0; all six at a start, ``entry`` None), in
#: the order of SLOT_PERMS, as (permutation, sign, old slots in new order).
_ENTRY_PERMS = {entry: tuple((p, sign, _SLOTS_IN_ORDER[p])
                             for p, sign in SLOT_PERMS
                             if entry is None or p[entry] == 0)
                for entry in (None, 0, 1, 2)}

_STRUT_SERIAL = (0, 2, ((LEG, LEG),))


class StructuralError(ValueError):
    """Malformed diagram, or an operation that would create a circle."""


def _norm_edge(p: Port, q: Port) -> Edge:
    return (p, q) if p <= q else (q, p)


class JacobiDiagram(FrozenRecord):
    """A concrete labeled diagram; see module docstring for conventions."""

    __slots__ = ("t", "m", "edges")

    def __init__(self, t: int, m: int, edges: tuple[Edge, ...]):
        for name, n in (("t", t), ("m", m)):
            if n < 0:
                raise StructuralError(f"{name} must be >= 0, got {n}")
        if t + m > MAX_VERTICES:
            raise StructuralError(
                f"diagram with {t + m} vertices exceeds desk scale")
        if (t + m) % 2 != 0:
            raise StructuralError("t + m must be even")
        seen: set[Port] = set()
        for e in edges:
            for v, s in e:
                if v < 0 or v >= t + m:
                    raise StructuralError(f"port {(v, s)}: no such vertex")
                if v < t and s not in (0, 1, 2):
                    raise StructuralError(f"port {(v, s)}: bad slot")
                if v >= t and s != 0:
                    raise StructuralError(f"port {(v, s)}: legs have slot 0")
                if (v, s) in seen:
                    raise StructuralError(f"port {(v, s)} used twice")
                seen.add((v, s))
        if len(seen) != 3 * t + m:
            raise StructuralError("some port is not covered by an edge")
        self._set_fields(t, m, tuple(sorted(_norm_edge(*e) for e in edges)))

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
    def from_json(cls, obj: dict, what: str = "diagram") -> "JacobiDiagram":
        """A diagram or its ``cyclic`` field that is not a JSON object is
        malformed input, named as ``what``."""
        json_object(obj, what)
        t, m = json_int(obj["t"], "t"), json_int(obj["m"], "m")
        # A file may present the cyclic order as any permutation of the
        # slots; rename slots per vertex so the order becomes (0, 1, 2).
        remap: dict[int, dict[int, int]] = {}
        for key, cyc in json_object(obj.get("cyclic", {}),
                                    f"{what} field 'cyclic'").items():
            v = json_key(key, "cyclic key")
            if not 0 <= v < t:
                raise StructuralError(
                    f"cyclic key {key!r} is not a trivalent vertex (t = {t})")
            if sorted(cyc) != [0, 1, 2] or {type(s) for s in cyc} != {int}:
                raise StructuralError(
                    f"vertex {v}: bad cyclic order {_echo(cyc)}")
            remap[v] = {old: i for i, old in enumerate(cyc)}

        def port(p) -> Port:
            v, s = (json_int(x, "edge port entry") for x in p)
            return v, (remap[v].get(s, s) if v in remap else s)

        return cls(t, m, tuple((port(p), port(q)) for p, q in obj["edges"]))


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------

class CanonicalForm(FrozenRecord):
    """Isomorphism-class key: the sorted multiset of component serials.

    ``t`` and ``m`` are totals over the components, stored once; equality
    and hashing use ``components`` alone.  The hash is stored once too:
    ``hash((components,))``, what ``FrozenRecord`` would return were
    ``components`` the only field.  A form is hashed on every series
    lookup, and each hash would walk the nested serial tuple again.
    """

    __slots__ = ("components", "t", "m", "_hash")

    def __init__(self, components: tuple):
        # Every union builds a form, so the fields are stored through the
        # slots' own setters, the cheapest store a frozen record has.
        _set_components(self, components)
        _set_t(self, sum([c[0] for c in components]))
        _set_m(self, sum([c[1] for c in components]))
        _set_hash(self, hash((components,)))

    def __eq__(self, other) -> bool:
        if other.__class__ is not CanonicalForm:
            return NotImplemented
        return self.components == other.components

    def __hash__(self) -> int:
        return self._hash

    @property
    def degree(self) -> Fraction:
        return Fraction(self.t + self.m, 2)

    def union(self, other: "CanonicalForm") -> "CanonicalForm":
        return CanonicalForm(tuple(sorted(self.components + other.components)))

    def diagram(self) -> JacobiDiagram:
        return diagram_of(self)


_set_components, _set_t, _set_m, _set_hash = (
    CanonicalForm.__dict__[name].__set__ for name in CanonicalForm.__slots__)


def diagram_of(*forms: CanonicalForm) -> JacobiDiagram:
    """A concrete representative of the union of ``forms``: each component
    of each form in turn takes the next trivalent vertices, in label
    order, and the next legs after all of them, in ascending order of the
    port 3 * label + slot at their trivalent ends.  ``_LEG_GROUPS`` and
    ``leg_automorphisms`` number legs by this rule."""
    edges: list[Edge] = []
    tv_off = 0
    t_total = sum(f.t for f in forms)
    leg_next = t_total
    for t_c, _, rows in (c for f in forms for c in f.components):
        if t_c == 0:  # strut
            edges.append(((leg_next, 0), (leg_next + 1, 0)))
            leg_next += 2
            continue
        for row in rows:
            for other, own in row:
                own_port = (tv_off + own // 3, own % 3)
                if other == LEG:
                    edges.append((own_port, (leg_next, 0)))
                    leg_next += 1
                else:
                    edges.append(((tv_off + other // 3, other % 3),
                                  own_port))
        tv_off += t_c
    return JacobiDiagram(t_total, leg_next - t_total, tuple(edges))


EMPTY_FORM = CanonicalForm(())


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


def _refine(cells: dict[int, list[int]],
            colour: dict[int, int] | list[int],
            nbrs: dict[int, list[int]] | list[list[int]],
            queue: list[int]) -> None:
    """Split an ordered partition of a multigraph's vertices, in place, to
    the coarsest equitable one finer than it: every vertex of a cell then
    has as many neighbours (edges counted with multiplicity) in each cell.

    ``cells`` maps the position of a cell in the ordered partition (the
    number of vertices before it) to its vertices; ``colour`` maps each
    vertex to the position of its cell, and ``nbrs`` to its neighbours
    (each a dict or a list indexed by vertex).  ``queue`` lists the
    positions of the splitter cells.  A splitter splits every cell by the
    number of neighbours its vertices have in it; the fragments take the
    cell's place in order of that number, and all but the first largest
    one join the queue (all, if the cell was queued).  Positions and
    counts are the only things read, so colours depend on the graph and
    the initial partition, never on the vertex numbering.
    """
    queued = set(queue)
    for w in queue:
        queued.discard(w)
        count: dict[int, int] = {}
        for x in cells[w]:
            for y in nbrs[x]:
                count[y] = count.get(y, 0) + 1
        for c in sorted({colour[y] for y in count}):
            if len(cells[c]) == 1:
                continue
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


def _equitable(key: dict[int, tuple],
               nbrs: dict[int, list[int]] | list[list[int]]
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


def _canon_component(shape: tuple[int, ...]
                     ) -> tuple[tuple | None, int, tuple]:
    """Minimal serialization of one connected component, read from its
    shape (see ``_SHAPE_CACHE``), with its sign and leg group.

    Candidate labelings start at a vertex of the smallest colour class,
    one per orbit of the automorphisms found, visit the rest in
    breadth-first order and return to the common ancestor of a tie; see
    the module docstring.  Returns (serial, sign, gens); sign 0 encodes
    the zero diagram, which has no leg group.  A labeling is a pair of
    lists indexed by vertex, its labels (-1 while unlabeled) and its slot
    permutations; it lists the leg edges, by their index in the shape, in
    the order of the new ports 3 * label + slot at their trivalent ends.
    Two labelings of one serial differ by an automorphism, which sends the
    i-th leg of the one's list to the i-th of the other's.  Each labeling
    that ties the first one at the serial best at that moment gives one,
    kept as a map from leg edge to leg edge even if a smaller serial
    overtakes, and together they generate the group.  ``gens`` lists the
    leg permutations they induce but the identity, a leg numbered by its
    place in the final first labeling's list, as ``diagram_of`` numbers
    the serial's legs: g sends leg i to leg g[i].
    """
    n_legs = shape.count(LEG)
    T = (len(shape) - n_legs) // 3
    if not T:
        # Only struts have no trivalent vertex (circles are unrepresentable).
        return _STRUT_SERIAL, 1, ((1, 0),)

    # adjacency by slot: None for a leg, else (neighbour, neighbour slot);
    # a leg edge lists its trivalent port first
    edges = list(zip(shape[::2], shape[1::2]))
    adj = [[None, None, None] for _ in range(T)]
    for p, q in edges:
        if p // 3 == q // 3:
            # A loop edge occupies two slots of one cyclic triple; swapping
            # them is an orientation-odd automorphism, so the diagram is 0.
            return None, 0, ()
        if q != LEG:
            adj[p // 3][p % 3] = divmod(q, 3)
            adj[q // 3][q % 3] = divmod(p, 3)

    nbrs = [[nb[0] for nb in adj[v] if nb is not None] for v in range(T)]
    # start colour: legs, parallel edges and triangles at each vertex
    key = {v: (adj[v].count(None), len(nbrs[v]) - len(set(nbrs[v])),
               sum(b in nbrs[a] for a, b in combinations(set(nbrs[v]), 2)))
           for v in range(T)}
    cells, colour_of = _equitable(key, nbrs)
    colour = [colour_of[v] for v in range(T)]
    starts = cells[min(cells, key=lambda c: (len(cells[c]), c))]

    legs = [(i, divmod(p, 3)) for i, (p, q) in enumerate(edges) if q == LEG]

    def leg_order(label: list[int], perm: list) -> tuple[int, ...]:
        return tuple(i for _, i in sorted(
            (3 * label[v] + perm[v][s], i) for i, (v, s) in legs))

    # ints throughout: a port is 3 * label + slot < 3T, an unlabeled
    # neighbour's slot key 3T + its colour, above every port; a row entry
    # (other, own) is other * 3T + own, a leg's other 3T (LEG in the serial)
    t3 = 3 * T
    best: list = [None]        # best complete serial
    best_signs: set[int] = set()
    first: list = []           # the first labeling at best, its leg order
    autos: list = []           # the automorphisms found, leg edge -> leg edge
    orbit = {v: v for v in starts}  # union-find of starts under those

    def find(v: int) -> int:
        while orbit[v] != v:
            orbit[v] = orbit[orbit[v]]
            v = orbit[v]
        return v

    def leaf(label: list[int], perm: list, order: list[int],
             sign: int) -> int:
        """A complete labeling at the best serial: record its sign and the
        automorphism from the first such labeling onto it, merge the start
        orbits that it joins, and return the depth to resume at."""
        best_signs.add(sign)
        if not first:
            first[:] = label[:], perm[:], leg_order(label, perm)
            return T
        label0, perm0, legs0 = first
        autos.append(dict(zip(legs0, leg_order(label, perm))))
        for v in starts:
            a, b = find(v), find(order[label0[v]])
            if a != b:
                orbit[a] = b
        if len(best_signs) == 2:
            return -1  # an orientation-odd automorphism: the zero diagram
        if label0[order[0]] != 0:
            return -1  # the whole start is the image of an explored one
        # the automorphism fixes the common prefix and maps the first
        # labeling's explored subtree onto the rest of this one
        return next(k for k, u in enumerate(order) if perm[u] != perm0[u])

    def search(u: int, entry: int | None, head: int, col: list[int],
               order: list[int], label: list[int], perm: list,
               rows: list, sign: int) -> int:
        """Give ``u`` label k = len(order), entered through slot ``entry``
        (None for the start), under each admissible slot permutation.
        Returns the depth of the frame to resume at: one above k unwinds."""
        k = len(order)
        k3 = 3 * k
        # slot keys: leg (-1) < port of a labeled neighbour < 3T + colour
        # of another
        keys = []
        for nb in adj[u]:
            if nb is None:
                keys.append(-1)
            else:
                x = nb[0]
                keys.append(3 * label[x] + perm[x][nb[1]] if label[x] >= 0
                            else t3 + col[x])
        for p, psign, slots in _ENTRY_PERMS[entry]:
            if keys[slots[1]] > keys[slots[2]] or (
                    entry is None and keys[slots[0]] > keys[slots[1]]):
                continue
            row = []
            for s in slots:
                key = keys[s]
                if key < t3:
                    row.append((t3 if key < 0 else key) * t3 + k3 + p[s])
            row.sort()
            row = tuple(row)
            if best[0] is not None:
                ref = best[0][k]
                if row > ref:
                    continue
                if row < ref:
                    best[0] = None  # strictly better prefix found
                    best_signs.clear()
                    first.clear()
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
                        if nb is not None and label[nb[0]] < 0:
                            nxt = nb
                            break
                    else:
                        h += 1
                back = search(nxt[0], nxt[1], h, col, order, label, perm,
                              rows, sign * psign)
            rows.pop()
            order.pop()
            label[u] = -1
            if back < k:
                return back
        return k

    explored: list[int] = []
    for v in starts:
        if any(find(v) == find(u) for u in explored):
            continue  # an automorphism maps an explored start onto v
        explored.append(v)
        col, split = list(colour), dict(cells)
        c = col[v]
        if len(split[c]) > 1:  # equitable before, so only {v} splits
            split[c], split[c + 1] = [v], [w for w in split[c] if w != v]
            for w in split[c + 1]:
                col[w] = c + 1
            _refine(split, col, nbrs, [c])
        search(v, None, 0, col, [], [-1] * T, [None] * T, [], 1)
        if len(best_signs) == 2:
            return None, 0, ()
    pos = {i: k for k, i in enumerate(first[2])}
    gens = {tuple(pos[a[i]] for i in first[2]) for a in autos}
    gens.discard(tuple(range(n_legs)))
    serial = tuple(tuple(_pair(LEG if x >= t3 * t3 else x // t3, x % t3)
                         for x in row) for row in best[0])
    return (T, n_legs, serial), next(iter(best_signs)), tuple(sorted(gens))


#: The one tuple of each row entry (other, own) that serials hold: other
#: is a port below 3 * MAX_VERTICES or LEG, own a port, so the map keeps
#: at most (3 * MAX_VERTICES + 1) * 3 * MAX_VERTICES pairs.
_PAIRS: dict[tuple[int, int], tuple[int, int]] = {}


def _pair(other: int, own: int) -> tuple[int, int]:
    pair = other, own
    return _PAIRS.setdefault(pair, pair)


#: (canonical form, sign) by ``_canon_key`` of a labeled diagram.
_CANON_CACHE: dict[bytes, tuple[CanonicalForm | None, int]] = {}

#: ``_canon_component`` results by component shape: {the ports of the
#: edges in order, port (rank, slot) of a trivalent vertex as the int
#: 3 * rank + slot and every leg as LEG: (serial, sign)}
_SHAPE_CACHE: dict[tuple, tuple] = {}

#: Leg group generators by nonzero serial, from the first shape searched
#: that reached it: every shape of one serial gives the same group.
_LEG_GROUPS: dict[tuple, tuple] = {}


def _search_shape(trivalent: list[int], edges: list[Edge], t_bound: int
                  ) -> tuple[tuple | None, int]:
    """(serial, sign) of a component, its trivalent vertices in ascending
    order, searched once per shape: components that differ only by a
    monotone renumbering of those vertices and by leg numbers share one.
    The first search to reach a nonzero serial fills its ``_LEG_GROUPS``."""
    rank = {v: r for r, v in enumerate(trivalent)}
    shape = tuple([3 * rank[v] + s if v < t_bound else LEG
                   for e in edges for v, s in e])
    hit = _SHAPE_CACHE.get(shape)
    if hit is None:
        serial, sign, gens = _canon_component(shape)
        hit = _SHAPE_CACHE[shape] = serial, sign
        if sign:
            _LEG_GROUPS.setdefault(serial, gens)
    return hit


def _canon_key(d: JacobiDiagram) -> bytes:
    """``t``, ``m`` and every port (v, s) of the sorted edges as the byte
    3 * v + s, below 3 * MAX_VERTICES: one labeled diagram per key, since
    s < 3 and ``t`` and ``m`` fix how many ports follow."""
    return bytes([d.t, d.m, *[3 * v + s for e in d.edges for v, s in e]])


def canonicalize(d: JacobiDiagram) -> tuple[CanonicalForm | None, int]:
    """(canonical form, sign): the form of ``d`` with the orientation
    sign accumulated on the way, or (None, 0) for a diagram equal to its
    own negative (an orientation-odd automorphism exists), the zero
    element under AS."""
    key = _canon_key(d)
    hit = _CANON_CACHE.get(key)
    if hit is not None:
        return hit
    comps = []
    sign = 1
    for tv, _, es in _components(d):
        serial, s = _search_shape(tv, es, d.t)
        sign *= s
        if not s:
            break
        comps.append(serial)
    out = _CANON_CACHE[key] = (
        CanonicalForm(tuple(sorted(comps))) if sign else None, sign)
    return out


def leg_automorphisms(*forms: CanonicalForm) -> tuple[tuple[int, ...], ...]:
    """Generators of the leg permutations that automorphisms of
    ``diagram_of(*forms)`` mapping each form to itself induce, g sending
    leg ``t + i`` to ``t + g[i]``: the leg group of each component's
    serial, shifted onto its legs, and a leg-for-leg swap of every two
    equal neighbouring components of one form, never of two forms.  Every
    automorphism of a nonzero diagram preserves the orientation."""
    ident = tuple(range(sum(f.m for f in forms)))
    gens = set()
    off = 0
    for form in forms:
        for k, comp in enumerate(form.components):
            n = comp[1]
            gens.update(ident[:off] + tuple(off + i for i in g)
                        + ident[off + n:] for g in _LEG_GROUPS[comp])
            if k and comp == form.components[k - 1]:
                gens.add(ident[:off - n] + ident[off:off + n]
                         + ident[off - n:off] + ident[off + n:])
            off += n
    gens.discard(ident)
    return tuple(sorted(gens))


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

class DiagramSeries:
    """Rational linear combination of canonical diagrams.

    Built from terms (form, x, y), each adding x * y to the coefficient
    of its form; every sum goes through ``qseries.sum_products``.
    ``of_diagrams`` builds one from (diagram, coefficient) pairs.  A
    series is not edited once built.  Truncation policy, stated once in
    ``fits`` and applied by the constructor alone: terms with more than
    ``imax`` trivalent vertices or more than ``2 * imax`` legs are
    dropped.
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

    @classmethod
    def of_diagrams(cls, imax: int,
                    pairs: Iterable[tuple[JacobiDiagram, Fraction | int]]
                    ) -> "DiagramSeries":
        """The series of the pairs (diagram, coefficient), each
        canonicalized in turn to (form, sign); a diagram that is zero
        under AS, sign 0, adds nothing."""
        def terms():
            for d, coeff in pairs:
                form, sign = canonicalize(d)
                if sign:
                    yield form, coeff, sign
        return cls(imax, terms())

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
        return [{"coeff": rational_str(c),
                 "diagram": f.diagram().to_json()}
                for f, c in sorted(self.terms.items(),
                                   key=lambda kv: kv[0].components)]

    @classmethod
    def from_json(cls, obj: list, imax: int) -> "DiagramSeries":
        """Read a list of {"coeff", "diagram"} entries; a top-level value
        that is not a list is malformed.  A missing field, and an entry,
        diagram or field that should be an object and is not, is named
        with its entry's index, and with "diagram" when it is the
        diagram's."""
        json_list(obj, "the top-level value")

        def pairs():
            for i, entry in enumerate(obj):
                json_object(entry, f"entry {i}")
                try:
                    diagram, coeff = entry["diagram"], entry["coeff"]
                except KeyError as exc:
                    raise StructuralError(
                        f"entry {i} has no field {exc.args[0]!r}") from exc
                try:
                    d = JacobiDiagram.from_json(diagram,
                                                f"entry {i}: diagram")
                except KeyError as exc:
                    raise StructuralError(f"entry {i}: diagram has no field "
                                          f"{exc.args[0]!r}") from exc
                yield d, json_rational(coeff, "coefficient")
        return cls.of_diagrams(imax, pairs())


def series_of(d: JacobiDiagram, imax: int, *,
              coeff: Fraction | int = 1) -> DiagramSeries:
    return DiagramSeries.of_diagrams(imax, [(d, coeff)])


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
