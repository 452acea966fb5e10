"""Reference canonicalization: the exhaustive search over every labeling.

It tries every start vertex, then every frontier vertex at each step, each
with all six slot permutations, and keeps the minimal row serial.  It is
slow but plainly correct, so the property tests compare
``diagrams.canonicalize`` against it.  Its serials are not those of
``diagrams.canonicalize``: only zero-ness, the partition into classes and
relative signs are comparable.  Its minimal labelings are every
automorphism of a component, so the tests also measure against them
(``leg_maps`` of ``form.diagram()``) the leg group that
``diagrams.leg_automorphisms`` reads off a canonical form, and the one
that the search of each shape of a serial finds.  ``refine``,
whole-graph rounds of colour refinement, is the partition oracle for the
splitter-queue refinement of ``diagrams._refine``.
"""

from __future__ import annotations

import itertools

from lmo_kernel.diagrams import (
    LEG,
    SLOT_PERMS,
    _STRUT_SERIAL,
    CanonicalForm,
    Edge,
    JacobiDiagram,
    _components,
)


def refine(colour: dict[int, int],
           nbrs: dict[int, list[int]]) -> dict[int, int]:
    """Colour refinement (1-WL) of a multigraph to its stable partition.

    A new colour is the rank of (old colour, sorted neighbour colours), so
    colours depend on the graph and the initial colouring alone, never on
    the vertex numbering.
    """
    n_classes = len(set(colour.values()))
    while True:
        sig = {v: (c, tuple(sorted(colour[w] for w in nbrs[v])))
               for v, c in colour.items()}
        rank = {g: i for i, g in enumerate(sorted(set(sig.values())))}
        colour = {v: rank[g] for v, g in sig.items()}
        if len(rank) == n_classes:
            return colour
        n_classes = len(rank)


def _canon_component(trivalent: list[int], edges: list[Edge],
                     t_bound: int, ties: list | None = None
                     ) -> tuple[tuple | None, int]:
    """Minimal serialization of one connected component, with its sign.

    Returns (serial, sign); sign 0 encodes the zero diagram.  A ``ties``
    list receives every labeling that reaches the minimal serial, as
    (vertex -> label, vertex -> slot permutation) pairs.
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

    T = len(trivalent)
    best: list = [None]        # best complete serial
    best_signs: set[int] = set()

    def search(placed: list[int], label: dict[int, int],
               perm: dict[int, tuple[int, int, int]],
               rows: list, sign: int) -> None:
        k = len(placed)
        if k == T:
            serial = tuple(rows)
            if best[0] is None:
                best[0] = serial
                best_signs.clear()
                best_signs.add(sign)
            else:  # comparisons en route guarantee serial == best[0]
                best_signs.add(sign)
            if ties is not None:
                ties.append((dict(label), dict(perm)))
            return
        if k == 0:
            candidates = trivalent
        else:
            candidates = sorted({u for v in placed
                                 for slot in adj[v] if slot != ("L",)
                                 for u in (slot[0],) if u not in label})
        for u in candidates:
            for p, psign in SLOT_PERMS:
                row = []
                for s in (0, 1, 2):
                    nb = adj[u][s]
                    if nb == ("L",):
                        row.append((LEG, 3 * k + p[s]))
                    else:
                        w, ws = nb
                        if w == u:
                            continue  # unreachable: loops handled above
                        if w in label:
                            row.append((3 * label[w] + perm[w][ws],
                                        3 * k + p[s]))
                row = tuple(sorted(row))
                if best[0] is not None:
                    ref = best[0][k]
                    if row > ref:
                        continue
                    if row < ref:
                        best[0] = None  # strictly better prefix found
                        best_signs.clear()
                        if ties is not None:
                            ties.clear()
                label[u] = k
                perm[u] = p
                placed.append(u)
                rows.append(row)
                search(placed, label, perm, rows, sign * psign)
                rows.pop()
                placed.pop()
                del label[u], perm[u]

    search([], {}, {}, [], 1)
    serial = best[0]
    if best_signs == {1, -1}:
        return None, 0
    return (T, n_legs, serial), next(iter(best_signs))


def canonicalize(d: JacobiDiagram) -> tuple[CanonicalForm | None, int]:
    """Uncached exhaustive counterpart of ``diagrams.canonicalize``:
    (form, sign), or (None, 0) for a diagram that AS makes zero."""
    comps = []
    sign = 1
    for tv, _, es in _components(d):
        serial, s = _canon_component(sorted(tv), es, d.t)
        if s == 0:
            return None, 0
        sign *= s
        comps.append(serial)
    return CanonicalForm(tuple(sorted(comps))), sign


def leg_group(gens, m: int) -> set[tuple[int, ...]]:
    """The permutation group on range(m) the generators span."""
    ident = tuple(range(m))
    seen, stack = {ident}, [ident]
    while stack:
        g = stack.pop()
        for s in gens:
            h = tuple(s[i] for i in g)
            if h not in seen:
                seen.add(h)
                stack.append(h)
    return seen


def leg_maps(d: JacobiDiagram) -> list[tuple[int, ...]]:
    """Every leg permutation that one automorphism of a component of
    ``d`` induces (from the exhaustive search's minimal labelings), one
    swap per pair of isomorphic components, and every flip and swap of
    struts.  Together they span the leg group of ``d``."""
    leg_at = {p: q[0] - d.t for p, q in d.edges if p[0] < d.t <= q[0]}

    def leg_map(a, b) -> dict[int, int]:
        vertex_b = {k: v for v, k in b[0].items()}
        out = {}
        for (u, s), leg in leg_at.items():
            if u in a[0]:
                v = vertex_b[a[0][u]]
                out[leg] = leg_at[(v, b[1][v].index(a[1][u][s]))]
        return out

    maps, labelings, struts = [], [], []
    for tv, n_legs, es in _components(d):
        if not tv:
            (a, _), (b, _) = es[0]
            struts.append((a - d.t, b - d.t))
        elif n_legs:
            ties: list = []
            serial, _ = _canon_component(sorted(tv), es, d.t, ties)
            maps += [leg_map(ties[0], t) for t in ties]
            labelings.append((serial, ties[0]))
    for (s1, a), (s2, b) in itertools.combinations(labelings, 2):
        if s1 == s2:
            maps.append({**leg_map(a, b), **leg_map(b, a)})
    maps += [{a: b, b: a} for a, b in struts]
    maps += [{a: c, c: a, b: e, e: b}
             for (a, b), (c, e) in itertools.combinations(struts, 2)]
    return [tuple(g.get(i, i) for i in range(d.m)) for g in maps]
