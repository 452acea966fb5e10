"""Lie-algebra weight systems: exact sparse tensor-network contraction
for open diagrams, the gl_N state sum for closed ones.

A closed diagram weighs a scalar.  For sl_n it is read off an integer
polynomial in N, computed once per connected component by the gl_N state
sum (``gl_polynomial``) and shared by every n; the contraction below
stays the weight of open diagrams, and the oracle the state sum is
tested against.

A diagram maps to a symmetric tensor: one copy of the structure tensor
per trivalent vertex (indices in the cyclic order), one copy of the
inverse Gram matrix of the invariant form per edge, contracted over all
internal ports.  No orthonormal basis is ever constructed; every pair
contraction goes through the inverse Gram matrix, so all values stay
rational.

One routine, ``_contract_pair``, does every contraction: the trace form
and the structure tensor of sl_n (traces of products of basis
matrices), the greedy schedule of a diagram, the product of its
disconnected parts (no shared port), and the Jacobi check of the
structure data (f·ginv·f).

A weight tensor with series coefficients (``hat_weight``,
``exp_tensor``) is a plain map {sorted basis-index key: HSeries}; the
Gaussian (Wick) operator pairs its free slots with the lowered form,
weighting each matched pair by -h/f.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

# ``canonicalize`` is not called here; it stays bound because
# perfbench/test_perfbench.py checks that the tracer wraps this binding
from .diagrams import (  # noqa: F401
    CanonicalForm, DiagramSeries, JacobiDiagram, canonicalize)
from .balg import theta
from .qseries import ZERO, FrozenRecord, HSeries, sum_products

Matrix = tuple[tuple[Fraction, ...], ...]


class LieDataError(ValueError):
    pass


def _mat_inv(a: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination over the rationals."""
    n = len(a)
    work = [list(row) + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col] != 0), None)
        if piv is None:
            raise LieDataError("singular Gram matrix")
        work[col], work[piv] = work[piv], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


class LieAlgebraData(FrozenRecord):
    """Structure constants and bilinear-form data of a Lie algebra, all
    exact rationals, normalized so every root has squared length 2."""

    __slots__ = ("label", "dim", "rank", "gram", "gram_inv", "f_low",
                 "cartan_idx", "sl_n")

    def __init__(self, label: str, dim: int, rank: int,
                 gram: Matrix,                 # b(x_a, x_b)
                 gram_inv: Matrix,
                 f_low: dict,                  # (a, b, c): b([x_a, x_b], x_c)
                 cartan_idx: tuple[int, ...],  # basis positions of H_1..H_rank
                 sl_n: int | None):            # n if sl_n, else None
        self._set_fields(label, dim, rank, gram, gram_inv, f_low, cartan_idx,
                         sl_n)

    def cartan_vector(self, root_coords) -> tuple[Fraction, ...]:
        """Coordinates in g of the element representing a weight given in
        simple-root coordinates."""
        if len(root_coords) != self.rank:
            raise LieDataError("wrong weight-vector length")
        vec = [Fraction(0)] * self.dim
        for k, c in enumerate(root_coords):
            vec[self.cartan_idx[k]] = Fraction(c)
        return tuple(vec)


def _check_jacobi(gram_inv: Matrix, f_low: dict) -> None:
    """Raise LieDataError unless, for every (a, b, c, d),
    ff(a,b,c,d) = sum_{e,e'} f(a,b,e) ginv(e,e') f(e',c,d) summed
    cyclically over (a, b, c) is 0: that is b([[x_a,x_b],x_c] + cyclic,
    x_d).  The form is nondegenerate, so lowering with x_d is injective;
    the brackets are trace-free, so they stay in the span of the basis.
    A nonzero cyclic sum has a nonzero term, so the keys of ff are the
    only places to look."""
    fg = _contract_pair((("a", "b", "e"), f_low),
                        (("e", "e'"), _form_tensor(gram_inv)))
    _, ff = _contract_pair(fg, (("e'", "c", "d"), f_low))
    for a, b, c, d in ff:
        if ff[a, b, c, d] + ff.get((b, c, a, d), 0) + ff.get((c, a, b, d), 0):
            raise LieDataError("Jacobi identity fails")


@lru_cache(maxsize=3)
def build_sl(n: int) -> LieAlgebraData:
    """sl_n with the defining-representation trace form, 2 <= n <= 4.

    Only the basis is listed, as sparse matrices {(row, col): entry};
    the Gram matrix and the structure tensor are traces of products,
    contracted by ``_contract_pair``.  ``sl_n`` records n, at which
    closed diagrams weigh their gl_N polynomials."""
    if not 2 <= n <= 4:
        raise LieDataError("only sl_2..sl_4 are built in at desk scale")

    basis: list[dict] = []
    for k in range(n - 1):
        basis.append({(k, k): Fraction(1), (k + 1, k + 1): Fraction(-1)})
    offs = [(i, j) for i in range(n) for j in range(n) if i != j]
    basis.extend({(i, j): Fraction(1)} for i, j in offs)
    dim = len(basis)

    # B(a, i, j) = (x_a)_ij; traces of products are contractions of B
    B = {(a, i, j): v for a, x in enumerate(basis) for (i, j), v in x.items()}
    _, tr2 = _contract_pair((("a", "i", "j"), B), (("b", "j", "i"), B))
    gram = tuple(tuple(tr2.get((a, b), Fraction(0)) for b in range(dim))
                 for a in range(dim))
    gram_inv = _mat_inv(gram)

    # f_low(a, b, c) = tr(x_a x_b x_c) - tr(x_b x_a x_c)
    ab = _contract_pair((("a", "i", "j"), B), (("b", "j", "k"), B))
    _, tr3 = _contract_pair(ab, (("c", "k", "i"), B))
    f_low: dict[tuple[int, int, int], Fraction] = {}
    for a, b, c in sorted(tr3.keys() | {(b, a, c) for a, b, c in tr3}):
        v = tr3.get((a, b, c), 0) - tr3.get((b, a, c), 0)
        if v:
            f_low[(a, b, c)] = v

    # structure-tensor sanity: total antisymmetry (which, given the
    # antisymmetry of the bracket, encodes invariance of the form) ...
    for (a, b, c), v in f_low.items():
        if f_low.get((b, a, c), Fraction(0)) != -v \
                or f_low.get((a, c, b), Fraction(0)) != -v:
            raise LieDataError("structure tensor is not totally antisymmetric")
    # ... and the Jacobi identity, checked on the structure tensor.
    _check_jacobi(gram_inv, f_low)

    g = LieAlgebraData(
        label=f"sl{n}", dim=dim, rank=n - 1, gram=gram, gram_inv=gram_inv,
        f_low=f_low, cartan_idx=tuple(range(n - 1)), sl_n=n)
    # closed weights come from the gl_n state sum, open ones from this
    # data: the two must agree on theta, the normalization of the form
    if contract_diagram(theta(), g) != {
            (): Fraction(_evaluate(gl_polynomial(theta()), n))}:
        raise LieDataError("state sum and structure tensor disagree")
    return g


# ---------------------------------------------------------------------------
# tensor-network contraction
# ---------------------------------------------------------------------------

def _form_tensor(gram_inv) -> dict[tuple[int, int], Fraction]:
    """The inverse Gram matrix as a sparse two-index tensor."""
    return {(a, b): v for a, row in enumerate(gram_inv)
            for b, v in enumerate(row) if v}


def _contract_pair(t1: tuple, t2: tuple) -> tuple:
    """Sum two tensors over the ports they share (the tensor product if
    none).  A tensor is a pair (ports, data), ``data`` mapping index
    tuples, one index per port, to nonzero rationals; kept ports are
    those of ``t1``, then those of ``t2``."""
    ports1, data1 = t1
    ports2, data2 = t2
    shared = [p for p in ports1 if p in ports2]
    keep1 = [i for i, p in enumerate(ports1) if p not in shared]
    keep2 = [i for i, p in enumerate(ports2) if p not in shared]
    pos1 = [ports1.index(p) for p in shared]
    pos2 = [ports2.index(p) for p in shared]
    grouped: dict[tuple, list] = {}
    for k2, v2 in data2.items():
        grouped.setdefault(tuple(k2[i] for i in pos2), []).append(
            (tuple(k2[i] for i in keep2), v2))

    def products():
        for k1, v1 in data1.items():
            base = tuple(k1[i] for i in keep1)
            for rest, v2 in grouped.get(tuple(k1[i] for i in pos1), ()):
                yield base + rest, v1, v2
    ports = tuple(ports1[i] for i in keep1) + tuple(ports2[i] for i in keep2)
    return ports, sum_products(products())


def contract_diagram(d: JacobiDiagram, g: LieAlgebraData
                     ) -> dict[tuple[int, ...], Fraction]:
    """Contract the tensor network of one diagram.

    Returns the symmetric tensor over the legs as a map from sorted
    basis-index tuples to rational coefficients (the empty tuple holds
    the scalar value of a closed diagram).  Each step contracts, among
    the pairs that share a port, the one whose result keeps the fewest
    ports, so that intermediates stay narrow; ties go to the smallest
    product of entry counts, then to the first pair in index order.
    Once no port is shared, the first two tensors (disconnected parts)
    are multiplied.  Exact arithmetic makes the result
    schedule-independent.
    """
    ginv = _form_tensor(g.gram_inv)
    tensors = [(((v, 0), (v, 1), (v, 2)), g.f_low) for v in range(d.t)]
    tensors += [((p, q), ginv) for p, q in d.edges]
    while len(tensors) > 1:
        # a port is held by at most two tensors: one scan counts the ports
        # each linked pair shares
        holder: dict = {}
        shared: dict = {}
        for j, (ports, _) in enumerate(tensors):
            for p in ports:
                i = holder.setdefault(p, j)
                if i != j:
                    shared[i, j] = shared.get((i, j), 0) + 1
        if not shared:
            i, j = 0, 1
        else:
            i, j = min(sorted(shared), key=lambda ij: (
                len(tensors[ij[0]][0]) + len(tensors[ij[1]][0])
                - 2 * shared[ij],
                len(tensors[ij[0]][1]) * len(tensors[ij[1]][1])))
        tensors[i] = _contract_pair(tensors[i], tensors[j])
        tensors[j] = tensors[-1]
        tensors.pop()

    data = tensors[0][1] if tensors else {(): Fraction(1)}
    # erase leg identity
    return sum_products((tuple(sorted(key)), val, 1)
                        for key, val in data.items())


def brute_force_contract(d: JacobiDiagram, g: LieAlgebraData
                         ) -> dict[tuple[int, ...], Fraction]:
    """Independent oracle: sum a structure-tensor entry per trivalent
    vertex and an inverse-Gram factor per edge over every assignment of
    basis indices to ports.  Vertex indices run over the support of the
    structure tensor (terms off it vanish identically); an assignment
    with a zero edge factor is skipped before any product is taken.
    Still exponential, so only for small diagrams."""
    f_support = sorted(g.f_low.items())
    leg_ports = [(v, 0) for v in d.legs()]
    out: dict[tuple[int, ...], Fraction] = {}
    idx: dict[tuple[int, int], int] = {}
    for choice in itertools.product(f_support, repeat=d.t):
        for v, ((a, b, c), _) in enumerate(choice):
            idx[(v, 0)], idx[(v, 1)], idx[(v, 2)] = a, b, c
        for legs in itertools.product(range(g.dim), repeat=d.m):
            for port, a in zip(leg_ports, legs):
                idx[port] = a
            edge = [g.gram_inv[idx[p]][idx[q]] for p, q in d.edges]
            if not all(edge):
                continue
            val = prod(x for _, x in choice) * prod(edge)
            key = tuple(sorted(idx[p] for p in leg_ports))
            acc = out.get(key, Fraction(0)) + val
            if acc:
                out[key] = acc
            else:
                del out[key]
    return out


# ---------------------------------------------------------------------------
# closed diagrams: the gl_N state sum
# ---------------------------------------------------------------------------

def gl_polynomial(d: JacobiDiagram) -> dict[int, int]:
    """The gl_N weight of a closed diagram as {exponent of N: coefficient}.

    With the trace form and the dual bases E_ij, E_ji, a vertex with
    slots (a, b, c) weighs tr(abc) - tr(acb): the ribbon vertex of its
    cyclic order minus that of the reversed one.  A state s in {+1, -1}^t
    picks one of the two at every vertex and weighs sign(s) N^c, c the
    number of boundary cycles of the ribbon surface: the cycles of
    port -> sigma_s(alpha(port)), alpha the edge involution and sigma_s
    the slot rotation, forward at + vertices and backward at - ones.
    Flipping every vertex gives the mirror surface, with the same cycles
    and, t being even, the same sign; so vertex 0 stays at + and the sum
    is doubled.  The states are a depth-first search over the vertices:
    choosing a vertex's state sets the images of the three ports glued to
    its slots, joining open paths of the permutation or closing cycles.
    The u(1) part of gl_N is central, so this is the sl_N weight.
    """
    if d.m:
        raise LieDataError("the state sum weighs closed diagrams only")
    t = d.t
    if t == 0:
        return {0: 1}
    alpha = [0] * (3 * t)
    for (pv, ps), (qv, qs) in d.edges:
        alpha[3 * pv + ps], alpha[3 * qv + qs] = 3 * qv + qs, 3 * pv + ps
    start = list(range(3 * t))  # first port of the open path ending here
    end = list(range(3 * t))    # last port of the open path starting here
    coeffs: dict[int, int] = {}

    def visit(v: int, sign: int, cycles: int) -> None:
        if v == t:
            coeffs[cycles] = coeffs.get(cycles, 0) + 2 * sign
            return
        for turn in ((1, 2) if v else (1,)):
            undo = []
            closed = cycles
            for i in range(3):
                p, q = alpha[3 * v + i], 3 * v + (i + turn) % 3
                a, b = start[p], end[q]
                if a == q:
                    closed += 1
                else:
                    undo.append((a, end[a], b, start[b]))
                    end[a], start[b] = b, a
            visit(v + 1, sign if turn == 1 else -sign, closed)
            for a, ea, b, sb in reversed(undo):
                end[a], start[b] = ea, sb

    visit(0, 1, 0)
    return {k: c for k, c in sorted(coeffs.items()) if c}


_GL_POLYNOMIALS: dict[tuple, dict[int, int]] = {}


def closed_weight(form: CanonicalForm, n: int) -> int:
    """The sl_n weight of a closed canonical form: the product over its
    connected components of their gl_N polynomials at N = n, each
    computed once per component serial, whatever the algebra."""
    out = 1
    for comp in form.components:
        poly = _GL_POLYNOMIALS.get(comp)
        if poly is None:
            poly = gl_polynomial(CanonicalForm((comp,)).diagram())
            _GL_POLYNOMIALS[comp] = poly
        out *= _evaluate(poly, n)
    return out


def _evaluate(poly: dict[int, int], n: int) -> int:
    return sum(c * n ** k for k, c in poly.items())


_WEIGHT_CACHE: dict[tuple[str, CanonicalForm], dict] = {}


def _cached_weight(form: CanonicalForm, g: LieAlgebraData) -> dict:
    """Weight tensor of a form: for sl_n a closed form weighs its state
    sum, anything else is contracted."""
    key = (g.label, form)
    hit = _WEIGHT_CACHE.get(key)
    if hit is None:
        if form.m == 0 and g.sl_n is not None:
            w = closed_weight(form, g.sl_n)
            hit = {(): Fraction(w)} if w else {}
        else:
            hit = contract_diagram(form.diagram(), g)
        _WEIGHT_CACHE[key] = hit
    return hit


# ---------------------------------------------------------------------------
# weight tensors with series coefficients: {sorted basis-index key:
# HSeries}, nonzero series only; the empty key is the scalar part
# ---------------------------------------------------------------------------

def series_tensor(terms, cap: int) -> dict:
    """The weight tensor {key: HSeries} of the terms ((key, exponent), x,
    y), each adding x * y to the coefficient of h^exponent in the series
    of its key, known through h^cap."""
    by_key: dict[tuple[int, ...], dict[int, Fraction]] = {}
    for (key, e), c in sum_products(terms).items():
        by_key.setdefault(key, {})[e] = c
    return {key: HSeries(coeffs, cap) for key, coeffs in by_key.items()}


def hat_weight(s: DiagramSeries, g: LieAlgebraData, cap: int) -> dict:
    """Graded weight: each term is weighted by h raised to its degree."""
    def products():
        for form, coeff in s.terms.items():
            deg = form.degree
            if deg.denominator != 1:
                raise LieDataError("half-integer degree cannot occur")
            for key, val in _cached_weight(form, g).items():
                yield (key, int(deg)), coeff, val
    return series_tensor(products(), cap)


def wick(T: dict, g: LieAlgebraData, f, cap: int) -> HSeries:
    """Gaussian contraction of a weight tensor known up to h^cap: sum
    over perfect matchings of the slots of each term, each matched pair
    weighing -h/f times the lowered-form pairing; odd-slot terms vanish,
    the scalar part passes through."""
    f = Fraction(f)
    if f == 0:
        raise LieDataError("Gaussian operator needs nonzero framing")
    memo: dict[tuple, Fraction] = {(): Fraction(1)}

    def haf(key: tuple) -> Fraction:
        hit = memo.get(key)
        if hit is None:
            row, rest = g.gram[key[0]], key[1:]
            hit = memo[key] = sum_products(
                (None, row[b], haf(rest[:i] + rest[i + 1:]))
                for i, b in enumerate(rest) if row[b]).get(None, ZERO)
        return hit

    # an even term of 2k slots adds series * haf * (-1/f)^k * h^k
    parts = []
    for key, series in T.items():
        if len(key) % 2 == 0:
            k = len(key) // 2
            weight = haf(key) * (-1 / f) ** k
            if weight:
                parts.append((series, k, weight))
    cap = min([cap] + [series.cap + k for series, k, _ in parts])
    return HSeries(sum_products((e + k, c, weight)
                                for series, k, weight in parts
                                for e, c in series.coeffs.items()
                                if e + k <= cap), cap)


def gaussian_eval(s: DiagramSeries, g: LieAlgebraData, f, cap: int) -> HSeries:
    """Tensor-route Gaussian integral of a strut-free series: graded
    weight, every m-slot term divided by h^m, then the Wick operator.

    Under the graded weight a glued strut carries one power of h while
    consuming two legs; dividing out the legs of the open tensor restores
    the balance, so the Gaussian operator on the rescaled graded tensor
    matches the graded weight of the diagram-level Gaussian integral.
    Tensor coefficients are exact, so the graded weight is taken to a
    cap padded by the most legs, which the shifts then use up.
    """
    mmax = max((form.m for form in s.terms), default=0)
    T = hat_weight(s, g, cap + mmax)
    return wick({key: series.shift(-len(key)) for key, series in T.items()},
                g, f, cap)


def exp_tensor(vec, cap: int) -> dict:
    """exp of the element with basis coordinates ``vec`` as a symmetric
    tensor, to 2*cap slots: a term of 2k slots weighs h^k under
    ``wick``, so larger ones lie beyond cap.

    On sorted multisets the coefficient of a key with multiplicities
    (k_1..k_r) is prod(v_i^{k_i}/k_i!); each factor v_i^k/k! is built
    once per support index and k, and looked up for every key.
    """
    support = [a for a, c in enumerate(vec) if c != 0]
    powers = {a: [Fraction(vec[a]) ** k / factorial(k)
                  for k in range(2 * cap + 1)] for a in support}
    terms = {(): HSeries.one(cap)}
    for msize in range(1, 2 * cap + 1):
        for combo in itertools.combinations_with_replacement(support, msize):
            coeff = Fraction(1)
            for a in set(combo):
                coeff *= powers[a][combo.count(a)]
            terms[combo] = HSeries({0: coeff}, cap)
    return terms
