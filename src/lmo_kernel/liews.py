"""Lie-algebra weight systems as exact sparse tensor-network contraction.

A diagram maps to a symmetric tensor: one copy of the structure tensor
per trivalent vertex (indices in the cyclic order), one copy of the
inverse Gram matrix of the invariant form per edge, contracted over all
internal ports.  No orthonormal basis is ever constructed; every pair
contraction goes through the inverse Gram matrix, so all values stay
rational.

The Gaussian (Wick) operator pairs free slots with the lowered form,
weighting each matched pair by -h/f.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

# ``canonicalize`` is not called here; it stays bound because
# perfbench/test_perfbench.py checks that the tracer wraps this binding
from .diagrams import (  # noqa: F401
    CanonicalForm, DiagramSeries, JacobiDiagram, canonicalize)
from .qseries import HSeries

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


@dataclass(frozen=True)
class LieAlgebraData:
    """Structure constants and bilinear-form data of a Lie algebra, all
    exact rationals, normalized so every root has squared length 2."""

    label: str
    dim: int
    rank: int
    gram: Matrix                      # b(x_a, x_b)
    gram_inv: Matrix
    f_low: dict                       # (a, b, c) -> b([x_a, x_b], x_c)
    cartan_idx: tuple[int, ...]       # basis positions of H_1..H_rank

    def cartan_vector(self, root_coords) -> tuple[Fraction, ...]:
        """Coordinates in g of the element representing a weight given in
        simple-root coordinates."""
        if len(root_coords) != self.rank:
            raise LieDataError("wrong weight-vector length")
        vec = [Fraction(0)] * self.dim
        for k, c in enumerate(root_coords):
            vec[self.cartan_idx[k]] = Fraction(c)
        return tuple(vec)


def _sp_mul(x: dict, y: dict) -> dict:
    """Product of two sparse matrices {(row, col): entry}."""
    out: dict[tuple[int, int], Fraction] = {}
    for (i, k), v in x.items():
        for (l, j), w in y.items():
            if k == l:
                out[(i, j)] = out.get((i, j), 0) + v * w
    return out


def _sp_trace_mul(x: dict, y: dict) -> Fraction:
    """tr(xy) of two sparse matrices."""
    return sum((v * y.get((k, i), 0) for (i, k), v in x.items()), Fraction(0))


def _check_jacobi(dim: int, gram_inv: Matrix, f_low: dict) -> None:
    """Raise LieDataError unless, for every (a, b, c, d),
    sum_{e,e'} f(a,b,e) ginv(e,e') f(e',c,d) summed cyclically over
    (a, b, c) is 0: that is b([[x_a,x_b],x_c] + cyclic, x_d).
    The form is nondegenerate, so lowering with x_d is injective; the
    brackets are trace-free, so they stay in the span of the basis."""
    by_pair: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (a, b, c), v in f_low.items():
        by_pair.setdefault((a, b), {})[c] = v
    # raised bracket [x_a, x_b] = sum_e br[a, b][e] x_e
    br = {ab: {e: s for e in range(dim)
               if (s := sum(v * gram_inv[c][e] for c, v in row.items()))}
          for ab, row in by_pair.items()}
    for a, b, c in itertools.product(range(dim), repeat=3):
        total: dict[int, Fraction] = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for e, w in br.get((x, y), {}).items():
                for d, v in by_pair.get((e, z), {}).items():
                    total[d] = total.get(d, 0) + w * v
        if any(total.values()):
            raise LieDataError("Jacobi identity fails")


@lru_cache(maxsize=None)
def build_sl(n: int) -> LieAlgebraData:
    """sl_n with the defining-representation trace form, 2 <= n <= 4.

    Basis elements are sparse matrices {(row, col): entry}."""
    if not 2 <= n <= 4:
        raise LieDataError("only sl_2..sl_4 are built in at desk scale")

    basis: list[dict] = []
    for k in range(n - 1):
        basis.append({(k, k): Fraction(1), (k + 1, k + 1): Fraction(-1)})
    offs = [(i, j) for i in range(n) for j in range(n) if i != j]
    basis.extend({(i, j): Fraction(1)} for i, j in offs)
    dim = len(basis)

    gram = tuple(tuple(_sp_trace_mul(x, y) for y in basis) for x in basis)
    gram_inv = _mat_inv(gram)

    f_low: dict[tuple[int, int, int], Fraction] = {}
    for a in range(dim):
        for b in range(dim):
            if a == b:
                continue
            xy = _sp_mul(basis[a], basis[b])
            yx = _sp_mul(basis[b], basis[a])
            for c in range(dim):
                v = _sp_trace_mul(xy, basis[c]) - _sp_trace_mul(yx, basis[c])
                if v != 0:
                    f_low[(a, b, c)] = v

    # structure-tensor sanity: total antisymmetry (which, given the
    # antisymmetry of the bracket, encodes invariance of the form) ...
    for (a, b, c), v in f_low.items():
        if f_low.get((b, a, c), Fraction(0)) != -v \
                or f_low.get((a, c, b), Fraction(0)) != -v:
            raise LieDataError("structure tensor is not totally antisymmetric")
    # ... and the Jacobi identity, checked on the structure tensor.
    _check_jacobi(dim, gram_inv, f_low)

    return LieAlgebraData(
        label=f"sl{n}", dim=dim, rank=n - 1, gram=gram, gram_inv=gram_inv,
        f_low=f_low, cartan_idx=tuple(range(n - 1)))


# ---------------------------------------------------------------------------
# tensor-network contraction
# ---------------------------------------------------------------------------

class _Tensor:
    __slots__ = ("ports", "data")

    def __init__(self, ports: tuple, data: dict):
        self.ports = ports
        self.data = data


def _contract_pair(t1: _Tensor, t2: _Tensor) -> _Tensor:
    shared = tuple(p for p in t1.ports if p in t2.ports)
    keep1 = tuple(i for i, p in enumerate(t1.ports) if p not in shared)
    keep2 = tuple(i for i, p in enumerate(t2.ports) if p not in shared)
    pos1 = tuple(t1.ports.index(p) for p in shared)
    pos2 = tuple(t2.ports.index(p) for p in shared)
    grouped: dict[tuple, list] = {}
    for k2, v2 in t2.data.items():
        grouped.setdefault(tuple(k2[i] for i in pos2), []).append(
            (tuple(k2[i] for i in keep2), v2))
    out: dict[tuple, Fraction] = {}
    for k1, v1 in t1.data.items():
        sub = grouped.get(tuple(k1[i] for i in pos1))
        if not sub:
            continue
        base = tuple(k1[i] for i in keep1)
        for rest, v2 in sub:
            key = base + rest
            acc = out.get(key, Fraction(0)) + v1 * v2
            if acc:
                out[key] = acc
            else:
                del out[key]
    ports = tuple(t1.ports[i] for i in keep1) + tuple(t2.ports[i] for i in keep2)
    return _Tensor(ports, out)


def contract_diagram(d: JacobiDiagram, g: LieAlgebraData,
                     rng: random.Random | None = None
                     ) -> dict[tuple[int, ...], Fraction]:
    """Contract the tensor network of one diagram.

    Returns the symmetric tensor over the legs as a map from sorted
    basis-index tuples to rational coefficients (the empty tuple holds
    the scalar value of a closed diagram).  The contraction schedule is
    greedy smallest-product-first unless ``rng`` injects a random one;
    exact arithmetic makes the result schedule-independent.
    """
    tensors: list[_Tensor] = []
    for v in range(d.t):
        tensors.append(_Tensor(((v, 0), (v, 1), (v, 2)), dict(g.f_low)))
    leg_ports = []
    for p, q in d.edges:
        data = {(a, b): g.gram_inv[a][b] for a in range(g.dim)
                for b in range(g.dim) if g.gram_inv[a][b] != 0}
        tensors.append(_Tensor((p, q), data))
        for v, s in (p, q):
            if v >= d.t:
                leg_ports.append((v, s))

    def contractible() -> list[tuple[int, int]]:
        pairs = []
        for i in range(len(tensors)):
            for j in range(i + 1, len(tensors)):
                if any(p in tensors[j].ports for p in tensors[i].ports):
                    pairs.append((i, j))
        return pairs

    while True:
        pairs = contractible()
        if not pairs:
            break
        if rng is None:
            i, j = min(pairs, key=lambda ij: len(tensors[ij[0]].data)
                       * len(tensors[ij[1]].data))
        else:
            i, j = rng.choice(pairs)
        t = _contract_pair(tensors[i], tensors[j])
        tensors[j], tensors[-1] = tensors[-1], tensors[j]
        tensors.pop()
        tensors[i] = t

    # tensor-product the disconnected remainders, then erase leg identity
    result: dict[tuple, Fraction] = {(): Fraction(1)}
    ports: tuple = ()
    for t in tensors:
        nxt: dict[tuple, Fraction] = {}
        for k1, v1 in result.items():
            for k2, v2 in t.data.items():
                nxt[k1 + k2] = v1 * v2
        result = nxt
        ports = ports + t.ports
        if not result:
            break
    out: dict[tuple[int, ...], Fraction] = {}
    for key, val in result.items():
        skey = tuple(sorted(key))
        acc = out.get(skey, Fraction(0)) + val
        if acc:
            out[skey] = acc
        else:
            del out[skey]
    return out


def brute_force_contract(d: JacobiDiagram, g: LieAlgebraData
                         ) -> dict[tuple[int, ...], Fraction]:
    """Independent oracle: sum a structure-tensor entry per trivalent
    vertex and an inverse-Gram factor per edge over every assignment of
    basis indices to ports.  Vertex indices run over the support of the
    structure tensor (terms off it vanish identically); still
    exponential, so only for small diagrams."""
    f_support = sorted(g.f_low.items())
    leg_ports = [(v, 0) for v in d.legs()]
    out: dict[tuple[int, ...], Fraction] = {}
    for choice in itertools.product(f_support, repeat=d.t):
        idx: dict[tuple[int, int], int] = {}
        base = Fraction(1)
        for v, ((a, b, c), val) in enumerate(choice):
            idx[(v, 0)], idx[(v, 1)], idx[(v, 2)] = a, b, c
            base *= val
        for legs in itertools.product(range(g.dim), repeat=d.m):
            for port, a in zip(leg_ports, legs):
                idx[port] = a
            val = base
            for p, q in d.edges:
                val *= g.gram_inv[idx[p]][idx[q]]
                if val == 0:
                    break
            if val == 0:
                continue
            key = tuple(sorted(idx[p] for p in leg_ports))
            acc = out.get(key, Fraction(0)) + val
            if acc:
                out[key] = acc
            else:
                del out[key]
    return out


_WEIGHT_CACHE: dict[tuple[str, CanonicalForm], dict] = {}


def _cached_contract(form: CanonicalForm, g: LieAlgebraData) -> dict:
    key = (g.label, form)
    hit = _WEIGHT_CACHE.get(key)
    if hit is None:
        hit = contract_diagram(form.diagram(), g)
        _WEIGHT_CACHE[key] = hit
    return hit


# ---------------------------------------------------------------------------
# weight tensors with series coefficients
# ---------------------------------------------------------------------------

@dataclass
class WeightTensor:
    """Symmetric tensor with series coefficients, stored on sorted
    basis-index multisets; the empty key is the scalar part."""

    terms: dict[tuple[int, ...], HSeries]
    cap: int

    @classmethod
    def zero(cls, cap: int) -> "WeightTensor":
        return cls({}, cap)

    def add(self, key: tuple[int, ...], series: HSeries) -> None:
        if series.is_zero():
            return
        cur = self.terms.get(key)
        acc = series if cur is None else cur + series
        if acc.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = acc

    def scalar(self) -> HSeries:
        return self.terms.get((), HSeries.zero(self.cap))

    def is_scalar(self) -> bool:
        return all(k == () for k in self.terms)


def hat_weight(s: DiagramSeries, g: LieAlgebraData, cap: int) -> WeightTensor:
    """Graded weight: each term is weighted by h raised to its degree."""
    out = WeightTensor.zero(cap)
    for form, coeff in s.terms.items():
        deg = form.degree
        if deg.denominator != 1:
            raise LieDataError("half-integer degree cannot occur")
        mono = HSeries.monomial(coeff, int(deg), cap)
        for key, val in _cached_contract(form, g).items():
            out.add(key, mono.scale(val))
    return out


def wick(T: WeightTensor, g: LieAlgebraData, f) -> HSeries:
    """Gaussian contraction: sum over perfect matchings of the slots of
    each term, each matched pair weighing -h/f times the lowered-form
    pairing; odd-slot terms vanish, the scalar part passes through."""
    f = Fraction(f)
    if f == 0:
        raise LieDataError("Gaussian operator needs nonzero framing")
    memo: dict[tuple, Fraction] = {(): Fraction(1)}

    def haf(key: tuple) -> Fraction:
        hit = memo.get(key)
        if hit is not None:
            return hit
        a, rest = key[0], key[1:]
        total = Fraction(0)
        for i in range(len(rest)):
            w = g.gram[a][rest[i]]
            if w:
                total += w * haf(rest[:i] + rest[i + 1:])
        memo[key] = total
        return total

    out = HSeries.zero(T.cap)
    for key, series in T.terms.items():
        k2 = len(key)
        if k2 % 2 == 1:
            continue
        k = k2 // 2
        weight = haf(key) * (Fraction(-1) / f) ** k
        if weight:
            out = out + series.scale(weight).shift(k)
    return out


def leg_rescaled(T: WeightTensor) -> WeightTensor:
    """Divide every m-slot term by h^m.

    Under the graded weight a glued strut carries one power of h while
    consuming two legs; rescaling the legs of the open tensor restores
    the balance, so the Gaussian operator on the rescaled graded tensor
    matches the graded weight of the diagram-level Gaussian integral.
    """
    out = WeightTensor.zero(T.cap)
    for key, series in T.terms.items():
        out.add(key, series.shift(-len(key)))
    return out


def gaussian_eval(s: DiagramSeries, g: LieAlgebraData, f, cap: int) -> HSeries:
    """Tensor-route Gaussian integral of a strut-free series: graded
    weight, leg rescaling, then the Wick operator.

    Tensor coefficients are exact, so the internal cap is padded to
    absorb the bookkeeping cost of the rescaling shifts.
    """
    mmax = max((form.m for form in s.terms), default=0)
    inner = wick(leg_rescaled(hat_weight(s, g, cap + mmax)), g, f)
    return inner.truncate(min(cap, inner.cap))


def exp_tensor(g: LieAlgebraData, vec, jmax: int, cap: int) -> WeightTensor:
    """exp of a g-element as a symmetric tensor, truncated at 2*jmax slots.

    On sorted multisets the coefficient of a key with multiplicities
    (k_1..k_r) is prod(v_i^{k_i}/k_i!).
    """
    support = [a for a, c in enumerate(vec) if c != 0]
    out = WeightTensor.zero(cap)
    out.add((), HSeries.one(cap))
    for msize in range(1, 2 * jmax + 1):
        for combo in itertools.combinations_with_replacement(support, msize):
            coeff = Fraction(1)
            for a in set(combo):
                k = combo.count(a)
                coeff *= Fraction(vec[a]) ** k / factorial(k)
            out.add(combo, HSeries.const(coeff, cap))
    return out
