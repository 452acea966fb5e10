"""Reference sl_n data: the dense matrix construction.

Every basis element is a full n x n matrix of Fractions; the Gram matrix
and the structure tensor come from dense products and traces, and the
Jacobi identity is checked on the matrices themselves.  It is slow
(``dense_jacobi`` on sl_4 alone takes seconds) but plainly correct, so
the tests compare ``liews.build_sl`` against it.

``pure_power_wick_check`` is the closed form of the Gaussian contraction
of a 2j-th tensor power; it serves the Wick tests.  ``wick`` is the Wick
operator with its hafnian summed one ``Fraction`` step at a time and its
terms added as series, the oracle of ``liews.wick``.  ``exp_tensor``
builds every coefficient v^k / k! again for each key, the oracle of
``liews.exp_tensor``.
``relabel_vertices`` presents one diagram under other vertex labels, for
the schedule-independence checks of ``liews.contract_diagram``.
``brute_force_contract`` is the flat loop over every assignment of basis
indices to ports, the oracle of the sparse enumeration
``liews.brute_force_contract``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, prod

from lmo_kernel.diagrams import JacobiDiagram
from lmo_kernel.liews import LieAlgebraData, LieDataError
from lmo_kernel.qseries import HSeries
from lmo_kernel.rootsys import double_factorial

Matrix = tuple[tuple[Fraction, ...], ...]


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


def _mat_sub(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(tuple(a[i][j] - b[i][j] for j in range(n)) for i in range(n))


def _trace(a: Matrix) -> Fraction:
    return sum(a[i][i] for i in range(len(a)))


def bracket(x: Matrix, y: Matrix) -> Matrix:
    return _mat_sub(_mat_mul(x, y), _mat_mul(y, x))


def dense_sl(n: int) -> tuple[list[Matrix], Matrix, dict]:
    """Basis, Gram matrix and lowered structure tensor of sl_n, in the
    basis order of ``liews.build_sl``: H_k, then E_ij (i != j)."""

    def unit(i, j):
        return tuple(tuple(Fraction(int(r == i and c == j)) for c in range(n))
                     for r in range(n))

    basis: list[Matrix] = []
    for k in range(n - 1):
        basis.append(_mat_sub(unit(k, k), unit(k + 1, k + 1)))   # H_k
    offs = [(i, j) for i in range(n) for j in range(n) if i != j]
    basis.extend(unit(i, j) for i, j in offs)
    dim = len(basis)

    gram = tuple(tuple(_trace(_mat_mul(x, y)) for y in basis) for x in basis)

    f_low: dict[tuple[int, int, int], Fraction] = {}
    for a in range(dim):
        for b in range(dim):
            if a == b:
                continue
            br = bracket(basis[a], basis[b])
            for c in range(dim):
                v = _trace(_mat_mul(br, basis[c]))
                if v != 0:
                    f_low[(a, b, c)] = v
    return basis, gram, f_low


def dense_jacobi(basis: list[Matrix]) -> bool:
    """The Jacobi identity, checked at the matrix level on every triple."""
    dim = len(basis)
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                jac = bracket(bracket(basis[a], basis[b]), basis[c])
                jac = _mat_sub(jac, bracket(basis[a], bracket(basis[b], basis[c])))
                jac = _mat_sub(jac, bracket(bracket(basis[a], basis[c]), basis[b]))
                if any(x != 0 for row in jac for x in row):
                    return False
    return True


def pure_power_wick_check(j: int, beta_sq, f, cap: int) -> HSeries:
    """Closed form (2j-1)!! (-h |beta|^2 / f)^j for cross-checking the
    Gaussian contraction of a 2j-th tensor power."""
    if j < 0:
        raise ValueError("j must be >= 0")
    beta_sq, f = Fraction(beta_sq), Fraction(f)
    return HSeries({j: double_factorial(2 * j - 1) * (-beta_sq / f) ** j},
                   cap)


def wick(T, g, f, cap: int) -> HSeries:
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

    out = HSeries.zero(cap)
    for key, series in T.items():
        k2 = len(key)
        if k2 % 2 == 1:
            continue
        k = k2 // 2
        weight = haf(key) * (Fraction(-1) / f) ** k
        if weight:
            out = out + series.scale(weight).shift(k)
    return out


def exp_tensor(vec, cap: int) -> dict:
    """exp of the element with basis coordinates ``vec`` as a symmetric
    tensor to 2*cap slots, each key's coefficient prod(v_i^{k_i}/k_i!)
    computed from scratch."""
    support = [a for a, c in enumerate(vec) if c != 0]
    terms = {(): HSeries.one(cap)}
    for msize in range(1, 2 * cap + 1):
        for combo in itertools.combinations_with_replacement(support, msize):
            coeff = Fraction(1)
            for a in set(combo):
                k = combo.count(a)
                coeff *= Fraction(vec[a]) ** k / factorial(k)
            terms[combo] = HSeries({0: coeff}, cap)
    return terms


def relabel_vertices(d: JacobiDiagram, perm) -> JacobiDiagram:
    """``d`` with trivalent vertex v renamed ``perm[v]``.  The greedy
    schedule of ``contract_diagram`` breaks ties by tensor index, so the
    copy may contract the same network in another order."""
    def mp(p):
        return (perm[p[0]], p[1]) if p[0] < d.t else p
    return JacobiDiagram(d.t, d.m, tuple((mp(p), mp(q)) for p, q in d.edges))


def brute_force_contract(d: JacobiDiagram, g: LieAlgebraData
                         ) -> dict[tuple[int, ...], Fraction]:
    """Sum a structure-tensor entry per trivalent vertex and an
    inverse-Gram factor per edge over every assignment of basis indices
    to ports.  Vertex indices run over the support of the structure
    tensor (terms off it vanish identically); an assignment with a zero
    edge factor is skipped before any product is taken."""
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
