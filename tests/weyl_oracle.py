"""Reference Weyl group: the matrix enumeration.

W is the closure of the simple reflection matrices under composition,
s_i(e_j) = e_j - (alpha_j, alpha_i) e_i in simple-root coordinates.
``rootsys`` keeps only the signed orbit of rho; the tests compare that
orbit, and the roots, against these matrices.

``inner`` is the bilinear form as one ``Fraction`` sum over the Gram
entries, the oracle of ``RootSystem.inner``.  ``root_product`` and
``square_sum`` add ``Fraction``-tuple lattice points, as the kernel did
before its lattice coordinates became integers; they are the oracles of
``rootsys._lattice_product`` on the two kinds of product the kernel
forms: a product over the positive roots, as ``weyl_denominator``
expands it, and the square of one lattice sum.  ``inner`` is a
``Fraction`` on integer points too, where the kernel keys its norm
classes by ``int`` norms; the two compare equal.  The series
``rootsys._den_inv`` has no oracle here: the tests check it through
the classical limit of the expansion data at lambda = rho, which is 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import series_oracle
from lmo_kernel.rootsys import RootSystem

Matrix = tuple[tuple[Fraction, ...], ...]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


def apply(w: Matrix, x) -> tuple[Fraction, ...]:
    return tuple(sum(w[i][j] * Fraction(x[j]) for j in range(len(w)))
                 for i in range(len(w)))


def det(m: Matrix) -> Fraction:
    """Cofactor expansion along the first row."""
    n = len(m)
    if n == 1:
        return m[0][0]
    out = Fraction(0)
    for j in range(n):
        minor = tuple(tuple(row[k] for k in range(n) if k != j)
                      for row in m[1:])
        out += (-1) ** j * m[0][j] * det(minor)
    return out


@lru_cache(maxsize=None)
def weyl_matrices(rs: RootSystem) -> tuple[Matrix, ...]:
    """Every element of W as a matrix, in sorted order."""
    r, gram = rs.rank, rs.gram
    gens = [tuple(tuple(Fraction(int(k == j)) - (gram[i][j] if k == i else 0)
                        for j in range(r)) for k in range(r))
            for i in range(r)]
    iden = tuple(tuple(Fraction(int(i == j)) for j in range(r))
                 for i in range(r))
    seen = {iden}
    frontier = [iden]
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                ws = mat_mul(s, w)
                if ws not in seen:
                    seen.add(ws)
                    nxt.append(ws)
        frontier = nxt
    return tuple(sorted(seen))


def inner(rs: RootSystem, x, y) -> Fraction:
    """sum over i, j of gram[i][j] x_i y_j, one Fraction step a term."""
    xs = [(i, Fraction(a)) for i, a in enumerate(x) if a]
    ys = [(j, Fraction(b)) for j, b in enumerate(y) if b]
    return sum((rs.gram[i][j] * a * b for i, a in xs for j, b in ys
                if rs.gram[i][j]), Fraction(0))


def _add(x, y) -> tuple[Fraction, ...]:
    return tuple(a + b for a, b in zip(x, y))


def _scale_vec(c, x) -> tuple[Fraction, ...]:
    c = Fraction(c)
    return tuple(c * a for a in x)


def root_product(rs: RootSystem, factor) -> dict:
    """prod over alpha > 0 of sum c q^(t alpha) over the pairs (t, c) of
    ``factor``, on ``Fraction``-tuple points."""
    out = {tuple(Fraction(0) for _ in range(rs.rank)): Fraction(1)}
    for alpha in rs.pos_roots:
        out = series_oracle.sum_products(
            (_add(mu, _scale_vec(t, alpha)), c, s)
            for mu, c in out.items() for t, s in factor)
    return out


def square_sum(a: dict) -> dict:
    """The square of a lattice sum with scalar coefficients, on
    ``Fraction``-tuple points."""
    return series_oracle.sum_products(
        (_add(tuple(map(Fraction, m1)), tuple(map(Fraction, m2))), c1, c2)
        for m1, c1 in a.items() for m2, c2 in a.items())
