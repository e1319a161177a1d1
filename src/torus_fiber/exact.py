"""Exact integer linear algebra by fraction-free elimination.

Everything here is pure: matrices are sequences of row sequences with
integer entries, vectors are tuples.  Determinant, rank, pivot
columns, nullspace and adjugate all come from one fraction-free
Gauss-Jordan elimination (Bareiss, Math. Comp. 1968), which forms no
``Fraction``.  Only :func:`dot` and :func:`vec_sub` are generic over
number types.
"""

from __future__ import annotations

from math import gcd
from operator import index

Vec = tuple
Mat = tuple


def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def dot(a: Vec, b: Vec):
    return sum(x * y for x, y in zip(a, b, strict=True))


def _eliminate(m, pivot_columns: int | None = None):
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Pivots are taken left to right among the first ``pivot_columns``
    columns (all by default), swapping rows as needed; each pivot column
    is cleared in every other row, above the pivot as well as below.
    Every intermediate entry is a minor of the input, so each division
    is exact.  Returns ``(rows, pivots, sign, d)``: the reduced rows, the
    pivot column of each leading row, the sign of the row permutation,
    and the last pivot ``d``, which every pivot entry equals at the end
    (1 when there is no pivot).  Row ``r`` divided by ``d`` is row ``r``
    of the reduced row echelon form.
    """
    a = [[index(x) for x in row] for row in m]
    n = len(a)
    width = len(a[0]) if pivot_columns is None else pivot_columns
    pivots: list[int] = []
    sign = 1
    d = 1
    for col in range(width):
        r = len(pivots)
        if r == n:
            break
        p = next((i for i in range(r, n) if a[i][col]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        top = a[r]
        pivot = top[col]
        for i in range(n):
            if i != r:
                f = a[i][col]
                a[i] = [(pivot * x - f * y) // d for x, y in zip(a[i], top)]
        d = pivot
        pivots.append(col)
    return a, pivots, sign, d


def int_det(m) -> int:
    """Determinant of a square integer matrix."""
    n = len(m)
    if n == 0:
        return 1
    _, pivots, sign, d = _eliminate(m)
    return sign * d if len(pivots) == n else 0


def adjugate(m) -> tuple[int, Mat | None]:
    """``(det, adj)`` of a square integer matrix, with ``adj @ m == det * I``.

    Eliminating ``[m | I]`` leaves ``[d * I | d * m^-1]`` with ``d = +-det``,
    so the right block is the adjugate up to that sign.  A singular
    matrix gives ``(0, None)``: its adjugate is not computed.
    """
    n = len(m)
    augmented = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    a, pivots, sign, d = _eliminate(augmented, n)
    if len(pivots) < n:
        return 0, None
    return sign * d, tuple(tuple(sign * x for x in row[n:]) for row in a)


def pivot_columns(m) -> list[int]:
    """Pivot columns of an integer matrix, left to right: the
    lexicographically first set of columns that is a basis of its
    column space."""
    return _eliminate(m)[1] if m else []


def mat_rank(m) -> int:
    """Rank of an integer matrix."""
    return len(pivot_columns(m))


def nullspace(m) -> list[Vec]:
    """Basis of the right nullspace of an integer matrix.

    One primitive integer vector per free column, positive there and zero
    at the other free columns: the usual rational basis, rescaled.
    """
    if not m:
        return []
    a, pivots, _, d = _eliminate(m)
    s = 1 if d > 0 else -1
    basis = []
    for free in range(len(a[0])):
        if free in pivots:
            continue
        v = [0] * len(a[0])
        v[free] = abs(d)
        for r, pc in enumerate(pivots):
            v[pc] = -s * a[r][free]
        g = gcd(*v)
        basis.append(tuple(x // g for x in v))
    return basis


def affine_rank(points) -> int:
    """Dimension of the affine span of a point set (-1 for empty, 0 for one point)."""
    pts = list(points)
    if not pts:
        return -1
    base = pts[0]
    diffs = [vec_sub(p, base) for p in pts[1:]]
    if not diffs:
        return 0
    return mat_rank(diffs)
