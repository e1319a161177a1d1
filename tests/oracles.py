"""Independent reference implementations used only by the tests.

Nothing here imports from the package's geometry pipeline: hull
membership goes through an exact phase-1 simplex, and lattice counting
through a test-local hyperplane enumeration for dimensions up to 3.
Preserved faces are matched by padded vertex sets across two given
hulls' face lattices.
Matrix products over Z[zeta_m] use only ``CycValue``'s ``+`` and ``*``,
never the package's matrix kernels; binomial products expand one term
per choice of factors, and the reduction rows of x^e follow the dense
one-step recurrence over every e < m.  Constant terms of Laurent
polynomial powers come from integer dict convolution over the support.
All are deliberately naive.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from torus_fiber.cyclotomic import CycValue


def _simplex_feasible(columns, rhs) -> bool:
    """Phase-1 simplex with Bland's rule, everything in Fractions.

    Decides whether ``columns @ x = rhs`` has a solution with x >= 0.
    """
    m = len(rhs)
    n = len(columns)
    # flip rows so artificial variables start at a nonnegative basis
    rows = []
    b = []
    for i in range(m):
        scale = -1 if rhs[i] < 0 else 1
        rows.append([Fraction(col[i]) * scale for col in columns])
        b.append(Fraction(rhs[i]) * scale)
    # tableau over structural + artificial variables
    width = n + m
    table = []
    for i in range(m):
        row = rows[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        row.append(b[i])
        table.append(row)
    basis = list(range(n, width))
    # objective: minimize the artificial sum.  The reduced-cost row of
    # the artificial basis is the column sum for structural columns and
    # zero for the (basic) artificials themselves.
    cost = [Fraction(0)] * (width + 1)
    for i in range(m):
        for j in range(n):
            cost[j] += table[i][j]
        cost[width] += table[i][width]

    while True:
        enter = -1
        for j in range(n):  # artificials never re-enter
            if j not in basis and cost[j] > 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            if table[i][enter] > 0:
                ratio = table[i][width] / table[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return False  # unbounded phase-1 cannot happen, defensive
        pivot = table[leave][enter]
        table[leave] = [x / pivot for x in table[leave]]
        for i in range(m):
            if i != leave and table[i][enter] != 0:
                factor = table[i][enter]
                table[i] = [
                    a - factor * p for a, p in zip(table[i], table[leave])
                ]
        if cost[enter] != 0:
            factor = cost[enter]
            cost = [a - factor * p for a, p in zip(cost, table[leave])]
        basis[leave] = enter
    return cost[width] == 0


def in_hull(points, target) -> bool:
    """Whether target is a convex combination of the given points."""
    if not points:
        return False
    columns = [[Fraction(c) for c in p] + [Fraction(1)] for p in points]
    rhs = [Fraction(c) for c in target] + [Fraction(1)]
    return _simplex_feasible(columns, rhs)


def is_extreme(points, index) -> bool:
    """Whether points[index] is outside the hull of the other points."""
    others = [p for i, p in enumerate(points) if i != index]
    return not in_hull(others, points[index])


def _primitive(vec):
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    if g == 0:
        return None
    return tuple(x // g for x in vec)


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _facet_normals(points):
    """All supporting hyperplanes of a full-dimensional hull, n <= 3."""
    dim = len(points[0])
    normals = set()
    if dim == 1:
        lo = min(p[0] for p in points)
        hi = max(p[0] for p in points)
        return {((-1,), -lo), ((1,), hi)}
    for subset in itertools.combinations(points, dim):
        if dim == 2:
            (x1, y1), (x2, y2) = subset
            normal = (y2 - y1, x1 - x2)
        else:
            a, b, c = subset
            u = tuple(b[i] - a[i] for i in range(3))
            v = tuple(c[i] - a[i] for i in range(3))
            normal = _cross(u, v)
        normal = _primitive(normal)
        if normal is None:
            continue
        base = sum(n * x for n, x in zip(normal, subset[0]))
        values = [sum(n * x for n, x in zip(normal, p)) for p in points]
        if all(v <= base for v in values):
            normals.add((normal, base))
        elif all(v >= base for v in values):
            flipped = tuple(-n for n in normal)
            normals.add((flipped, -base))
    return normals


def box_count(points, k: int):
    """(total, interior) lattice points of the k-th dilate, n <= 3.

    Scans the dilated bounding box and tests each point against every
    supporting hyperplane found by the local enumeration.  Requires a
    full-dimensional input hull.
    """
    if k == 0:
        return 1, 0
    dim = len(points[0])
    facets = _facet_normals(points)
    if not facets:
        raise ValueError("degenerate input")
    lows = [k * min(p[i] for p in points) for i in range(dim)]
    highs = [k * max(p[i] for p in points) for i in range(dim)]
    total = 0
    interior = 0
    for candidate in itertools.product(
        *(range(lo, hi + 1) for lo, hi in zip(lows, highs))
    ):
        values = [
            (sum(n * x for n, x in zip(normal, candidate)), k * base)
            for normal, base in facets
        ]
        if all(v <= bound for v, bound in values):
            total += 1
            if all(v < bound for v, bound in values):
                interior += 1
    return total, interior


def preserved_faces(base_poly, extended_poly, n_aux: int):
    """The faces of ``base_poly`` whose vertex sets, zero-padded by
    ``n_aux`` coordinates, are the vertex set of some face of
    ``extended_poly``, in ``base_poly``'s face order."""
    pad = (0,) * n_aux
    extended_sets = {
        frozenset(extended_poly.face_points(g)) for g in extended_poly.faces
    }
    return tuple(
        face for face in base_poly.faces
        if frozenset(v + pad for v in base_poly.face_points(face)) in extended_sets
    )


# ---------------------------------------------------------------------------
# matrices and polynomials over Z[zeta_m]


def matmul(a, b, modulus):
    cols = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in cols:
            acc = CycValue.zero(modulus)
            for x, y in zip(row, col):
                acc = acc + x * y
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def trace(mat, modulus):
    acc = CycValue.zero(modulus)
    for i in range(len(mat)):
        acc = acc + mat[i][i]
    return acc


def companion(coeffs, modulus):
    """The companion matrix of a monic polynomial given low to high: ones
    on the subdiagonal and the negated lower coefficients in the last
    column."""
    n = len(coeffs) - 1
    return tuple(
        tuple(
            -coeffs[i] if j == n - 1 else CycValue.from_int(modulus, int(i == j + 1))
            for j in range(n)
        )
        for i in range(n)
    )


def conjugation_chain(h_one, h_infinity, h_infinity_inverse, gamma, modulus):
    """The turns around the gamma finite singular fibres: h_one, then each
    next one conjugated by the turn at infinity."""
    chain = [h_one]
    for _ in range(gamma - 1):
        step = matmul(h_infinity_inverse, chain[-1], modulus)
        chain.append(matmul(step, h_infinity, modulus))
    return chain


def binomial_expansion(poly, factors, modulus):
    """poly * prod (t^k - w) over ``(k, w)`` factors with ``CycValue`` w,
    one term per choice of t^k or -w from every factor."""
    zero = CycValue.zero(modulus)
    out = [zero] * (len(poly) + sum(k for k, _ in factors))
    for size in range(len(factors) + 1):
        for picked in itertools.combinations(range(len(factors)), size):
            coeff = CycValue.from_int(modulus, 1)
            shift = 0
            for index, (k, w) in enumerate(factors):
                if index in picked:
                    coeff = coeff * (-w)
                else:
                    shift += k
            for i, c in enumerate(poly):
                out[i + shift] = out[i + shift] + c * coeff
    return out


def eager_reduction_rows(m, phi):
    """The canonical forms of x^0, ..., x^(m-1) modulo ``phi``, the m-th
    cyclotomic polynomial low to high, as sparse ``(exponent,
    coefficient)`` pairs: every row at once, each from the last through
    the dense recurrence x^(e+1) = x * x^e, with x^deg replaced by its
    reduction."""
    deg = len(phi) - 1
    top = [-c for c in phi[:deg]]
    current = [1] + [0] * (deg - 1)
    rows = []
    for _ in range(m):
        rows.append(tuple((j, c) for j, c in enumerate(current) if c))
        lead = current[-1]
        current = [s + lead * b for s, b in zip([0] + current[:-1], top)]
    return rows


def cyclic_expansion(*degrees):
    """Integer coefficients of prod (t^d - 1), low to high."""
    poly = [1]
    for d in degrees:
        out = [0] * (len(poly) + d)
        for i, c in enumerate(poly):
            out[i] -= c
            out[i + d] += c
        poly = out
    return poly


# ---------------------------------------------------------------------------
# periods: constant terms of powers of a unit-coefficient polynomial


def power_table(support, k_max: int) -> list[dict]:
    """F^0, ..., F^k_max as {exponent: integer coefficient} dicts, where F
    is the sum of x^s over ``support``, each power convolved from the last."""
    powers = [{(0,) * len(support[0]): 1}]
    for _ in range(k_max):
        product: dict = {}
        for exponent, coeff in powers[-1].items():
            for s in support:
                key = tuple(a + b for a, b in zip(exponent, s))
                product[key] = product.get(key, 0) + coeff
        powers.append(product)
    return powers


def constant_term(powers, vector, k: int) -> int:
    """The constant term of x^vector F^k, from :func:`power_table`."""
    return powers[k].get(tuple(-j for j in vector), 0)
