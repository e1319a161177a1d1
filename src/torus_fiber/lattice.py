"""Lattice-point counting, Ehrhart coefficient vectors, and dilation degrees.

Dilates are enumerated, not scanned.  A full-dimensional polytope holds
its triangulation into vertex simplices, and for each simplex the
lattice points of its half-open fundamental parallelepiped
(:attr:`~torus_fiber.polytope.NewtonPolytope.cones`, built once per
polytope).  The cone over a simplex's vertices lifted to height one,
(v_i, 1), is tiled by translates of that parallelepiped, so every
lattice point of ``k * simplex`` is exactly one parallelepiped point, at
height h, plus a sum of n_i (v_i, 1) with sum n_i = k - h (Beck and
Robins, *Computing the Continuous Discretely*, ch. 3).  The dilate of
the polytope is the union of the dilates of its simplices, and its
interior points are those strictly inside every facet.  Only points of
the dilate are ever built, and all arithmetic stays in Python integers,
so nothing overflows.  On a simplex the heights, counted, are the
h*-vector, which :func:`ehrhart` checks against its own transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb

from .errors import (
    ConeMembershipError,
    InternalConsistencyError,
    OriginNotContainedError,
)
from .exact import dot, int_det, vec_sub
from .polytope import Face, NewtonPolytope, minimal_face_of


def lattice_points(poly: NewtonPolytope, k: int = 1) -> tuple[tuple[int, ...], ...]:
    """Lattice points of the ``k``-fold dilate, in lexicographic order:
    the union over the simplices of the triangulation of each
    parallelepiped point at height ``h <= k`` plus every sum of ``k - h``
    of the simplex's vertices, with repetition."""
    poly.require_full_dimensional()
    if k < 0:
        raise ValueError("dilation factor must be nonnegative")
    points: set[tuple[int, ...]] = set()
    for vertices, parallelepiped in poly.cones:
        for height, point in parallelepiped:
            if height <= k:
                points.update(
                    tuple(map(sum, zip(point, *picks)))
                    for picks in combinations_with_replacement(vertices, k - height)
                )
    return tuple(sorted(points))


def interior_lattice_points(poly: NewtonPolytope, k: int = 1) -> tuple[tuple[int, ...], ...]:
    """Lattice points strictly inside the ``k``-fold dilate, in
    lexicographic order: those of :func:`lattice_points` strictly inside
    every facet."""
    return tuple(p for p in lattice_points(poly, k) if _strictly_inside(poly, p, k))


def _strictly_inside(poly: NewtonPolytope, point, k: int) -> bool:
    return all(dot(f.normal, point) < k * f.offset for f in poly.facets)


def _dilate_counts(poly: NewtonPolytope, k: int) -> tuple[int, int]:
    """How many lattice points the ``k``-fold dilate holds, and how many
    of them lie strictly inside it, from one enumeration."""
    points = lattice_points(poly, k)
    return len(points), sum(_strictly_inside(poly, p, k) for p in points)


def normalized_volume(poly: NewtonPolytope) -> int:
    """``dimension!`` times the Euclidean volume — always an integer."""
    total = 0
    for simplex in poly.triangulation:
        pts = [poly.vertices[i] for i in simplex]
        diffs = [vec_sub(p, pts[0]) for p in pts[1:]]
        total += abs(int_det(diffs))
    return total


@dataclass(frozen=True)
class EhrhartData:
    """Counts and their inverted binomial transforms for k = 0 .. n+1."""

    counts: tuple[int, ...]
    interior_counts: tuple[int, ...]
    psi: tuple[int, ...]
    phi: tuple[int, ...]
    normalized_volume: int


def ehrhart(poly: NewtonPolytope) -> EhrhartData:
    """Count dilates and return both transform vectors, cross-checked.

    The two vectors must be reverses of each other and the psi entries
    must sum to the normalized volume; on a simplex, psi must also count
    the fundamental parallelepiped's lattice points by height.  Every
    identity is verified and any failure raises
    :class:`InternalConsistencyError` because it can only come from a
    counting bug.
    """
    poly.require_full_dimensional()
    n = poly.dimension
    counts, interior = zip(*(_dilate_counts(poly, k) for k in range(n + 2)))

    def transform(seq):
        return tuple(
            sum((-1) ** i * comb(n + 1, i) * seq[j - i] for i in range(j + 1))
            for j in range(n + 2)
        )

    psi = transform(counts)
    phi = transform(interior)

    if psi[n + 1] != 0:
        raise InternalConsistencyError(
            f"count sequence {counts} is not polynomial of degree {n}: "
            f"top transform entry is {psi[n + 1]}"
        )
    if any(x < 0 for x in psi) or any(x < 0 for x in phi):
        raise InternalConsistencyError(
            f"negative transform entries: psi={psi} phi={phi}"
        )
    for j in range(n + 2):
        if phi[j] != psi[n + 1 - j]:
            raise InternalConsistencyError(
                f"reciprocity failed at index {j}: psi={psi} phi={phi}"
            )
    vol = normalized_volume(poly)
    if sum(psi) != vol:
        raise InternalConsistencyError(
            f"transform sum {sum(psi)} != normalized volume {vol}"
        )
    if len(poly.cones) == 1:
        heights = sorted(height for height, _ in poly.cones[0][1])
        if heights != [j for j, count in enumerate(psi) for _ in range(count)]:
            raise InternalConsistencyError(
                f"psi={psi} is not the histogram of parallelepiped heights {heights}"
            )
    return EhrhartData(counts, interior, psi, phi, vol)


def dilation_degree(poly: NewtonPolytope, vector) -> int:
    """Smallest k >= 1 with ``vector`` in the k-fold dilate.

    Requires the origin inside the polytope, so that the dilates are
    nested and exhaust the cone over the polytope; there it is
    :func:`filtration_degree`.  A vector outside that cone raises
    :class:`ConeMembershipError` carrying the first facet through the
    origin that it violates.
    """
    poly.require_full_dimensional()
    if any(f.offset < 0 for f in poly.facets):
        raise OriginNotContainedError(
            "dilation degree needs the origin inside the polytope"
        )
    k = filtration_degree(poly, vector)
    if k is None:
        vector = tuple(int(x) for x in vector)
        facet = next(
            f for f in poly.facets if f.offset == 0 and dot(f.normal, vector) > 0
        )
        raise ConeMembershipError(
            f"vector {vector} escapes the polytope cone",
            witness=(facet.normal, facet.offset),
        )
    return k


def filtration_degree(poly: NewtonPolytope, vector) -> int | None:
    """Smallest k >= 1 with ``vector`` in the k-fold dilate, or ``None``.

    Unlike :func:`dilation_degree` this does not assume the origin lies
    in the polytope: the set of valid k is an integer interval (possibly
    empty), and the lower end is returned when the interval is nonempty.
    """
    poly.require_full_dimensional()
    vector = tuple(int(x) for x in vector)
    lower = 1
    caps = []
    for facet in poly.facets:
        s = dot(facet.normal, vector)
        b = facet.offset
        if b > 0:
            lower = max(lower, -(-s // b))
        elif b == 0:
            if s > 0:
                return None
        else:
            caps.append((s, b))
    if any(lower * b < s for s, b in caps):
        return None
    return lower


@dataclass(frozen=True)
class MonomialClass:
    """Filtration/weight placement of a single monomial exponent vector."""

    degree_k: int
    hodge_p: int
    stratum: Face
    weight_w: int


def classify_monomial(poly: NewtonPolytope, vector) -> MonomialClass:
    """Degree, filtration level and weight read off from the polytope.

    The weight comes from the dimension of the smallest face met by the
    scaled vector; interior vectors meet the whole polytope and land at
    the bottom weight.
    """
    k = dilation_degree(poly, vector)
    stratum = minimal_face_of(poly, tuple(int(x) for x in vector), k)
    n = poly.dimension
    return MonomialClass(
        degree_k=k,
        hodge_p=n - k,
        stratum=stratum,
        weight_w=2 * n - 1 - stratum.dimension,
    )
