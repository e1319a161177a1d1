"""Lattice-point counting, Ehrhart coefficient vectors, and dilation degrees.

Dilates of a lattice simplex are enumerated, not scanned.  The cone over
the vertices lifted to height one, (v_i, 1), is tiled by translates of
its half-open fundamental parallelepiped, whose lattice points the
simplex holds (:attr:`~torus_fiber.polytope.NewtonPolytope.parallelepiped`,
built once per simplex).  Every lattice point of ``k * simplex`` is
exactly one of them, at height h, plus a sum of n_i (v_i, 1) with
sum n_i = k - h (Beck and Robins, *Computing the Continuous
Discretely*, ch. 3), and only the points returned are ever built.  The
heights, counted, are the h*-vector, which :func:`ehrhart` checks
against its own transform.

Any other polytope gets a box scan over all coordinates but the last,
whose range is the exact integer interval cut out by the facets.  Both
paths stay in Python integers, so nothing overflows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product as iter_product
from math import comb

from .errors import (
    ConeMembershipError,
    InternalConsistencyError,
    OriginNotContainedError,
)
from .exact import dot, int_det, vec_sub
from .polytope import Face, NewtonPolytope, minimal_face_of


def _is_simplex(poly: NewtonPolytope) -> bool:
    return len(poly.vertices) == poly.dimension + 1


def _simplex_points(poly: NewtonPolytope, k: int, strict: bool) -> list[tuple[int, ...]]:
    """Lattice points of ``k * simplex``: each parallelepiped point at
    height h plus every sum of ``k - h`` vertices with repetition.  An
    interior point has every barycentric coordinate positive, so it takes
    each vertex at least once where the parallelepiped numerator is 0."""
    points: list[tuple[int, ...]] = []
    for height, point, numerators in poly.parallelepiped:
        budget = k - height
        if strict:
            forced = [v for v, c in zip(poly.vertices, numerators) if not c]
            point = tuple(map(sum, zip(point, *forced)))
            budget -= len(forced)
        if budget >= 0:
            points.extend(
                tuple(map(sum, zip(point, *picks)))
                for picks in combinations_with_replacement(poly.vertices, budget)
            )
    return points


def _box_scan(poly: NewtonPolytope, k: int, strict: bool) -> list[tuple[int, ...]]:
    """Lattice points of ``k * poly`` in lexicographic order: a box scan
    over all coordinates but the last, which runs over the integer
    interval left by the facet inequalities ``<a, x> <= k * b`` (``< k * b``
    when strict)."""
    coords = list(zip(*poly.vertices))
    prefixes = iter_product(*(range(k * min(c), k * max(c) + 1) for c in coords[:-1]))
    rows = [
        (f.normal[:-1], f.normal[-1], k * f.offset - (1 if strict else 0))
        for f in poly.facets
    ]
    first, final = k * min(coords[-1]), k * max(coords[-1])
    points: list[tuple[int, ...]] = []
    for prefix in prefixes:
        lo, hi = first, final
        for head, a, bound in rows:
            rest = bound - dot(head, prefix)
            if a > 0:
                hi = min(hi, rest // a)
            elif a < 0:
                lo = max(lo, -(rest // -a))
            elif rest < 0:
                hi = lo - 1
                break
        points.extend(prefix + (x,) for x in range(lo, hi + 1))
    return points


def _enumerate(poly: NewtonPolytope, k: int, strict: bool) -> tuple[tuple[int, ...], ...]:
    poly.require_full_dimensional()
    if k < 0:
        raise ValueError("dilation factor must be nonnegative")
    if _is_simplex(poly):
        return tuple(sorted(_simplex_points(poly, k, strict)))
    return tuple(_box_scan(poly, k, strict))


def lattice_points(poly: NewtonPolytope, k: int = 1) -> tuple[tuple[int, ...], ...]:
    """Lattice points of the ``k``-fold dilate, in lexicographic order."""
    return _enumerate(poly, k, strict=False)


def interior_lattice_points(poly: NewtonPolytope, k: int = 1) -> tuple[tuple[int, ...], ...]:
    """Lattice points strictly inside the ``k``-fold dilate."""
    return _enumerate(poly, k, strict=True)


def triangulate(poly: NewtonPolytope) -> tuple[tuple[int, ...], ...]:
    """Triangulation of the polytope into vertex simplices, no new points.

    Every face is coned over its lexicographically first vertex,
    recursively down the face lattice.  Returns tuples of vertex indices,
    each of length ``dimension + 1``.
    """
    poly.require_full_dimensional()
    memo: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}

    def rec(face: Face) -> tuple[tuple[int, ...], ...]:
        key = face.vertex_indices
        if key in memo:
            return memo[key]
        if face.dimension == 0:
            result = (face.vertex_indices,)
        else:
            anchor = face.vertex_indices[0]
            simplices = []
            for g in poly.faces:
                if g.dimension != face.dimension - 1:
                    continue
                if not set(g.vertex_indices) <= set(face.vertex_indices):
                    continue
                if anchor in g.vertex_indices:
                    continue
                for s in rec(g):
                    simplices.append(tuple(sorted(s + (anchor,))))
            result = tuple(sorted(simplices))
        memo[key] = result
        return result

    return rec(poly.whole_face)


def normalized_volume(poly: NewtonPolytope) -> int:
    """``dimension!`` times the Euclidean volume — always an integer."""
    total = 0
    for simplex in triangulate(poly):
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
    counts = tuple(len(lattice_points(poly, k)) for k in range(n + 2))
    interior = tuple(len(interior_lattice_points(poly, k)) for k in range(n + 2))

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
    if _is_simplex(poly):
        heights = sorted(height for height, _, _ in poly.parallelepiped)
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
