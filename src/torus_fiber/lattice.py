"""Lattice-point counting, Ehrhart coefficient vectors, and dilation degrees.

Counting is a filtered box scan: the bounding box of ``k * polytope`` is
enumerated and each point is tested against every (dilated) facet
inequality.  Large boxes go through numpy in int64; the numbers involved
(coordinates times primitive facet normals) stay far below overflow for
any input this package targets, and small boxes use plain tuples, which
keeps the common path allocation-free and exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from math import comb

import numpy as np

from .errors import (
    ConeMembershipError,
    InternalConsistencyError,
    OriginNotContainedError,
)
from .exact import dot, int_det, vec_sub
from .polytope import Face, NewtonPolytope, minimal_face_of

_NUMPY_THRESHOLD = 2048


def _box(poly: NewtonPolytope, k: int):
    coords = list(zip(*poly.vertices))
    return (
        [k * min(c) for c in coords],
        [k * max(c) for c in coords],
    )


def _scan(poly: NewtonPolytope, k: int, strict: bool) -> tuple[tuple[int, ...], ...]:
    poly.require_full_dimensional()
    if k < 0:
        raise ValueError("dilation factor must be nonnegative")
    if k == 0:
        origin = (0,) * poly.ambient_dim
        return () if strict else (origin,)
    lows, highs = _box(poly, k)
    size = 1
    for lo, hi in zip(lows, highs):
        size *= hi - lo + 1
    if size <= 0:
        return ()
    if size >= _NUMPY_THRESHOLD:
        return _scan_numpy(poly, k, strict, lows, highs)
    points = []
    for p in iter_product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
        ok = True
        for facet in poly.facets:
            v = dot(facet.normal, p)
            bound = k * facet.offset
            if v > bound or (strict and v == bound):
                ok = False
                break
        if ok:
            points.append(p)
    return tuple(points)


def _scan_numpy(poly, k, strict, lows, highs):
    n = poly.ambient_dim
    axes = []
    for i, (lo, hi) in enumerate(zip(lows, highs)):
        shape = [1] * n
        shape[i] = hi - lo + 1
        axes.append(np.arange(lo, hi + 1, dtype=np.int64).reshape(shape))
    mask = None
    for facet in poly.facets:
        val = np.zeros((1,) * n, dtype=np.int64)
        for c, axis in zip(facet.normal, axes):
            if c:
                val = val + c * axis
        cond = (val < k * facet.offset) if strict else (val <= k * facet.offset)
        mask = cond if mask is None else (mask & cond)
    idx = np.argwhere(np.broadcast_to(mask, tuple(h - l + 1 for l, h in zip(lows, highs))))
    return tuple(tuple(int(x) + lo for x, lo in zip(row, lows)) for row in idx)


def lattice_points(poly: NewtonPolytope, k: int = 1) -> tuple[tuple[int, ...], ...]:
    """Lattice points of the ``k``-fold dilate, in lexicographic order."""
    return _scan(poly, k, strict=False)


def interior_lattice_points(poly: NewtonPolytope, k: int = 1) -> tuple[tuple[int, ...], ...]:
    """Lattice points strictly inside the ``k``-fold dilate."""
    return _scan(poly, k, strict=True)


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
    must sum to the normalized volume; both identities are verified and
    any failure raises :class:`InternalConsistencyError` because it can
    only come from a counting bug.
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
    return EhrhartData(counts, interior, psi, phi, vol)


def dilation_degree(poly: NewtonPolytope, vector) -> int:
    """Smallest k >= 1 with ``vector`` in the k-fold dilate.

    Requires the origin inside the polytope, so that the dilates are
    nested and exhaust the cone over the polytope.  A vector outside that
    cone raises :class:`ConeMembershipError` carrying the violated facet.
    """
    poly.require_full_dimensional()
    vector = tuple(int(x) for x in vector)
    if any(f.offset < 0 for f in poly.facets):
        raise OriginNotContainedError(
            "dilation degree needs the origin inside the polytope"
        )
    k = 1
    for facet in poly.facets:
        s = dot(facet.normal, vector)
        if facet.offset == 0:
            if s > 0:
                raise ConeMembershipError(
                    f"vector {vector} escapes the polytope cone",
                    witness=(facet.normal, facet.offset),
                )
        elif s > 0:
            k = max(k, -(-s // facet.offset))
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
