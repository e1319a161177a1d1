"""Newton polytopes over the integer lattice, computed exactly.

The hull algorithm is deliberately brute force: every d-subset of the
input points proposes a hyperplane, and a hyperplane survives as a facet
when the whole point set lies on one side.  All arithmetic is integer:
facets have primitive integer normals, and a point of the k-th dilate
is met as an integer vector against k times the offsets, so there are
no epsilon decisions anywhere.  Input sizes here are small (supports of
the polynomials under study), which keeps the combinatorial cost
irrelevant next to correctness.

A full-dimensional polytope carries its complete face lattice; a
degenerate one (affine span of lower dimension) only knows its vertices
and dimension, and every facet-based operation on it raises
:class:`~torus_fiber.errors.NotFullDimensionalError`.

Each call of :func:`newton_polytope` builds a new hull, and nothing is
cached across calls: whoever reuses a hull holds it.  A hull holds
what it derives itself, built on first use: its triangulation into
vertex simplices, and for each simplex the lattice points of its
fundamental parallelepiped, from which every dilate is enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import (
    InternalConsistencyError,
    LimitExceededError,
    NotFullDimensionalError,
)
from .exact import adjugate, affine_rank, dot, mat_rank, nullspace, pivot_columns, vec_sub

Point = tuple[int, ...]

# the most lattice points a simplex's fundamental parallelepiped may hold;
# its breadth-first search keeps every one of them
PARALLELEPIPED_LIMIT = 10**5


@dataclass(frozen=True)
class Facet:
    """Half-space ``<normal, x> <= offset`` with primitive integer normal."""

    normal: tuple[int, ...]
    offset: int

    def value(self, point):
        return dot(self.normal, point)

    def is_tight(self, point) -> bool:
        return dot(self.normal, point) == self.offset


@dataclass(frozen=True)
class Face:
    """A face of the polytope, identified by its vertex set.

    ``vertex_indices`` index into the owning polytope's ``vertices``;
    ``tight_facets`` are the indices of every facet containing the face.
    The whole polytope appears as the unique face with no tight facets.
    """

    dimension: int
    vertex_indices: tuple[int, ...]
    tight_facets: tuple[int, ...]


@dataclass(frozen=True)
class NewtonPolytope:
    ambient_dim: int
    dimension: int
    points: tuple[Point, ...]
    vertices: tuple[Point, ...]
    facets: tuple[Facet, ...]
    faces: tuple[Face, ...]
    full_dimensional: bool

    def require_full_dimensional(self):
        if not self.full_dimensional:
            raise NotFullDimensionalError(
                f"polytope spans only dimension {self.dimension} "
                f"inside ambient dimension {self.ambient_dim}"
            )

    def contains(self, point) -> bool:
        self.require_full_dimensional()
        return all(dot(f.normal, point) <= f.offset for f in self.facets)

    @property
    def whole_face(self) -> Face:
        self.require_full_dimensional()
        for face in self.faces:
            if face.dimension == self.dimension:
                return face
        raise AssertionError("face lattice lost the improper face")

    def face_points(self, face: Face) -> tuple[Point, ...]:
        return tuple(self.vertices[i] for i in face.vertex_indices)

    @cached_property
    def triangulation(self) -> tuple[tuple[int, ...], ...]:
        """Triangulation into vertex simplices, with no new points.

        Every face is coned over its lexicographically first vertex,
        recursively down the face lattice.  Holds tuples of vertex
        indices, each of length ``dimension + 1``; a simplex triangulates
        to itself.
        """
        self.require_full_dimensional()
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
                for g in self.faces:
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

        return rec(self.whole_face)

    @cached_property
    def cones(self) -> tuple[tuple[tuple[Point, ...], tuple[tuple[int, Point], ...]], ...]:
        """One ``(vertices, points)`` pair per simplex of the
        :attr:`triangulation`: the simplex's vertices and the lattice
        points of its fundamental parallelepiped (:func:`_parallelepiped`)."""
        cones = []
        for simplex in self.triangulation:
            vertices = tuple(self.vertices[i] for i in simplex)
            cones.append((vertices, _parallelepiped(vertices)))
        return tuple(cones)


def _parallelepiped(vertices) -> tuple[tuple[int, Point], ...]:
    """Lattice points of the half-open fundamental parallelepiped of the
    cone over a full-dimensional lattice simplex with these vertices.

    Each entry is ``(height, point)``: the point lies at ``height`` in the
    cone, and its first ``d`` coordinates are ``point``.  It equals
    ``sum(numerators[i] * (v_i, 1)) / |det|`` with every numerator in
    ``[0, |det|)``.  The lattice points form the group
    Z^(d+1) / Lambda of order |det|, where Lambda is spanned by the
    lifted vertices ``(v_i, 1)``, so a breadth-first search over the
    images of the unit vectors under the integer adjugate reaches all of
    them (Beck and Robins, *Computing the Continuous Discretely*, ch. 3).
    """
    lifted = [v + (1,) for v in vertices]
    det, adj = adjugate(tuple(zip(*lifted)))
    order = abs(det)
    if order > PARALLELEPIPED_LIMIT:
        raise LimitExceededError(
            f"a triangulation simplex has normalized volume {order}, above "
            f"PARALLELEPIPED_LIMIT = {PARALLELEPIPED_LIMIT} lattice points "
            "in its fundamental parallelepiped"
        )
    sign = 1 if det > 0 else -1
    # the coordinates of the unit vectors in the lifted basis, times |det|
    generators = {
        tuple(sign * row[j] % order for row in adj) for j in range(len(lifted))
    }
    zero = (0,) * len(lifted)
    seen = {zero}
    frontier = [zero]
    while frontier:
        reached = []
        for c in frontier:
            for g in generators:
                s = tuple((x + y) % order for x, y in zip(c, g))
                if s not in seen:
                    seen.add(s)
                    reached.append(s)
        frontier = reached
    if len(seen) != order:
        raise InternalConsistencyError(
            f"parallelepiped group has order {len(seen)}, not |det| = {order}"
        )
    points = []
    for numerators in seen:
        lifted_point = []
        for coords in zip(*lifted):
            q, r = divmod(dot(coords, numerators), order)
            if r:
                raise InternalConsistencyError(
                    f"parallelepiped point with numerators {numerators} "
                    f"over {order} is not integral"
                )
            lifted_point.append(q)
        points.append((lifted_point[-1], tuple(lifted_point[:-1])))
    return tuple(points)


def _facet_candidates(points, dim):
    """Yield (normal, offset) for every supporting hyperplane spanned by points."""
    if dim == 1:
        values = [p[0] for p in points]
        yield ((1,), max(values))
        yield ((-1,), -min(values))
        return
    seen = set()
    for subset in combinations(points, dim):
        base = subset[0]
        diffs = [vec_sub(p, base) for p in subset[1:]]
        kernel = nullspace(diffs)
        if len(kernel) != 1:
            continue
        normal = kernel[0]
        offset = dot(normal, base)
        values = [dot(normal, p) for p in points]
        if all(v <= offset for v in values):
            candidate = (normal, offset)
        elif all(v >= offset for v in values):
            candidate = (tuple(-c for c in normal), -offset)
        else:
            continue
        if candidate not in seen:
            seen.add(candidate)
            yield candidate


def _lower_dimensional(points, ambient_dim, chart) -> NewtonPolytope:
    """Vertices of a degenerate hull via an injective projection onto the
    coordinates ``chart``, the pivot columns of the point differences."""
    projected = [tuple(p[c] for c in chart) for p in points]
    back = dict(zip(projected, points))
    if not chart:
        verts = points
    else:
        shadow = newton_polytope(projected)
        verts = tuple(sorted(back[v] for v in shadow.vertices))
    return NewtonPolytope(
        ambient_dim=ambient_dim,
        dimension=len(chart),
        points=points,
        vertices=verts,
        facets=(),
        faces=(),
        full_dimensional=False,
    )


def newton_polytope(points) -> NewtonPolytope:
    """Convex hull of a set of lattice points, with exact face data.

    The hull is built from the sorted, deduplicated points, so it does
    not depend on their order or repetition.
    """
    pts = tuple(sorted({tuple(map(int, p)) for p in points}))
    if not pts:
        raise ValueError("cannot build a polytope from no points")
    ambient_dim = len(pts[0])
    if any(len(p) != ambient_dim for p in pts):
        raise ValueError("points of mixed dimension")
    if not ambient_dim:
        raise ValueError("cannot build a polytope from points with no coordinates")
    chart = pivot_columns([vec_sub(p, pts[0]) for p in pts[1:]])
    if len(chart) < ambient_dim:
        return _lower_dimensional(pts, ambient_dim, chart)

    facets = tuple(
        Facet(normal, offset)
        for normal, offset in sorted(_facet_candidates(pts, ambient_dim))
    )

    vertices = []
    for p in pts:
        tight_normals = [f.normal for f in facets if f.is_tight(p)]
        if len(tight_normals) >= ambient_dim and mat_rank(tight_normals) == ambient_dim:
            vertices.append(p)
    vertices = tuple(sorted(vertices))
    vertex_index = {v: i for i, v in enumerate(vertices)}

    facet_sets = []
    for f in facets:
        tight = frozenset(vertex_index[v] for v in vertices if f.is_tight(v))
        facet_sets.append(tight)

    everything = frozenset(range(len(vertices)))
    known = {everything, *facet_sets}
    queue = list(known)
    while queue:
        s = queue.pop()
        for t in list(known):
            u = s & t
            if u and u not in known:
                known.add(u)
                queue.append(u)

    faces = []
    for vset in known:
        coords = [vertices[i] for i in sorted(vset)]
        fdim = affine_rank(coords)
        tight = tuple(
            i for i, fs in enumerate(facet_sets) if vset <= fs
        )
        faces.append(Face(fdim, tuple(sorted(vset)), tight))
    faces.sort(key=lambda f: (f.dimension, f.vertex_indices))

    return NewtonPolytope(
        ambient_dim=ambient_dim,
        dimension=ambient_dim,
        points=pts,
        vertices=vertices,
        facets=facets,
        faces=tuple(faces),
        full_dimensional=True,
    )


def minimal_face_of(poly: NewtonPolytope, vector, k: int = 1) -> Face:
    """Smallest face of the ``k``-th dilate of ``poly`` containing ``vector``.

    Returned as the face of ``poly`` itself, i.e. the face containing
    ``vector / k``.  The facets tight at a point are exactly those
    containing its minimal face, so the face is found by its tight set.
    ``vector`` may have rational entries.  Raises ``ValueError`` when it
    lies outside the dilate.
    """
    poly.require_full_dimensional()
    slack = [k * f.offset - dot(f.normal, vector) for f in poly.facets]
    if min(slack) < 0:
        raise ValueError(f"vector {tuple(vector)} lies outside dilate {k} of the polytope")
    tight = tuple(i for i, s in enumerate(slack) if s == 0)
    for face in poly.faces:
        if face.tight_facets == tight:
            return face
    raise AssertionError(f"no face with tight facets {tight}; lattice incomplete")

