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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import NotFullDimensionalError
from .exact import affine_rank, dot, mat_rank, nullspace, vec_sub

Point = tuple[int, ...]


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


def _dedupe_points(points) -> tuple[Point, ...]:
    cleaned = {tuple(map(int, p)) for p in points}
    if not cleaned:
        raise ValueError("cannot build a polytope from no points")
    widths = {len(p) for p in cleaned}
    if len(widths) != 1:
        raise ValueError("points of mixed dimension")
    return tuple(sorted(cleaned))


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


def _lower_dimensional(points, ambient_dim, dim) -> NewtonPolytope:
    """Vertices of a degenerate hull via an injective coordinate projection."""
    base = points[0]
    diffs = [vec_sub(p, base) for p in points[1:]]
    chosen: list[int] = []
    for col in range(ambient_dim):
        trial = chosen + [col]
        cols = [[row[c] for c in trial] for row in diffs]
        if mat_rank(cols) == len(trial):
            chosen.append(col)
        if len(chosen) == dim:
            break
    projected = [tuple(p[c] for c in chosen) for p in points]
    back = dict(zip(projected, points))
    if dim == 0:
        verts = points
    else:
        shadow = newton_polytope(projected)
        verts = tuple(sorted(back[v] for v in shadow.vertices))
    return NewtonPolytope(
        ambient_dim=ambient_dim,
        dimension=dim,
        points=points,
        vertices=verts,
        facets=(),
        faces=(),
        full_dimensional=False,
    )


def newton_polytope(points) -> NewtonPolytope:
    """Convex hull of a set of lattice points, with exact face data.

    The result is memoized on the sorted, deduplicated point tuple, so
    every caller asking about the same point set shares one (immutable)
    polytope.
    """
    return _hull(_dedupe_points(points))


@lru_cache(maxsize=256)
def _hull(pts: tuple[Point, ...]) -> NewtonPolytope:
    ambient_dim = len(pts[0])
    dim = affine_rank(pts)
    if dim < ambient_dim:
        return _lower_dimensional(pts, ambient_dim, dim)

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
        dimension=dim,
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

