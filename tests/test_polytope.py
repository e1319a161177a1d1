import random
from fractions import Fraction

import pytest

from torus_fiber.errors import LimitExceededError
from torus_fiber.lattice import lattice_points
from torus_fiber.polytope import minimal_face_of, newton_polytope

from oracles import in_hull, is_extreme

QUARTIC_SUPPORT = ((5, 0), (2, 1), (1, 2), (0, 4))


def test_quartic_polygon_vertices_and_facets():
    poly = newton_polytope(QUARTIC_SUPPORT)
    assert poly.dimension == 2
    assert poly.full_dimensional
    assert poly.vertices == ((0, 4), (1, 2), (2, 1), (5, 0))
    facet_set = {(f.normal, f.offset) for f in poly.facets}
    assert facet_set == {
        ((-2, -1), -4),
        ((-1, -3), -5),
        ((-1, -1), -3),
        ((4, 5), 20),
    }


def test_quartic_face_lattice():
    poly = newton_polytope(QUARTIC_SUPPORT)
    by_dim = {}
    for face in poly.faces:
        by_dim.setdefault(face.dimension, []).append(face.vertex_indices)
    assert len(by_dim[0]) == 4
    edges = {
        frozenset(poly.vertices[i] for i in idx) for idx in by_dim[1]
    }
    assert edges == {
        frozenset({(5, 0), (2, 1)}),
        frozenset({(2, 1), (1, 2)}),
        frozenset({(1, 2), (0, 4)}),
        frozenset({(0, 4), (5, 0)}),
    }
    assert by_dim[2] == [tuple(range(4))]


def test_origin_outside_quartic():
    poly = newton_polytope(QUARTIC_SUPPORT)
    assert not poly.contains((0, 0))
    assert poly.contains((2, 1))
    assert poly.contains((Fraction(3), Fraction(1)))


def test_degenerate_segment():
    poly = newton_polytope(((0, 0), (2, 0), (1, 0)))
    assert poly.dimension == 1
    assert not poly.full_dimensional
    assert set(poly.vertices) == {(0, 0), (2, 0)}
    assert poly.facets == ()
    assert poly.faces == ()


def test_degenerate_plane_skips_a_dependent_column():
    # a planar point set in 3-space whose first two coordinates are equal:
    # the chart must skip column 2 and take column 3
    points = ((0, 0, 0), (3, 3, 1), (1, 1, 3), (1, 1, 1), (2, 2, 1), (0, 0, 2))
    poly = newton_polytope(points)
    assert poly.dimension == 2
    assert not poly.full_dimensional
    assert poly.vertices == ((0, 0, 0), (0, 0, 2), (1, 1, 3), (3, 3, 1))
    extreme = {p for i, p in enumerate(points) if is_extreme(points, i)}
    assert set(poly.vertices) == extreme


def test_single_point():
    poly = newton_polytope(((3, 4),))
    assert poly.dimension == 0
    assert not poly.full_dimensional


def test_minimal_face():
    poly = newton_polytope(QUARTIC_SUPPORT)
    vertex_face = minimal_face_of(poly, (5, 0))
    assert vertex_face.dimension == 0
    edge_face = minimal_face_of(poly, (Fraction(7, 2), Fraction(1, 2)))
    assert edge_face.dimension == 1
    inner = minimal_face_of(poly, (2, 2))
    assert inner.dimension == 2
    with pytest.raises(ValueError):
        minimal_face_of(poly, (0, 0))


def test_unit_cube():
    corners = tuple(
        (i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)
    )
    poly = newton_polytope(corners)
    assert poly.dimension == 3
    assert len(poly.vertices) == 8
    assert len(poly.facets) == 6
    # 8 vertices + 12 edges + 6 squares + the solid
    assert len(poly.faces) == 27


def test_random_hulls_against_oracle():
    rng = random.Random(515151)
    done = 0
    while done < 30:
        n = rng.randint(1, 3)
        count = rng.randint(n + 1, 6)
        points = set()
        while len(points) < count:
            points.add(tuple(rng.randint(-6, 6) for _ in range(n)))
        points = tuple(sorted(points))
        poly = newton_polytope(points)
        if not poly.full_dimensional:
            continue
        done += 1
        for p in points:
            assert poly.contains(p)
            for facet in poly.facets:
                assert facet.value(p) <= facet.offset
        for i, v in enumerate(poly.vertices):
            assert is_extreme(poly.vertices, i)
        hull_members = [p for p in points if in_hull(poly.vertices, p)]
        assert set(hull_members) == set(points)
        # no non-vertex input point is extreme in the hull point list
        for p in points:
            if p not in poly.vertices:
                assert in_hull(poly.vertices, p)


def test_parallelepiped_limit_is_inclusive(monkeypatch):
    # the segment [-1, 3] is one simplex of normalized volume 4
    monkeypatch.setattr("torus_fiber.polytope.PARALLELEPIPED_LIMIT", 4)
    assert len(lattice_points(newton_polytope(((3,), (-1,))), 1)) == 5
    monkeypatch.setattr("torus_fiber.polytope.PARALLELEPIPED_LIMIT", 3)
    with pytest.raises(LimitExceededError, match="normalized volume 4, above"):
        lattice_points(newton_polytope(((3,), (-1,))), 1)
