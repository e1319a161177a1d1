"""Seeded property tests for the integer lattice paths.

``minimal_face_of`` meets an integer vector against ``k`` times the facet
offsets; ``dilation_degree`` and ``filtration_degree`` read the smallest
dilate off the facets in closed form.  Each is compared here with an
oracle that does not use the facet description that way: the face from a
``Fraction`` convex-hull membership test on ``v / k``, the degrees from
a scan over k.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from torus_fiber.errors import ConeMembershipError
from torus_fiber.lattice import dilation_degree, filtration_degree
from torus_fiber.polytope import minimal_face_of, newton_polytope

from oracles import in_hull


def _random_full_poly(rng, n, origin=False, low=-4):
    while True:
        pts = [
            tuple(rng.randint(low, 4) for _ in range(n))
            for _ in range(rng.randint(n + 1, n + 4))
        ]
        if origin:
            pts.append((0,) * n)
        poly = newton_polytope(pts)
        if poly.full_dimensional:
            return poly


def _oracle_face(poly, vector, k):
    """The face of smallest dimension whose vertex hull holds ``vector / k``
    (exact ``Fraction`` simplex test), or None when ``poly`` misses it."""
    point = tuple(Fraction(x, k) for x in vector)
    holding = [
        face for face in poly.faces
        if in_hull(list(poly.face_points(face)), point)
    ]
    return min(holding, key=lambda f: f.dimension) if holding else None


def _vectors(rng, poly, k):
    """Vectors inside, on the boundary of and outside the k-th dilate."""
    n = poly.ambient_dim
    verts = poly.vertices
    a, b = rng.choice(verts), rng.choice(verts)
    yield tuple(k * x for x in a)
    if k % 2 == 0:
        yield tuple((k // 2) * (x + y) for x, y in zip(a, b))
    lows = [k * min(c) - 2 for c in zip(*verts)]
    highs = [k * max(c) + 2 for c in zip(*verts)]
    for _ in range(4):
        yield tuple(rng.randint(lo, hi) for lo, hi in zip(lows, highs))
    yield tuple(rng.randint(-12, 12) for _ in range(n))


def test_minimal_face_matches_fraction_oracle():
    rng = random.Random(4101)
    seen = Counter()
    for _ in range(40):
        n = rng.choice((2, 2, 3))
        poly = _random_full_poly(rng, n)
        for k in (1, 2, 3):
            for vector in _vectors(rng, poly, k):
                want = _oracle_face(poly, vector, k)
                if want is None:
                    with pytest.raises(ValueError):
                        minimal_face_of(poly, vector, k)
                    seen["outside"] += 1
                    continue
                got = minimal_face_of(poly, vector, k)
                assert got == want, (poly.vertices, vector, k)
                seen["whole" if got.dimension == n else got.dimension] += 1
    # every kind of answer was exercised
    assert seen["outside"] and seen["whole"] and seen[0] and seen[1]


def _brute_degree(poly, vector):
    """Smallest k >= 1 with ``vector / k`` in ``poly``, scanning k.

    The valid k form an interval whose low end, when it exists, is at most
    ``max(1, <normal, vector>)`` over the facets (offsets are integers, and
    each positive one is at least 1), so scanning to that bound decides.
    """
    bound = max([1] + [sum(c * x for c, x in zip(f.normal, vector)) for f in poly.facets])
    for k in range(1, bound + 1):
        point = tuple(Fraction(x, k) for x in vector)
        if all(
            sum(c * x for c, x in zip(f.normal, point)) <= f.offset for f in poly.facets
        ):
            return k
    return None


def test_degrees_match_brute_force():
    rng = random.Random(4102)
    outcomes = Counter()
    for _ in range(60):
        n = rng.choice((2, 3))
        # with the origin, inside or on the boundary; or away from it,
        # where negative offsets cap the dilates from above
        poly = _random_full_poly(rng, n, rng.random() < 0.5, rng.choice((-4, 1)))
        for vector in [v for k in (1, 2, 3) for v in _vectors(rng, poly, k)]:
            want = _brute_degree(poly, vector)
            assert filtration_degree(poly, vector) == want, (poly.vertices, vector)
            outcomes["none" if want is None else "found"] += 1
            if not poly.contains((0,) * n):
                continue
            if want is None:
                with pytest.raises(ConeMembershipError):
                    dilation_degree(poly, vector)
                outcomes["outside_cone"] += 1
            else:
                assert dilation_degree(poly, vector) == want
                outcomes["in_cone"] += 1
    assert all(outcomes[key] for key in ("none", "found", "outside_cone", "in_cone"))
