import math
import random
import re
from fractions import Fraction

import pytest

from torus_fiber import lattice
from torus_fiber.errors import (
    ConeMembershipError,
    InternalConsistencyError,
    NotFullDimensionalError,
    OriginNotContainedError,
)
from torus_fiber.lattice import (
    _dilate_counts,
    classify_monomial,
    dilation_degree,
    ehrhart,
    filtration_degree,
    lattice_points,
    normalized_volume,
)
from torus_fiber.polytope import newton_polytope

from oracles import box_count

QUARTIC_SUPPORT = ((5, 0), (2, 1), (1, 2), (0, 4))
# a support whose Newton polytope is one triangle, of normalized volume 3
TRIANGLE = "x1 + x2 + x1^-1*x2^-1"


def test_unit_simplex_counts():
    poly = newton_polytope(((0, 0), (1, 0), (0, 1)))
    data = ehrhart(poly)
    assert data.counts == (1, 3, 6, 10)
    assert data.psi == (1, 0, 0, 0)
    assert data.phi == (0, 0, 0, 1)
    assert data.normalized_volume == 1


def test_unit_square_counts():
    poly = newton_polytope(((0, 0), (1, 0), (0, 1), (1, 1)))
    data = ehrhart(poly)
    assert data.counts == (1, 4, 9, 16)
    assert data.interior_counts == (0, 0, 1, 4)
    # transform vector is (1, 1, 0) padded with the degree-check zero
    assert data.psi == (1, 1, 0, 0)
    assert data.phi == (0, 0, 1, 1)
    assert data.normalized_volume == 2


def test_unit_cube_counts():
    poly = newton_polytope(
        [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    )
    assert ehrhart(poly).psi == (1, 4, 1, 0, 0)


def test_quartic_closure_ehrhart(sigma3):
    poly = sigma3.closure_polytope
    assert poly.vertices == ((0, 0, 0), (0, 4, 0), (1, 2, 1), (5, 0, 0))
    data = ehrhart(poly)
    assert data.counts == (1, 17, 68, 174, 355)
    assert data.interior_counts == (0, 0, 6, 37, 113)
    assert data.psi == (1, 13, 6, 0, 0)
    assert data.phi == (0, 0, 6, 13, 1)
    assert data.normalized_volume == 20
    assert sum(data.psi) == 20


def test_lattice_point_enumeration_small():
    poly = newton_polytope(((0, 0), (1, 0), (0, 1)))
    assert lattice_points(poly, 1) == ((0, 0), (0, 1), (1, 0))
    assert lattice_points(poly, 0) == ((0, 0),)
    # (points, interior points): (1, 1) alone lies inside the 3-fold dilate
    assert _dilate_counts(poly, 3) == (10, 1)
    assert _dilate_counts(poly, 2) == (6, 0)


def test_thin_support_counts_match_box_oracle():
    # five vertices, two simplices sharing a facet: the points on the
    # shared facet are counted once
    poly = newton_polytope(((1, 0, 0), (0, 1, 0), (0, 0, 1), (6, 6, 7), (7, 6, 7)))
    assert len(poly.vertices) == 5 and len(poly.triangulation) == 2
    for k in range(5):
        assert _dilate_counts(poly, k) == box_count(poly.vertices, k)


# planted counting faults: (points, interior points) of the k-fold dilate
# from the true pair, each caught by its own check of ``ehrhart``
COUNT_PLANTS = {
    "boundary points only": (
        lambda total, interior: (total - interior, interior),
        "count sequence (1, 4, 8, 12) is not polynomial of degree 2",
    ),
    "one interior point dropped": (
        lambda total, interior: (total, interior - 1),
        "negative transform entries: psi=(1, 4, 3, 0) phi=(-1, 5, 3, 1)",
    ),
    "no interior point": (
        lambda total, interior: (total, 0),
        "reciprocity failed at index 1: psi=(1, 4, 3, 0) phi=(0, 0, 0, 0)",
    ),
}


@pytest.mark.parametrize("name", COUNT_PLANTS)
def test_wrong_dilate_counts_fail_loudly(name, quartic_exits_3, monkeypatch):
    fault, message = COUNT_PLANTS[name]
    counts = lattice._dilate_counts
    monkeypatch.setattr(lattice, "_dilate_counts", lambda poly, k: fault(*counts(poly, k)))
    with pytest.raises(InternalConsistencyError, match=re.escape(message)):
        ehrhart(newton_polytope(QUARTIC_SUPPORT))
    quartic_exits_3(message, "polytope")


def test_wrong_normalized_volume_fails_loudly(quartic_exits_3, monkeypatch):
    volume = lattice.normalized_volume
    monkeypatch.setattr(lattice, "normalized_volume", lambda poly: volume(poly) + 1)
    message = "transform sum 8 != normalized volume 9"
    with pytest.raises(InternalConsistencyError, match=message):
        ehrhart(newton_polytope(QUARTIC_SUPPORT))
    quartic_exits_3(message, "polytope")


def test_counts_of_another_simplex_fail_loudly(exits_3, monkeypatch):
    # the counts of a triangle of the same normalized volume, 3, pass
    # every check but the parallelepiped histogram, which only a simplex
    # has
    other = newton_polytope(((0, 0), (3, 0), (0, 1)))
    counts = lattice._dilate_counts
    monkeypatch.setattr(lattice, "_dilate_counts", lambda poly, k: counts(other, k))
    message = "psi=(1, 2, 0, 0) is not the histogram of parallelepiped heights [0, 1, 2]"
    with pytest.raises(InternalConsistencyError, match=re.escape(message)):
        ehrhart(newton_polytope(((1, 0), (0, 1), (-1, -1))))
    exits_3(TRIANGLE, message, "polytope")


def test_triangulation_covers_volume():
    poly = newton_polytope(QUARTIC_SUPPORT)
    simplices = poly.triangulation
    assert all(len(s) == 3 for s in simplices)
    assert normalized_volume(poly) == 8


def test_ehrhart_requires_full_dimension():
    poly = newton_polytope(((0, 0), (1, 1), (2, 2)))
    with pytest.raises(NotFullDimensionalError):
        ehrhart(poly)


def test_dilation_degree_needs_origin():
    poly = newton_polytope(QUARTIC_SUPPORT)
    with pytest.raises(OriginNotContainedError):
        dilation_degree(poly, (2, 1))


def test_dilation_degree_on_closure(sigma3):
    poly = sigma3.closure_polytope
    assert dilation_degree(poly, (1, 2, 1)) == 1
    assert dilation_degree(poly, (2, 4, 2)) == 2
    assert dilation_degree(poly, (5, 0, 0)) == 1
    assert dilation_degree(poly, (10, 0, 0)) == 2
    with pytest.raises(ConeMembershipError) as err:
        dilation_degree(poly, (1, 1, 1))
    assert err.value.witness is not None


def test_filtration_degree_interval():
    # no origin inside: feasible dilations form an interval, maybe empty
    poly = newton_polytope(QUARTIC_SUPPORT)
    assert filtration_degree(poly, (2, 1)) == 1
    assert filtration_degree(poly, (9, 9)) == 5
    assert filtration_degree(poly, (100, 0)) == 20
    assert filtration_degree(poly, (6, 0)) is None
    assert filtration_degree(poly, (-1, -1)) is None


def test_classify_monomial_golden(sigma3):
    poly = sigma3.closure_polytope
    cls = classify_monomial(poly, (1, 2, 1))
    assert cls.degree_k == 1
    assert cls.hodge_p == 2
    assert cls.weight_w == 5
    assert cls.stratum.dimension == 0
    deeper = classify_monomial(poly, (2, 4, 2))
    assert deeper.degree_k == 2
    assert deeper.hodge_p == 1
    assert deeper.weight_w == 5
    inner = classify_monomial(poly, (1, 0, 0))
    assert (inner.degree_k, inner.hodge_p, inner.weight_w) == (1, 2, 4)


def _random_full_poly(rng, n):
    while True:
        count = rng.randint(n + 1, n + 4)
        pts = [
            tuple(rng.randint(-6, 6) if n < 3 else rng.randint(0, 6) for _ in range(n))
            for _ in range(count)
        ]
        poly = newton_polytope(pts)
        if poly.full_dimensional:
            return poly


def _transform(seq, n):
    return tuple(
        sum((-1) ** i * math.comb(n + 1, i) * seq[j - i] for i in range(j + 1))
        for j in range(n + 2)
    )


def test_random_ehrhart_against_box_oracle():
    rng = random.Random(20260822)
    done = 0
    while done < 50:
        n = rng.randint(1, 3)
        poly = _random_full_poly(rng, n)
        data = ehrhart(poly)
        for k in range(n + 2):
            total, interior = box_count(poly.vertices, k)
            assert data.counts[k] == total
            assert data.interior_counts[k] == interior
        # reciprocity: t^{n+1} Psi(1/t) = Phi(t), checked coefficientwise
        assert data.phi == tuple(reversed(data.psi))
        assert _transform(data.counts, n) == data.psi
        assert sum(data.psi) == data.normalized_volume
        done += 1


def test_random_classification_consistency():
    rng = random.Random(7)
    done = 0
    while done < 25:
        n = rng.randint(2, 3)
        poly = _random_full_poly(rng, n)
        if not poly.contains((0,) * n):
            continue
        if any(f.offset < 0 for f in poly.facets):
            continue
        vec = tuple(rng.randint(-8, 8) for _ in range(n))
        if all(x == 0 for x in vec):
            continue
        try:
            cls = classify_monomial(poly, vec)
        except ConeMembershipError as err:
            normal, offset = err.witness
            assert offset == 0
            assert sum(a * b for a, b in zip(normal, vec)) > 0
            continue
        k = cls.degree_k
        assert filtration_degree(poly, vec) == k
        assert cls.hodge_p == n - k
        assert n - 1 <= cls.weight_w <= 2 * n - 1
        point = tuple(Fraction(x, k) for x in vec)
        assert poly.contains(point)
        if k > 1:
            scaled = tuple(Fraction(x, k - 1) for x in vec)
            assert not poly.contains(scaled)
        done += 1
