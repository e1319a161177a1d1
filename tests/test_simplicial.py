import random
from fractions import Fraction

import pytest

from torus_fiber.errors import InternalConsistencyError, NotSimplicializingError
from torus_fiber.laurent import parse_laurent
from torus_fiber.simplicial import (
    build_data,
    enumerate_choices,
    euler_characteristic,
    extend_polynomial,
    half_space_system,
    linear_forms,
    simplex_volumes,
    support_condition_warnings,
)
from torus_fiber.polytope import newton_polytope


def test_choice_enumeration(quartic):
    choices, truncated = enumerate_choices(quartic)
    assert not truncated
    assert [c.positions for c in choices] == [(0,), (1,), (2,), (3,)]
    assert [c.ordinal for c in choices] == [1, 2, 3, 4]
    assert all(c.n_aux == 1 for c in choices)


def test_choice_enumeration_cap():
    f = parse_laurent("1 + x1 + x2 + x1*x2 + x1^2 + x2^2 + x1^2*x2 + x1*x2^2")
    choices, truncated = enumerate_choices(f, cap=10)
    assert truncated
    assert len(choices) == 10
    assert choices[0].positions == (0, 1, 2, 3, 4)
    full, truncated_full = enumerate_choices(f, cap=None)
    assert not truncated_full
    assert len(full) == 56


def test_too_few_monomials():
    with pytest.raises(NotSimplicializingError):
        enumerate_choices(parse_laurent("x1 + x2"))


def test_extension_rejects_foreign_choice(quartic, quartic_base):
    other = parse_laurent("1 + x1 + x2 + x1*x2 + x1^2*x2^2")
    choices, _ = enumerate_choices(other)
    with pytest.raises(ValueError):
        build_data(quartic, choices[1], quartic_base)


def test_extension_support(quartic, quartic_choices):
    ext = extend_polynomial(quartic, quartic_choices[2])
    assert ext.variables == ("x1", "x2", "u1")
    assert ext.support == ((5, 0, 0), (2, 1, 0), (1, 2, 1), (0, 4, 0))


def test_aux_names_avoid_collision():
    f = parse_laurent("u1^2 + x2^2 + u1^-1*x2^-1 + u1*x2")
    choices, _ = enumerate_choices(f)
    ext = extend_polynomial(f, choices[0])
    assert ext.variables == ("u1", "x2", "aux1")


def test_sigma3_matrix_package(sigma3):
    assert sigma3.matrix == (
        (5, 0, 0, 0, 1),
        (2, 1, 0, 0, 1),
        (1, 2, 1, 0, 1),
        (0, 4, 0, 0, 1),
        (0, 0, 0, 1, 1),
    )
    assert sigma3.row_swap is None
    assert sigma3.gamma == 7
    assert sigma3.adjugate == (
        (3, -4, 0, 1, 0),
        (2, -5, 0, 3, 0),
        (1, -6, 7, -2, 0),
        (8, -20, 0, 5, 7),
        (-8, 20, 0, -5, 0),
    )
    assert sigma3.z_coeffs == (8, -20, 0, 5, 7)
    assert sigma3.u_coeffs == (-8, 20, 0, -5, 0)
    assert sigma3.pos_class == (0, 3, 4)
    assert sigma3.neg_class == (1,)
    assert sigma3.zero_class == (2,)
    assert sigma3.facet_normals == (
        (Fraction(3, 8), Fraction(1, 4), Fraction(1, 8)),
        (Fraction(1, 5), Fraction(1, 4), Fraction(3, 10)),
        (Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(1, 5), Fraction(3, 5), Fraction(-2, 5)),
        (Fraction(0), Fraction(0), Fraction(0)),
    )


def test_sigma1_has_unit_determinant(quartic, quartic_choices, quartic_base):
    data = build_data(quartic, quartic_choices[0], quartic_base)
    assert data.gamma == 1
    assert data.matrix[0] == (5, 0, 1, 0, 1)
    assert data.z_coeffs == (0, 4, -8, 3, 1)


def test_all_quartic_choices_simplicialize(all_sigma_data):
    assert len(all_sigma_data) == 4
    assert [d.gamma for d in all_sigma_data] == [1, 6, 7, 2]


def test_row_swap_restores_positive_determinant(swapped_cubic):
    assert swapped_cubic.row_swap == (0, 1)
    assert swapped_cubic.matrix == (
        (0, 1, 0, 1),
        (1, 0, 0, 1),
        (-1, -1, 0, 1),
        (0, 0, 1, 1),
    )
    assert swapped_cubic.gamma == 3
    assert swapped_cubic.z_coeffs == (-1, -1, -1, 3)
    assert swapped_cubic.u_coeffs == (1, 1, 1, 0)
    assert swapped_cubic.facet_normals[:3] == (
        (Fraction(1), Fraction(-2)),
        (Fraction(-2), Fraction(1)),
        (Fraction(1), Fraction(1)),
    )


def test_swapped_quartic_package(swapped_quartic):
    assert swapped_quartic.row_swap == (0, 1)
    assert swapped_quartic.gamma == 8
    assert swapped_quartic.z_coeffs == (-2, -2, -4, 8)
    assert swapped_quartic.exponent_coeffs[:3] == ((-1, 3), (3, -1), (-2, -2))
    assert simplex_volumes(swapped_quartic) == (2, 2, 4, 8)


def test_degenerate_support_rejected():
    f = parse_laurent("x1*x2 + x1^2 + x2^2")
    choices, _ = enumerate_choices(f)
    with pytest.raises(NotSimplicializingError):
        build_data(f, choices[0], newton_polytope(f.support))


def test_simplex_volumes_golden(sigma3):
    assert simplex_volumes(sigma3) == (8, 20, 0, 5, 7)


def test_euler_characteristic(sigma3, swapped_cubic):
    e = euler_characteristic(sigma3)
    assert e.chi == 20
    assert e.closure_volume == 20
    e = euler_characteristic(swapped_cubic)
    assert e.chi == -3
    assert e.closure_volume == 3


def test_linear_forms_golden(sigma3):
    forms = linear_forms(sigma3, (1, 2, 1))
    assert [f.kind for f in forms] == ["facet", "facet", "constant", "facet", "z"]
    assert [f.constant for f in forms] == [0, 0, 1, 0, 0]
    assert [f.slope for f in forms] == [
        Fraction(8, 7),
        Fraction(-20, 7),
        Fraction(0),
        Fraction(5, 7),
        Fraction(1),
    ]
    assert forms[0].at(7) == 8
    with pytest.raises(ValueError):
        linear_forms(sigma3, (1, 2))


def test_half_space_system_golden(sigma3):
    system = half_space_system(sigma3)
    assert system == (
        ((-3, -2, -1), -8),
        ((-1, -3, 2), -5),
        ((0, 0, -1), 0),
        ((4, 5, 6), 20),
    )


def test_preserved_faces_golden(sigma3):
    spans = [
        (g.dimension, tuple(sigma3.base_polytope.vertices[i] for i in g.vertex_indices))
        for g in sigma3.preserved_faces
    ]
    assert spans == [
        (0, ((0, 4),)),
        (0, ((2, 1),)),
        (0, ((5, 0),)),
        (1, ((0, 4), (5, 0))),
        (1, ((2, 1), (5, 0))),
    ]


def test_support_condition_warning():
    f = parse_laurent("x1^2 + x2^2 + x1^-2*x2^-2 + x1")
    base = newton_polytope(f.support)
    warnings = support_condition_warnings(f, base)
    assert len(warnings) == 1
    assert "(1, 0)" in warnings[0]
    choices, _ = enumerate_choices(f)
    data = build_data(f, choices[-1], base)
    assert data.warnings == warnings


def _random_unit_polynomial(rng):
    n = rng.randint(2, 3)
    m = rng.randint(n + 1, 6)
    support = set()
    while len(support) < m:
        support.add(tuple(rng.randint(-5, 5) for _ in range(n)))
    names = tuple(f"x{i}" for i in range(1, n + 1))
    from torus_fiber.laurent import LaurentPolynomial

    return LaurentPolynomial.from_support(names, sorted(support))


def test_random_inverse_invariants():
    rng = random.Random(424242)
    built = 0
    while built < 20:
        f = _random_unit_polynomial(rng)
        choices, _ = enumerate_choices(f)
        base = newton_polytope(f.support)
        data = None
        for choice in choices:
            try:
                data = build_data(f, choice, base)
                break
            except NotSimplicializingError:
                continue
        if data is None:
            continue
        g = data.gamma
        assert g > 0
        assert sum(data.z_coeffs) == 0
        assert sum(data.u_coeffs) == g
        assert all(
            data.u_coeffs[q] == -data.z_coeffs[q] for q in range(data.m)
        )
        width = data.m + 1
        for i in range(width):
            for j in range(width):
                acc = sum(data.adjugate[i][r] * data.matrix[r][j] for r in range(width))
                assert acc == (g if i == j else 0)
        assert simplex_volumes(data) == tuple(abs(b) for b in data.z_coeffs)
        half_space_system(data)  # raises on any hull mismatch
        euler_characteristic(data)
        built += 1
    assert built == 20
