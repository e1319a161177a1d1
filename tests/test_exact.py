import random
from fractions import Fraction

import pytest

from torus_fiber.errors import InternalConsistencyError
from torus_fiber.exact import adjugate, int_det, mat_rank, nullspace, pivot_columns
from torus_fiber.polytope import newton_polytope
from torus_fiber.simplicial import build_data

sympy = pytest.importorskip("sympy")


def _random_matrices(seed: int, count: int):
    """Integer matrices of every small shape; about half are products of
    thinner factors, so singular and rank-deficient ones are common."""
    rng = random.Random(seed)
    for _ in range(count):
        rows = rng.randint(1, 6)
        cols = rows if rng.random() < 0.5 else rng.randint(1, 7)
        inner = rng.randint(1, min(rows, cols))
        if rng.random() < 0.5:
            left = sympy.Matrix(rows, inner, lambda i, j: rng.randint(-4, 4))
            right = sympy.Matrix(inner, cols, lambda i, j: rng.randint(-4, 4))
            mat = left * right
        else:
            mat = sympy.Matrix(rows, cols, lambda i, j: rng.randint(-9, 9))
        yield [[int(x) for x in mat.row(i)] for i in range(rows)], mat


def test_kernels_match_sympy():
    deficient = set()
    singular = 0
    for rows, mat in _random_matrices(20260, 400):
        rank = mat.rank()
        deficient.add(rank < min(mat.shape))
        assert mat_rank(rows) == rank
        assert pivot_columns(rows) == list(mat.rref()[1])

        basis = nullspace(rows)
        reference = mat.nullspace()
        assert len(basis) == len(reference)
        for v, w in zip(basis, reference):
            # same line, same orientation: v is a positive multiple of w
            lead = next(i for i, x in enumerate(w) if x != 0)
            scale = sympy.Rational(v[lead], 1) / w[lead]
            assert scale > 0
            assert [sympy.Rational(x) for x in v] == [scale * x for x in w]

        if mat.is_square:
            det = int(mat.det())
            assert int_det(rows) == det
            got_det, adj = adjugate(rows)
            assert got_det == det
            if det == 0:
                singular += 1
                assert adj is None
            else:
                want = mat.adjugate()
                assert adj == tuple(
                    tuple(int(x) for x in want.row(i)) for i in range(mat.rows)
                )
    assert deficient == {True, False}
    assert singular > 10


def test_empty_and_rejected_inputs():
    assert int_det(()) == 1
    assert mat_rank(()) == 0
    assert pivot_columns(()) == []
    with pytest.raises(TypeError):
        mat_rank([[Fraction(1, 2), 1]])


# the quartic has M = 4 monomials; row M - 1 of the adjugate is B, row M
# is C and column M holds B_M, C_M and E_M, which the entrywise identity
# alone fixes
M = 4
TAMPERS = sorted({(0, 0)} | {(r, j) for r in (M - 1, M) for j in range(M + 1)}
                 | {(i, M) for i in range(M + 1)})


@pytest.mark.parametrize("row, col", TAMPERS)
def test_tampered_adjugate_is_caught(row, col, quartic, quartic_choices, quartic_exits_3,
                                     monkeypatch):
    def tampered(matrix):
        det, adj = adjugate(matrix)
        rows = [list(r) for r in adj]
        rows[row][col] += 1
        return det, tuple(tuple(r) for r in rows)

    assert len(quartic.support) == M
    monkeypatch.setattr("torus_fiber.simplicial.adjugate", tampered)
    with pytest.raises(InternalConsistencyError, match="adjugate times matrix"):
        build_data(quartic, quartic_choices[2], newton_polytope(quartic.support))
    quartic_exits_3("adjugate times matrix is not", "sigma", "--sigma", "3")


def test_hull_is_blind_to_point_order_and_held_per_choice(sigma3):
    canonical = ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1))
    shuffled = list(canonical) * 2
    random.Random(7).shuffle(shuffled)
    assert newton_polytope(shuffled) == newton_polytope(canonical)
    assert newton_polytope(canonical[:4]) != newton_polytope(canonical)
    # a choice builds each of its hulls once and holds it
    assert sigma3.extended_polytope is sigma3.extended_polytope
    assert sigma3.closure_polytope is sigma3.closure_polytope
