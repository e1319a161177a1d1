from dataclasses import replace
from fractions import Fraction

import pytest

from torus_fiber.cli import main
from torus_fiber.cyclotomic import mat_mul, mat_pow
from torus_fiber.errors import InternalConsistencyError, ResonantExponentError
from torus_fiber.hypergeom import (
    ExponentSets,
    characteristic_polynomials,
    frobenius_series,
    jordan_report,
    local_exponents,
    monodromy,
    reduced_operator,
    simple_nonresonant_exponents,
    theta_operators,
    verify_annihilation,
    verify_exponent_bridge,
)
from torus_fiber.laurent import parse_laurent
from torus_fiber.polytope import newton_polytope
from torus_fiber.simplicial import build_data, enumerate_choices

from oracles import conjugation_chain, cyclic_expansion, matmul

J = (1, 2, 1)


@pytest.fixture(scope="module")
def tiny():
    f = parse_laurent("x1 + x1^-1")
    choices, _ = enumerate_choices(f)
    return build_data(f, choices[0], newton_polytope(f.support))


def test_local_exponents_golden(sigma3):
    sets = local_exponents(sigma3, J)
    expected_plus = sorted(
        [Fraction(j, 8) for j in range(8)]
        + [Fraction(j, 5) for j in range(5)]
        + [Fraction(j + 1, 7) for j in range(7)]
    )
    expected_minus = sorted(Fraction(-j, 20) for j in range(1, 21))
    assert sets.plus == tuple(expected_plus)
    assert sets.minus == tuple(expected_minus)
    assert sets.common == ()
    assert sets.reduced_plus == sets.plus
    assert sets.reduced_minus == sets.minus
    assert sets.reduced_order == 20


def test_theta_bridge(sigma3):
    shape = theta_operators(sigma3, J)
    sets = local_exponents(sigma3, J)
    assert len(shape.p_roots) == 20
    assert len(shape.q_roots) == 20
    assert shape.gamma == 7
    verify_exponent_bridge(shape, sets)


@pytest.mark.parametrize("side, field", [("plus", "p_roots"), ("minus", "q_roots")])
def test_theta_bridge_checks_both_sides(sigma3, side, field):
    # one more unit on every root moves each Kummer root by 1/gamma
    shape = theta_operators(sigma3, J)
    moved = replace(shape, **{field: tuple(r + 1 for r in getattr(shape, field))})
    with pytest.raises(InternalConsistencyError, match=f"{side} exponents"):
        verify_exponent_bridge(moved, local_exponents(sigma3, J))


def test_reduced_operator_golden(sigma3):
    sets = local_exponents(sigma3, J)
    op = reduced_operator(sets)
    assert op.order == 20
    assert op.plus_shifts == sets.plus
    assert op.minus_shifts == tuple(
        sorted(Fraction(1) - Fraction(j, 20) for j in range(1, 21))
    )
    assert op.indicial_roots == tuple(sorted(-a for a in sets.plus))


def test_multiset_cancellation(tiny):
    # the shared exponent 1 drops out of both sides, leaving order 1
    sets = local_exponents(tiny, (3,))
    assert sets.plus == (Fraction(1, 2), Fraction(1))
    assert sets.minus == (Fraction(-2), Fraction(1))
    assert sets.common == (Fraction(1),)
    assert sets.reduced_plus == (Fraction(1, 2),)
    assert sets.reduced_minus == (Fraction(-2),)
    assert sets.reduced_order == 1


def test_simple_exponent_selection(sigma3):
    op = reduced_operator(local_exponents(sigma3, J))
    simple = simple_nonresonant_exponents(op)
    assert len(simple) == 17
    assert Fraction(-7, 8) in simple
    # 0 is a double root and -1 sits an integer below it: neither is simple
    assert Fraction(0) not in simple
    assert Fraction(-1) not in simple
    assert op.indicial_roots.count(Fraction(0)) == 2


def test_frobenius_square_root_series():
    # (theta + 1/2) - t (theta + 1) annihilates (1 - t)^(-1/2)
    sets = ExponentSets(
        plus=(Fraction(1, 2),),
        minus=(Fraction(0),),
        common=(),
        reduced_plus=(Fraction(1, 2),),
        reduced_minus=(Fraction(0),),
    )
    op = reduced_operator(sets)
    assert op.plus_shifts == (Fraction(1, 2),)
    assert op.minus_shifts == (Fraction(1),)
    series = frobenius_series(op, Fraction(-1, 2), count=4)
    assert series.coefficients == (
        Fraction(1),
        Fraction(1, 2),
        Fraction(3, 8),
        Fraction(5, 16),
        Fraction(35, 128),
    )
    verify_annihilation(op, series)


def test_frobenius_tiny_fixture(tiny):
    op = reduced_operator(local_exponents(tiny, (3,)))
    assert op.plus_shifts == (Fraction(1, 2),)
    assert op.minus_shifts == (Fraction(-1),)
    series = frobenius_series(op, Fraction(-1, 2), count=5)
    assert series.coefficients == (
        Fraction(1),
        Fraction(-3, 2),
        Fraction(3, 8),
        Fraction(1, 16),
        Fraction(3, 128),
        Fraction(3, 256),
    )
    verify_annihilation(op, series)


def test_frobenius_all_simple_exponents(sigma3):
    op = reduced_operator(local_exponents(sigma3, J))
    for rho in simple_nonresonant_exponents(op):
        series = frobenius_series(op, rho, count=25)
        assert len(series.coefficients) == 26
        assert series.coefficients[0] == 1
        verify_annihilation(op, series)


def test_frobenius_refusals():
    resonant = ExponentSets(
        plus=(Fraction(0), Fraction(-1)),
        minus=(Fraction(1, 3), Fraction(2, 3)),
        common=(),
        reduced_plus=(Fraction(-1), Fraction(0)),
        reduced_minus=(Fraction(1, 3), Fraction(2, 3)),
    )
    op = reduced_operator(resonant)
    with pytest.raises(ResonantExponentError):
        frobenius_series(op, Fraction(0))
    doubled = ExponentSets(
        plus=(Fraction(1, 2), Fraction(1, 2)),
        minus=(Fraction(1, 3), Fraction(2, 3)),
        common=(),
        reduced_plus=(Fraction(1, 2), Fraction(1, 2)),
        reduced_minus=(Fraction(1, 3), Fraction(2, 3)),
    )
    with pytest.raises(ResonantExponentError):
        frobenius_series(reduced_operator(doubled), Fraction(-1, 2))
    with pytest.raises(ResonantExponentError):
        frobenius_series(op, Fraction(1, 7))


def test_order_zero_operator():
    empty = ExponentSets(plus=(), minus=(), common=(), reduced_plus=(), reduced_minus=())
    op = reduced_operator(empty)
    assert op.order == 0
    assert op.indicial_roots == ()
    with pytest.raises(ResonantExponentError):
        frobenius_series(op, Fraction(0))


def test_characteristic_polynomials_golden(sigma3):
    char = characteristic_polynomials(sigma3, J)
    assert char.modulus == 280
    assert char.order == 20
    expected_zero = cyclic_expansion(8, 5, 7)
    assert expected_zero[:9] == [-1, 0, 0, 0, 0, 1, 0, 1, 1]
    assert all(
        char.x_zero[i] == expected_zero[i] for i in range(21)
    )
    expected_inf = cyclic_expansion(20)
    assert all(
        char.x_infinity[i] == expected_inf[i] for i in range(21)
    )
    assert char.x_zero_const == -1
    assert char.x_infinity_const == -1
    assert char.unit_multiplicity == 3


def test_characteristic_polynomials_tiny(tiny):
    char = characteristic_polynomials(tiny, (3,))
    assert char.modulus == 2
    assert char.order == 1
    assert [str(c) for c in char.x_zero] == ["1", "1"]
    assert [str(c) for c in char.x_infinity] == ["-1", "1"]
    assert char.unit_multiplicity == 0


def test_monodromy_one_by_one(tiny):
    data = monodromy(tiny, (3,))
    assert data.order == 1
    assert data.h_zero[0][0] == -1
    assert data.h_infinity[0][0] == 1
    assert data.h_infinity_inverse[0][0] == 1
    assert data.h_one[0][0] == -1
    assert data.max_eigenvalue_deviation == 0.0
    assert data.singular.ratio == 2
    assert data.singular.gamma == 2
    positions = data.singular.positions()
    assert len(positions) == 2
    assert abs(abs(positions[0]) - 2 ** 0.5) < 1e-12


# (fixture, vector): the golden quartic's entries are integers; the
# cubic's lie in Z[zeta_3], with multi-term constants such as 3 + 3 zeta_3
MONODROMY_INPUTS = {"quartic": ("sigma3", J), "cubic": ("swapped_cubic", (0, 2))}
# order, modulus, singular ratio, gamma
MONODROMY_GOLDEN = {"quartic": (20, 280, -14, 7), "cubic": (2, 3, -3, 3)}


@pytest.mark.parametrize("name", MONODROMY_INPUTS)
def test_monodromy_golden(request, name):
    fixture, vector = MONODROMY_INPUTS[name]
    order, modulus, ratio, gamma = MONODROMY_GOLDEN[name]
    data = monodromy(request.getfixturevalue(fixture), vector)
    assert data.order == order
    assert data.modulus == modulus
    assert data.max_eigenvalue_deviation <= 1e-10
    assert data.singular.ratio == ratio
    assert data.singular.gamma == gamma
    assert len(data.singular.positions()) == gamma
    chain = conjugation_chain(
        data.h_one, data.h_infinity, data.h_infinity_inverse, gamma, modulus
    )
    assert len(chain) == gamma
    # product-one relation, re-multiplied here exactly over Z[zeta_m]
    product = matmul(
        matmul(data.h_zero, data.h_infinity, modulus), data.h_one, modulus
    )
    for i in range(order):
        for j in range(order):
            assert product[i][j] == (1 if i == j else 0)


@pytest.mark.parametrize("name", MONODROMY_INPUTS)
def test_monodromy_matrix_products_grow_with_log_gamma(request, name, monkeypatch):
    # five products for the inverse and product-one relations, and the
    # binary powering of h_infinity for the spectrum check
    fixture, vector = MONODROMY_INPUTS[name]
    data = request.getfixturevalue(fixture)
    calls = []

    def counted(a, b):
        calls.append(1)
        return mat_mul(a, b)

    monkeypatch.setattr("torus_fiber.cyclotomic.mat_mul", counted)
    monkeypatch.setattr("torus_fiber.hypergeom.mat_mul", counted)
    monodromy(data, vector)
    assert 5 < len(calls) <= 5 + 2 * data.gamma.bit_length()


def test_spectrum_check_fails_loudly(swapped_cubic, monkeypatch):
    # one power too many of the turn at infinity: its trace, 2 at the
    # power gamma = 3, becomes -2 - 2 zeta_3
    monkeypatch.setattr(
        "torus_fiber.hypergeom.mat_pow", lambda a, k: mat_pow(a, k + 1)
    )
    with pytest.raises(InternalConsistencyError, match="h_infinity\\^gamma"):
        monodromy(swapped_cubic, (0, 2))


def test_levelt_rank_check_fails_loudly(sigma3, tmp_path, capsys, monkeypatch):
    # h_one - 1 always has rank at most one (Levelt); when that check
    # fails, there is no floating fallback: the library raises and the
    # CLI exits 3 naming the check
    monkeypatch.setattr("torus_fiber.hypergeom._rank_at_most_one", lambda mat: False)
    with pytest.raises(InternalConsistencyError, match="does not have rank one"):
        monodromy(sigma3, J)
    path = tmp_path / "quartic.txt"
    path.write_text("x1^5 + x1^2*x2 + x1*x2^2 + x2^4\n")
    assert main(["monodromy", str(path), "--sigma", "3", "--J", "1,2,1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "h_one - 1 does not have rank one" in captured.err


@pytest.mark.parametrize("name", MONODROMY_INPUTS)
def test_around_matrices_conjugate(request, name):
    fixture, vector = MONODROMY_INPUTS[name]
    data = monodromy(request.getfixturevalue(fixture), vector)
    chain = conjugation_chain(
        data.h_one, data.h_infinity, data.h_infinity_inverse,
        data.singular.gamma, data.modulus,
    )
    # successive turns differ by conjugation with the turn at infinity,
    # so all of them share the characteristic polynomial of h_one
    for left, right in zip(chain, chain[1:]):
        lhs = matmul(data.h_infinity, right, data.modulus)
        rhs = matmul(left, data.h_infinity, data.modulus)
        for i in range(data.order):
            for j in range(data.order):
                assert lhs[i][j] == rhs[i][j]


def test_jordan_report_golden(sigma3):
    report = jordan_report(sigma3, J)
    assert report.block_size == 3
    assert report.unit_multiplicity == 3
    assert report.tight_count == 2
    assert report.common_integer_count == 0
    assert report.consistent


def test_jordan_report_mismatch_is_reported(sigma3):
    report = jordan_report(sigma3, (4, 5, 2))
    assert report.block_size == 3
    assert report.unit_multiplicity == 1
    assert not report.consistent
