from dataclasses import replace
from fractions import Fraction

import pytest

from torus_fiber import hypergeom, report
from torus_fiber.cyclotomic import CycValue
from torus_fiber.errors import (
    InternalConsistencyError,
    LimitExceededError,
    ResonantExponentError,
)
from torus_fiber.hypergeom import (
    ExponentSets,
    OneColumn,
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
from torus_fiber.report import monodromy_block
from torus_fiber.simplicial import build_data, enumerate_choices

from oracles import companion, conjugation_chain, cyclic_expansion, matmul, trace

J = (1, 2, 1)
# the golden quartic's CLI request for J, whose checks the plants break
REQUEST = ("monodromy", "--sigma", "3", "--J", "1,2,1")


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
def test_theta_bridge_checks_both_sides(sigma3, side, field, quartic_exits_3, monkeypatch):
    # one more unit on every root moves each Kummer root by 1/gamma
    shape = theta_operators(sigma3, J)
    moved = replace(shape, **{field: tuple(r + 1 for r in getattr(shape, field))})
    with pytest.raises(InternalConsistencyError, match=f"{side} exponents"):
        verify_exponent_bridge(moved, local_exponents(sigma3, J))
    monkeypatch.setattr(report, "theta_operators", lambda data, vector: moved)
    quartic_exits_3(f"{side} exponents and theta roots disagree modulo 1", *REQUEST)


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
    assert char.x_zero[0] == -1
    assert char.x_infinity[0] == -1
    assert char.unit_multiplicity == 3


def test_characteristic_polynomials_tiny(tiny):
    char = characteristic_polynomials(tiny, (3,))
    assert char.modulus == 2
    assert char.order == 1
    assert [str(c) for c in char.x_zero] == ["1", "1"]
    assert [str(c) for c in char.x_infinity] == ["-1", "1"]
    assert char.unit_multiplicity == 0


def assert_determinant_unit_exact(data, vector, md):
    """det(h_one), its entry (0, 0), is exactly the root of unity its
    exponents fix, so it lies on the unit circle, and the rendered block
    reads that exact 0 as its deviation.

    h_one is the identity outside column 0, so this entry is also the
    one eigenvalue of h_one other than 1 and fixes its trace.  The
    runtime has no check of that trace: it builds the entry as the very
    product x_infinity[0] * x_zero^-1 whose determinant unit it checks,
    so only this assertion reads the entry itself."""
    sets = local_exponents(data, vector)
    phase = sum(sets.reduced_plus) - sum(sets.reduced_minus)
    assert md.h_one.values[0] == CycValue.from_phase(md.modulus, phase)
    assert monodromy_block(md)["max_eigenvalue_deviation"] == 0.0


def test_monodromy_one_by_one(tiny):
    data = monodromy(tiny, (3,))
    assert data.order == 1
    assert data.h_zero.rows() == ((-1,),)
    assert data.h_infinity.rows() == ((1,),)
    assert data.h_one.rows() == ((-1,),)
    assert_determinant_unit_exact(tiny, (3,), data)
    assert data.ratio == 2
    assert data.gamma == 2
    positions = report._singular_positions(data.ratio, data.gamma)
    assert len(positions) == 2
    assert abs(abs(positions[0]) - 2 ** 0.5) < 1e-12


# (fixture, vector): the golden quartic's entries are integers; the
# cubic's lie in Z[zeta_3], with multi-term constants such as 3 + 3 zeta_3
MONODROMY_INPUTS = {"quartic": ("sigma3", J), "cubic": ("swapped_cubic", (0, 2))}
# order, modulus, singular ratio, gamma
MONODROMY_GOLDEN = {"quartic": (20, 280, -14, 7), "cubic": (2, 3, -3, 3)}


def _dense_turns(data, vector):
    """The monodromy record and its turns h_zero, h_infinity, h_one as
    dense rows, with h_infinity's inverse built densely as the companion
    matrix of x_infinity."""
    md = monodromy(data, vector)
    h_inf_inv = companion(characteristic_polynomials(data, vector).x_infinity, md.modulus)
    return md, md.h_zero.rows(), md.h_infinity.rows(), h_inf_inv, md.h_one.rows()


@pytest.mark.parametrize("name", MONODROMY_INPUTS)
def test_monodromy_golden(request, name):
    fixture, vector = MONODROMY_INPUTS[name]
    order, modulus, ratio, gamma = MONODROMY_GOLDEN[name]
    simplicial = request.getfixturevalue(fixture)
    data, h0, h_inf, h_inf_inv, h1 = _dense_turns(simplicial, vector)
    assert data.order == order
    assert data.modulus == modulus
    assert_determinant_unit_exact(simplicial, vector, data)
    assert data.ratio == ratio
    assert data.gamma == gamma
    assert len(monodromy_block(data)["singular"]["positions"]) == gamma
    chain = conjugation_chain(h1, h_inf, h_inf_inv, gamma, modulus)
    assert len(chain) == gamma
    # product-one relation, re-multiplied here exactly over Z[zeta_m]
    product = matmul(matmul(h0, h_inf, modulus), h1, modulus)
    for i in range(order):
        for j in range(order):
            assert product[i][j] == (1 if i == j else 0)


def _identity(n, modulus):
    return tuple(
        tuple(CycValue.from_int(modulus, int(i == j)) for j in range(n))
        for i in range(n)
    )


@pytest.mark.parametrize("name", MONODROMY_INPUTS)
def test_structured_monodromy_matches_dense_products(request, name):
    # every relation the structured checks establish, and every power
    # trace they compare, re-multiplied here with dense products
    fixture, vector = MONODROMY_INPUTS[name]
    data = request.getfixturevalue(fixture)
    md, h0, h_inf, h_inf_inv, h1 = _dense_turns(data, vector)
    m, n = md.modulus, md.order
    sets = local_exponents(data, vector)
    char = characteristic_polynomials(data, vector)
    h0_inv = hypergeom._companion_inverse(
        char.x_zero, hypergeom._constant_unit(m, sets.reduced_plus, -1)
    ).rows()
    ident = _identity(n, m)
    assert h0 == companion(char.x_zero, m)
    assert matmul(h0, h0_inv, m) == ident
    assert matmul(h_inf, h_inf_inv, m) == ident
    assert matmul(h_inf_inv, h0_inv, m) == h1
    assert matmul(matmul(h0, h_inf, m), h1, m) == ident
    # h_one - 1 vanishes outside column 0, so it has rank at most one
    assert all(h1[i][j] == ident[i][j] for i in range(n) for j in range(1, n))
    count = max(md.gamma, n)
    power = h_inf
    for k, structured in enumerate(hypergeom._power_traces(md.h_infinity, count), 1):
        assert structured == trace(power, m)
        assert structured == sum(
            (CycValue.from_phase(m, k * a) for a in sets.reduced_minus),
            CycValue.zero(m),
        )
        power = matmul(power, h_inf, m)


@pytest.mark.parametrize("name", MONODROMY_INPUTS)
def test_monodromy_companion_products_follow_the_krylov_count(request, name, monkeypatch):
    # five one-column products for the inverse and product-one relations
    # and h_one, then one per Krylov vector h_inf^k e_0, 1 <= k <=
    # max(gamma, order)
    fixture, vector = MONODROMY_INPUTS[name]
    data = request.getfixturevalue(fixture)
    calls = []
    apply = OneColumn.__matmul__

    def counted(*args):
        calls.append(1)
        return apply(*args)

    monkeypatch.setattr(OneColumn, "__matmul__", counted)
    md = monodromy(data, vector)
    assert len(calls) == 5 + max(data.gamma, md.order)


def test_wrong_h_infinity_column_fails_loudly(sigma3, quartic_exits_3, monkeypatch):
    # one entry of h_infinity's column 0 off by one: h_infinity is no
    # longer the inverse of the companion matrix of x_infinity
    x_infinity = characteristic_polynomials(sigma3, J).x_infinity
    build = hypergeom._companion_inverse

    def planted(coeffs, inv_const):
        mat = build(coeffs, inv_const)
        if tuple(coeffs) != x_infinity:
            return mat
        return replace(mat, values=mat.values[:-1] + (mat.values[-1] + 1,))

    monkeypatch.setattr("torus_fiber.hypergeom._companion_inverse", planted)
    with pytest.raises(InternalConsistencyError, match="failed at infinity"):
        monodromy(sigma3, J)
    quartic_exits_3("companion inverse failed at infinity", *REQUEST)


def test_wrong_h_one_column_fails_loudly(sigma3, quartic_exits_3, monkeypatch):
    # one entry of h_one's column 0 off by one: h_zero h_infinity h_one
    # is no longer the identity on that column
    def planted(column, shift, values):
        if shift == 0:
            values = values[:-1] + (values[-1] + 1,)
        return OneColumn(column, shift, values)

    monkeypatch.setattr("torus_fiber.hypergeom.OneColumn", planted)
    with pytest.raises(InternalConsistencyError, match="product-one relation"):
        monodromy(sigma3, J)
    quartic_exits_3("product-one relation failed", *REQUEST)


def test_wrong_root_of_x_infinity_fails_loudly(sigma3, quartic_exits_3, monkeypatch):
    # one reduced-minus exponent up by 1/m and another down by 1/m: the
    # constant term, and so every inverse relation, stays, but the sum of
    # the roots, the trace of h_infinity, moves
    char = characteristic_polynomials(sigma3, J)
    m = char.modulus
    minus = list(local_exponents(sigma3, J).reduced_minus)
    minus[0] += Fraction(1, m)
    minus[-1] -= Fraction(1, m)
    x_infinity = tuple(hypergeom._poly_from_phases(m, [-a for a in minus]))
    assert x_infinity != char.x_infinity and x_infinity[0] == char.x_infinity[0]
    wrong = replace(char, x_infinity=x_infinity)
    monkeypatch.setattr(
        "torus_fiber.hypergeom.characteristic_polynomials", lambda data, vector: wrong
    )
    with pytest.raises(InternalConsistencyError, match="h_infinity\\^1 disagrees"):
        monodromy(sigma3, J)
    quartic_exits_3("trace of h_infinity^1 disagrees with its exact spectrum", *REQUEST)


def test_off_by_one_krylov_power_fails_loudly(sigma3, quartic_exits_3, monkeypatch):
    # x_infinity is t^20 - 1 and gamma is 7, so the traces of the 7th and
    # 8th powers agree (both 0) and a lone gamma-th trace misses a power
    # off by one; the power sums up to the order catch it
    assert [str(c) for c in characteristic_polynomials(sigma3, J).x_infinity] == (
        ["-1"] + ["0"] * 19 + ["1"]
    )
    power_traces = hypergeom._power_traces
    traces = power_traces(monodromy(sigma3, J).h_infinity, 8)
    assert sigma3.gamma == 7 and traces[6] == traces[7] == 0
    monkeypatch.setattr(
        "torus_fiber.hypergeom._power_traces",
        lambda h, count: power_traces(h, count + 1)[1:],
    )
    with pytest.raises(InternalConsistencyError, match="h_infinity\\^19 disagrees"):
        monodromy(sigma3, J)
    quartic_exits_3("trace of h_infinity^19 disagrees with its exact spectrum", *REQUEST)


def test_wrong_determinant_unit_fails_loudly(sigma3, quartic_exits_3, monkeypatch):
    # one reduced-plus exponent up by 1/m, in x_zero and in the inverse
    # of its constant term alike: every companion relation and every
    # power trace of h_infinity still hold, but det(h_one) moves off the
    # root of unity its exponents fix
    char = characteristic_polynomials(sigma3, J)
    m = char.modulus
    plus = local_exponents(sigma3, J).reduced_plus
    moved = (plus[0] + Fraction(1, m),) + plus[1:]
    wrong = replace(
        char, x_zero=tuple(hypergeom._poly_from_phases(m, [-a for a in moved]))
    )
    assert wrong.x_zero[0] != char.x_zero[0]
    constant_unit = hypergeom._constant_unit
    monkeypatch.setattr(
        "torus_fiber.hypergeom.characteristic_polynomials", lambda data, vector: wrong
    )
    monkeypatch.setattr(
        "torus_fiber.hypergeom._constant_unit",
        lambda modulus, exps, power: constant_unit(
            modulus, moved if (exps, power) == (plus, -1) else exps, power
        ),
    )
    with pytest.raises(InternalConsistencyError, match="determinant unit"):
        monodromy(sigma3, J)
    quartic_exits_3("determinant unit of h_one disagrees with its exponents", *REQUEST)


def test_wrong_h_zero_column_fails_loudly(sigma3, quartic_exits_3, monkeypatch):
    # one entry of h_zero's inverse column off by one: it is no longer the
    # inverse of the companion matrix of x_zero
    x_zero = characteristic_polynomials(sigma3, J).x_zero
    build = hypergeom._companion_inverse

    def planted(coeffs, inv_const):
        mat = build(coeffs, inv_const)
        if tuple(coeffs) != x_zero:
            return mat
        return replace(mat, values=mat.values[:-1] + (mat.values[-1] + 1,))

    monkeypatch.setattr(hypergeom, "_companion_inverse", planted)
    with pytest.raises(InternalConsistencyError, match="failed at zero"):
        monodromy(sigma3, J)
    quartic_exits_3("companion inverse failed at zero", *REQUEST)


def test_unbalanced_reduced_sets_fail_loudly(sigma3, quartic_exits_3, monkeypatch):
    # the multiset split loses one reduced plus exponent; the exponents
    # are built on a copy of the choice, whose records are empty
    split = hypergeom._multiset_split

    def planted(a, b):
        common, plus, minus = split(a, b)
        return common, plus[1:], minus

    monkeypatch.setattr(hypergeom, "_multiset_split", planted)
    with pytest.raises(InternalConsistencyError, match="must balance"):
        reduced_operator(local_exponents(replace(sigma3), J))
    quartic_exits_3("reduced exponent sets must balance", *REQUEST)


def test_off_by_one_annihilation_kernel_fails_loudly(sigma3, quartic_exits_3, monkeypatch):
    # the expansion of prod(x + a) one unit off on every shift: the
    # operator the check applies no longer kills the leading term
    op = reduced_operator(local_exponents(sigma3, J))
    series = frobenius_series(op, simple_nonresonant_exponents(op)[0])
    expand = hypergeom._expand_shifts
    monkeypatch.setattr(hypergeom, "_expand_shifts", lambda shifts: expand([a + 1 for a in shifts]))
    with pytest.raises(InternalConsistencyError, match="does not kill the leading term"):
        verify_annihilation(op, series)
    quartic_exits_3("operator does not kill the leading term", *REQUEST)


def test_off_by_one_series_recurrence_fails_loudly(sigma3, quartic_exits_3, monkeypatch):
    # the recurrence reads prod(theta + b) at rho + k, one step late: the
    # series keeps a_0 = 1 but no longer solves the operator
    op = reduced_operator(local_exponents(sigma3, J))

    def planted(op, rho, count=8):
        late = replace(op, minus_shifts=tuple(b + 1 for b in op.minus_shifts))
        return frobenius_series(late, rho, count)

    series = planted(op, simple_nonresonant_exponents(op)[0])
    with pytest.raises(InternalConsistencyError, match="nonzero coefficient of t\\^"):
        verify_annihilation(op, series)
    monkeypatch.setattr(report, "frobenius_series", planted)
    quartic_exits_3("after applying the operator", *REQUEST)


def test_wrong_characteristic_root_fails_loudly(sigma3, quartic_exits_3, monkeypatch):
    # the first root of each characteristic polynomial moved by 1/m: its
    # constant term leaves the product the exponents predict
    expand = hypergeom._poly_from_phases
    monkeypatch.setattr(
        hypergeom,
        "_poly_from_phases",
        lambda m, phases: expand(m, [phases[0] + Fraction(1, m), *phases[1:]]),
    )
    with pytest.raises(InternalConsistencyError, match="constant terms disagree"):
        characteristic_polynomials(replace(sigma3), J)
    quartic_exits_3("constant terms disagree with symbolic product", *REQUEST)


def test_wrong_unit_root_count_fails_loudly(sigma3, quartic_exits_3, monkeypatch):
    # the synthetic division counts one factor t - 1 too many
    count = hypergeom._unit_root_multiplicity
    monkeypatch.setattr(
        hypergeom, "_unit_root_multiplicity", lambda m, coeffs: count(m, coeffs) + 1
    )
    message = "unit-root multiplicity 4 != integer exponent count 3"
    with pytest.raises(InternalConsistencyError, match=message):
        characteristic_polynomials(replace(sigma3), J)
    quartic_exits_3(message, *REQUEST)


def test_wrong_common_exponent_fails_loudly(sigma3, quartic_exits_3, monkeypatch):
    # the one exponent that cancels at (3, 3, 1) moved by 1/m: x_zero times
    # the cancelled factors no longer restores the grouped product
    vector = (3, 3, 1)
    assert local_exponents(sigma3, vector).common == (Fraction(-1, 7),)
    m = characteristic_polynomials(sigma3, vector).modulus
    split = hypergeom._multiset_split

    def planted(a, b):
        common, plus, minus = split(a, b)
        return (common[0] + Fraction(1, m), *common[1:]), plus, minus

    monkeypatch.setattr(hypergeom, "_multiset_split", planted)
    with pytest.raises(InternalConsistencyError, match="plus closed form disagrees"):
        characteristic_polynomials(replace(sigma3), vector)
    quartic_exits_3(
        "plus closed form disagrees at degree 0", "monodromy", "--sigma", "3", "--J", "3,3,1"
    )


@pytest.mark.parametrize("name", MONODROMY_INPUTS)
def test_around_matrices_conjugate(request, name):
    fixture, vector = MONODROMY_INPUTS[name]
    data, _, h_inf, h_inf_inv, h1 = _dense_turns(request.getfixturevalue(fixture), vector)
    chain = conjugation_chain(h1, h_inf, h_inf_inv, data.gamma, data.modulus)
    # successive turns differ by conjugation with the turn at infinity,
    # so all of them share the characteristic polynomial of h_one
    for left, right in zip(chain, chain[1:]):
        lhs = matmul(h_inf, right, data.modulus)
        rhs = matmul(left, h_inf, data.modulus)
        for i in range(data.order):
            for j in range(data.order):
                assert lhs[i][j] == rhs[i][j]


def test_operator_order_limit_is_inclusive(sigma3, monkeypatch):
    # the limit bounds sum(B_q) over the positive class, the number of
    # local exponents on either side and of theta roots on either side;
    # each check runs on a copy with no records yet
    order = len(local_exponents(sigma3, J).plus)
    monkeypatch.setattr(hypergeom, "OPERATOR_ORDER_LIMIT", order)
    assert len(local_exponents(replace(sigma3), J).minus) == order
    assert len(theta_operators(replace(sigma3), J).q_roots) == order
    monkeypatch.setattr(hypergeom, "OPERATOR_ORDER_LIMIT", order - 1)
    for build in (local_exponents, theta_operators):
        with pytest.raises(
            LimitExceededError,
            match=f"order {order}, above OPERATOR_ORDER_LIMIT = {order - 1} ",
        ):
            build(replace(sigma3), J)


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
