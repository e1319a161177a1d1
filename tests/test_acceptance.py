"""End-to-end acceptance suite: one test per numbered criterion.

Each test exercises a full pipeline slice and pins it to frozen golden
values or to an oracle computed by independent means inside the test.
The conftest hooks print one ``ACCEPTANCE n: PASS/FAIL`` line per test
when the run finishes.
"""

import json
import random
import time
from fractions import Fraction

from torus_fiber.cli import main
from torus_fiber.errors import NotSimplicializingError
from torus_fiber.hypergeom import (
    characteristic_polynomials,
    frobenius_series,
    jordan_report,
    local_exponents,
    monodromy,
    reduced_operator,
    simple_nonresonant_exponents,
    verify_annihilation,
)
from torus_fiber.lattice import ehrhart
from torus_fiber.laurent import parse_laurent
from torus_fiber.mellin import (
    enumerate_poles,
    mellin_skeleton,
    pole_prediction,
)
from torus_fiber.polytope import newton_polytope
from torus_fiber.simplicial import (
    build_data,
    enumerate_choices,
    half_space_system,
    linear_forms,
    simplex_volumes,
)

from oracles import box_count, conjugation_chain, cyclic_expansion, matmul, trace
from test_lattice import _random_full_poly
from test_simplicial import _random_unit_polynomial

QUARTIC = "x1^5 + x1^2*x2 + x1*x2^2 + x2^4"
J = (1, 2, 1)


def _input_file(tmp_path):
    path = tmp_path / "input.txt"
    path.write_text(QUARTIC + "\n")
    return str(path)


def test_criterion_1():
    # build the whole golden matrix package from a cold start, timed
    start = time.perf_counter()
    f = parse_laurent(QUARTIC)
    choices, _ = enumerate_choices(f)
    data = build_data(f, choices[2], newton_polytope(f.support))
    forms = linear_forms(data, J)
    elapsed = time.perf_counter() - start

    assert data.matrix == (
        (5, 0, 0, 0, 1),
        (2, 1, 0, 0, 1),
        (1, 2, 1, 0, 1),
        (0, 4, 0, 0, 1),
        (0, 0, 0, 1, 1),
    )
    assert data.row_swap is None
    assert data.gamma == 7
    assert data.adjugate == (
        (3, -4, 0, 1, 0),
        (2, -5, 0, 3, 0),
        (1, -6, 7, -2, 0),
        (8, -20, 0, 5, 7),
        (-8, 20, 0, -5, 0),
    )
    # entry for entry, adjugate / gamma really is the inverse
    for i in range(5):
        for j in range(5):
            acc = sum(data.adjugate[i][r] * data.matrix[r][j] for r in range(5))
            assert acc == (7 if i == j else 0)
    assert [form.kind for form in forms] == ["facet", "facet", "constant", "facet", "z"]
    assert [form.constant for form in forms] == [0, 0, 1, 0, 0]
    assert [form.slope for form in forms] == [
        Fraction(8, 7),
        Fraction(-20, 7),
        Fraction(0),
        Fraction(5, 7),
        Fraction(1),
    ]
    assert forms[0].at(7) == 8
    assert elapsed < 1.0


def _det3(a, b, c):
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def test_criterion_2(sigma3):
    assert sigma3.z_coeffs == (8, -20, 0, 5, 7)
    assert simplex_volumes(sigma3) == (8, 20, 0, 5, 7)
    assert sum(sigma3.z_coeffs) == 0
    positive_sum = sum(sigma3.z_coeffs[q] for q in sigma3.pos_class)
    assert positive_sum == 7 + 8 + 5 == 20
    closure = sigma3.closure_polytope
    assert closure.vertices == ((0, 0, 0), (0, 4, 0), (1, 2, 1), (5, 0, 0))
    # independent determinant cross-check: the closure is the simplex on
    # the origin and three lattice points, so its normalized volume is a
    # single hand-rolled 3x3 determinant
    spanning = [v for v in closure.vertices if any(v)]
    assert len(spanning) == 3
    assert abs(_det3(*spanning)) == positive_sum


def test_criterion_3(all_sigma_data):
    assert [data.gamma for data in all_sigma_data] == [1, 6, 7, 2]
    for data in all_sigma_data:
        width = data.m + 1
        for i in range(width):
            for j in range(width):
                acc = sum(
                    data.adjugate[i][r] * data.matrix[r][j] for r in range(width)
                )
                assert acc == (data.gamma if i == j else 0)
        assert sum(data.z_coeffs) == 0
        assert sum(data.u_coeffs) == data.gamma
        assert data.z_coeffs[data.m] == data.gamma
        assert all(data.u_coeffs[q] == -data.z_coeffs[q] for q in range(data.m))


def test_criterion_4(sigma3):
    system = half_space_system(sigma3)
    assert system == (
        ((-3, -2, -1), -8),
        ((-1, -3, 2), -5),
        ((0, 0, -1), 0),
        ((4, 5, 6), 20),
    )
    rng = random.Random(515151)
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
        # the H-description read off the inverse matrix must equal the
        # facet list of the vertex hull, computed the geometric way
        derived = half_space_system(data)
        hull = newton_polytope(data.extended.support)
        reference = tuple(sorted((g.normal, g.offset) for g in hull.facets))
        assert derived == reference
        built += 1
    assert built == 20


def test_criterion_5():
    simplex = ehrhart(newton_polytope(((0, 0), (1, 0), (0, 1))))
    assert simplex.psi == (1, 0, 0, 0)  # numerator polynomial is the constant 1
    square = ehrhart(newton_polytope(((0, 0), (1, 0), (0, 1), (1, 1))))
    # numerator polynomial content (1, 1, 0) plus the degree-check slot
    assert square.psi == (1, 1, 0, 0)
    rng = random.Random(616161)
    for _ in range(50):
        n = rng.randint(1, 3)
        poly = _random_full_poly(rng, n)
        data = ehrhart(poly)
        for k in range(n + 2):
            total, interior = box_count(poly.vertices, k)
            assert data.counts[k] == total
            assert data.interior_counts[k] == interior
        # reciprocity between the two numerators, coefficientwise
        assert data.phi == tuple(reversed(data.psi))
        # the coefficient sum is n! times the euclidean volume
        assert sum(data.psi) == data.normalized_volume


def test_criterion_6(tmp_path, capsys, sigma3):
    assert main(["check", _input_file(tmp_path), "--k-max", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["clean"] is True
    assert [entry["sigma"] for entry in report["checks"]] == [1, 2, 3, 4]
    for entry in report["checks"]:
        assert entry["pole_sweep"]["violations"] == []
        assert entry["face_sweep"]["violations"] == []

    pred = pole_prediction(sigma3, J)
    assert pred.position == 0
    assert pred.hodge_p == 2
    assert len(pred.tight_pos) == 2
    assert pred.order_bound == len(pred.tight_pos) + 1 == 3
    poles = dict(enumerate_poles(mellin_skeleton(sigma3, J), z_min=0).poles)
    assert poles[Fraction(0)] == 3


def test_criterion_7(sigma3):
    sets = local_exponents(sigma3, J)
    op = reduced_operator(sets)
    assert sets.common == ()
    assert op.order == 20
    assert ehrhart(sigma3.closure_polytope).normalized_volume == 20
    simple = simple_nonresonant_exponents(op)
    assert len(simple) == 17
    for rho in simple:
        series = frobenius_series(op, rho, count=25)
        assert series.coefficients[0] == 1
        verify_annihilation(op, series)
    char = characteristic_polynomials(sigma3, J)
    assert char.unit_multiplicity == 3
    assert jordan_report(sigma3, J).block_size == 3
    # grouped closed forms against a direct product expansion over Z[t]
    zero_expected = cyclic_expansion(8, 5, 7)
    inf_expected = cyclic_expansion(20)
    assert len(char.x_zero) == len(zero_expected) == 21
    for got, want in zip(char.x_zero, zero_expected):
        assert got == want
    for got, want in zip(char.x_infinity, inf_expected):
        assert got == want


def test_criterion_8(sigma3):
    data = monodromy(sigma3, J)
    assert data.max_eigenvalue_deviation <= 1e-10
    # product-one relation, re-multiplied here exactly over Z[zeta_m]
    product = matmul(
        matmul(data.h_zero, data.h_infinity, data.modulus),
        data.h_one,
        data.modulus,
    )
    for i in range(data.order):
        for j in range(data.order):
            assert product[i][j] == (1 if i == j else 0)
    # successive turns are conjugate through the turn at infinity, hence
    # share one characteristic polynomial
    chain = conjugation_chain(
        data.h_one, data.h_infinity, data.h_infinity_inverse,
        data.singular.gamma, data.modulus,
    )
    assert len(chain) == data.singular.gamma
    for left, right in zip(chain, chain[1:]):
        lhs = matmul(data.h_infinity, right, data.modulus)
        rhs = matmul(left, data.h_infinity, data.modulus)
        for i in range(data.order):
            for j in range(data.order):
                assert lhs[i][j] == rhs[i][j]
    # spot-check that shared polynomial through its trace coefficient
    traces = [trace(mat, data.modulus) for mat in chain]
    for t in traces[1:]:
        assert t == traces[0]


def test_criterion_9(tmp_path, capsys):
    # value-level asymptotic expansions are intentionally not produced;
    # the report stops at pole, series, and monodromy structure
    start = time.perf_counter()
    assert main(["analyze", _input_file(tmp_path), "--k-max", "3", "--J", "1,2,1"]) == 0
    elapsed = time.perf_counter() - start
    report = json.loads(capsys.readouterr().out)
    assert list(report) == [
        "version",
        "input",
        "hodge",
        "sigmas",
        "mellin",
        "hypergeom",
        "warnings",
    ]
    assert "asymptotics" not in report
    assert elapsed < 10.0
