"""Property tests: the direct JSON renderer, the parser's read-back of
a rendered polynomial, the integer pole tests, the lattice-point
enumeration and the cyclotomic kernels.

Each property is checked against the plain formula it replaces:
``json.dumps(indent=2)`` for :func:`torus_fiber.report.to_json`, the
``Fraction`` arithmetic on ``constant + slope * z`` for the integer
forms of :mod:`torus_fiber.mellin`, a brute-force box filter for
the dilates enumerated by :mod:`torus_fiber.lattice`, products
built from ``CycValue``'s ``+`` and ``*`` for the one-column matrix
products of :mod:`torus_fiber.hypergeom` and the polynomial products
of :mod:`torus_fiber.cyclotomic`, sympy for its
Moebius-product cyclotomic polynomials, and the eager table for its
lazily built reduction rows.
"""

import json
from fractions import Fraction
from itertools import product

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import (  # noqa: E402
    binomial_expansion,
    box_count,
    cyclic_expansion,
    eager_reduction_rows,
    matmul,
)
from torus_fiber.cli import _unlimited_int_digits  # noqa: E402
from torus_fiber.cyclotomic import (  # noqa: E402
    CycValue,
    _ReductionRows,
    cyclotomic_polynomial,
    times_binomials,
)
from torus_fiber.errors import NotSimplicializingError  # noqa: E402
from torus_fiber.hypergeom import OneColumn  # noqa: E402
from torus_fiber.laurent import LaurentPolynomial, parse_laurent  # noqa: E402
from torus_fiber.lattice import interior_lattice_points, lattice_points  # noqa: E402
from torus_fiber.mellin import MellinSkeleton, _hits, enumerate_poles  # noqa: E402
from torus_fiber.polytope import newton_polytope  # noqa: E402
from torus_fiber.report import to_json  # noqa: E402
from torus_fiber.simplicial import (  # noqa: E402
    LinearForm,
    build_data,
    enumerate_choices,
)


# repeated sevens past the 4,300-digit limit, built without str -> int
_long_ints = st.builds(
    lambda digits, sign: sign * 7 * (10**digits - 1) // 9,
    st.integers(4301, 4400),
    st.sampled_from((1, -1)),
)
_strings = st.text() | st.text(alphabet='"\\/\n\t\r\x00\x1f\x7f é€\U0001f600\ud800')
_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | _long_ints
    | st.floats()
    | _strings
    | st.fractions()
    | st.builds(Fraction, _long_ints, st.integers(1, 10**6))
)
_reports = st.recursive(
    _leaves,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(_strings, children, max_size=5),
    max_leaves=40,
)


@given(_reports)
def test_to_json_matches_json_dumps(report):
    with _unlimited_int_digits():
        assert to_json(report) == json.dumps(report, indent=2, default=str) + "\n"


def test_to_json_refuses_foreign_objects():
    with pytest.raises(TypeError):
        to_json({"value": object()})


@st.composite
def _polynomials(draw):
    """Unit-coefficient polynomials in x1..xn, each variable with a nonzero
    exponent in some term."""
    n = draw(st.integers(0, 4))
    support = draw(st.lists(
        st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=6, unique=True
    ))
    assume(all(any(mono[i] for mono in support) for i in range(n)))
    return LaurentPolynomial.from_support([f"x{i + 1}" for i in range(n)], support)


@given(_polynomials(), st.integers(1, 3))
def test_parse_reads_back_rendered_polynomial(f, power):
    assert parse_laurent(str(f)) == f
    # a variable whose every term cancels is no variable of the polynomial
    extra = f"x{f.n_variables + 1}^{power}"
    assert parse_laurent(f"{f} + {extra} - {extra}") == f


# ---------------------------------------------------------------------------
# integer forms against the Fraction formulas


def _form(num, slope_num, gamma):
    return LinearForm(q=0, num=num, slope_num=slope_num, den=gamma, kind="facet")


def _oracle_hits(forms, z):
    count = 0
    for form in forms:
        val = Fraction(form.num, form.den) + Fraction(form.slope_num, form.den) * z
        if val.denominator == 1 and val <= 0:
            count += 1
    return count


def _oracle_poles(numerator, denominator, z_min):
    counts = {}
    for side, forms in ((0, numerator), (1, denominator)):
        for form in forms:
            constant = Fraction(form.num, form.den)
            slope = Fraction(form.slope_num, form.den)
            arg = 0
            while True:
                z = (arg - constant) / slope
                if z < z_min:
                    break
                counts.setdefault(z, [0, 0])[side] += 1
                arg -= 1
    poles, cancellations = [], []
    for z in sorted(counts, reverse=True):
        num, den = counts[z]
        if num >= 1 and den >= 1:
            cancellations.append((z, num, den))
        if num >= 1 and num - den >= 1:
            poles.append((z, num - den))
    return tuple(poles), tuple(cancellations)


_gammas = st.integers(1, 30)
_pairs = st.tuples(st.integers(-60, 60), st.integers(1, 20))


@given(_gammas, st.lists(_pairs, max_size=6), st.integers(-12, 12))
def test_hits_match_fraction_formula(gamma, pairs, z):
    forms = [_form(num, slope_num, gamma) for num, slope_num in pairs]
    assert _hits(forms, z) == _oracle_hits(forms, z)


@given(
    _gammas,
    st.lists(_pairs, max_size=5),
    st.lists(_pairs, max_size=5),
    st.fractions(min_value=-8, max_value=3, max_denominator=12),
)
def test_enumerate_poles_match_fraction_formula(gamma, top, bottom, z_min):
    numerator = tuple(_form(num, slope_num, gamma) for num, slope_num in top)
    denominator = tuple(_form(num, slope_num, gamma) for num, slope_num in bottom)
    skeleton = MellinSkeleton(
        gamma=gamma,
        numerator=numerator,
        denominator=denominator,
        constant_nums=(),
        degenerate=False,
    )
    report = enumerate_poles(skeleton, z_min)
    assert (report.poles, report.cancellations) == _oracle_poles(
        numerator, denominator, z_min
    )
    assert report.z_min == z_min


# ---------------------------------------------------------------------------
# lattice points of dilates against a brute-force box filter


def _box_filter(poly, k):
    """(points, interior points) of ``k * poly``: every point of the
    dilated bounding box tested against every facet."""
    facets = [(f.normal, k * f.offset) for f in poly.facets]
    box = product(*(range(k * min(c), k * max(c) + 1) for c in zip(*poly.vertices)))
    points = [
        p for p in box
        if all(sum(a * x for a, x in zip(normal, p)) <= b for normal, b in facets)
    ]
    interior = [
        p for p in points
        if all(sum(a * x for a, x in zip(normal, p)) < b for normal, b in facets)
    ]
    return tuple(points), tuple(interior)


# coordinates shrink with the dimension so that the 3-fold dilate's box stays small
_SPAN = {1: 5, 2: 4, 3: 3, 4: 2}


def _polytopes(n):
    coordinate = st.integers(-_SPAN[n], _SPAN[n])
    # n + 1 points (a simplex when full-dimensional) in two draws of five
    sizes = st.sampled_from((n + 1, n + 1, n + 2, n + 3, n + 4))
    return sizes.flatmap(
        lambda count: st.lists(
            st.tuples(*[coordinate] * n), min_size=count, max_size=count
        ).map(newton_polytope)
    )


@pytest.mark.parametrize("n", (1, 2, 3, 4))
@settings(max_examples=80)
@given(data=st.data(), k=st.integers(0, 3))
def test_dilate_points_match_box_filter(n, data, k):
    poly = data.draw(_polytopes(n))
    assume(poly.full_dimensional)
    points, interior = _box_filter(poly, k)
    assert lattice_points(poly, k) == points
    assert interior_lattice_points(poly, k) == interior
    if n <= 3:
        assert box_count(poly.vertices, k) == (len(points), len(interior))


def test_t7_extended_simplices_match_box_filter():
    f = parse_laurent("x1 + x2 + x3 + x1*x2*x3 + x1^-1 + x2^-1 + x3^-1")
    choices, _ = enumerate_choices(f)
    base = newton_polytope(f.support)
    simplices = 0
    for choice in choices:
        try:
            poly = build_data(f, choice, base).extended_polytope
        except NotSimplicializingError:
            continue
        assert poly.dimension == 6 and len(poly.vertices) == 7
        for k in (1, 2):
            assert (lattice_points(poly, k), interior_lattice_points(poly, k)) == _box_filter(poly, k)
        simplices += 1
    assert simplices == 29


# ---------------------------------------------------------------------------
# one-column matrix and polynomial products against CycValue's + and *

_MODULI = st.sampled_from((1, 2, 3, 8, 12, 45, 60, 280))


def _cyc_values(modulus):
    """Sums of up to three signed multiples of roots; exponents past
    phi(m) reduce to multi-term canonical forms."""
    terms = st.tuples(st.integers(-modulus, 2 * modulus), st.integers(-3, 3))
    return st.lists(terms, max_size=3).map(lambda t: CycValue.build(modulus, t))


# the (column, shift) shapes of the monodromy matrices, with the column
# counted from the end for the companion: companion, companion inverse,
# and h_one
_SHAPES = st.sampled_from(((-1, 1), (0, -1), (0, 0)))


@st.composite
def _one_column_matrices(draw, modulus, n, column, shift):
    """A drawn :class:`OneColumn` and its own dense build: a shifted
    identity outside one column of random values."""
    values = draw(st.lists(_cyc_values(modulus), min_size=n, max_size=n))
    zero = CycValue.zero(modulus)
    one = CycValue.from_int(modulus, 1)
    dense = tuple(
        tuple(
            values[i] if j == column % n else (one if i == j + shift else zero)
            for j in range(n)
        )
        for i in range(n)
    )
    return OneColumn(column % n, shift, tuple(values)), dense


@settings(max_examples=150)
@given(data=st.data(), modulus=_MODULI, n=st.integers(1, 6), shape=_SHAPES)
def test_one_column_products_match_entrywise_sums(data, modulus, n, shape):
    mat, dense = data.draw(_one_column_matrices(modulus, n, *shape))
    assert mat.rows() == dense
    vec = data.draw(st.lists(_cyc_values(modulus), min_size=n, max_size=n))
    product = matmul(dense, tuple((x,) for x in vec), modulus)
    assert mat @ vec == [row[0] for row in product]


# shift products at the moduli of the benchmark's monodromy inputs, the
# small and composite ones, and the primorial 2310
_SHIFT_MODULI = st.sampled_from((1, 2, 3, 8, 12, 45, 60, 280, 2310))


@given(data=st.data(), modulus=_SHIFT_MODULI)
def test_times_binomials_matches_expansion(data, modulus):
    values = _cyc_values(modulus)
    poly = data.draw(st.lists(values, min_size=1, max_size=4))
    factors = data.draw(st.lists(
        st.tuples(st.integers(1, 4), st.integers(-modulus, 2 * modulus)), max_size=4
    ))
    roots = [(k, CycValue.root(modulus, e)) for k, e in factors]
    assert times_binomials(poly, factors) == binomial_expansion(poly, roots, modulus)


@given(
    modulus=_SHIFT_MODULI,
    degrees=st.lists(st.integers(1, 5), max_size=6),
    turns=st.lists(st.integers(-3, 3), min_size=6, max_size=6),
)
def test_times_binomials_at_unit_roots_match_cyclic_expansion(modulus, degrees, turns):
    # zeta_m^(j m) = 1, so every factor is t^d - 1
    one = CycValue.from_int(modulus, 1)
    factors = [(d, j * modulus) for d, j in zip(degrees, turns)]
    assert times_binomials([one], factors) == cyclic_expansion(*degrees)


def test_mobius_cyclotomic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for m in (*range(1, 401), 13860, 30030):
        expected = sympy.cyclotomic_poly(m, polys=True).all_coeffs()[::-1]
        assert cyclotomic_polynomial(m) == tuple(int(c) for c in expected)


@settings(max_examples=40)
@given(
    modulus=_SHIFT_MODULI,
    exponents=st.lists(st.integers(0, 10**6), min_size=1, max_size=5),
)
def test_lazy_rows_match_eager_table(modulus, exponents):
    eager = eager_reduction_rows(modulus, cyclotomic_polynomial(modulus)) * 2
    rows = _ReductionRows(modulus)
    for e in exponents:
        e %= 2 * modulus
        built = len(rows.rows)
        lazy = [tuple(zip(*row)) for row in rows.upto(e)[: e + 1]]
        assert lazy == eager[: e + 1]
        # nothing past the highest exponent asked for, short of the repeat
        assert len(rows.rows) == max(built, e + 1 if e < modulus else 2 * modulus)
