import cmath
import random
from fractions import Fraction

import pytest

from torus_fiber.cyclotomic import CycValue, cyclotomic_polynomial


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_from_phase():
    assert CycValue.from_phase(8, Fraction(3, 8)) == CycValue.root(8, 3)
    assert CycValue.from_phase(8, Fraction(-1, 8)) == CycValue.root(8, 7)
    assert CycValue.from_phase(8, Fraction(5, 4)) == CycValue.root(8, 2)
    with pytest.raises(ValueError):
        CycValue.from_phase(8, Fraction(1, 3))


def test_ring_arithmetic():
    x = CycValue.root(12)
    one = CycValue.from_int(12, 1)
    assert (x + one) * (x - one) == x * x - one
    assert x * 2 - x == x
    assert x - x == 0
    assert (x - x).coeffs == ()
    assert CycValue.root(12, 0) == one == 1
    assert CycValue.root(12, 13) == x


def test_integer_coefficients_only():
    with pytest.raises(TypeError):
        CycValue.build(8, {1: Fraction(1, 2)})
    with pytest.raises(TypeError):
        CycValue.root(8) * Fraction(1, 2)


def test_distinct_representations_same_complex_value():
    # x^2 and -1 picture the same number for m = 4, so they are one value
    a = CycValue.root(4, 2)
    b = CycValue.from_int(4, -1)
    assert a == b == -1
    assert a.coeffs == b.coeffs == ((0, -1),)
    assert (a - b).coeffs == ()


def test_prime_root_sum_vanishes():
    for m in (3, 5, 7, 13):
        total = CycValue.zero(m)
        for j in range(m):
            total = total + CycValue.root(m, j)
        assert total == CycValue.zero(m)
        assert total.coeffs == ()


def test_reduce_is_canonical():
    m = 8
    rng = random.Random(11)
    for _ in range(50):
        a = CycValue.build(m, {rng.randrange(m): rng.randint(-4, 4) for _ in range(4)})
        shift = a + CycValue.build(m, {0: -1, 4: -1}) * rng.randint(-3, 3)
        # x^4 + 1 is the eighth cyclotomic polynomial, so the shift is
        # invisible to the complex value and to the canonical form
        assert shift == a
        assert all(e < 4 for e, _ in a.coeffs)


def test_monomial_inverse():
    # a unit +-x^e is inverted by negating its phase, keeping the sign
    for m, e in ((8, 3), (3, 2), (280, 123), (12, 0)):
        for sign in (1, -1):
            unit = CycValue.root(m, e) * sign
            assert unit * (CycValue.root(m, -e) * sign) == 1
    assert CycValue.root(3, 2) == CycValue.build(3, {0: -1, 1: -1})


def test_negative_powers():
    x = CycValue.root(8)
    assert CycValue.root(8, -3) == CycValue.root(8, 5)
    assert CycValue.root(8, -3) * x * x * x == 1


def test_rescale():
    # one phase in two root-of-unity lattices pictures one complex number
    quarter = Fraction(1, 4)
    a, b = CycValue.from_phase(4, quarter), CycValue.from_phase(8, quarter)
    assert a == CycValue.root(4, 1) and b == CycValue.root(8, 2)
    assert abs(a.to_complex() - b.to_complex()) < 1e-12
    with pytest.raises(ValueError):
        CycValue.from_phase(6, quarter)


def test_mixed_moduli_rejected():
    with pytest.raises(ValueError):
        CycValue.root(4, 1) + CycValue.root(8, 1)
    with pytest.raises(ValueError):
        CycValue.root(4, 1) * CycValue.root(8, 1)
    with pytest.raises(ValueError):
        CycValue.root(4, 1) == CycValue.root(8, 2)


def test_to_complex_matches_cmath():
    rng = random.Random(23)
    for _ in range(40):
        m = rng.choice([1, 2, 3, 4, 5, 6, 8, 12, 20])
        terms = [(rng.randrange(3 * m) - m, rng.randint(-3, 3)) for _ in range(3)]
        a = CycValue.build(m, terms)
        direct = sum(c * cmath.exp(2j * cmath.pi * e / m) for e, c in terms)
        canonical = sum(c * cmath.exp(2j * cmath.pi * e / m) for e, c in a.coeffs)
        assert abs(a.to_complex() - canonical) < 1e-12
        assert abs(a.to_complex() - direct) < 1e-9


def test_random_ring_homomorphism():
    rng = random.Random(99)
    for _ in range(30):
        m = rng.choice([5, 8, 12])

        def draw():
            return CycValue.build(
                m, {rng.randrange(m): rng.randint(-3, 3) for _ in range(3)}
            )

        a, b = draw(), draw()
        assert abs((a + b).to_complex() - (a.to_complex() + b.to_complex())) < 1e-10
        assert abs((a * b).to_complex() - a.to_complex() * b.to_complex()) < 1e-9
        assert abs((-a).to_complex() + a.to_complex()) < 1e-12


def test_canonical_ring_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for m in range(1, 301):
        expected = sympy.cyclotomic_poly(m, polys=True).all_coeffs()[::-1]
        assert cyclotomic_polynomial(m) == tuple(int(c) for c in expected)

    rng = random.Random(20261)
    for m in (3, 8, 12, 45, 60, 280):
        phi = sympy.cyclotomic_poly(m, polys=True)
        t = phi.gen

        def draw():
            size = rng.randint(0, 6)
            terms = [(rng.randrange(m), rng.randint(-9, 9)) for _ in range(size)]
            poly = sympy.Poly(sum((c * t**e for e, c in terms), sympy.Integer(0)), t)
            return CycValue.build(m, terms), poly

        def coeffs(poly):
            return tuple((e, int(c)) for (e,), c in sorted(poly.rem(phi).terms()) if c)

        for _ in range(12):
            (a, pa), (b, pb) = draw(), draw()
            assert a.coeffs == coeffs(pa)
            assert (a * b).coeffs == coeffs(pa * pb)
            assert (a + b).coeffs == coeffs(pa + pb)
