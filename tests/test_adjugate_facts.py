"""The facts that the verified adjugate identity fixes, stated once.

``build_data`` multiplies the integer adjugate back against its matrix,
entry by entry, and refuses anything but gamma times the identity.  The
identity alone fixes the layout that every later stage reads: the
projective column (B_M = gamma, C_M = 0, E_M = 0), the row sums
(sum B = 0, sum C = gamma), the u-row (C_q = -B_q below M) and the
integral facet offsets (gcd(E_q) divides B_q).  From these follow the
integer forms of ``linear_forms``, the positive and balanced slopes of
every skeleton, exponent multisets of equal size, and grouped and
restored characteristic products of equal length.  No runtime check
restates them; this module checks them on every simplicializing choice
of a fixed corpus and of 50 seeded random supports.
"""

import random
from math import gcd

import pytest

from torus_fiber import hypergeom
from torus_fiber.errors import NotSimplicializingError
from torus_fiber.hypergeom import characteristic_polynomials, local_exponents
from torus_fiber.laurent import parse_laurent
from torus_fiber.mellin import extended_filtration, mellin_skeleton, sweep_domain
from torus_fiber.polytope import newton_polytope
from torus_fiber.simplicial import build_data, enumerate_choices, linear_forms

from test_simplicial import _random_unit_polynomial

CORPUS = {
    "quartic": "x1^5 + x1^2*x2 + x1*x2^2 + x2^4",
    "T7": "x1 + x2 + x3 + x1*x2*x3 + x1^-1 + x2^-1 + x3^-1",
    "ladder4": "x1^4 + x2^4 + x1^-1*x2^-1",
    "modulus13860": (
        "x1^-1*x2^2*x3^2 + x1^-2*x2^2*x3^-1 + x2^-1 + x1^2*x3^-1 + x2^-1*x3^2"
    ),
}

# the sweep domain runs to this degree
K = 2


def _choices(f):
    base = newton_polytope(f.support)
    choices, truncated = enumerate_choices(f, cap=None)
    assert not truncated
    for choice in choices:
        try:
            yield build_data(f, choice, base)
        except NotSimplicializingError:
            continue


def _assert_layout(data):
    g, m = data.gamma, data.m
    z, u, e = data.z_coeffs, data.u_coeffs, data.exponent_coeffs
    assert (z[m], u[m]) == (g, 0)
    assert not any(e[m])
    assert sum(z) == 0 and sum(u) == g
    for q in range(m):
        assert u[q] == -z[q]
        assert z[q] % gcd(*e[q]) == 0


def _assert_vector(data, vector):
    """The forms, the skeleton and the exponent multisets of one vector."""
    g = data.gamma
    for form in linear_forms(data, vector):
        if form.kind == "z":
            assert (form.num, form.slope_num) == (0, g)
        elif form.kind == "facet":
            pairing = sum(a * x for a, x in zip(data.exponent_coeffs[form.q], vector))
            assert form.num == pairing - form.slope_num
    skeleton = mellin_skeleton(data, vector)
    slopes = [f.slope_num for f in skeleton.numerator + skeleton.denominator]
    assert all(s > 0 for s in slopes)
    assert sum(f.slope_num for f in skeleton.numerator) == sum(
        f.slope_num for f in skeleton.denominator
    )
    sets = local_exponents(data, vector)
    assert len(sets.plus) == len(sets.minus)
    assert len(sets.reduced_plus) == len(sets.reduced_minus)
    return skeleton


def _grouped_lengths(data, vector, monkeypatch):
    """The lengths of the products ``characteristic_polynomials`` expands:
    x_zero and x_infinity, then the grouped and restored products of
    ``_verify_grouped_products`` for the plus side and the minus side."""
    lengths = []
    expand = hypergeom.times_binomials

    def spy(poly, factors):
        out = expand(poly, factors)
        lengths.append(len(out))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(hypergeom, "times_binomials", spy)
        characteristic_polynomials(data, vector)
    return lengths


def _check_choice(data, monkeypatch) -> int:
    """Every fact on one choice; returns how many grouped products were
    compared.  Those are compared on the degree-one vectors, the ones
    whose local systems a report lists; a cyclotomic expansion at
    modulus 13,860 takes about a second."""
    _assert_layout(data)
    compared = 0
    for vector in sweep_domain(data, K):
        skeleton = _assert_vector(data, vector)
        if skeleton.degenerate or extended_filtration(data, vector) != 1:
            continue
        lengths = _grouped_lengths(data, vector, monkeypatch)
        assert len(lengths) == 6
        _, _, full_plus, restored_plus, full_minus, restored_minus = lengths
        assert full_plus == restored_plus == len(local_exponents(data, vector).plus) + 1
        assert full_minus == restored_minus == full_plus
        compared += 1
    return compared


@pytest.mark.parametrize("name", CORPUS)
def test_adjugate_identity_fixes_the_layout(name, monkeypatch):
    f = parse_laurent(CORPUS[name])
    choices = compared = 0
    for data in _choices(f):
        compared += _check_choice(data, monkeypatch)
        choices += 1
    assert choices
    if name != "T7":  # every skeleton of T7 up to degree 2 is degenerate
        assert compared


def test_adjugate_identity_fixes_the_layout_random(monkeypatch):
    rng = random.Random(252525)
    supports = choices = compared = 0
    gammas = set()
    while supports < 50:
        f = _random_unit_polynomial(rng, spread=2)
        if not newton_polytope(f.support).full_dimensional:
            continue
        built = 0
        for data in _choices(f):
            compared += _check_choice(data, monkeypatch)
            gammas.add(data.gamma)
            built += 1
        supports += built > 0
        choices += built
    assert choices > 100 and compared > 50 and len(gammas) > 5
