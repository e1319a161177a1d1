import random

import pytest

from torus_fiber.errors import ParseError
from torus_fiber.laurent import LaurentPolynomial, parse_laurent


def test_parse_quartic_keeps_input_order():
    f = parse_laurent("x1^5 + x1^2*x2 + x1*x2^2 + x2^4")
    assert f.variables == ("x1", "x2")
    assert f.support == ((5, 0), (2, 1), (1, 2), (0, 4))


def test_parse_single_variable():
    f = parse_laurent("x1")
    assert f.variables == ("x1",)
    assert f.support == ((1,),)


def test_parse_negative_exponents():
    f = parse_laurent("x1^-1*x2 + 1")
    assert set(f.support) == {(-1, 1), (0, 0)}


def test_parse_juxtaposition_and_explicit_star():
    assert parse_laurent("x1 x2") == parse_laurent("x1*x2")


@pytest.mark.parametrize(
    "text, coefficient, term",
    [
        ("3/2 x1 + x2", "3/2", "3/2*x1"),
        ("x1 + x1 + x2", "2", "2*x1"),
        ("x1 - x2", "-1", "-x2"),
        ("x1 + 2 + x1^-1", "2", "2"),
    ],
)
def test_parse_refuses_non_unit_coefficients(text, coefficient, term):
    with pytest.raises(ParseError) as err:
        parse_laurent(text)
    assert str(err.value) == (
        f"coefficient {coefficient} in term {term}: every coefficient must be 1"
    )
    assert err.value.position is None


def test_parse_drops_cancelled_terms():
    # x2 cancels out of every term, so it is no variable of the result
    f = parse_laurent("x1 + x2 + x3 - x2")
    assert f.variables == ("x1", "x3")
    assert f.support == ((1, 0), (0, 1))


def test_parse_rejects_cancelled_terms():
    with pytest.raises(ParseError):
        parse_laurent("x1 - x1")


def test_parse_rejects_empty():
    with pytest.raises(ParseError):
        parse_laurent("")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_laurent("x1 + @")
    assert "position" in str(err.value)


# (input, message, position): from_support's refusal carries none
REFUSALS = [
    ("x1 +", "dangling sign at end of input", 4),
    ("1/x1 + x2", "expected denominator after '/'", 2),
    ("1/0*x1 + x2", "zero denominator", 2),
    ("x1^x2", "expected integer exponent after '^'", 3),
    ("x1 * + x2", "expected a number or variable", 4),
    ("0*x1 + x2", "term has zero coefficient", 0),
    ("x1 )", "unexpected token ')'", 2),
    ((["x1"], []), "polynomial has no terms", None),
]


@pytest.mark.parametrize(
    "source, message, position", REFUSALS, ids=[str(r[0]) for r in REFUSALS]
)
def test_refusals_name_message_and_position(source, message, position):
    with pytest.raises(ParseError) as err:
        if isinstance(source, str):
            parse_laurent(source)
        else:
            LaurentPolynomial.from_support(*source)
    assert err.value.position == position
    suffix = "" if position is None else f" (at position {position})"
    assert str(err.value) == message + suffix


def test_variables_sorted_naturally():
    f = parse_laurent("x10 + x2 + x1")
    assert f.variables == ("x1", "x2", "x10")


def test_from_support_rejects_duplicates():
    with pytest.raises(ParseError):
        LaurentPolynomial.from_support(("x1", "x2"), ((1, 0), (1, 0)))
    with pytest.raises(ParseError):
        LaurentPolynomial.from_support(("x1", "x1"), ((1, 0),))
    with pytest.raises(ParseError):
        LaurentPolynomial.from_support(("x1", "x2"), ((1,),))


def test_from_support_preserves_order():
    f = LaurentPolynomial.from_support(("a", "b"), ((0, 4), (5, 0)))
    assert f.support == ((0, 4), (5, 0))


def test_str_round_trip():
    for text in (
        "x1^5 + x1^2*x2 + x1*x2^2 + x2^4",
        "x1 + x2 + x1^-1*x2^-1",
        "x1^-3 + 1",
    ):
        f = parse_laurent(text)
        assert parse_laurent(str(f)) == f


def test_random_round_trip():
    rng = random.Random(20240817)
    for _ in range(60):
        n = rng.randint(1, 3)
        variables = tuple(f"x{i + 1}" for i in range(n))
        # parsing infers variables from the text, so every variable must
        # actually occur somewhere: seed with an all-ones monomial
        monomials = {(1,) * n}
        while len(monomials) < rng.randint(1, 5):
            monomials.add(tuple(rng.randint(-4, 4) for _ in range(n)))
        f = LaurentPolynomial.from_support(variables, tuple(sorted(monomials)))
        g = parse_laurent(str(f))
        assert g == f
