"""Laurent polynomials with unit coefficients, and their parser.

Every coefficient is 1, so a polynomial is its support: the exponent
vectors of its terms.  The accepted surface syntax is a sum of terms
like ``x1^2*x2^-1``:

* terms are joined by ``+`` / ``-``;
* a term is a product of factors joined by ``*`` (or juxtaposition);
* a factor is either a rational number ``p`` / ``p/q`` or a variable with
  an optional integer exponent ``name^k`` (``k`` may be negative);
* whitespace is free between tokens.

Exponents are arbitrary integers — negative powers are the whole point of
working on the torus.  Repeated monomials merge and cancelled ones drop
out; every merged coefficient must then be 1.  The variables are the
names with a nonzero exponent in a surviving term, so that
``parse_laurent(str(f)) == f``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError

Monomial = tuple[int, ...]

_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_NAME_RE = re.compile(_NAME)
_TOKEN_RE = re.compile(rf"\s*(?:(?P<number>\d+)|(?P<name>{_NAME})|(?P<op>[-+*/^()]))")


def _natural_key(name: str):
    parts = re.split(r"(\d+)", name)
    return tuple(int(p) if p.isdigit() else p for p in parts)


def _term_text(variables, mono: Monomial, coeff=1) -> str:
    """The term ``coeff`` times ``mono`` as the parser reads it back."""
    factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(variables, mono) if e]
    if not factors or abs(coeff) != 1:
        factors.insert(0, str(abs(coeff)))
    return ("-" if coeff < 0 else "") + "*".join(factors)


@dataclass(frozen=True)
class LaurentPolynomial:
    """Immutable Laurent polynomial with unit coefficients: its support.

    ``support`` lists the exponent vectors (tuples over ``variables``) in
    first-appearance order: several downstream constructions (matrix
    rows, auxiliary-variable choices) are indexed by term position, so
    the order the user wrote is part of the data.
    """

    variables: tuple[str, ...]
    support: tuple[Monomial, ...]

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @classmethod
    def from_support(cls, variables, monomials) -> "LaurentPolynomial":
        """Build the polynomial with coefficient 1 on each given monomial.

        Exponents must be ``int`` (``bool`` excluded); anything else, such
        as ``1.7`` or ``"2"``, is refused rather than converted.  Each
        variable must be a name the parser reads back, such as ``x1``.
        """
        variables = tuple(variables)
        for v in variables:
            if not isinstance(v, str) or not _NAME_RE.fullmatch(v):
                raise ParseError(f"variable name {v!r} is not of the form {_NAME}")
        if len(set(variables)) != len(variables):
            raise ParseError("duplicate variable names")
        seen = set()
        support = []
        for mono in monomials:
            mono = tuple(mono)
            for e in mono:
                if not isinstance(e, int) or isinstance(e, bool):
                    raise ParseError(f"exponent {e!r} in monomial {mono} is not an integer")
            if len(mono) != len(variables):
                raise ParseError(
                    f"monomial {mono} has {len(mono)} exponents, expected {len(variables)}"
                )
            if mono in seen:
                raise ParseError(f"duplicate monomial {mono}")
            seen.add(mono)
            support.append(mono)
        if not support:
            raise ParseError("polynomial has no terms")
        return cls(variables=variables, support=tuple(support))

    def __str__(self) -> str:
        return " + ".join(_term_text(self.variables, mono) for mono in self.support)


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def next_token(self):
        """Return (kind, value, position) or (None, None, pos) at end."""
        m = _TOKEN_RE.match(self.text, self.pos)
        if m is None:
            rest = self.text[self.pos:]
            if rest.strip() == "":
                return None, None, len(self.text)
            bad = self.pos + len(rest) - len(rest.lstrip())
            raise ParseError(f"unexpected character {self.text[bad]!r}", bad)
        self.pos = m.end()
        if m.group("number") is not None:
            return "number", int(m.group("number")), m.start()
        if m.group("name") is not None:
            return "name", m.group("name"), m.start()
        return "op", m.group("op"), m.start()


def parse_laurent(text: str) -> LaurentPolynomial:
    """Parse polynomial text into a :class:`LaurentPolynomial`.

    Raises :class:`ParseError` (with character position) on malformed
    input, a zero coefficient, or an empty polynomial, and (without one)
    on the first merged coefficient other than 1.
    """
    scanner = _Scanner(text)
    raw_terms: list[tuple[Fraction, dict[str, int], int]] = []
    kind, value, pos = scanner.next_token()
    if kind is None:
        raise ParseError("empty input", 0)

    while True:
        sign = 1
        term_pos = pos
        while kind == "op" and value in "+-":
            if value == "-":
                sign = -sign
            kind, value, pos = scanner.next_token()
            if kind is None:
                raise ParseError("dangling sign at end of input", pos)
        if kind is None or (kind == "op" and value not in "+-"):
            raise ParseError("expected a term", pos)

        coeff = Fraction(sign)
        powers: dict[str, int] = {}
        expect_factor = True
        while True:
            if kind == "number":
                numer = value
                kind, value, pos = scanner.next_token()
                if kind == "op" and value == "/":
                    kind, value, pos = scanner.next_token()
                    if kind != "number":
                        raise ParseError("expected denominator after '/'", pos)
                    if value == 0:
                        raise ParseError("zero denominator", pos)
                    coeff *= Fraction(numer, value)
                    kind, value, pos = scanner.next_token()
                else:
                    coeff *= numer
            elif kind == "name":
                name = value
                kind, value, pos = scanner.next_token()
                exp = 1
                if kind == "op" and value == "^":
                    kind, value, pos = scanner.next_token()
                    exp_sign = 1
                    while kind == "op" and value in "+-":
                        if value == "-":
                            exp_sign = -exp_sign
                        kind, value, pos = scanner.next_token()
                    if kind != "number":
                        raise ParseError("expected integer exponent after '^'", pos)
                    exp = exp_sign * value
                    kind, value, pos = scanner.next_token()
                powers[name] = powers.get(name, 0) + exp
            else:
                if expect_factor:
                    raise ParseError("expected a number or variable", pos)
                break
            expect_factor = False
            if kind == "op" and value == "*":
                kind, value, pos = scanner.next_token()
                expect_factor = True

        if coeff == 0:
            raise ParseError("term has zero coefficient", term_pos)
        raw_terms.append((coeff, powers, term_pos))

        if kind is None:
            break
        if kind == "op" and value in "+-":
            continue
        raise ParseError(f"unexpected token {value!r}", pos)

    names = sorted({n for _, powers, _ in raw_terms for n in powers}, key=_natural_key)
    variables = tuple(names)
    index = {n: i for i, n in enumerate(variables)}
    merged: dict[Monomial, Fraction] = {}
    for coeff, powers, _ in raw_terms:
        exps = [0] * len(variables)
        for n, e in powers.items():
            exps[index[n]] = e
        mono = tuple(exps)
        merged[mono] = merged.get(mono, Fraction(0)) + coeff
    support = tuple(m for m, c in merged.items() if c != 0)
    if not support:
        raise ParseError("all terms cancelled; polynomial is identically zero", 0)
    for mono in support:
        if merged[mono] != 1:
            term = _term_text(variables, mono, merged[mono])
            raise ParseError(
                f"coefficient {merged[mono]} in term {term}: every coefficient must be 1"
            )
    used = [i for i in range(len(variables)) if any(mono[i] for mono in support)]
    return LaurentPolynomial(
        variables=tuple(variables[i] for i in used),
        support=tuple(tuple(mono[i] for i in used) for mono in support),
    )
