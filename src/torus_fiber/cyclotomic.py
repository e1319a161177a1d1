"""Exact arithmetic with roots of unity.

Values are cyclotomic integers: elements of Z[zeta_m], where zeta_m is
the primitive m-th root e^(2 pi i / m).  Each value is held in its one
canonical form, the integer coefficients of the unique representative
of degree below phi(m) modulo the m-th cyclotomic polynomial (von zur
Gathen & Gerhard, *Modern Computer Algebra*).  Construction and
multiplication reduce into that form, so two values are equal as
complex numbers exactly when they compare equal with ``==``.  Matrix
and polynomial products add raw exponent sums into one integer
accumulator per entry and reduce each entry once.  Nothing here ever
touches floating point except the explicit ``to_complex`` view.
"""

from __future__ import annotations

from cmath import exp as cexp, pi
from dataclasses import dataclass
from functools import lru_cache
from operator import index


def _poly_mul_int(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return tuple(out)


def _poly_divmod_int(num: tuple[int, ...], den: tuple[int, ...]):
    """Division of integer polynomials with monic divisor."""
    assert den[-1] == 1, "divisor must be monic"
    rem = list(num)
    dn = len(den) - 1
    quot = [0] * max(len(num) - dn, 1)
    for i in range(len(rem) - 1, dn - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        quot[i - dn] = c
        for j, d in enumerate(den):
            rem[i - dn + j] -= c * d
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return tuple(quot), tuple(rem)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the m-th cyclotomic polynomial."""
    if m < 1:
        raise ValueError("modulus must be positive")
    if m == 1:
        return (-1, 1)
    num = (-1,) + (0,) * (m - 1) + (1,)
    den = (1,)
    for d in range(1, m):
        if m % d == 0:
            den = _poly_mul_int(den, cyclotomic_polynomial(d))
    quot, rem = _poly_divmod_int(num, den)
    assert rem == (0,), "cyclotomic division must be exact"
    return quot


@lru_cache(maxsize=None)
def _reduction_rows(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Canonical form of x^e as sparse ``(exponent, coefficient)`` pairs,
    indexed by e for 0 <= e < 2m (the second half repeats the first, so a
    product of two canonical exponents needs no ``% m``)."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    top = tuple(-c for c in phi[:deg])  # x^deg
    rows = [((e, 1),) for e in range(deg)]
    current = top
    for _ in range(deg, m):
        rows.append(tuple((j, c) for j, c in enumerate(current) if c))
        lead = current[deg - 1]
        current = tuple(s + lead * b for s, b in zip((0,) + current[:-1], top))
    return tuple(rows) * 2


def _canonical(modulus: int, acc: dict[int, int]) -> "CycValue":
    """Reduce integer coefficients on exponents in [0, 2m)."""
    rows = _reduction_rows(modulus)
    out: dict[int, int] = {}
    for e, c in acc.items():
        if c:
            for j, b in rows[e]:
                out[j] = out.get(j, 0) + c * b
    return CycValue(modulus, tuple(sorted((e, c) for e, c in out.items() if c)))


def _coerce(value, modulus: int) -> "CycValue":
    if isinstance(value, CycValue):
        if value.modulus != modulus:
            raise ValueError(f"mixed moduli {value.modulus} and {modulus}")
        return value
    return CycValue.from_int(modulus, value)


@dataclass(frozen=True, eq=False)
class CycValue:
    """Element of Z[zeta_m] in canonical form.

    ``coeffs`` holds the nonzero integer coefficients of the representative
    of degree below phi(m), as ``(exponent, coefficient)`` pairs sorted by
    exponent, so a value is zero exactly when ``coeffs`` is empty.  Build
    values through the classmethods, never directly.
    """

    modulus: int
    coeffs: tuple[tuple[int, int], ...]

    @classmethod
    def build(cls, modulus: int, mapping) -> "CycValue":
        """sum c * x^e over the ``(e, c)`` items; any integer exponents."""
        acc: dict[int, int] = {}
        for exp, c in mapping.items() if isinstance(mapping, dict) else mapping:
            e = exp % modulus
            acc[e] = acc.get(e, 0) + index(c)
        return _canonical(modulus, acc)

    @classmethod
    def zero(cls, modulus: int) -> "CycValue":
        return cls(modulus, ())

    @classmethod
    def from_int(cls, modulus: int, value) -> "CycValue":
        value = index(value)
        return cls(modulus, ((0, value),) if value else ())

    @classmethod
    def root(cls, modulus: int, numerator: int = 1) -> "CycValue":
        """x^numerator, i.e. e^(2 pi i numerator / m)."""
        return cls(modulus, _reduction_rows(modulus)[numerator % modulus])

    @classmethod
    def from_phase(cls, modulus: int, phase) -> "CycValue":
        """e^(2 pi i phase) for a rational phase with denominator dividing m."""
        scaled = phase * modulus
        if scaled.denominator != 1:
            raise ValueError(f"phase {phase} is not an m-th root for m={modulus}")
        return cls.root(modulus, scaled.numerator)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other, self.modulus)
        acc = dict(self.coeffs)
        for e, c in other.coeffs:
            acc[e] = acc.get(e, 0) + c
        return CycValue(
            self.modulus, tuple(sorted((e, c) for e, c in acc.items() if c))
        )

    __radd__ = __add__

    def __neg__(self):
        return CycValue(self.modulus, tuple((e, -c) for e, c in self.coeffs))

    def __sub__(self, other):
        return self + (-_coerce(other, self.modulus))

    def __rsub__(self, other):
        return _coerce(other, self.modulus) - self

    def __mul__(self, other):
        other = _coerce(other, self.modulus)
        acc: dict[int, int] = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return _canonical(self.modulus, acc)

    __rmul__ = __mul__

    # -- comparison: canonical forms are unique --------------------------

    def __eq__(self, other):
        if not isinstance(other, (CycValue, int)):
            return NotImplemented
        return self.coeffs == _coerce(other, self.modulus).coeffs

    # -- views -----------------------------------------------------------

    def to_complex(self) -> complex:
        return sum(
            (float(c) * cexp(2j * pi * e / self.modulus) for e, c in self.coeffs),
            complex(0),
        )

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in self.coeffs:
            if e == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                parts.append(f"{head}z{self.modulus}^{e}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# matrices and polynomials over Z[zeta_m]


def identity_matrix(n: int, modulus: int):
    one = CycValue.from_int(modulus, 1)
    zero = CycValue.zero(modulus)
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def mat_mul(a, b):
    """Product of square matrices, row by row: each nonzero entry of a
    row of ``a`` scales the nonzero entries of one row of ``b``.  Sums
    of two canonical exponents stay below 2m, so each output entry
    collects them unreduced and is reduced once."""
    if not a:
        return a
    modulus = a[0][0].modulus
    zero = CycValue.zero(modulus)
    width = len(b[0])
    sparse_b = [[(j, y.coeffs) for j, y in enumerate(row) if y.coeffs] for row in b]
    out = []
    for row in a:
        accs: dict[int, dict[int, int]] = {}
        for x, sparse in zip(row, sparse_b):
            if not x.coeffs:
                continue
            for j, y in sparse:
                acc = accs.setdefault(j, {})
                for e1, c1 in x.coeffs:
                    for e2, c2 in y:
                        e = e1 + e2
                        acc[e] = acc.get(e, 0) + c1 * c2
        out.append(tuple(
            _canonical(modulus, accs[j]) if j in accs else zero
            for j in range(width)
        ))
    return tuple(out)


def times_binomials(poly, factors) -> list[CycValue]:
    """poly * prod (t^k - w) over the ``(k, w)`` factors, low to high;
    each coefficient is reduced once per factor."""
    poly = list(poly)
    modulus = poly[0].modulus
    for k, w in factors:
        accs: list[dict[int, int]] = [{} for _ in range(len(poly) + k)]
        for i, c in enumerate(poly):
            high, low = accs[i + k], accs[i]
            for e1, c1 in c.coeffs:
                high[e1] = high.get(e1, 0) + c1
                for e2, c2 in w.coeffs:
                    e = e1 + e2
                    low[e] = low.get(e, 0) - c1 * c2
        poly = [_canonical(modulus, acc) for acc in accs]
    return poly
