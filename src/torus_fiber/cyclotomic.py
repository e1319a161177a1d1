"""Exact arithmetic with roots of unity.

Values are cyclotomic integers: elements of Z[zeta_m], where zeta_m is
the primitive m-th root e^(2 pi i / m).  Each value is held in its one
canonical form, the integer coefficients of the unique representative
of degree below phi(m) modulo the m-th cyclotomic polynomial (von zur
Gathen & Gerhard, *Modern Computer Algebra*).  Construction and
multiplication reduce into that form, so two values are equal as
complex numbers exactly when they compare equal with ``==``.

The work follows what a run touches.  Phi_m comes from its Moebius
product of binomials x^d - 1, in O(2^omega(m) phi(m)) steps, and the
canonical form of x^e is built, once per modulus, only up to the
largest e a run reduces.  A product of binomials t^k - zeta_m^e is
formed in Z[x]/(x^m - 1), where each root shifts exponents modulo m,
and each coefficient is reduced once at the end.  There is no matrix
kernel: the monodromy matrices of :mod:`torus_fiber.hypergeom` are
shifted identities outside one column, checked one column at a time.
Nothing here touches floating point: a value becomes a complex number
only when :mod:`torus_fiber.report` renders it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import prod
from operator import index

from .errors import InternalConsistencyError


def _prime_factors(m: int) -> list[int]:
    primes, p = [], 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    return primes


def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the m-th cyclotomic polynomial.

    Built from the Moebius product prod_{d | m} (x^d - 1)^mu(m/d).  For
    m > 1 the exponents mu(m/d) sum to zero, so the signs cancel and the
    product is one of units 1 - x^d of the power series ring: a factor
    with mu = 1 multiplies by 1 - x^d, one with mu = -1 divides exactly
    by it (a running sum with stride d).  Only coefficients through
    degree phi(m) are kept, and a factor with d > phi(m) is 1 to that
    precision, so the work is O(2^omega(m) phi(m)).
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    if m == 1:
        return (-1, 1)
    primes = _prime_factors(m)
    deg = m
    for p in primes:
        deg = deg // p * (p - 1)
    coeffs = [1] + [0] * deg
    for size in range(len(primes) + 1):
        for subset in combinations(primes, size):
            d = m // prod(subset)
            if d > deg:
                continue
            if size % 2:
                for i in range(d, deg + 1):
                    coeffs[i] += coeffs[i - d]
            else:
                for i in range(deg, d - 1, -1):
                    coeffs[i] -= coeffs[i - d]
    # Phi_m is monic and palindromic for m > 1
    if coeffs[deg] != 1 or coeffs != coeffs[::-1]:
        raise InternalConsistencyError(
            f"Moebius product for Phi_{m} is not monic palindromic"
        )
    return tuple(coeffs)


class _ReductionRows:
    """Canonical forms of x^e, built in order of e up to the highest
    exponent asked for.  ``upto(e)`` serves 0 <= e < 2m: rows m..2m-1
    repeat the first m, so a product of two canonical exponents needs no
    ``% m``.

    A row is a pair of tuples, the sorted exponents and their
    coefficients.  Rows share their exponent objects, and a row that is
    a plain shift of the last one shares its coefficient tuple, so the
    table costs about two pointers per nonzero coefficient."""

    __slots__ = ("modulus", "deg", "top", "succ", "rows")

    def __init__(self, modulus: int):
        phi = cyclotomic_polynomial(modulus)
        self.modulus = modulus
        self.deg = len(phi) - 1
        self.top = tuple((j, -c) for j, c in enumerate(phi[:-1]) if c)  # x^deg
        self.succ = list(range(1, self.deg + 1))  # j -> j + 1, one object each
        self.rows = [((0,), (1,))]

    def upto(self, e: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        rows = self.rows
        if e < len(rows):
            return rows
        m, last, top, succ = self.modulus, self.deg - 1, self.top, self.succ
        while len(rows) < min(e + 1, m):
            exps, coeffs = rows[-1]
            if exps[-1] != last:
                rows.append((tuple(map(succ.__getitem__, exps)), coeffs))
                continue
            # x * x^last = x^deg: the top term turns into the reduced x^deg
            lead = coeffs[-1]
            acc = dict(zip(map(succ.__getitem__, exps[:-1]), coeffs[:-1]))
            for j, b in top:
                acc[j] = acc.get(j, 0) + lead * b
            pairs = sorted((j, c) for j, c in acc.items() if c)
            rows.append((tuple(j for j, _ in pairs), tuple(c for _, c in pairs)))
        if e >= m:
            rows.extend(rows[:m])
        return rows


@lru_cache(maxsize=None)
def _reduction_rows(m: int) -> _ReductionRows:
    return _ReductionRows(m)


def _canonical(modulus: int, acc: dict[int, int]) -> "CycValue":
    """Reduce integer coefficients on exponents in [0, 2m)."""
    rows = _reduction_rows(modulus).upto(max(acc, default=0))
    out: dict[int, int] = {}
    for e, c in acc.items():
        if c:
            exps, coeffs = rows[e]
            for j, b in zip(exps, coeffs):
                out[j] = out.get(j, 0) + c * b
    return CycValue(modulus, tuple(sorted((e, c) for e, c in out.items() if c)))


def root_exponent(modulus: int, phase) -> int:
    """The e with e^(2 pi i phase) = zeta_m^e, for a rational phase whose
    denominator divides m."""
    scaled = phase * modulus
    if scaled.denominator != 1:
        raise ValueError(f"phase {phase} is not an m-th root for m={modulus}")
    return scaled.numerator


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
        e = numerator % modulus
        exps, coeffs = _reduction_rows(modulus).upto(e)[e]
        return cls(modulus, tuple(zip(exps, coeffs)))

    @classmethod
    def from_phase(cls, modulus: int, phase) -> "CycValue":
        """e^(2 pi i phase) for a rational phase with denominator dividing m."""
        return cls.root(modulus, root_exponent(modulus, phase))

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
# polynomials over Z[zeta_m]


def times_binomials(poly, factors) -> list[CycValue]:
    """poly * prod (t^k - zeta_m^e) over the ``(k, e)`` factors, low to high.

    Every root is a power of zeta_m, so the product is formed in
    Z[x]/(x^m - 1), where multiplying by zeta_m^e shifts each exponent
    by e modulo m: each factor reindexes integer dicts, and each
    coefficient is reduced to canonical form once, at the end."""
    modulus = poly[0].modulus
    accs = [dict(c.coeffs) for c in poly]
    for k, e in factors:
        e %= modulus
        out: list[dict[int, int]] = [{} for _ in range(len(accs) + k)]
        for i, acc in enumerate(accs):
            high, low = out[i + k], out[i]
            for x, c in acc.items():
                if c:
                    high[x] = high.get(x, 0) + c
                    y = x + e - modulus if x + e >= modulus else x + e
                    low[y] = low.get(y, 0) - c
        accs = out
    return [_canonical(modulus, acc) for acc in accs]

