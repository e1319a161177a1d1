"""Ordinary differential operators annihilating the fibre integrals.

The plan: read local exponents at 0 and infinity straight off the
inverse-matrix data, cancel the common ones, and work with the reduced
order-``delta`` operator

    R = prod(theta + a) - t * prod(theta + b),

where ``theta = t d/dt``.  Everything stays in exact rationals; the
eigenvalues of the local monodromies are roots of unity, and the
characteristic polynomials and monodromy matrices have entries in the
cyclotomic integers Z[zeta_m] of :mod:`torus_fiber.cyclotomic`, held in
canonical form so that ``==`` is equality of complex numbers.  Floating
point appears only in ``cmath`` views of exact results (the unit-circle
screen of the determinant unit of ``h_one``, singular fibre positions).
"""

from __future__ import annotations

from cmath import exp as cexp, pi
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import lcm

from .cyclotomic import (
    CycValue,
    identity_matrix,
    mat_mul,
    mat_pow,
    root_exponent,
    times_binomials,
)
from .errors import InternalConsistencyError, ResonantExponentError
from .mellin import mellin_skeleton, pole_prediction
from .simplicial import SimplicialData, recorded

# how far the floating-point view of an exact eigenvalue may leave the
# unit circle before the monodromy check fails
EIGENVALUE_TOLERANCE = 1e-10

# ---------------------------------------------------------------------------
# exponents


@dataclass(frozen=True)
class OperatorShape:
    """Root lists of the two theta polynomials before reduction.

    ``p_roots`` / ``q_roots`` are the roots in the original variable;
    dividing by ``gamma`` gives the roots after the Kummer substitution
    t = s^gamma.
    """

    p_roots: tuple[Fraction, ...]
    q_roots: tuple[Fraction, ...]
    gamma: int


def theta_operators(data: SimplicialData, vector) -> OperatorShape:
    """Theta roots from the skeleton's integer forms: ``(num + g j) / B_q``
    for j < |B_q|, with a reflected denominator form ``(g - num, -B_q)``
    turned back first."""
    skeleton = mellin_skeleton(data, vector)
    g = data.gamma
    p_roots = [
        Fraction(form.num + g * j, form.slope_num)
        for form in skeleton.numerator for j in range(form.slope_num)
    ]
    q_roots = [
        Fraction(g - form.num + g * j, -form.slope_num)
        for form in skeleton.denominator for j in range(form.slope_num)
    ]
    return OperatorShape(
        p_roots=tuple(sorted(p_roots)),
        q_roots=tuple(sorted(q_roots)),
        gamma=g,
    )


@dataclass(frozen=True)
class ExponentSets:
    """Local exponent multisets at 0 (plus) and infinity (minus).

    ``common`` is the multiset intersection; the reduced operator uses
    the two differences.  All four are sorted tuples with multiplicity.
    """

    plus: tuple[Fraction, ...]
    minus: tuple[Fraction, ...]
    common: tuple[Fraction, ...]
    reduced_plus: tuple[Fraction, ...]
    reduced_minus: tuple[Fraction, ...]

    @property
    def reduced_order(self) -> int:
        return len(self.reduced_plus)


def _multiset_split(a, b):
    """Return (common, a - common, b - common) as sorted tuples."""
    from collections import Counter

    ca, cb = Counter(a), Counter(b)
    common = ca & cb
    return (
        tuple(sorted(common.elements())),
        tuple(sorted((ca - common).elements())),
        tuple(sorted((cb - common).elements())),
    )


@recorded
def local_exponents(data: SimplicialData, vector) -> ExponentSets:
    g = data.gamma
    plus: list[Fraction] = []
    minus: list[Fraction] = []
    for q in data.pos_class:
        b = data.z_coeffs[q]
        shift = (data.pairing(q, vector) - 1) / g
        plus.extend(Fraction(j, b) - shift for j in range(b))
    for q in data.neg_class:
        b = data.z_coeffs[q]
        shift = (data.pairing(q, vector) - 1) / g
        minus.extend(Fraction(j, b) - shift for j in range(1, -b + 1))
    if len(plus) != len(minus):
        raise InternalConsistencyError(
            f"exponent multisets have sizes {len(plus)} != {len(minus)}"
        )
    common, red_plus, red_minus = _multiset_split(plus, minus)
    return ExponentSets(
        plus=tuple(sorted(plus)),
        minus=tuple(sorted(minus)),
        common=common,
        reduced_plus=red_plus,
        reduced_minus=red_minus,
    )


def verify_exponent_bridge(shape: OperatorShape, sets: ExponentSets) -> None:
    """The negated local exponents and the Kummer roots agree modulo 1:
    the plus exponents with the numerator roots, and the minus exponents
    with the denominator roots (which come from the reflected forms)."""
    for side, exponents, roots in (
        ("plus", sets.plus, shape.p_roots),
        ("minus", sets.minus, shape.q_roots),
    ):
        left = sorted((-a) % 1 for a in exponents)
        right = sorted((r / shape.gamma) % 1 for r in roots)
        if left != right:
            raise InternalConsistencyError(
                f"{side} exponents and theta roots disagree modulo 1: "
                f"{left} vs {right}"
            )


# ---------------------------------------------------------------------------
# the reduced operator and its series solutions


@dataclass(frozen=True)
class ReducedOperator:
    """R = prod(theta + a) - t * prod(theta + b), a/b sorted with multiplicity."""

    plus_shifts: tuple[Fraction, ...]
    minus_shifts: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.plus_shifts)

    @property
    def indicial_roots(self) -> tuple[Fraction, ...]:
        return tuple(sorted(-a for a in self.plus_shifts))

    @cached_property
    def expanded(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        """Dense coefficients of prod(theta + a) and prod(theta + b)."""
        return _expand_shifts(self.plus_shifts), _expand_shifts(self.minus_shifts)


def reduced_operator(sets: ExponentSets) -> ReducedOperator:
    if len(sets.reduced_plus) != len(sets.reduced_minus):
        raise InternalConsistencyError("reduced exponent sets must balance")
    return ReducedOperator(
        plus_shifts=sets.reduced_plus,
        minus_shifts=tuple(sorted(a + 1 for a in sets.reduced_minus)),
    )


def _no_plain_series(roots: tuple[Fraction, ...], rho: Fraction) -> str | None:
    """Why ``rho`` admits no plain power-series solution among the
    indicial ``roots``, or ``None`` when it admits one."""
    count = roots.count(rho)
    if count == 0:
        return f"{rho} is not an indicial root"
    if count > 1:
        return f"indicial root {rho} has multiplicity > 1"
    for other in roots:
        d = other - rho
        if d.denominator == 1 and d >= 1:
            return f"resonant pair: {other} = {rho} + {d}"
    return None


def simple_nonresonant_exponents(op: ReducedOperator) -> tuple[Fraction, ...]:
    """Indicial roots at 0 that admit a plain power-series solution."""
    roots = op.indicial_roots
    return tuple(rho for rho in roots if _no_plain_series(roots, rho) is None)


@dataclass(frozen=True)
class FrobeniusSeries:
    exponent: Fraction
    coefficients: tuple[Fraction, ...]


def frobenius_series(op: ReducedOperator, rho, count: int = 8) -> FrobeniusSeries:
    """Power-series solution t^rho * sum a_k t^k with a_0 = 1.

    Refuses multiple or resonant exponents: those need logarithmic
    solutions, which this package does not construct.
    """
    rho = Fraction(rho)
    refusal = _no_plain_series(op.indicial_roots, rho)
    if refusal is not None:
        raise ResonantExponentError(refusal)
    coeffs = [Fraction(1)]
    for k in range(1, count + 1):
        num = Fraction(1)
        for b in op.minus_shifts:
            num *= rho + k - 1 + b
        den = Fraction(1)
        for a in op.plus_shifts:
            den *= rho + k + a
        coeffs.append(coeffs[-1] * num / den)
    return FrobeniusSeries(exponent=rho, coefficients=tuple(coeffs))


def _expand_shifts(shifts) -> tuple[Fraction, ...]:
    """Dense coefficients of prod (x + a), low to high."""
    poly = [Fraction(1)]
    for a in shifts:
        nxt = [Fraction(0)] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i] += c * a
            nxt[i + 1] += c
        poly = nxt
    return tuple(poly)


def _eval_poly(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def verify_annihilation(op: ReducedOperator, series: FrobeniusSeries) -> None:
    """Apply R to the truncated series through expanded coefficients.

    This re-derives every theta-polynomial value by Horner evaluation
    of the expanded product, independently of the factored recurrence
    that built the series, and demands that all computable coefficients
    of R(series) vanish exactly.  The expansion is made once per operator.
    """
    a_poly, b_poly = op.expanded
    rho = series.exponent
    coeffs = series.coefficients
    head = _eval_poly(a_poly, rho) * coeffs[0]
    if head != 0:
        raise InternalConsistencyError(
            f"operator does not kill the leading term: A({rho}) = {head}"
        )
    for k in range(1, len(coeffs)):
        residual = (
            _eval_poly(a_poly, rho + k) * coeffs[k]
            - _eval_poly(b_poly, rho + k - 1) * coeffs[k - 1]
        )
        if residual != 0:
            raise InternalConsistencyError(
                f"nonzero coefficient of t^({rho}+{k}) after applying the operator"
            )


# ---------------------------------------------------------------------------
# characteristic polynomials of the local monodromies


@dataclass(frozen=True)
class CharPolyData:
    """Exact characteristic polynomials of the monodromies at 0 and infinity.

    Coefficients lie in Z[zeta_modulus], stored low to high; both
    polynomials are monic of degree ``order``.  The constant terms are
    the units +-zeta^e of :func:`_constant_unit`, whose inverses
    +-zeta^-e make exact matrix inversion possible downstream.
    """

    modulus: int
    order: int
    x_zero: tuple[CycValue, ...]
    x_infinity: tuple[CycValue, ...]
    unit_multiplicity: int


def _poly_from_phases(modulus: int, phases) -> list[CycValue]:
    """prod (t - e^(2 pi i phase)), low to high."""
    return times_binomials(
        [CycValue.from_int(modulus, 1)],
        [(1, root_exponent(modulus, phase)) for phase in phases],
    )


def _constant_unit(modulus: int, exps, power: int) -> CycValue:
    """The constant term (-1)^n e^(-2 pi i sum(exps)) of prod (t - e^(-2 pi i a))
    over the n exponents a, for ``power`` 1, or its inverse, for -1."""
    phase = -power * sum(exps, Fraction(0))
    return CycValue.from_phase(modulus, phase) * (-1) ** len(exps)


def _unit_root_multiplicity(modulus: int, coeffs) -> int:
    """How many times (t - 1) divides the polynomial, exactly."""
    zero = CycValue.zero(modulus)
    current = list(coeffs)
    count = 0
    while len(current) > 1 and sum(current, zero) == zero:
        # synthetic division by (t - 1): quotient coefficients are the
        # partial sums from the top
        quotient = []
        acc = zero
        for c in reversed(current[1:]):
            acc = acc + c
            quotient.append(acc)
        current = quotient[::-1]
        count += 1
    return count


@recorded
def characteristic_polynomials(data: SimplicialData, vector) -> CharPolyData:
    sets = local_exponents(data, vector)
    all_exps = sets.plus + sets.minus
    modulus = 1
    for a in all_exps:
        modulus = lcm(modulus, a.denominator)
    x_zero = _poly_from_phases(modulus, [-a for a in sets.reduced_plus])
    x_inf = _poly_from_phases(modulus, [-a for a in sets.reduced_minus])
    for poly, exps in ((x_zero, sets.reduced_plus), (x_inf, sets.reduced_minus)):
        if poly[0] != _constant_unit(modulus, exps, 1):
            raise InternalConsistencyError("constant terms disagree with symbolic product")

    _verify_grouped_products(data, vector, sets, modulus, x_zero, x_inf)

    unit_mult = _unit_root_multiplicity(modulus, x_zero)
    direct = sum(1 for a in sets.reduced_plus if a.denominator == 1)
    if unit_mult != direct:
        raise InternalConsistencyError(
            f"unit-root multiplicity {unit_mult} != integer exponent count {direct}"
        )
    return CharPolyData(
        modulus=modulus,
        order=sets.reduced_order,
        x_zero=tuple(x_zero),
        x_infinity=tuple(x_inf),
        unit_multiplicity=unit_mult,
    )


def _verify_grouped_products(data, vector, sets, modulus, x_zero, x_inf):
    """Check the factored closed forms of the full exponent products.

    Before cancellation, the polynomial over the plus exponents factors
    as prod_q (t^{B_q} - w_q) with one explicit root-of-unity w_q per
    positive-class index, and likewise over the minus side.  We expand
    those, multiply the cancelled factors back in, and compare
    coefficientwise.
    """
    g = data.gamma
    one = CycValue.from_int(modulus, 1)

    def grouped(classes, sign):
        factors = []
        for q in classes:
            size = sign * data.z_coeffs[q]
            phase = (data.pairing(q, vector) - 1) / g * size
            factors.append((size, root_exponent(modulus, phase)))
        return times_binomials([one], factors)

    common = [(1, root_exponent(modulus, -a)) for a in sets.common]
    for label, full, restored in (
        ("plus", grouped(data.pos_class, 1), times_binomials(x_zero, common)),
        ("minus", grouped(data.neg_class, -1), times_binomials(x_inf, common)),
    ):
        if len(full) != len(restored):
            raise InternalConsistencyError(f"{label} product degrees disagree")
        for i, (a, b) in enumerate(zip(full, restored)):
            if a != b:
                raise InternalConsistencyError(
                    f"{label} closed form disagrees at degree {i}"
                )


# ---------------------------------------------------------------------------
# monodromy matrices


def _companion(coeffs, modulus: int):
    """Companion matrix of a monic polynomial given low-to-high."""
    n = len(coeffs) - 1
    zero = CycValue.zero(modulus)
    one = CycValue.from_int(modulus, 1)
    rows = []
    for i in range(n):
        row = [one if (j + 1 == i) else zero for j in range(n - 1)]
        row.append(-coeffs[i])
        rows.append(tuple(row))
    return tuple(rows)


def _companion_inverse(coeffs, inv_const: CycValue, modulus: int):
    """Exact inverse of the companion matrix, given the inverse of its
    unit constant term."""
    n = len(coeffs) - 1
    if n == 0:
        return ()
    zero = CycValue.zero(modulus)
    one = CycValue.from_int(modulus, 1)
    cols: list[list[CycValue]] = [[zero] * n for _ in range(n)]
    # column j >= 1 is e_{j-1}
    for j in range(1, n):
        cols[j][j - 1] = one
    # column 0 solves C v = e_0
    cols[0][n - 1] = -inv_const
    for r in range(n - 1):
        cols[0][r] = -(coeffs[r + 1] * inv_const)
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class SingularLocus:
    """The non-smooth fibres sit where s^gamma equals ``ratio``."""

    ratio: Fraction
    gamma: int

    def positions(self) -> tuple[complex, ...]:
        if self.ratio == 0:
            return ()
        radius = float(abs(self.ratio)) ** (1.0 / self.gamma)
        base = pi if self.ratio < 0 else 0.0
        return tuple(
            radius * cexp(1j * ((base + 2 * pi * j) / self.gamma))
            for j in range(self.gamma)
        )


@dataclass(frozen=True)
class MonodromyData:
    """Local monodromies in a companion basis, exact over Z[zeta_modulus].

    ``h_zero`` and ``h_infinity`` generate one full turn around 0 and
    infinity, and ``h_one`` is defined by the product-one relation.  The
    turn around the i-th of the ``singular.gamma`` finite singular fibres
    is ``h_one`` conjugated i times by ``h_infinity``; those conjugates
    are not built, since each is fixed by ``h_one`` and ``h_infinity``.

    Eigenvalues are evaluated from the exact spectra, never from a
    floating eigensolver: the companion matrices carry the roots of their
    defining polynomials (explicit roots of unity), and ``h_one - 1``
    has rank at most one, because ``h_one`` is a product of two companion
    matrices that differ in one column (Levelt).  That rank is verified
    exactly, so the spectrum of ``h_one`` is 1 with multiplicity
    ``order - 1`` plus one explicit determinant unit.  The trace of
    ``h_infinity`` to the power gamma, formed by binary powering, is
    compared with the sum of the gamma-th powers of its listed
    eigenvalues.  A failed check raises :class:`InternalConsistencyError`.
    ``max_eigenvalue_deviation`` is how far the floating-point view of
    the determinant unit lies off the unit circle.
    """

    modulus: int
    order: int
    h_zero: tuple
    h_infinity: tuple
    h_infinity_inverse: tuple
    h_one: tuple
    singular: SingularLocus
    max_eigenvalue_deviation: float


def _rank_at_most_one(mat) -> bool:
    """Whether the matrix has rank 0 or 1.

    With a nonzero pivot entry, vanishing of every 2x2 minor through the
    pivot forces the matrix to be the outer product of its pivot row and
    column, so only those minors need testing.
    """
    n = len(mat)
    pivot = None
    for i in range(n):
        for j in range(n):
            if mat[i][j].coeffs:
                pivot = (i, j)
                break
        if pivot is not None:
            break
    if pivot is None:
        return True
    pr, pc = pivot
    p = mat[pr][pc]
    for i in range(n):
        if i == pr:
            continue
        for j in range(n):
            if j == pc:
                continue
            minor = p * mat[i][j] - mat[pr][j] * mat[i][pc]
            if minor.coeffs:
                return False
    return True


def monodromy(data: SimplicialData, vector) -> MonodromyData:
    sets = local_exponents(data, vector)
    char = characteristic_polynomials(data, vector)
    modulus = char.modulus
    n = char.order
    g = data.gamma

    x_zero_inverse = _constant_unit(modulus, sets.reduced_plus, -1)
    x_inf_inverse = _constant_unit(modulus, sets.reduced_minus, -1)
    h0 = _companion(char.x_zero, modulus)
    h_inf_inv = _companion(char.x_infinity, modulus)
    h_inf = _companion_inverse(char.x_infinity, x_inf_inverse, modulus)
    h0_inv = _companion_inverse(char.x_zero, x_zero_inverse, modulus)

    ident = identity_matrix(n, modulus)
    if mat_mul(h_inf, h_inf_inv) != ident:
        raise InternalConsistencyError("companion inverse failed at infinity")
    if mat_mul(h0, h0_inv) != ident:
        raise InternalConsistencyError("companion inverse failed at zero")

    h1 = mat_mul(h_inf_inv, h0_inv)
    if mat_mul(mat_mul(h0, h_inf), h1) != ident:
        raise InternalConsistencyError("product-one relation failed")

    # h_inf has the eigenvalues e^(2 pi i a) over the reduced minus
    # exponents, so the trace of its gamma-th power (one turn in the base
    # coordinate) is the sum of their gamma-th powers
    turn = mat_pow(h_inf, g)
    zero = CycValue.zero(modulus)
    if sum((turn[i][i] for i in range(n)), zero) != sum(
        (CycValue.from_phase(modulus, a * g) for a in sets.reduced_minus), zero
    ):
        raise InternalConsistencyError(
            "trace of h_infinity^gamma disagrees with its exact spectrum"
        )

    ratio_num = 1
    for q in data.pos_class:
        ratio_num *= data.z_coeffs[q]
    ratio_den = 1
    for q in data.neg_class:
        ratio_den *= data.z_coeffs[q]
    singular = SingularLocus(ratio=Fraction(ratio_num, ratio_den), gamma=g)

    # det(h1) = det(h_inf_inv) / det(h0); the (-1)^n factors cancel
    special = char.x_infinity[0] * x_zero_inverse
    deviation = 0.0
    if n:
        diff = tuple(
            tuple(h1[i][j] - ident[i][j] for j in range(n)) for i in range(n)
        )
        if not _rank_at_most_one(diff):
            raise InternalConsistencyError("h_one - 1 does not have rank one")
        trace = sum((h1[i][i] for i in range(n)), zero)
        if trace != special + (n - 1):
            raise InternalConsistencyError(
                "h_one trace disagrees with its rank-one spectrum"
            )
        deviation = abs(abs(special.to_complex()) - 1.0)
    if deviation > EIGENVALUE_TOLERANCE:
        raise InternalConsistencyError(
            f"monodromy eigenvalues drifted off the unit circle by {deviation}"
        )
    return MonodromyData(
        modulus=modulus,
        order=n,
        h_zero=h0,
        h_infinity=h_inf,
        h_infinity_inverse=h_inf_inv,
        h_one=h1,
        singular=singular,
        max_eigenvalue_deviation=deviation,
    )


# ---------------------------------------------------------------------------
# unipotent block bookkeeping


@dataclass(frozen=True)
class JordanReport:
    """Size of the expected maximal unipotent block of the turn around 0.

    ``block_size`` comes from the tight-factor count minus integer
    common exponents; ``unit_multiplicity`` is the eigenvalue-1
    multiplicity of the characteristic polynomial at 0, computed
    independently.  The two need not agree in general — a mismatch is
    reported, never reconciled silently.
    """

    block_size: int
    unit_multiplicity: int
    tight_count: int
    common_integer_count: int
    consistent: bool


def jordan_report(data: SimplicialData, vector) -> JordanReport:
    sets = local_exponents(data, vector)
    char = characteristic_polynomials(data, vector)
    prediction = pole_prediction(data, vector)
    r = len(prediction.tight_pos)
    common_ints = sum(1 for a in sets.common if a.denominator == 1)
    block = r + 1 - common_ints
    return JordanReport(
        block_size=block,
        unit_multiplicity=char.unit_multiplicity,
        tight_count=r,
        common_integer_count=common_ints,
        consistent=(block == char.unit_multiplicity),
    )
