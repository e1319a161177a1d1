"""Ordinary differential operators annihilating the fibre integrals.

The plan: read local exponents at 0 and infinity straight off the
inverse-matrix data, cancel the common ones, and work with the reduced
order-``delta`` operator

    R = prod(theta + a) - t * prod(theta + b),

where ``theta = t d/dt``.  Everything stays in exact rationals; the
eigenvalues of the local monodromies are roots of unity, and the
characteristic polynomials and monodromy matrices have entries in the
cyclotomic integers Z[zeta_m] of :mod:`torus_fiber.cyclotomic`, held in
canonical form so that ``==`` is equality of complex numbers.  The
monodromy matrices are shifted identities outside one column and are
held as that column (:class:`OneColumn`), so their relations and the
power sums of their spectra need only matrix-vector products, and dense
rows are built only to render them.  Every check compares exact values;
floating point appears only in the ``cmath`` positions of the singular
fibres.
"""

from __future__ import annotations

from cmath import exp as cexp, pi
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import lcm, prod

from .cyclotomic import CycValue, root_exponent, times_binomials
from .errors import InternalConsistencyError, LimitExceededError, ResonantExponentError
from .mellin import mellin_skeleton, pole_prediction
from .simplicial import SimplicialData, recorded

# the largest unreduced operator order, sum(B_q) over the positive class,
# whose exponent and theta-root lists are built; each holds that many
# entries
OPERATOR_ORDER_LIMIT = 10**4

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


def _check_operator_order(data: SimplicialData) -> None:
    order = sum(data.z_coeffs[q] for q in data.pos_class)
    if order > OPERATOR_ORDER_LIMIT:
        raise LimitExceededError(
            f"the unreduced operator has order {order}, above "
            f"OPERATOR_ORDER_LIMIT = {OPERATOR_ORDER_LIMIT} local exponents"
        )


def theta_operators(data: SimplicialData, vector) -> OperatorShape:
    """Theta roots from the skeleton's integer forms: ``(num + g j) / B_q``
    for j < |B_q|, with a reflected denominator form ``(g - num, -B_q)``
    turned back first."""
    _check_operator_order(data)
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
    _check_operator_order(data)
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
    coefficientwise.  Each side is monic of degree sum |B_q| over its
    class, the size of its exponent multiset, so the two expansions have
    the same length.
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
        for i, (a, b) in enumerate(zip(full, restored)):
            if a != b:
                raise InternalConsistencyError(
                    f"{label} closed form disagrees at degree {i}"
                )


# ---------------------------------------------------------------------------
# monodromy matrices


@dataclass(frozen=True)
class OneColumn:
    """An n x n matrix over Z[zeta_m] whose column j is the unit vector
    e_(j + shift) for every j but ``column``, which holds ``values``."""

    column: int
    shift: int
    values: tuple[CycValue, ...]

    def __matmul__(self, vec) -> list[CycValue]:
        """The product with a vector: the other entries of ``vec`` move by
        ``shift``, and ``vec[column]`` scales the one remaining column."""
        out = [CycValue.zero(vec[0].modulus)] * len(vec)
        for j, x in enumerate(vec):
            if j != self.column:
                out[j + self.shift] = x
        scale = vec[self.column]
        return [
            x + scale * v if v.coeffs else x for x, v in zip(out, self.values)
        ]

    def rows(self) -> tuple[tuple[CycValue, ...], ...]:
        """The dense matrix, row by row."""
        n = len(self.values)
        unit = [CycValue.from_int(self.values[0].modulus, k) for k in (0, 1)] if n else ()
        return tuple(
            tuple(v if j == self.column else unit[i == j + self.shift] for j in range(n))
            for i, v in enumerate(self.values)
        )


def _companion(coeffs) -> OneColumn:
    """Companion matrix of a monic polynomial given low-to-high."""
    return OneColumn(len(coeffs) - 2, 1, tuple(-c for c in coeffs[:-1]))


def _companion_inverse(coeffs, inv_const: CycValue) -> OneColumn:
    """Exact inverse of the companion matrix, given the inverse of its
    unit constant term: column 0 solves C v = e_0, and column j >= 1 is
    e_(j-1)."""
    return OneColumn(0, -1, tuple(-(c * inv_const) for c in coeffs[1:]))


@dataclass(frozen=True)
class SingularLocus:
    """The non-smooth fibres sit where s^gamma equals ``ratio``."""

    ratio: Fraction
    gamma: int

    def positions(self) -> tuple[complex, ...]:
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

    Each matrix is held as a :class:`OneColumn`, a shifted identity
    outside one column (``h_one`` fixes e_j for j >= 1, so ``h_one - 1``
    has rank at most one); :meth:`OneColumn.rows` gives the dense view.
    Each inverse relation and the product-one relation holds on the unit
    columns by construction and is checked by matrix-vector products on
    the remaining column.  The traces of ``h_infinity^k`` for k up to
    max(gamma, order), read off the Krylov sequence ``h_infinity^k e_0``,
    must equal the power sums of its listed eigenvalues; by Newton's
    identities they fix its characteristic polynomial.  The determinant
    unit of ``h_one`` must equal the root of unity its exponents predict,
    exactly, so it lies on the unit circle with no floating-point screen.
    A failed check raises :class:`InternalConsistencyError`.
    """

    modulus: int
    order: int
    h_zero: OneColumn
    h_infinity: OneColumn
    h_one: OneColumn
    singular: SingularLocus


def _unit(n: int, k: int, modulus: int) -> list[CycValue]:
    vec = [CycValue.zero(modulus)] * n
    vec[k] = CycValue.from_int(modulus, 1)
    return vec


def _power_traces(h_inf: OneColumn, count: int) -> list[CycValue]:
    """trace(h_inf^k) for k = 1..count.  Column j of h_inf^k is
    h_inf^(k-j) e_0 for j <= k and e_(j-k) otherwise, so the diagonal
    entry (j, j) of h_inf^k is entry j of the Krylov vector
    h_inf^(k-j) e_0 (0 for j = k >= 1), each such vector one companion
    product from the last."""
    modulus = h_inf.values[0].modulus
    vec = _unit(len(h_inf.values), 0, modulus)
    traces = [CycValue.zero(modulus)] * count
    for i in range(1, count + 1):
        vec = h_inf @ vec
        for j in range(min(len(vec), count + 1 - i)):
            traces[i + j - 1] += vec[j]
    return traces


def monodromy(data: SimplicialData, vector) -> MonodromyData:
    sets = local_exponents(data, vector)
    char = characteristic_polynomials(data, vector)
    modulus = char.modulus
    n = char.order
    g = data.gamma

    x_zero_inverse = _constant_unit(modulus, sets.reduced_plus, -1)
    x_inf_inverse = _constant_unit(modulus, sets.reduced_minus, -1)
    h0 = _companion(char.x_zero)
    h_inf_inv = _companion(char.x_infinity)
    h_inf = _companion_inverse(char.x_infinity, x_inf_inverse)
    h0_inv = _companion_inverse(char.x_zero, x_zero_inverse)
    # columns j >= 1 of h0_inv are e_(j-1), which the companion h_inf_inv
    # sends to e_j, so h_inf_inv h0_inv is the identity outside column 0
    h1 = OneColumn(0, 0, tuple(h_inf_inv @ h0_inv.values) if n else ())

    z = data.z_coeffs
    ratio = Fraction(prod(z[q] for q in data.pos_class), prod(z[q] for q in data.neg_class))
    singular = SingularLocus(ratio=ratio, gamma=g)

    # det(h1) = det(h_inf_inv) / det(h0); the (-1)^n factors cancel
    special = char.x_infinity[0] * x_zero_inverse
    if n:
        # each relation below holds on every column but the one it
        # checks: e.g. h_inf sends column j < n - 1 of h_inf_inv, e_(j+1),
        # to e_j
        if h_inf @ h_inf_inv.values != _unit(n, n - 1, modulus):
            raise InternalConsistencyError("companion inverse failed at infinity")
        if h0 @ h0_inv.values != _unit(n, 0, modulus):
            raise InternalConsistencyError("companion inverse failed at zero")
        if h0 @ (h_inf @ h1.values) != _unit(n, 0, modulus):
            raise InternalConsistencyError("product-one relation failed")

        # h_inf has the eigenvalues e^(2 pi i a) over the reduced minus
        # exponents, so the trace of its k-th power is the sum of their
        # k-th powers
        exps = [root_exponent(modulus, a) for a in sets.reduced_minus]
        for k, trace in enumerate(_power_traces(h_inf, max(g, n)), 1):
            if trace != CycValue.build(modulus, [(k * e, 1) for e in exps]):
                raise InternalConsistencyError(
                    f"trace of h_infinity^{k} disagrees with its exact spectrum"
                )

        phase = sum(sets.reduced_plus) - sum(sets.reduced_minus)
        if special != CycValue.from_phase(modulus, phase):
            raise InternalConsistencyError(
                "determinant unit of h_one disagrees with its exponents"
            )
        # h_one is the identity outside column 0, so its spectrum is 1
        # (n - 1 times) and its entry (0, 0), and its trace is that entry
        # plus n - 1
        if h1.values[0] != special:
            raise InternalConsistencyError(
                "h_one trace disagrees with its rank-one spectrum"
            )
    return MonodromyData(
        modulus=modulus,
        order=n,
        h_zero=h0,
        h_infinity=h_inf,
        h_one=h1,
        singular=singular,
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
