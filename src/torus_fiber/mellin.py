"""Gamma-factor skeletons of fibre transforms and pole bookkeeping.

For a lattice vector J the transform of the associated monomial is, up
to an entire factor that is never computed here, a ratio of gamma
functions whose arguments are the affine forms of
:func:`torus_fiber.simplicial.linear_forms`: positive-class forms in the
numerator, reflected negative-class forms in the denominator, and
z-free constants collected separately.  Poles reported from this
skeleton are therefore *candidate* poles: every true pole of the
transform appears here, but a candidate can be killed by the entire
factor.  Checks in the sweeps below only assert what survives that
one-sided relationship — candidate positions, exact multiplicity
bookkeeping at the expected position, and global upper bounds.

The skeleton also answers for the polynomial itself.  Let F be the
choice's extended polynomial, J a vector of its width and k >= 0, and
evaluate every argument at z = k + 1.  The projective numerator form
gives z itself; every other numerator form gives a_q = -arg, every
reflected denominator form a_q = arg - 1, and every z-free constant c
gives a_q = -c.  The a_q are the barycentric coordinates of -J in the
support of F, so the constant term of x^J F^k is k! / prod_q a_q! when
every a_q is a nonnegative integer, and 0 otherwise.

Every argument is an integer numerator over the common denominator
gamma (see :class:`torus_fiber.simplicial.LinearForm`): reflection and
the pole tests are integer arithmetic, and a ``Fraction`` is made only
for a candidate pole position.

The skeleton, the classification against the closure, the extended
filtration degree and the pole prediction of a (choice, vector) pair
are each computed once, on their first request, and kept in the pair's
record (``SimplicialData.records``) for every later consumer.
The sweeps take their vectors from the caller: the sweep domain once
per choice, and the base-lattice strata once per polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalConsistencyError
from .lattice import MonomialClass, classify_monomial, filtration_degree, lattice_points
from .polytope import Face, NewtonPolytope, minimal_face_of
from .simplicial import LinearForm, SimplicialData, linear_forms, recorded


@dataclass(frozen=True)
class MellinSkeleton:
    """Gamma-quotient shape of one monomial transform.

    ``numerator`` holds the arguments of numerator gamma factors,
    ``denominator`` those of denominator gamma factors (already
    reflected, so every slope in both tuples is positive), and
    ``constant_nums`` the numerators over ``gamma`` of the z-free
    arguments (``constants`` is their ``Fraction`` view).
    ``degenerate`` flags a constant at a nonpositive integer, where the
    skeleton as written degenerates: the sweeps skip or note it, and the
    report renders no poles for it.
    """

    gamma: int
    numerator: tuple[LinearForm, ...]
    denominator: tuple[LinearForm, ...]
    constant_nums: tuple[int, ...]
    degenerate: bool

    @property
    def constants(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.gamma) for c in self.constant_nums)


@recorded
def mellin_skeleton(data: SimplicialData, vector) -> MellinSkeleton:
    """The positive-class forms over the reflected negative-class forms,
    with the z-free constants set apart.

    Every slope is positive by the definition of the two classes, and
    the slopes balance because the weights B sum to zero.
    """
    g = data.gamma
    numerator = []
    denominator = []
    constant_nums = []
    for form in linear_forms(data, vector):
        if form.q in data.pos_class:
            numerator.append(form)
        elif form.q in data.neg_class:
            # 1 - (num + b z) / g  ==  ((g - num) - b z) / g
            denominator.append(
                LinearForm(
                    q=form.q,
                    num=g - form.num,
                    slope_num=-form.slope_num,
                    den=g,
                    kind="reflected",
                )
            )
        else:
            constant_nums.append(form.num)
    degenerate = any(c <= 0 and c % g == 0 for c in constant_nums)
    return MellinSkeleton(
        gamma=g,
        numerator=tuple(numerator),
        denominator=tuple(denominator),
        constant_nums=tuple(constant_nums),
        degenerate=degenerate,
    )


def _hits(forms, z: int) -> int:
    """Number of forms taking a nonpositive-integer value at the integer z."""
    count = 0
    for form in forms:
        t = form.num + form.slope_num * z
        if t <= 0 and t % form.den == 0:
            count += 1
    return count


@dataclass(frozen=True)
class PoleReport:
    """Candidate poles of the skeleton at or above ``z_min``.

    ``poles`` is (position, order) sorted by descending position;
    ``cancellations`` lists positions where denominator factors removed
    numerator hits, as (position, numerator hits, denominator hits).
    """

    z_min: Fraction
    poles: tuple[tuple[Fraction, int], ...]
    cancellations: tuple[tuple[Fraction, int, int], ...]

    @property
    def max_pole(self) -> tuple[Fraction, int] | None:
        return self.poles[0] if self.poles else None


def enumerate_poles(skeleton: MellinSkeleton, z_min) -> PoleReport:
    """All candidate pole positions with order >= 1 down to ``z_min``;
    the z-free constants, degenerate or not, take no part."""
    z_min = Fraction(z_min)
    p, d = z_min.numerator, z_min.denominator
    counts: dict[Fraction, list[int]] = {}
    for side, forms in ((0, skeleton.numerator), (1, skeleton.denominator)):
        for form in forms:
            # the argument (num + s z) / g sits at arg = 0, -1, ... when
            # z = (arg g - num) / s, and z >= z_min while arg >= lowest
            g, num, s = form.den, form.num, form.slope_num
            lowest = -(-(num * d + s * p) // (g * d))
            for arg in range(0, lowest - 1, -1):
                counts.setdefault(Fraction(arg * g - num, s), [0, 0])[side] += 1
    poles = []
    cancellations = []
    for z in sorted(counts, reverse=True):
        num, den = counts[z]
        if num >= 1 and den >= 1:
            cancellations.append((z, num, den))
        if num >= 1 and num - den >= 1:
            poles.append((z, num - den))
    return PoleReport(
        z_min=z_min, poles=tuple(poles), cancellations=tuple(cancellations)
    )


@dataclass(frozen=True)
class PolePrediction:
    """Expected highest pole location for one monomial, from the geometry.

    ``degree_k`` classifies the vector against the hull of the support
    together with the origin; ``tight_pos`` / ``tight_neg`` list the
    0-based factor indices whose facet normals are tight at that degree.
    With at least one tight positive factor the prediction is an exact
    position with an order bound; otherwise an open interval.  The
    prediction speaks about the true transform, so the skeleton can
    only confirm it as a candidate (see module docstring).
    """

    degree_k: int
    hodge_p: int
    tight_pos: tuple[int, ...]
    tight_neg: tuple[int, ...]
    kind: str  # "at" | "interval"
    position: Fraction | None
    order_bound: int | None
    interval: tuple[Fraction, Fraction] | None
    filtration_k: int | None


@recorded
def extended_filtration(data: SimplicialData, vector) -> int | None:
    """Smallest k >= 1 with ``vector`` in the k-th dilate of the extended
    polytope, or ``None``."""
    return filtration_degree(data.extended_polytope, vector)


@recorded
def closure_class(data: SimplicialData, vector) -> MonomialClass:
    """Degree and stratum of ``vector`` against the closure polytope;
    raises :class:`~torus_fiber.errors.ConeMembershipError` outside its
    cone."""
    return classify_monomial(data.closure_polytope, vector)


@recorded
def pole_prediction(data: SimplicialData, vector) -> PolePrediction:
    placed = closure_class(data, vector)
    k = placed.degree_k
    tight_pos, tight_neg = data.tight_sets(vector, k)
    if tight_pos:
        kind, position, interval = "at", Fraction(1 - k), None
        order_bound = len(tight_pos) + 1
    else:
        stretch = max(Fraction(data.gamma, data.z_coeffs[q]) for q in data.pos_class)
        kind, position, order_bound = "interval", None, None
        interval = (1 - k * (1 + stretch), Fraction(1 - k))
    return PolePrediction(
        degree_k=k,
        hodge_p=placed.hodge_p,
        tight_pos=tight_pos,
        tight_neg=tight_neg,
        kind=kind,
        position=position,
        order_bound=order_bound,
        interval=interval,
        filtration_k=extended_filtration(data, vector),
    )


@dataclass(frozen=True)
class SweepIssue:
    vector: tuple[int, ...]
    code: str
    detail: str


@dataclass(frozen=True)
class SweepReport:
    k_max: int
    checked: int
    violations: tuple[SweepIssue, ...]
    notes: int
    skipped_degenerate: tuple[tuple[int, ...], ...]


def _dilate_points(poly: NewtonPolytope, k_max: int) -> list[tuple[int, ...]]:
    """Nonzero lattice points of the dilates of ``poly`` up to ``k_max``, sorted."""
    origin = (0,) * poly.ambient_dim
    points: set[tuple[int, ...]] = set()
    for k in range(1, k_max + 1):
        points.update(p for p in lattice_points(poly, k) if p != origin)
    return sorted(points)


def sweep_domain(data: SimplicialData, k_max: int) -> list[tuple[int, ...]]:
    """Nonzero lattice vectors of the extended-polytope dilates up to k_max."""
    return _dilate_points(data.extended_polytope, k_max)


def sweep_pole_checks(
    data: SimplicialData, k_max: int, domain: list[tuple[int, ...]]
) -> SweepReport:
    """Exhaustive candidate-pole consistency scan over low filtration degrees.

    For every vector of ``domain``, the :func:`sweep_domain` of ``data``
    up to ``k_max`` (each classified by its minimal dilate), verify on
    the skeleton:

    * no candidate pole lies right of zero;
    * with r tight positive factors at degree k, the expected position
      1-k collects exactly r+1 numerator hits, and its order is exactly
      r+1 minus the denominator hits there (so, r+1 when nothing
      cancels) and never more than r+1;
    * the order reported by full enumeration agrees with that count.

    Denominator cancellations and vectors with no tight positive factor
    are counted as notes, never violations: the skeleton only bounds
    the true transform from above.
    """
    violations: list[SweepIssue] = []
    notes = 0
    skipped: list[tuple[int, ...]] = []
    checked = 0
    for vector in domain:
        fil_k = extended_filtration(data, vector)
        if fil_k is None or fil_k > k_max:
            raise InternalConsistencyError(
                f"swept vector {vector} has no dilate degree <= {k_max}"
            )
        skeleton = mellin_skeleton(data, vector)
        if skeleton.degenerate:
            skipped.append(vector)
            continue
        checked += 1
        report = enumerate_poles(skeleton, z_min=1 - fil_k)
        for z, order in report.poles:
            if z > 0:
                violations.append(
                    SweepIssue(vector, "pole-right-of-zero", f"pole at {z} order {order}")
                )
        r = len(data.tight_sets(vector, fil_k)[0])
        z0 = 1 - fil_k
        num_hits = _hits(skeleton.numerator, z0)
        den_hits = _hits(skeleton.denominator, z0)
        if r >= 1:
            if num_hits != r + 1:
                violations.append(
                    SweepIssue(
                        vector,
                        "tight-count-mismatch",
                        f"expected {r + 1} numerator hits at {z0}, found {num_hits}",
                    )
                )
            order = num_hits - den_hits
            if order > r + 1:
                violations.append(
                    SweepIssue(
                        vector,
                        "order-bound-exceeded",
                        f"order {order} at {z0} exceeds bound {r + 1}",
                    )
                )
            listed = dict(report.poles).get(z0)
            expected = order if order >= 1 else None
            if listed != expected:
                violations.append(
                    SweepIssue(
                        vector,
                        "enumeration-mismatch",
                        f"enumerated order {listed} at {z0}, counted {expected}",
                    )
                )
            if den_hits:
                notes += 1  # cancellation: the order drops below r+1
        else:
            notes += 1  # no tight factor: no position pinned
    return SweepReport(
        k_max=k_max,
        checked=checked,
        violations=tuple(violations),
        notes=notes,
        skipped_degenerate=tuple(skipped),
    )


@dataclass(frozen=True)
class FaceSweepReport:
    k_max: int
    checked: int
    skipped_unpreserved: int
    violations: tuple[SweepIssue, ...]
    notes: int
    exemptions: int


Stratum = tuple[tuple[int, ...], int | None, Face | None]


def base_strata(poly: NewtonPolytope, k_max: int) -> tuple[Stratum, ...]:
    """Each nonzero lattice vector of the dilates of ``poly`` up to
    ``k_max``, sorted, with its filtration degree k and its minimal face
    at k (``None`` when k is ``None`` or above ``k_max``).

    This is the classification every choice's face sweep starts from,
    so it is made once per polynomial.
    """
    strata = []
    for vector in _dilate_points(poly, k_max):
        k = filtration_degree(poly, vector)
        if k is None or k > k_max:
            strata.append((vector, k, None))
        else:
            strata.append((vector, k, minimal_face_of(poly, vector, k)))
    return tuple(strata)


def sweep_preserved_face_checks(
    data: SimplicialData, k_max: int, strata: tuple[Stratum, ...]
) -> FaceSweepReport:
    """Scan base-lattice vectors whose stratum survives the extension.

    ``strata`` is :func:`base_strata` of the base Newton polytope up to
    ``k_max``.  For each of its vectors whose minimal face (at its
    minimal dilate degree k) is preserved by the extension, the
    zero-padded vector must satisfy the
    strict sandwich inequalities of the facet-normal pairing, class by
    class: zero-class values in (0, k), positive-class in
    (k, k(1+gamma/B_q)), negative-class in (k(1+gamma/B_q), k).  A
    pairing value of exactly zero is exempt (the vector is orthogonal
    to that normal), and boundary equalities are counted as notes.
    Candidate poles of the padded skeleton must stay at or left of
    zero; degenerate constants and candidates above the sharper
    true-transform bound 1-k are counted as notes, not enforced.
    """
    pad = (0,) * data.choice.n_aux
    kept_keys = {face.vertex_indices for face in data.preserved_faces}
    violations: list[SweepIssue] = []
    notes = 0
    checked = 0
    skipped = 0
    exemptions = 0
    for vector, k, stratum in strata:
        if stratum is None or stratum.vertex_indices not in kept_keys:
            skipped += 1
            continue
        checked += 1
        padded = vector + pad
        for q in range(data.m):
            t = data.pairing(q, padded)
            if t == 0:
                exemptions += 1
                continue
            if q in data.zero_class:
                lo, hi = Fraction(0), Fraction(k)
            elif q in data.pos_class:
                lo = Fraction(k)
                hi = k * (1 + Fraction(data.gamma, data.z_coeffs[q]))
            else:
                lo = k * (1 + Fraction(data.gamma, data.z_coeffs[q]))
                hi = Fraction(k)
            if t == lo or t == hi:
                notes += 1  # chain boundary: the pairing is an endpoint
            elif not lo < t < hi:
                violations.append(
                    SweepIssue(
                        vector,
                        "chain-violated",
                        f"pairing {t} with normal {q + 1} escapes ({lo}, {hi})",
                    )
                )
        skeleton = mellin_skeleton(data, padded)
        report = enumerate_poles(skeleton, z_min=-k)
        if skeleton.degenerate:
            notes += 1  # degenerate constants, absorbed into the entire factor
        for z, order in report.poles:
            if z > 0:
                violations.append(
                    SweepIssue(vector, "pole-right-of-zero", f"pole at {z} order {order}")
                )
        top = report.max_pole
        if top is not None and top[0] > 1 - k:
            notes += 1  # a candidate above the sharp bound 1-k
    return FaceSweepReport(
        k_max=k_max,
        checked=checked,
        skipped_unpreserved=skipped,
        violations=tuple(violations),
        notes=notes,
        exemptions=exemptions,
    )
