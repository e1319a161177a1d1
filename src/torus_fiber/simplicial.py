"""Auxiliary-variable extensions and the square exponent matrix.

Given a polynomial with M monomials in N variables (all coefficients 1),
each choice of M - N - 1 monomial positions receives one fresh variable,
making the extended support affinely independent whenever the resulting
(M+1) x (M+1) matrix

    [ exponent rows | 0 | 1 ]
    [   0  ...  0   | 1 | 1 ]

is nonsingular.  The integer adjugate of that matrix (its inverse scaled
by the determinant gamma) drives everything downstream: its s-row and
u-row are the integer weight vectors B and C, and its variable rows give
one integer vector E_q per column.  Each E_q is an inward facet normal of
the extended Newton polytope, ``<E_q, x> >= B_q``, so the half-space
description and every facet pairing stay in integers.

All derived quantities come with redundant internal checks; a failed
check raises InternalConsistencyError because it means arithmetic went
wrong, not that input was bad.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, wraps
from itertools import combinations
from math import comb, gcd

from .errors import InternalConsistencyError, NotSimplicializingError
from .exact import adjugate, dot, int_det, vec_sub
from .lattice import normalized_volume
from .laurent import LaurentPolynomial, Monomial
from .polytope import Face, NewtonPolytope, newton_polytope

DEFAULT_CHOICE_CAP = 10000


@dataclass(frozen=True)
class AuxChoice:
    """One way of attaching auxiliary variables to monomial positions.

    ``positions`` are 0-based indices into the term order of the base
    polynomial; ``ordinal`` is the 1-based rank of this choice in the
    lexicographic enumeration, which is what user-facing output shows.
    """

    positions: tuple[int, ...]
    ordinal: int
    total_monomials: int
    base_variables: int

    @property
    def n_aux(self) -> int:
        return len(self.positions)


def enumerate_choices(
    f: LaurentPolynomial, cap: int | None = DEFAULT_CHOICE_CAP
) -> tuple[tuple[AuxChoice, ...], bool]:
    """All auxiliary-variable choices in lexicographic order.

    Returns ``(choices, truncated)``; ``truncated`` is True when ``cap``
    cut the enumeration short.
    """
    m = len(f.support)
    n = f.n_variables
    n_aux = m - n - 1
    if n_aux < 0:
        raise NotSimplicializingError(
            f"{m} monomials in {n} variables: need at least {n + 1} monomials"
        )
    total = comb(m, n_aux)
    truncated = cap is not None and total > cap
    limit = cap if truncated else total
    choices = []
    for ordinal, positions in enumerate(combinations(range(m), n_aux), start=1):
        if ordinal > limit:
            break
        choices.append(
            AuxChoice(
                positions=positions,
                ordinal=ordinal,
                total_monomials=m,
                base_variables=n,
            )
        )
    return tuple(choices), truncated


def _aux_names(f: LaurentPolynomial, count: int) -> tuple[str, ...]:
    for stem in ("u", "aux", "_aux"):
        names = tuple(f"{stem}{i}" for i in range(1, count + 1))
        if not set(names) & set(f.variables):
            return names
    raise AssertionError("could not find fresh auxiliary variable names")


def support_condition_warnings(f: LaurentPolynomial, poly: NewtonPolytope) -> tuple[str, ...]:
    """Warn about support points in the interior of the Newton polytope.

    Results downstream are only guaranteed when no monomial sits in the
    relative interior of the hull.  The test is only performed for
    full-dimensional hulls; degenerate hulls fail hard elsewhere.
    """
    if not poly.full_dimensional:
        return ()
    warnings = []
    for mono in f.support:
        if all(facet.value(mono) < facet.offset for facet in poly.facets):
            warnings.append(
                f"support point {mono} lies in the interior of the Newton polytope; "
                "filtration statements may fail"
            )
    return tuple(warnings)


def extend_polynomial(f: LaurentPolynomial, choice: AuxChoice) -> LaurentPolynomial:
    """Attach one fresh variable to each chosen monomial, coefficient 1.

    Term order is preserved: row/term indexing downstream relies on it.
    """
    if choice.total_monomials != len(f.support) or choice.base_variables != f.n_variables:
        raise ValueError("choice was enumerated for a different polynomial")
    aux = _aux_names(f, choice.n_aux)
    position_of = {pos: j for j, pos in enumerate(choice.positions)}
    monomials = []
    for i, mono in enumerate(f.support):
        extra = [0] * choice.n_aux
        if i in position_of:
            extra[position_of[i]] = 1
        monomials.append(mono + tuple(extra))
    return LaurentPolynomial.from_support(f.variables + aux, monomials)


@dataclass(frozen=True)
class SimplicialData:
    """The square matrix of an auxiliary-variable choice and its adjugate data.

    ``matrix`` is the (M+1) x (M+1) integer matrix after any row swap
    needed to make the determinant ``gamma`` positive, which ``row_swap``
    names.  ``adjugate`` satisfies ``adjugate @ matrix == gamma * I``.
    ``z_coeffs`` (B) and ``u_coeffs`` (C) are its s- and u-rows;
    ``exponent_coeffs[q]`` is the q-th column of its variable rows.
    Index M is the added projective row; its column is the zero vector.
    Facet normals are not stored: :meth:`pairing` divides an integer dot
    product with ``exponent_coeffs[q]`` by :meth:`normal_divisor`.
    ``base_polytope`` is the Newton polytope of ``base``, built once per
    run and shared by its choices.  The choice's own geometry (the
    extended hull, the closure hull and the preserved faces) is built on
    first use and held here; like the records, it takes no part in
    comparison or hashing.
    ``records`` holds one record per vector asked about: a dict from the
    name of each :func:`recorded` function (the skeleton, the extended
    filtration degree, the class against the closure, the pole
    prediction, the local exponents and the characteristic polynomials)
    to its value for the pair.  So everything derived for a (choice,
    vector) pair is computed once and lives exactly as long as this
    object; the records take no part in comparison or hashing.
    """

    base: LaurentPolynomial
    choice: AuxChoice
    extended: LaurentPolynomial
    matrix: tuple[tuple[int, ...], ...]
    row_swap: tuple[int, int] | None
    gamma: int
    adjugate: tuple[tuple[int, ...], ...]
    z_coeffs: tuple[int, ...]
    u_coeffs: tuple[int, ...]
    exponent_coeffs: tuple[tuple[int, ...], ...]
    pos_class: tuple[int, ...]
    neg_class: tuple[int, ...]
    zero_class: tuple[int, ...]
    warnings: tuple[str, ...]
    base_polytope: NewtonPolytope = field(compare=False, repr=False)
    records: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def m(self) -> int:
        return self.choice.total_monomials

    @property
    def n_extended_vars(self) -> int:
        return self.m - 1

    def normal_divisor(self, q: int) -> int:
        """B_q, or gamma on the zero class (and the projective index M)."""
        return self.z_coeffs[q] or self.gamma

    def pairing(self, q: int, vector) -> Fraction:
        """``<facet_normals[q], vector>``, from one integer dot product."""
        return Fraction(dot(self.exponent_coeffs[q], vector), self.normal_divisor(q))

    def is_tight(self, q: int, vector, k: int) -> bool:
        """``pairing(q, vector) == k`` for q off the zero class, in integers."""
        return dot(self.exponent_coeffs[q], vector) == k * self.z_coeffs[q]

    def tight_sets(self, vector, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The positive-class indices below M and the negative-class
        indices whose facet normals pair with ``vector`` to ``k``."""
        tight_pos = tuple(
            q for q in self.pos_class if q < self.m and self.is_tight(q, vector, k)
        )
        tight_neg = tuple(q for q in self.neg_class if self.is_tight(q, vector, k))
        return tight_pos, tight_neg

    @cached_property
    def extended_polytope(self) -> NewtonPolytope:
        """Hull of the extended support."""
        return newton_polytope(self.extended.support)

    @cached_property
    def closure_polytope(self) -> NewtonPolytope:
        """Hull of the extended support together with the origin."""
        return newton_polytope(self.extended.support + ((0,) * self.n_extended_vars,))

    @cached_property
    def preserved_faces(self) -> tuple[Face, ...]:
        """Faces of the base Newton polytope that survive extension
        untouched: those whose vertex set, zero-padded into the extended
        exponent space, is exactly the vertex set of some face of the
        extended Newton polytope."""
        base_poly = self.base_polytope
        base_poly.require_full_dimensional()
        ext_poly = self.extended_polytope
        pad = (0,) * self.choice.n_aux
        ext_face_sets = {frozenset(ext_poly.face_points(g)) for g in ext_poly.faces}
        kept = []
        for face in base_poly.faces:
            embedded = frozenset(v + pad for v in base_poly.face_points(face))
            if embedded in ext_face_sets:
                kept.append(face)
        kept.sort(key=lambda f: (f.dimension, f.vertex_indices))
        return tuple(kept)

    @property
    def facet_normals(self) -> tuple[tuple[Fraction, ...], ...]:
        """``exponent_coeffs[q]`` divided by its normal divisor, per column.

        Derived on demand for rendering; the pipeline itself pairs
        vectors with the integer columns through :meth:`pairing`.
        """
        return tuple(
            tuple(Fraction(a, self.normal_divisor(q)) for a in column)
            for q, column in enumerate(self.exponent_coeffs)
        )


def recorded(build):
    """Keep ``build(data, vector)`` in the pair's record: the first request
    builds it and stores it in ``data.records[vector]`` under the name
    of ``build``; every later request reads it back.  ``build`` sees the
    vector as a tuple of ints, and a build that raises stores nothing."""

    @wraps(build)
    def lookup(data: SimplicialData, vector):
        vector = tuple(map(int, vector))
        record = data.records.setdefault(vector, {})
        if build.__name__ not in record:
            record[build.__name__] = build(data, vector)
        return record[build.__name__]

    return lookup


def build_data(
    f: LaurentPolynomial, choice: AuxChoice, base: NewtonPolytope
) -> SimplicialData:
    """Assemble and validate the full matrix package for one choice;
    ``base`` is the Newton polytope of ``f``."""
    extended = extend_polynomial(f, choice)
    m = choice.total_monomials
    width = m + 1

    def assemble(row_terms):
        rows = [extended.support[i] + (0, 1) for i in row_terms]
        rows.append((0,) * (m - 1) + (1, 1))
        return tuple(rows)

    row_terms = tuple(range(m))
    matrix = assemble(row_terms)
    gamma, adj = adjugate(matrix)
    if gamma == 0:
        raise NotSimplicializingError(
            f"extended support is affinely dependent for positions "
            f"{tuple(p + 1 for p in choice.positions)}"
        )
    row_swap = None
    if gamma < 0:
        row_terms = (1, 0) + tuple(range(2, m))
        matrix = assemble(row_terms)
        gamma, adj = adjugate(matrix)
        row_swap = (0, 1)

    for i in range(width):
        for j in range(width):
            entry = sum(adj[i][r] * matrix[r][j] for r in range(width))
            if entry != (gamma if i == j else 0):
                raise InternalConsistencyError(
                    f"adjugate times matrix is not {gamma} times the identity "
                    f"at ({i + 1}, {j + 1})"
                )

    z_coeffs = adj[m - 1]
    u_coeffs = adj[m]
    exponent_coeffs = tuple(
        tuple(adj[r][q] for r in range(m - 1)) for q in range(width)
    )

    if z_coeffs[m] != gamma or u_coeffs[m] != 0:
        raise InternalConsistencyError("projective column of adjugate is wrong")
    if any(exponent_coeffs[m]):
        raise InternalConsistencyError("projective column of adjugate is wrong")
    if sum(z_coeffs) != 0 or sum(u_coeffs) != gamma:
        raise InternalConsistencyError("row sums of adjugate are wrong")
    if any(u_coeffs[q] != -z_coeffs[q] for q in range(m)):
        raise InternalConsistencyError("u-row must be the negated s-row off the last entry")

    pos_class = tuple(q for q in range(width) if z_coeffs[q] > 0)
    neg_class = tuple(q for q in range(width) if z_coeffs[q] < 0)
    zero_class = tuple(q for q in range(width) if z_coeffs[q] == 0)

    return SimplicialData(
        base=f,
        choice=choice,
        extended=extended,
        matrix=matrix,
        row_swap=row_swap,
        gamma=gamma,
        adjugate=adj,
        z_coeffs=z_coeffs,
        u_coeffs=u_coeffs,
        exponent_coeffs=exponent_coeffs,
        pos_class=pos_class,
        neg_class=neg_class,
        zero_class=zero_class,
        warnings=support_condition_warnings(f, base),
        base_polytope=base,
    )


def simplex_volumes(data: SimplicialData) -> tuple[int, ...]:
    """|B_q| recomputed as a normalized simplex volume, for each q <= M.

    Row q is deleted, the projective row acts as the origin, and the
    normalized volume of the remaining exponent rows is compared against
    the magnitude of the corresponding weight entry.
    """
    m = data.m
    vols = []
    for q in range(m + 1):
        pts = [
            data.matrix[i][: m - 1] for i in range(m + 1) if i != q
        ]
        diffs = [vec_sub(p, pts[0]) for p in pts[1:]]
        vols.append(abs(int_det(diffs)))
    for q in range(m + 1):
        if vols[q] != abs(data.z_coeffs[q]):
            raise InternalConsistencyError(
                f"simplex volume {vols[q]} disagrees with |B_{q + 1}| = "
                f"{abs(data.z_coeffs[q])}"
            )
    return tuple(vols)


@dataclass(frozen=True)
class EulerData:
    chi: int
    closure_volume: int


def euler_characteristic(data: SimplicialData) -> EulerData:
    """Signed count of torus solutions, two independent ways.

    The positive-class weights sum to the normalized volume of the hull
    of the extended support together with the origin; the signed version
    is the Euler characteristic of the hypersurface cut out on the torus.
    """
    weight_sum = sum(data.z_coeffs[q] for q in data.pos_class)
    vol = normalized_volume(data.closure_polytope)
    if weight_sum != vol:
        raise InternalConsistencyError(
            f"positive weights sum to {weight_sum} but the closure volume is {vol}"
        )
    chi = (-1) ** data.m * weight_sum
    return EulerData(chi=chi, closure_volume=vol)


@dataclass(frozen=True, slots=True)
class LinearForm:
    """Affine form ``(num + slope_num * z) / den`` attached to factor index q
    (0-based).

    The numerators are integers over the common denominator ``den``
    (gamma), so every pole test downstream is integer arithmetic;
    ``constant``, ``slope`` and :meth:`at` are ``Fraction`` views for
    rendering and tests.  ``kind`` is "z" for the projective slot,
    "facet" when the form can be rewritten through a facet normal,
    "constant" when z-free.
    """

    q: int
    num: int
    slope_num: int
    den: int
    kind: str

    @property
    def constant(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def slope(self) -> Fraction:
        return Fraction(self.slope_num, self.den)

    def at(self, z) -> Fraction:
        return self.constant + self.slope * Fraction(z)


def linear_forms(data: SimplicialData, vector) -> tuple[LinearForm, ...]:
    """The M+1 affine forms attached to a lattice vector of the extended
    space: ``num = <E_q, vector> + C_q`` and ``slope_num = B_q`` over gamma."""
    vector = tuple(int(x) for x in vector)
    if len(vector) != data.n_extended_vars:
        raise ValueError(
            f"vector has {len(vector)} entries, expected {data.n_extended_vars}"
        )
    g = data.gamma
    forms = []
    for q in range(data.m + 1):
        e = dot(data.exponent_coeffs[q], vector)
        num = e + data.u_coeffs[q]
        b = data.z_coeffs[q]
        if q == data.m:
            kind = "z"
            if num != 0 or b != g:
                raise InternalConsistencyError("projective form must be exactly z")
        elif b != 0:
            kind = "facet"
            # constant == slope * (e / B_q - 1), times gamma
            if num != e - b:
                raise InternalConsistencyError(
                    f"facet form mismatch at q={q + 1}: "
                    f"{Fraction(num, g)} != {Fraction(e - b, g)}"
                )
        else:
            kind = "constant"
        forms.append(LinearForm(q=q, num=num, slope_num=b, den=g, kind=kind))
    return tuple(forms)


def half_space_system(
    data: SimplicialData,
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The facet description derived from the adjugate, verified:
    ``<-E_q, x> <= -B_q`` for every q < M, divided by gcd(E_q).

    Returns the sorted (primitive integer normal, integer offset) pairs,
    each meaning ``<normal, x> <= offset``, after checking that they
    agree exactly with the independently computed facet list of the
    extended Newton polytope.
    """
    raw = []
    for q in range(data.m):
        column = data.exponent_coeffs[q]
        g = gcd(*column)
        if data.z_coeffs[q] % g:
            raise InternalConsistencyError(
                f"facet offset {Fraction(-data.z_coeffs[q], g)} is not integral "
                f"at q={q + 1}"
            )
        raw.append((tuple(-a // g for a in column), -data.z_coeffs[q] // g))
    inequalities = tuple(sorted(raw))
    reference = tuple(sorted((f.normal, f.offset) for f in data.extended_polytope.facets))
    if inequalities != reference:
        raise InternalConsistencyError(
            "adjugate half-spaces disagree with the computed hull: "
            f"{inequalities} vs {reference}"
        )
    return inequalities
