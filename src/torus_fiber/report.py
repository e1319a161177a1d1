"""Deterministic report assembly: one pipeline that every CLI subcommand
slices.

:func:`analyze` writes the sections that ``AnalyzeConfig.sections``
names, in order, after the ``version`` and ``input`` header.  Sections
about the polynomial alone read its Newton polytope; the others make
one pass over the selected choices, which builds each choice's data
once, gives every section its entry from it and drops it before the
next choice.  Each (choice, vector) quantity lives in the pair's record
(``SimplicialData.records``), so no section recomputes what another
already derived.

Exact rationals are held in the report as ``Fraction`` values and
rendered only by :func:`to_json` / :func:`to_text`, as strings (``p/q``
or a bare integer).  This is the one module that makes floats: the
floating-point views of the characteristic polynomials and of the
singular fibres are drawn here from exact values as a block is built,
and rounded to 12 digits so that repeated runs produce byte-identical
output.  Dict key order is construction order and fixed.

:func:`to_json` writes exactly what ``json.dumps(report, indent=2)``
writes, with each ``Fraction`` as its string.  It renders directly,
joining each dict and list once: with an indent the standard library
falls back to its pure-Python encoder, whose list of small chunks costs
time and sets the peak memory of the largest reports.
"""

from __future__ import annotations

from cmath import exp as cexp, pi
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii as _encode_str
from math import inf

from . import __version__
from .cyclotomic import CycValue
from .errors import ConeMembershipError, NotSimplicializingError
from .hypergeom import (
    characteristic_polynomials,
    frobenius_series,
    jordan_report,
    local_exponents,
    monodromy,
    reduced_operator,
    simple_nonresonant_exponents,
    theta_operators,
    verify_annihilation,
    verify_exponent_bridge,
)
from .lattice import ehrhart, normalized_volume
from .laurent import LaurentPolynomial
from .mellin import (
    base_strata,
    closure_class,
    enumerate_poles,
    extended_filtration,
    mellin_skeleton,
    pole_prediction,
    sweep_domain,
    sweep_pole_checks,
    sweep_preserved_face_checks,
)
from .polytope import NewtonPolytope, newton_polytope
from .simplicial import (
    DEFAULT_CHOICE_CAP,
    AuxChoice,
    SimplicialData,
    build_data,
    enumerate_choices,
    euler_characteristic,
    half_space_system,
    simplex_volumes,
)

# the full report, and the default of ``AnalyzeConfig.sections``
ANALYZE = ("hodge", "sigmas", "sweeps", "hypergeom", "warnings")
# terms of each Frobenius series in the report
SERIES_TERMS = 25


@dataclass(frozen=True)
class AnalyzeConfig:
    sigma: int | None = None
    k_max: int = 3
    vectors: tuple[tuple[int, ...], ...] = ()
    sections: tuple[str, ...] = ANALYZE


def _round12(x: float) -> float:
    rounded = round(x, 12)
    return 0.0 if rounded == 0 else rounded


def complex_pair(z: complex) -> list[float]:
    return [_round12(z.real), _round12(z.imag)]


def _cyc_complex(value: CycValue) -> complex:
    """``value`` as a complex number: the float sum of c e^(2 pi i e / m)
    over its canonical terms c x^e."""
    return sum(
        (float(c) * cexp(2j * pi * e / value.modulus) for e, c in value.coeffs),
        complex(0),
    )


def _singular_positions(ratio: Fraction, gamma: int) -> tuple[complex, ...]:
    """The ``gamma`` roots s of s^gamma = ``ratio``, where the finite
    singular fibres sit."""
    radius = float(abs(ratio)) ** (1.0 / gamma)
    base = pi if ratio < 0 else 0.0
    return tuple(
        radius * cexp(1j * ((base + 2 * pi * j) / gamma)) for j in range(gamma)
    )


# ---------------------------------------------------------------------------
# geometry blocks


def polytope_block(poly: NewtonPolytope) -> dict:
    out = {
        "ambient_dimension": poly.ambient_dim,
        "dimension": poly.dimension,
        "full_dimensional": poly.full_dimensional,
        "vertices": [list(v) for v in poly.vertices],
    }
    if poly.full_dimensional:
        out["facets"] = [
            {"normal": list(f.normal), "offset": f.offset} for f in poly.facets
        ]
        out["faces"] = [
            {
                "dimension": face.dimension,
                "vertices": [list(poly.vertices[i]) for i in face.vertex_indices],
            }
            for face in poly.faces
        ]
    return out


def ehrhart_block(poly: NewtonPolytope) -> dict:
    data = ehrhart(poly)
    return {
        "counts": list(data.counts),
        "interior_counts": list(data.interior_counts),
        "psi": list(data.psi),
        "phi": list(data.phi),
        "normalized_volume": data.normalized_volume,
    }


def classification_block(data, vector) -> dict:
    """The vector's degree, level, weight and stratum against the closure
    polytope, for a vector inside its cone."""
    mc = closure_class(data, vector)
    vertices = data.closure_polytope.vertices
    return {
        "vector": list(vector),
        "degree_k": mc.degree_k,
        "hodge_p": mc.hodge_p,
        "weight_w": mc.weight_w,
        "stratum": {
            "dimension": mc.stratum.dimension,
            "vertices": [list(vertices[i]) for i in mc.stratum.vertex_indices],
        },
    }


# ---------------------------------------------------------------------------
# sigma blocks


def sigma_block(data) -> dict:
    vols = simplex_volumes(data)
    euler = euler_characteristic(data)
    half = half_space_system(data)
    return {
        "ordinal": data.choice.ordinal,
        "positions": [p + 1 for p in data.choice.positions],
        "aux_variables": list(data.extended.variables[data.base.n_variables:]),
        "row_swap": list(x + 1 for x in data.row_swap) if data.row_swap else None,
        "matrix": [list(row) for row in data.matrix],
        "gamma": data.gamma,
        "scaled_inverse": [list(row) for row in data.adjugate],
        "z_coeffs": list(data.z_coeffs),
        "u_coeffs": list(data.u_coeffs),
        "classes": {
            "positive": [q + 1 for q in data.pos_class],
            "negative": [q + 1 for q in data.neg_class],
            "zero": [q + 1 for q in data.zero_class],
        },
        "facet_normals": [list(v) for v in data.facet_normals],
        "simplex_volumes": list(vols),
        "euler": {"chi": euler.chi, "closure_volume": euler.closure_volume},
        "half_spaces": [
            {"normal": list(n), "offset": o} for n, o in half
        ],
        "preserved_faces": [
            {
                "dimension": face.dimension,
                "vertices": [
                    list(data.base_polytope.vertices[i]) for i in face.vertex_indices
                ],
            }
            for face in data.preserved_faces
        ],
        "warnings": list(data.warnings),
    }


def sigma_entry(
    choice: AuxChoice, data: SimplicialData | NotSimplicializingError
) -> dict:
    """A choice's ``sigmas`` entry: its full block, or the error that stopped it."""
    if isinstance(data, NotSimplicializingError):
        return {
            "ordinal": choice.ordinal,
            "positions": [p + 1 for p in choice.positions],
            "error": str(data),
        }
    return sigma_block(data)


# ---------------------------------------------------------------------------
# mellin blocks


def _form_block(form) -> dict:
    return {
        "q": form.q + 1,
        "kind": form.kind,
        "constant": form.constant,
        "slope": form.slope,
    }


def skeleton_block(skeleton) -> dict:
    return {
        "numerator": [_form_block(f) for f in skeleton.numerator],
        "denominator": [_form_block(f) for f in skeleton.denominator],
        "constants": list(skeleton.constants),
        "degenerate": skeleton.degenerate,
    }


def poles_block(report) -> dict:
    return {
        "z_min": report.z_min,
        "poles": [[z, order] for z, order in report.poles],
        "cancellations": [
            [z, num, den] for z, num, den in report.cancellations
        ],
    }


def prediction_block(pred) -> dict:
    out = {
        "degree_k": pred.degree_k,
        "hodge_p": pred.hodge_p,
        "tight_positive": [q + 1 for q in pred.tight_pos],
        "tight_negative": [q + 1 for q in pred.tight_neg],
        "kind": pred.kind,
        "filtration_k": pred.filtration_k,
    }
    if pred.kind == "at":
        out["position"] = pred.position
        out["order_bound"] = pred.order_bound
    else:
        out["interval"] = list(pred.interval)
    return out


def mellin_vector_block(data, vector) -> dict:
    """Classification, prediction, skeleton and candidate poles of a
    vector inside the choice's cone."""
    classification = classification_block(data, vector)
    pred = pole_prediction(data, vector)
    skeleton = mellin_skeleton(data, vector)
    return {
        "vector": list(vector),
        "classification": classification,
        "prediction": prediction_block(pred),
        "skeleton": skeleton_block(skeleton),
        "poles": None if skeleton.degenerate else poles_block(
            enumerate_poles(skeleton, z_min=Fraction(-pred.degree_k))
        ),
    }


def _sweep_block(report) -> dict:
    return {
        "k_max": report.k_max,
        "checked": report.checked,
        "violations": [
            {"vector": list(i.vector), "code": i.code, "detail": i.detail}
            for i in report.violations
        ],
        "notes": report.notes,
    }


def sweep_blocks(data, k_max: int, domain, strata) -> dict:
    """Both consistency sweeps of one choice, as its ``pole_sweep`` and
    ``face_sweep`` entries: the pole sweep over the choice's
    :func:`sweep_domain`, the face sweep over the polynomial's
    :func:`base_strata`."""
    pole = sweep_pole_checks(data, k_max, domain)
    face = sweep_preserved_face_checks(data, k_max, strata)
    return {
        "pole_sweep": {
            **_sweep_block(pole),
            "skipped_degenerate": [list(v) for v in pole.skipped_degenerate],
        },
        "face_sweep": {
            **_sweep_block(face),
            "skipped_unpreserved": face.skipped_unpreserved,
            "exemptions": face.exemptions,
        },
    }


# ---------------------------------------------------------------------------
# hypergeometric blocks


def exponents_block(sets) -> dict:
    return {
        "plus": list(sets.plus),
        "minus": list(sets.minus),
        "common": list(sets.common),
        "reduced_plus": list(sets.reduced_plus),
        "reduced_minus": list(sets.reduced_minus),
        "reduced_order": sets.reduced_order,
    }


def frobenius_block(data, vector) -> dict:
    sets = local_exponents(data, vector)
    shape = theta_operators(data, vector)
    verify_exponent_bridge(shape, sets)
    op = reduced_operator(sets)
    simple = simple_nonresonant_exponents(op)
    series = []
    for rho in simple:
        fs = frobenius_series(op, rho, count=SERIES_TERMS)
        verify_annihilation(op, fs)
        series.append(
            {"exponent": rho, "coefficients": list(fs.coefficients)}
        )
    return {
        "kummer_power": shape.gamma,
        "theta_roots_numerator": list(shape.p_roots),
        "theta_roots_denominator": list(shape.q_roots),
        "simple_exponent_count": len(simple),
        "series": series,
    }


def charpoly_block(cp) -> dict:
    return {
        "modulus": cp.modulus,
        "order": cp.order,
        "x_zero": [str(c) for c in cp.x_zero],
        "x_infinity": [str(c) for c in cp.x_infinity],
        "x_zero_float": [complex_pair(_cyc_complex(c)) for c in cp.x_zero],
        "x_infinity_float": [complex_pair(_cyc_complex(c)) for c in cp.x_infinity],
        "unit_multiplicity": cp.unit_multiplicity,
    }


def _matrix_strings(mat) -> list[list[str]]:
    return [[str(entry) for entry in row] for row in mat.rows()]


def monodromy_block(md) -> dict:
    return {
        "order": md.order,
        "modulus": md.modulus,
        "h_zero": _matrix_strings(md.h_zero),
        "h_infinity": _matrix_strings(md.h_infinity),
        "h_one": _matrix_strings(md.h_one),
        "turns_around_singular_fibres": md.gamma,
        "relations_verified": True,
        # the determinant unit of h_one is checked equal to its root of
        # unity exactly, so it lies on the unit circle
        "max_eigenvalue_deviation": 0.0,
        "singular": {
            "ratio": md.ratio,
            "gamma": md.gamma,
            "positions": [complex_pair(z) for z in _singular_positions(md.ratio, md.gamma)],
        },
    }


def jordan_block(jr) -> dict:
    return {
        "block_size": jr.block_size,
        "unit_multiplicity": jr.unit_multiplicity,
        "tight_count": jr.tight_count,
        "common_integer_count": jr.common_integer_count,
        "consistent": jr.consistent,
    }


def hypergeom_vector_block(data, vector, full: bool = False) -> dict:
    """A vector's exponents and Frobenius series, with its local system
    when ``full``; only a ``skipped`` entry on a degenerate skeleton."""
    if mellin_skeleton(data, vector).degenerate:
        return {"vector": list(vector), "skipped": "degenerate skeleton"}
    entry: dict = {"vector": list(vector)}
    entry["exponents"] = exponents_block(local_exponents(data, vector))
    entry["frobenius"] = frobenius_block(data, vector)
    if full:
        cp = characteristic_polynomials(data, vector)
        entry["characteristic_polynomials"] = charpoly_block(cp)
        entry["monodromy"] = monodromy_block(monodromy(data, vector))
        entry["jordan"] = jordan_block(jordan_report(data, vector))
    return entry


def local_system_block(data, vector) -> dict:
    """A requested vector's full entry, local system included."""
    return hypergeom_vector_block(data, vector, full=True)


# ---------------------------------------------------------------------------
# the pipeline


def input_block(f: LaurentPolynomial) -> dict:
    return {
        "text": str(f),
        "variables": list(f.variables),
        "monomials": [list(m) for m in f.support],
    }


def _select_choices(
    f: LaurentPolynomial, config: AnalyzeConfig
) -> tuple[tuple[AuxChoice, ...], bool]:
    """The choices ``config.sigma`` selects (all when it is ``None``), and
    whether the enumeration was truncated; an unknown ordinal is refused."""
    choices, truncated = enumerate_choices(f)
    if config.sigma is None:
        return choices, truncated
    chosen = tuple(c for c in choices if c.ordinal == config.sigma)
    if not chosen:
        raise ValueError(
            f"no choice with ordinal {config.sigma} "
            f"(have 1..{len(choices)}{'+' if truncated else ''})"
        )
    return chosen, truncated


@dataclass(frozen=True)
class Report:
    """The sections of one report, in order, and the exit status they earned.

    ``status`` is 1 when no selected choice simplicializes, or when a
    requested vector falls outside a choice's cone in a section that
    answers for the requested vectors alone, and ``message`` then says
    which; it is 2 when the ``checks`` section finds a violation, and 0
    otherwise.
    """

    body: dict
    status: int = 0
    message: str | None = None


def analyze(f: LaurentPolynomial, config: AnalyzeConfig = AnalyzeConfig()) -> Report:
    """The report on ``f`` with the sections ``config.sections`` names."""
    run = _Run(f, config)
    body = {"version": __version__, "input": input_block(f)}
    body.update(run.sections(config.sections))
    if run.looping and not run.simplicialized:
        return Report(body, 1, "no selected choice simplicializes")
    outside = [(v, ordinals) for v, ordinals in run.outside.items() if ordinals]
    if outside and REQUESTED_SECTIONS.intersection(run.looping):
        return Report(body, 1, "; ".join(
            f"vector {list(v)} lies outside the cone of "
            f"choice{'s' if len(ordinals) > 1 else ''} {', '.join(map(str, ordinals))}"
            for v, ordinals in outside
        ))
    return Report(body, 2 if run.violations else 0)


class _Run:
    """One report in the making: the polynomial and its configuration,
    what is computed at most once for the polynomial, and the one pass
    over the selected choices, which also sets what decides the exit
    status."""

    def __init__(self, f: LaurentPolynomial, config: AnalyzeConfig):
        # a sweep over no dilate checks nothing, and would report clean
        if config.k_max < 1:
            raise ValueError(f"k_max must be at least 1, got {config.k_max}")
        # a report of no section would be only its header
        if not config.sections:
            raise ValueError("the list of report sections is empty")
        # a request whose every section answers for the requested vectors
        # alone would report nothing without one
        if not config.vectors and REQUESTED_SECTIONS.issuperset(config.sections):
            raise ValueError("this subcommand needs at least one --J vector")
        width = len(f.support) - 1
        for v in config.vectors:
            if len(v) != width:
                raise ValueError(
                    f"vector {list(v)} has {len(v)} entries; "
                    f"this polynomial needs {width}"
                )
        unknown = set(config.sections) - {*POLYNOMIAL_SECTIONS, *CHOICE_SECTIONS}
        if unknown:
            raise ValueError(f"unknown report sections {sorted(unknown)}")
        self.f = f
        self.config = config
        # a section that answers for the requested vectors alone is left
        # out when none is requested
        self.looping = [
            name for name in config.sections if name in CHOICE_SECTIONS
            and (config.vectors or name not in REQUESTED_SECTIONS)
        ]
        self.choices, self.truncated = (), False
        if self.looping or config.sigma is not None:
            self.choices, self.truncated = _select_choices(f, config)
        self.simplicialized = self.violations = False
        # requested vector: the ordinals of the choices whose cone misses it
        self.outside = {v: [] for v in config.vectors}
        self.entries = self._pass()

    @cached_property
    def base(self) -> NewtonPolytope:
        return newton_polytope(self.f.support)

    @cached_property
    def strata(self):
        return base_strata(self.base, self.config.k_max)

    def _pass(self) -> dict[str, list[dict]]:
        """Every looping section's entries, from one pass over the choices;
        each choice's data is dropped before the next one is built."""
        entries: dict[str, list[dict]] = {name: [] for name in self.looping}
        for choice in self.choices:
            try:
                data = build_data(self.f, choice, self.base)
                self.simplicialized = True
            except NotSimplicializingError as err:
                data = err
            current = _Choice(self, choice, data)
            for name in self.looping:
                entry = CHOICE_SECTIONS[name][1](current)
                if entry is not None:
                    entries[name].append(entry)
        return entries

    def sections(self, names) -> dict:
        out: dict = {}
        for name in names:
            if name in POLYNOMIAL_SECTIONS:
                out.update(POLYNOMIAL_SECTIONS[name](self))
            elif name in self.looping:
                out[CHOICE_SECTIONS[name][0]] = self.entries[name]
        return out


class _Choice:
    """A selected choice in the pass: its data, or the error showing that
    it does not simplicialize, and its sweep domain once asked for."""

    def __init__(self, run: _Run, choice: AuxChoice, data):
        self.run = run
        self.choice = choice
        self.data = data
        self.failed = isinstance(data, NotSimplicializingError)

    @cached_property
    def domain(self) -> list[tuple[int, ...]]:
        return sweep_domain(self.data, self.run.config.k_max)

    def entry(self, build) -> dict:
        """``{"sigma": n, **build(data)}``, or ``{"sigma": n, "error": ...}``
        for a choice that does not simplicialize."""
        if self.failed:
            return {"sigma": self.choice.ordinal, "error": str(self.data)}
        return {"sigma": self.choice.ordinal, **build(self.data)}

    def in_cone(self, vector, build) -> dict:
        """``build(data, vector)``, or the vector's ``outside_cone`` entry
        when it lies outside this choice's cone, which is recorded for a
        requested vector."""
        try:
            closure_class(self.data, vector)
        except ConeMembershipError as err:
            ordinals = self.run.outside.get(vector)
            if ordinals is not None and self.choice.ordinal not in ordinals:
                ordinals.append(self.choice.ordinal)
            return {"vector": list(vector), "outside_cone": str(err)}
        return build(self.data, vector)

    def requested(self, key: str, build) -> dict:
        """The entry listing each requested vector's :meth:`in_cone`
        result under ``key``."""
        vectors = self.run.config.vectors
        return self.entry(lambda data: {key: [self.in_cone(v, build) for v in vectors]})


def _warnings(run: _Run) -> list[str]:
    warnings = []
    if not run.base.full_dimensional:
        warnings.append(
            "Newton polytope is not full-dimensional; face and counting "
            "data are unavailable"
        )
    if run.truncated:
        warnings.append(
            f"choice enumeration truncated at {DEFAULT_CHOICE_CAP} entries"
        )
    return warnings


# section name: the part of the report it writes, from the polynomial alone
POLYNOMIAL_SECTIONS = {
    "polytope": lambda run: {"polytope": polytope_block(run.base)},
    "ehrhart": lambda run: (
        {"ehrhart": ehrhart_block(run.base)} if run.base.full_dimensional else {}
    ),
    "normalized_volume": lambda run: (
        {"normalized_volume": normalized_volume(run.base)}
        if run.base.full_dimensional else {}
    ),
    "hodge": lambda run: {
        "hodge": run.sections(("polytope", "ehrhart", "normalized_volume"))
    },
    "warnings": lambda run: {"warnings": _warnings(run)},
    "k_max": lambda run: {"k_max": run.config.k_max},
    "truncated": lambda run: {"truncated": run.truncated},
    "clean": lambda run: {"clean": run.simplicialized and not run.violations},
}


def _sweeps(c: _Choice) -> dict | None:
    """Both sweeps, then a detail block per swept vector and per
    requested vector not swept; nothing for a failed choice."""
    if c.failed:
        return None
    config = c.run.config
    swept = set(c.domain)
    detail = c.domain + [v for v in config.vectors if v not in swept]
    return {
        "sigma": c.choice.ordinal,
        **sweep_blocks(c.data, config.k_max, c.domain, c.run.strata),
        "vectors": [c.in_cone(v, mellin_vector_block) for v in detail],
    }


def _hypergeom(c: _Choice) -> dict | None:
    """Series blocks for the degree-one vectors of the sweep domain, then
    a full entry per requested vector; nothing for a failed choice."""
    if c.failed:
        return None
    data, requested = c.data, c.run.config.vectors
    configured = set(requested)
    # a requested vector gets the full entry at the end
    vectors = [
        hypergeom_vector_block(data, v)
        for v in c.domain
        if v not in configured and extended_filtration(data, v) == 1
    ]
    vectors.extend(c.in_cone(v, local_system_block) for v in requested)
    return {
        "sigma": c.choice.ordinal,
        "order_convention": (
            "operator order is the sum of |z-coefficient| over each "
            "sign class, not the class cardinality"
        ),
        "vectors": vectors,
    }


def _checks(c: _Choice) -> dict:
    k_max = c.run.config.k_max
    entry = c.entry(lambda data: sweep_blocks(data, k_max, c.domain, c.run.strata))
    for sweep in ("pole_sweep", "face_sweep"):
        if entry.get(sweep, {}).get("violations"):
            c.run.violations = True
    return entry


# section name: (report key, the entry of one choice, or None for none)
CHOICE_SECTIONS = {
    "sigmas": ("sigmas", lambda c: sigma_entry(c.choice, c.data)),
    "sweeps": ("mellin", _sweeps),
    "hypergeom": ("hypergeom", _hypergeom),
    "checks": ("checks", _checks),
    "classifications": (
        "sigmas", lambda c: c.requested("classifications", classification_block)
    ),
    "poles": ("mellin", lambda c: c.requested("vectors", mellin_vector_block)),
    "local_systems": (
        "monodromy", lambda c: c.requested("vectors", local_system_block)
    ),
}
REQUESTED_SECTIONS = {"classifications", "poles", "local_systems"}
# the sections that read ``AnalyzeConfig.vectors``, and ``k_max``
VECTOR_SECTIONS = REQUESTED_SECTIONS | {"sweeps", "hypergeom"}
K_MAX_SECTIONS = {"k_max", "sweeps", "hypergeom", "checks"}


# ---------------------------------------------------------------------------
# rendering


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == inf:
        return "Infinity"
    if x == -inf:
        return "-Infinity"
    return float.__repr__(x)


def _json(x, pad: str) -> str:
    """``x`` as ``json.dumps(x, indent=2)`` writes it at indent ``pad``,
    with a ``Fraction`` as the string ``str(x)``; each dict and list is
    joined once.  Keys must be strings."""
    if isinstance(x, str):
        return _encode_str(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, Fraction):
        return _encode_str(str(x))
    if isinstance(x, float):
        return _json_float(x)
    # One f-string per container copies its parts into the result once,
    # after the join has already freed the child strings.
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        return f"[\n{inner}{sep.join([_json(v, inner) for v in x])}\n{pad}]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        body = sep.join([_encode_str(k) + ": " + _json(v, inner) for k, v in x.items()])
        return f"{{\n{inner}{body}\n{pad}}}"
    raise TypeError(f"{type(x).__name__} is not part of a report")


def to_json(report: dict) -> str:
    return _json(report, "") + "\n"


def _scalar(x) -> bool:
    return x is None or isinstance(x, (bool, int, float, str, Fraction))


def _fmt_scalar(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def _walk(obj, depth: int, lines: list[str], label: str | None):
    pad = "  " * depth
    if isinstance(obj, dict):
        if label is not None:
            lines.append(f"{pad}{label}:")
            depth += 1
            pad = "  " * depth
        for key, value in obj.items():
            _walk(value, depth, lines, key)
    elif isinstance(obj, list):
        if all(_scalar(x) for x in obj):
            body = ", ".join(_fmt_scalar(x) for x in obj)
            lines.append(f"{pad}{label}: [{body}]")
        elif all(isinstance(x, list) and all(_scalar(y) for y in x) for x in obj):
            lines.append(f"{pad}{label}:")
            for row in obj:
                body = ", ".join(_fmt_scalar(y) for y in row)
                lines.append(f"{pad}  [{body}]")
        else:
            lines.append(f"{pad}{label}:")
            for i, item in enumerate(obj):
                _walk(item, depth + 1, lines, f"[{i}]")
    else:
        lines.append(f"{pad}{label}: {_fmt_scalar(obj)}")


def to_text(report: dict) -> str:
    lines: list[str] = []
    _walk(report, 0, lines, None)
    return "\n".join(lines) + "\n"
