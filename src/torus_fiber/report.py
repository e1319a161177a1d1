"""Deterministic report assembly shared by the CLI subcommands.

Exact rationals are held in the report as ``Fraction`` values and
rendered only by :func:`to_json` / :func:`to_text`, as strings (``p/q``
or a bare integer); floating-point views are rounded to 12 digits so
that repeated runs produce byte-identical output.  Dict key order is
construction order and fixed.

:func:`to_json` writes exactly what ``json.dumps(report, indent=2)``
writes, with each ``Fraction`` as its string.  It renders directly,
joining each dict and list once: with an indent the standard library
falls back to its pure-Python encoder, whose list of small chunks costs
time and sets the peak memory of the largest reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from math import inf

from . import __version__
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
from .lattice import classify_monomial, ehrhart, lattice_points, normalized_volume
from .laurent import LaurentPolynomial
from .mellin import (
    enumerate_poles,
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
    closure_polytope,
    enumerate_choices,
    euler_characteristic,
    extended_polytope,
    half_space_system,
    preserved_faces,
    simplex_volumes,
)


@dataclass(frozen=True)
class AnalyzeConfig:
    sigma: int | None = None
    k_max: int = 3
    vectors: tuple[tuple[int, ...], ...] = ()
    choice_cap: int = DEFAULT_CHOICE_CAP
    series_terms: int = 25
    tolerance: float = 1e-10


def frac(x) -> Fraction:
    """An exact rational entry; rendered as a string, never as a number."""
    return x if type(x) is Fraction else Fraction(x)


def fracs(seq) -> list[Fraction]:
    return [frac(x) for x in seq]


def _round12(x: float) -> float:
    rounded = round(x, 12)
    return 0.0 if rounded == 0 else rounded


def complex_pair(z: complex) -> list[float]:
    return [_round12(z.real), _round12(z.imag)]


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


def classification_block(poly: NewtonPolytope, vector) -> dict:
    mc = classify_monomial(poly, vector)
    return {
        "vector": list(vector),
        "degree_k": mc.degree_k,
        "hodge_p": mc.hodge_p,
        "weight_w": mc.weight_w,
        "stratum": {
            "dimension": mc.stratum.dimension,
            "vertices": [list(poly.vertices[i]) for i in mc.stratum.vertex_indices],
        },
    }


# ---------------------------------------------------------------------------
# sigma blocks


def sigma_block(data) -> dict:
    vols = simplex_volumes(data)
    euler = euler_characteristic(data)
    half = half_space_system(data)
    kept = preserved_faces(data)
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
        "facet_normals": [fracs(v) for v in data.facet_normals],
        "simplex_volumes": list(vols),
        "euler": {"chi": euler.chi, "closure_volume": euler.closure_volume},
        "half_spaces": [
            {"normal": list(n), "offset": o} for n, o in half.inequalities
        ],
        "preserved_faces": [
            {
                "dimension": face.dimension,
                "vertices": [
                    list(kept.base_polytope.vertices[i]) for i in face.vertex_indices
                ],
            }
            for face in kept.faces
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
        "constant": frac(form.constant),
        "slope": frac(form.slope),
    }


def skeleton_block(skeleton) -> dict:
    return {
        "numerator": [_form_block(f) for f in skeleton.numerator],
        "denominator": [_form_block(f) for f in skeleton.denominator],
        "constants": fracs(skeleton.constants),
        "degenerate": skeleton.degenerate,
    }


def poles_block(report) -> dict:
    return {
        "z_min": frac(report.z_min),
        "poles": [[frac(z), order] for z, order in report.poles],
        "cancellations": [
            [frac(z), num, den] for z, num, den in report.cancellations
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
        out["position"] = frac(pred.position)
        out["order_bound"] = pred.order_bound
    else:
        out["interval"] = [frac(pred.interval[0]), frac(pred.interval[1])]
    return out


def outside_cone_entry(vector, err: ConeMembershipError) -> dict:
    return {"vector": list(vector), "outside_cone": str(err)}


def mellin_vector_block(data, vector) -> dict:
    entry: dict = {"vector": list(vector)}
    try:
        entry["classification"] = classification_block(closure_polytope(data), vector)
        pred = pole_prediction(data, vector)
    except ConeMembershipError as err:
        return outside_cone_entry(vector, err)
    entry["prediction"] = prediction_block(pred)
    skeleton = mellin_skeleton(data, vector)
    entry["skeleton"] = skeleton_block(skeleton)
    if skeleton.degenerate:
        entry["poles"] = None
    else:
        entry["poles"] = poles_block(
            enumerate_poles(skeleton, z_min=Fraction(-pred.degree_k))
        )
    return entry


def _sweep_block(report) -> dict:
    return {
        "k_max": report.k_max,
        "checked": report.checked,
        "violations": [
            {"vector": list(i.vector), "code": i.code, "detail": i.detail}
            for i in report.violations
        ],
        "notes": len(report.notes),
    }


def sweep_blocks(data, k_max: int) -> dict:
    """Both consistency sweeps of one choice, as its ``pole_sweep`` and
    ``face_sweep`` entries."""
    pole = sweep_pole_checks(data, k_max)
    face = sweep_preserved_face_checks(data, k_max)
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
        "plus": fracs(sets.plus),
        "minus": fracs(sets.minus),
        "common": fracs(sets.common),
        "reduced_plus": fracs(sets.reduced_plus),
        "reduced_minus": fracs(sets.reduced_minus),
        "reduced_order": sets.reduced_order,
    }


def frobenius_block(data, vector, sets, terms: int) -> dict:
    shape = theta_operators(data, vector)
    verify_exponent_bridge(shape, sets)
    op = reduced_operator(sets)
    simple = simple_nonresonant_exponents(op)
    series = []
    for rho in simple:
        fs = frobenius_series(op, rho, count=terms)
        verify_annihilation(op, fs)
        series.append(
            {"exponent": frac(rho), "coefficients": fracs(fs.coefficients)}
        )
    return {
        "kummer_power": shape.gamma,
        "theta_roots_numerator": fracs(shape.p_roots),
        "theta_roots_denominator": fracs(shape.q_roots),
        "simple_exponent_count": len(simple),
        "series": series,
    }


def charpoly_block(cp) -> dict:
    return {
        "modulus": cp.modulus,
        "order": cp.order,
        "x_zero": [str(c) for c in cp.x_zero],
        "x_infinity": [str(c) for c in cp.x_infinity],
        "x_zero_float": [complex_pair(c.to_complex()) for c in cp.x_zero],
        "x_infinity_float": [complex_pair(c.to_complex()) for c in cp.x_infinity],
        "unit_multiplicity": cp.unit_multiplicity,
    }


def _matrix_strings(mat) -> list[list[str]]:
    return [[str(entry) for entry in row] for row in mat]


def monodromy_block(md) -> dict:
    return {
        "order": md.order,
        "modulus": md.modulus,
        "h_zero": _matrix_strings(md.h_zero),
        "h_infinity": _matrix_strings(md.h_infinity),
        "h_one": _matrix_strings(md.h_one),
        "turns_around_singular_fibres": len(md.around),
        "relations_verified": True,
        "max_eigenvalue_deviation": _round12(md.max_eigenvalue_deviation),
        "singular": {
            "ratio": frac(md.singular.ratio),
            "gamma": md.singular.gamma,
            "positions": [complex_pair(z) for z in md.singular.positions()],
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


def hypergeom_vector_block(data, vector, terms: int, full: bool,
                           tolerance: float = 1e-10) -> dict:
    sets = local_exponents(data, vector)
    entry: dict = {"vector": list(vector)}
    entry["exponents"] = exponents_block(sets)
    entry["frobenius"] = frobenius_block(data, vector, sets, terms)
    if full:
        cp = characteristic_polynomials(data, vector, sets)
        entry["characteristic_polynomials"] = charpoly_block(cp)
        md = monodromy(data, vector, char=cp, sets=sets, tolerance=tolerance)
        entry["monodromy"] = monodromy_block(md)
        entry["jordan"] = jordan_block(jordan_report(data, vector, sets=sets, char=cp))
    return entry


def configured_vector_entry(data, vector, config: AnalyzeConfig) -> dict:
    """Full local-system entry for a requested vector: ``outside_cone``,
    ``skipped`` on a degenerate skeleton, or the complete block."""
    try:
        pole_prediction(data, vector)
    except ConeMembershipError as err:
        return outside_cone_entry(vector, err)
    if mellin_skeleton(data, vector).degenerate:
        return {"vector": list(vector), "skipped": "degenerate skeleton"}
    return hypergeom_vector_block(
        data, vector, config.series_terms, full=True, tolerance=config.tolerance
    )


# ---------------------------------------------------------------------------
# top-level assembly


def input_block(f: LaurentPolynomial) -> dict:
    return {
        "text": str(f),
        "variables": list(f.variables),
        "monomials": [list(m) for m in f.support],
    }


def _validate_vectors(f: LaurentPolynomial, config: AnalyzeConfig):
    width = len(f.terms) - 1
    for v in config.vectors:
        if len(v) != width:
            raise ValueError(
                f"vector {list(v)} has {len(v)} entries; "
                f"this polynomial needs {width}"
            )


ChoiceData = list[tuple[AuxChoice, SimplicialData | NotSimplicializingError]]


def choice_data(f: LaurentPolynomial, config: AnalyzeConfig) -> tuple[ChoiceData, bool]:
    """Each selected choice with its data, or with the error showing that it
    does not simplicialize; and whether the enumeration was truncated.

    Every report gets its choices from here, so all subcommands treat a
    bad choice the same way.
    """
    _validate_vectors(f, config)
    choices, truncated = enumerate_choices(f, config.choice_cap)
    if config.sigma is not None:
        chosen = [c for c in choices if c.ordinal == config.sigma]
        if not chosen:
            raise ValueError(
                f"no choice with ordinal {config.sigma} "
                f"(have 1..{len(choices)}{'+' if truncated else ''})"
            )
        choices = chosen
    built: ChoiceData = []
    for choice in choices:
        try:
            built.append((choice, build_data(f, choice)))
        except NotSimplicializingError as err:
            built.append((choice, err))
    return built, truncated


def choice_entries(
    f: LaurentPolynomial, config: AnalyzeConfig, build
) -> tuple[list[dict], bool]:
    """``{"sigma": n, **build(data)}`` per selected choice, or
    ``{"sigma": n, "error": ...}`` for one that does not simplicialize."""
    built, truncated = choice_data(f, config)
    entries = [
        {"sigma": choice.ordinal, "error": str(data)}
        if isinstance(data, NotSimplicializingError)
        else {"sigma": choice.ordinal, **build(data)}
        for choice, data in built
    ]
    return entries, truncated


def _degree_one_vectors(data) -> list[tuple[int, ...]]:
    origin = (0,) * data.n_extended_vars
    return [p for p in lattice_points(extended_polytope(data), 1) if p != origin]


def analyze(f: LaurentPolynomial, config: AnalyzeConfig) -> dict:
    built, truncated = choice_data(f, config)
    warnings: list[str] = []
    report: dict = {"version": __version__, "input": input_block(f)}

    base_poly = newton_polytope(f.support)
    hodge: dict = {"polytope": polytope_block(base_poly)}
    if base_poly.full_dimensional:
        hodge["ehrhart"] = ehrhart_block(base_poly)
        hodge["normalized_volume"] = normalized_volume(base_poly)
    else:
        warnings.append(
            "Newton polytope is not full-dimensional; face and counting "
            "data are unavailable"
        )
    report["hodge"] = hodge

    if truncated:
        warnings.append(
            f"choice enumeration truncated at {config.choice_cap} entries"
        )
    sigma_entries = []
    mellin_entries = []
    hyper_entries = []
    for choice, data in built:
        sigma_entries.append(sigma_entry(choice, data))
        if isinstance(data, NotSimplicializingError):
            continue
        swept = sweep_domain(data, config.k_max)
        detail = list(swept) + [v for v in config.vectors if v not in set(swept)]
        mellin_entries.append(
            {
                "sigma": choice.ordinal,
                **sweep_blocks(data, config.k_max),
                "vectors": [mellin_vector_block(data, v) for v in detail],
            }
        )

        hv = []
        configured = set(config.vectors)
        for v in _degree_one_vectors(data):
            if v in configured:
                continue  # the full entry below covers it
            skeleton = mellin_skeleton(data, v)
            if skeleton.degenerate:
                hv.append({"vector": list(v), "skipped": "degenerate skeleton"})
                continue
            hv.append(
                hypergeom_vector_block(data, v, config.series_terms, full=False)
            )
        hv.extend(configured_vector_entry(data, v, config) for v in config.vectors)
        hyper_entries.append(
            {
                "sigma": choice.ordinal,
                "order_convention": (
                    "operator order is the sum of |z-coefficient| over each "
                    "sign class, not the class cardinality"
                ),
                "vectors": hv,
            }
        )

    report["sigmas"] = sigma_entries
    report["mellin"] = mellin_entries
    report["hypergeom"] = hyper_entries
    report["warnings"] = warnings
    return report


def check(f: LaurentPolynomial, config: AnalyzeConfig) -> tuple[dict, bool]:
    """Run both sweeps on every selected choice; True means all clean."""
    entries, truncated = choice_entries(
        f, config, lambda data: sweep_blocks(data, config.k_max)
    )
    clean = not any(
        entry[sweep]["violations"]
        for entry in entries if "error" not in entry
        for sweep in ("pole_sweep", "face_sweep")
    )
    report = {
        "version": __version__,
        "input": input_block(f),
        "k_max": config.k_max,
        "checks": entries,
        "truncated": truncated,
        "clean": clean,
    }
    return report, clean


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
