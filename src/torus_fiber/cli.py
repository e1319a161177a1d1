"""Command-line interface.

Each subcommand is a slice of the one report pipeline: it names the
sections of :func:`torus_fiber.report.analyze` it prints.

Exit codes: 0 success, 1 usage or input errors (and a report in which
no selected choice simplicializes, or a requested vector lies outside a
choice's cone), 2 failed consistency checks (``check`` subcommand),
3 internal invariant violations.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .errors import InternalConsistencyError, TorusFiberError
from .laurent import LaurentPolynomial, parse_laurent
from .report import (
    ANALYZE,
    CHOICE_SECTIONS,
    K_MAX_SECTIONS,
    VECTOR_SECTIONS,
    AnalyzeConfig,
    analyze,
    to_json,
    to_text,
)

# subcommand: (its help line, the report sections it prints); the
# sections decide its flags
SUBCOMMANDS = {
    "analyze": ("full report", ANALYZE),
    "polytope": (
        "Newton polytope geometry", ("polytope", "ehrhart", "normalized_volume")
    ),
    "hodge": (
        "lattice counts and vector classification",
        ("polytope", "ehrhart", "classifications"),
    ),
    "sigma": ("simplicializing choices and their data", ("sigmas",)),
    "mellin": ("pole skeleton for the given vectors", ("poles",)),
    "monodromy": ("local systems for the given vectors", ("local_systems",)),
    "check": ("run consistency sweeps", ("k_max", "checks", "truncated", "clean")),
}


class _Parser(argparse.ArgumentParser):
    """argparse flavour whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="torus-fiber",
        description=(
            "Exact combinatorial and differential analysis of Laurent "
            "polynomials with unit coefficients"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_line, sections) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.add_argument(
            "input",
            help="path to the input file, or '-' to read standard input",
        )
        p.add_argument(
            "--format",
            choices=("json", "text"),
            default="json",
            help="output format (default: json)",
        )
        p.add_argument("--out", help="write the report here instead of stdout")
        reads = set(sections)
        if reads & CHOICE_SECTIONS.keys():
            p.add_argument(
                "--sigma",
                default="all",
                help="restrict to one choice by ordinal (default: all)",
            )
        if reads & VECTOR_SECTIONS:
            p.add_argument(
                "--J",
                action="append",
                default=[],
                metavar="V",
                help="comma-separated integer vector; may be repeated",
            )
        if reads & K_MAX_SECTIONS:
            p.add_argument(
                "--k-max",
                type=int,
                default=AnalyzeConfig.k_max,
                dest="k_max",
                help=f"largest degree swept (default: {AnalyzeConfig.k_max})",
            )
    return parser


def _load_input(source: str) -> LaurentPolynomial:
    if source == "-":
        text = sys.stdin.read()
    else:
        path = Path(source)
        if path.is_dir():
            raise ValueError(f"input path is a directory: {source}")
        if not path.is_file():
            raise ValueError(f"no such input file: {source}")
        try:
            text = path.read_text()
        except OSError as err:
            raise ValueError(f"cannot read {source}: {err.strerror or err}") from None
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty input")
    if stripped.startswith("{"):
        try:
            payload = json.loads(stripped)
        except json.JSONDecodeError as err:
            raise ValueError(f"invalid JSON input: {err}") from None
        if not isinstance(payload, dict):
            raise ValueError("JSON input must be an object")
        unknown = sorted(set(payload) - {"variables", "monomials"})
        if unknown:
            raise ValueError(
                f"unknown JSON input fields {', '.join(map(repr, unknown))}: "
                "only 'variables' and 'monomials' are read"
            )
        try:
            variables = payload["variables"]
            monomials = tuple(tuple(m) for m in payload["monomials"])
        except (KeyError, TypeError):
            raise ValueError(
                "JSON input needs 'variables' and 'monomials' fields"
            ) from None
        if not isinstance(variables, list):
            raise ValueError(f"JSON 'variables' must be a list of names, got {variables!r}")
        return LaurentPolynomial.from_support(variables, monomials)
    return parse_laurent(stripped)


def _parse_sigma(text: str) -> int | None:
    if text == "all":
        return None
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"--sigma expects an ordinal or 'all', got {text!r}")


def _parse_vectors(items) -> tuple[tuple[int, ...], ...]:
    vectors = []
    for item in items:
        parts = [p.strip() for p in item.split(",")]
        try:
            vectors.append(tuple(int(p) for p in parts))
        except ValueError:
            raise ValueError(f"--J expects comma-separated integers, got {item!r}")
    return tuple(vectors)


def _config(args) -> AnalyzeConfig:
    return AnalyzeConfig(
        sigma=_parse_sigma(getattr(args, "sigma", "all")),
        k_max=getattr(args, "k_max", AnalyzeConfig.k_max),
        vectors=_parse_vectors(getattr(args, "J", [])),
        sections=SUBCOMMANDS[args.command][1],
    )


@contextmanager
def _unlimited_int_digits():
    """Lift the interpreter's int-to-string digit limit, which guards
    parsing, for the block only.  Python 3.10 before 3.10.7 has no limit."""
    set_digits = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_digits(0)
    try:
        yield
    finally:
        set_digits(limit)


def _emit(report: dict, args) -> bool:
    """Render the report to ``--out`` or stdout; False when ``--out``
    cannot be written (the reason goes to stderr)."""
    # exact numbers may run past the digit limit
    with _unlimited_int_digits():
        rendered = to_json(report) if args.format == "json" else to_text(report)
    if not args.out:
        sys.stdout.write(rendered)
        return True
    try:
        Path(args.out).write_text(rendered)
    except OSError as err:
        print(f"error: cannot write {args.out}: {err.strerror or err}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report = analyze(_load_input(args.input), _config(args))
    except InternalConsistencyError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 3
    except (TorusFiberError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if not _emit(report.body, args):
        return 1
    if report.message:
        print(f"error: {report.message}", file=sys.stderr)
    return report.status


if __name__ == "__main__":
    sys.exit(main())
