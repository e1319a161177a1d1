import argparse
import hashlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import torus_fiber
from torus_fiber import errors
from torus_fiber.cli import _build_parser, main
from torus_fiber.errors import InternalConsistencyError
from torus_fiber.laurent import parse_laurent
from torus_fiber.mellin import SweepIssue, SweepReport
from torus_fiber.report import AnalyzeConfig, Report, analyze

QUARTIC = "x1^5 + x1^2*x2 + x1*x2^2 + x2^4"


@pytest.fixture()
def quartic_file(tmp_path):
    path = tmp_path / "input.txt"
    path.write_text(QUARTIC + "\n")
    return str(path)


def test_analyze_json(quartic_file, capsys):
    assert main(["analyze", quartic_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == [
        "version",
        "input",
        "hodge",
        "sigmas",
        "mellin",
        "hypergeom",
        "warnings",
    ]
    assert report["hodge"]["normalized_volume"] == 8
    assert len(report["sigmas"]) == 4
    assert report["sigmas"][2]["gamma"] == 7
    assert report["warnings"] == []


def test_analyze_deterministic(quartic_file, capsys):
    assert main(["analyze", quartic_file, "--J", "1,2,1"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", quartic_file, "--J", "1,2,1"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_out_flag_writes_file(quartic_file, tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["polytope", quartic_file, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    report = json.loads(target.read_text())
    assert report["normalized_volume"] == 8


@pytest.mark.parametrize("target", ["directory", "missing/report.json"])
def test_out_flag_unwritable(target, quartic_file, tmp_path, capsys):
    (tmp_path / "directory").mkdir()
    path = str(tmp_path / target)
    assert main(["polytope", quartic_file, "--out", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in captured.err


def test_input_directory_named(tmp_path, capsys):
    assert main(["polytope", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: input path is a directory: {tmp_path}\n"
    assert main(["polytope", str(tmp_path / "missing.txt")]) == 1
    assert "no such input file" in capsys.readouterr().err


def test_text_format(quartic_file, capsys):
    assert main(["check", quartic_file, "--format", "text", "--sigma", "3"]) == 0
    out = capsys.readouterr().out
    assert "clean: true" in out
    assert "violations" in out


def test_json_input_object(tmp_path, capsys):
    payload = {
        "variables": ["x1", "x2"],
        "monomials": [[5, 0], [2, 1], [1, 2], [0, 4]],
    }
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    assert main(["polytope", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["input"]["variables"] == ["x1", "x2"]
    assert report["normalized_volume"] == 8


def test_stdin_input(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(QUARTIC))
    assert main(["polytope", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["normalized_volume"] == 8


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


def test_sigma_subcommand(quartic_file, capsys):
    assert main(["sigma", quartic_file, "--sigma", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["sigmas"]) == 1
    assert report["sigmas"][0]["ordinal"] == 3
    assert report["sigmas"][0]["z_coeffs"] == [8, -20, 0, 5, 7]


def test_sigma_aux_names_skip_every_taken_stem(monkeypatch, capsys):
    # u1, aux1 and _aux1 are all input variables, so the auxiliary
    # variable takes the next free stem
    monkeypatch.setattr(
        "sys.stdin", io.StringIO("u1 + aux1 + _aux1 + u1^-1*aux1^-1*_aux1^-1 + u1*aux1")
    )
    assert main(["sigma", "-"]) == 0
    sigmas = json.loads(capsys.readouterr().out)["sigmas"]
    assert sigmas
    assert all(entry["aux_variables"] == ["__aux1"] for entry in sigmas)


def test_hodge_subcommand(quartic_file, capsys):
    assert main(["hodge", quartic_file, "--sigma", "3", "--J", "1,2,1"]) == 0
    report = json.loads(capsys.readouterr().out)
    entry = report["sigmas"][0]["classifications"][0]
    assert entry["degree_k"] == 1
    assert entry["hodge_p"] == 2
    assert entry["weight_w"] == 5


def test_mellin_subcommand(quartic_file, capsys):
    assert main(["mellin", quartic_file, "--sigma", "3", "--J", "1,2,1"]) == 0
    report = json.loads(capsys.readouterr().out)
    entry = report["mellin"][0]["vectors"][0]
    assert entry["poles"]["poles"][0] == ["0", 3]


def test_mellin_outside_cone_exit(quartic_file, capsys):
    # (1, 2, 1) lies in the cone of exactly one of the four choices
    assert main(["mellin", quartic_file, "--J", "1,2,1"]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    flagged = [
        e["sigma"]
        for e in report["mellin"]
        if any("outside_cone" in v for v in e["vectors"])
    ]
    assert flagged == [1, 2, 4]
    assert captured.err == (
        "error: vector [1, 2, 1] lies outside the cone of choices 1, 2, 4\n"
    )


def test_monodromy_subcommand(quartic_file, capsys):
    assert main(["monodromy", quartic_file, "--sigma", "3", "--J", "1,2,1"]) == 0
    report = json.loads(capsys.readouterr().out)
    entry = report["monodromy"][0]["vectors"][0]
    assert entry["characteristic_polynomials"]["modulus"] == 280
    assert entry["monodromy"]["relations_verified"] is True
    assert entry["jordan"]["block_size"] == 3


def test_check_clean(quartic_file, capsys):
    assert main(["check", quartic_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["clean"] is True
    assert [c["sigma"] for c in report["checks"]] == [1, 2, 3, 4]
    assert all(c["pole_sweep"]["violations"] == [] for c in report["checks"])


def test_check_reports_violations(quartic_file, capsys, monkeypatch):
    def fake_sweep(data, k_max, domain):
        return SweepReport(
            k_max=k_max,
            checked=1,
            violations=(SweepIssue((1, 0, 0), "pole-right-of-zero", "synthetic"),),
            notes=0,
            skipped_degenerate=(),
        )

    monkeypatch.setattr("torus_fiber.report.sweep_pole_checks", fake_sweep)
    assert main(["check", quartic_file, "--sigma", "3"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["clean"] is False
    issue = report["checks"][0]["pole_sweep"]["violations"][0]
    assert issue["code"] == "pole-right-of-zero"


def test_internal_error_exit_code(quartic_file, capsys, monkeypatch):
    def explode(f, config):
        raise InternalConsistencyError("synthetic failure")

    monkeypatch.setattr("torus_fiber.cli.analyze", explode)
    assert main(["analyze", quartic_file]) == 3
    assert "synthetic failure" in capsys.readouterr().err


def test_usage_errors_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("x1 +* x2")
    assert main(["analyze", str(bad)]) == 1
    assert main(["analyze", str(tmp_path / "missing.txt")]) == 1
    empty = tmp_path / "empty.txt"
    empty.write_text("   \n")
    assert main(["analyze", str(empty)]) == 1
    assert main(["unknown-command"]) == 1
    capsys.readouterr()


def test_bad_flag_values(quartic_file, capsys):
    assert main(["analyze", quartic_file, "--sigma", "zero"]) == 1
    assert main(["analyze", quartic_file, "--sigma", "0"]) == 1
    assert main(["analyze", quartic_file, "--sigma", "9"]) == 1
    assert main(["analyze", quartic_file, "--J", "1,a"]) == 1
    assert main(["analyze", quartic_file, "--J", "1,2"]) == 1
    assert main(["mellin", quartic_file]) == 1
    assert main(["monodromy", quartic_file]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command", ["check", "analyze"])
@pytest.mark.parametrize("k_max", ["0", "-1"])
def test_k_max_below_one_refused(command, k_max, tmp_path, capsys):
    # a sweep over no dilate checks nothing and would report clean
    path = tmp_path / "cubic.txt"
    path.write_text("x1 + x2 + x1^-1*x2^-1")
    assert main([command, str(path), "--k-max", k_max]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: k_max must be at least 1, got {k_max}\n"
    assert main([command, str(path), "--k-max", "1"]) == 0
    capsys.readouterr()


# every choice of these is affinely dependent
UNSIMPLICIALIZABLE = {
    "x1 + x2 + x1^2*x2^-1": "1,1",
    "x1 + x2 + x1^2*x2^-1 + x1^-1*x2^2": "1,1,1",
}


@pytest.mark.parametrize("text", sorted(UNSIMPLICIALIZABLE))
@pytest.mark.parametrize(
    "command, vectors",
    [
        ("analyze", False),
        ("check", False),
        ("sigma", False),
        ("hodge", True),
        ("mellin", True),
        ("monodromy", True),
    ],
)
def test_no_simplicializing_choice_fails(command, vectors, text, tmp_path, capsys):
    # a report of nothing but error entries still gets written, but the
    # run exits 1 rather than passing off an empty report as a result
    path = tmp_path / "input.txt"
    path.write_text(text)
    extra = ["--J", UNSIMPLICIALIZABLE[text]] if vectors else []
    assert main([command, str(path), *extra]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: no selected choice simplicializes\n"
    report = json.loads(captured.out)
    entries = {
        "analyze": "sigmas", "check": "checks", "sigma": "sigmas",
        "hodge": "sigmas", "mellin": "mellin", "monodromy": "monodromy",
    }[command]
    assert report[entries] and all("error" in e for e in report[entries])
    if command == "check":
        assert report["clean"] is False


def test_hodge_without_vectors_loops_no_choice(tmp_path, capsys):
    # without --J, hodge reports the polytope alone and asks no choice
    path = tmp_path / "input.txt"
    path.write_text("x1 + x2 + x1^2*x2^-1")
    assert main(["hodge", str(path)]) == 0
    assert "sigmas" not in json.loads(capsys.readouterr().out)


def test_polytope_takes_no_sigma(quartic_file, capsys):
    # the polytope has no choices to select from
    assert main(["polytope", quartic_file, "--sigma", "foo"]) == 1
    assert "unrecognized arguments: --sigma foo" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["polytope", "check", "analyze"])
def test_huge_simplex_refused_before_its_search(command, tmp_path, capsys):
    # a segment of normalized volume 10^20 + 1: its parallelepiped search
    # would run for ever, so the run names the limit and the order instead
    path = tmp_path / "huge.txt"
    path.write_text("x1^100000000000000000000 + x1^-1\n")
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: a triangulation simplex has normalized volume "
        "100000000000000000001, above PARALLELEPIPED_LIMIT = 100000 "
        "lattice points in its fundamental parallelepiped\n"
    )


def test_huge_operator_order_refused_before_its_lists(tmp_path, capsys):
    # the same segment's unreduced operator has order 10^20 + 1: the
    # local system names the limit and the order before it lists the
    # local exponents
    path = tmp_path / "huge.txt"
    path.write_text("x1^100000000000000000000 + x1^-1\n")
    assert main(["monodromy", str(path), "--J=1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the unreduced operator has order 100000000000000000001, "
        "above OPERATOR_ORDER_LIMIT = 10000 local exponents\n"
    )


def test_every_error_class_is_exported():
    classes = [
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.TorusFiberError)
    ]
    assert "LimitExceededError" in classes
    for name in classes:
        assert name in torus_fiber.__all__
        assert getattr(torus_fiber, name) is getattr(errors, name)


@pytest.mark.parametrize(
    "command, extra",
    [
        ("analyze", []),
        ("hodge", []),
        ("hodge", ["--J", "1,2,1"]),
        ("sigma", []),
        ("mellin", ["--J", "1,2,1"]),
        ("monodromy", ["--J", "1,2,1"]),
        ("check", []),
    ],
)
def test_unknown_sigma_ordinal_refused(command, extra, quartic_file, capsys):
    assert main([command, quartic_file, "--sigma", "9", *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no choice with ordinal 9 (have 1..4)\n"


@pytest.mark.parametrize("ordinal", ["0", "-1"])
def test_sigma_below_one_is_an_unknown_ordinal(ordinal, quartic_file, capsys):
    # the one ordinal refusal is the report's
    assert main(["sigma", quartic_file, "--sigma", ordinal]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no choice with ordinal {ordinal} (have 1..4)\n"


def test_invalid_json_input(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["polytope", str(path)]) == 1
    path.write_text('{"variables": ["x1"]}')
    assert main(["polytope", str(path)]) == 1
    capsys.readouterr()


T7 = "x1 + x2 + x3 + x1*x2*x3 + x1^-1 + x2^-1 + x3^-1"


@pytest.mark.parametrize("command", ["mellin", "monodromy", "hodge"])
def test_non_simplicializing_choice_is_recorded(command, tmp_path, capsys):
    # positions (1, 4, 5), ordinal 10, give a singular matrix; the vector
    # also falls outside some choices' cones, hence exit 1 with a report
    path = tmp_path / "t7.txt"
    path.write_text(T7)
    assert main([command, str(path), "--J=1,0,0,0,0,0"]) == 1
    report = json.loads(capsys.readouterr().out)
    entries = report["sigmas" if command == "hodge" else command]
    assert [e["sigma"] for e in entries] == list(range(1, 36))
    assert entries[9] == {
        "sigma": 10,
        "error": "extended support is affinely dependent for positions (1, 4, 5)",
    }
    assert sum("error" in e for e in entries) == 6


def test_all_three_refusals_in_one_run(tmp_path, capsys):
    # each choice refuses (-1, 0, ..., 0) in one of three ways: it does
    # not simplicialize, the vector lies outside its cone, or the
    # vector's skeleton is degenerate
    path = tmp_path / "t7.txt"
    path.write_text(T7)
    assert main(["monodromy", str(path), "--J=-1,0,0,0,0,0"]) == 1
    captured = capsys.readouterr()
    entries = json.loads(captured.out)["monodromy"]
    errors = [e["sigma"] for e in entries if "error" in e]
    vectors = [(e["sigma"], v) for e in entries if "error" not in e for v in e["vectors"]]
    outside = [sigma for sigma, v in vectors if "outside_cone" in v]
    skipped = [v for _, v in vectors if "skipped" in v]
    assert (len(errors), len(outside), len(skipped)) == (6, 12, 17)
    assert all(v == {"vector": [-1, 0, 0, 0, 0, 0], "skipped": "degenerate skeleton"}
               for v in skipped)
    assert captured.err == (
        "error: vector [-1, 0, 0, 0, 0, 0] lies outside the cone of choices "
        f"{', '.join(map(str, outside))}\n"
    )


def test_hodge_outside_cone_recorded_inline(quartic_file, capsys):
    assert main(["hodge", quartic_file, "--J", "1,2,1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: vector [1, 2, 1] lies outside the cone of choices 1, 2, 4\n"
    )
    report = json.loads(captured.out)
    flagged = [
        e["sigma"]
        for e in report["sigmas"]
        if any("outside_cone" in c for c in e["classifications"])
    ]
    assert flagged == [1, 2, 4]
    assert report["sigmas"][2]["classifications"][0]["weight_w"] == 5


@pytest.mark.parametrize("command", ["monodromy", "analyze"])
def test_non_monomial_constant_term_inverted(command, tmp_path, capsys):
    # the constant term zeta_3^2 of x_zero has canonical form -1 - zeta_3
    path = tmp_path / "input.txt"
    path.write_text("x1 + x2 + x1^-1*x2^-1")
    assert main([command, str(path), "--J", "0,2"]) == 0
    report = json.loads(capsys.readouterr().out)
    vectors = report[command if command == "monodromy" else "hypergeom"][0]["vectors"]
    entry = next(v for v in vectors if v["vector"] == [0, 2])
    assert entry["characteristic_polynomials"]["x_zero"] == ["-1 + -z3^1", "z3^1", "1"]
    assert entry["characteristic_polynomials"]["unit_multiplicity"] == 1
    assert entry["monodromy"]["relations_verified"]
    assert entry["jordan"]["consistent"]


@pytest.mark.parametrize(
    "command", ["analyze", "polytope", "hodge", "sigma", "mellin", "monodromy", "check"]
)
def test_non_unit_coefficient_refused(command, tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_text("2*x1 + x2 + x1^-1*x2^-1")
    vectors = ["--J", "1,1"] if command in ("mellin", "monodromy") else []
    assert main([command, str(path), *vectors]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "coefficient 2 in term 2*x1" in captured.err


@pytest.mark.parametrize("exponent", [1.7, "2", True])
def test_json_exponent_must_be_integer(exponent, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(
        {"variables": ["x1", "x2"], "monomials": [[exponent, 0], [0, 1], [-1, -1]]}
    ))
    assert main(["polytope", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"exponent {exponent!r} " in captured.err


_MONOMIALS = [[1, 0], [0, 1], [-1, -1]]


@pytest.mark.parametrize(
    "payload, named",
    [
        # the text form refuses a coefficient other than 1
        (
            {"variables": ["x1", "x2"], "monomials": _MONOMIALS, "coefficients": [2, 1, 1]},
            "unknown JSON input fields 'coefficients'",
        ),
        ({"variables": "xy", "monomials": _MONOMIALS}, "got 'xy'"),
        ({"variables": [1, 2], "monomials": _MONOMIALS}, "variable name 1 "),
        ({"variables": ["x 1", "x2"], "monomials": _MONOMIALS}, "variable name 'x 1' "),
    ],
)
def test_json_input_refuses_what_text_cannot_say(payload, named, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    assert main(["polytope", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert named in captured.err


NO_VARIABLES = {"text": "1", "json": '{"variables": [], "monomials": [[]]}'}


@pytest.mark.parametrize("form", sorted(NO_VARIABLES))
@pytest.mark.parametrize(
    "command", ["analyze", "polytope", "hodge", "sigma", "mellin", "monodromy", "check"]
)
def test_polynomial_without_variables_refused(command, form, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(NO_VARIABLES[form]))
    assert main([command, "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    if command not in ("mellin", "monodromy"):  # these first ask for a --J vector
        assert "points with no coordinates" in captured.err


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_long_exact_numbers_render(fmt, quartic_file, capsys, monkeypatch):
    # 5000 sevens: built by arithmetic, since int("7" * 5000) trips the
    # interpreter's int-to-string limit that input parsing keeps
    sevens = 7 * (10**5000 - 1) // 9
    monkeypatch.setattr(
        "torus_fiber.cli.analyze",
        lambda f, config: Report({"ratio": Fraction(sevens, 3), "count": sevens}),
    )
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert main(["analyze", quartic_file, "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert "7" * 5000 + "/3" in out
    assert out.count("7" * 5000) == 2
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_cli_runs_without_numpy(tmp_path):
    # the runtime is the standard library alone: importing the CLI and a
    # full `analyze` run must leave numpy unloaded
    path = tmp_path / "input.txt"
    path.write_text("x1 + x2 + x1^-1*x2^-1\n")
    script = (
        "import sys\n"
        "from torus_fiber.cli import main\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')\n"
        "assert not loaded(), loaded()\n"
        f"assert main(['analyze', {str(path)!r}, '--out', {str(tmp_path / 'out.json')!r}]) == 0\n"
        "assert not loaded(), loaded()\n"
    )
    src = str(Path(torus_fiber.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_exact_layers_import_no_cmath():
    # floats are made only when a report is rendered: every layer up to
    # hypergeom, which imports the others, computes without cmath
    script = (
        "import sys, torus_fiber.hypergeom\n"
        "assert 'torus_fiber.cyclotomic' in sys.modules\n"
        "assert 'torus_fiber.report' not in sys.modules\n"
        "assert 'cmath' not in sys.modules\n"
    )
    src = str(Path(torus_fiber.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


# SHA-256 of each subcommand's output on the golden quartic, pinned so
# that a refactor of the report pipeline provably changes no byte
GOLDEN_DIGESTS = [
    (["analyze", "--J", "1,2,1"], 0, {
        "json": "7b39fe7680402cf3ec7f758269042030ce27c26f4cb73077f74730b436389132",
        "text": "69bad24307b098e01fbcb15a16b35c973e38c1cd5a916093b920608f0b564636",
    }),
    (["polytope"], 0, {
        "json": "9439134179508af1cd833db5daddb1b0ffad7681301aca27c653e7bcd2e6fdeb",
        "text": "ed6de589ee2851223bd25ffd379974d872c4a5add1c11f8200428e8f8e563adb",
    }),
    (["hodge", "--J", "1,2,1"], 1, {
        "json": "e1146314a5dd09b074c7880a3a868feeefdcb16e5bc62ff2f90a4d37f822c10c",
        "text": "5025c44a11eb058f14f6fbaec59fcb511c66767d2c9c26084f7250cfb1efff44",
    }),
    (["sigma"], 0, {
        "json": "a45074b806220120cd3e68d04c4733b91d589146df4a32a762d1fe72f86a6158",
        "text": "4f648f533c2c6e1a178fde986fb7a90c8c89537e4e7b63be92be4e676ae92f09",
    }),
    (["mellin", "--J", "1,2,1"], 1, {
        "json": "41ec9aadc5a62482fc72d3b9fd8531ffad298b468854534cdf6a1f90282832fb",
        "text": "13473448fab5cacb1979bb0175689737beb3702a41d3edca12109139deeb438a",
    }),
    (["monodromy", "--sigma", "3", "--J", "1,2,1"], 0, {
        "json": "b7b7bcdb151f9b689d0f4d918f6b0cc88f99e40cb71a5295295f0d19ab728bd5",
        "text": "aedcb2a55a85cf4640e3f1280254314c25fca873b5004a2f1c5e16cc7a7e5c5d",
    }),
    (["check"], 0, {
        "json": "e397839bd55d9df59b3242c434d105133c22bf3f7bd8e6f71b25a0b69a8a9ba0",
        "text": "2ea82740b11c7ba3c80f1f7a3d54662f66acd84ab160fd24657857fb46571b4f",
    }),
]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize(
    "argv, code, digests", GOLDEN_DIGESTS, ids=[a[0][0] for a in GOLDEN_DIGESTS]
)
def test_golden_output_digests(argv, code, digests, fmt, quartic_file, capsys):
    assert main([argv[0], quartic_file, *argv[1:], "--format", fmt]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digests[fmt]


def test_unknown_section_refused():
    with pytest.raises(ValueError, match=r"unknown report sections \['polytop'\]"):
        analyze(parse_laurent(QUARTIC), AnalyzeConfig(sections=("polytop",)))


@pytest.mark.parametrize("k_max", [0, -1])
def test_library_k_max_below_one_refused(k_max):
    # a sweep over no dilate checks nothing, and would report clean
    config = AnalyzeConfig(k_max=k_max, sections=("k_max", "checks", "truncated", "clean"))
    with pytest.raises(ValueError, match=rf"^k_max must be at least 1, got {k_max}$"):
        analyze(parse_laurent("x1 + x2 + x1^-1*x2^-1"), config)


@pytest.mark.parametrize("vectors", [(), ((1, 1),)])
def test_library_empty_section_list_refused(vectors):
    # without a vector, the missing-vector refusal must not answer first
    config = AnalyzeConfig(sections=(), vectors=vectors)
    with pytest.raises(ValueError, match=r"^the list of report sections is empty$"):
        analyze(parse_laurent("x1 + x2 + x1^-1*x2^-1"), config)


@pytest.mark.parametrize("sections", [("poles",), ("local_systems",)])
def test_library_request_without_vectors_refused(sections):
    # these sections answer for the requested vectors alone
    with pytest.raises(ValueError, match=r"^this subcommand needs at least one --J vector$"):
        analyze(parse_laurent("x1 + x2 + x1^-1*x2^-1"), AnalyzeConfig(sections=sections))


@pytest.mark.parametrize("command", ["mellin", "monodromy"])
def test_request_without_vectors_refused(command, quartic_file, capsys):
    assert main([command, quartic_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: this subcommand needs at least one --J vector\n"


# subcommand: its arguments, as argparse lists them
SUBCOMMAND_ARGUMENTS = {
    "analyze": ["--help", "input", "--format", "--out", "--sigma", "--J", "--k-max"],
    "polytope": ["--help", "input", "--format", "--out"],
    "hodge": ["--help", "input", "--format", "--out", "--sigma", "--J"],
    "sigma": ["--help", "input", "--format", "--out", "--sigma"],
    "mellin": ["--help", "input", "--format", "--out", "--sigma", "--J"],
    "monodromy": ["--help", "input", "--format", "--out", "--sigma", "--J"],
    "check": ["--help", "input", "--format", "--out", "--sigma", "--k-max"],
}


def test_subcommand_arguments_pinned():
    parser = _build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: [a.option_strings[-1] if a.option_strings else a.dest for a in sub._actions]
        for name, sub in subparsers.choices.items()
    }
    # the order of the subcommands is the order of the --help listing
    assert list(found.items()) == list(SUBCOMMAND_ARGUMENTS.items())
