import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import torus_fiber
from torus_fiber.cli import main
from torus_fiber.errors import InternalConsistencyError
from torus_fiber.mellin import SweepIssue, SweepReport

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
    report = json.loads(capsys.readouterr().out)
    flagged = [
        e["sigma"]
        for e in report["mellin"]
        if any("outside_cone" in v for v in e["vectors"])
    ]
    assert flagged == [1, 2, 4]


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
    def fake_sweep(data, k_max):
        return SweepReport(
            k_max=k_max,
            checked=1,
            violations=(SweepIssue((1, 0, 0), "pole-right-of-zero", "synthetic"),),
            notes=(),
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
    assert "--k-max must be at least 1" in captured.err
    assert main([command, str(path), "--k-max", "1"]) == 0
    capsys.readouterr()


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


def test_hodge_outside_cone_recorded_inline(quartic_file, capsys):
    assert main(["hodge", quartic_file, "--J", "1,2,1"]) == 1
    report = json.loads(capsys.readouterr().out)
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


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_long_exact_numbers_render(fmt, quartic_file, capsys, monkeypatch):
    # 5000 sevens: built by arithmetic, since int("7" * 5000) trips the
    # interpreter's int-to-string limit that input parsing keeps
    sevens = 7 * (10**5000 - 1) // 9
    monkeypatch.setattr(
        "torus_fiber.cli.analyze",
        lambda f, config: {"ratio": Fraction(sevens, 3), "count": sevens},
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
