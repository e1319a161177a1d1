import re

import pytest

from torus_fiber.cli import main
from torus_fiber.laurent import parse_laurent
from torus_fiber.polytope import newton_polytope
from torus_fiber.simplicial import build_data, enumerate_choices

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # Same examples on every run, nothing read from or written to disk.
    settings.register_profile(
        "derandomized", derandomize=True, database=None, deadline=None
    )
    settings.load_profile("derandomized")

QUARTIC = "x1^5 + x1^2*x2 + x1*x2^2 + x2^4"

# One short label per numbered acceptance test; the hooks below print a
# PASS/FAIL line for each so the terminal shows one verdict per criterion
# even under output capture.
ACCEPTANCE_LABELS = {
    1: "golden matrix built, inverted, and formed in under a second",
    2: "weight vector, simplex volumes, and closure volume agree",
    3: "every simplicializing choice yields an exact scaled inverse",
    4: "matrix half-spaces equal hull facets (golden plus 20 random)",
    5: "lattice-count polynomials match a box-scan oracle (50 random)",
    6: "sweeps run clean; pinned pole order, degree, and level match",
    7: "series annihilation exact through 25 terms; unit-root count matches",
    8: "monodromy relations re-verified exactly; spectra on the unit circle",
    9: "value-level asymptotics out of scope; full analysis under ten seconds",
}
_acceptance_outcomes: dict[int, bool] = {}


def pytest_runtest_logreport(report):
    match = re.search(r"test_acceptance\.py::test_criterion_(\d+)", report.nodeid)
    if not match:
        return
    number = int(match.group(1))
    if report.when == "call":
        _acceptance_outcomes[number] = report.passed
    elif report.failed:
        _acceptance_outcomes[number] = False


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance")
    for number in sorted(_acceptance_outcomes):
        verdict = "PASS" if _acceptance_outcomes[number] else "FAIL"
        label = ACCEPTANCE_LABELS.get(number, "")
        terminalreporter.write_line(f"ACCEPTANCE {number}: {verdict} - {label}")


@pytest.fixture(scope="session")
def quartic():
    return parse_laurent(QUARTIC)


@pytest.fixture(scope="session")
def quartic_choices(quartic):
    choices, truncated = enumerate_choices(quartic)
    assert not truncated
    return choices


@pytest.fixture(scope="session")
def quartic_base(quartic):
    return newton_polytope(quartic.support)


@pytest.fixture(scope="session")
def sigma3(quartic, quartic_choices, quartic_base):
    return build_data(quartic, quartic_choices[2], quartic_base)


@pytest.fixture(scope="session")
def all_sigma_data(quartic, quartic_choices, quartic_base):
    return [build_data(quartic, c, quartic_base) for c in quartic_choices]


@pytest.fixture(scope="session")
def swapped_cubic():
    """Three-term torus polynomial whose matrix needs the sign swap."""
    f = parse_laurent("x1 + x2 + x1^-1*x2^-1")
    choices, _ = enumerate_choices(f)
    return build_data(f, choices[0], newton_polytope(f.support))


@pytest.fixture(scope="session")
def swapped_quartic():
    """x1^2 + x2^2 + 1/(x1 x2): gamma 8, also swap-normalized."""
    f = parse_laurent("x1^2 + x2^2 + x1^-1*x2^-1")
    choices, _ = enumerate_choices(f)
    return build_data(f, choices[0], newton_polytope(f.support))


@pytest.fixture
def exits_3(tmp_path, capsys):
    """``run(polynomial, check, subcommand, *flags)`` runs the CLI on the
    polynomial, which must exit 3, print nothing to stdout and name the
    failed check on stderr."""
    path = tmp_path / "input.txt"

    def run(polynomial, check, subcommand, *flags):
        path.write_text(polynomial + "\n")
        assert main([subcommand, str(path), *flags]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert check in captured.err

    return run


@pytest.fixture
def quartic_exits_3(exits_3):
    """``run(check, subcommand, *flags)``: :func:`exits_3` on the golden
    quartic."""
    return lambda check, subcommand, *flags: exits_3(QUARTIC, check, subcommand, *flags)
