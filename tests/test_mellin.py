import random
import sys
from dataclasses import replace
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import factorial, prod

import pytest

from oracles import constant_term, power_table
from torus_fiber import lattice, mellin, polytope, simplicial
from torus_fiber.cli import main
from torus_fiber.errors import (
    ConeMembershipError,
    InternalConsistencyError,
    NotSimplicializingError,
)
from torus_fiber.hypergeom import jordan_report, local_exponents
from torus_fiber.mellin import (
    base_strata,
    enumerate_poles,
    mellin_skeleton,
    pole_prediction,
    sweep_domain,
    sweep_pole_checks,
    sweep_preserved_face_checks,
)
from torus_fiber.laurent import LaurentPolynomial, parse_laurent
from torus_fiber.polytope import newton_polytope


def test_skeleton_golden(sigma3):
    sk = mellin_skeleton(sigma3, (1, 2, 1))
    assert [(f.constant, f.slope) for f in sk.numerator] == [
        (0, Fraction(8, 7)),
        (0, Fraction(5, 7)),
        (0, Fraction(1)),
    ]
    assert [(f.constant, f.slope) for f in sk.denominator] == [
        (Fraction(1), Fraction(20, 7)),
    ]
    assert sk.constants == (Fraction(1),)
    assert not sk.degenerate
    assert sum(f.slope for f in sk.numerator) == sum(f.slope for f in sk.denominator)


def test_pole_enumeration_golden(sigma3):
    sk = mellin_skeleton(sigma3, (1, 2, 1))
    report = enumerate_poles(sk, z_min=-1)
    assert report.poles == (
        (Fraction(0), 3),
        (Fraction(-7, 8), 1),
        (Fraction(-1), 1),
    )
    assert report.cancellations == ()
    assert report.max_pole == (Fraction(0), 3)
    assert report.z_min == -1


def test_pole_positions_descend(sigma3):
    sk = mellin_skeleton(sigma3, (1, 2, 1))
    report = enumerate_poles(sk, z_min=-5)
    positions = [z for z, _ in report.poles]
    assert positions == sorted(positions, reverse=True)
    assert all(z >= -5 for z in positions)
    assert report.poles[:3] == enumerate_poles(sk, z_min=-1).poles


def test_candidate_pole_survives(swapped_quartic):
    # all denominator arguments stay off the nonpositive integers at 0,
    # so the candidate pole there cannot be cancelled in the skeleton
    sk = mellin_skeleton(swapped_quartic, (1, 0))
    assert [(f.constant, f.slope) for f in sk.denominator] == [
        (Fraction(7, 8), Fraction(1, 4)),
        (Fraction(3, 8), Fraction(1, 4)),
        (Fraction(3, 4), Fraction(1, 2)),
    ]
    report = enumerate_poles(sk, z_min=-1)
    assert report.poles == ((Fraction(0), 1), (Fraction(-1), 1))


def test_candidate_pole_cancels(swapped_cubic):
    # one denominator factor hits 0 together with the numerator factor,
    # so the top candidate drops out and the first pole sits at -1
    sk = mellin_skeleton(swapped_cubic, (1, 0))
    report = enumerate_poles(sk, z_min=-2)
    assert report.cancellations == ((Fraction(0), 1, 1),)
    assert report.poles == ((Fraction(-1), 1), (Fraction(-2), 1))
    assert report.max_pole[0] < 0


def test_degenerate_skeleton(sigma3):
    sk = mellin_skeleton(sigma3, (1, 2, 0))
    assert sk.degenerate
    assert sk.constants == (Fraction(0),)
    # the constants take no part in the enumeration
    report = enumerate_poles(sk, z_min=-1)
    assert report.poles == (
        (Fraction(1, 8), 1),
        (Fraction(0), 1),
        (Fraction(-1), 1),
    )


def test_prediction_pinned(sigma3):
    pred = pole_prediction(sigma3, (1, 2, 1))
    assert pred.kind == "at"
    assert pred.degree_k == 1
    assert pred.hodge_p == 2
    assert pred.position == 0
    assert pred.order_bound == 3
    assert pred.tight_pos == (0, 3)
    assert pred.tight_neg == (1,)
    assert pred.filtration_k == 1


def test_prediction_interval(sigma3):
    pred = pole_prediction(sigma3, (1, 1, 0))
    assert pred.kind == "interval"
    assert pred.position is None
    assert pred.order_bound is None
    assert pred.interval == (Fraction(-7, 5), Fraction(0))
    deeper = pole_prediction(sigma3, (2, 2, 1))
    assert deeper.degree_k == 2
    assert deeper.interval == (Fraction(-19, 5), Fraction(-1))


def test_prediction_outside_cone(sigma3):
    with pytest.raises(ConeMembershipError) as err:
        pole_prediction(sigma3, (3, 1, 1))
    assert err.value.witness is not None


def test_sweep_domain_golden(sigma3):
    assert sweep_domain(sigma3, 1) == [
        (0, 4, 0),
        (1, 2, 1),
        (1, 3, 0),
        (2, 1, 0),
        (2, 2, 0),
        (3, 1, 0),
        (5, 0, 0),
    ]
    assert len(sweep_domain(sigma3, 2)) > 7


def test_pole_sweeps_run_clean(all_sigma_data):
    checked = []
    for data in all_sigma_data:
        report = sweep_pole_checks(data, 3, sweep_domain(data, 3))
        assert report.violations == ()
        assert report.k_max == 3
        checked.append(report.checked)
    assert checked == [15, 32, 33, 20]


def test_face_sweeps_run_clean(all_sigma_data):
    checked = []
    exemptions = []
    strata = base_strata(newton_polytope(all_sigma_data[0].base.support), 3)
    for data in all_sigma_data:
        report = sweep_preserved_face_checks(data, 3, strata)
        assert report.violations == ()
        checked.append(report.checked)
        exemptions.append(report.exemptions)
    assert checked == [13, 15, 14, 13]
    # each padded base vector is orthogonal to exactly the auxiliary
    # normal, so the exemption count equals the checked count here
    assert exemptions == checked


def _denominator_hits(skeleton, z):
    count = 0
    for form in skeleton.denominator:
        val = form.at(z)
        if val.denominator == 1 and val <= 0:
            count += 1
    return count


def test_sweep_past_k_max_fails_loudly(sigma3, quartic_exits_3, monkeypatch):
    # every dilate of the sweep domain one too high: a swept vector has no
    # dilate degree within k_max; the sweep runs on a copy with no records
    points = mellin.lattice_points
    monkeypatch.setattr(mellin, "lattice_points", lambda poly, k: points(poly, k + 1))
    data = replace(sigma3)
    with pytest.raises(InternalConsistencyError, match="has no dilate degree <= 3"):
        sweep_pole_checks(data, 3, sweep_domain(data, 3))
    quartic_exits_3("has no dilate degree <= 3", "check", "--sigma", "3")


def test_pinned_order_matches_block_size(all_sigma_data):
    """Where nothing cancels, the skeleton order at 1-k is the block size.

    Guards: a pinned prediction, no denominator factor at a nonpositive
    integer there, and no integer exponent shared by the two local
    multisets.  Outside those guards the candidate order may drop below
    the block size (cancellation) and the relation genuinely fails.
    """
    checked = 0
    for data in all_sigma_data:
        for vector in sweep_domain(data, 3):
            skeleton = mellin_skeleton(data, vector)
            if skeleton.degenerate:
                continue
            try:
                pred = pole_prediction(data, vector)
            except ConeMembershipError:
                continue
            if pred.kind != "at" or not pred.tight_pos:
                continue
            if _denominator_hits(skeleton, pred.position):
                continue
            sets = local_exponents(data, vector)
            if any(a.denominator == 1 for a in sets.common):
                continue
            report = enumerate_poles(skeleton, z_min=pred.position)
            order = dict(report.poles).get(pred.position, 0)
            block = jordan_report(data, vector).block_size
            assert order == block == len(pred.tight_pos) + 1
            checked += 1
    assert checked == 40


def test_cancellation_drops_below_block(sigma3):
    # with a denominator hit at the pinned position the candidate order
    # is 2 while the block size stays 3: reported side by side, and the
    # reason the property above needs its cancellation guard
    pred = pole_prediction(sigma3, (4, 5, 2))
    assert pred.position == -2
    assert pred.order_bound == 3
    skeleton = mellin_skeleton(sigma3, (4, 5, 2))
    assert _denominator_hits(skeleton, pred.position) == 1
    report = enumerate_poles(skeleton, z_min=pred.position)
    assert dict(report.poles)[Fraction(-2)] == 2
    assert jordan_report(sigma3, (4, 5, 2)).block_size == 3


T7 = "x1 + x2 + x3 + x1*x2*x3 + x1^-1 + x2^-1 + x3^-1"


def _count_calls(monkeypatch, module, name, key, calls):
    """Record ``key(*args)`` for each call of ``module.name``, wherever
    the package has bound it."""
    original = getattr(module, name)

    def counted(*args):
        calls.append(key(*args))
        return original(*args)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("torus_fiber") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)


def _count_builds(monkeypatch, cls, name, key, calls):
    """Record ``key(instance)`` each time the held attribute ``cls.name``
    is built."""
    build = vars(cls)[name].func

    def counted(self):
        calls.append(key(self))
        return build(self)

    held = cached_property(counted)
    held.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, held)


def _hull_key(points):
    return tuple(sorted(set(map(tuple, points))))


@pytest.mark.parametrize("command", ["analyze", "check"])
def test_one_skeleton_per_choice_and_vector(command, tmp_path, monkeypatch):
    # every consumer of a (choice, vector) pair reads the pair's one
    # record: the detail blocks, both sweeps and the hypergeometric loop
    # share one skeleton, one closure degree and one extended filtration
    # degree; the sweep domain is enumerated once per choice (29), and
    # the base lattice (76 vectors) is classified once per polynomial.
    # The geometry is built once: the base hull and its cones once per
    # run, and each choice's extended and closure hulls, preserved faces
    # and cones once per choice
    forms, closure, filtration, faces, domains, cones, hulls, kept = ([] for _ in range(8))

    def by_pair(poly, vector, k=1):
        return poly.points, tuple(vector)

    _count_calls(
        monkeypatch, simplicial, "linear_forms",
        lambda data, vector: (data.choice.ordinal, tuple(vector)), forms,
    )
    _count_calls(monkeypatch, lattice, "dilation_degree", by_pair, closure)
    _count_calls(monkeypatch, lattice, "filtration_degree", by_pair, filtration)
    _count_calls(monkeypatch, polytope, "minimal_face_of", by_pair, faces)
    _count_calls(
        monkeypatch, mellin, "sweep_domain", lambda data, k: data.choice.ordinal, domains
    )
    _count_calls(monkeypatch, polytope, "newton_polytope", _hull_key, hulls)
    _count_builds(
        monkeypatch, polytope.NewtonPolytope, "cones", lambda poly: poly.points, cones
    )
    _count_builds(
        monkeypatch, simplicial.SimplicialData, "preserved_faces",
        lambda data: data.choice.ordinal, kept,
    )
    path = tmp_path / "t7.txt"
    path.write_text(T7)
    assert main([command, str(path), "--out", str(tmp_path / "report.json")]) == 0

    def on(calls, dim):
        return [c for c in calls if len(c[0][0]) == dim]

    assert len(forms) == len(set(forms)) == 3255
    # the base polytope lives in 3 dimensions, extended and closure in 6
    assert len(closure) == len(set(closure)) == (3255 if command == "analyze" else 0)
    # dilation_degree reads filtration_degree; the closure holds the origin
    origin = (0,) * 6
    extended = [c for c in on(filtration, 6) if origin not in c[0]]
    assert len(extended) == len(set(extended)) == 3255
    assert len(on(filtration, 3)) == len(on(faces, 3)) == 76
    assert len(domains) == len(set(domains)) == 29
    # 1 base hull and 29 extended hulls, plus 29 closure hulls in analyze
    assert len(hulls) == len(set(hulls)) == (59 if command == "analyze" else 30)
    assert len([pts for pts in hulls if len(pts[0]) == 3]) == 1
    # the 29 extended simplices and the base, whose Ehrhart data needs them
    assert len(cones) == len(set(cones)) == 30
    assert len([pts for pts in cones if len(pts[0]) == 3]) == 1
    assert len(kept) == len(set(kept)) == 29
    if command == "check":
        assert not [pts for pts in hulls if origin in pts]


def test_each_run_builds_its_own_hulls(tmp_path, monkeypatch):
    # nothing is held across runs: a second run in the same process
    # builds its 30 hulls again
    path = tmp_path / "t7.txt"
    path.write_text(T7)
    for _ in range(2):
        hulls = []
        with monkeypatch.context() as patch:
            _count_calls(patch, polytope, "newton_polytope", _hull_key, hulls)
            assert main(["check", str(path), "--out", str(tmp_path / "report.json")]) == 0
        assert len(hulls) == len(set(hulls)) == 30


def _skeleton_period(skeleton, m: int, k: int) -> int:
    """k!/prod a_q!, with the a_q read off the skeleton at z = k + 1, or 0
    unless every a_q is a nonnegative integer."""
    z = k + 1
    counts = []
    for form in skeleton.numerator:
        if form.q == m:
            assert form.at(z) == z  # the fibre row: Gamma(k + 1) = k!
        else:
            counts.append(-form.at(z))
    counts += [form.at(z) - 1 for form in skeleton.denominator]
    counts += [-c for c in skeleton.constants]
    assert len(counts) == m
    if any(a < 0 or a.denominator != 1 for a in counts):
        return 0
    return factorial(k) // prod(factorial(int(a)) for a in counts)


def _random_supports(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 3)
        size = n + rng.randint(1, 2)
        support = set()
        while len(support) < size:
            support.add(tuple(rng.randint(-2, 2) for _ in range(n)))
        names = [f"x{i + 1}" for i in range(n)]
        yield LaurentPolynomial.from_support(names, sorted(support))


PERIOD_INPUTS = [
    # (polynomial, box radius, k_max, vectors sampled per choice or None for the box)
    ("x1^5 + x1^2*x2 + x1*x2^2 + x2^4", 2, 8, None),
    ("x1 + x1^-1", 4, 8, None),
    ("x1 + x2 + x1^-1*x2^-1", 3, 6, None),
    ("x1 + x2 + x3 + x1^-1*x2^-1 + x3^-1", 1, 5, None),
    ("x1 + x2 + x3 + x1*x2*x3 + x1^-1 + x2^-1 + x3^-1", 1, 4, 24),
]


def test_skeleton_matches_period_oracle():
    # ct(x^J F^k) = k!/prod a_q!, F the choice's extended polynomial: the
    # skeleton checked against the polynomial itself, not the polytope
    rng = random.Random(20261019)
    inputs = [(parse_laurent(text), *rest) for text, *rest in PERIOD_INPUTS]
    inputs += [(f, 2, 4, None) for f in _random_supports(7, 12)]
    checked = nonzero = 0
    for f, radius, k_max, sample in inputs:
        choices, _ = simplicial.enumerate_choices(f)
        base = newton_polytope(f.support)
        for choice in choices:
            try:
                data = simplicial.build_data(f, choice, base)
            except NotSimplicializingError:
                continue
            powers = power_table(data.extended.support, k_max)
            box = list(product(range(-radius, radius + 1), repeat=data.n_extended_vars))
            for vector in box if sample is None else rng.sample(box, sample):
                skeleton = mellin_skeleton(data, vector)
                for k in range(k_max + 1):
                    expected = constant_term(powers, vector, k)
                    assert _skeleton_period(skeleton, data.m, k) == expected, (
                        str(f), choice.ordinal, vector, k,
                    )
                    checked += 1
                    nonzero += expected != 0
    assert checked > 15000 and nonzero > 500
