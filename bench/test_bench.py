"""Tests of the benchmark itself: the seeded transform and span accounting.

    python3 -m pytest bench/test_bench.py
"""

import io
import json
import sys
import time
from pathlib import Path

import pytest

import corpus
from run import INVARIANT_KEYS, invariants
from child import SpeedSampler
from spans import ROOT, Tracer, self_times, summarize

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from torus_fiber import cli  # noqa: E402
from torus_fiber.laurent import parse_laurent  # noqa: E402

SEEDS = (1, 2, 3, 17)
EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())
ALL_REQUESTS = [r for workload in corpus.WORKLOADS.values() for r in workload]


def _report(request, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(request.text))
    capsys.readouterr()
    assert cli.main(request.argv()) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("request_", ALL_REQUESTS, ids=lambda r: r.id)
def test_transform_keeps_invariants(request_, monkeypatch, capsys):
    """The gate's invariants of every seeded request match the committed
    base-corpus values, so the gate holds for any seed."""
    want = EXPECTED[request_.id]["invariants"]
    for seed in SEEDS:
        moved = corpus.transform(request_, seed)
        assert moved != request_
        assert invariants(_report(moved, monkeypatch, capsys)) == want, (seed, moved)


def test_gate_covers_the_layers_each_workload_loads():
    def keys(workload):
        return set().union(*(EXPECTED[r.id]["invariants"] for r in corpus.WORKLOADS[workload]))

    assert all(EXPECTED[r.id]["invariants"] for r in ALL_REQUESTS)
    assert {"counts", "gamma", "degree_k", "poles", "checked"} <= keys("geometry")
    assert {"exponent", "coefficients"} <= keys("series")
    assert {"x_zero", "x_infinity", "h_zero", "h_infinity", "h_one", "modulus"} <= keys("monodromy")


def test_seed_zero_is_the_base_corpus():
    for workload in corpus.WORKLOADS:
        assert corpus.requests(workload, corpus.DEFAULT_SEED) == corpus.WORKLOADS[workload]


def test_same_seed_same_inputs():
    for workload in corpus.WORKLOADS:
        assert corpus.requests(workload, 5) == corpus.requests(workload, 5)
        assert corpus.requests(workload, 5) != corpus.requests(workload, 6)


def test_unimodular_draws():
    import random

    rng = random.Random(0)
    for _ in range(50):
        a = corpus.unimodular(rng, 3)
        det = (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
               - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
               + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))
        assert det in (1, -1)


def test_vectors_use_equals_form():
    request = corpus.Request("r", "monodromy", corpus.ladder(2), None, ((-2, -2),))
    assert request.argv() == ["monodromy", "-", "--J=-2,-2"]


def test_support_round_trip():
    rows = corpus.parse_support(corpus.T7)
    assert corpus.parse_support(corpus.format_support(rows)) == rows
    f = parse_laurent(corpus.format_support(rows))
    assert list(f.support) == rows


def test_invariants_are_sorted_multisets():
    report = {
        "sigmas": [{"gamma": 4}, {"gamma": 2, "x": {"order": 3}}],
        "hodge": {"counts": [1, 8], "vertices": [[1, 0]]},
    }
    found = invariants(report)
    assert set(found) == {"gamma", "counts", "order"} <= set(INVARIANT_KEYS)
    reordered = {
        "hodge": {"vertices": [[0, 1]], "counts": [1, 8]},
        "sigmas": [{"gamma": 2, "x": {"order": 3}}, {"gamma": 4}],
    }
    assert invariants(reordered) == found
    changed = {"sigmas": [{"gamma": 4}, {"gamma": 3, "x": {"order": 3}}],
               "hodge": {"counts": [1, 8]}}
    assert invariants(changed) == {**found, "gamma": invariants(changed)["gamma"]}
    assert invariants(changed)["gamma"] != found["gamma"]


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_accounting():
    clock = _Clock()
    tracer = Tracer(clock=clock)

    def leaf(dt):
        clock.now += dt

    def middle():
        clock.now += 1.0
        wrapped_leaf(2.0)
        clock.now += 0.5
        wrapped_leaf(3.0)

    def top():
        clock.now += 0.25
        wrapped_middle()
        wrapped_leaf(4.0)

    wrapped_leaf = tracer.wrap("exact.leaf", leaf)
    wrapped_middle = tracer.wrap("polytope.middle", middle)
    tracer.wrap(ROOT, top)()

    names = [s[0] for s in tracer.spans]
    assert names == [ROOT, "polytope.middle", "exact.leaf", "exact.leaf", "exact.leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1, 0]
    assert self_times(tracer.spans) == [0.25, 1.5, 2.0, 3.0, 4.0]

    summary = summarize(tracer)
    assert summary["total_s"] == 10.75
    assert summary["layer_self_s"] == {"cli": 0.25, "polytope": 1.5, "exact": 9.0}
    assert sum(summary["layer_self_s"].values()) == summary["total_s"]
    assert summary["calls"] == {ROOT: 1, "polytope.middle": 1, "exact.leaf": 3}


def test_span_closes_when_the_call_raises():
    clock = _Clock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("exact.boom", boom)()
    assert tracer.spans == [["exact.boom", 0.0, 1.0, -1]]
    assert tracer.stack == [-1]


def test_speed_samples_are_charged_to_no_layer():
    tracer = Tracer()
    sampler = SpeedSampler(interval=0.02)

    def busy():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass

    with sampler:
        tracer.wrap(ROOT, busy)()
    assert sampler.samples and sampler.paused > 0
    assert len(sampler.intervals) == len(sampler.samples)
    summary = summarize(tracer, sampler.intervals)
    assert set(summary["layer_self_s"]) == {"cli"}
    assert summary["layer_self_s"]["cli"] == pytest.approx(summary["total_s"])
    root = tracer.spans[0]
    assert summary["total_s"] == pytest.approx(root[2] - root[1] - sampler.paused)


def test_sample_at_a_span_boundary_goes_to_the_innermost_span():
    # root [0, 10] holds a [1, 5], which holds b [2, 3].  A sample that
    # starts the instant a opens, or ends the instant b closes, lies
    # inside them and is taken from their self time, not the parent's.
    spans = [
        [ROOT, 0.0, 10.0, -1],
        ["polytope.a", 1.0, 5.0, 0],
        ["exact.b", 2.0, 3.0, 1],
    ]
    assert self_times(spans) == [6.0, 3.0, 1.0]
    assert self_times(spans, [(1.0, 1.5)]) == [6.0, 2.5, 1.0]
    assert self_times(spans, [(2.5, 3.0)]) == [6.0, 3.0, 0.5]
    assert self_times(spans, [(3.0, 3.25)]) == [6.0, 2.75, 1.0]
    assert self_times(spans, [(5.0, 6.0), (9.0, 10.0)]) == [4.0, 3.0, 1.0]
    # Outside every span: charged to nothing.
    assert self_times(spans, [(10.5, 11.0)]) == [6.0, 3.0, 1.0]

    tracer = Tracer()
    tracer.spans.extend(spans)
    summary = summarize(tracer, [(1.0, 1.5), (2.5, 3.0), (10.5, 11.0)])
    assert summary["total_s"] == 9.0
    assert summary["layer_self_s"] == {"cli": 6.0, "polytope": 2.5, "exact": 0.5}
