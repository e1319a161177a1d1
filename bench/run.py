"""End-to-end benchmark of the ``torus-fiber`` command line.

    python3 bench/run.py --workload geometry --seed 0 --seconds 30 --trace 0

A single closed-loop client runs the workload's requests one at a time,
each in a fresh interpreter (``bench/child.py``), so every request pays
the cold process-wide caches a CLI user pays.  Another full pass over the
workload starts only while it is expected to end within ``--seconds``;
at least one pass runs.  Every request goes through the correctness gate.
Times are scaled to nominal host speed (see ``Result.scale``).

With ``--trace 0`` the last line reports the end-to-end metrics.  With ``--trace 1`` untraced and traced passes alternate
and the last line reports the per-layer metrics of the traced passes.
The lines before it are a readable summary and the run record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import corpus

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"
REQUEST_TIMEOUT_S = 150
# Import-only children started before the first pass.  One import time
# swings by about a tenth between children, and geometry has only five
# requests a pass, so its setup_s median needs these extra samples.
SETUP_PROBES = 30
# Reference-kernel time (child.reference_kernel) that defines nominal host
# speed; every time a child reports is scaled to it.  Its value was the
# kernel's time on a quiet 2-vCPU Xeon host.
REF_S = 0.008

# Report fields that a unimodular change of coordinates and a new term
# order leave alone; compared as sorted multisets.  They cover every layer
# a workload loads: polytope and lattice (counts, volume), simplicial
# (gamma), mellin (degree_k, hodge_p, poles, checked, clean), hypergeom
# (Frobenius exponent and coefficients) and cyclotomic (characteristic
# polynomials x_zero and x_infinity, monodromy matrices h_zero, h_infinity
# and h_one, modulus, order, unit multiplicity).
INVARIANT_KEYS = (
    "gamma", "counts", "interior_counts", "normalized_volume",
    "modulus", "order", "unit_multiplicity", "checked", "clean",
    "degree_k", "hodge_p", "poles", "exponent", "coefficients",
    "x_zero", "x_infinity", "h_zero", "h_infinity", "h_one",
)


@dataclass
class Result:
    request: corpus.Request
    code: int
    setup_s: float
    main_s: float
    ref_s: list[float]
    maxrss_kb: int
    output: bytes
    stderr: str
    trace: dict | None

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.output).hexdigest()

    @property
    def scale(self) -> float:
        """Factor taking this child's times to nominal host speed."""
        return statistics.fmean(REF_S / t for t in self.ref_s)

    @property
    def wall_s(self) -> float:
        return self.main_s * self.scale


class Client:
    """Runs children strictly one after another: ``_child`` blocks on
    ``subprocess.run``, so one child runs at a time by construction."""

    def __init__(self, src: Path):
        self.src = src

    def _child(self, args: list[str], stdin: bytes) -> tuple[dict, bytes]:
        argv = [sys.executable, str(BENCH / "child.py"), str(self.src), *args]
        proc = subprocess.run(
            argv, input=stdin, capture_output=True, cwd=ROOT,
            timeout=REQUEST_TIMEOUT_S,
        )
        head, _, output = proc.stdout.partition(b"\n")
        if proc.returncode != 0 or not head.startswith(b"{"):
            raise RuntimeError(
                f"benchmark child {args} failed with exit {proc.returncode}: "
                + proc.stderr.decode(errors="replace")[-2000:]
            )
        return json.loads(head), output

    def setup_probe(self) -> float:
        """Import time of ``torus_fiber.cli`` in a fresh child, at nominal speed."""
        header, _ = self._child(["0"], b"")
        return header["setup_s"] * REF_S / header["ref_s"][0]

    def run(self, request: corpus.Request, traced: bool) -> Result:
        header, output = self._child(
            ["1" if traced else "0", *request.argv()], request.text.encode())
        return Result(
            request=request, code=header["code"], setup_s=header["setup_s"],
            main_s=header["main_s"], ref_s=header["ref_s"],
            maxrss_kb=header["maxrss_kb"], output=output,
            stderr=header["stderr"], trace=header.get("trace"),
        )


# ---------------------------------------------------------------------------
# correctness gate


def invariants(report: dict) -> dict[str, str]:
    """SHA-256 of the sorted multiset of each ``INVARIANT_KEYS`` field in
    ``report``; hashed because the multisets of one request run to
    megabytes."""
    found: dict[str, list] = {key: [] for key in INVARIANT_KEYS}

    def walk(node):
        if isinstance(node, dict):
            for key, value in node.items():
                if key in found:
                    found[key].append(json.dumps(value))
                walk(value)
        elif isinstance(node, list):
            for item in node:
                walk(item)

    walk(report)
    return {
        key: hashlib.sha256(json.dumps(sorted(values)).encode()).hexdigest()
        for key, values in found.items() if values
    }


class Gate:
    """A request fails on a non-zero exit, on invariants that differ from
    the base corpus, on a digest that differs from the committed one
    (default seed only), or on output that differs from its first pass."""

    def __init__(self, expected: dict, seed: int):
        self.expected = expected
        self.seed = seed
        self.first: dict[str, str] = {}
        self.failures: list[str] = []
        self.failed = 0

    def reasons(self, result: Result) -> list[str]:
        rid = result.request.id
        if result.code != 0:
            last = result.stderr.strip().splitlines()[-1:]
            return [f"exit {result.code}: {' '.join(last)[-300:]}"]
        try:
            report = json.loads(result.output)
        except ValueError:
            return ["output is not JSON"]
        out = []
        want = self.expected[rid]
        got = invariants(report)
        differ = sorted(k for k in got.keys() | want["invariants"].keys()
                        if got.get(k) != want["invariants"].get(k))
        if differ:
            out.append(f"invariants {', '.join(differ)} differ from the base corpus")
        if self.seed == corpus.DEFAULT_SEED and result.digest != want["digest"]:
            out.append("output digest differs from the committed one")
        first = self.first.setdefault(rid, result.digest)
        if result.digest != first:
            out.append("output differs from the first pass")
        return out

    def check(self, result: Result) -> None:
        reasons = self.reasons(result)
        for reason in reasons:
            self.failures.append(f"{result.request.id}: {reason}")
        self.failed += bool(reasons)


# ---------------------------------------------------------------------------
# metrics


def pass_totals(results: list[Result]) -> dict[str, float]:
    return {
        "wall_s": sum(r.wall_s for r in results),
        "raw_wall_s": sum(r.main_s for r in results),
        "peak_rss_mb": max(r.maxrss_kb for r in results) / 1024,
        "output_bytes": sum(len(r.output) for r in results),
    }


def typical_wall(passes: list[list[Result]]) -> float:
    """Pass time built from each request's median over passes.

    The host's speed swings by a quarter within seconds, so a per-request
    median discards a slow stretch without discarding a whole pass.
    """
    return sum(statistics.median(r.wall_s for r in same) for same in zip(*passes))


def end_to_end(passes: list[list[Result]], probes: list[float]) -> dict[str, dict]:
    totals = [pass_totals(p) for p in passes]
    setups = probes + [r.setup_s * REF_S / r.ref_s[0] for p in passes for r in p]
    metrics = {
        "wall_s": (typical_wall(passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(t["peak_rss_mb"] for t in totals), "MB"),
        "output_bytes": (statistics.median(t["output_bytes"] for t in totals), "bytes"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


LAYER_SELF = ("polytope", "exact", "lattice", "simplicial", "mellin",
              "hypergeom", "cyclotomic", "report", "cli", "laurent")
CALLS = {
    "polytope.hull_calls": ("polytope.newton_polytope",),
    "exact.mat_rank_calls": ("exact.mat_rank",),
    "exact.nullspace_calls": ("exact.nullspace",),
    "exact.int_det_calls": ("exact.int_det",),
    "exact.mat_inverse_calls": ("exact.mat_inverse",),
    "lattice.scan_calls": ("lattice.lattice_points", "lattice.interior_lattice_points"),
    "simplicial.build_data_calls": ("simplicial.build_data",),
    "simplicial.linear_forms_calls": ("simplicial.linear_forms",),
    "mellin.skeleton_calls": ("mellin.mellin_skeleton",),
    "hypergeom.series_calls": ("hypergeom.frobenius_series",),
    "cyclotomic.build_calls": ("cyclotomic.CycValue.build",),
    "cyclotomic.reduce_calls": ("cyclotomic.CycValue.reduce",),
    "cyclotomic.mul_calls": ("cyclotomic.CycValue.__mul__",),
}
FUNCTION_SELF = {
    "hypergeom.frobenius_s": "hypergeom.frobenius_series",
    "hypergeom.verify_s": "hypergeom.verify_annihilation",
    "hypergeom.charpoly_s": "hypergeom.characteristic_polynomials",
    "hypergeom.monodromy_s": "hypergeom.monodromy",
    "report.to_json_s": "report.to_json",
}
COUNTERS = ("polytope.hull_distinct", "lattice.box_points", "mellin.sweep_vectors")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(results: list[Result], overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: sums over its requests."""
    layer, function, calls, counters = Counter(), Counter(), Counter(), Counter()
    for r in results:
        layer.update({k: v * r.scale for k, v in r.trace["layer_self_s"].items()})
        function.update({k: v * r.scale for k, v in r.trace["function_self_s"].items()})
        calls.update(r.trace["calls"])
        counters.update(r.trace["counters"])
    out: dict[str, tuple[float, str]] = {}
    for name in LAYER_SELF:
        out[f"{name}.self_s"] = (layer[name], "s")
    for metric, names in CALLS.items():
        out[metric] = (sum(calls[n] for n in names), "count")
    for metric, name in FUNCTION_SELF.items():
        out[metric] = (function[name], "s")
    for name in COUNTERS:
        out[name] = (counters[name], "count")
    out["polytope.hull_distinct_ratio"] = (
        _ratio(counters["polytope.hull_distinct"], out["polytope.hull_calls"][0]), "ratio")
    out["lattice.hit_ratio"] = (
        _ratio(counters["lattice.points_found"], counters["lattice.box_points"]), "ratio")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def traced_metrics(plain: list[list[Result]], traced: list[list[Result]]) -> dict[str, dict]:
    overhead = typical_wall(traced) - typical_wall(plain)
    each = [per_layer(p, overhead) for p in traced]
    return {
        name: {"value": statistics.median(m[name][0] for m in each), "unit": unit}
        for name, (_, unit) in each[0].items()
    }


# ---------------------------------------------------------------------------
# run record


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_record(args, passes: int, traced_passes: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "workload": args.workload,
        "seed": args.seed,
        "passes": passes,
        "traced_passes": traced_passes,
        "traced": bool(args.trace),
        # Each request waits for the previous child to exit (Client._child).
        "client": "closed loop, one child at a time",
    }


# ---------------------------------------------------------------------------


def run_pass(client: Client, gate: Gate, requests, traced: bool) -> list[Result]:
    results = []
    for request in requests:
        result = client.run(request, traced)
        gate.check(result)
        results.append(result)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "torus_fiber" / "cli.py").is_file():
        print(f"no torus_fiber package under {SRC}", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())
    requests = corpus.requests(args.workload, args.seed)
    client = Client(SRC)
    gate = Gate(expected, args.seed)

    plain: list[list[Result]] = []
    traced: list[list[Result]] = []
    probes = [] if args.trace else [client.setup_probe() for _ in range(SETUP_PROBES)]
    # Start another round only while it is expected to end in time.
    start = time.perf_counter()
    elapsed = 0.0
    while not plain or elapsed * (len(plain) + 1) / len(plain) <= args.seconds:
        plain.append(run_pass(client, gate, requests, traced=False))
        if args.trace:
            traced.append(run_pass(client, gate, requests, traced=True))
        elapsed = time.perf_counter() - start

    attempted = sum(len(p) for p in plain + traced)
    failed = gate.failed
    metrics = traced_metrics(plain, traced) if args.trace else end_to_end(plain, probes)

    for line in gate.failures:
        print(f"FAILED {line}")
    for key in ("wall_s", "raw_wall_s"):
        values = ", ".join(f"{pass_totals(p)[key]:.3f}" for p in plain)
        print(f"untraced passes: {len(plain)}, {key} per pass: [{values}]")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if traced:
        uncovered = typical_wall(traced) - sum(
            metrics[f"{name}.self_s"]["value"] for name in LAYER_SELF)
        print(f"traced wall_s = {typical_wall(traced):.6g} s; "
              f"not covered by layer and cli self times: {uncovered:.3g} s")
    print(f"failed_ratio = {failed / attempted:.6g} ratio ({failed}/{attempted} requests)")
    print(json.dumps({"record": run_record(args, len(plain), len(traced))}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
