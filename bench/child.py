"""Run one ``torus-fiber`` request in this fresh interpreter and time it.

    python3 bench/child.py SRC TRACE CLI-ARGS... < input-text

SRC is the directory holding the ``torus_fiber`` package and TRACE is
``0`` or ``1``.  Without CLI-ARGS the child only imports the package and
reports its import time.  The polynomial text arrives on stdin, which the CLI
reads as its ``-`` input.  Writes one JSON header line, then the report
exactly as the CLI rendered it.  The header holds the import time of
``torus_fiber.cli``, the time from calling ``cli.main`` to its return,
the reference-kernel times taken before, during and after ``main``,
the exit code, captured stderr, ``ru_maxrss`` and, with TRACE 1, the
per-layer trace summary.
"""

import sys
import time


def reference_kernel() -> float:
    """Seconds for a fixed piece of pure-Python exact arithmetic.

    The host's speed drifts by tens of percent within a minute; timing
    this kernel next to each request measures that speed.  It runs with
    the garbage collector off, so the size of the heap ``main`` leaves
    behind does not change its time.
    """
    import gc
    from fractions import Fraction

    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        table = {}
        for i in range(1, 3000):
            acc += Fraction(i % 7 + 1, i % 11 + 1)
            table[(i, i % 5)] = tuple(range(i % 9))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def host_speed() -> float:
    return min(reference_kernel() for _ in range(3))


class SpeedSampler:
    """Measures host speed every ``interval`` seconds while a request
    runs, from a SIGALRM handler between bytecodes.

    ``intervals`` holds the ``(start, end)`` of each sample, so that a
    tracer can leave their time out of the interrupted layer, and
    ``paused`` is their total, which the caller subtracts from the
    request's time.
    """

    def __init__(self, interval: float = 0.5):
        self.interval = interval
        self.samples: list[float] = []
        self.intervals: list[tuple[float, float]] = []
        self.paused = 0.0

    def _sample(self):
        import signal

        start = time.perf_counter()
        self.samples.append(host_speed())
        end = time.perf_counter()
        self.intervals.append((start, end))
        self.paused += end - start
        # One-shot timer, re-armed after the sample, so samples never nest.
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def __enter__(self):
        import signal

        self._previous = signal.signal(signal.SIGALRM, lambda *_: self._sample())
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        return self

    def __exit__(self, *exc):
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def main() -> int:
    src, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]

    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import torus_fiber.cli as cli
    setup_s = time.perf_counter() - t0

    import io
    import json
    import resource
    from pathlib import Path

    src_dir = Path(src).resolve()
    if src_dir not in Path(cli.__file__).resolve().parents:
        print(f"torus_fiber was imported from {cli.__file__}, not {src_dir}", file=sys.stderr)
        return 2

    if not argv:
        print(json.dumps({"setup_s": setup_s, "ref_s": [host_speed()]}))
        return 0

    run_main = cli.main
    tracer = None
    sampler = SpeedSampler()
    if trace:
        from spans import ROOT, Tracer, install, summarize

        tracer = Tracer()
        install(tracer)
        run_main = tracer.wrap(ROOT, cli.main)

    ref_before = host_speed()
    real_stdout, real_stderr = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        with sampler:
            t1 = time.perf_counter()
            try:
                code = run_main(argv)
            except Exception:  # a crash is a failed request, not a failed benchmark
                import traceback

                traceback.print_exc()
                code = -1
            main_s = time.perf_counter() - t1 - sampler.paused
    finally:
        report, errors = sys.stdout.getvalue(), sys.stderr.getvalue()
        sys.stdout, sys.stderr = real_stdout, real_stderr
    ref_after = host_speed()

    header = {
        "code": code,
        "setup_s": setup_s,
        "main_s": main_s,
        "ref_s": [ref_before, *sampler.samples, ref_after],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stderr": errors[-2000:],
    }
    if tracer is not None:
        header["trace"] = summarize(tracer, sampler.intervals)
    real_stdout.write(json.dumps(header) + "\n")
    real_stdout.write(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
