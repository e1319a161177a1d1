"""Span recording around the public functions of each ``torus_fiber`` layer.

The tracer wraps module-level public functions from the benchmark's side,
so the package itself is untouched.  Each call becomes a span
``[name, start, end, parent]`` held in memory; the spans of one request
are aggregated when the request ends.  A layer is the module a function
lives in, and ``CycValue`` methods form the ``cyclotomic`` layer.
"""

from __future__ import annotations

import bisect
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "laurent", "polytope", "exact", "lattice", "simplicial", "mellin",
    "hypergeom", "report",
)

# Helpers called hundreds of thousands of times for a few microseconds
# each: wrapping them would measure the wrapper, not the layer.
SKIP = {
    "exact": {"vec_add", "vec_sub", "vec_scale", "dot", "mat_vec", "identity", "transpose"},
    "report": {"frac", "fracs", "complex_pair"},
}

ROOT = "cli.main"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.hulls: set = set()

    def wrap(self, name, func, hook=None):
        spans, stack, clock = self.spans, self.stack, self.clock

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1]]
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced


# ---------------------------------------------------------------------------
# counts recorded by the wrappers


def _count_hull(tracer, args, kwargs, result):
    points = args[0] if args else kwargs["points"]
    tracer.hulls.add(tuple(sorted(set(tuple(p) for p in points))))


def _count_scan(tracer, args, kwargs, result):
    poly = args[0]
    k = args[1] if len(args) > 1 else kwargs.get("k", 1)
    size = 1
    for coords in zip(*poly.vertices):
        size *= k * max(coords) - k * min(coords) + 1
    tracer.counters["lattice.box_points"] += size
    tracer.counters["lattice.points_found"] += len(result)


def _count_sweep(tracer, args, kwargs, result):
    tracer.counters["mellin.sweep_vectors"] += len(result)


HOOKS = {
    "polytope.newton_polytope": _count_hull,
    "lattice.lattice_points": _count_scan,
    "lattice.interior_lattice_points": _count_scan,
    "mellin.sweep_domain": _count_sweep,
}


# ---------------------------------------------------------------------------
# installation


def _public_functions(module, layer):
    for name, obj in vars(module).items():
        if name.startswith("_") or name in SKIP.get(layer, ()):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield name, obj


def install(tracer: Tracer) -> int:
    """Route every public layer function and ``CycValue`` method through
    ``tracer``; returns how many functions were wrapped."""
    package = "torus_fiber"
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{package}.{layer}")
        for name, func in _public_functions(module, layer):
            span = f"{layer}.{name}"
            wrappers[id(func)] = (func, tracer.wrap(span, func, HOOKS.get(span)))

    # ``from .x import f`` made copies of the binding in other modules.
    for mod_name, module in list(sys.modules.items()):
        if mod_name != package and not mod_name.startswith(package + "."):
            continue
        for name, obj in list(vars(module).items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(module, name, entry[1])

    cyclotomic = importlib.import_module(f"{package}.cyclotomic")
    cls = cyclotomic.CycValue
    source = inspect.getsourcefile(cyclotomic)
    methods = {}
    for name, attr in list(vars(cls).items()):
        is_class = isinstance(attr, classmethod)
        func = attr.__func__ if is_class else attr
        if not inspect.isfunction(func) or func.__code__.co_filename != source:
            continue  # properties and dataclass-generated methods
        if id(func) not in methods:  # __radd__ = __add__ share one span name
            methods[id(func)] = tracer.wrap(f"cyclotomic.CycValue.{func.__name__}", func)
        wrapped = methods[id(func)]
        setattr(cls, name, classmethod(wrapped) if is_class else wrapped)
    return len(wrappers) + len(methods)


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans, samples=()) -> list[float]:
    """Each span's duration minus the time covered by its direct children
    and by the host-speed ``samples`` taken inside it.

    Spans come from one thread, so the children of a span never overlap
    and the covered time is the sum of their durations.  ``samples`` are
    ``(start, end)`` intervals kept outside the span tree; each is charged
    to the innermost span whose interval contains it.  Spans are stored in
    call order, so that span is the latest one started before the sample
    or one of its ancestors.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    starts = [span[1] for span in spans]
    for start, end in samples:
        index = bisect.bisect_right(starts, start) - 1
        while index >= 0 and spans[index][2] < end:
            index = spans[index][3]
        if index >= 0:
            covered[index] += end - start
    return [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(tracer: Tracer, samples=()) -> dict:
    """Per-layer and per-function self time, call counts and counters;
    the time of ``samples`` (see ``self_times``) is left out of all of them."""
    by_function: dict[str, float] = defaultdict(float)
    for (name, *_), own in zip(tracer.spans, self_times(tracer.spans, samples)):
        by_function[name] += own
    by_layer: dict[str, float] = defaultdict(float)
    for name, own in by_function.items():
        by_layer[layer_of(name)] += own
    roots = [(start, end) for _, start, end, parent in tracer.spans if parent < 0]
    total = sum(end - start for start, end in roots) - sum(
        end - start for start, end in samples
        if any(s <= start and end <= e for s, e in roots))
    counters = dict(tracer.counters)
    counters["polytope.hull_distinct"] = len(tracer.hulls)
    return {
        "total_s": total,
        "layer_self_s": dict(by_layer),
        "function_self_s": dict(by_function),
        "calls": dict(Counter(name for name, *_ in tracer.spans)),
        "counters": counters,
        "spans": len(tracer.spans),
    }
