"""Benchmark corpus: base requests per workload and the seeded input transform.

Every request is a ``torus-fiber`` subcommand on one polynomial. The
seed draws, per request, a unimodular change of exponent coordinates
(a signed permutation times at most one +-1 shear) and a new term order.
``--sigma`` ordinals and ``--J`` vectors are carried along, auxiliary
coordinates included, so the transformed request asks the same
mathematical question.  Seed 0 is the identity: the base corpus as
written.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import combinations

DEFAULT_SEED = 0

T7 = "x1 + x2 + x3 + x1*x2*x3 + x1^-1 + x2^-1 + x3^-1"
GOLDEN = "x1^5 + x1^2*x2 + x1*x2^2 + x2^4"


def ladder(e: int) -> str:
    return f"x1^{e} + x2^{e} + x1^-1*x2^-1"


@dataclass(frozen=True)
class Request:
    """One CLI call: ``torus-fiber <command> - [--sigma N] [--J=v]...``."""

    id: str
    command: str
    text: str
    sigma: int | None = None
    vectors: tuple[tuple[int, ...], ...] = ()

    def argv(self) -> list[str]:
        args = [self.command, "-"]
        if self.sigma is not None:
            args += ["--sigma", str(self.sigma)]
        args += ["--J=" + ",".join(str(x) for x in v) for v in self.vectors]
        return args


WORKLOADS: dict[str, tuple[Request, ...]] = {
    "geometry": (
        Request("analyze-t7", "analyze", T7),
        Request("check-t7", "check", T7),
        Request("analyze-t5a", "analyze", "x1 + x2 + x3 + x1*x2*x3 + x1^-1*x2^-1*x3^-1"),
        Request("analyze-t5b", "analyze", "x1 + x2 + x3 + x1^-1*x2^-1 + x3^-1"),
        Request("analyze-t4", "analyze", "x1 + x2 + x3 + x1^-1*x2^-1*x3^-1"),
    ),
    "series": tuple(Request(f"analyze-e{e}", "analyze", ladder(e)) for e in (2, 3, 4)),
    "monodromy": (
        Request("monodromy-golden-s3", "monodromy", GOLDEN, 3, ((1, 2, 1),)),
        Request("monodromy-golden-s2", "monodromy", GOLDEN, 2, ((2, 1, 1),)),
        Request(
            "monodromy-e3", "monodromy", ladder(3), None,
            ((1, 1), (0, 1), (2, 1), (1, 2), (0, 3)),
        ),
        Request("monodromy-e2", "monodromy", ladder(2), None, ((1, 3), (-2, -2), (4, 0))),
        Request("mellin-golden", "mellin", GOLDEN, 3, ((1, 2, 1),)),
        Request("hodge-golden", "hodge", GOLDEN, 3, ((1, 2, 1),)),
        Request("sigma-golden", "sigma", GOLDEN),
        Request("check-golden", "check", GOLDEN),
        Request("polytope-golden", "polytope", GOLDEN),
    ),
}


# ---------------------------------------------------------------------------
# polynomial text <-> exponent rows

_TERM = re.compile(r"^x(\d+)(?:\^(-?\d+))?$")


def parse_support(text: str) -> list[tuple[int, ...]]:
    """Exponent rows of a unit-coefficient sum of ``x<i>^<e>`` products."""
    rows = []
    for term in text.split("+"):
        powers: dict[int, int] = {}
        for factor in term.strip().split("*"):
            m = _TERM.match(factor.strip())
            if m is None:
                raise ValueError(f"unsupported factor {factor!r} in {text!r}")
            i = int(m.group(1))
            powers[i] = powers.get(i, 0) + int(m.group(2) or 1)
        rows.append(powers)
    n = max(i for p in rows for i in p)
    return [tuple(p.get(i, 0) for i in range(1, n + 1)) for p in rows]


def format_support(rows) -> str:
    terms = []
    for row in rows:
        factors = [
            f"x{i}" if e == 1 else f"x{i}^{e}"
            for i, e in enumerate(row, start=1) if e
        ]
        terms.append("*".join(factors))
    return " + ".join(terms)


# ---------------------------------------------------------------------------
# the seeded transform


def _mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def unimodular(rng: random.Random, n: int) -> tuple[tuple[int, ...], ...]:
    """A signed permutation matrix times at most one elementary +-1 shear."""
    perm = list(range(n))
    rng.shuffle(perm)
    a = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        a[i][j] = rng.choice((1, -1))
    if rng.random() < 0.5:
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    return tuple(tuple(row) for row in a)


def _ordinal(positions, m: int, k: int) -> int:
    return list(combinations(range(m), k)).index(tuple(positions)) + 1


def transform(request: Request, seed: int) -> Request:
    """The request with its input moved by the transform the seed draws."""
    if seed == DEFAULT_SEED:
        return request
    rng = random.Random(f"{seed}:{request.id}")
    rows = parse_support(request.text)
    m, n = len(rows), len(rows[0])
    n_aux = m - n - 1
    a = unimodular(rng, n)
    order = list(range(m))  # new term i is base term order[i]
    rng.shuffle(order)
    where = {base: new for new, base in enumerate(order)}
    text = format_support(_mat_vec(a, rows[i]) for i in order)

    base_positions = list(combinations(range(m), n_aux))
    if request.sigma is not None:
        base_positions = [base_positions[request.sigma - 1]]
    sigma = request.sigma
    vectors = request.vectors
    if base_positions and (sigma is not None or len(base_positions) == 1):
        positions = base_positions[0]
        moved = sorted(where[p] for p in positions)
        if sigma is not None:
            sigma = _ordinal(moved, m, n_aux)
        # auxiliary coordinate j belongs to base term positions[j]; after the
        # move it is coordinate moved.index(where[positions[j]])
        new_vectors = []
        for v in vectors:
            base, aux = v[:n], v[n:]
            new_aux = [0] * n_aux
            for j, p in enumerate(positions):
                new_aux[moved.index(where[p])] = aux[j]
            new_vectors.append(_mat_vec(a, base) + tuple(new_aux))
        vectors = tuple(new_vectors)
    elif vectors:
        raise ValueError(f"{request.id}: vectors need a single choice to map")
    return Request(request.id, request.command, text, sigma, vectors)


def requests(workload: str, seed: int) -> tuple[Request, ...]:
    return tuple(transform(r, seed) for r in WORKLOADS[workload])
