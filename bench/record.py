"""Record the correctness gate's reference values into ``expected.json``.

    python3 bench/record.py

Runs every request of every workload once on the base corpus (seed 0)
and stores its report invariants and output digest.  Run it only when a
change is meant to alter the program's output, and say so.
"""

import json
import sys

import corpus
from run import EXPECTED, SRC, Client, invariants


def main() -> int:
    client = Client(SRC)
    expected = {}
    for workload in corpus.WORKLOADS:
        for request in corpus.requests(workload, corpus.DEFAULT_SEED):
            result = client.run(request, traced=False)
            if result.code != 0:
                print(f"{request.id}: exit {result.code}: {result.stderr}", file=sys.stderr)
                return 1
            expected[request.id] = {
                "invariants": invariants(json.loads(result.output)),
                "digest": result.digest,
            }
            print(f"{request.id}: {result.main_s:.2f} s, {len(result.output)} bytes")
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
