"""Self-test of the benchmark's determinism.

    python3 perfbench/selftest.py

1. The same seed gives an identical query list and identical query counts.
2. A different seed gives a different query list.
3. Two traced runs of the same list give identical per-layer counts.

Exits 0 when all three hold for every workload.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import WORKLOADS, _worker  # noqa: E402
from workloads import DEFAULT_SEED, generate_round  # noqa: E402

ROUNDS = 3
BUDGET_S = 600.0


def query_list(workload: str, seed: int) -> str:
    return json.dumps([generate_round(workload, seed, r) for r in range(ROUNDS)],
                      sort_keys=True)


def traced_counts(workload: str, seed: int, deadline: float) -> dict:
    out = _worker(["fixed", "--workload", workload, "--seed", str(seed),
                   "--rounds", "1", "--traced"], deadline)
    if out["failed"]:
        raise AssertionError(f"{workload}: {out['problems']}")
    counts = {k: v for k, v in out["layer"].items() if not k.endswith("_s")}
    counts["queries"] = out["attempted"]
    return counts


def main() -> int:
    deadline = time.monotonic() + BUDGET_S
    failures = []
    other = DEFAULT_SEED + 1
    for workload in WORKLOADS:
        same = query_list(workload, other) == query_list(workload, other)
        differs = query_list(workload, DEFAULT_SEED) != query_list(workload, other)
        first = traced_counts(workload, other, deadline)
        second = traced_counts(workload, other, deadline)
        for name, ok in (("same seed, same query list", same),
                         ("different seed, different query list", differs),
                         ("two traced runs, identical counts", first == second)):
            print(f"{'ok  ' if ok else 'FAIL'} {workload}: {name}")
            if not ok:
                failures.append((workload, name))
        print(f"     {workload}: {json.dumps(first, sort_keys=True)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
