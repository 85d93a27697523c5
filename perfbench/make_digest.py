"""Regenerate digest.json: canonical exact and symbolic results at the default seed.

    python3 perfbench/make_digest.py

Every result is first checked as in a benchmark run (`checks.check_result`,
and the oracles on round 0); the file is written only if all pass.  Rerun it
only when a change is meant to alter what the library computes.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from workloads import DEFAULT_SEED, generate_round, prepare  # noqa: E402

DIGESTED = ("exact_moments", "symbolic_expansions")
DIGEST_ROUNDS = 24


def main() -> int:
    workdir = os.path.join(HERE, "out", "digest-work")
    os.makedirs(workdir, exist_ok=True)
    out = {"seed": DEFAULT_SEED, "rounds": DIGEST_ROUNDS, "workloads": {}}
    for workload in DIGESTED:
        values = []
        for rnd in range(DIGEST_ROUNDS):
            for q in generate_round(workload, DEFAULT_SEED, rnd):
                prep = prepare(q, workdir)
                result = prep.call()
                problems = checks.check_result(prep, result)
                if not problems and rnd == 0:
                    problems = checks.check_oracle(prep, result)
                if problems:
                    print(f"{workload} query {q['index']}: {problems[0]}", file=sys.stderr)
                    return 1
                values.append(checks.canonical(prep, result))
        out["workloads"][workload] = values
        print(f"{workload}: {len(values)} values", file=sys.stderr)
    with open(os.path.join(HERE, "digest.json"), "w") as fh:
        json.dump(out, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
