"""Where the time of benchmark rounds goes: wall time per query template and
the functions with the most cProfile self time.

    python3 tools/profile_rounds.py --workload exact_moments --seed 1 --rounds 16
    python3 tools/profile_rounds.py --workload monte_carlo --rounds 4 --top 0
    python3 tools/profile_rounds.py --workload exact_moments --top 0 \
        --template m6-t2-n4-D --template k33-c6-n4-A
    python3 tools/profile_rounds.py --workload exact_moments --rounds 30 --fit

The queries are those of `perfbench/workloads.py` (imported read-only), run
in one process as in a benchmark run: the workload's Weingarten tables are
built first, round 0 runs once as a warm-up, and rounds 1..R are then run
with only `prepare(query).call()` timed and profiled.  `--template NAME`
(repeatable) keeps only the named templates' queries, in the warm-up too;
the others are still generated, so the named ones hold what they hold in a
full round.  The first table gives, per template, the number of calls and
their total and mean wall time; the second, the top K functions by self
time with their call counts.
Wall times include the profiler's overhead unless `--top 0` turns it off.

`--fit` runs without the profiler, times every call in FIT_PASSES passes
over the rounds and keeps each call's least time, which leaves out most
pauses caused by other processes.  It splits the wall time of the library
calls (the CLI-routed queries are left out) by least squares into a fixed
part per kind of call, a part per gluing and a part per new cycle (a
distinct vertex cycle of the call), the counts read by wrapping
`_Gluings.slices` here; it prints per kind the calls, their mean counts,
mean wall time and fixed part, and the share of the library time that the
fixed parts make up.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
import tempfile
import time
from collections import defaultdict

FIT_PASSES = 3  # `--fit` times each call this many times and keeps the least


def _function_name(func: tuple[str, int, str]) -> str:
    path, line, name = func
    if path == "~":  # a builtin
        return name
    return f"{os.path.basename(path)}:{line}({name})"


def _print_fit(calls: list[tuple[str, float, int, int]]) -> None:
    """The least-squares fit of wall time = fixed(kind) + per gluing *
    gluings + per new cycle * new cycles over the library calls."""
    import numpy as np

    kinds = list(dict.fromkeys(kind for kind, *_ in calls))
    design = np.array([[kind == k for k in kinds] + [g, c] for kind, _, g, c in calls], float)
    wall = np.array([s for _, s, _, _ in calls])
    coef = np.linalg.lstsq(design, wall, rcond=None)[0]
    fixed = dict(zip(kinds, coef))
    per_gluing, per_cycle = coef[-2:]
    total_fixed = sum(fixed[kind] for kind, *_ in calls)
    print(f"\nfit over {len(calls)} library calls: wall = fixed(kind) + "
          f"{per_gluing * 1e6:.2f} us per gluing + {per_cycle * 1e6:.2f} us per new cycle")
    print(f"{'kind':<12} {'calls':>6} {'gluings':>9} {'new cycles':>11} {'mean us':>9} "
          f"{'fixed us':>9}")
    for k in kinds:
        rows = [c for c in calls if c[0] == k]
        mean = [sum(r[i] for r in rows) / len(rows) for i in (1, 2, 3)]
        print(f"{k:<12} {len(rows):>6} {mean[1]:>9.1f} {mean[2]:>11.1f} {mean[0] * 1e6:>9.1f} "
              f"{fixed[k] * 1e6:>9.1f}")
    print(f"fixed parts: {total_fixed / len(calls) * 1e6:.1f} us per call, "
          f"{total_fixed / wall.sum():.0%} of the library time")


def main(argv=None) -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact_moments", "symbolic_expansions", "monte_carlo"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=16, help="profiled rounds after the warm-up")
    parser.add_argument("--top", type=int, default=25,
                        help="functions to list by self time (0: no profiler)")
    parser.add_argument("--template", action="append", metavar="NAME",
                        help="time only this template (repeatable; default: all)")
    parser.add_argument("--fit", action="store_true",
                        help="fit the library calls' wall time to fixed, per-gluing and "
                             "per-new-cycle parts (no profiler)")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(here, "src"), os.path.join(here, "perfbench")]

    import haargenus.cli  # noqa: F401  (loaded before timing, as in a benchmark run)
    from haargenus.expansion import _Gluings
    from haargenus.weingarten import weingarten_table
    from workloads import TABLE_SIZES, TEMPLATES, generate_round, prepare

    names = [t.name for t in TEMPLATES[args.workload]]
    unknown = sorted(set(args.template or ()) - set(names))
    if unknown:
        parser.error(f"no template {', '.join(unknown)} in {args.workload}; "
                     f"its templates are {', '.join(names)}")
    wanted = set(args.template or names)

    def queries(rnd: int) -> list[dict]:
        return [q for q in generate_round(args.workload, args.seed, rnd)
                if q["template"] in wanted]

    for n in TABLE_SIZES[args.workload]:
        weingarten_table(n)
    profiler = cProfile.Profile() if args.top > 0 and not args.fit else None
    seconds: dict[str, list[float]] = defaultdict(list)
    counts = [0, 0]  # gluings and new cycles of the running call
    calls = []  # per library call: (kind, seconds, gluings, new cycles)
    slices = _Gluings.slices

    def counted_slices(self):
        for rows, fresh in slices(self):
            counts[0] += len(rows)
            counts[1] += len(fresh)
            yield rows, fresh

    if args.fit:
        _Gluings.slices = counted_slices
    best: dict[int, tuple] = {}  # query index -> (query, least seconds, counts)
    with tempfile.TemporaryDirectory() as workdir:
        for query in queries(0):
            prepare(query, workdir).call()
        for _ in range(FIT_PASSES if args.fit else 1):
            for rnd in range(1, args.rounds + 1):
                for query in queries(rnd):
                    call = prepare(query, workdir).call
                    counts[:] = [0, 0]
                    start = time.perf_counter()
                    if profiler is None:
                        call()
                    else:
                        profiler.runcall(call)
                    elapsed = time.perf_counter() - start
                    if query["index"] not in best or elapsed < best[query["index"]][1]:
                        best[query["index"]] = (query, elapsed, tuple(counts))
    for query, elapsed, (gluings, cycles) in best.values():
        seconds[query["template"]].append(elapsed)
        if query["route"] == "lib":
            calls.append((query["kind"], elapsed, gluings, cycles))

    total = sum(map(sum, seconds.values()))
    print(f"{args.workload} seed {args.seed}, rounds 1..{args.rounds}: "
          f"{total * 1e3:.1f} ms in all, {total / args.rounds * 1e3:.2f} ms per round"
          + ("" if profiler is None else " (under the profiler)"))
    print(f"{'template':<16} {'calls':>6} {'total ms':>10} {'mean ms':>9}")
    for name, times in seconds.items():
        print(f"{name:<16} {len(times):>6} {sum(times) * 1e3:>10.2f} "
              f"{sum(times) / len(times) * 1e3:>9.3f}")
    if args.fit:
        _print_fit(calls)
    if profiler is not None:
        stats = pstats.Stats(profiler).stats
        rows = sorted(stats.items(), key=lambda kv: kv[1][2], reverse=True)[:args.top]
        print(f"\n{'self ms':>9} {'cum ms':>9} {'calls':>9}  function")
        for func, (_, calls, self_s, cum_s, _) in rows:
            print(f"{self_s * 1e3:>9.2f} {cum_s * 1e3:>9.2f} {calls:>9}  {_function_name(func)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
