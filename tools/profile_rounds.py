"""Where the time of benchmark rounds goes: wall time per query template and
the functions with the most cProfile self time.

    python3 tools/profile_rounds.py --workload exact_moments --seed 1 --rounds 16
    python3 tools/profile_rounds.py --workload monte_carlo --rounds 4 --top 0
    python3 tools/profile_rounds.py --workload exact_moments --top 0 \
        --template m6-t2-n4-D --template k33-c6-n4-A

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


def _function_name(func: tuple[str, int, str]) -> str:
    path, line, name = func
    if path == "~":  # a builtin
        return name
    return f"{os.path.basename(path)}:{line}({name})"


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
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(here, "src"), os.path.join(here, "perfbench")]

    import haargenus.cli  # noqa: F401  (loaded before timing, as in a benchmark run)
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
    profiler = cProfile.Profile() if args.top > 0 else None
    seconds: dict[str, list[float]] = defaultdict(list)
    with tempfile.TemporaryDirectory() as workdir:
        for query in queries(0):
            prepare(query, workdir).call()
        for rnd in range(1, args.rounds + 1):
            for query in queries(rnd):
                call = prepare(query, workdir).call
                start = time.perf_counter()
                if profiler is None:
                    call()
                else:
                    profiler.runcall(call)
                seconds[query["template"]].append(time.perf_counter() - start)

    total = sum(map(sum, seconds.values()))
    print(f"{args.workload} seed {args.seed}, rounds 1..{args.rounds}: "
          f"{total * 1e3:.1f} ms in all, {total / args.rounds * 1e3:.2f} ms per round"
          + ("" if profiler is None else " (under the profiler)"))
    print(f"{'template':<16} {'calls':>6} {'total ms':>10} {'mean ms':>9}")
    for name, times in seconds.items():
        print(f"{name:<16} {len(times):>6} {sum(times) * 1e3:>10.2f} "
              f"{sum(times) / len(times) * 1e3:>9.3f}")
    if profiler is not None:
        stats = pstats.Stats(profiler).stats
        rows = sorted(stats.items(), key=lambda kv: kv[1][2], reverse=True)[:args.top]
        print(f"\n{'self ms':>9} {'cum ms':>9} {'calls':>9}  function")
        for func, (_, calls, self_s, cum_s, _) in rows:
            print(f"{self_s * 1e3:>9.2f} {cum_s * 1e3:>9.2f} {calls:>9}  {_function_name(func)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
