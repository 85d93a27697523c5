"""One benchmark process: the closed loop, or a fixed (optionally traced) list.

Started by `run.py` in a fresh interpreter with the library's `src` on
`PYTHONPATH` and BLAS pinned to one thread.  Prints one JSON object.

    worker.py loop  --workload W --seed S --seconds T
    worker.py fixed --workload W --seed S --rounds R [--traced --spans PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time

from calibrate import REFERENCE_S, reference_seconds

HERE = os.path.dirname(os.path.abspath(__file__))


def _problems(check, *args) -> list[str]:
    try:
        return check(*args)
    except Exception as exc:  # a check that cannot run is a failure
        return [f"check raised {type(exc).__name__}: {exc}"]


def run_queries(workload: str, seed: int, stop, tracer=None) -> dict:
    """Run rounds of queries until `stop(busy_seconds, rounds_done)` is true.

    Only the query calls are timed.  The calibration loop runs before each
    query and after the last.  Each result is checked right after its query
    and then dropped, so memory holds one result at a time; round 0 results
    are kept for the oracle checks at the end."""
    import haargenus.cli  # noqa: F401  (loaded before timing, as in set-up)
    if tracer is not None:
        tracer.install()
    from haargenus.weingarten import weingarten_table

    import checks
    from workloads import DEFAULT_SEED, TABLE_SIZES, generate_round, prepare

    for n in TABLE_SIZES[workload]:
        weingarten_table(n)
    digest = []
    if seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "digest.json")) as fh:
            digest = json.load(fh)["workloads"].get(workload, [])
    untraced = tracer.paused if tracer is not None else contextlib.nullcontext
    workdir = os.path.join(HERE, "out", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    durations, refs = [], []  # refs: calibration loop, before each query and at the end
    problems: dict[int, str] = {}
    kept = []  # round 0 (prepared, result) pairs for the oracles
    digest_checked = samples = rounds = 0
    try:
        while not stop(sum(durations), rounds):
            for prep in [prepare(q, workdir) for q in generate_round(workload, seed, rounds)]:
                q = prep.query
                refs.append(reference_seconds())
                if tracer is not None:
                    tracer.start_query(q["index"])
                t0 = time.perf_counter()
                try:
                    result = prep.call()
                except Exception as exc:  # a failed query counts against error_rate
                    result = exc
                durations.append(time.perf_counter() - t0)
                samples += q.get("samples", 0)
                if isinstance(result, Exception):
                    problems[q["index"]] = f"{q['template']} raised {type(result).__name__}: {result}"
                    continue
                with untraced():
                    found = _problems(checks.check_result, prep, result)
                    if not found and q["index"] < len(digest):
                        digest_checked += 1
                        found = _problems(checks.check_digest, prep, result,
                                          digest[q["index"]])
                if found:
                    problems[q["index"]] = f"{q['template']}: {found[0]}"
                elif q["round"] == 0:
                    kept.append((prep, result))
            rounds += 1
        refs.append(reference_seconds())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        layer = None
        if tracer is not None:
            tracer.uninstall()
            layer = tracer.metrics()
        for prep, result in kept:
            found = _problems(checks.check_oracle, prep, result)
            if found:
                problems[prep.query["index"]] = f"{prep.query['template']}: {found[0]}"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    nominal = [dt * 2 * REFERENCE_S / (refs[i] + refs[i + 1]) for i, dt in enumerate(durations)]
    return {
        "attempted": len(durations),
        "failed": len(problems),
        "problems": [f"query {i}: {p}" for i, p in sorted(problems.items())][:20],
        "durations": durations,
        "nominal": nominal,
        "busy_s": sum(durations),
        "rounds": rounds,
        "samples": samples,
        "digest_checked": digest_checked,
        "peak_rss_mb": peak_rss_mb,
        "layer": layer,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("loop", "fixed"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    if args.mode == "loop":
        wall0 = time.perf_counter()
        guard = 2 * args.seconds + 30  # a much slower machine still ends in time

        def stop(busy, rounds):
            return busy >= args.seconds or time.perf_counter() - wall0 > guard

        out = run_queries(args.workload, args.seed, stop)
    else:
        tracer = None
        if args.traced:
            from tracer import Tracer
            tracer = Tracer()
        out = run_queries(args.workload, args.seed,
                          lambda busy, rounds: rounds >= args.rounds, tracer)
        if tracer is not None and args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
