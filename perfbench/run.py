"""haargenus benchmark: three seeded closed-loop workloads, one client each.

    python3 perfbench/run.py --workload exact_moments --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/`.  Every measuring process is a fresh interpreter started here with
BLAS pinned to one thread, so `workers=2` Monte Carlo queries use at most two
threads.

--trace 0 measures the end-to-end metrics: set-up time (median of several
fresh interpreters), then one process that sends each query after the
previous one returns, in whole rounds until the query time reaches
--seconds.  Times are reported at the host's nominal speed (see
calibrate.py); the raw wall-clock figures are printed as `raw_*` lines.  --trace 1 runs a fixed list of rounds twice, untraced and
traced, in fresh processes, and reports per-layer counts and self times plus
the tracing overhead.  Every result is checked after the timed region; the
last line printed is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import TABLE_SIZES, TEMPLATES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 11
TRACED_ROUNDS = 2
BUDGET_S = 170.0  # the whole run, set-up and checks included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _worker(args: list[str], deadline: float, script: str = "worker.py") -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, script), *args],
                              cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[:3]} exceeded the time budget") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {args[:3]} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(workload: str, seed: int, seconds: int, deadline: float):
    setup_args = [str(size) for size in TABLE_SIZES[workload]]
    if any(t.route == "cli" for t in TEMPLATES[workload]):
        setup_args.append("--cli")
    _worker(setup_args, deadline, "setup_time.py")  # compiles bytecode; not measured
    setups = [_worker(setup_args, deadline, "setup_time.py") for _ in range(SETUP_REPEATS)]
    run = _worker(["loop", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds)], deadline)
    nominal, raw = run["nominal"], run["durations"]
    metrics = {
        "queries_per_s": _metric(len(nominal) / sum(nominal), "1/s"),
        "query_p50_s": _metric(statistics.median(nominal), "s"),
        "query_p90_s": _metric(_p90(nominal), "s"),
        "setup_s": _metric(statistics.median(s["nominal_s"] for s in setups), "s"),
        "peak_rss_mb": _metric(run["peak_rss_mb"], "MB"),
    }
    extra = {
        "error_rate": _metric(run["failed"] / max(run["attempted"], 1), "ratio"),
        "query_p90_samples": _metric(len(nominal), "count"),
        "rounds": _metric(run["rounds"], "count"),
        "digest_checked": _metric(run["digest_checked"], "count"),
    }
    if workload == "monte_carlo":
        extra["samples_per_s"] = _metric(run["samples"] / sum(nominal), "1/s")
        extra["raw_samples_per_s"] = _metric(run["samples"] / run["busy_s"], "1/s")
    extra.update({
        "raw_queries_per_s": _metric(len(raw) / run["busy_s"], "1/s"),
        "raw_query_p50_s": _metric(statistics.median(raw), "s"),
        "raw_query_p90_s": _metric(_p90(raw), "s"),
        "raw_setup_s": _metric(statistics.median(s["setup_s"] for s in setups), "s"),
    })
    return run, metrics, extra


def per_layer(workload: str, seed: int, deadline: float):
    common = ["--workload", workload, "--seed", str(seed), "--rounds", str(TRACED_ROUNDS)]
    plain = _worker(["fixed", *common], deadline)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    spans = os.path.join(HERE, "out", f"spans-{workload}-seed{seed}.jsonl.gz")
    traced = _worker(["fixed", *common, "--traced", "--spans", spans], deadline)
    if plain["attempted"] != traced["attempted"]:
        raise BenchError("traced and untraced runs executed different query lists")
    metrics = {}
    for name, value in traced["layer"].items():
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = _metric(value, unit)
    metrics["trace_overhead_s"] = _metric(sum(traced["nominal"]) - sum(plain["nominal"]), "s")
    run = {"attempted": traced["attempted"],
           "failed": traced["failed"] + plain["failed"],
           "problems": traced["problems"] + plain["problems"]}
    return run, metrics, {"spans_file": _metric(os.path.relpath(spans, ROOT), "path")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "haargenus", "__init__.py")):
        print(f"no haargenus sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    try:
        if args.trace:
            run, metrics, extra = per_layer(args.workload, args.seed, deadline)
        else:
            run, metrics, extra = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for problem in run["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, m in {**metrics, **extra}.items():
        value = m["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{args.workload} {name} = {shown} {m['unit']}")
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
