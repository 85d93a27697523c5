"""Wall time and peak RSS of evaluations beyond the benchmark's sizes.

    python3 tools/scale_points.py
    python3 tools/scale_points.py --root ../parent --point moment10

Every point is one colour with eps alternating +, -, each position its own
slot, and two traces, tr(X1 ... Xk) tr(Xk+1 ... X2k):

    moment8       8 positions, exact `evaluate_moment` at N = 4 (11,025 gluings)
    asymptotic10  10 positions, `asymptotic_moment` (893,025 gluings)
    moment10      10 positions, exact `evaluate_moment` at N = 8 (893,025 gluings)

The 10-position points raise `term_cap` to 10**6.  The matrices are seeded
Fractions with entries in -4..4 over 1..3.  Each point runs in a fresh
interpreter, one after another, and prints its name, the wall time of the
call alone (import and matrices excluded), the process's peak RSS
(`ru_maxrss`) and a hash of the result's text, so two checkouts' values
compare.  `--root` picks the checkout whose `src/` is imported (default:
this one).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction

POINTS = {"moment8": (8, 4), "asymptotic10": (10, None), "moment10": (10, 8)}


def _run_point(name: str) -> dict:
    from haargenus.expansion import TraceExpression, asymptotic_moment, evaluate_moment
    from haargenus.matrixlab import DenseMatrix

    size, n = POINTS[name]
    ks = range(1, size + 1)
    expr = TraceExpression([ks[:size // 2], ks[size // 2:]],
                           {k: 1 if k % 2 else -1 for k in ks}, {k: 1 for k in ks},
                           {k: k for k in ks})
    cap = 10**6
    if n is None:
        start = time.perf_counter()
        result = asymptotic_moment(expr, term_cap=cap).to_json()
    else:
        rng = random.Random(size)
        matrices = {k: DenseMatrix([[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                     for _ in range(n)] for _ in range(n)]) for k in ks}
        start = time.perf_counter()
        result = str(evaluate_moment(expr, matrices, n, term_cap=cap).value)
    wall = time.perf_counter() - start
    text = json.dumps(result, sort_keys=True)
    return {"point": name, "wall_s": round(wall, 3),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "result": hashlib.sha256(text.encode()).hexdigest()[:16]}


def main(argv=None) -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=here, help="checkout to import (default: this one)")
    parser.add_argument("--point", choices=list(POINTS), action="append",
                        help="run only this point (repeatable; default: all)")
    parser.add_argument("--child", choices=list(POINTS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_run_point(args.child)))
        return 0
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(args.root), "src")}
    for name in args.point or POINTS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", name],
                              env=env, capture_output=True, text=True)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        row = json.loads(proc.stdout)
        print(f"{row['point']:<13} {row['wall_s']:>9.3f} s {row['peak_rss_mb']:>9.1f} MB "
              f"result={row['result']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
