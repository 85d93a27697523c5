"""One line per benchmark query of what the library returns, to compare two
checkouts bit for bit.

    python3 tools/result_digest.py --seeds 1 7 11 --rounds 0 1 2 > new.txt
    python3 tools/result_digest.py --root ../parent --seeds 1 7 11 --rounds 0 1 2 > old.txt
    diff old.txt new.txt

For every `exact_moments` and `symbolic_expansions` query of the given seeds
and rounds (generated by `perfbench/workloads.py`, imported read-only), it
prints `workload seed round index template result=<hash> eval_at=<hash>`.
The result hash covers the returned value: exact values by `str`, floats by
`repr`, PolyFracs by their formatted string, dataclasses by the fields that
take part in `==`, CLI stdout and exit code, and the type and text of an
exception such as a `PoleError`.  The eval_at hash
covers the sequence of `PolyFrac.eval_at` calls the query made: each
PolyFrac, its N and what it returned or raised.  For every `monte_carlo`
query it prints `workload seed round index template mean=<repr>
std_error=<repr>`, unhashed, so that a shift in the last digits of an
estimate shows in `diff` (the hashes instead if the query raised).
`--root` picks the checkout whose `src/` and `perfbench/` are imported
(default: this one), so one copy of the script digests both sides.  Queries run in one process, in order, as in a
benchmark run.

The library keeps Weingarten products, relative cumulants and their values
at N on its default `TableSet` across calls, so a query that meets them warm
makes fewer `eval_at` calls than a cold one, with the same result.
`--fresh-tables` resets `expansion._DEFAULT_TABLES` before each query, so
each query starts cold and the eval_at hashes compare across checkouts that
keep different memos.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
import tempfile
from fractions import Fraction

WORKLOADS = ("exact_moments", "symbolic_expansions", "monte_carlo")


def canonical(value) -> str:
    """A text that two equal results share and unequal ones do not."""
    from haargenus.ratpoly import PolyFrac, format_polyfrac
    from haargenus.setpart import YoungDiagram

    if isinstance(value, bool) or value is None:
        return repr(value)
    if isinstance(value, Fraction):
        return f"Q({value})"
    if isinstance(value, float):
        return f"f({value!r})"
    if isinstance(value, (int, str)):
        return repr(value)
    if isinstance(value, PolyFrac):
        return f"P({format_polyfrac(value)})"
    if isinstance(value, BaseException):
        return f"{type(value).__name__}({value})"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{canonical(k)}: {canonical(v)}"
                               for k, v in sorted(value.items(), key=repr)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(canonical, value)) + "]"
    if dataclasses.is_dataclass(value):
        # the fields that take part in ==; an expansion term's premap, `alpha`,
        # is a function of its pairings and is not read
        fields = [f.name for f in dataclasses.fields(value) if f.compare]
        return type(value).__name__ + canonical({f: getattr(value, f) for f in fields})
    if isinstance(value, YoungDiagram):
        return f"Y{value.rows}"
    return repr(value)  # SetPartition and other objects with a value repr


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main(argv=None) -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=here, help="checkout to import (default: this one)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--rounds", type=int, nargs="+", default=[0])
    parser.add_argument("--fresh-tables", action="store_true",
                        help="give each query a fresh default TableSet")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]

    from haargenus import expansion
    from haargenus.ratpoly import PolyFrac
    from workloads import generate_round, prepare

    calls: list[str] = []
    real_eval_at = PolyFrac.eval_at

    def eval_at(self, n0):
        try:
            out = real_eval_at(self, n0)
        except Exception as exc:
            calls.append(f"{canonical(self)}@{n0!r}->{canonical(exc)}")
            raise
        calls.append(f"{canonical(self)}@{n0!r}->{canonical(out)}")
        return out

    PolyFrac.eval_at = eval_at
    with tempfile.TemporaryDirectory() as workdir:
        for workload in WORKLOADS:
            for seed in args.seeds:
                for rnd in args.rounds:
                    for query in generate_round(workload, seed, rnd):
                        if args.fresh_tables:
                            expansion._DEFAULT_TABLES = None
                        prep = prepare(query, workdir)
                        calls.clear()
                        try:
                            result = prep.call()
                        except Exception as exc:  # PoleError and the like are results too
                            result = exc
                        if workload == "monte_carlo" and not isinstance(result, Exception):
                            fields = [f"mean={float(result.mean)!r}",
                                      f"std_error={float(result.std_error)!r}"]
                        else:
                            fields = [f"result={_digest(canonical(result))}",
                                      f"eval_at={_digest(chr(10).join(calls))}"]
                        print(workload, seed, rnd, query["index"], query["template"],
                              *fields, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
