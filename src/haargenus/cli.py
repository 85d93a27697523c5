"""Command-line surface: Weingarten tables, expansions, moment and cumulant
evaluation, and verification suites, all with canonical JSON output.

Exit codes: 0 ok, 2 validation error, 3 cap exceeded, 4 pole, 5 verification
failure.  Reports are emitted with sorted keys and stable float formatting so
identical configurations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from fractions import Fraction

from . import __version__
from .errors import CapExceededError, PoleError, ValidationError, VerificationFailure
from .expansion import (TraceExpression, asymptotic_moment, default_tables, evaluate_moment,
                        expand_moment, trace_cumulant)
from .matrixlab import DenseMatrix, RNG_NAME, check_dimension
from .ratpoly import format_polyfrac
from .setpart import YoungDiagram
from .verify import mc_suite, noncross_suite, oracle_suite
from .weingarten import TableSet, WG_CAP, weingarten_table, write_golden

_FLOAT_FORMAT = ".17g"


def _canonical(obj):
    if isinstance(obj, float):
        return float(format(obj, _FLOAT_FORMAT))
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def emit(report: dict, out: str | None) -> None:
    try:  # strict JSON: a value that is not finite is an error, and nothing is written
        text = json.dumps(_canonical(report), sort_keys=True, indent=1, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValidationError(f"the report holds a value that is not finite ({exc})") from exc
    if out:
        with _output(out, "--out"), open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _metadata(args) -> dict:
    # the worker count is an execution detail and must not change the report
    meta = {"version": __version__, "command": args.command, "generator": RNG_NAME}
    for key in ("seed", "samples", "N", "cap", "cap_terms", "mode"):
        if hasattr(args, key) and getattr(args, key) is not None:
            meta[key] = getattr(args, key)
    return meta


@contextlib.contextmanager
def _input(path: str, field: str):
    """Report an unreadable input file, or a missing or malformed part of it, as
    a validation error naming the file and the part."""
    try:
        yield
    except KeyError as exc:
        raise ValidationError(f"{path}: {field} lacks the field {exc.args[0]!r}") from exc
    except (OSError, AttributeError, TypeError, ValueError, ZeroDivisionError,
            OverflowError) as exc:
        raise ValidationError(f"{path}: bad {field}: {exc}") from exc


@contextlib.contextmanager
def _output(path: str, option: str):
    """Report a path that cannot be written as a validation error naming the
    option and the path."""
    try:
        yield
    except OSError as exc:
        raise ValidationError(f"{option} {path}: cannot write: {exc}") from exc


def _read_json(path: str):
    with _input(path, "file"), open(path) as fh:
        return json.load(fh)


def _matrices(path: str, entries) -> dict[int, DenseMatrix]:
    with _input(path, "matrices"):
        items = list(entries.items())
    out = {}
    for k, v in items:
        with _input(path, f"matrix {k}"):
            out[int(k)] = DenseMatrix.from_json(v)
    return out


def _load_matrices(path: str, data, extra_path: str | None) -> dict[int, DenseMatrix]:
    matrices = _matrices(path, data.get("matrices", {}))
    if extra_path:
        extra = _read_json(extra_path)
        if isinstance(extra, dict):
            extra = extra.get("matrices", extra)
        matrices.update(_matrices(extra_path, extra))
    return matrices


def _load_expression(path: str, matrices_path: str | None = None):
    data = _read_json(path)
    with _input(path, "expression"):
        expr = TraceExpression.from_json(data)
    return expr, _load_matrices(path, data, matrices_path)


def _load_expressions(path: str, matrices_path: str | None = None):
    data = _read_json(path)
    with _input(path, "exprs"):
        exprs = [TraceExpression.from_json(e) for e in data["exprs"]]
    return exprs, _load_matrices(path, data, matrices_path)


def _diagram(text: str, n: int) -> YoungDiagram:
    """The --lambda diagram: comma-separated rows that partition n/2."""
    try:
        lam = YoungDiagram(int(x) for x in text.split(","))
    except ValueError:
        lam = None
    if lam is None or 2 * lam.n != n:
        raise ValidationError(f"--lambda {text!r} must be a partition of n/2 = {n / 2:g}, "
                              "given as comma-separated rows")
    return lam


def cmd_wg(args) -> int:
    if args.eval is not None:
        check_dimension(args.eval)
    lam = None if args.lam is None else _diagram(args.lam, args.n)
    table = weingarten_table(args.n, cap=args.cap)
    if args.golden_out:
        with _output(args.golden_out, "--golden-out"):
            path = write_golden(args.n, args.golden_out, cap=args.cap)
        emit({"meta": _metadata(args), "written": path}, args.out)
        return 0
    if lam is not None:
        entry = {"lambda": list(lam.rows),
                 "Wg": format_polyfrac(table.wg_unnormalized(lam)),
                 "wg": format_polyfrac(table.wg(lam))}
        if args.eval is not None:
            entry["Wg_at_N"] = table.wg_unnormalized(lam).eval_at(args.eval)
            entry["wg_at_N"] = table.wg(lam).eval_at(args.eval)
        emit({"meta": _metadata(args), "n": args.n, "entry": entry}, args.out)
        return 0
    entries = {}
    for lam in sorted(table.entries, key=lambda d: d.rows, reverse=True):
        key = ",".join(map(str, lam.rows))
        entries[key] = {"Wg": format_polyfrac(table.wg_unnormalized(lam)),
                        "wg": format_polyfrac(table.wg(lam))}
        if args.eval is not None:
            entries[key]["Wg_at_N"] = table.wg_unnormalized(lam).eval_at(args.eval)
            entries[key]["wg_at_N"] = table.wg(lam).eval_at(args.eval)
    emit({"meta": _metadata(args), "n": args.n, "entries": entries}, args.out)
    return 0


def _tables(args) -> TableSet:
    """The process's default tables at the default cap, so repeated commands in
    one process build and evaluate each coefficient once; fresh ones otherwise."""
    return default_tables() if args.cap == WG_CAP else TableSet(cap=args.cap)


def cmd_expand(args) -> int:
    expr, _ = _load_expression(args.expr, args.matrices)
    terms = []
    wg_text: dict[tuple, str] = {}  # the formatted factor per distinct diagrams
    for t in expand_moment(expr, tables=_tables(args), term_cap=args.cap_terms):
        text = wg_text.get(t.lambdas)
        if text is None:
            text = wg_text[t.lambdas] = format_polyfrac(t.wg_factor)
        terms.append({"chi": t.chi, "exponent": t.exponent, "wg": text,
                      "lambdas": [list(l.rows) for l in t.lambdas],
                      "vertex": [list(c) for c in t.vertex_labels]})
    emit({"meta": _metadata(args), "expr": expr.to_json(), "term_count": len(terms),
          "terms": terms}, args.out)
    return 0


def cmd_moment(args) -> int:
    expr, matrices = _load_expression(args.expr, args.matrices)
    tables = _tables(args)
    if args.asymptotic:
        limit = asymptotic_moment(expr, tables=tables, term_cap=args.cap_terms)
        report = {"meta": _metadata(args), "asymptotic": limit.to_json()}
        if matrices and args.N is not None:
            report["evaluated"] = limit.evaluate(matrices, args.N, mode=args.mode)
        emit(report, args.out)
        return 0
    if args.N is None:
        raise ValidationError("--N is required unless --asymptotic is given")
    result = evaluate_moment(expr, matrices, args.N, mode=args.mode, tables=tables,
                             term_cap=args.cap_terms)
    emit({"meta": _metadata(args), "value": result.value,
          "term_count": result.term_count}, args.out)
    return 0


def cmd_cumulant(args) -> int:
    exprs, matrices = _load_expressions(args.exprs, args.matrices)
    tables = _tables(args)
    value = trace_cumulant(exprs, matrices=matrices, n=args.N, mode=args.mode,
                           tables=tables, term_cap=args.cap_terms)
    emit({"meta": _metadata(args), "order": len(exprs), "value": value}, args.out)
    return 0


def cmd_verify(args) -> int:
    if args.suite == "noncross":
        report = noncross_suite(fast=not args.full)
        failed = bool(report["counterexamples"])
    elif args.suite == "oracle":
        report = oracle_suite(seed=args.seed, count=args.count)
        failed = bool(report["discrepancies"])
    elif args.suite == "mc":
        if not args.expr or args.N is None:
            raise ValidationError("mc suite needs --expr and --N")
        expr, matrices = _load_expression(args.expr, args.matrices)
        report = mc_suite(expr, matrices, args.N, args.samples, args.seed,
                          workers=args.workers)
        failed = abs(report["z_score"]) > 5.0
    else:
        raise ValidationError(f"unknown suite {args.suite!r}")
    report = {"meta": _metadata(args), **report}
    emit(report, args.out)
    if failed:
        raise VerificationFailure(f"suite {args.suite} reported failures")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haargenus",
        description="Exact and Monte Carlo moments of traces of Haar orthogonal matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the JSON report to this path")
        p.add_argument("--matrices", help="JSON file of matrices overriding the expression file")
        p.add_argument("--cap", type=int, default=WG_CAP, help="Weingarten size cap")
        p.add_argument("--cap-terms", dest="cap_terms", type=int, default=500_000)

    p = sub.add_parser("wg", help="print Weingarten table entries")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", help="diagram rows, e.g. 3,1")
    p.add_argument("--eval", type=int, help="also evaluate at this N")
    p.add_argument("--golden-out", dest="golden_out", help="write the golden table file")
    common(p)
    p.set_defaults(func=cmd_wg)

    p = sub.add_parser("expand", help="list the gluing terms of an expression")
    p.add_argument("--expr", required=True)
    common(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("moment", help="evaluate an expected product of traces")
    p.add_argument("--expr", required=True)
    p.add_argument("--N", type=int)
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.add_argument("--asymptotic", action="store_true")
    common(p)
    p.set_defaults(func=cmd_moment)

    p = sub.add_parser("cumulant", help="joint cumulant of unnormalized traces")
    p.add_argument("--exprs", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    common(p)
    p.set_defaults(func=cmd_cumulant)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=("noncross", "oracle", "mc"))
    p.add_argument("--expr")
    p.add_argument("--N", type=int)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--count", type=int, default=60)
    p.add_argument("--full", action="store_true", help="full acceptance ranges")
    p.add_argument("--workers", type=int, default=1, help="threads for Monte Carlo sampling")
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses: built once per process, since building it costs
    about thirty times as much as a parse and a parse leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return exc.exit_code
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return exc.exit_code
    except PoleError as exc:
        print(f"pole: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
