"""Correctness checks for benchmark queries; none of them runs while timing.

Three levels:

* `check_result` runs on every query: result types, gluing counts, the CLI
  exit code and report against the library value, and for Monte Carlo the
  estimate within 5 standard errors of the exact value in float mode.
* `check_oracle` runs on a subset (round 0, every template once) at any
  seed: brute force, transpose symmetry, the Moebius combination of moments
  for cumulants, Euler characteristics, the symbolic large-N limit, and a
  rerun of Monte Carlo queries at the other worker count, which must give a
  byte-identical report.
* `canonical` gives the digest value of an exact or symbolic result, checked
  against the committed `digest.json` at the default seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

from haargenus import expansion, matrixlab
from haargenus.expansion import TraceExpression, concatenate
from haargenus.matrixlab import DenseMatrix
from haargenus.permap import delta_eps_conjugate, euler_characteristic
from haargenus.ratpoly import PolyFrac, format_polyfrac

from workloads import Prepared, prepare

SE_LIMIT = 5.0
# absolute floor for estimates whose per-sample value is constant up to rounding
FLOAT_FLOOR = 1e-9
FLOAT_REL = 1e-9
# the brute-force oracle sums N^(2 positions) index assignments
BRUTE_FORCE_POSITIONS = 4
BRUTE_FORCE_N = 4


def expected_gluings(counts) -> int:
    total = 1
    for k in counts:
        double_fact = math.prod(range(k - 1, 0, -2))
        total *= double_fact * double_fact
    return total


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_REL * max(1.0, abs(a), abs(b))


def _cli_report(result: dict) -> dict:
    if result["exit_code"] != 0:
        raise AssertionError(f"cli exit code {result['exit_code']}")
    return json.loads(result["stdout"])


def _cli_terms(terms) -> list[dict]:
    """Library expansion terms in the CLI report's form."""
    return [{"chi": t.chi, "exponent": t.exponent, "wg": format_polyfrac(t.wg_factor),
             "lambdas": [list(l.rows) for l in t.lambdas],
             "vertex": [list(c) for c in t.vertex_labels]} for t in terms]


def _polyfrac_key(p: PolyFrac) -> list:
    return [list(p.num), list(p.den)]


def canonical(prep: Prepared, result):
    """Digest value of a result: a short hash of its canonical text, a float
    for float-mode queries, None where no digest applies (Monte Carlo)."""
    q = prep.query
    kind = q["kind"]
    if kind.startswith("mc_"):
        return None
    if kind == "float":
        return float(result.value)
    if q["route"] == "cli":
        report = _cli_report(result)
        text = (f"{report['value']}|{report['term_count']}" if kind == "moment"
                else json.dumps(report["terms"], sort_keys=True))
    elif kind == "moment":
        text = f"{result.value}|{result.term_count}"
    elif kind == "cumulant":
        text = str(result)
    elif kind == "expand":
        text = json.dumps(_cli_terms(result), sort_keys=True)
    elif kind == "asymptotic":
        text = json.dumps(result.to_json(), sort_keys=True)
    else:  # msym, ksym
        text = json.dumps(_polyfrac_key(result))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_digest(prep: Prepared, result, expected) -> list[str]:
    """The result against its committed digest value (default seed only)."""
    actual = canonical(prep, result)
    if isinstance(expected, float):
        same = isinstance(actual, float) and _close(expected, actual)
    else:
        same = actual is None or actual == expected
    return [] if same else [f"digest mismatch: {actual!r}"]


# -- every query -----------------------------------------------------------------


def _mc_reference(prep: Prepared) -> float:
    q, ctx = prep.query, prep.context
    n = q["N"]
    if q["kind"] == "mc_moment":
        return expansion.evaluate_moment(ctx["expr"], ctx["matrices"], n, mode="float").value
    if q["kind"] == "mc_cumulant":
        return expansion.trace_cumulant(ctx["exprs"], matrices=ctx["matrices"], n=n,
                                        mode="float")
    # E[prod O_rc^p] = product of unnormalized tr(O E_cr), one trace per factor
    factors, units = [], {}
    for r, c, p in q["powers"]:
        label = len(units) + 1
        rows = [[0] * n for _ in range(n)]
        rows[c - 1][r - 1] = 1
        units[label] = DenseMatrix(rows).to_float()
        factors += [label] * p
    expr = TraceExpression([[k] for k in range(1, len(factors) + 1)],
                           {k: 1 for k in range(1, len(factors) + 1)},
                           {k: 1 for k in range(1, len(factors) + 1)},
                           {k: s for k, s in enumerate(factors, 1)})
    value = expansion.evaluate_moment(expr, units, n, mode="float").value
    return value * float(n) ** len(factors)


def check_result(prep: Prepared, result) -> list[str]:
    """Problems with one query's result (empty when it is correct)."""
    q, ctx = prep.query, prep.context
    kind, n = q["kind"], q["N"]
    counts = None
    if "expr" in ctx:
        counts = [len(v) for v in ctx["expr"].positions_by_color().values()]
    if q["route"] == "cli":
        report = _cli_report(result)
        if kind == "moment":
            lib = expansion.evaluate_moment(ctx["expr"], ctx.get("matrices", {}), n)
            if report["value"] != str(lib.value) or report["term_count"] != lib.term_count:
                return [f"cli moment {report['value']} != library {lib.value}"]
        elif report["terms"] != _cli_terms(expansion.expand_moment(ctx["expr"])):
            return ["cli expansion differs from the library listing"]
        return []
    if kind == "moment":
        if not isinstance(result.value, Fraction):
            return ["exact moment is not a Fraction"]
        if result.term_count != expected_gluings(counts):
            return [f"{result.term_count} gluings, expected {expected_gluings(counts)}"]
    elif kind == "cumulant":
        if not isinstance(result, Fraction):
            return ["exact cumulant is not a Fraction"]
    elif kind == "expand":
        if len(result) != expected_gluings(counts):
            return [f"{len(result)} terms, expected {expected_gluings(counts)}"]
        if any(t.exponent > 0 for t in result):
            return ["a gluing has a positive N exponent"]
    elif kind == "asymptotic":
        if not all(isinstance(c, Fraction) and c for c, _ in result.terms):
            return ["asymptotic coefficients must be nonzero Fractions"]
    elif kind == "msym":
        if not isinstance(result, PolyFrac) or (result and result.degree() > 0):
            return ["symbolic moment must be a PolyFrac bounded in N"]
    elif kind == "ksym":
        if not isinstance(result, PolyFrac):
            return ["symbolic cumulant is not a PolyFrac"]
    elif kind == "float":
        if not (isinstance(result.value, float) and math.isfinite(result.value)):
            return ["float moment is not a finite float"]
        if result.term_count != expected_gluings(counts):
            return [f"{result.term_count} gluings, expected {expected_gluings(counts)}"]
    elif kind.startswith("mc_"):
        exact = _mc_reference(prep)
        limit = SE_LIMIT * result.std_error + FLOAT_FLOOR * max(1.0, abs(exact))
        if result.samples != q["samples"] or abs(result.mean - exact) > limit:
            return [f"estimate {result.mean} +/- {result.std_error} vs exact {exact}"]
    return []


# -- oracle subset ---------------------------------------------------------------


def _transposed(expr: TraceExpression) -> TraceExpression:
    """Each trace read backwards with every factor transposed:
    tr(O^e1 X1 ... O^ek Xk) = tr(O^-ek X(k-1)^T ... O^-e1 Xk^T)."""
    cycles, eps, color, slot = [], {}, {}, {}
    for cyc in expr.cycles:
        k = len(cyc)
        new = []
        for j in range(k):
            src = cyc[k - 1 - j]
            pos = len(eps) + 1
            eps[pos] = -expr.eps[src]
            color[pos] = expr.color[src]
            slot[pos] = -expr.slot[cyc[(k - 2 - j) % k]]
            new.append(pos)
        cycles.append(new)
    return TraceExpression(cycles, eps, color, slot)


def _set_partitions(items: list[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def _moebius_cumulant(r: int, joint_moment, one, n_power):
    """k_r = sum over partitions pi of (-1)^(|pi|-1) (|pi|-1)! prod_B E[prod_B Y],
    with unnormalized traces Y = N tr."""
    total = one * 0
    for part in _set_partitions(list(range(r))):
        term = one * ((-1) ** (len(part) - 1) * math.factorial(len(part) - 1))
        for block in part:
            term = term * n_power(len(block)) * joint_moment(block)
        total = total + term
    return total


def _asymptotic_value(limit, tv) -> Fraction:
    total = Fraction(0)
    for coeff, pattern in limit.terms:
        value = coeff
        for cyc in pattern:
            value *= tv(cyc)
        total += value
    return total


def check_oracle(prep: Prepared, result) -> list[str]:
    """Problems found by an independent oracle (empty when none applies or it agrees)."""
    q, ctx = prep.query, prep.context
    kind, n = q["kind"], q["N"]
    tv = ctx.get("trace_value")
    if kind == "moment":
        expr, mats = ctx["expr"], ctx.get("matrices", {})
        value = Fraction(_cli_report(result)["value"]) if q["route"] == "cli" else result.value
        if expr.n <= BRUTE_FORCE_POSITIONS and n <= BRUTE_FORCE_N:
            other = matrixlab.brute_force_moment(expr, mats, n)
            name = "brute force"
        else:
            other = expansion.evaluate_moment(_transposed(expr), mats, n).value
            name = "transposed expression"
        return [] if other == value else [f"{name} gives {other}, expected {value}"]
    if kind in ("cumulant", "ksym"):
        exprs = ctx["exprs"]
        if kind == "cumulant":
            mats = ctx["matrices"]
            other = _moebius_cumulant(
                len(exprs), lambda b: expansion.evaluate_moment(
                    concatenate([exprs[i] for i in b]), mats, n).value,
                Fraction(1), lambda k: Fraction(n) ** k)
        else:
            other = _moebius_cumulant(
                len(exprs), lambda b: expansion.moment_symbolic(
                    concatenate([exprs[i] for i in b]), tv),
                PolyFrac(1), PolyFrac.n_power)
        return [] if other == result else [f"Moebius combination gives {other}"]
    if kind == "expand" and q["route"] == "lib":
        expr = ctx["expr"]
        phi = expr.phi()
        for t in result:
            if euler_characteristic(phi, delta_eps_conjugate(t.alpha, expr.eps)) != t.chi:
                return ["a gluing's chi differs from its Euler characteristic"]
        return []
    if kind == "asymptotic":
        limit = expansion.moment_symbolic(ctx["expr"], tv).limit_at_infinity()
        value = _asymptotic_value(result, tv)
        return [] if limit == value else [f"large-N limit {limit} != {value}"]
    if kind == "msym":
        value = _asymptotic_value(expansion.asymptotic_moment(ctx["expr"]), tv)
        limit = result.limit_at_infinity()
        return [] if limit == value else [f"large-N limit {limit} != {value}"]
    if kind == "float":
        exact = expansion.moment_symbolic(ctx["expr"], tv).eval_at(n)
        return [] if _close(float(exact), result.value) else [f"symbolic value {exact}"]
    if kind.startswith("mc_"):
        twin = dict(q, workers=3 - q["workers"])
        other = prepare(twin, "").call()
        same = json.dumps(other.to_json()) == json.dumps(result.to_json())
        return [] if same else ["report differs at the other worker count"]
    return []
