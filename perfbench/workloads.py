"""Seeded query lists for the three benchmark workloads, and how to run them.

A workload is a fixed list of query templates.  Round r of seed s holds every
template once, in template order, with its details (O-exponents, colours,
trace splits, slots, matrices, Monte Carlo seeds) drawn from a
`random.Random` seeded by (workload, s, r).  Every run therefore executes the
same mix of query shapes, and the seed only changes what the queries hold.

Queries are plain JSON-able dicts (`generate_round`), so a query list can be
compared and hashed without importing the library.  `prepare` turns one into
a zero-argument callable over library objects; only that callable is timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

WORKLOADS = ("exact_moments", "symbolic_expansions", "monte_carlo")
DEFAULT_SEED = 1

# Weingarten table sizes each workload's queries read (per-colour position
# counts); set-up builds exactly these.
TABLE_SIZES = {
    "exact_moments": (2, 4, 6),
    "symbolic_expansions": (2, 4, 6),
    "monte_carlo": (),
}

ALPHABET = (1, -1, 2, -2, 0)  # two matrices, their transposes, the identity


@dataclass(frozen=True)
class Template:
    name: str
    kind: str
    counts: tuple[int, ...]          # positions per colour (all even)
    traces: int = 1                  # moments: number of traces
    sizes: tuple[int, ...] = ()      # cumulants: positions per single trace
    n: int = 0
    slots: str = "distinct"          # "distinct" or "alphabet"
    route: str = "lib"               # "lib" or "cli"
    samples: int = 0                 # Monte Carlo only
    powers: int = 0                  # entry moments: total power


def _both(name, kind, counts, cli=(), **kw) -> list[Template]:
    """The distinct-slot and the alphabet variant of one query shape."""
    return [Template(f"{name}-{tag}", kind, counts, slots=slots,
                     route="cli" if tag in cli else "lib", **kw)
            for tag, slots in (("D", "distinct"), ("A", "alphabet"))]


EXACT_TEMPLATES = [
    *_both("m4-t2-n4", "moment", (4,), traces=2, n=4),
    *_both("m22-t2-n4", "moment", (2, 2), traces=2, n=4),
    *_both("m42-t3-n5", "moment", (4, 2), traces=3, n=5, cli=("D", "A")),
    *_both("m4-t1-n6", "moment", (4,), traces=1, n=6, cli=("A",)),
    *_both("m44-t2-n4", "moment", (4, 4), traces=2, n=4),
    *_both("m6-t3-n4", "moment", (6,), traces=3, n=4),
    *_both("m6-t2-n4", "moment", (6,), traces=2, n=4),
    *_both("k22-c4-n6", "cumulant", (4,), sizes=(2, 2), n=6),
    *_both("k33-c42-n5", "cumulant", (4, 2), sizes=(3, 3), n=5),
    *_both("k222-c42-n4", "cumulant", (4, 2), sizes=(2, 2, 2), n=4),
    *_both("k222-c42-n6", "cumulant", (4, 2), sizes=(2, 2, 2), n=6),
    *_both("k33-c6-n4", "cumulant", (6,), sizes=(3, 3), n=4),
    *_both("k24-c6-n4", "cumulant", (6,), sizes=(2, 4), n=4),
    *_both("k44-c44-n4", "cumulant", (4, 4), sizes=(4, 4), n=4),
]

SYMBOLIC_TEMPLATES = [
    *_both("e4-t2", "expand", (4,), traces=2, cli=("D",)),
    *_both("e6-t3", "expand", (6,), traces=3),
    *_both("e44-t2", "expand", (4, 4), traces=2, cli=("A",)),
    *_both("e62-t2", "expand", (6, 2), traces=2),
    *_both("e42-t3", "expand", (4, 2), traces=3, cli=("A",)),
    *_both("a6-t2", "asymptotic", (6,), traces=2),
    *_both("a44-t3", "asymptotic", (4, 4), traces=3),
    *_both("a62-t1", "asymptotic", (6, 2), traces=1),
    *_both("s6-t3", "msym", (6,), traces=3),
    *_both("s44-t2", "msym", (4, 4), traces=2),
    *_both("s62-t2", "msym", (6, 2), traces=2),
    *_both("s42-t2", "msym", (4, 2), traces=2),
    *_both("ks33-c6", "ksym", (6,), sizes=(3, 3)),
    *_both("ks44-c44", "ksym", (4, 4), sizes=(4, 4)),
    *_both("ks222-c42", "ksym", (4, 2), sizes=(2, 2, 2)),
    *_both("ks22-c4", "ksym", (4,), sizes=(2, 2)),
    *_both("f6-t2-n8", "float", (6,), traces=2, n=8),
    *_both("f44-t2-n10", "float", (4, 4), traces=2, n=10),
    *_both("f62-t3-n16", "float", (6, 2), traces=3, n=16),
    *_both("f42-t2-n16", "float", (4, 2), traces=2, n=16),
    *_both("f6-t1-n10", "float", (6,), traces=1, n=10),
]

# workers alternate 1, 2, 1, 2, ... along this (even-length) list
MC_TEMPLATES = [
    Template("p2-t1-n6", "mc_moment", (2,), traces=1, n=6, samples=512),
    Template("p4-t2-n10", "mc_moment", (4,), traces=2, n=10, samples=1024),
    Template("p22-t2-n16", "mc_moment", (2, 2), traces=2, n=16, samples=512),
    Template("p42-t3-n10", "mc_moment", (4, 2), traces=3, n=10, samples=512),
    Template("p6-t2-n6", "mc_moment", (6,), traces=2, n=6, samples=1024),
    Template("p2-t1-n16", "mc_moment", (2,), traces=1, n=16, samples=1024),
    Template("p4-t1-n16", "mc_moment", (4,), traces=1, n=16, samples=512),
    Template("p22-t1-n6", "mc_moment", (2, 2), traces=1, n=6, samples=1024),
    Template("q22-c4-n10", "mc_cumulant", (4,), sizes=(2, 2), n=10, samples=1024),
    Template("q222-c42-n6", "mc_cumulant", (4, 2), sizes=(2, 2, 2), n=6, samples=1024),
    Template("q33-c42-n16", "mc_cumulant", (4, 2), sizes=(3, 3), n=16, samples=512),
    Template("q11-c2-n6", "mc_cumulant", (2,), sizes=(1, 1), n=6, samples=512),
    Template("r2-n6", "mc_entry", (), n=6, samples=512, powers=2),
    Template("r4-n10", "mc_entry", (), n=10, samples=1024, powers=4),
    Template("r4-n16", "mc_entry", (), n=16, samples=512, powers=4),
    Template("r6-n6", "mc_entry", (), n=6, samples=512, powers=6),
]

TEMPLATES = {
    "exact_moments": EXACT_TEMPLATES,
    "symbolic_expansions": SYMBOLIC_TEMPLATES,
    "monte_carlo": MC_TEMPLATES,
}

MC_BATCHES = 64  # jackknife batches for mc_cumulant standard errors


# -- generation (plain data) ---------------------------------------------------


def _colours(rng: random.Random, counts) -> list[int]:
    seq = [c + 1 for c, k in enumerate(counts) for _ in range(k)]
    rng.shuffle(seq)
    return seq


def _slot(rng: random.Random, mode: str, position: int) -> int:
    if mode == "distinct":
        return position * rng.choice((1, -1))
    return rng.choice(ALPHABET)


def _factor(rng, colour, mode, position) -> dict:
    return {"color": colour, "eps": rng.choice((1, -1)), "slot": _slot(rng, mode, position)}


def _moment_expr(rng: random.Random, t: Template) -> dict:
    colours = _colours(rng, t.counts)
    total = len(colours)
    cuts = sorted(rng.sample(range(1, total), t.traces - 1)) + [total]
    traces, start = [], 0
    for cut in cuts:
        traces.append([_factor(rng, colours[k], t.slots, k + 1) for k in range(start, cut)])
        start = cut
    return {"traces": traces}


def _cumulant_exprs(rng: random.Random, t: Template) -> list[dict]:
    colours = _colours(rng, t.counts)
    out, start = [], 0
    for size in t.sizes:
        out.append({"traces": [[_factor(rng, colours[k], t.slots, k + 1)
                                for k in range(start, start + size)]]})
        start += size
    return out


def _labels(exprs: list[dict]) -> list[int]:
    return sorted({abs(f["slot"]) for e in exprs for tr in e["traces"] for f in tr} - {0})


def _rational(rng: random.Random) -> str:
    return str(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))


def _exact_matrices(rng, labels, n) -> dict:
    return {str(k): [[_rational(rng) for _ in range(n)] for _ in range(n)] for k in labels}


def _float_matrices(rng, labels, n) -> dict:
    scale = 1.0 / math.sqrt(n)
    return {str(k): [[round(rng.gauss(0.0, 1.0) * scale, 6) for _ in range(n)]
                     for _ in range(n)] for k in labels}


def _entry_powers(rng: random.Random, total: int, n: int) -> list[list[int]]:
    """[row, col, power] triples with the given even total power, drawn from
    a 2 x 2 grid of entries: even powers of single entries, or the four grid
    entries once each (plus a square when the total is 6)."""
    rows, cols = rng.sample(range(1, n + 1), 2), rng.sample(range(1, n + 1), 2)
    powers: dict[tuple[int, int], int] = {}
    for _ in range(total // 2):
        r, c = rng.choice(rows), rng.choice(cols)
        powers[(r, c)] = powers.get((r, c), 0) + 2
    if total >= 4 and rng.random() < 0.5:
        # O_ac O_ad O_bc O_bd: four distinct entries, each once
        (a, b), (c, d) = rows, cols
        powers = {(a, c): 1, (a, d): 1, (b, c): 1, (b, d): 1}
        if total == 6:
            powers[(a, c)] += 2
    return [[r, c, p] for (r, c), p in sorted(powers.items())]


def generate_round(workload: str, seed: int, rnd: int) -> list[dict]:
    """Round `rnd` of the query list for (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}:{rnd}")
    templates = TEMPLATES[workload]
    out = []
    for i, t in enumerate(templates):
        q = {"index": rnd * len(templates) + i, "round": rnd, "template": t.name,
             "kind": t.kind, "route": t.route, "N": t.n}
        if t.kind in ("moment", "expand", "asymptotic", "msym", "float", "mc_moment"):
            q["expr"] = _moment_expr(rng, t)
            labels = _labels([q["expr"]])
        elif t.kind in ("cumulant", "ksym", "mc_cumulant"):
            q["exprs"] = _cumulant_exprs(rng, t)
            labels = _labels(q["exprs"])
        else:
            labels = []
        if workload == "exact_moments":
            q["matrices"] = _exact_matrices(rng, labels, t.n)
        elif workload == "symbolic_expansions":
            # 2x2 blocks repeated down the diagonal: vertex traces are N-free
            q["blocks"] = _exact_matrices(rng, labels, 2)
        else:
            q["matrices"] = _float_matrices(rng, labels, t.n)
            q["samples"] = t.samples
            q["mc_seed"] = rng.randrange(2 ** 32)
            q["workers"] = 1 + i % 2
            if t.kind == "mc_cumulant":
                q["order"] = len(t.sizes)
            if t.kind == "mc_entry":
                q["powers"] = _entry_powers(rng, t.powers, t.n)
        out.append(q)
    return out


# -- preparation (library objects) ---------------------------------------------


def block_trace(blocks: dict, cycle) -> Fraction:
    """Normalized trace of the product of 2x2 blocks along a label cycle
    (negative label = transpose, identity labels already dropped).  Equals the
    normalized trace of the block-repeated N x N matrices for every even N."""
    a, b, c, d = Fraction(1), Fraction(0), Fraction(0), Fraction(1)
    for label in cycle:
        m = blocks[abs(label)]
        if label < 0:
            m = ((m[0][0], m[1][0]), (m[0][1], m[1][1]))
        (p, q), (r, s) = m
        a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
    return (a + d) / 2


@dataclass
class Prepared:
    query: dict
    call: Callable[[], object]
    context: dict


def _fractions(rows) -> list[list[Fraction]]:
    return [[Fraction(v) for v in r] for r in rows]


def prepare(query: dict, workdir: str) -> Prepared:
    """Library objects for one query and the zero-argument call to time.

    CLI-routed queries get their expression file written here, so the timed
    call is only `haargenus.cli.main`."""
    import numpy as np
    from haargenus import cli, expansion, matrixlab
    from haargenus.expansion import TraceExpression
    from haargenus.matrixlab import DenseMatrix

    kind = query["kind"]
    n = query["N"]
    ctx: dict = {}
    if "expr" in query:
        ctx["expr"] = TraceExpression.from_json(query["expr"])
    if "exprs" in query:
        ctx["exprs"] = [TraceExpression.from_json(e) for e in query["exprs"]]
    if "blocks" in query:
        blocks = {int(k): _fractions(v) for k, v in query["blocks"].items()}
        ctx["blocks"] = blocks

        def trace_value(cycle, blocks=blocks):
            return block_trace(blocks, cycle)

        ctx["trace_value"] = trace_value
    if "matrices" in query:
        if kind.startswith("mc_"):
            ctx["matrices"] = {int(k): DenseMatrix(arr=np.array(v, dtype=float))
                               for k, v in query["matrices"].items()}
        else:
            ctx["matrices"] = {int(k): DenseMatrix(_fractions(v))
                               for k, v in query["matrices"].items()}

    if query["route"] == "cli":
        path = os.path.join(workdir, f"q{query['index']}.json")
        data = dict(query["expr"])
        if "matrices" in query:
            data["matrices"] = query["matrices"]
        with open(path, "w") as fh:
            json.dump(data, fh)
        argv = ["moment", "--expr", path, "--N", str(n)] if kind == "moment" \
            else ["expand", "--expr", path]

        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return {"exit_code": code, "stdout": buf.getvalue()}

        return Prepared(query, call, ctx)

    expr, exprs = ctx.get("expr"), ctx.get("exprs")
    mats, tv = ctx.get("matrices"), ctx.get("trace_value")
    if kind == "moment":
        call = lambda: expansion.evaluate_moment(expr, mats, n)  # noqa: E731
    elif kind == "cumulant":
        call = lambda: expansion.trace_cumulant(exprs, matrices=mats, n=n)  # noqa: E731
    elif kind == "expand":
        call = lambda: list(expansion.expand_moment(expr))  # noqa: E731
    elif kind == "asymptotic":
        call = lambda: expansion.asymptotic_moment(expr)  # noqa: E731
    elif kind == "msym":
        call = lambda: expansion.moment_symbolic(expr, tv)  # noqa: E731
    elif kind == "ksym":
        call = lambda: expansion.trace_cumulant(exprs, trace_value=tv, symbolic=True)  # noqa: E731
    elif kind == "float":
        fmats = {k: matrixlab.block_diagonal_repeat(DenseMatrix(b), n).to_float()
                 for k, b in ctx["blocks"].items()}
        ctx["float_matrices"] = fmats
        call = lambda: expansion.evaluate_moment(expr, fmats, n, mode="float")  # noqa: E731
    elif kind == "mc_moment":
        call = lambda: matrixlab.mc_moment(  # noqa: E731
            expr, mats, n, query["samples"], query["mc_seed"], workers=query["workers"])
    elif kind == "mc_cumulant":
        call = lambda: matrixlab.mc_cumulant(  # noqa: E731
            exprs, mats, n, query["samples"], query["mc_seed"], query["order"],
            workers=query["workers"], batches=MC_BATCHES)
    elif kind == "mc_entry":
        powers = {(r, c): p for r, c, p in query["powers"]}
        ctx["powers"] = powers
        call = lambda: matrixlab.mc_entry_moment(  # noqa: E731
            n, powers, query["samples"], query["mc_seed"], workers=query["workers"])
    else:
        raise ValueError(f"unknown query kind {kind!r}")
    return Prepared(query, call, ctx)
