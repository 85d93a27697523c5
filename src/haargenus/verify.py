"""Verification suites: exhaustive equivalence scans, the cross-oracle
battery, and Monte Carlo concordance checks.

Each suite returns a JSON-serializable report; `counterexamples` (or
`discrepancies`) empty means the suite passed.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ValidationError
from .expansion import TraceExpression, evaluate_moment
from .matrixlab import DenseMatrix, brute_force_moment, mc_moment
from .noncross import (AnnularFrame, biane_criterion, is_annular_noncrossing,
                       is_disc_noncrossing, mingo_nica_criterion,
                       premap_chi2_annular, premap_chi2_disc)
from .permap import SignedPermutation, enumerate_premaps, euler_characteristic
from .weingarten import TableSet


def _all_permutations(domain: Sequence[int]):
    base = list(domain)
    for images in itertools.permutations(base):
        yield SignedPermutation(dict(zip(base, images)))


def _scan(suite: str, name: str, lhs_name: str, rhs_name: str):
    """Make a scan report from a generator of its cases, each (where, x, lhs,
    rhs): a dict naming the instance's family, the permutation or premap x,
    and the two tests' answers.  A case whose answers differ is a
    counterexample: where, then x, lhs and rhs under the given names."""
    def wrap(cases):
        @functools.wraps(cases)
        def scan(*args, **kwargs) -> dict:
            instances = agreements = 0
            counterexamples = []
            for where, x, lhs, rhs in cases(*args, **kwargs):
                instances += 1
                if lhs == rhs:
                    agreements += 1
                else:
                    counterexamples.append({**where, name: x.to_json(), lhs_name: lhs,
                                            rhs_name: rhs})
            return {"suite": suite, "instances": instances, "agreements": agreements,
                    "counterexamples": counterexamples}
        return scan
    return wrap


@_scan("biane", "alpha", "definitional", "cycle_count")
def biane_scan(max_n: int = 6):
    """Definitional disc-noncrossing test versus the cycle-count criterion,
    for every permutation relative to the full cycle on [n]."""
    for n in range(3, max_n + 1):
        phi = SignedPermutation.from_cycles([tuple(range(1, n + 1))])
        for alpha in _all_permutations(range(1, n + 1)):
            yield {"n": n}, alpha, is_disc_noncrossing(phi, alpha), biane_criterion(phi, alpha)


def _splits(splits: Iterable[tuple[int, int]]):
    """Per split, its report field, the annular frame and the two cycles."""
    for ext_size, int_size in splits:
        ext = tuple(range(1, ext_size + 1))
        int_ = tuple(range(ext_size + 1, ext_size + int_size + 1))
        yield {"split": [ext_size, int_size]}, AnnularFrame.from_cycles(ext, int_), ext, int_


@_scan("mingo_nica", "alpha", "definitional", "cycle_count")
def mingo_nica_scan(splits: Iterable[tuple[int, int]] = ((2, 2), (3, 2), (4, 2), (3, 3))):
    """Definitional annular-noncrossing test versus the cycle-count criterion,
    for every connecting permutation on each split."""
    for where, frame, ext, int_ in _splits(splits):
        for alpha in _all_permutations(ext + int_):
            if alpha.connects(ext, int_):
                yield (where, alpha, is_annular_noncrossing(frame, alpha),
                       mingo_nica_criterion(frame, alpha))


@_scan("premap_disc", "premap", "characterization", "chi2")
def premap_disc_scan(max_n: int = 4):
    """chi = 2 versus the unoriented disc characterization, over all premaps."""
    for n in range(2, max_n + 1):
        phi = SignedPermutation.from_cycles([tuple(range(1, n + 1))])
        for a in enumerate_premaps(range(1, n + 1)):
            yield {"n": n}, a, premap_chi2_disc(phi, a), euler_characteristic(phi, a) == 2


@_scan("premap_annular", "premap", "characterization", "chi2")
def premap_annular_scan(splits: Iterable[tuple[int, int]] = ((2, 2), (3, 2))):
    """chi = 2 versus the unoriented annular characterization, over all
    premaps connecting the two boundary handles."""
    for where, frame, ext, int_ in _splits(splits):
        pm_ext = [x for k in ext for x in (k, -k)]
        pm_int = [x for k in int_ for x in (k, -k)]
        for a in enumerate_premaps(ext + int_):
            if a.connects(pm_ext, pm_int):
                yield (where, a, premap_chi2_annular(frame, a),
                       euler_characteristic(frame.phi, a) == 2)


def noncross_suite(fast: bool = True) -> dict:
    """Combined noncrossing report (fast ranges for the CLI; the acceptance
    tests run the full ranges)."""
    parts = [
        biane_scan(5 if fast else 6),
        mingo_nica_scan(((2, 2), (3, 2)) if fast else ((2, 2), (3, 2), (4, 2), (3, 3), (5, 2), (4, 3))),
        premap_disc_scan(3 if fast else 4),
        premap_annular_scan(((2, 2),) if fast else ((2, 2), (3, 2))),
    ]
    counterexamples = [c for p in parts for c in p["counterexamples"]]
    return {"suite": "noncross",
            "instances": sum(p["instances"] for p in parts),
            "agreements": sum(p["agreements"] for p in parts),
            "counterexamples": counterexamples,
            "parts": parts}


# -- cross-oracle battery -------------------------------------------------------


def random_rational_matrix(rng: random.Random, n: int, max_num: int = 3) -> DenseMatrix:
    return DenseMatrix([[Fraction(rng.randint(-max_num, max_num), rng.randint(1, 3))
                         for _ in range(n)] for _ in range(n)])


def _random_expression(rng: random.Random, color_counts: Sequence[int],
                       nlabels: int) -> TraceExpression:
    total = sum(color_counts)
    positions = list(range(1, total + 1))
    shuffled = positions[:]
    rng.shuffle(shuffled)
    colors = {}
    at = 0
    for c, cnt in enumerate(color_counts, start=1):
        for k in shuffled[at:at + cnt]:
            colors[k] = c
        at += cnt
    eps = {k: rng.choice([1, -1]) for k in positions}
    slot = {k: rng.choice([s for s in range(-nlabels, nlabels + 1) if s != 0])
            for k in positions}
    if total >= 2 and rng.random() < 0.5:
        cut = rng.randint(1, total - 1)
        cycles = [positions[:cut], positions[cut:]]
    else:
        cycles = [positions]
    return TraceExpression(cycles, eps, colors, slot)


# per-colour counts capped at 3; mostly even so the value is nonzero
_BATTERY_SHAPES = {
    2: [(2,), (2,), (2,), (1, 1)],
    3: [(2, 1), (3,), (1, 1, 1)],
    4: [(2, 2), (2, 2), (2, 2), (3, 1), (2, 1, 1)],
    5: [(2, 3), (2, 2, 1)],
    6: [(2, 2, 2), (2, 2, 2), (3, 3)],
}


def oracle_battery(seed: int = 20240, count: int = 60) -> list[tuple[TraceExpression, dict, int]]:
    """Seeded random battery of (expression, matrices, N) cases with at most
    3 O-factors per colour, sized so the entrywise oracle stays affordable."""
    rng = random.Random(seed)
    shapes = []
    while len(shapes) < count:
        n_dim = rng.choice([2, 3, 4])
        limit = {2: 6, 3: 5, 4: 4}[n_dim]
        total = rng.randint(2, limit)
        counts = list(rng.choice(_BATTERY_SHAPES[total]))
        rng.shuffle(counts)
        expr = _random_expression(rng, counts, nlabels=2)
        nlabels = max(abs(s) for s in expr.slot.values())
        mats = {lab: random_rational_matrix(rng, n_dim) for lab in range(1, nlabels + 1)}
        shapes.append((expr, mats, n_dim))
    return shapes


def oracle_suite(seed: int = 20240, count: int = 60, tables: TableSet | None = None) -> dict:
    """Exact equality of the genus-expansion evaluator and the entrywise
    brute-force oracle on the generated battery."""
    if count < 1:
        raise ValidationError(f"the oracle suite needs at least one case, got {count}")
    tables = tables or TableSet()
    cases = oracle_battery(seed, count)
    discrepancies = []
    for idx, (expr, mats, n_dim) in enumerate(cases):
        lhs = evaluate_moment(expr, mats, n_dim, mode="exact", tables=tables).value
        rhs = brute_force_moment(expr, mats, n_dim, tables=tables)
        if lhs != rhs:
            discrepancies.append({"case": idx, "expr": expr.to_json(), "N": n_dim,
                                  "expansion": str(lhs), "brute_force": str(rhs)})
    return {"suite": "oracle", "cases": len(cases), "equal": len(cases) - len(discrepancies),
            "discrepancies": discrepancies}


def mc_suite(expr: TraceExpression, matrices: dict, n: int, samples: int,
             seed: int, workers: int = 1, tables: TableSet | None = None) -> dict:
    """Monte Carlo concordance for one expression: exact versus sampled."""
    tables = tables or TableSet()
    exact = evaluate_moment(expr, matrices, n, mode="float", tables=tables).value
    est = mc_moment(expr, matrices, n, samples, seed, workers=workers)
    return {"suite": "mc", "exact": exact, "mc_mean": est.mean, "mc_se": est.std_error,
            "z_score": est.z_score(exact), "samples": est.samples, "seed": est.seed,
            "generator": est.generator}
