"""Reference implementations that the tests compare the library against.

They are written for plainness, not speed: the literal index sum for traces,
Gauss-Jordan elimination over PolyFrac, traces of matrix products taken one
cycle and one DenseMatrix product at a time, gluings enumerated as
premaps, the SetPartition-join form of the trace-cumulant sum, and the
symbolic moment and the float moment's coefficients accumulated as
Fractions.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from haargenus.expansion import IDENTITY_SLOT, ExpansionTerm, TraceExpression, _TraceMemo, \
    concatenate, default_tables
from haargenus.matrixlab import DenseMatrix, resolve_slot
from haargenus.permap import K_inverse, Premap, delta_eps_conjugate, euler_characteristic, \
    pairings_to_premap, particular_cycles
from haargenus.ratpoly import PolyFrac
from haargenus.setpart import SetPartition, enumerate_interval, enumerate_pairings, \
    enumerate_partitions, join_of_pairings_diagram, kernel_of
from haargenus.weingarten import wg_cumulant


def label_cycles(expr: TraceExpression,
                 cycles: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Map position cycles through the slots, dropping identity factors."""
    out = []
    for c in cycles:
        labels = tuple(expr.vertex_label(k) for k in c)
        out.append(tuple(l for l in labels if l != IDENTITY_SLOT))
    return tuple(out)


def premap_gluings(expr: TraceExpression):
    """Each gluing as (pairings, chi, lambdas, vertex cycles, vertex labels),
    in the library's order (colours sorted, each colour's (p_plus, p_minus)
    with p_plus major), from the premap of its pairings: chi by
    `euler_characteristic` and the vertex cycles as the particular cycles of
    K^{-1}, both of phi and the delta_eps conjugate of the premap."""
    phi = expr.phi()
    per_colour = [[(p, q) for p in enumerate_pairings(pts) for q in enumerate_pairings(pts)]
                  for pts in expr.positions_by_color().values()]
    for pairings in itertools.product(*per_colour):
        alpha = Premap({k: v for p, q in pairings
                        for k, v in pairings_to_premap(p, q)._map.items()})
        conj = delta_eps_conjugate(alpha, expr.eps)
        vertex = particular_cycles(K_inverse(phi, conj))
        yield (pairings, euler_characteristic(phi, conj),
               tuple(join_of_pairings_diagram(p, q) for p, q in pairings),
               vertex, label_cycles(expr, vertex))


def check_conjugated_color_consistency(expr: TraceExpression, term: ExpansionTerm) -> bool:
    """For conjugated-word expressions (eps alternating -,+ and colours tied in
    odd/even pairs), every vertex cycle stays within one parity, and cycles of
    odd positions stay within one colour."""
    for cyc in term.vertex_cycles:
        parities = {abs(k) % 2 for k in cyc}
        if len(parities) != 1:
            return False
        if parities == {1}:
            colors = {expr.color[abs(k)] for k in cyc}
            if len(colors) != 1:
                return False
    return True


def trace_index_sum(cycles: Iterable[Sequence[int]], matrices: Mapping[int, DenseMatrix]):
    """Literal index-sum form of the trace along a permutation.

    Sums over all index assignments i: points -> [N] the product of entries
    X^(k)[i_k, i_pi(k)]."""
    nxt = {}
    for cyc in cycles:
        for a, b in zip(cyc, tuple(cyc[1:]) + (cyc[0],)):
            nxt[a] = b
    points = sorted(nxt)
    mats = {k: resolve_slot(matrices, k) for k in points}
    n = next(iter(mats.values())).n if mats else 0
    total = Fraction(0)
    for assign in itertools.product(range(n), repeat=len(points)):
        idx = dict(zip(points, assign))
        term = Fraction(1)
        for k in points:
            term *= mats[k].rows[idx[k]][idx[nxt[k]]]
        total += term
    return total


def dense_trace_along(cycles: Iterable[Sequence[int]],
                      matrices: Mapping[int, DenseMatrix], normalized: bool = False):
    """Product over cycles of traces of DenseMatrix products, one cycle and one
    product at a time, transposing each negative label into a new matrix.

    Exact matrices give Fractions.  Float matrices give the numpy 2-D product
    chain and trace of each cycle, in cycle order: the float reference for the
    batched `traces_along`."""
    total = Fraction(1)
    for cyc in cycles:
        prod = None
        for label in cyc:
            m = resolve_slot(matrices, label)
            prod = m if prod is None else prod @ m
        total *= prod.normalized_trace() if normalized else prod.trace()
    return total


def polyfrac_solve(a: Sequence[Sequence[PolyFrac]],
                   b: Sequence[Sequence[PolyFrac]]) -> list[list[PolyFrac]]:
    """Gauss-Jordan solve A X = B over PolyFrac (B given as columns in rows)."""
    p = len(a)
    nrhs = len(b[0])
    m = [list(a[i]) + list(b[i]) for i in range(p)]
    for k in range(p):
        pivot_row = next((r for r in range(k, p) if m[r][k]), None)
        if pivot_row is None:
            raise ValueError("singular matrix")
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
        inv = PolyFrac(1) / m[k][k]
        m[k] = [v * inv for v in m[k]]
        for i in range(p):
            if i != k and m[i][k]:
                f = m[i][k]
                m[i] = [vi - f * vk for vi, vk in zip(m[i], m[k])]
    return [row[p:p + nrhs] for row in m]


def join_trace_cumulant(exprs, *, matrices=None, n=None, mode="exact", trace_value=None,
                        kappa=None, symbolic=False, tables=None):
    """`trace_cumulant` as a loop over gluings, tau and rho that joins
    SetPartitions: rho runs over the interval [pi, ker(colour)], and a term
    counts when phi v tau_sigma v rho is the full partition."""
    tables = tables or default_tables()
    expr = concatenate(exprs)
    r = len(exprs)
    gluings = list(premap_gluings(expr))
    if trace_value is None:
        memo = _TraceMemo(matrices, n, mode, expr.slot.values())
        memo.fill(c for *_, labels in gluings for c in labels)
        tv = memo.value
    else:
        tv = trace_value
    phi_part = expr.phi().orbit_partition()
    ker_w = kernel_of(expr.color)
    ground = expr.positions
    full = SetPartition.full(ground)
    c_cache: dict = {}
    weights: dict = {}
    total = Fraction(0) if mode == "exact" else 0.0
    for pairings, chi, _, vertex, labels in gluings:
        pi = SetPartition([b for p_plus, p_minus in pairings
                           for b in (p_plus | p_minus).blocks], ground=ground)
        s = len(vertex)
        if kappa is None:
            tau_choices = [tuple((i,) for i in range(s))]
        else:
            tau_choices = [tuple(tuple(sorted(i - 1 for i in b)) for b in p.blocks)
                           for p in enumerate_partitions(range(1, s + 1), cap=max(12, s))]
        for tau_blocks in tau_choices:
            tau_sigma = SetPartition([{abs(k) for i in blk for k in vertex[i]}
                                      for blk in tau_blocks], ground=ground)
            k_tau = Fraction(1)
            for blk in tau_blocks:
                k_tau *= tv(labels[blk[0]]) if len(blk) == 1 else \
                    kappa(tuple(labels[i] for i in blk))
            if not k_tau:
                continue
            base = phi_part | tau_sigma
            for rho in enumerate_interval(pi, ker_w):
                if (base | rho) != full:
                    continue
                key = tuple(sorted(tuple(sorted(len(b) for b in pi.blocks if b <= blk))
                                   for blk in rho.blocks))
                if key not in c_cache:
                    c_cache[key] = wg_cumulant(tables, pi, pi, rho)
                if symbolic:
                    weights[chi - r, key] = weights.get((chi - r, key), 0) + Fraction(k_tau)
                else:
                    coeff = c_cache[key].eval_at(n) * Fraction(n) ** (chi - r)
                    total = total + (coeff * k_tau if mode == "exact"
                                     else float(coeff) * k_tau)
    if symbolic:
        return sum((c_cache[key] * PolyFrac.n_power(e) * PolyFrac.from_fraction(w)
                    for (e, key), w in weights.items() if w), PolyFrac(0))
    return total


def fraction_moment_symbolic(expr, trace_value, tables=None):
    """`moment_symbolic` on Fractions: the weight of each (exponent, diagrams)
    summed as a Fraction, then each weight times N^exponent and the
    Weingarten factor as its own PolyFrac."""
    tables = tables or default_tables()
    trace = functools.lru_cache(maxsize=None)(trace_value)
    weights: dict = {}
    for _, chi, lambdas, _, labels in premap_gluings(expr):
        key = (chi - 2 * expr.num_traces, lambdas)
        weights[key] = weights.get(key, 0) + math.prod(map(trace, labels), start=Fraction(1))
    return sum((tables.wg_product(lambdas) * PolyFrac.n_power(exponent)
                * PolyFrac.from_fraction(w)
                for (exponent, lambdas), w in weights.items() if w), PolyFrac(0))


def fraction_float_moment(expr, matrices, n, tables=None):
    """Float `evaluate_moment` with Fraction coefficients: wg(lambdas, N)
    N^exponent summed over the gluings of each vertex trace pattern as a Fraction,
    then float(coefficient) times the product of the pattern's float traces,
    added in first-seen order."""
    tables = tables or default_tables()
    memo = _TraceMemo(matrices, n, "float", expr.slot.values())
    coeffs: dict = {}
    for _, chi, lambdas, _, labels in premap_gluings(expr):
        coeff = tables.wg_product_at(lambdas, n) * Fraction(n) ** (chi - 2 * expr.num_traces)
        coeffs[labels] = coeffs.get(labels, 0) + coeff
    memo.fill(itertools.chain.from_iterable(coeffs))
    total = 0.0
    for pattern, coeff in coeffs.items():
        total += float(coeff) * math.prod(map(memo.__getitem__, pattern), start=1.0)
    return total
