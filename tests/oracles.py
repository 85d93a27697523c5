"""Reference implementations that the tests compare the library against.

They are written for plainness, not speed: the literal index sum for traces,
Gauss-Jordan elimination over PolyFrac, traces of matrix products taken one
cycle and one DenseMatrix product at a time, gluings enumerated as
premaps, the SetPartition-join form of the trace-cumulant sum, and the
moments accumulated as Fractions.  A float result is the float of
the exact sum over the float traces' exact ratios.

The helpers at the end (partitions of permutations, moment-cumulant
conversion, phi-neighbours, the Gram matrix, normalized wg per pair of
pairings) are used by the tests only, so they live here and not in the
library.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from haargenus.errors import ValidationError
from haargenus.expansion import IDENTITY_SLOT, ExpansionTerm, TraceExpression, _TraceMemo, \
    concatenate, default_tables
from haargenus.matrixlab import DenseMatrix, resolve_slot
from haargenus.permap import K_inverse, Premap, SignedPermutation, _premap_violation, \
    delta_eps_conjugate, euler_characteristic, pairings_to_premap, particular_cycles
from haargenus.ratpoly import Poly, PolyFrac, monomial
from haargenus.setpart import SetPartition, enumerate_interval, enumerate_pairings, \
    enumerate_partitions, join_of_pairings_diagram, mobius
from haargenus.weingarten import WG_CAP, WeingartenTable, _check_size, join_blocks, \
    pairing_join_diagram, pairing_partners, wg_cumulant


def label_cycles(expr: TraceExpression,
                 cycles: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Map position cycles through the slots, a negative position to the
    transposed (negated) label, dropping identity factors."""
    out = []
    for c in cycles:
        labels = tuple(expr.slot[abs(k)] * (1 if k > 0 else -1) for k in c)
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
        # the empty label cycle is tr(I) / N = 1, whatever the caller's value
        def tv(cycle):
            return Fraction(trace_value(cycle)) if cycle else Fraction(1)
    phi_part = orbit_partition(expr.phi())
    ker_w = kernel_of(expr.color)
    ground = expr.positions
    full = SetPartition.full(ground)
    c_cache: dict = {}
    weights: dict = {}
    total = Fraction(0)
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
                args = tuple(labels[i] for i in blk)
                # a joint cumulant with the constant tr(I) / N is 0
                k_tau *= tv(args[0]) if len(blk) == 1 else \
                    Fraction(kappa(args)) if () not in args else 0
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
                    weights[chi - r, key] = weights.get((chi - r, key), 0) + k_tau
                else:
                    total += c_cache[key].eval_at(n) * Fraction(n) ** (chi - r) * k_tau
    if symbolic:
        return sum((c_cache[key] * PolyFrac.n_power(e) * PolyFrac.from_fraction(w)
                    for (e, key), w in weights.items() if w), PolyFrac(0))
    return total if mode == "exact" else float(total)


def fraction_moment_symbolic(expr, trace_value, tables=None):
    """`moment_symbolic` on Fractions: the weight of each (exponent, diagrams)
    summed as a Fraction, then each weight times N^exponent and the
    Weingarten factor as its own PolyFrac; the empty label cycle is 1."""
    tables = tables or default_tables()
    trace = functools.lru_cache(maxsize=None)(lambda c: trace_value(c) if c else 1)
    weights: dict = {}
    for _, chi, lambdas, _, labels in premap_gluings(expr):
        key = (chi - 2 * expr.num_traces, lambdas)
        weights[key] = weights.get(key, 0) + math.prod(map(trace, labels), start=Fraction(1))
    return sum((tables.wg_product(lambdas) * PolyFrac.n_power(exponent)
                * PolyFrac.from_fraction(w)
                for (exponent, lambdas), w in weights.items() if w), PolyFrac(0))


def fraction_moment(expr, matrices, n, mode="exact", tables=None):
    """`evaluate_moment` as one Fraction sum over the premap gluings, as the
    library closed its sums before they ran on ints: every gluing's
    Weingarten factor at N, in first-seen order and before any trace (so the
    first pole raises the library's PoleError), times N^exponent and the
    product of the vertex cycles' traces, each a Fraction (a float trace as
    its exact ratio).  Float mode rounds the sum once."""
    tables = tables or default_tables()
    memo = _TraceMemo(matrices, n, mode, expr.slot.values())
    gluings = list(premap_gluings(expr))
    wg = {lambdas: tables.wg_product_at(lambdas, n) for _, _, lambdas, _, _ in gluings}
    memo.fill(c for *_, labels in gluings for c in labels)
    trace = memo.value
    total = Fraction(0)
    for _, chi, lambdas, _, labels in gluings:
        total += wg[lambdas] * Fraction(n) ** (chi - 2 * expr.num_traces) \
            * math.prod(map(trace, labels), start=Fraction(1))
    return total if mode == "exact" else float(total)


# -- helpers that only the tests use ---------------------------------------------


def orbit_partition(s: SignedPermutation) -> SetPartition:
    """The partition of the domain into the cycles of s."""
    return SetPartition([set(c) for c in s.cycles()])


def transposition_length(s: SignedPermutation) -> int:
    """Minimal number of transpositions: |domain| - #cycles."""
    return len(s.domain) - s.cycle_count


def conjugate_by(s: SignedPermutation, r: SignedPermutation) -> SignedPermutation:
    """r * s * r^{-1}; relabels every cycle point k as r(k)."""
    return r.compose(s).compose(r.inverse())


def induced_permutation(s: SignedPermutation, subset: Iterable[int]) -> SignedPermutation:
    return s.restrict_induced(subset)


def is_premap(s: SignedPermutation) -> bool:
    """Check d s d = s^{-1} and s(k) != -k on a symmetric domain."""
    if frozenset(-k for k in s.domain) != s.domain:
        raise ValidationError("premap test requires a symmetric domain")
    return _premap_violation(s) is None


def enumerate_alternating_premaps(positive: Iterable[int]):
    pos = sorted(frozenset(positive))
    for p_plus in enumerate_pairings(pos):
        for p_minus in enumerate_pairings(pos):
            yield pairings_to_premap(p_plus, p_minus)


def block_of(p: SetPartition, k: int) -> frozenset[int]:
    """The block of p that holds k."""
    for b in p.blocks:
        if k in b:
            return b
    raise KeyError(k)


def kernel_of(f: Mapping[int, object]) -> SetPartition:
    """Partition of the domain of f by equal values."""
    groups: dict[object, list[int]] = {}
    for k, v in f.items():
        groups.setdefault(v, []).append(k)
    return SetPartition(groups.values())


def _scalar_mode(values) -> str:
    has_float = any(isinstance(v, float) for v in values)
    has_exact = any(isinstance(v, (int, Fraction)) and not isinstance(v, bool) for v in values)
    if has_float and has_exact:
        raise ValidationError("mixed exact and floating-point values")
    return "float" if has_float else "exact"


def cumulants_from_moments(moments: Callable[[SetPartition], object], target: SetPartition):
    """Cumulant indexed by `target` from a partition-indexed moment oracle.

    k_target = sum over rho <= target of mu(rho, target) * a_rho.  The oracle
    must be defined on every partition below target; exact (int/Fraction) and
    float values may not be mixed.
    """
    terms = []
    for rho in enumerate_interval(SetPartition.singletons(target.ground), target):
        try:
            a = moments(rho)
        except KeyError as exc:
            raise ValidationError(f"moment oracle missing partition {rho!r}") from exc
        if a is None:
            raise ValidationError(f"moment oracle missing partition {rho!r}")
        terms.append(mobius(rho, target) * a)
    _scalar_mode(terms)
    return sum(terms)


def moments_from_cumulants(cumulants: Callable[[SetPartition], object], target: SetPartition):
    """Inverse relation: a_target = sum over rho <= target of k_rho."""
    terms = []
    for rho in enumerate_interval(SetPartition.singletons(target.ground), target):
        terms.append(cumulants(rho))
    _scalar_mode(terms)
    return sum(terms)


def bell_number(n: int) -> int:
    """Number of partitions of an n-set, by the standard recurrence."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def find_phi_neighbor(phi: SignedPermutation, alpha: SignedPermutation) -> int | None:
    """A point k with alpha^{-1}(k) = phi(k), if one exists."""
    inv = alpha.inverse()
    for k in sorted(phi.domain):
        if inv(k) == phi(k):
            return k
    return None


def count_phi_neighbors(phi: SignedPermutation, alpha: SignedPermutation) -> int:
    inv = alpha.inverse()
    return sum(1 for k in phi.domain if inv(k) == phi(k))


def gram_matrix(n: int, cap: int = WG_CAP) -> tuple[list[SetPartition], list[list[Poly]]]:
    """All pairings of [n] and the matrix of monomials N^{#(p v q)}."""
    _check_size(n, cap)
    partners = pairing_partners(n)
    rows = [[monomial(len(join_blocks(a, b))) for b in partners] for a in partners]
    return list(enumerate_pairings(range(1, n + 1))), rows


def wg_normalized(table: WeingartenTable, p_plus: SetPartition,
                  p_minus: SetPartition) -> PolyFrac:
    """wg(p+, p-) = N^{n - #(p+ v p-)} Wg(p+, p-)."""
    if p_plus.ground != p_minus.ground:
        raise ValidationError("pairings on different ground sets")
    lam = pairing_join_diagram(p_plus, p_minus)
    if 2 * lam.n != table.n:
        raise ValidationError("pairing size does not match the table")
    return table.wg(lam)
