"""Genus-expansion evaluation of trace moments and trace cumulants.

A trace expression encodes a product of traces of words O_c^{+/-1} X along
boundary cycles.  Its expected value expands as a sum over tuples of pairing
pairs (one alternating premap per colour): each term carries N to the Euler
characteristic of the gluing minus twice the number of traces, a product of
normalized Weingarten values, and the product of traces of the X matrices
along the particular cycles of the inverse vertex permutation.

Trace cumulants use the same gluings but weight each by a relative Weingarten
cumulant and by classical cumulants of the vertex traces, keeping only the
gluings that connect everything (`trace_cumulant`).  Coefficients depend only
on join diagrams and N, so the TableSet keeps them across calls: each product
of normalized Weingarten values, each relative cumulant, and the value of
each at N (a pole is raised again on every call, never stored).

All evaluators share one kernel, `_Gluings`, which runs on ints.  A pair of
pairings (p_plus, p_minus) glues a colour by the premap that takes each
positive point to minus its p_plus partner and each negative point to its
p_minus partner; each colour size's pairings, as partner arrays, and pairs
(with join blocks and diagram) are built once per process (`_pairing_table`).
K^{-1} is a tuple over codes 0..2n-1, one per signed position, given colour
by colour so that each colour's p_plus and p_minus halves of K^{-1} are
fixed runs of codes: each pairing's halves are built once per expression,
and `_Gluings.term_for` joins one pair's halves per colour by concatenation
and walks the vertex cycles, skipping mirrors with a bitmask of positions.
Each call keeps one cycle table: every distinct cycle of codes gets an id,
in first-seen order, with its label cycle and position bits made once, and
`term_for` returns ids, which tell gluings apart.

`_Gluings.slices` is the one loop over gluings, and every evaluator runs on
it: it yields at most GLUING_BLOCK gluings at a time, with the label cycles
first met in the slice, whose traces (`_TraceMemo`) or caller's values are
read once per slice.  So a call holds its cycle table, its sums and one
slice.  Every gluing's diagrams (`lambdas`) are known before the loop, so
each Weingarten factor, and each pole, comes before any trace.  Only
`expand_moment` decodes each gluing into an `ExpansionTerm`, which builds
its `Premap` only when `alpha` is read.

Exact sums run on integers.  A gluing's vertex cycles hold each position
exactly once, so the product of their trace denominators is D N^v for every
gluing, D the product of the positions' matrix denominators and v the number
of vertex cycles: an exact moment sums the products of integer trace
numerators per (diagrams, v).  Exact cumulant entries and symbolic moments
sum over the running lcm of their terms' denominators (`_add_over`), a
caller's values split once per argument (`_RationalValues`), and symbolic
results gather the N-exponent weights of each coefficient into one Laurent
polynomial (`_laurent`).  Float moments sum each label pattern's
coefficients as ints over one denominator and divide once, the correctly
rounded float of the exact sum; float cumulants add term by term.  A float
trace or result that is not finite raises ValidationError.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import CapExceededError, ValidationError
from .matrixlab import DenseMatrix, _integer_at_least, _slot_matrix, check_dimension, \
    trace_numerators
from .permap import Premap, SignedPermutation
from .ratpoly import PolyFrac, monomial
from .setpart import PARTITION_CAP, SetPartition, YoungDiagram, enumerate_partitions
from .weingarten import TableSet, join_blocks, pairing_partners, wg_cumulant

TERM_CAP = 500_000
# gluings per slice of every evaluator (`_Gluings.slices`): an untuned bound
# on the gluings and traces held at once (expansions run up to TERM_CAP
# gluings); every benchmark query has at most 225 gluings, so one slice
GLUING_BLOCK = 4096
# colours' trace-bit tuples whose pair block shapes are kept (`_block_shapes`)
BLOCK_SHAPES_CAP = 256

_DEFAULT_TABLES: TableSet | None = None


def default_tables() -> TableSet:
    global _DEFAULT_TABLES
    if _DEFAULT_TABLES is None:
        _DEFAULT_TABLES = TableSet()
    return _DEFAULT_TABLES


IDENTITY_SLOT = 0


def _integer_field(name: str, values: Mapping[int, int],
                   positions: Sequence[int]) -> dict[int, int]:
    """values at each position as ints; a bool or a non-integer names its
    position and the field."""
    out = {}
    for k in positions:
        v = values[k]
        if not _integer_at_least(v, -math.inf):
            raise ValidationError(f"position {k}: {name} must be an integer, got {v!r}")
        out[k] = int(v)
    return out


class TraceExpression:
    """A product of traces of words in O-factors and matrix slots.

    Positions are positive integers; `cycles` lists them in trace order.
    Each position k carries an O-exponent eps[k] (+1 or -1 for transpose), a
    colour color[k] (which independent O it uses), and a signed matrix slot
    slot[k] (negative = transposed matrix, 0 = identity).
    """

    def __init__(self, cycles: Sequence[Sequence[int]], eps: Mapping[int, int],
                 color: Mapping[int, int], slot: Mapping[int, int]):
        self.cycles = tuple(tuple(c) for c in cycles)
        pts = [k for c in self.cycles for k in c]
        if len(set(pts)) != len(pts):
            raise ValidationError("trace cycles overlap")
        if any(k <= 0 for k in pts):
            raise ValidationError("positions must be positive")
        self.positions = tuple(sorted(pts))
        self.eps = _integer_field("eps", eps, self.positions)
        self.color = _integer_field("color", color, self.positions)
        self.slot = _integer_field("slot", slot, self.positions)
        if any(v not in (1, -1) for v in self.eps.values()):
            raise ValidationError("eps values must be +1 or -1")

    @property
    def n(self) -> int:
        return len(self.positions)

    @property
    def num_traces(self) -> int:
        return len(self.cycles)

    def phi(self) -> SignedPermutation:
        return SignedPermutation.from_cycles(self.cycles)

    def positions_by_color(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for k in self.positions:
            out.setdefault(self.color[k], []).append(k)
        return {c: sorted(v) for c, v in sorted(out.items())}

    def vertex_label(self, k: int) -> int:
        """Effective matrix label at signed position k (transposed if k < 0)."""
        s = self.slot[abs(k)]
        if s == IDENTITY_SLOT:
            return IDENTITY_SLOT
        return s if k > 0 else -s

    # -- builders -------------------------------------------------------------

    @classmethod
    def single_trace(cls, factors: Sequence[tuple[int, int, int]],
                     start: int = 1) -> "TraceExpression":
        """One trace from (color, eps, slot) factors, positions start, start+1, ..."""
        ks = list(range(start, start + len(factors)))
        return cls([ks],
                   {k: f[1] for k, f in zip(ks, factors)},
                   {k: f[0] for k, f in zip(ks, factors)},
                   {k: f[2] for k, f in zip(ks, factors)})

    @classmethod
    def conjugated_word(cls, colors: Sequence[int], slots: Sequence[int],
                        start: int = 1) -> "TraceExpression":
        """tr(O_c1^T X_1 O_c1 O_c2^T X_2 O_c2 ...): each word letter becomes an
        odd position carrying the matrix and an even identity position."""
        factors = []
        for c, s in zip(colors, slots):
            factors.append((c, -1, s))
            factors.append((c, 1, IDENTITY_SLOT))
        return cls.single_trace(factors, start=start)

    def to_json(self) -> dict:
        return {"traces": [[{"color": self.color[k], "eps": self.eps[k],
                             "slot": self.slot[k]} for k in c] for c in self.cycles]}

    @classmethod
    def from_json(cls, data: Mapping) -> "TraceExpression":
        """From {"traces": [[{"color": c, "eps": e, "slot": s}, ...], ...]}; a
        part of another type raises ValidationError naming it."""
        traces = data.get("traces") if isinstance(data, Mapping) else None
        if not isinstance(traces, list):
            raise ValidationError(f"'traces' must be a list of traces, got {traces!r}")
        cycles = []
        eps: dict[int, int] = {}
        color: dict[int, int] = {}
        slot: dict[int, int] = {}
        k = 1
        for t, trace in enumerate(traces):
            if not isinstance(trace, list):
                raise ValidationError(f"traces[{t}] must be a list of entries, got {trace!r}")
            cyc = []
            for i, entry in enumerate(trace):
                if not (isinstance(entry, Mapping) and {"color", "eps", "slot"} <= entry.keys()):
                    raise ValidationError(f"traces[{t}][{i}] must be an object with the keys "
                                          f"'color', 'eps' and 'slot', got {entry!r}")
                cyc.append(k)
                eps[k] = entry["eps"]
                color[k] = entry["color"]
                slot[k] = entry["slot"]
                k += 1
            cycles.append(cyc)
        return cls(cycles, eps, color, slot)


def concatenate(exprs: Sequence[TraceExpression]) -> TraceExpression:
    """Relabel a list of expressions to consecutive positions, one after another."""
    cycles = []
    eps: dict[int, int] = {}
    color: dict[int, int] = {}
    slot: dict[int, int] = {}
    offset = 0
    for e in exprs:
        remap = {k: i + 1 + offset for i, k in enumerate(e.positions)}
        for c in e.cycles:
            cycles.append([remap[k] for k in c])
        for k in e.positions:
            eps[remap[k]] = e.eps[k]
            color[remap[k]] = e.color[k]
            slot[remap[k]] = e.slot[k]
        offset += e.n
    return TraceExpression(cycles, eps, color, slot)


@dataclass(frozen=True)
class ExpansionTerm:
    """One gluing of the expansion and everything needed to evaluate it."""

    pairings: tuple[tuple[SetPartition, SetPartition], ...]  # per colour
    # the premap's arcs; a function of the pairings, so left out of == and hash
    arcs: Mapping[int, int] = field(repr=False, compare=False)
    chi: int
    exponent: int
    wg_factor: PolyFrac
    lambdas: tuple[YoungDiagram, ...]
    vertex_cycles: tuple[tuple[int, ...], ...]
    vertex_labels: tuple[tuple[int, ...], ...]

    @functools.cached_property
    def alpha(self) -> Premap:
        """The gluing's alternating premap, built and validated on first read."""
        return Premap(self.arcs)


class _Pair(NamedTuple):
    """A pair of pairings (p_plus, p_minus) of the points 1..m, with what every
    gluing through it needs that depends on both pairings."""

    plus: int  # index of p_plus in the table's pairings
    minus: int  # index of p_minus
    blocks: tuple[tuple[int, ...], ...]  # blocks of the join p_plus v p_minus
    lam: int  # index of that join's diagram in the table's diagrams


@functools.lru_cache(maxsize=None)
def _pairing_table(m: int) -> tuple[tuple[tuple[int, ...], ...], tuple[_Pair, ...], tuple]:
    """(partners, pairs, diagrams) of the points 1..m, built once per colour
    size: the pairings as partner arrays on 0..m-1, in `enumerate_pairings`
    order, and every pair of indices (p_plus major) with its join blocks and
    the index of its diagram.  A colour's positions in increasing order
    relabel 1..m monotonically, which keeps the order of pairings and blocks."""
    partners = tuple(pairing_partners(m))
    pairs, diagrams = [], {}  # diagram -> index
    for i, p_plus in enumerate(partners):
        for j, p_minus in enumerate(partners):
            blocks = tuple(tuple(k + 1 for k in b) for b in join_blocks(p_plus, p_minus))
            lam = YoungDiagram(len(b) // 2 for b in blocks)
            pairs.append(_Pair(i, j, blocks, diagrams.setdefault(lam, len(diagrams))))
    return partners, tuple(pairs), tuple(diagrams)


@functools.lru_cache(maxsize=None)
def _diagram_table(sizes: tuple[int, ...]) -> tuple[tuple, tuple[int, ...], tuple]:
    """(lambdas, rows, columns) of colours of these sizes, built once per
    process: every tuple of the colours' diagrams, in the order the gluings
    first meet them (the product of the colours' lists, colour 0 slowest, as
    each colour's pairs meet its diagrams in index order); the rows of each;
    and per colour, each pair's diagram index times the colour's stride, so
    that a gluing's index in lambdas is the sum over its pairs."""
    tables = [_pairing_table(m) for m in sizes]
    lambdas = tuple(itertools.product(*(diagrams for _, _, diagrams in tables)))
    strides = [math.prod(len(t[2]) for t in tables[c + 1:]) for c in range(len(tables))]
    return (lambdas, tuple(sum(d.num_rows for d in lam) for lam in lambdas),
            tuple(tuple(pair.lam * stride for pair in pairs)
                  for (_, pairs, _), stride in zip(tables, strides)))


@functools.lru_cache(maxsize=None)
def _block_partitions(counts: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Set partitions of the indices 0, 1, ... that keep each run of counts[c]
    consecutive indices apart: the product over runs of the set partitions of
    each run, in `enumerate_partitions` order, as tuples of index blocks."""
    per_run = []
    for offset, m in zip(itertools.accumulate((0,) + counts), counts):
        per_run.append([tuple(tuple(offset + i - 1 for i in sorted(b)) for b in p.blocks)
                           for p in enumerate_partitions(range(1, m + 1),
                                                         cap=max(PARTITION_CAP, m))])
    return tuple(tuple(g for part in combo for g in part)
                 for combo in itertools.product(*per_run))


class _Gluings:
    """The gluing kernel (see the module docstring) and the call's cycle
    table: each distinct vertex cycle of codes has an id in `cycle_ids`, and
    per id `cycles` holds its codes, `labels` its label cycle and `bits` its
    positions (rank i as the bit 1 << i); `lambdas` lists the gluings'
    tuples of diagrams (`_diagram_table`).  Pairings, arcs and blocks are
    relabelled onto the real points only where they are read (`pairings`,
    `arcs`, `rho_choices`)."""

    def __init__(self, expr: TraceExpression, tables: TableSet, term_cap: int):
        self.tables = tables
        self.num_traces, self.n = expr.num_traces, expr.n
        by_color = expr.positions_by_color()
        odd = any(len(p) % 2 for p in by_color.values())
        self.total = 0 if odd else math.prod(
            math.prod(range(len(p) - 1, 0, -2)) ** 2 for p in by_color.values())
        if self.total > term_cap:
            raise CapExceededError(
                f"expansion has {self.total} terms, beyond the cap of {term_cap}")
        colours = [] if odd else list(by_color.values())
        phi_inv = expr.phi().inverse()
        # an arc x -> a of the premap becomes the arc src[x] -> dst[a] of K^{-1}
        src: dict[int, int] = {}
        dst: dict[int, int] = {}
        for k in expr.positions:
            for x in (k, -k):
                y = expr.eps[k] * x  # x -> y under d_eps
                src[x] = phi_inv(y) if y > 0 else y
                dst[x] = -phi_inv(-y) if y < 0 else y
        # code i stands for codes[i], the src of the i-th signed point of the
        # colours in turn, positive points then negative ones
        self.codes = [src[s * k] for pts in colours for s in (1, -1) for k in pts]
        code = {x: i for i, x in enumerate(self.codes)}
        rank = {k: 1 << i for i, k in enumerate(expr.positions)}
        self._code_bits = [rank[abs(x)] for x in self.codes]
        self._code_labels = [expr.vertex_label(x) for x in self.codes]
        # the code of each position, by the bit length of its bit
        self._starts = [None, *map(code.get, expr.positions)]
        self.cycle_ids: dict[tuple[int, ...], int] = {}
        self.cycles: list[tuple[int, ...]] = []
        self.labels: list[tuple[int, ...]] = []
        self.bits: list[int] = []
        self.choices: list[Sequence[_Pair]] = [[]] if odd else []  # no gluing when odd
        # per colour, each pairing's half of K^{-1} as p_plus and as p_minus
        self.halves: list[tuple[list[tuple[int, ...]], list[tuple[int, ...]]]] = []
        # per colour, (0, least position, ...): point i of the table is points[i]
        self.points: list[tuple[int, ...]] = []
        # choices run over colours in sorted order; ker(colour) orders them by least position
        firsts = [pts[0] for pts in by_color.values()]
        self.ker_order = sorted(range(len(firsts)), key=firsts.__getitem__)
        for pts in colours:
            tables.table(len(pts))  # a table beyond its cap fails before enumeration
            self.points.append((0, *pts))
            partners, pairs, _ = _pairing_table(len(pts))
            # the arc x -> -p(x) of p_plus and -x -> p(x) of p_minus
            to_minus = [code[dst[-k]] for k in pts]
            to_plus = [code[dst[k]] for k in pts]
            self.halves.append(([tuple(map(to_minus.__getitem__, p)) for p in partners],
                                [tuple(map(to_plus.__getitem__, p)) for p in partners]))
            self.choices.append(pairs)
        self._pairings: list[list[SetPartition]] | None = None
        self._arcs: list[tuple] | None = None
        self.lambdas, self._rows, self._columns = \
            ((), (), ()) if odd else _diagram_table(tuple(map(len, colours)))

    def term_for(self, combo: tuple[_Pair, ...]) -> tuple[int, ...]:
        """The ids in `cycle_ids` of the gluing's vertex cycles: the particular
        cycles of K^{-1}, one cycle of each mirror pair, the one through the
        pair's least point, which is positive; in order of that point."""
        kinv = ()
        for (plus, minus), pair in zip(self.halves, combo):
            kinv += plus[pair.plus] + minus[pair.minus]
        cycle_ids, cycles, labels, bits = self.cycle_ids, self.cycles, self.labels, self.bits
        ids = []
        free = (1 << self.n) - 1  # the positions on no vertex cycle yet
        while free:
            start = self._starts[(free & -free).bit_length()]
            cyc = [start]
            k = kinv[start]
            while k != start:
                cyc.append(k)
                k = kinv[k]
            cyc = tuple(cyc)
            cid = cycle_ids.get(cyc)
            if cid is None:
                cid = cycle_ids[cyc] = len(cycles)
                cycles.append(cyc)
                # IDENTITY_SLOT is 0, so filter(None, ...) drops the identity factors
                labels.append(tuple(filter(None, map(self._code_labels.__getitem__, cyc))))
                bits.append(sum(map(self._code_bits.__getitem__, cyc)))
            ids.append(cid)
            # the cycle and its mirror: a cycle holding x and -x would be its own
            # mirror, reversed by negation, so it would take some x to -x, which
            # no premap does
            free ^= bits[cid]
        return tuple(ids)

    def slices(self) -> Iterator[tuple[list[tuple[tuple[_Pair, ...], tuple[int, ...], int, int]],
                                       list[tuple[int, ...]]]]:
        """Every gluing, in order, in slices of at most GLUING_BLOCK: the
        slice's gluings, each as (combo, vertex cycle ids, exponent, index of
        its diagrams in `lambdas`), and the label cycles of the ids first met
        in the slice, one per id.  No two gluings share their ids: the vertex
        cycles and their mirrors make up K^{-1}, which fixes the premap."""
        columns = self._columns
        # each gluing's index in `lambdas`, in step with the combos (one colour: its column)
        index = iter(columns[0]) if len(columns) == 1 else map(sum, itertools.product(*columns))
        # per diagrams, the exponent less the number of vertex cycles
        base = [k - self.num_traces - self.n for k in self._rows]
        combos = itertools.product(*self.choices)
        known = 0  # cycle ids of earlier slices
        while block := list(itertools.islice(combos, GLUING_BLOCK)):
            rows = [(combo, ids, base[lam] + len(ids), lam)
                    for combo, ids, lam in zip(block, map(self.term_for, block), index)]
            yield rows, self.labels[known:]
            known = len(self.labels)

    def pairings(self, combo: tuple[_Pair, ...]) -> tuple[tuple[SetPartition, SetPartition], ...]:
        """Each colour's (p_plus, p_minus) on its positions; each colour's
        pairings are relabelled once per kernel, on the first read."""
        if self._pairings is None:
            self._pairings = [[SetPartition([(pts[i], pts[a + 1])
                                             for i, a in enumerate(p, 1) if i <= a])
                               for p in _pairing_table(len(pts) - 1)[0]]
                              for pts in self.points]
        return tuple((real[pair.plus], real[pair.minus])
                     for real, pair in zip(self._pairings, combo))

    def arcs(self, combo: tuple[_Pair, ...]) -> dict[int, int]:
        """The arcs of the gluing's premap on the signed positions; each
        pairing's arc ends are relabelled once per kernel, on the first read."""
        if self._arcs is None:
            self._arcs = []
            for pts in self.points:
                partners = _pairing_table(len(pts) - 1)[0]
                self._arcs.append(((*pts[1:], *(-k for k in pts[1:])),
                                   [tuple(-pts[a + 1] for a in p) for p in partners],
                                   [tuple(pts[a + 1] for a in p) for p in partners]))
        out: dict[int, int] = {}
        for (points, plus, minus), pair in zip(self._arcs, combo):
            out.update(zip(points, plus[pair.plus] + minus[pair.minus]))
        return out

    def rho_choices(self, combo: tuple[_Pair, ...]) -> tuple[list[tuple[int, ...]], tuple]:
        """The blocks of pi (the join of the gluing's pairings) on the
        positions, colour by colour, and every rho in [pi, ker(colour)] as
        groups of block indices, in the order `enumerate_interval(pi,
        ker(colour))` yields them."""
        order = self.ker_order
        blocks = [tuple(map(self.points[i].__getitem__, b))
                  for i in order for b in combo[i].blocks]
        return blocks, _block_partitions(tuple(len(combo[i].blocks) for i in order))


def expand_moment(expr: TraceExpression, tables: TableSet | None = None,
                  term_cap: int = TERM_CAP) -> Iterator[ExpansionTerm]:
    """Stream every gluing term of the expected product of normalized traces.

    Empty for expressions with an odd number of O-factors of some colour."""
    glu = _Gluings(expr, tables or default_tables(), term_cap)
    vertex: list[tuple[int, ...]] = []  # per cycle id, on the signed positions
    for rows, _ in glu.slices():
        vertex += (tuple(map(glu.codes.__getitem__, c)) for c in glu.cycles[len(vertex):])
        for combo, ids, exponent, lam in rows:
            lambdas = glu.lambdas[lam]
            yield ExpansionTerm(
                pairings=glu.pairings(combo), arcs=glu.arcs(combo),
                chi=exponent + 2 * glu.num_traces, exponent=exponent,
                wg_factor=glu.tables.wg_product(lambdas), lambdas=lambdas,
                vertex_cycles=tuple(map(vertex.__getitem__, ids)),
                vertex_labels=tuple(map(glu.labels.__getitem__, ids)))


@dataclass
class MomentResult:
    value: object
    term_count: int

    def to_json(self) -> dict:
        val = str(self.value) if isinstance(self.value, Fraction) else self.value
        return {"value": val, "terms": self.term_count}


def _check_mode(mode: str) -> None:
    if mode not in ("exact", "float"):
        raise ValidationError(f"mode must be 'exact' or 'float', got {mode!r}")


def _resolve_for_mode(matrices: Mapping[int, DenseMatrix], n: int, mode: str):
    _check_mode(mode)
    out = {}
    for label, m in matrices.items():
        if m.n != n:
            raise ValidationError(f"matrix {label} is {m.n}x{m.n}, expected {n}x{n}")
        if mode == "exact" and m.mode != "exact":
            raise ValidationError("exact mode requires exact (rational) matrices")
        out[label] = m.to_float() if mode == "float" else m
    return out


class _TraceMemo(dict):
    """Traces along label cycles for one evaluation at N, keyed by cycle.

    Exact: the integer numerator T of each normalized trace T / dens[cycle]
    (the empty cycle has N over N).  Float: the normalized trace.  `value`
    gives the normalized trace in both modes.  `fill` computes the cycles
    not held yet in one `trace_numerators` batch; a lookup only reads.  A
    slot label in `labels` with no matrix fails here, before any
    enumeration or coefficient."""

    def __init__(self, matrices: Mapping[int, DenseMatrix], n: int, mode: str,
                 labels: Iterable[int]):
        super().__init__()
        check_dimension(n)
        self.mats = _resolve_for_mode(matrices, n, mode)
        for label in labels:
            if label:
                _slot_matrix(self.mats, label)
        self.exact = mode == "exact"
        self.dens = {(): n}
        self[()] = n if self.exact else 1.0

    @property
    def value(self) -> Callable[[tuple[int, ...]], Fraction | float]:
        """The normalized trace of a filled cycle, forming each exact Fraction
        once; made per read, as one kept on the memo would be a reference cycle."""
        return functools.lru_cache(maxsize=None)(self._fraction) if self.exact \
            else self.__getitem__

    def _fraction(self, cycle: tuple[int, ...]) -> Fraction:
        return Fraction(self[cycle], self.dens[cycle])

    def fill(self, cycles: Iterable[tuple[int, ...]]) -> None:
        """Compute the cycles not held yet, in one batch, in first-seen order.
        A float trace that is not finite raises ValidationError naming its
        cycle."""
        fresh = [c for c in dict.fromkeys(cycles) if c not in self]
        nums, dens = trace_numerators(fresh, self.mats, normalized=True)
        if self.exact:
            self.update(zip(fresh, nums))
            self.dens.update(zip(fresh, dens))
            return
        for cycle, t, d in zip(fresh, nums, dens):
            value = self[cycle] = t / d
            if not math.isfinite(value):
                raise ValidationError(f"the normalized trace along the label cycle {cycle} "
                                      f"is not finite: {value!r}")


def _pattern_sum(terms: Iterable[tuple[tuple, Fraction]], trace, mode: str):
    """Sum over (label pattern, coefficient) of the coefficient times the
    product of traces along the pattern, in the given order; a float sum
    that is not finite raises ValidationError."""
    exact = mode != "float"
    total = Fraction(0) if exact else 0.0
    for pattern, coeff in terms:
        total += (coeff if exact else float(coeff)) * \
            math.prod(map(trace, pattern), start=Fraction(1) if exact else 1.0)
    return total if exact else _finite(total)


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValidationError(f"the result is not finite: {value!r}")
    return value


def evaluate_moment(expr: TraceExpression, matrices: Mapping[int, DenseMatrix],
                    n: int, mode: str = "exact", tables: TableSet | None = None,
                    term_cap: int = TERM_CAP) -> MomentResult:
    """Exact (or float) value of the expected product of normalized traces.

    A slot label with no matrix fails first; then coefficients are evaluated
    at N with pole detection, all of them before any trace.  Float sums the
    coefficients per vertex trace pattern, so each distinct product of
    traces is evaluated once."""
    memo = _TraceMemo(matrices, n, mode, expr.slot.values())
    glu = _Gluings(expr, tables or default_tables(), term_cap)
    # the Weingarten factor at N once per diagrams, in first-seen order
    wg = [glu.tables.wg_product_at(lambdas, n) for lambdas in glu.lambdas]
    labels = glu.labels
    if not memo.exact:
        # every exponent is at least -r - n, and any lo at or below the least
        # one gives each pattern the same correctly rounded s / den
        lo = -glu.num_traces - glu.n
        scale = math.lcm(*(w.denominator for w in wg))
        scaled = [w.numerator * (scale // w.denominator) for w in wg]
        sums: dict[tuple, int] = {}  # per label pattern
        for rows, fresh in glu.slices():
            memo.fill(fresh)
            for _, ids, exponent, lam in rows:
                pattern = tuple(map(labels.__getitem__, ids))
                sums[pattern] = sums.get(pattern, 0) + scaled[lam] * n ** (exponent - lo)
        den = scale * n ** -lo
        return MomentResult(value=_pattern_sum(((pattern, s / den) for pattern, s in sums.items()),
                                               memo.value, mode),
                            term_count=glu.total)
    nums: list[int] = []  # per cycle id
    # (lam, cycles) -> [sum of prod T, the shared prod of dens, exponent]
    sums: dict[tuple, list[int]] = {}
    for rows, fresh in glu.slices():
        memo.fill(fresh)
        nums += map(memo.__getitem__, fresh)
        for _, ids, exponent, lam in rows:
            group = sums.get((lam, len(ids)))
            if group is None:
                group = sums[lam, len(ids)] = \
                    [0, math.prod(memo.dens[labels[i]] for i in ids), exponent]
            group[0] += math.prod(map(nums.__getitem__, ids))
    value = sum((wg[lam] * Fraction(n) ** exponent * Fraction(s, den)
                 for (lam, _), (s, den, exponent) in sums.items()), Fraction(0))
    return MomentResult(value=value, term_count=glu.total)


@dataclass
class AsymptoticMoment:
    """Large-N limit: a finite combination of products of normalized traces."""

    terms: tuple[tuple[Fraction, tuple[tuple[int, ...], ...]], ...]

    def evaluate(self, matrices: Mapping[int, DenseMatrix], n: int, mode: str = "exact"):
        cycles = [c for _, pattern in self.terms for c in pattern]
        memo = _TraceMemo(matrices, n, mode, itertools.chain.from_iterable(cycles))
        memo.fill(cycles)
        return _pattern_sum(((pattern, c) for c, pattern in self.terms), memo.value, mode)

    def to_json(self) -> list:
        return [{"coefficient": str(c), "traces": [list(cc) for cc in pat]}
                for c, pat in self.terms]


def asymptotic_moment(expr: TraceExpression, tables: TableSet | None = None,
                      term_cap: int = TERM_CAP) -> AsymptoticMoment:
    """Keep only exponent-zero gluings, with Weingarten limits as coefficients."""
    glu = _Gluings(expr, tables or default_tables(), term_cap)
    limits: dict[int, Fraction] = {}  # per diagrams index
    acc: dict[tuple, Fraction] = {}
    labels = glu.labels
    for rows, _ in glu.slices():
        for _, ids, exponent, lam in rows:
            if exponent == 0:
                limit = limits.get(lam)
                if limit is None:
                    limit = limits[lam] = \
                        glu.tables.wg_product(glu.lambdas[lam]).limit_at_infinity()
                pattern = tuple(map(labels.__getitem__, ids))
                acc[pattern] = acc.get(pattern, Fraction(0)) + limit
    terms = tuple((c, pat) for pat, c in sorted(acc.items()) if c != 0)
    return AsymptoticMoment(terms=terms)


# -- trace cumulants -----------------------------------------------------------


@functools.lru_cache(maxsize=BLOCK_SHAPES_CAP)
def _block_shapes(bits: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
    """(ids, shapes) on a colour whose point i (1..m) lies on the trace of bit
    bits[i - 1]: the join of the i-th pair of `_pairing_table(m)` has the
    shape shapes[ids[i]], the (size, mask of traces) of each of its blocks.
    Indexed by position in that table, so a rebuilt table reads it alike;
    memoised for the process, for at most BLOCK_SHAPES_CAP bit tuples."""
    pairs = _pairing_table(len(bits))[1]
    shapes: dict[tuple, int] = {}  # shape -> id
    ids = tuple(shapes.setdefault(tuple((len(b), sum({bits[i - 1] for i in b}))
                                        for b in pair.blocks), len(shapes))
                for pair in pairs)
    return ids, tuple(shapes)


@functools.lru_cache(maxsize=None)
def _connecting_rhos(r: int, vertex_masks: tuple[int, ...],
                     block_shape: tuple[tuple[tuple[int, int], ...], ...],
                     tau_blocks: tuple[tuple[int, ...], ...]) -> tuple[tuple[tuple, tuple], ...]:
    """(key, rho) for every rho in [pi, ker(colour)] whose join with phi v
    tau_sigma connects the r traces, in `rho_choices` order.

    The arguments are a gluing's shape: the trace mask of each vertex cycle
    and, colour by colour in ker(colour) order, the size and trace mask of
    each block of pi.  A join connects when the masks of its parts, merged
    while they meet, reach every trace from trace 0.  The key names
    C_{pi,pi,rho} by the sizes of pi's blocks inside each block of rho."""
    flat = [b for per_colour in block_shape for b in per_colour]
    # the components of phi v tau_sigma, as masks
    parts = [functools.reduce(operator.or_, (vertex_masks[i] for i in blk))
             for blk in tau_blocks]
    hits = []
    for rho in _block_partitions(tuple(map(len, block_shape))):
        masks = parts + [functools.reduce(operator.or_, (flat[j][1] for j in g)) for g in rho]
        reach, last = 1, 0
        while reach != last:
            last = reach
            for m in masks:
                if m & reach:
                    reach |= m
        if reach == (1 << r) - 1:
            hits.append((tuple(sorted(tuple(sorted(flat[j][0] for j in g)) for g in rho)), rho))
    return tuple(hits)


def trace_cumulant(exprs: Sequence[TraceExpression], *,
                   matrices: Mapping[int, DenseMatrix] | None = None,
                   n: int | None = None,
                   mode: str = "exact",
                   trace_value: Callable[[tuple[int, ...]], Fraction] | None = None,
                   kappa: Callable[[tuple[tuple[int, ...], ...]], Fraction] | None = None,
                   symbolic: bool = False,
                   tables: TableSet | None = None,
                   term_cap: int = TERM_CAP):
    """Joint cumulant of the unnormalized traces of single-trace expressions.

    k_r(Y_1, ..., Y_r) = sum over gluings of N^(chi - r) times the relative
    Weingarten cumulant C_{pi,pi,rho} times classical cumulants of the vertex
    traces, over (rho, tau) whose join with the trace partition connects
    everything.

    pi is the join of the gluing's pairings and rho runs over
    [pi, ker(colour)] as groups of pi's blocks (`_Gluings.rho_choices`).
    Which (rho, tau) connect, and which relative cumulants they name, is
    scanned once per entry (`_connecting_rhos`): a tau and a gluing shape,
    the trace masks (trace t as the bit 1 << t) of the vertex cycles and the
    block shape id of each colour's pair (`_block_shapes`).  Exact and
    symbolic results sum per entry and expand the sums into one weight per
    (N exponent, relative cumulant); float results add term by term in
    gluing and rho order.  Gluings run in the slices of `_Gluings.slices`,
    each with one batch of traces of the built-in matrices.

    Deterministic slot matrices are the built-in path (higher vertex-trace
    cumulants vanish), and a slot label with no matrix fails before any
    enumeration; pass `kappa` to supply them for random slots.  With
    symbolic=True the result is a PolyFrac in N and `trace_value` must return
    exact N-free values for label cycles.  In exact and symbolic mode a
    caller's `trace_value` and `kappa` must return ints or Fractions, else
    ValidationError names the argument; float mode takes floats too.  Both
    are called once per distinct argument, in first-met order.
    """
    _check_mode(mode)
    tables = tables or default_tables()
    if not exprs:
        raise ValidationError("trace_cumulant needs at least one expression")
    if any(e.num_traces != 1 for e in exprs):
        raise ValidationError("trace_cumulant takes single-trace expressions")
    expr = concatenate(exprs)
    r = len(exprs)
    if symbolic:
        if trace_value is None:
            raise ValidationError("symbolic cumulants need an N-free trace_value")
    elif trace_value is not None:
        # random-slot path: the caller supplies expected vertex traces (and
        # kappa for the higher vertex-trace cumulants)
        check_dimension(n)
    elif matrices is None or n is None:
        raise ValidationError("numeric cumulants need matrices and N")
    memo = _TraceMemo(matrices, n, mode, expr.slot.values()) if trace_value is None else None
    exact = symbolic or mode == "exact"
    if exact:  # numerators, with their denominators in `.dens`
        values = memo if memo is not None else _RationalValues(trace_value, "trace_value")
        kappas = None if kappa is None else _RationalValues(kappa, "kappa")
    else:
        tv = memo.value if memo is not None else functools.lru_cache(maxsize=None)(trace_value)
        if kappa is not None:
            kappa = functools.lru_cache(maxsize=None)(kappa)

    glu = _Gluings(expr, tables, term_cap)
    bit = {k: 1 << t for t, cyc in enumerate(expr.cycles) for k in cyc}  # trace t
    code_bits = [bit[abs(x)] for x in glu.codes]
    trace_masks: list[int] = []  # per cycle id, the traces it touches
    # per colour, the block shape id of each pair and the shapes by id
    block_shapes = [_block_shapes(tuple(map(bit.__getitem__, pts[1:]))) for pts in glu.points]
    order = glu.ker_order
    ground = expr.positions
    c_cache = tables.relative_cumulants
    c_at_n: dict[tuple, Fraction | None] = {}  # this call's keys, at N unless symbolic
    # without kappa, per cycle id: the trace (float) or its numerator, over dens
    nums: list = []
    dens: list[int] = []
    one = 1 if exact else Fraction(1)

    def build_cumulants(combo: tuple[_Pair, ...], hits: Sequence[tuple[tuple, tuple]]) -> None:
        """C_{pi,pi,rho} for each key of hits new to the call, built on this
        gluing's blocks unless the tables hold it, and evaluated at N."""
        blocks = None
        for key, rho in hits:
            if key in c_at_n:
                continue
            if key not in c_cache:
                if blocks is None:
                    blocks, _ = glu.rho_choices(combo)
                pi = SetPartition(blocks, ground=ground)
                rho_part = SetPartition([[k for j in g for k in blocks[j]] for g in rho],
                                        ground=ground)
                c_cache[key] = wg_cumulant(tables, pi, pi, rho_part)
            c_at_n[key] = None if symbolic else tables.cumulant_at(key, n)

    def kappa_terms(ids: tuple[int, ...]) -> Iterator[tuple[int, tuple, object, int]]:
        """(index, tau, k, den) per partition tau of the vertex cycles whose
        product of vertex-trace cumulants k / den (floats over 1) is not 0."""
        labels = tuple(map(glu.labels.__getitem__, ids))
        for t, tau in enumerate(_block_partitions((len(ids),))):
            if not exact:
                k, den = math.prod((tv(labels[b[0]]) if len(b) == 1 else
                                    kappa(tuple(map(labels.__getitem__, b))) for b in tau),
                                   start=Fraction(1)), 1
            else:
                k = den = 1
                for b in tau:
                    if len(b) == 1:
                        memo_b, arg = values, labels[b[0]]
                    else:
                        memo_b, arg = kappas, tuple(map(labels.__getitem__, b))
                    k *= memo_b[arg]
                    den *= memo_b.dens[arg]
            if k:
                yield t, tau, k, den

    # (vertex masks, block shape ids, tau index) -> [k summed over den (exact),
    # den, connecting (key, rho)s, N exponent, coefficients (float)]
    entries: dict[tuple, list] = {}
    total = 0.0  # float: each hit's coefficient times k, in gluing and rho order
    # each gluing's block shape ids, in step with the gluings
    bids = itertools.product(*(ids for ids, _ in block_shapes))
    for rows, fresh in glu.slices():
        if memo is not None:
            memo.fill(fresh)
        if kappa is None:  # a caller's trace_value once per new cycle, in first-seen order
            nums += map(values.__getitem__ if exact else tv, fresh)
            dens += map(values.dens.__getitem__, fresh) if exact else [1] * len(fresh)
        trace_masks += [sum({*map(code_bits.__getitem__, c)})
                        for c in glu.cycles[len(trace_masks):]]
        for (combo, ids, exponent, _), bid in zip(rows, bids):
            if kappa is None:  # tau is the discrete partition
                k = math.prod(map(nums.__getitem__, ids), start=one)
                if not k:
                    continue
                terms = ((0, None, k, math.prod(map(dens.__getitem__, ids))),)
            else:
                terms = kappa_terms(ids)
            masks = tuple(map(trace_masks.__getitem__, ids))
            for t, tau, k, den in terms:
                entry = entries.get((masks, bid, t))
                if entry is None:
                    shape = [shapes[i] for (_, shapes), i in zip(block_shapes, bid)]
                    hits = _connecting_rhos(r, masks, tuple(map(shape.__getitem__, order)),
                                            tuple((i,) for i in range(len(ids)))
                                            if tau is None else tau)
                    build_cumulants(combo, hits)
                    e = exponent + r  # chi - r
                    entry = entries[masks, bid, t] = [
                        0, den, hits, e,
                        None if exact else [float(c_at_n[key] * Fraction(n) ** e)
                                            for key, _ in hits]]
                if not exact:
                    for coeff in entry[4]:
                        total = total + coeff * k
                    continue
                if den == entry[1]:  # the common case, without a call
                    entry[0] += k
                else:
                    _add_over(entry, k, den)
    if not exact:
        return _finite(total)
    # per (N exponent, key), in first-hit order: [sum, den]
    weights: dict[tuple, list[int]] = {}
    for k_sum, den, hits, e, _ in entries.values():
        for key, _ in hits:
            _add_over(weights.setdefault((e, key), [0, 1]), k_sum, den)
    if symbolic:
        return _symbolic_sum(weights, c_cache.__getitem__)
    # sum c(key) w / d per N exponent, then one power each
    sums: dict[int, Fraction] = {}
    for (e, key), (w, d) in weights.items():
        sums[e] = sums.get(e, 0) + c_at_n[key] * Fraction(w, d)
    return sum((s * Fraction(n) ** e for e, s in sums.items()), Fraction(0))


class _RationalValues(dict):
    """A caller's rational values per argument, as `_TraceMemo` holds traces:
    `self[arg]` calls `func(arg)` on the first read only and keeps its
    numerator, `dens[arg]` its denominator.  A value that is not an int or a
    Fraction (a bool or a float among them) raises ValidationError."""

    def __init__(self, func: Callable, name: str):
        super().__init__()
        self.func, self.name = func, name
        self.dens: dict = {}

    def __missing__(self, arg) -> int:
        v = self.func(arg)
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            raise ValidationError(f"{self.name}({arg!r}) must be rational (an int or a "
                                  f"Fraction), got {v!r}")
        self.dens[arg] = v.denominator
        self[arg] = v.numerator
        return v.numerator


def _add_over(acc: list, k: int, den: int) -> None:
    """Add k / den onto acc[0] / acc[1], over the lcm of both denominators."""
    if den == acc[1]:
        acc[0] += k
        return
    if acc[1] % den:
        lcm = math.lcm(acc[1], den)
        acc[0] *= lcm // acc[1]
        acc[1] = lcm
    acc[0] += k * (acc[1] // den)


def _laurent(terms: Mapping[int, tuple[int, int]]) -> PolyFrac:
    """The sum of (w / d) N^e over the items e: (w, d), as one PolyFrac over
    N^-lo times the lcm of the ds (lo the least exponent, or 0)."""
    lo = min([0, *terms])
    den = math.lcm(*(d for _, d in terms.values()))
    coeffs = [0] * (max(terms) - lo + 1)
    for e, (w, d) in terms.items():
        coeffs[e - lo] += w * (den // d)
    return PolyFrac(tuple(coeffs), monomial(-lo, den))


def _symbolic_sum(weights: Mapping[tuple, tuple[int, int]],
                  coefficient: Callable[[object], PolyFrac]) -> PolyFrac:
    """The sum of coefficient(key) (w / d) N^e over the items (e, key): (w, d),
    one Laurent polynomial per key."""
    by_key: dict[object, dict[int, tuple[int, int]]] = {}
    for (e, key), weight in weights.items():
        by_key.setdefault(key, {})[e] = weight
    return sum((coefficient(key) * poly for key, terms in by_key.items()
                if (poly := _laurent(terms))), PolyFrac(0))


def moment_symbolic(expr: TraceExpression,
                    trace_value: Callable[[tuple[int, ...]], Fraction | int],
                    tables: TableSet | None = None,
                    term_cap: int = TERM_CAP) -> PolyFrac:
    """The expected product of normalized traces as an exact PolyFrac in N,
    for N-free vertex trace values (block-repeated deterministic matrices).

    `trace_value` must return an int or a Fraction, else ValidationError
    names the cycle; it is called once per distinct cycle, in first-seen
    order."""
    glu = _Gluings(expr, tables or default_tables(), term_cap)
    values = _RationalValues(trace_value, "trace_value")
    nums: list[int] = []  # per cycle id, over dens
    dens: list[int] = []
    # (exponent, lam) -> [sum of the products of traces, over den]
    weights: dict[tuple, list[int]] = {}
    for rows, fresh in glu.slices():
        nums += map(values.__getitem__, fresh)  # trace_value once per cycle, in first-seen order
        dens += map(values.dens.__getitem__, fresh)
        for _, ids, exponent, lam in rows:
            weight = weights.get((exponent, lam))
            if weight is None:
                weight = weights[exponent, lam] = [0, 1]
            _add_over(weight, math.prod(map(nums.__getitem__, ids)),
                      math.prod(map(dens.__getitem__, ids)))
    return _symbolic_sum(weights, lambda lam: glu.tables.wg_product(glu.lambdas[lam]))


def to_unnormalized(value, num_traces: int, n: int):
    """Convert a product of normalized traces to plain traces: times N per trace."""
    if isinstance(value, PolyFrac):
        return value * PolyFrac.n_power(num_traces)
    if isinstance(value, Fraction):
        return value * Fraction(n) ** num_traces
    return value * float(n) ** num_traces


def predicted_second_order_cov(phi_ab: Sequence[Sequence], phi_abt: Sequence[Sequence],
                               p: int, q: int):
    """Spoke prediction for the limiting covariance of two cyclically
    alternating centred products: zero unless p = q, else the sum over cyclic
    shifts of products of first-order mixed moments, direct and transposed."""
    if p != q:
        return Fraction(0)
    if len(phi_ab) != p or len(phi_abt) != p:
        raise ValidationError("need p x q tables of first-order values")
    total = Fraction(0)
    for k in range(p):
        direct = Fraction(1)
        flipped = Fraction(1)
        for i in range(p):
            direct *= Fraction(phi_ab[i][(k - i) % p])
            flipped *= Fraction(phi_abt[i][(k + i) % p])
        total += direct + flipped
    return total


def center_slots(matrices: Mapping[int, DenseMatrix],
                 labels: Iterable[int] | None = None) -> dict[int, DenseMatrix]:
    """Replace X by X - tr(X) Id (normalized trace) for the selected labels."""
    out = dict(matrices)
    for label in (labels if labels is not None else list(matrices)):
        m = out[label]
        ident = DenseMatrix.identity(m.n, mode=m.mode)
        out[label] = m.sub(ident.scale(m.normalized_trace()))
    return out
