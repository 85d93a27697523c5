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
p_minus partner; each colour size's pairings, as partner arrays, and the
diagram index of each pair's join, as one flat tuple, are built once per
process (`_pairing_table`).  A gluing chooses p_plus and p_minus of each
colour as two indices.  K^{-1} is a tuple over codes 0..2n-1, one per signed
position, given colour by colour so that each colour's p_plus and p_minus
halves of K^{-1} are fixed runs of codes: each pairing's halves are built
once per expression, and `_Gluings.term_for` joins the chosen halves by
concatenation and walks the vertex cycles, skipping mirrors with a bitmask
of positions.
Each call keeps one cycle table: every distinct cycle of codes gets an id,
in first-seen order, with its label cycle and position bits made once, and
`term_for` returns ids, which tell gluings apart.  An empty trace, tr(I) / N
= 1, is one vertex cycle of its own on every gluing, with no position and
the empty label cycle.  The kernel is set up from plain dicts and lists, and
`concatenate` relabels expressions that are valid already without
validating them again.

`_Gluings.slices` is the one loop over gluings, and every evaluator runs on
it: it yields at most GLUING_BLOCK gluings at a time, with the label cycles
first met in the slice, whose traces (`_TraceMemo`) or caller's values are
read once per slice.  So a call holds its cycle table, its sums and one
slice.  Every gluing's diagrams (`lambdas`) are known before the loop, so
each Weingarten factor, and each pole, comes before any trace.  Only
`expand_moment` decodes each gluing into an `ExpansionTerm`, which builds
its `Premap` only when `alpha` is read.

Sums run on integers, in every mode, to the end: a numeric result forms
one Fraction.  A float trace is a dyadic rational, held exactly over N
times one power of two for all the call's float traces, so float mode runs
the exact sums and rounds the result once (`_to_float`): no rounding is
left but in the float traces themselves, and no result depends on the
order of the gluings.  Moments sum the products of integer trace
numerators per (exponent, diagrams) over the running lcm of the gluings'
denominators (`_moment_sums`, shared by `evaluate_moment` and
`moment_symbolic`; the gluings of one group share theirs, but for a
caller's values), and cumulant entries sum the same way (`_add_over`).
Each group's sum times its Weingarten value or relative cumulant at N and
its power of N is then added on ints too (`_add_term`).  A caller's values
split once per argument (`_RationalValues`), and symbolic results gather
the N-exponent weights of each coefficient into one Laurent polynomial
(`_laurent`).  A float trace that is not finite, or a float result beyond
the float range, raises ValidationError.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import CapExceededError, ValidationError
from .matrixlab import DenseMatrix, _integer_at_least, _slot_matrix, check_dimension, \
    trace_numerators
from .permap import Premap, SignedPermutation, pairings_to_premap
from .ratpoly import PolyFrac, monomial
from .setpart import PARTITION_CAP, SetPartition, YoungDiagram, enumerate_partitions
from .weingarten import TableSet, join_blocks, pairing_partners

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
        cycles = tuple(tuple(c) for c in cycles)
        pts = [k for c in cycles for k in c]
        if len(set(pts)) != len(pts):
            raise ValidationError("trace cycles overlap")
        if any(k <= 0 for k in pts):
            raise ValidationError("positions must be positive")
        positions = tuple(sorted(pts))
        eps = _integer_field("eps", eps, positions)
        color = _integer_field("color", color, positions)
        slot = _integer_field("slot", slot, positions)
        if any(v not in (1, -1) for v in eps.values()):
            raise ValidationError("eps values must be +1 or -1")
        self._hold(cycles, positions, eps, color, slot)

    def _hold(self, cycles: tuple[tuple[int, ...], ...], positions: tuple[int, ...],
              eps: dict[int, int], color: dict[int, int],
              slot: dict[int, int]) -> "TraceExpression":
        """Take parts that are valid already, as `__init__` makes them: the
        one place that sets the attributes; `concatenate` builds on it."""
        self.cycles, self.positions = cycles, positions
        self.eps, self.color, self.slot = eps, color, slot
        return self

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
        return dict(sorted(out.items()))  # each list in order, as the positions are

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
    """Relabel a list of expressions to consecutive positions, one after
    another; each is valid already, so the result is not validated again."""
    cycles: list[tuple[int, ...]] = []
    eps, color, slot = {}, {}, {}
    offset = 0
    for e in exprs:
        remap = {k: i for i, k in enumerate(e.positions, offset + 1)}
        cycles += (tuple(map(remap.__getitem__, c)) for c in e.cycles)
        for k, i in remap.items():
            eps[i], color[i], slot[i] = e.eps[k], e.color[k], e.slot[k]
        offset += e.n
    return TraceExpression.__new__(TraceExpression)._hold(
        tuple(cycles), tuple(range(1, offset + 1)), eps, color, slot)


@dataclass(frozen=True)
class ExpansionTerm:
    """One gluing of the expansion and everything needed to evaluate it."""

    pairings: tuple[tuple[SetPartition, SetPartition], ...]  # per colour
    chi: int
    exponent: int
    wg_factor: PolyFrac
    lambdas: tuple[YoungDiagram, ...]
    vertex_cycles: tuple[tuple[int, ...], ...]
    vertex_labels: tuple[tuple[int, ...], ...]

    @functools.cached_property
    def alpha(self) -> Premap:
        """The gluing's alternating premap, built from the colours' pairings
        and validated on first read."""
        return pairings_to_premap(SetPartition([b for p, _ in self.pairings for b in p.blocks]),
                                  SetPartition([b for _, q in self.pairings for b in q.blocks]))


@functools.lru_cache(maxsize=None)
def _pairing_table(m: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple,
                                    tuple[Callable, ...]]:
    """(partners, lams, diagrams, takes) of the points 1..m, built once per
    colour size: the pairings as partner arrays on 0..m-1, in
    `enumerate_pairings` order; at i * P + j (P pairings), the index in
    diagrams of the join of pairings i (p_plus) and j (p_minus); and per
    pairing p the itemgetter that reads a list at p's entries.  A colour's
    positions in increasing order relabel 1..m monotonically, which keeps
    the order of pairings and join blocks."""
    partners = tuple(pairing_partners(m))
    diagrams: dict[YoungDiagram, int] = {}  # diagram -> index
    joins = (join_blocks(p_plus, p_minus) for p_plus in partners for p_minus in partners)
    lams = tuple(diagrams.setdefault(YoungDiagram(len(b) // 2 for b in blocks), len(diagrams))
                 for blocks in joins)
    takes = tuple(operator.itemgetter(*p) for p in partners)
    return partners, lams, tuple(diagrams), takes


@functools.lru_cache(maxsize=None)
def _diagram_table(sizes: tuple[int, ...]) -> tuple[tuple, tuple[int, ...], tuple]:
    """(lambdas, rows, columns) of colours of these sizes, built once per
    process: every tuple of the colours' diagrams, in the order the gluings
    first meet them (the product of the colours' lists, colour 0 slowest, as
    each colour's pairing pairs meet its diagrams in index order); the rows
    of each; and per colour, each pairing pair's diagram index times the
    colour's stride, so that a gluing's index in lambdas is the sum over its
    colours."""
    tables = [_pairing_table(m) for m in sizes]
    lambdas = tuple(itertools.product(*(t[2] for t in tables)))
    strides = [math.prod(len(t[2]) for t in tables[c + 1:]) for c in range(len(tables))]
    return (lambdas, tuple(sum(d.num_rows for d in lam) for lam in lambdas),
            tuple(tuple(lam * stride for lam in lams)
                  for (_, lams, *_), stride in zip(tables, strides)))


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
    tuples of diagrams (`_diagram_table`).  A gluing is a combo of indices,
    p_plus then p_minus of each colour, one per range of `choices`, each
    picking a half of K^{-1} from `halves`; their product runs p_plus major,
    in the order of `_pairing_table`'s lams.  Pairings are relabelled onto
    the real points only where they are read (`pairings`)."""

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
        phi_inv = {b: a for c in expr.cycles for a, b in zip(c, c[1:] + c[:1])}
        # an arc x -> a of the premap becomes the arc src[x] -> dst[a] of K^{-1}
        src: dict[int, int] = {}
        dst: dict[int, int] = {}
        for k, e in expr.eps.items():
            for x in (k, -k):
                y = e * x  # x -> y under d_eps
                src[x] = phi_inv[y] if y > 0 else y
                dst[x] = -phi_inv[-y] if y < 0 else y
        # code i stands for codes[i], the src of the i-th signed point of the
        # colours in turn, positive points then negative ones
        self.codes = [src[s * k] for pts in colours for s in (1, -1) for k in pts]
        code = {x: i for i, x in enumerate(self.codes)}
        rank = {k: 1 << i for i, k in enumerate(expr.positions)}
        self._code_bits = [rank[abs(x)] for x in self.codes]
        # the matrix label at each code, negative for the transpose (IDENTITY_SLOT is 0)
        slot = expr.slot
        self._code_labels = [slot[x] if x > 0 else -slot[-x] for x in self.codes]
        # the code of each position, by the bit length of its bit
        self._starts = [None, *map(code.get, expr.positions)]
        # an empty trace, tr(I) / N = 1, is a vertex cycle of its own, with no
        # position: ids 0, 1, ... in trace order, on every gluing
        self.empty = tuple(range(expr.cycles.count(())))
        self.cycle_ids: dict[tuple[int, ...], int] = {}
        self.cycles: list[tuple[int, ...]] = [()] * len(self.empty)
        self.labels: list[tuple[int, ...]] = [()] * len(self.empty)
        self.bits: list[int] = [0] * len(self.empty)
        # per colour, the indices of p_plus and of p_minus in its pairing table
        self.choices: list[Sequence[int]] = [[]] if odd else []  # no gluing when odd
        # in step with choices, each pairing's half of K^{-1} as p_plus, as p_minus
        self.halves: list[list[tuple[int, ...]]] = []
        # per colour, (0, least position, ...): point i of the table is points[i]
        self.points: list[tuple[int, ...]] = []
        # choices run over colours in sorted order; ker(colour) orders them by least position
        firsts = [pts[0] for pts in colours]
        self.ker_order = sorted(range(len(firsts)), key=firsts.__getitem__)
        for pts in colours:
            tables.table(len(pts))  # a table beyond its cap fails before enumeration
            self.points.append((0, *pts))
            takes = _pairing_table(len(pts))[3]
            # the arc x -> -p(x) of p_plus and -x -> p(x) of p_minus
            for to in ([code[dst[-k]] for k in pts], [code[dst[k]] for k in pts]):
                self.halves.append([take(to) for take in takes])
                self.choices.append(range(len(takes)))
        self._pairings: list[list[SetPartition]] | None = None
        self.lambdas, self._rows, self._columns = \
            ((), (), ()) if odd else _diagram_table(tuple(map(len, colours)))

    def term_for(self, combo: tuple[int, ...]) -> tuple[int, ...]:
        """The ids of the gluing's vertex cycles: those of the empty traces,
        then the ids in `cycle_ids` of the particular cycles of K^{-1}, one
        cycle of each mirror pair, the one through the pair's least point,
        which is positive; in order of that point."""
        kinv = ()
        for half, i in zip(self.halves, combo):
            kinv += half[i]
        cycle_ids, cycles, labels, bits = self.cycle_ids, self.cycles, self.labels, self.bits
        ids = [*self.empty]
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

    def slices(self) -> Iterator[tuple[list[tuple[tuple[int, ...], tuple[int, ...], int, int]],
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

    def pairings(self, combo: tuple[int, ...]) -> tuple[tuple[SetPartition, SetPartition], ...]:
        """Each colour's (p_plus, p_minus) on its positions; each colour's
        pairings are relabelled once per kernel, on the first read."""
        if self._pairings is None:
            self._pairings = [[SetPartition([(pts[i], pts[a + 1])
                                             for i, a in enumerate(p, 1) if i <= a])
                               for p in _pairing_table(len(pts) - 1)[0]]
                              for pts in self.points]
        return tuple((real[combo[2 * c]], real[combo[2 * c + 1]])
                     for c, real in enumerate(self._pairings))


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
                pairings=glu.pairings(combo), chi=exponent + 2 * glu.num_traces,
                exponent=exponent, wg_factor=glu.tables.wg_product(lambdas), lambdas=lambdas,
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
    """Traces along label cycles for one evaluation at N, keyed by cycle: the
    integer numerator of each normalized trace in `self[cycle]`, over the int
    `dens[cycle]` (the empty cycle has N over N).  A float trace is held
    exactly, over N times `scale`, the least power of two that holds every
    float trace of the call so far, and so is the empty cycle once a float
    trace is held, so that the gluings of one group share a denominator.  `value` gives the
    normalized trace as a Fraction.  `fill` computes the cycles not held yet
    in one `trace_numerators` batch; a lookup only reads.  A slot label in
    `labels` with no matrix fails here, before any enumeration or
    coefficient."""

    def __init__(self, matrices: Mapping[int, DenseMatrix], n: int, mode: str,
                 labels: Iterable[int]):
        super().__init__()
        check_dimension(n)
        self.n = int(n)
        self.mats = _resolve_for_mode(matrices, n, mode)
        for label in labels:
            if label:
                _slot_matrix(self.mats, label)
        self.floats, self.scale = mode == "float", 1
        self.dens = {(): self.n}
        self[()] = self.n

    @property
    def value(self) -> Callable[[tuple[int, ...]], Fraction]:
        """The normalized trace of a filled cycle, forming each Fraction once;
        made per read, as one kept on the memo would be a reference cycle."""
        return functools.lru_cache(maxsize=None)(self._fraction)

    def _fraction(self, cycle: tuple[int, ...]) -> Fraction:
        return Fraction(self[cycle], self.dens[cycle])

    def fill(self, cycles: Iterable[tuple[int, ...]]) -> None:
        """Compute the cycles not held yet, in one batch, in first-seen order.
        A float trace that is not finite raises ValidationError naming its
        cycle."""
        fresh = [c for c in dict.fromkeys(cycles) if c not in self]
        nums, dens = trace_numerators(fresh, self.mats, normalized=True)
        if self.floats and fresh:
            for cycle, t, d in zip(fresh, nums, dens):
                if not math.isfinite(t):
                    raise ValidationError(f"the normalized trace along the label cycle {cycle} "
                                          f"is not finite: {t / d!r}")
            ratios = [t.as_integer_ratio() for t in nums]
            self.scale = max(self.scale, *(q for _, q in ratios))
            nums = [p * (self.scale // q) for p, q in ratios]
            dens = [d * self.scale for d in dens]
            self[()] = self.dens[()] = self.n * self.scale
        self.update(zip(fresh, nums))
        self.dens.update(zip(fresh, dens))


def _to_float(value: Fraction) -> float:
    """The float nearest value; one beyond the float range raises
    ValidationError."""
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(
            f"the result is not finite: {'-' if value < 0 else ''}inf") from None


def _moment_sums(glu: _Gluings, values: Mapping, fill: Callable | None = None) -> dict:
    """Per (exponent, diagrams index), in first-met order: [the sum of the
    gluings' products of trace numerators, over den], den the running lcm of
    the gluings' products of denominators.  `values` holds a numerator per
    label cycle, with its denominator in `.dens`, and is read once per new
    cycle, in first-seen order; `fill` first computes each slice's new
    cycles."""
    nums: list[int] = []  # per cycle id, over dens
    dens: list[int] = []
    sums: dict[tuple, list[int]] = {}
    for rows, fresh in glu.slices():
        if fill is not None:
            fill(fresh)
        nums += map(values.__getitem__, fresh)
        dens += map(values.dens.__getitem__, fresh)
        for _, ids, exponent, lam in rows:
            k = math.prod(map(nums.__getitem__, ids))
            den = math.prod(map(dens.__getitem__, ids))
            acc = sums.get((exponent, lam))
            if acc is None:
                sums[exponent, lam] = [k, den]
            elif den == acc[1]:  # the common case, without a call
                acc[0] += k
            else:
                _add_over(acc, k, den)
    return sums


def evaluate_moment(expr: TraceExpression, matrices: Mapping[int, DenseMatrix],
                    n: int, mode: str = "exact", tables: TableSet | None = None,
                    term_cap: int = TERM_CAP) -> MomentResult:
    """Exact (or float) value of the expected product of normalized traces.

    A slot label with no matrix fails first; then coefficients are evaluated
    at N with pole detection, all of them before any trace.  Both modes sum
    exactly (`_moment_sums`); float mode rounds the sum over its float
    traces once."""
    memo = _TraceMemo(matrices, n, mode, expr.slot.values())
    glu = _Gluings(expr, tables or default_tables(), term_cap)
    # the Weingarten factor at N once per diagrams, in first-seen order
    wg = [glu.tables.wg_product_at(lambdas, n) for lambdas in glu.lambdas]
    acc = [0, 1]
    for (exponent, lam), (s, den) in _moment_sums(glu, memo, memo.fill).items():
        _add_term(acc, wg[lam], s, den, memo.n, exponent)
    value = Fraction(*acc)
    return MomentResult(value=value if mode == "exact" else _to_float(value),
                        term_count=glu.total)


@dataclass
class AsymptoticMoment:
    """Large-N limit: a finite combination of products of normalized traces."""

    terms: tuple[tuple[Fraction, tuple[tuple[int, ...], ...]], ...]

    def evaluate(self, matrices: Mapping[int, DenseMatrix], n: int, mode: str = "exact"):
        """The sum of each coefficient times its product of normalized traces,
        exact; float mode rounds it once."""
        cycles = [c for _, pattern in self.terms for c in pattern]
        memo = _TraceMemo(matrices, n, mode, itertools.chain.from_iterable(cycles))
        memo.fill(cycles)
        trace = memo.value
        value = sum((c * math.prod(map(trace, pattern), start=Fraction(1))
                     for c, pattern in self.terms), Fraction(0))
        return value if mode == "exact" else _to_float(value)

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
    """(ids, shapes) on a colour whose point i (0..m-1) lies on the trace of
    bit bits[i]: the join of pairings i and j of `_pairing_table(m)` (P of
    them) has the shape shapes[ids[i * P + j]], the (size, mask of traces)
    of each of its blocks, in order of their least points.  Indexed by
    position in that table, so a rebuilt table reads it alike; memoised for
    the process, for at most BLOCK_SHAPES_CAP bit tuples."""
    partners = _pairing_table(len(bits))[0]
    shapes: dict[tuple, int] = {}  # shape -> id
    ids = tuple(shapes.setdefault(tuple((len(b), sum({bits[i] for i in b}))
                                        for b in join_blocks(p_plus, p_minus)), len(shapes))
                for p_plus in partners for p_minus in partners)
    return ids, tuple(shapes)


@functools.lru_cache(maxsize=None)
def _connecting_rhos(r: int, vertex_masks: tuple[int, ...],
                     block_shape: tuple[tuple[tuple[int, int], ...], ...],
                     tau_blocks: tuple[tuple[int, ...], ...]) -> tuple[tuple, ...]:
    """The key of C_{pi,pi,rho} for every rho in [pi, ker(colour)] whose
    join with phi v tau_sigma connects the r traces, in the order
    `enumerate_interval(pi, ker(colour))` yields the rhos.

    The arguments are a gluing's shape: the trace mask of each vertex cycle
    and, colour by colour in ker(colour) order, the size and trace mask of
    each block of pi, in order of their least points; rho runs over groups
    of these blocks (`_block_partitions`).  A join connects when the masks
    of its parts, merged while they meet, reach every trace from trace 0.
    The key, the sorted sizes of pi's blocks inside each block of rho,
    names C_{pi,pi,rho} (`TableSet.relative_cumulant`)."""
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
            hits.append(tuple(sorted(tuple(sorted(flat[j][0] for j in g)) for g in rho)))
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
    [pi, ker(colour)].  C_{pi,pi,rho} depends only on the sizes of pi's
    blocks inside each block of rho, its key (`TableSet.relative_cumulant`),
    and each key new to the call is built if need be and evaluated at N at
    its first hit.  Which (rho, tau) connect, and which keys they name, is
    scanned once per entry (`_connecting_rhos`): a tau and a gluing shape,
    the trace masks (trace t as the bit 1 << t) of the vertex cycles and the
    block shape id of each colour's pair (`_block_shapes`).  Every mode
    sums exactly per entry and expands the sums into one weight per (N
    exponent, relative cumulant), which a numeric result adds on ints with
    its relative cumulant at N (`_add_term`); float mode takes its float
    traces and values exactly and rounds the result once.  Gluings run in
    the slices of `_Gluings.slices`, each with one batch of traces of the
    built-in matrices.  An empty trace is the constant tr(I) = N: its vertex
    cycle touches its own trace only, and a vertex-trace cumulant that holds
    the constant `()` is 0, so k_r for r >= 2 is 0 when one argument is
    empty.

    Deterministic slot matrices are the built-in path (higher vertex-trace
    cumulants vanish), and a slot label with no matrix fails before any
    enumeration; pass `kappa` to supply them for random slots.  With
    symbolic=True the result is a PolyFrac in N and `trace_value` must return
    exact N-free values for label cycles.  In exact and symbolic mode a
    caller's `trace_value` and `kappa` must return ints or Fractions, else
    ValidationError names the argument; float mode takes finite floats too.
    Both are called once per distinct argument, in first-met order.
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
    # numerators, with their denominators in `.dens`
    values_mode = "exact" if symbolic else mode
    values = memo if memo is not None else _RationalValues(trace_value, "trace_value",
                                                           values_mode)
    kappas = None if kappa is None else _RationalValues(kappa, "kappa", values_mode)

    glu = _Gluings(expr, tables, term_cap)
    bit = {k: 1 << t for t, cyc in enumerate(expr.cycles) for k in cyc}  # trace t
    rank = {k: 1 << i for i, k in enumerate(expr.positions)}
    # per trace, its bit and the bits of its positions, as in `glu.bits`
    trace_positions = [(1 << t, sum(map(rank.__getitem__, cyc)))
                       for t, cyc in enumerate(expr.cycles)]
    mask_of: dict[int, int] = {}  # position bits -> the mask of the traces they meet
    # per cycle id, the traces it touches: an empty trace's own
    trace_masks = [1 << t for t, cyc in enumerate(expr.cycles) if not cyc]
    # per colour, the block shape id of each pair and the shapes by id
    block_shapes = [_block_shapes(tuple(map(bit.__getitem__, pts[1:]))) for pts in glu.points]
    # per colour in ker(colour) order, its index and its shapes
    ordered_shapes = [(c, block_shapes[c][1]) for c in glu.ker_order]
    # this call's keys: the relative cumulant at N, or itself when symbolic
    c_at_n: dict[tuple, Fraction | PolyFrac] = {}
    # without kappa, per cycle id: the trace's numerator, over dens
    nums: list[int] = []
    dens: list[int] = []

    def kappa_terms(ids: tuple[int, ...]) -> Iterator[tuple[int, tuple, int, int]]:
        """(index, tau, k, den) per partition tau of the vertex cycles whose
        product of vertex-trace cumulants k / den is not 0.  A cumulant of two
        or more vertex traces, one of them the constant `()`, is 0 and is not
        asked for."""
        labels = tuple(map(glu.labels.__getitem__, ids))
        for t, tau in enumerate(_block_partitions((len(ids),))):
            k = den = 1
            for b in tau:
                if len(b) == 1:
                    memo_b, arg = values, labels[b[0]]
                else:
                    memo_b, arg = kappas, tuple(map(labels.__getitem__, b))
                    if () in arg:
                        k = 0  # the other blocks are still read, in order
                        continue
                k *= memo_b[arg]
                den *= memo_b.dens[arg]
            if k:
                yield t, tau, k, den

    # (vertex masks, block shape ids, tau index) -> [k summed over den, den,
    # keys of the connecting rhos, N exponent]
    entries: dict[tuple, list] = {}
    # each gluing's block shape ids, in step with the gluings
    bids = itertools.product(*(ids for ids, _ in block_shapes))
    for rows, fresh in glu.slices():
        if memo is not None:
            memo.fill(fresh)
        if kappa is None:  # a caller's trace_value once per new cycle, in first-seen order
            nums += map(values.__getitem__, fresh)
            dens += map(values.dens.__getitem__, fresh)
        for b in glu.bits[len(trace_masks):]:
            m = mask_of.get(b)
            if m is None:
                m = mask_of[b] = sum(t for t, pm in trace_positions if b & pm)
            trace_masks.append(m)
        for (_, ids, exponent, _), bid in zip(rows, bids):
            if kappa is None:  # tau is the discrete partition
                k = math.prod(map(nums.__getitem__, ids))
                if not k:
                    continue
                terms = ((0, None, k, math.prod(map(dens.__getitem__, ids))),)
            else:
                terms = kappa_terms(ids)
            masks = tuple(map(trace_masks.__getitem__, ids))
            for t, tau, k, den in terms:
                entry = entries.get((masks, bid, t))
                if entry is None:
                    hits = _connecting_rhos(r, masks, tuple([shapes[bid[c]] for c, shapes in
                                                             ordered_shapes]),
                                            tuple(zip(range(len(ids)))) if tau is None else tau)
                    for key in hits:  # each key new to the call, at its first hit
                        if key not in c_at_n:
                            c_at_n[key] = tables.relative_cumulant(key) if symbolic else \
                                tables.cumulant_at(key, n)
                    # N^(chi - r)
                    entry = entries[masks, bid, t] = [0, den, hits, exponent + r]
                if den == entry[1]:  # the common case, without a call
                    entry[0] += k
                else:
                    _add_over(entry, k, den)
    # per (N exponent, key), in first-hit order: [sum, den]
    weights: dict[tuple, list[int]] = {}
    for k_sum, den, hits, e in entries.values():
        for key in hits:
            _add_over(weights.setdefault((e, key), [0, 1]), k_sum, den)
    if symbolic:
        return _symbolic_sum(weights, c_at_n.__getitem__)
    acc = [0, 1]
    for (e, key), (w, d) in weights.items():
        _add_term(acc, c_at_n[key], w, d, int(n), e)
    value = Fraction(*acc)
    return value if mode == "exact" else _to_float(value)


class _RationalValues(dict):
    """A caller's values per argument, as `_TraceMemo` holds traces:
    `self[arg]` calls `func(arg)` on the first read only and keeps its
    numerator, `dens[arg]` its denominator.  A value must be an int or a
    Fraction, or in float mode a finite float, held exactly; any other (a
    bool among them) raises ValidationError naming the argument.  The empty
    label cycle `()` is tr(I) / N = 1 and is not asked for."""

    def __init__(self, func: Callable, name: str, mode: str):
        super().__init__({(): 1})
        self.func, self.name = func, name
        self.floats = mode == "float"
        self.dens: dict = {(): 1}

    def __missing__(self, arg) -> int:
        v = self.func(arg)
        if self.floats and isinstance(v, float) and math.isfinite(v):
            v = Fraction(v)
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            kinds = "a finite float, an int or a Fraction" if self.floats else \
                "rational (an int or a Fraction)"
            raise ValidationError(f"{self.name}({arg!r}) must be {kinds}, got {v!r}")
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


def _add_term(acc: list, c: Fraction, k: int, den: int, n: int, e: int) -> None:
    """Add c N^e k / den onto acc[0] / acc[1] (`_add_over`)."""
    if e < 0:
        _add_over(acc, c.numerator * k, c.denominator * den * n ** -e)
    else:
        _add_over(acc, c.numerator * k * n ** e, c.denominator * den)


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
    weights = _moment_sums(glu, _RationalValues(trace_value, "trace_value", "exact"))
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
