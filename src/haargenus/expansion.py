"""Genus-expansion evaluation of trace moments and trace cumulants.

A trace expression encodes a product of traces of words O_c^{+/-1} X along
boundary cycles.  Its expected value expands as a sum over tuples of pairing
pairs (one alternating premap per colour): each term carries N to the Euler
characteristic of the gluing minus twice the number of traces, a product of
normalized Weingarten values, and the product of traces of the X matrices
along the particular cycles of the inverse vertex permutation.

Trace cumulants use the same gluings but weight each by a relative Weingarten
cumulant and by classical cumulants of the vertex traces, keeping only the
gluings that connect everything.  Which (rho, tau) connect depends only on a
gluing's shape, held as ints with trace t as the bit 1 << t: the mask of the
traces each vertex cycle touches, and the size and mask of each join block.
That scan merges masks, and is memoised for the process on its ints and
tuples, so it runs once per distinct shape and tau; the block shapes of a
colour's pairs are memoised for the process too, per trace bits of its
points (`_block_shapes`).  SetPartitions are built only for a new relative
cumulant.  A caller's `trace_value` and `kappa` are memoised per call.

Coefficients depend only on join diagrams and N, so the TableSet keeps them
across calls: each product of normalized Weingarten values per tuple of
diagrams, each relative cumulant, and the value of each at N (a pole is
raised again on every call, never stored).  With the default tables each is
built and evaluated once per process.

All evaluators share one kernel, `_Gluings`.  A pair of pairings (p_plus,
p_minus) glues a colour by the premap that takes each positive point to minus
its p_plus partner and each negative point to its p_minus partner, so its
arcs, and K^{-1} with them, split into a half from p_plus and a half from
p_minus.  These depend only on the colour's size, so they are built once per
size on the points 1..m (`_pairing_table`) and shared by every expression:
two halves per pairing, and per pair only the join blocks (from
`weingarten.join_blocks`) and diagram.  The colour's positions, in increasing
order, relabel 1..m monotonically: the kernel builds the 2 (m-1)!! halves of
K^{-1} per expression, and relabels pairings, arcs and blocks only where they
are read.  `term_for` joins one pair's halves per colour into K^{-1} and turns
it into chi, the N exponent, the join diagrams and the vertex cycles.  Moments
consume `_Gluings.grouped` (gluing counts per vertex labels, exponent and
diagrams, in first-seen order), and ask the TableSet for each distinct
diagrams' Weingarten factor once per call.  Numeric traces,
exact or float, share one memo per call (`_TraceMemo`), filled by
`trace_numerators` batches: once per moment and once per block of cumulant
gluings.

Exact sums run on integers.  A gluing's vertex cycles hold each position
exactly once, so the product of their trace denominators is D N^v for every
gluing, where D is the product of the positions' matrix denominators and v,
the number of vertex cycles, is fixed by the N exponent and the diagrams.  So
an exact moment sums gluing count times product of integer trace numerators
per (exponent, diagrams) and forms one Fraction per group; an exact cumulant
sums per (chi, shape) entry over the lcm of its terms' denominators.  A
caller's `trace_value` and `kappa` are split once per argument into numerator
and denominator (`_RationalValues`) and summed the same way.  Symbolic
results gather the N-exponent weights of each coefficient (a diagrams tuple,
or a relative cumulant) into one Laurent polynomial (`_laurent`), for one
PolyFrac product and one sum per coefficient.  Float moments sum each
pattern's coefficients as ints over one denominator and divide once, the
correctly rounded float of the exact sum; float cumulants add term by term.
Only `expand_moment` builds `ExpansionTerm`s, and a term builds its `Premap`
only when `alpha` is read.
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
from .setpart import PARTITION_CAP, SetPartition, YoungDiagram, enumerate_pairings, \
    enumerate_partitions
from .weingarten import TableSet, join_blocks, pairing_partners, wg_cumulant

TERM_CAP = 500_000
# gluings per batch of cumulant traces: an untuned bound on the `term_for`
# results held at once (expansions run up to TERM_CAP gluings); every
# benchmark cumulant has a few hundred gluings and fits in one block
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

    def label_cycles(self, cycles: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
        """Map position cycles through the slots, dropping identity factors."""
        out = []
        for c in cycles:
            labels = tuple(self.vertex_label(k) for k in c)
            out.append(tuple(l for l in labels if l != IDENTITY_SLOT))
        return tuple(out)

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
        cycles = []
        eps: dict[int, int] = {}
        color: dict[int, int] = {}
        slot: dict[int, int] = {}
        k = 1
        for trace in data["traces"]:
            cyc = []
            for entry in trace:
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
    lam: YoungDiagram  # diagram of that join


@functools.lru_cache(maxsize=None)
def _pairing_table(m: int) -> tuple[tuple[SetPartition, ...], tuple, tuple, tuple[_Pair, ...]]:
    """(pairings, plus, minus, pairs) on the points 1..m, built once per colour
    size: plus[i] and minus[i] are the arcs x -> -p(x) and -x -> p(x) of the
    i-th pairing p, its halves of a premap as p_plus and as p_minus, and pairs
    holds every pair of indices (p_plus major) with its join blocks and
    diagram.  A colour's positions in increasing order relabel 1..m
    monotonically, which keeps the order of the pairings, arcs and blocks."""
    pairings = tuple(enumerate_pairings(range(1, m + 1)))
    ends = [tuple(map(sorted, p.blocks)) for p in pairings]
    plus = tuple(tuple(arc for a, b in e for arc in ((a, -b), (b, -a))) for e in ends)
    minus = tuple(tuple(arc for a, b in e for arc in ((-a, b), (-b, a))) for e in ends)
    partners = pairing_partners(m)
    pairs, diagrams = [], {}  # one YoungDiagram object per join diagram
    for i, p_plus in enumerate(partners):
        for j, p_minus in enumerate(partners):
            blocks = tuple(tuple(k + 1 for k in b) for b in join_blocks(p_plus, p_minus))
            lam = YoungDiagram(len(b) // 2 for b in blocks)
            pairs.append(_Pair(i, j, blocks, diagrams.setdefault(lam, lam)))
    return pairings, plus, minus, tuple(pairs)


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
    """The gluing kernel: each colour's pairing pairs, read from the shared
    table of its size with each pairing's half of K^{-1} built on the real
    points, combined per gluing into chi, the N exponent, the join diagrams
    and the vertex cycles.
    Pairings, arcs and blocks are relabelled onto the real points only where
    they are read (`pairings`, `arcs`, `rho_choices`)."""

    def __init__(self, expr: TraceExpression, tables: TableSet, term_cap: int):
        self.expr = expr
        self.tables = tables
        self.num_traces, self.n, self.positions = expr.num_traces, expr.n, expr.positions
        by_color = expr.positions_by_color()
        odd = any(len(p) % 2 for p in by_color.values())
        self.total = 0 if odd else math.prod(
            math.prod(range(len(p) - 1, 0, -2)) ** 2 for p in by_color.values())
        if self.total > term_cap:
            raise CapExceededError(
                f"expansion has {self.total} terms, beyond the cap of {term_cap}")
        phi_inv = expr.phi().inverse()
        # an arc x -> a of the premap becomes the arc src[x] -> dst[a] of K^{-1}
        src: dict[int, int] = {}
        dst: dict[int, int] = {}
        for k in expr.positions:
            for x in (k, -k):
                y = expr.eps[k] * x  # x -> y under d_eps
                src[x] = phi_inv(y) if y > 0 else y
                dst[x] = -phi_inv(-y) if y < 0 else y
        self.choices: list[Sequence[_Pair]] = [[]] if odd else []  # no gluing when odd
        # per colour, each pairing's half of K^{-1} as p_plus and as p_minus
        self.kinv: list[tuple[list[dict[int, int]], list[dict[int, int]]]] = []
        # per colour, (0, least position, ...): point i of the table is points[i]
        self.points: list[tuple[int, ...]] = []
        # choices run over colours in sorted order; ker(colour) orders them by least position
        firsts = [pts[0] for pts in by_color.values()]
        self.ker_order = sorted(range(len(firsts)), key=firsts.__getitem__)
        for pts in ([] if odd else by_color.values()):
            tables.table(len(pts))  # a table beyond its cap fails before enumeration
            points = (0, *pts)
            self.points.append(points)
            signed = [(s * i, s * k) for i, k in enumerate(pts, 1) for s in (1, -1)]
            src_c = {i: src[k] for i, k in signed}
            dst_c = {i: dst[k] for i, k in signed}
            _, plus, minus, pairs = _pairing_table(len(pts))
            self.kinv.append(tuple([{src_c[x]: dst_c[a] for x, a in half} for half in halves]
                                   for halves in (plus, minus)))
            self.choices.append(pairs)
        self._labels = {s * k: expr.vertex_label(s * k)
                        for k in expr.positions for s in (1, -1)}
        self._pairings: list[list[SetPartition]] | None = None

    def combos(self) -> Iterator[tuple[_Pair, ...]]:
        return itertools.product(*self.choices)

    def term_for(self, combo: tuple[_Pair, ...]) -> tuple:
        """(chi, exponent, lambdas, vertex cycles, vertex labels) of one gluing.

        The vertex cycles are the particular cycles of K^{-1}: one cycle of
        each mirror pair, the one through the pair's least point, which is
        positive; in order of that point."""
        kinv: dict[int, int] = {}
        pairs = 0  # mirror pairs of cycles of the premap a
        for (plus, minus), pair in zip(self.kinv, combo):
            kinv.update(plus[pair.plus])
            kinv.update(minus[pair.minus])
            pairs += len(pair.blocks)
        vertex = []
        seen: set[int] = set()
        for start in self.positions:
            if start in seen:
                continue
            cyc = [start]
            k = kinv[start]
            while k != start:
                cyc.append(k)
                k = kinv[k]
            seen.update(map(abs, cyc))  # the mirror cycle holds the negatives
            vertex.append(tuple(cyc))
        label = self._labels.__getitem__
        # IDENTITY_SLOT is 0, so filter(None, ...) drops the identity factors
        labels = tuple([tuple(filter(None, map(label, c))) for c in vertex])
        chi = self.num_traces + pairs + len(vertex) - self.n
        return (chi, chi - 2 * self.num_traces, tuple([pair.lam for pair in combo]),
                tuple(vertex), labels)

    def pairings(self, combo: tuple[_Pair, ...]) -> tuple[tuple[SetPartition, SetPartition], ...]:
        """Each colour's (p_plus, p_minus) on its positions; each colour's
        pairings are relabelled once per kernel, on the first read."""
        if self._pairings is None:
            self._pairings = [[SetPartition([[pts[i] for i in b] for b in p.blocks])
                               for p in _pairing_table(len(pts) - 1)[0]]
                              for pts in self.points]
        return tuple((real[pair.plus], real[pair.minus])
                     for real, pair in zip(self._pairings, combo))

    def arcs(self, combo: tuple[_Pair, ...]) -> dict[int, int]:
        """The arcs of the gluing's premap on the signed positions."""
        out = {}
        for pts, pair in zip(self.points, combo):
            _, plus, minus, _ = _pairing_table(len(pts) - 1)
            for x, a in plus[pair.plus] + minus[pair.minus]:
                out[pts[x] if x > 0 else -pts[-x]] = pts[a] if a > 0 else -pts[-a]
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

    def grouped(self) -> dict[tuple, int]:
        """Gluing multiplicities keyed by (vertex_labels, exponent, lambdas),
        in first-seen order."""
        groups: dict[tuple, int] = {}
        for combo in self.combos():
            _, exponent, lambdas, _, labels = self.term_for(combo)
            key = (labels, exponent, lambdas)
            groups[key] = groups.get(key, 0) + 1
        return groups


def expand_moment(expr: TraceExpression, tables: TableSet | None = None,
                  term_cap: int = TERM_CAP) -> Iterator[ExpansionTerm]:
    """Stream every gluing term of the expected product of normalized traces.

    Empty for expressions with an odd number of O-factors of some colour."""
    glu = _Gluings(expr, tables or default_tables(), term_cap)
    for combo in glu.combos():
        chi, exponent, lambdas, vertex, labels = glu.term_for(combo)
        yield ExpansionTerm(
            pairings=glu.pairings(combo), arcs=glu.arcs(combo),
            chi=chi, exponent=exponent,
            wg_factor=glu.tables.wg_product(lambdas), lambdas=lambdas,
            vertex_cycles=vertex, vertex_labels=labels)


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

    Exact: the integer numerator T of each normalized trace T / dens[cycle],
    as `trace_numerators` returns them; the empty cycle (identity factors
    only) has T = N over N.  A gluing's vertex cycles hold each position
    once, so their dens multiply to the same product for every gluing with
    as many cycles, and sums of products of numerators stay on ints.  Float:
    the normalized trace.  `value` gives the normalized trace in both modes,
    a Fraction or a float.  `fill` computes the cycles not held yet in one
    `trace_numerators` batch; a lookup only reads the memo, so an evaluator
    fills it first.  `labels` are the slot labels the evaluation will read
    (0, the identity, needs no matrix); one with no matrix fails here, before
    any enumeration or coefficient."""

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
        """The normalized trace of a filled cycle, as a function that forms
        each exact Fraction once; made on each read, since a function kept on
        the memo would be a reference cycle that only the garbage collector
        frees."""
        return functools.lru_cache(maxsize=None)(self._fraction) if self.exact \
            else self.__getitem__

    def _fraction(self, cycle: tuple[int, ...]) -> Fraction:
        return Fraction(self[cycle], self.dens[cycle])

    def fill(self, cycles: Iterable[tuple[int, ...]]) -> None:
        """Compute the cycles not held yet, in one batch, in first-seen order."""
        fresh = [c for c in dict.fromkeys(cycles) if c not in self]
        nums, dens = trace_numerators(fresh, self.mats, normalized=True)
        if self.exact:
            self.update(zip(fresh, nums))
            self.dens.update(zip(fresh, dens))
        else:
            self.update(zip(fresh, (t / d for t, d in zip(nums, dens))))



def _pattern_sum(terms: Iterable[tuple[tuple, Fraction]], trace, mode: str):
    """Sum over (label pattern, coefficient) of the coefficient times the
    product of traces along the pattern, in the given order."""
    exact = mode != "float"
    total = Fraction(0) if exact else 0.0
    for pattern, coeff in terms:
        total += (coeff if exact else float(coeff)) * \
            math.prod(map(trace, pattern), start=Fraction(1) if exact else 1.0)
    return total


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
    groups = glu.grouped()
    # the Weingarten factor at N once per distinct diagrams, in first-seen order
    wg = {lambdas: glu.tables.wg_product_at(lambdas, n)
          for lambdas in dict.fromkeys(lambdas for _, _, lambdas in groups)}
    if not memo.exact:
        lo = min([0, *(exponent for _, exponent, _ in groups)])
        scale = math.lcm(*(w.denominator for w in wg.values()))
        scaled = {lambdas: w.numerator * (scale // w.denominator) for lambdas, w in wg.items()}
        sums: dict[tuple, int] = {}
        for (labels, exponent, lambdas), mult in groups.items():
            sums[labels] = sums.get(labels, 0) + mult * scaled[lambdas] * n ** (exponent - lo)
        memo.fill(itertools.chain.from_iterable(sums))
        den = scale * n ** -lo
        return MomentResult(value=_pattern_sum(((labels, s / den) for labels, s in sums.items()),
                                               memo.value, mode),
                            term_count=glu.total)
    memo.fill(itertools.chain.from_iterable(labels for labels, _, _ in groups))
    # (exponent, lambdas, cycles) -> [sum of mult * prod T, the shared prod of dens]
    sums: dict[tuple, list[int]] = {}
    for (labels, exponent, lambdas), mult in groups.items():
        group = sums.get((exponent, lambdas, len(labels)))
        if group is None:
            group = sums[exponent, lambdas, len(labels)] = \
                [0, math.prod(map(memo.dens.__getitem__, labels))]
        group[0] += mult * math.prod(map(memo.__getitem__, labels))
    value = sum((wg[lambdas] * Fraction(n) ** exponent * Fraction(s, den)
                 for (exponent, lambdas, _), (s, den) in sums.items()), Fraction(0))
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

    def is_zero(self) -> bool:
        return not self.terms

    def to_json(self) -> list:
        return [{"coefficient": str(c), "traces": [list(cc) for cc in pat]}
                for c, pat in self.terms]


def asymptotic_moment(expr: TraceExpression, tables: TableSet | None = None,
                      term_cap: int = TERM_CAP) -> AsymptoticMoment:
    """Keep only exponent-zero gluings, with Weingarten limits as coefficients."""
    glu = _Gluings(expr, tables or default_tables(), term_cap)
    limits: dict[tuple, Fraction] = {}  # per distinct diagrams
    acc: dict[tuple, Fraction] = {}
    for (labels, exponent, lambdas), mult in glu.grouped().items():
        if exponent == 0:
            limit = limits.get(lambdas)
            if limit is None:
                limit = limits[lambdas] = glu.tables.wg_product(lambdas).limit_at_infinity()
            acc[labels] = acc.get(labels, Fraction(0)) + mult * limit
    terms = tuple((c, pat) for pat, c in sorted(acc.items()) if c != 0)
    return AsymptoticMoment(terms=terms)


# -- trace cumulants -----------------------------------------------------------


@functools.lru_cache(maxsize=BLOCK_SHAPES_CAP)
def _block_shapes(bits: tuple[int, ...]) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
    """The shape of every pair's join on a colour whose point i (1..m) lies on
    the trace of bit bits[i - 1]: shapes[i][j] holds the (size, mask of
    traces) of each block of the join of pairings i (p_plus) and j (p_minus)
    of `_pairing_table(m)`.  Indexed by position in that table, so a rebuilt
    table reads it alike; memoised for the process, for at most
    BLOCK_SHAPES_CAP bit tuples, each shape one shared tuple."""
    m = len(bits)
    pairings, _, _, pairs = _pairing_table(m)
    seen: dict[tuple, tuple] = {}
    shapes = [seen.setdefault(shape, shape) for shape in
              (tuple((len(b), sum({bits[i - 1] for i in b})) for b in pair.blocks)
               for pair in pairs)]
    count = len(pairings)
    return tuple(tuple(shapes[i:i + count]) for i in range(0, len(shapes), count))


@functools.lru_cache(maxsize=None)
def _connecting_rhos(r: int, vertex_masks: tuple[int, ...],
                     block_shape: tuple[tuple[tuple[int, int], ...], ...],
                     tau_blocks: tuple[tuple[int, ...], ...]) -> tuple[tuple[tuple, tuple], ...]:
    """(key, rho) for every rho in [pi, ker(colour)] whose join with phi v
    tau_sigma connects the r traces, in `rho_choices` order.

    The arguments are a gluing's shape, with trace t as the bit 1 << t: the
    mask of the traces each vertex cycle touches, and, colour by colour in
    ker(colour) order, the size and mask of each block of pi.  A join
    connects when the masks of its parts, merged while they meet, reach every
    trace from trace 0.  The key names the relative cumulant C_{pi,pi,rho} by
    the sizes of pi's blocks inside each block of rho.  Memoised for the
    process: the arguments are ints and tuples of them."""
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
    Which (rho, tau) connect, and which relative cumulants they name, depends
    only on the gluing's shape, as int masks of traces (trace t is the bit
    1 << t): the mask of each vertex cycle, and the size and mask of each
    block of pi.  The scan (`_connecting_rhos`) is memoised for the process
    and runs at the first hit of each (chi, shape, tau) entry in the call;
    each gluing then makes one dict update per tau (one, without `kappa`).
    Exact and symbolic results sum the vertex-trace cumulants per entry and
    expand them into one weight per (N exponent, relative cumulant) at the
    end, while float results add term by term in gluing and rho order.
    SetPartitions are built only for a relative cumulant that the tables do
    not hold yet, for `wg_cumulant`; its value at N is read from the tables
    (`TableSet.cumulant_at`) on its first hit in the call.  Each colour's
    pair block shapes come from the process memo `_block_shapes`.  Traces of
    the built-in matrices are computed one block of GLUING_BLOCK gluings at a
    time.

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
    # the built-in matrices without kappa give every gluing of an entry the
    # same product of dens, computed once per entry
    shared_den = exact and memo is not None and kappa is None
    if exact:  # numerators, with their denominators in `.dens`
        values = memo if memo is not None else _RationalValues(trace_value, "trace_value")
        kappas = None if kappa is None else _RationalValues(kappa, "kappa")
    else:
        tv = memo.value if memo is not None else functools.lru_cache(maxsize=None)(trace_value)
        if kappa is not None:
            kappa = functools.lru_cache(maxsize=None)(kappa)

    glu = _Gluings(expr, tables, term_cap)
    bit = {s * k: 1 << t for t, cyc in enumerate(expr.cycles) for k in cyc for s in (1, -1)}
    # the mask of the traces a vertex cycle touches (the sum of its distinct bits),
    # once per cycle in this call
    vertex_mask = functools.lru_cache(maxsize=None)(lambda c: sum({*map(bit.__getitem__, c)}))
    # per colour, the block shapes of its pairs, from the trace bits of its points
    block_shapes = [_block_shapes(tuple(bit[k] for k in pts[1:])) for pts in glu.points]
    order = glu.ker_order
    ground = expr.positions
    c_cache = tables.relative_cumulants
    c_at_n: dict[tuple, Fraction | None] = {}  # this call's keys, at N unless symbolic

    def build_cumulants(combo: tuple[_Pair, ...], hits: Sequence[tuple[tuple, tuple]]) -> None:
        """C_{pi,pi,rho} for each key of hits not met yet in this call, built on
        this gluing's blocks unless the tables hold it, and evaluated at N."""
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

    def gluings() -> Iterator[tuple[tuple[_Pair, ...], tuple]]:
        """Each gluing with its `term_for`, one block at a time; the built-in
        matrices' memo is filled with each block's cycles, and a caller's
        `trace_value` is left to be called on lookup."""
        combos = glu.combos()
        while block := list(itertools.islice(combos, GLUING_BLOCK)):
            terms = [glu.term_for(combo) for combo in block]
            if memo is not None:
                memo.fill(c for term in terms for c in term[4])
            yield from zip(block, terms)

    # (chi, vertex masks, block shapes in colour order, tau index) -> [k summed
    # over den (exact and symbolic), den, connecting (key, rho)s, coefficients (float)]
    entries: dict[tuple, list] = {}
    total = 0.0  # float: each hit's coefficient times k, in gluing and rho order
    for combo, (chi, _, _, vertex, labels) in gluings():
        masks = tuple(map(vertex_mask, vertex))
        blocks = tuple([shapes[pair.plus][pair.minus] for shapes, pair in zip(block_shapes, combo)])
        # without kappa, tau is the discrete partition (None until an entry needs it)
        for t, tau in enumerate((None,) if kappa is None else _block_partitions((len(vertex),))):
            if not exact:
                k = math.prod(map(tv, labels), start=Fraction(1)) if tau is None else \
                    math.prod((tv(labels[b[0]]) if len(b) == 1 else
                               kappa(tuple(map(labels.__getitem__, b))) for b in tau),
                              start=Fraction(1))
            elif tau is None:
                k = math.prod(map(values.__getitem__, labels))
                if not shared_den:
                    den = math.prod(map(values.dens.__getitem__, labels))
            else:  # the k of tau is k / den, from trace values and kappa values
                k = den = 1
                for b in tau:
                    if len(b) == 1:
                        memo_b, arg = values, labels[b[0]]
                    else:
                        memo_b, arg = kappas, tuple(map(labels.__getitem__, b))
                    k *= memo_b[arg]
                    den *= memo_b.dens[arg]
            if not k:
                continue
            entry = entries.get((chi, masks, blocks, t))
            if entry is None:
                hits = _connecting_rhos(r, masks, tuple(map(blocks.__getitem__, order)),
                                        tuple((i,) for i in range(len(vertex)))
                                        if tau is None else tau)
                build_cumulants(combo, hits)
                if shared_den:
                    den = math.prod(map(values.dens.__getitem__, labels))
                entry = entries[chi, masks, blocks, t] = [
                    0, den if exact else 1, hits,
                    None if exact else [float(c_at_n[key] * Fraction(n) ** (chi - r))
                                        for key, _ in hits]]
            if not exact:
                for coeff in entry[3]:
                    total = total + coeff * k
            elif shared_den or den == entry[1]:
                entry[0] += k
            else:  # k / den onto the entry's sum, over the lcm of both dens
                if entry[1] % den:
                    lcm = math.lcm(entry[1], den)
                    entry[0] *= lcm // entry[1]
                    entry[1] = lcm
                entry[0] += k * (entry[1] // den)
    if not exact:
        return total
    # per N exponent, the lcm of its entries' denominators
    lcms: dict[int, int] = {}
    for (chi, *_), (_, den, _, _) in entries.items():
        lcms[chi - r] = math.lcm(lcms.get(chi - r, 1), den)
    # per (N exponent, key), in first-hit order: the sum over that lcm
    weights: dict[tuple, int] = {}
    for (chi, *_), (k_sum, den, hits, _) in entries.items():
        e = chi - r
        if den != lcms[e]:
            k_sum *= lcms[e] // den
        for key, _ in hits:
            weights[e, key] = weights.get((e, key), 0) + k_sum
    if symbolic:
        return _symbolic_sum({(e, key): (w, lcms[e]) for (e, key), w in weights.items()},
                             c_cache.__getitem__)
    # sum c(key) w per N exponent, then one power and one division each
    sums: dict[int, Fraction] = {}
    for (e, key), w in weights.items():
        sums[e] = sums.get(e, 0) + c_at_n[key] * w
    return sum((s * Fraction(n) ** e / lcms[e] for e, s in sums.items()), Fraction(0))


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
    groups = glu.grouped()
    values = _RationalValues(trace_value, "trace_value")
    cycles = dict.fromkeys(itertools.chain.from_iterable(labels for labels, _, _ in groups))
    nums = [values[c] for c in cycles]  # trace_value once per cycle, in first-seen order
    scale = math.lcm(*values.dens.values())
    scaled = {c: v * (scale // values.dens[c]) for c, v in zip(cycles, nums)}
    # (exponent, lambdas) -> [sum over scale^v, scale^v]; v is fixed by the two
    weights: dict[tuple, list[int]] = {}
    for (labels, exponent, lambdas), mult in groups.items():
        weight = weights.get((exponent, lambdas))
        if weight is None:
            weight = weights[exponent, lambdas] = [0, scale ** len(labels)]
        weight[0] += mult * math.prod(map(scaled.__getitem__, labels))
    return _symbolic_sum(weights, glu.tables.wg_product)


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


def check_conjugated_color_consistency(expr: TraceExpression,
                                       term: ExpansionTerm) -> bool:
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
