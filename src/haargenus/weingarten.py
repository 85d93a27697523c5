"""Exact orthogonal Weingarten functions as rational functions of N.

The Gram matrix over pairings of [n] is G(p,q) = N^{#(p v q)}; the Weingarten
function is its inverse over the field of rational functions (the determinant
is a nonzero polynomial, so no pseudoinverse is needed symbolically; fixed-N
poles surface at evaluation time).  Since the value depends only on the Young
diagram of the join, the table is solved per diagram class from a small exact
polynomial linear system instead of inverting the full (n-1)!! x (n-1)!! Gram
matrix (Collins-Matsumoto 2009).  Every join of two pairings, here and in the
gluing kernel's pairing tables, is one alternating walk over partner arrays
(`join_blocks`); `setpart.join_of_pairings_diagram` stays apart, for oracles.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CapExceededError, PoleError, ValidationError
from .ratpoly import ONE, ZERO, Poly, PolyFrac, bareiss_solve, exact_div, monomial, padd, \
    pmul, poly_gcd, pshift
from .setpart import PARTITION_CAP, SetPartition, YoungDiagram, enumerate_interval, \
    enumerate_pairings, enumerate_partitions, mobius, young_diagrams

WG_CAP = 10

_GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def _partner_tuple(p: SetPartition, order: Sequence[int]) -> tuple[int, ...]:
    """Pairing as a partner array over `order` positions."""
    idx = {k: i for i, k in enumerate(order)}
    out = [0] * len(order)
    for b in p.blocks:
        a, c = sorted(b)
        out[idx[a]] = idx[c]
        out[idx[c]] = idx[a]
    return tuple(out)


def pairing_partners(n: int) -> list[tuple[int, ...]]:
    """The pairings of 1..n as partner arrays on 0..n-1, in `enumerate_pairings` order."""
    order = range(1, n + 1)
    return [_partner_tuple(p, order) for p in enumerate_pairings(order)]


def join_blocks(p1: Sequence[int], p2: Sequence[int]) -> list[tuple[int, ...]]:
    """The blocks of the join of two pairings given as partner arrays.

    Each block is the alternating walk i, p1[i], p2[p1[i]], p1[p2[p1[i]]], ...
    from its least point i, up to where p2 leads back to i; the blocks come in
    order of their least points."""
    seen = [False] * len(p1)
    blocks = []
    for i in range(len(p1)):
        if seen[i]:
            continue
        block = []
        j = i
        while True:
            a = p1[j]
            block += (j, a)
            seen[j] = seen[a] = True
            j = p2[a]
            if j == i:
                break
        blocks.append(tuple(block))
    return blocks


def _join_diagram(p1: Sequence[int], p2: Sequence[int]) -> YoungDiagram:
    return YoungDiagram(len(b) // 2 for b in join_blocks(p1, p2))


def pairing_join_diagram(p: SetPartition, q: SetPartition) -> YoungDiagram:
    order = sorted(p.ground)
    return _join_diagram(_partner_tuple(p, order), _partner_tuple(q, order))


def _check_size(n: int, cap: int) -> None:
    if n <= 0 or n % 2:
        raise ValidationError(f"table size must be a positive even integer, got {n}")
    if n > cap:
        raise CapExceededError(f"Weingarten table capped at n={cap}; pass a larger cap for n={n}")


def _class_representative(lam: YoungDiagram) -> SetPartition:
    """A pairing whose join with the aligned reference pairing has diagram lam.

    On each consecutive segment of 2m points the reference pairs neighbours
    (1,2)(3,4)... and the representative pairs them shifted by one, so the
    join is the whole segment.
    """
    blocks = []
    start = 1
    for m in lam.rows:
        seg = list(range(start, start + 2 * m))
        for i in range(0, 2 * m, 2):
            blocks.append((seg[(i + 1) % (2 * m)], seg[(i + 2) % (2 * m)]))
        start += 2 * m
    return SetPartition(blocks)


class WeingartenTable:
    """Wg values for one size n, keyed by the diagram of the pairing join."""

    def __init__(self, n: int, entries: dict[YoungDiagram, PolyFrac]):
        self.n = n
        self.entries = dict(entries)
        expected = set(young_diagrams(n // 2))
        if set(self.entries) != expected:
            raise ValidationError("table does not cover every diagram class")

    def wg_unnormalized(self, lam: YoungDiagram) -> PolyFrac:
        return self.entries[lam]

    def wg(self, lam: YoungDiagram) -> PolyFrac:
        """Normalized value N^{n - rows} * Wg(lam); wg of the all-ones diagram is 1."""
        return PolyFrac.n_power(self.n - lam.num_rows) * self.entries[lam]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "entries": {
                ",".join(map(str, lam.rows)): self.entries[lam].to_json()
                for lam in sorted(self.entries, key=lambda d: d.rows, reverse=True)
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "WeingartenTable":
        entries = {
            YoungDiagram([int(x) for x in key.split(",")]): PolyFrac.from_json(val)
            for key, val in data["entries"].items()
        }
        return cls(int(data["n"]), entries)


def _class_rows(n: int) -> Iterator[tuple[YoungDiagram, dict[tuple[YoungDiagram, int], int]]]:
    """Per diagram lam, the row of G . W = Id at (reference, representative of
    lam): how many pairings sigma of 1..n give each (diagram of sigma v
    representative, #(reference v sigma)), with one reference join per sigma."""
    order = range(1, n + 1)
    sigmas = pairing_partners(n)
    ref = _partner_tuple(SetPartition([(k, k + 1) for k in range(1, n + 1, 2)]), order)
    exps = [len(join_blocks(ref, sigma)) for sigma in sigmas]
    for lam in young_diagrams(n // 2):
        rep = _partner_tuple(_class_representative(lam), order)
        counts: dict[tuple[YoungDiagram, int], int] = {}
        for sigma, e in zip(sigmas, exps):
            key = (_join_diagram(sigma, rep), e)
            counts[key] = counts.get(key, 0) + 1
        yield lam, counts


def compute_table(n: int, cap: int = WG_CAP) -> WeingartenTable:
    """Solve the per-diagram-class linear system for the size-n table."""
    _check_size(n, cap)
    diagrams = list(young_diagrams(n // 2))
    index = {lam: i for i, lam in enumerate(diagrams)}
    ones = YoungDiagram([1] * (n // 2))
    rows: list[list[Poly]] = []
    for _, counts in _class_rows(n):
        row = [ZERO] * len(diagrams)
        for (mu, e), c in counts.items():
            row[index[mu]] = padd(row[index[mu]], monomial(e, c))
        rows.append(row)
    solution = bareiss_solve(rows, [ONE if lam == ones else ZERO for lam in diagrams])
    return WeingartenTable(n, dict(zip(diagrams, solution)))


_CACHE: dict[int, WeingartenTable] = {}


def weingarten_table(n: int, cap: int = WG_CAP) -> WeingartenTable:
    """The size-n table, computed once per process and cached."""
    _check_size(n, cap)
    if n not in _CACHE:
        _CACHE[n] = compute_table(n, cap=cap)
    return _CACHE[n]


def golden_path(n: int) -> str:
    return os.path.join(_GOLDEN_DIR, f"wg_n{n}.json")


def write_golden(n: int, path: str | None = None, cap: int = WG_CAP) -> str:
    path = path or golden_path(n)
    table = weingarten_table(n, cap=cap)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(table.to_json(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def load_golden(n: int, path: str | None = None) -> WeingartenTable:
    with open(path or golden_path(n)) as fh:
        return WeingartenTable.from_json(json.load(fh))


def leading_order(lam: YoungDiagram) -> tuple[int, int, int]:
    """(sign, coefficient, exponent) of the leading term of Wg(lam).

    sign = (-1)^(n/2 - rows), coefficient the product of Catalan numbers
    C_{row-1}, exponent = -n + rows; equivalently the limit of the normalized
    wg(lam) is sign * coefficient.
    """
    r = lam.num_rows
    half = lam.n
    sign = (-1) ** (half - r)
    coeff = 1
    for row in lam.rows:
        coeff *= catalan(row - 1)
    return sign, coeff, -2 * lam.n + r


def wg_limit(lam: YoungDiagram) -> Fraction:
    sign, coeff, _ = leading_order(lam)
    return Fraction(sign * coeff)


VALUES_AT_N_CAP = 4096


class TableSet:
    """Lazy cache of tables for every even size up to a cap, and of the
    coefficients the evaluators build from them, kept across calls: the
    normalized wg per diagram, the product of normalized wg per tuple of join
    diagrams (`wg_product`), and the relative cumulants C_{pi,pi,rho} of trace
    cumulants (`relative_cumulant`).  Values at N are kept too, per (diagrams,
    N) (`wg_product_at`) and per (relative cumulant key, N) (`cumulant_at`);
    each of these two memos holds at most VALUES_AT_N_CAP values and drops its
    oldest first, so a sweep over N cannot grow it without limit.  A pole is
    never stored: it is raised again on every call, with the same text."""

    def __init__(self, cap: int = WG_CAP):
        self.cap = cap
        self._wg_cache: dict[YoungDiagram, PolyFrac] = {}
        self._wg_products: dict[tuple[YoungDiagram, ...], PolyFrac] = {}
        # relative cumulants C_{pi,pi,rho} (`relative_cumulant`), keyed by the
        # sizes of pi's blocks inside each block of rho, which determine them
        self.relative_cumulants: dict[tuple, PolyFrac] = {}
        self._wg_products_at: dict[tuple, Fraction] = {}
        self._cumulants_at: dict[tuple, Fraction] = {}

    def table(self, n: int) -> WeingartenTable:
        return weingarten_table(n, cap=self.cap)

    def wg_diagram(self, lam: YoungDiagram) -> PolyFrac:
        """Normalized wg for a diagram (table size 2 * weight)."""
        if lam not in self._wg_cache:
            self._wg_cache[lam] = self.table(2 * lam.n).wg(lam)
        return self._wg_cache[lam]

    def wg_product(self, lambdas: tuple[YoungDiagram, ...]) -> PolyFrac:
        """Product of the normalized wg of the diagrams, one per colour."""
        value = self._wg_products.get(lambdas)
        if value is None:
            value = self._wg_products[lambdas] = math.prod(map(self.wg_diagram, lambdas),
                                                           start=PolyFrac(1))
        return value

    def wg_product_at(self, lambdas: tuple[YoungDiagram, ...], n: int) -> Fraction:
        """`wg_product(lambdas)` at N; a pole names the diagrams."""
        try:
            return _value_at(self._wg_products_at, lambdas, n, self.wg_product)
        except PoleError as exc:
            rows = [list(lam.rows) for lam in lambdas]
            raise PoleError(
                f"Weingarten factor for diagram(s) {rows} has a pole at N={n}: {exc}",
                n_value=n, factors=exc.factors) from exc

    def relative_cumulant(self, key: tuple[tuple[int, ...], ...]) -> PolyFrac:
        """C_{pi,pi,rho} named by its key, the sorted sizes of pi's blocks
        inside each block of rho, built once and kept in `relative_cumulants`.

        [pi, rho] is the product over rho's blocks of the lattices of set
        partitions of the pi-blocks inside, so C is the product over rho's
        blocks of a Mobius sum: over set partitions of the block's pi-blocks
        into b parts, (-1)^(b-1) (b-1)! times the wg of each part's diagram.
        `wg_cumulant` sums the same terms over SetPartitions."""
        value = self.relative_cumulants.get(key)
        if value is None:
            value = PolyFrac(1)
            for sizes in key:
                m = len(sizes)
                total = PolyFrac(0)
                for sigma in enumerate_partitions(range(1, m + 1), cap=max(PARTITION_CAP, m)):
                    b = sigma.num_blocks
                    parts = (YoungDiagram.from_even_block_sizes(sizes[i - 1] for i in v)
                             for v in sigma.blocks)
                    total = total + math.prod(map(self.wg_diagram, parts), start=PolyFrac(
                        (-1) ** (b - 1) * math.factorial(b - 1)))
                value = value * total
            self.relative_cumulants[key] = value
        return value

    def cumulant_at(self, key: tuple, n: int) -> Fraction:
        """`relative_cumulant(key)` at N."""
        return _value_at(self._cumulants_at, key, n, self.relative_cumulant)

    def wg_block(self, pi: SetPartition, block: Iterable[int]) -> PolyFrac:
        """Normalized wg of the restriction to one block of a coarser partition."""
        v = frozenset(block)
        sizes = []
        for b in pi.blocks:
            if b <= v:
                sizes.append(len(b))
            elif b & v:
                raise ValidationError("block does not respect the pairing join")
        if sum(sizes) != len(v):
            raise ValidationError("block does not cover its join blocks")
        return self.wg_diagram(YoungDiagram.from_even_block_sizes(sizes))


def _value_at(memo: dict[tuple, Fraction], key, n: int, poly) -> Fraction:
    """poly(key) at N through memo, keyed by (key, N); a PoleError passes
    through unstored, and a full memo drops its oldest value."""
    value = memo.get((key, n))
    if value is None:
        value = poly(key).eval_at(n)
        if len(memo) >= VALUES_AT_N_CAP:
            del memo[next(iter(memo))]
        memo[key, n] = value
    return value


def wg_cumulant(tables: TableSet, pi: SetPartition, rho: SetPartition,
                sigma: SetPartition) -> PolyFrac:
    """Relative cumulant of normalized Weingarten values.

    C_{pi,rho,sigma} = sum over tau in [rho, sigma] of mu(tau, sigma) times
    the product over blocks V of tau of wg(pi restricted to V); its Mobius
    inverse recovers the blockwise wg product over sigma.
    """
    if any(len(b) % 2 for b in pi.blocks):
        raise ValidationError("pairing-join blocks must have even sizes")
    if not (pi.is_finer_than(rho) and rho.is_finer_than(sigma)):
        raise ValidationError("need pi <= rho <= sigma")
    total = PolyFrac(0)
    for tau in enumerate_interval(rho, sigma):
        term = PolyFrac.from_fraction(Fraction(mobius(tau, sigma)))
        for v in tau.blocks:
            term = term * tables.wg_block(pi, v)
        total = total + term
    return total


def wg_cumulant_order_check(value: PolyFrac, rho: SetPartition, sigma: SetPartition) -> bool:
    """Degree bound deg <= 2 (#(sigma) - #(rho)) on the cumulant."""
    return value.degree() <= 2 * (sigma.num_blocks - rho.num_blocks)


def _full_symbolic_product_check(n: int, table: WeingartenTable) -> bool:
    """Every entry of G . W computed as polynomials over a common denominator."""
    partners = pairing_partners(n)
    m = len(partners)
    classes = [[_join_diagram(a, b) for b in partners] for a in partners]
    den = ONE
    for lam in table.entries:
        g = poly_gcd(den, table.entries[lam].den)
        den = exact_div(pmul(den, table.entries[lam].den), g)
    nums = {lam: pmul(table.entries[lam].num, exact_div(den, table.entries[lam].den))
            for lam in table.entries}
    for i in range(m):
        for j in range(m):
            acc = ZERO
            for k in range(m):
                acc = padd(acc, pshift(nums[classes[k][j]], classes[i][k].num_rows))
            expected = den if i == j else ZERO
            if acc != expected:
                return False
    return True


def _orbit_symbolic_check(n: int, table: WeingartenTable) -> bool:
    """One symbolic row-sum per conjugation orbit of pairing pairs.

    Simultaneous relabeling fixes every entry of G . W and classifies pairs
    by the diagram of their join, so one representative entry per diagram
    covers the whole product."""
    ones = YoungDiagram([1] * (n // 2))
    for lam, counts in _class_rows(n):
        total = sum((PolyFrac(monomial(e, c)) * table.entries[mu]
                     for (mu, e), c in counts.items()), PolyFrac(0))
        if total != PolyFrac(1 if lam == ones else 0):
            return False
    return True


def _fixed_n_full_check(n: int, table: WeingartenTable, n0: int) -> bool:
    """Full (m x m) G(n0) . W(n0) = Id over exact rationals at one dimension."""
    partners = pairing_partners(n)
    m = len(partners)
    values = {lam: table.entries[lam].eval_at(n0) for lam in table.entries}
    den = math.lcm(*(v.denominator for v in values.values()))
    scaled = {lam: int(v * den) for lam, v in values.items()}
    wint = np.empty((m, m), dtype=object)
    gint = np.empty((m, m), dtype=object)
    for i, a in enumerate(partners):
        for j, b in enumerate(partners):
            lam = _join_diagram(a, b)
            wint[i, j] = scaled[lam]
            gint[i, j] = n0 ** lam.num_rows
    return bool((gint @ wint == den * np.identity(m, dtype=object)).all())


def verify_gram_identity(n: int, table: WeingartenTable | None = None,
                         fixed_dims: tuple[int, ...] = (7, 11)) -> bool:
    """Check G . W = Id for the size-n table.

    Up to n = 6 the full symbolic matrix product is formed.  For larger n the
    product is verified symbolically on one representative entry per
    relabeling orbit (which determines every entry) and fully, entry by
    entry, over exact integers at the given fixed dimensions.
    """
    table = table or weingarten_table(n)
    if n <= 6:
        return _full_symbolic_product_check(n, table)
    if not _orbit_symbolic_check(n, table):
        return False
    return all(_fixed_n_full_check(n, table, n0) for n0 in fixed_dims)
