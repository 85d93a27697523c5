"""Exact orthogonal Weingarten functions as rational functions of N.

The Gram matrix over pairings of [n] is G(p,q) = N^{#(p v q)}; the Weingarten
function is its inverse over the field of rational functions (the determinant
is a nonzero polynomial, so no pseudoinverse is needed symbolically; fixed-N
poles surface at evaluation time).  Since the value depends only on the Young
diagram of the join, the table is solved per diagram class from a small exact
polynomial linear system instead of inverting the full (n-1)!! x (n-1)!! Gram
matrix.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import CapExceededError, ValidationError
from .ratpoly import ONE, Poly, PolyFrac, bareiss_solve, monomial, padd
from .setpart import SetPartition, YoungDiagram, enumerate_pairings, mobius, \
    enumerate_interval, young_diagrams

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


def _join_profile(p1: tuple[int, ...], p2: tuple[int, ...]) -> tuple[int, ...]:
    """Sorted block sizes of the join of two partner arrays (union-find)."""
    n = len(p1)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in (p1[i], p2[i]):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    sizes: dict[int, int] = {}
    for i in range(n):
        r = find(i)
        sizes[r] = sizes.get(r, 0) + 1
    return tuple(sorted(sizes.values(), reverse=True))


def pairing_join_diagram(p: SetPartition, q: SetPartition) -> YoungDiagram:
    order = sorted(p.ground)
    profile = _join_profile(_partner_tuple(p, order), _partner_tuple(q, order))
    return YoungDiagram([s // 2 for s in profile])


def gram_matrix(n: int, cap: int = WG_CAP) -> tuple[list[SetPartition], list[list[Poly]]]:
    """All pairings of [n] and the matrix of monomials N^{#(p v q)}."""
    _check_size(n, cap)
    pairings = list(enumerate_pairings(range(1, n + 1)))
    order = list(range(1, n + 1))
    partners = [_partner_tuple(p, order) for p in pairings]
    rows = []
    for a in partners:
        rows.append([monomial(len(_join_profile(a, b))) for b in partners])
    return pairings, rows


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


def compute_table(n: int, cap: int = WG_CAP) -> WeingartenTable:
    """Solve the per-diagram-class linear system for the size-n table."""
    _check_size(n, cap)
    order = list(range(1, n + 1))
    reference = SetPartition([(k, k + 1) for k in range(1, n + 1, 2)])
    ref = _partner_tuple(reference, order)
    sigmas = [_partner_tuple(p, order) for p in enumerate_pairings(order)]
    diagrams = list(young_diagrams(n // 2))
    index = {lam: i for i, lam in enumerate(diagrams)}
    rows: list[list[Poly]] = []
    rhs: list[Poly] = []
    ones = YoungDiagram([1] * (n // 2))
    for lam in diagrams:
        rep = _partner_tuple(_class_representative(lam), order)
        row = [() for _ in diagrams]
        for sigma in sigmas:
            mu = YoungDiagram([s // 2 for s in _join_profile(sigma, rep)])
            col = index[mu]
            row[col] = padd(row[col], monomial(len(_join_profile(ref, sigma))))
        rows.append(row)
        rhs.append(ONE if lam == ones else ())
    solution = bareiss_solve(rows, rhs)
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
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(table.to_json(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def load_golden(n: int, path: str | None = None) -> WeingartenTable:
    with open(path or golden_path(n)) as fh:
        return WeingartenTable.from_json(json.load(fh))


def wg_normalized(table: WeingartenTable, p_plus: SetPartition, p_minus: SetPartition) -> PolyFrac:
    """wg(p+, p-) = N^{n - #(p+ v p-)} Wg(p+, p-)."""
    if p_plus.ground != p_minus.ground:
        raise ValidationError("pairings on different ground sets")
    lam = pairing_join_diagram(p_plus, p_minus)
    if 2 * lam.n != table.n:
        raise ValidationError("pairing size does not match the table")
    return table.wg(lam)


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


class TableSet:
    """Lazy cache of tables for every even size up to a cap, with helpers for
    per-block normalized values."""

    def __init__(self, cap: int = WG_CAP):
        self.cap = cap
        self._wg_cache: dict[YoungDiagram, PolyFrac] = {}
        # relative cumulants C_{pi,pi,rho} built by trace cumulants, keyed by the
        # sizes of pi's blocks inside each block of rho, which determine them
        self.relative_cumulants: dict[tuple, PolyFrac] = {}

    def table(self, n: int) -> WeingartenTable:
        return weingarten_table(n, cap=self.cap)

    def wg_diagram(self, lam: YoungDiagram) -> PolyFrac:
        """Normalized wg for a diagram (table size 2 * weight)."""
        if lam not in self._wg_cache:
            self._wg_cache[lam] = self.table(2 * lam.n).wg(lam)
        return self._wg_cache[lam]

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
    from .ratpoly import ZERO, padd, pmul, pshift, poly_gcd, exact_div

    order = list(range(1, n + 1))
    partners = [_partner_tuple(p, order) for p in enumerate_pairings(order)]
    m = len(partners)
    classes = [[YoungDiagram([s // 2 for s in _join_profile(a, b)]) for b in partners]
               for a in partners]
    exps = [[len(_join_profile(a, b)) for b in partners] for a in partners]
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
                acc = padd(acc, pshift(nums[classes[k][j]], exps[i][k]))
            expected = den if i == j else ZERO
            if acc != expected:
                return False
    return True


def _orbit_symbolic_check(n: int, table: WeingartenTable) -> bool:
    """One symbolic row-sum per conjugation orbit of pairing pairs.

    Simultaneous relabeling fixes every entry of G . W and classifies pairs
    by the diagram of their join, so one representative entry per diagram
    covers the whole product."""
    order = list(range(1, n + 1))
    reference = SetPartition([(k, k + 1) for k in range(1, n + 1, 2)])
    ref = _partner_tuple(reference, order)
    partners = [_partner_tuple(p, order) for p in enumerate_pairings(order)]
    ones = YoungDiagram([1] * (n // 2))
    for lam in young_diagrams(n // 2):
        rep = _partner_tuple(_class_representative(lam), order)
        total = PolyFrac(0)
        for sigma in partners:
            mu = YoungDiagram([s // 2 for s in _join_profile(sigma, rep)])
            total = total + PolyFrac(monomial(len(_join_profile(ref, sigma)))) * table.entries[mu]
        if total != PolyFrac(1 if lam == ones else 0):
            return False
    return True


def _fixed_n_full_check(n: int, table: WeingartenTable, n0: int) -> bool:
    """Full (m x m) G(n0) . W(n0) = Id over exact rationals at one dimension."""
    order = list(range(1, n + 1))
    partners = [_partner_tuple(p, order) for p in enumerate_pairings(order)]
    m = len(partners)
    values = {lam: table.entries[lam].eval_at(n0) for lam in table.entries}
    import numpy as _np

    den = 1
    for v in values.values():
        den = den * v.denominator // math.gcd(den, v.denominator)
    wint = _np.empty((m, m), dtype=object)
    gint = _np.empty((m, m), dtype=object)
    classes_cache: dict[tuple, YoungDiagram] = {}
    for i, a in enumerate(partners):
        for j, b in enumerate(partners):
            prof = _join_profile(a, b)
            lam = classes_cache.setdefault(prof, YoungDiagram([s // 2 for s in prof]))
            wint[i, j] = int(values[lam] * den)
            gint[i, j] = n0 ** len(prof)
    prod = gint @ wint
    ident = _np.array([[den if i == j else 0 for j in range(m)] for i in range(m)],
                      dtype=object)
    return bool((prod == ident).all())


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
