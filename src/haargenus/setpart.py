"""Set partitions over finite signed-integer ground sets.

Partitions form a lattice under refinement; this module provides join/meet,
the Mobius function of the partition lattice, enumeration of partitions,
intervals and pairings, and Young diagrams.

Ground sets are arbitrary finite sets of nonzero integers (a point k and its
negative -k may both be present), since the downstream surface machinery
partitions sets like {1,...,n}, {-n,...,-1,1,...,n} and sets of cycle labels.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator

from .errors import CapExceededError, GroundMismatchError, ValidationError

PARTITION_CAP = 12
PAIRING_CAP = 16


def _check_ground(elements: Iterable[int]) -> frozenset[int]:
    ground = frozenset(elements)
    if 0 in ground:
        raise ValidationError("ground sets exclude 0")
    if not all(isinstance(k, int) for k in ground):
        raise ValidationError("ground elements must be integers")
    return ground


class SetPartition:
    """An immutable partition of a finite set of nonzero integers.

    Blocks are stored canonically: each block sorted, blocks ordered by
    their minimum element.
    """

    __slots__ = ("_blocks", "_ground", "_hash")

    def __init__(self, blocks: Iterable[Iterable[int]], ground: Iterable[int] | None = None):
        blks = [frozenset(b) for b in blocks]
        if any(not b for b in blks):
            raise ValidationError("empty block")
        seen: set[int] = set()
        for b in blks:
            if seen & b:
                raise ValidationError("blocks are not disjoint")
            seen |= b
        covered = _check_ground(seen)
        if ground is not None:
            g = _check_ground(ground)
            if g != covered:
                raise ValidationError("blocks do not cover the ground set")
        self._ground = covered
        self._blocks = tuple(sorted(blks, key=min))
        self._hash = hash(self._blocks)

    @classmethod
    def singletons(cls, ground: Iterable[int]) -> "SetPartition":
        return cls([[k] for k in _check_ground(ground)])

    @classmethod
    def full(cls, ground: Iterable[int]) -> "SetPartition":
        g = _check_ground(ground)
        if not g:
            raise ValidationError("full partition of an empty set")
        return cls([g])

    @property
    def blocks(self) -> tuple[frozenset[int], ...]:
        return self._blocks

    @property
    def ground(self) -> frozenset[int]:
        return self._ground

    @property
    def num_blocks(self) -> int:
        return len(self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    def __eq__(self, other) -> bool:
        return isinstance(other, SetPartition) and self._blocks == other._blocks

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = "".join("{" + ",".join(map(str, sorted(b))) + "}" for b in self._blocks)
        return f"SetPartition({body})"

    def is_finer_than(self, other: "SetPartition") -> bool:
        """True iff every block of self sits inside a block of other (self <= other)."""
        if self._ground != other._ground:
            raise GroundMismatchError("partitions on different ground sets")
        lookup = {k: i for i, b in enumerate(other._blocks) for k in b}
        return all(len({lookup[k] for k in b}) == 1 for b in self._blocks)

    def join(self, other: "SetPartition") -> "SetPartition":
        """Smallest partition coarser than both (transitive closure of the union)."""
        if self._ground != other._ground:
            raise GroundMismatchError("partitions on different ground sets")
        parent = {k: k for k in self._ground}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry

        for p in (self, other):
            for b in p._blocks:
                it = iter(b)
                first = next(it)
                for k in it:
                    union(first, k)
        groups: dict[int, list[int]] = {}
        for k in self._ground:
            groups.setdefault(find(k), []).append(k)
        return SetPartition(groups.values())

    def meet(self, other: "SetPartition") -> "SetPartition":
        """Largest partition finer than both (blockwise intersections)."""
        if self._ground != other._ground:
            raise GroundMismatchError("partitions on different ground sets")
        blocks = []
        for a in self._blocks:
            for b in other._blocks:
                c = a & b
                if c:
                    blocks.append(c)
        return SetPartition(blocks)

    __or__ = join
    __and__ = meet

    def is_pairing(self) -> bool:
        return all(len(b) == 2 for b in self._blocks)

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(sorted((len(b) for b in self._blocks), reverse=True))

    def to_json(self) -> list[list[int]]:
        return [sorted(b) for b in self._blocks]

    @classmethod
    def from_json(cls, data: Iterable[Iterable[int]]) -> "SetPartition":
        return cls(data)


class YoungDiagram:
    """Weakly decreasing positive row lengths; indexes Weingarten classes."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[int]):
        r = tuple(sorted(rows, reverse=True))
        if any(x < 1 for x in r):
            raise ValidationError("rows must be positive")
        self._rows = r

    @property
    def rows(self) -> tuple[int, ...]:
        return self._rows

    @property
    def n(self) -> int:
        return sum(self._rows)

    @property
    def num_rows(self) -> int:
        return len(self._rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, YoungDiagram) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"YoungDiagram({list(self._rows)})"

    def to_json(self) -> list[int]:
        return list(self._rows)

    @classmethod
    def from_json(cls, data: Iterable[int]) -> "YoungDiagram":
        return cls(data)

    @classmethod
    def from_even_block_sizes(cls, sizes: Iterable[int]) -> "YoungDiagram":
        """Rows are half the (even) block sizes; used for joins of pairings."""
        halves = []
        for s in sizes:
            if s % 2:
                raise ValidationError("block sizes must be even")
            halves.append(s // 2)
        return cls(halves)


def young_diagrams(n: int) -> Iterator[YoungDiagram]:
    """All Young diagrams of weight n, largest first row first."""

    def gen(remaining, maximum):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maximum), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    for rows in gen(n, n):
        yield YoungDiagram(rows)


def join_of_pairings_diagram(p: SetPartition, q: SetPartition) -> YoungDiagram:
    """Young diagram with a row of half the size of each block of p v q."""
    return YoungDiagram.from_even_block_sizes((p | q).block_sizes())


def enumerate_partitions(ground: Iterable[int], cap: int = PARTITION_CAP) -> Iterator[SetPartition]:
    """All partitions of the ground set, in restricted-growth order."""
    elems = sorted(_check_ground(ground))
    n = len(elems)
    if n > cap:
        raise CapExceededError(f"partition enumeration capped at {cap} elements, got {n}")
    if n == 0:
        return

    def rec(i: int, blocks: list[list[int]]):
        if i == n:
            yield SetPartition([list(b) for b in blocks])
            return
        for b in blocks:
            b.append(elems[i])
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([elems[i]])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def enumerate_pairings(ground: Iterable[int], cap: int = PAIRING_CAP) -> Iterator[SetPartition]:
    """All (n-1)!! pairings of the ground set; empty stream for odd size."""
    elems = sorted(_check_ground(ground))
    n = len(elems)
    if n > cap:
        raise CapExceededError(f"pairing enumeration capped at {cap} elements, got {n}")
    if n % 2:
        return
    if n == 0:
        yield SetPartition([])
        return

    def rec(pool: list[int], acc: list[tuple[int, int]]):
        if not pool:
            yield SetPartition(acc)
            return
        first = pool[0]
        for j in range(1, len(pool)):
            acc.append((first, pool[j]))
            yield from rec(pool[1:j] + pool[j + 1:], acc)
            acc.pop()

    yield from rec(elems, [])


def mobius(p: SetPartition, q: SetPartition) -> int:
    """Mobius function of the partition lattice.

    Zero unless p <= q; otherwise the product over blocks W of q of
    (-1)^(m-1) (m-1)! where m counts the blocks of p inside W.
    """
    if p.ground != q.ground:
        raise GroundMismatchError("partitions on different ground sets")
    if not p.is_finer_than(q):
        return 0
    lookup = {min(b): b for b in q.blocks}
    counts = {k: 0 for k in lookup}
    block_index = {x: k for k, b in lookup.items() for x in b}
    for b in p.blocks:
        counts[block_index[min(b)]] += 1
    value = 1
    for m in counts.values():
        value *= (-1) ** (m - 1) * math.factorial(m - 1)
    return value


def enumerate_interval(lower: SetPartition, upper: SetPartition) -> Iterator[SetPartition]:
    """All partitions p with lower <= p <= upper.

    Isomorphic to a product, over blocks of upper, of partitions of the
    lower-blocks inside; the lower partition's blocks act as points.
    """
    if not lower.is_finer_than(upper):
        return
    per_block: list[list[list[frozenset[int]]]] = []
    for ub in upper.blocks:
        inner = [b for b in lower.blocks if b <= ub]
        choices = []
        for sub in enumerate_partitions(range(1, len(inner) + 1), cap=max(PARTITION_CAP, len(inner))):
            choices.append([frozenset().union(*(inner[i - 1] for i in blk)) for blk in sub.blocks])
        per_block.append(choices)
    for combo in itertools.product(*per_block):
        yield SetPartition([b for group in combo for b in group])
