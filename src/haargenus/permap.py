"""Signed permutations, premaps, and the surface-gluing bookkeeping.

A premap is a permutation a of a symmetric domain +/-I satisfying
d a d = a^{-1} (d: k -> -k) with no cycle through both k and -k; its cycles
come in mirror pairs.  Together with a boundary permutation phi on I it
determines a (possibly nonorientable) gluing whose vertex permutation is
K(phi, a) = phi_+^{-1} a^{-1} phi_- and whose Euler characteristic is

    chi(phi, a) = (#(phi_+ phi_-^{-1}) + #(a) + #(K(phi, a))) / 2 - |I|.

Composition convention throughout: (s * t)(k) = s(t(k)).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping

from .errors import GroundMismatchError, ValidationError
from .setpart import SetPartition, YoungDiagram


class SignedPermutation:
    """An immutable bijection of a finite set of nonzero integers."""

    __slots__ = ("_map", "_domain", "_cycles")

    def __init__(self, mapping: Mapping[int, int]):
        dom = frozenset(mapping)
        img = frozenset(mapping.values())
        if dom != img:
            raise ValidationError("mapping is not a bijection of its domain")
        if 0 in dom:
            raise ValidationError("domain excludes 0")
        self._map = dict(mapping)
        self._domain = dom
        self._cycles = None

    # -- construction --------------------------------------------------

    @classmethod
    def identity(cls, domain: Iterable[int]) -> "SignedPermutation":
        return cls({k: k for k in domain})

    @classmethod
    def from_cycles(cls, cycles: Iterable[Iterable[int]],
                    domain: Iterable[int] | None = None) -> "SignedPermutation":
        """Build from cycle notation; points of `domain` not mentioned are fixed."""
        mapping: dict[int, int] = {}
        for cyc in cycles:
            cyc = list(cyc)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if a in mapping:
                    raise ValidationError(f"point {a} appears in two cycles")
                mapping[a] = b
        if domain is not None:
            for k in domain:
                mapping.setdefault(k, k)
        return cls(mapping)

    # -- basic protocol -------------------------------------------------

    def __call__(self, k: int) -> int:
        return self._map[k]

    @property
    def domain(self) -> frozenset[int]:
        return self._domain

    def __eq__(self, other) -> bool:
        return isinstance(other, SignedPermutation) and self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def __repr__(self) -> str:
        if not self._domain:
            return "SignedPermutation(())"
        body = "".join(
            "(" + ",".join(map(str, c)) + ")" for c in self.cycles(include_fixed=False)
        ) or "id"
        return f"SignedPermutation[{body}]"

    # -- cycles ----------------------------------------------------------

    def cycles(self, include_fixed: bool = True) -> tuple[tuple[int, ...], ...]:
        """Canonical cycles: each starts at its minimal-|k| point (positive
        preferred on ties), listed by ascending that key."""
        if self._cycles is None:
            seen: set[int] = set()
            out = []
            for start in sorted(self._domain, key=lambda k: (abs(k), k < 0)):
                if start in seen:
                    continue
                cyc = [start]
                seen.add(start)
                k = self._map[start]
                while k != start:
                    cyc.append(k)
                    seen.add(k)
                    k = self._map[k]
                out.append(tuple(cyc))
            self._cycles = tuple(out)
        if include_fixed:
            return self._cycles
        return tuple(c for c in self._cycles if len(c) > 1)

    @property
    def cycle_count(self) -> int:
        return len(self.cycles())

    # -- group operations --------------------------------------------------

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """(self * other)(k) = self(other(k))."""
        if self._domain != other._domain:
            raise GroundMismatchError("composition on different domains")
        return SignedPermutation({k: self._map[other._map[k]] for k in self._domain})

    __mul__ = compose

    def inverse(self) -> "SignedPermutation":
        return SignedPermutation({v: k for k, v in self._map.items()})

    def extend(self, domain: Iterable[int]) -> "SignedPermutation":
        """Extend by fixed points to a larger domain."""
        mapping = dict(self._map)
        for k in domain:
            mapping.setdefault(k, k)
        return SignedPermutation(mapping)

    def restrict_induced(self, subset: Iterable[int]) -> "SignedPermutation":
        """First-return map on a subset: k -> s^m(k), smallest m with s^m(k) inside."""
        sub = frozenset(subset)
        if not sub <= self._domain:
            raise GroundMismatchError("subset not contained in the domain")
        mapping = {}
        for k in sub:
            v = self._map[k]
            while v not in sub:
                v = self._map[v]
            mapping[k] = v
        return SignedPermutation(mapping)

    def connects(self, a_side: Iterable[int], b_side: Iterable[int]) -> bool:
        """True iff some orbit meets both point sets."""
        aset, bset = frozenset(a_side), frozenset(b_side)
        return any(set(c) & aset and set(c) & bset for c in self.cycles())

    # -- serialization ------------------------------------------------------

    def to_json(self) -> list[list[int]]:
        return [list(c) for c in self.cycles(include_fixed=True)]

    @classmethod
    def from_json(cls, data, domain=None) -> "SignedPermutation":
        return cls.from_cycles(data, domain=domain)


def delta_eps_conjugate(s: SignedPermutation, eps: Mapping[int, int]) -> SignedPermutation:
    """Conjugate by d_eps: k -> eps(|k|) k, applied structurally.

    eps maps positive positions to +1/-1; points whose |k| has eps = -1 are
    swapped with their negatives.
    """

    def d(k: int) -> int:
        return eps[abs(k)] * k

    return SignedPermutation({d(k): d(v) for k, v in s._map.items()})


class Premap(SignedPermutation):
    """A signed permutation a on +/-I with d a d = a^{-1} and a(k) != -k."""

    __slots__ = ()

    def __init__(self, mapping: Mapping[int, int]):
        super().__init__(mapping)
        reason = _premap_violation(self)
        if reason:
            raise ValidationError(f"not a premap: {reason}")

    def particular_cycles(self) -> tuple[tuple[int, ...], ...]:
        """One cycle from each mirror pair: the one whose minimal-|k| point is
        positive; ordered by that point."""
        return tuple(c for c in self.cycles() if c[0] > 0)

    @classmethod
    def from_particular(cls, cycles: Iterable[Iterable[int]]) -> "Premap":
        """Rebuild a premap from its particular cycles: each mirror cycle is
        the negated reversal."""
        full = []
        for c in cycles:
            c = tuple(c)
            full.append(c)
            full.append(tuple(-k for k in reversed(c)))
        return cls(SignedPermutation.from_cycles(full)._map)

    @classmethod
    def from_json(cls, data, domain=None) -> "Premap":
        """Accept full cycle lists or particular cycles only (mirrors added)."""
        mentioned = {k for c in data for k in c}
        if any(-k not in mentioned for k in mentioned):
            return cls.from_particular(data)
        return cls(SignedPermutation.from_cycles(data, domain=domain)._map)


def _premap_violation(s: SignedPermutation) -> str | None:
    dom = s.domain
    if frozenset(-k for k in dom) != dom:
        return "domain is not symmetric"
    for k in dom:
        if s(k) == -k:
            return f"maps {k} to {-k}"
        if s(-s(k)) != -k:
            return "conjugation by negation is not the inverse"
    return None


def as_premap(s: SignedPermutation) -> Premap:
    return s if isinstance(s, Premap) else Premap(s._map)


def is_alternating(s: SignedPermutation) -> bool:
    """Every step flips the sign: sgn(s(k)) = -sgn(k)."""
    return all((k > 0) != (s(k) > 0) for k in s.domain)


# -- pairings <-> alternating premaps ---------------------------------------


def pairings_to_premap(p_plus: SetPartition, p_minus: SetPartition) -> Premap:
    """The alternating premap p_minus d p_plus built from two pairings on I.

    Acts as k -> -p_plus(k) on I and -k -> p_minus(k); a bijection from pairs
    of pairings of I onto the alternating premaps of +/-I.
    """
    if p_plus.ground != p_minus.ground:
        raise GroundMismatchError("pairings on different ground sets")
    if not (p_plus.is_pairing() and p_minus.is_pairing()):
        raise ValidationError("both arguments must be pairings")
    if any(k < 0 for k in p_plus.ground):
        raise ValidationError("pairings must live on positive points")
    plus = {k: next(iter(b - {k})) for b in p_plus.blocks for k in b}
    minus = {k: next(iter(b - {k})) for b in p_minus.blocks for k in b}
    mapping: dict[int, int] = {}
    for k in p_plus.ground:
        mapping[k] = -plus[k]
        mapping[-k] = minus[k]
    return Premap(mapping)


def premap_to_pairings(a: Premap) -> tuple[SetPartition, SetPartition]:
    """Inverse of pairings_to_premap: p_plus(k) = -a(k), p_minus(k) = a(-k)."""
    if not is_alternating(a):
        raise ValidationError("premap is not alternating")
    positive = sorted(k for k in a.domain if k > 0)
    plus = {k: -a(k) for k in positive}
    minus = {k: a(-k) for k in positive}
    blocks_plus = {frozenset((k, v)) for k, v in plus.items()}
    blocks_minus = {frozenset((k, v)) for k, v in minus.items()}
    return SetPartition(blocks_plus), SetPartition(blocks_minus)


def enumerate_premaps(positive: Iterable[int]) -> Iterator[Premap]:
    """All (2n-1)!! premaps on +/-I, by assigning images smallest point first.

    Choosing a(k) = v forces a(-v) = -k, so the search assigns mirror pairs
    of arcs and never backtracks into an inconsistent state.
    """
    pos = sorted(frozenset(positive))
    if any(k <= 0 for k in pos):
        raise ValidationError("positive ground set required")
    domain = [x for k in pos for x in (k, -k)]

    def rec(mapping: dict[int, int], used: set[int]):
        free = [k for k in domain if k not in mapping]
        if not free:
            yield Premap(dict(mapping))
            return
        k = min(free, key=lambda x: (abs(x), x < 0))
        for v in domain:
            if v in used or v == -k:
                continue
            back_src, back_img = -v, -k
            if back_src in mapping or back_img in used:
                if not (mapping.get(back_src) == back_img):
                    continue
                forced = False
            else:
                forced = True
            mapping[k] = v
            used.add(v)
            if forced and back_src != k:
                mapping[back_src] = back_img
                used.add(back_img)
            yield from rec(mapping, used)
            del mapping[k]
            used.discard(v)
            if forced and back_src != k:
                del mapping[back_src]
                used.discard(back_img)

    yield from rec({}, set())


# -- gluing bookkeeping ------------------------------------------------------


def _split_domain(phi: SignedPermutation) -> frozenset[int]:
    half = phi.domain
    if half & frozenset(-k for k in half):
        raise ValidationError("boundary permutation domain must avoid its negative")
    return half


def phi_plus(phi: SignedPermutation) -> SignedPermutation:
    """phi extended to +/-I, fixing -I pointwise."""
    half = _split_domain(phi)
    return phi.extend(itertools.chain(half, (-k for k in half)))


def phi_minus(phi: SignedPermutation) -> SignedPermutation:
    """d phi d extended to +/-I, fixing I pointwise."""
    half = _split_domain(phi)
    mapping = {-k: -phi(k) for k in half}
    mapping.update({k: k for k in half})
    return SignedPermutation(mapping)


def _check_gluing(phi: SignedPermutation, a: SignedPermutation) -> None:
    half = _split_domain(phi)
    full = half | frozenset(-k for k in half)
    if a.domain != full:
        raise GroundMismatchError("gluing permutation must live on +/-(domain of phi)")


def K(phi: SignedPermutation, a: Premap) -> Premap:
    """Vertex permutation phi_+^{-1} a^{-1} phi_- of the gluing (phi, a)."""
    _check_gluing(phi, a)
    return as_premap(phi_plus(phi).inverse().compose(a.inverse()).compose(phi_minus(phi)))


def K_inverse(phi: SignedPermutation, a: Premap) -> Premap:
    """phi_-^{-1} a phi_+, computed as one composition chain."""
    _check_gluing(phi, a)
    return as_premap(phi_minus(phi).inverse().compose(a).compose(phi_plus(phi)))


def euler_characteristic(phi: SignedPermutation, a: Premap) -> int:
    """(#(phi_+ phi_-^{-1}) + #(a) + #(K(phi,a))) / 2 - |I|."""
    _check_gluing(phi, a)
    boundary = phi_plus(phi).compose(phi_minus(phi).inverse())
    twice = boundary.cycle_count + a.cycle_count + K_inverse(phi, a).cycle_count
    assert twice % 2 == 0
    return twice // 2 - len(phi.domain)


def particular_cycles(a: Premap) -> tuple[tuple[int, ...], ...]:
    return as_premap(a).particular_cycles()


def young_of_premap(a: Premap) -> YoungDiagram:
    """Rows are half the particular-cycle lengths of an alternating premap."""
    if not is_alternating(a):
        raise ValidationError("premap is not alternating")
    rows = []
    for c in as_premap(a).particular_cycles():
        if len(c) % 2:
            raise ValidationError("alternating premap has an odd cycle")
        rows.append(len(c) // 2)
    return YoungDiagram(rows)
