"""Disc and annular noncrossing tests, definitional and by cycle counts.

The definitional predicates are literal quantifier scans over small tuples of
points (induced permutations restricted to the tuple).  The cycle-count
characterizations -- #(a) + #(phi^{-1} a^{-1}) = |I| + 1 for a disc and = |I|
for a connected annulus -- are the fast path; both are kept and cross-tested.
The premap predicates characterize Euler characteristic 2 gluings.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .errors import ValidationError
from .permap import Premap, SignedPermutation, phi_minus, phi_plus


def _single_cycle(phi: SignedPermutation) -> None:
    if phi.cycle_count != 1:
        raise ValidationError("boundary permutation must be a single cycle")


def _common_domain(phi: SignedPermutation, alpha: SignedPermutation) -> frozenset[int]:
    if phi.domain != alpha.domain:
        raise ValidationError("permutations on different domains")
    return phi.domain


def _induced(alpha: SignedPermutation, pts: tuple[int, ...]) -> dict[int, int]:
    """First-return map of alpha on a small tuple of points."""
    sub = set(pts)
    out = {}
    for k in pts:
        v = alpha(k)
        while v not in sub:
            v = alpha(v)
        out[k] = v
    return out


def _cycle_order(phi: SignedPermutation, pts: Iterable[int]) -> tuple[int, ...]:
    """The points listed in the induced cyclic order of phi (phi one cycle)."""
    pts = set(pts)
    start = min(pts)
    order = [start]
    k = phi(start)
    while k != start:
        if k in pts:
            order.append(k)
        k = phi(k)
    return tuple(order)


def is_disc_nonstandard(phi: SignedPermutation, alpha: SignedPermutation) -> bool:
    """Some triple carries the same induced 3-cycle in phi and alpha.

    A one-cycle phi induces a genuine 3-cycle on every triple, so the
    condition is exactly equality of the induced maps."""
    dom = _common_domain(phi, alpha)
    _single_cycle(phi)
    for pts in itertools.combinations(sorted(dom), 3):
        if _induced(alpha, pts) == _induced(phi, pts):
            return True
    return False


def is_disc_crossing(phi: SignedPermutation, alpha: SignedPermutation) -> bool:
    """Some quadruple is phi-ordered (a,b,c,d) while alpha swaps opposite points."""
    dom = _common_domain(phi, alpha)
    _single_cycle(phi)
    for pts in itertools.combinations(sorted(dom), 4):
        a, b, c, d = _cycle_order(phi, pts)
        ind = _induced(alpha, pts)
        if ind[a] == c and ind[c] == a and ind[b] == d and ind[d] == b:
            return True
    return False


def is_disc_noncrossing(phi: SignedPermutation, alpha: SignedPermutation) -> bool:
    """Neither disc nonstandard nor disc crossing relative to the one-cycle phi."""
    return not is_disc_nonstandard(phi, alpha) and not is_disc_crossing(phi, alpha)


def biane_criterion(phi: SignedPermutation, alpha: SignedPermutation) -> bool:
    """Cycle-count characterization: #(a) + #(phi^{-1} a^{-1}) = |I| + 1."""
    dom = _common_domain(phi, alpha)
    _single_cycle(phi)
    product = phi.inverse().compose(alpha.inverse())
    return alpha.cycle_count + product.cycle_count == len(dom) + 1


class AnnularFrame:
    """A boundary permutation with exactly two cycles, each of length >= 2."""

    def __init__(self, phi: SignedPermutation):
        cycles = phi.cycles()
        if len(cycles) != 2:
            raise ValidationError("annular frame needs exactly two cycles")
        if any(len(c) < 2 for c in cycles):
            raise ValidationError("annular frame cycles need at least two points")
        self.phi = phi
        self.external = frozenset(cycles[0])
        self.internal = frozenset(cycles[1])

    @classmethod
    def from_cycles(cls, ext: Iterable[int], int_: Iterable[int]) -> "AnnularFrame":
        return cls(SignedPermutation.from_cycles([tuple(ext), tuple(int_)]))

    @property
    def domain(self) -> frozenset[int]:
        return self.phi.domain

    def lambda_xy(self, x: int, y: int) -> SignedPermutation:
        """The annulus cut open at x (external) and y (internal): one cycle on
        the remaining points, following phi but jumping across the cut."""
        if x not in self.external or y not in self.internal:
            raise ValidationError("x must be external and y internal")
        phi = self.phi
        mapping = {}
        for k in self.domain - {x, y}:
            if k == phi.inverse()(x):
                mapping[k] = phi(y)
            elif k == phi.inverse()(y):
                mapping[k] = phi(x)
            else:
                mapping[k] = phi(k)
        return SignedPermutation(mapping)


def _connects_cycles(frame: AnnularFrame, alpha: SignedPermutation) -> bool:
    return alpha.connects(frame.external, frame.internal)


def is_annular_nonstandard(frame: AnnularFrame, alpha: SignedPermutation) -> bool:
    phi = frame.phi
    dom = _common_domain(phi, alpha)
    # condition 1: a common induced 3-cycle (all three points share a phi-cycle)
    for side in (frame.external, frame.internal):
        for pts in itertools.combinations(sorted(side), 3):
            if _induced(alpha, pts) == _induced(phi, pts):
                return True
    # condition 2: phi restricts to (a,b)(c,d) across the two cycles while
    # alpha restricts to a 4-cycle alternating between the pairs
    for epts in itertools.combinations(sorted(frame.external), 2):
        for ipts in itertools.combinations(sorted(frame.internal), 2):
            pts = epts + ipts
            ind = _induced(alpha, pts)
            k = pts[0]
            seen = [k]
            for _ in range(3):
                k = ind[k]
                seen.append(k)
            if len(set(seen)) != 4 or ind[seen[-1]] != seen[0]:
                continue
            pair_of = {epts[0]: 0, epts[1]: 0, ipts[0]: 1, ipts[1]: 1}
            if all(pair_of[p] != pair_of[ind[p]] for p in pts):
                return True
    return False


def is_annular_crossing(frame: AnnularFrame, alpha: SignedPermutation) -> bool:
    phi = frame.phi
    dom = _common_domain(phi, alpha)
    # condition 1: a crossing inside a single boundary cycle
    for side in (frame.external, frame.internal):
        for pts in itertools.combinations(sorted(side), 4):
            order = _cycle_order(phi, pts)
            a, b, c, d = order
            ind = _induced(alpha, pts)
            if ind[a] == c and ind[c] == a and ind[b] == d and ind[d] == b:
                return True
    # conditions 2 and 3 quantify over a cut (x, y)
    for x in sorted(frame.external):
        for y in sorted(frame.internal):
            lam = frame.lambda_xy(x, y)
            rest = sorted(dom - {x, y})
            for pts in itertools.combinations(rest, 3):
                full = pts + (x, y)
                ind = _induced(alpha, full)
                if ind[x] != y or ind[y] != x:
                    continue
                sub = {k: ind[k] for k in pts}
                lam_ind = _induced(lam, pts)
                if sub == lam_ind and sub[pts[0]] != pts[0]:
                    return True
            for pts in itertools.combinations(rest, 4):
                full = pts + (x, y)
                ind = _induced(alpha, full)
                if ind[x] != y or ind[y] != x:
                    continue
                a, b, c, d = _cycle_order(lam, pts)
                if ind[a] == c and ind[c] == a and ind[b] == d and ind[d] == b:
                    return True
    return False


def is_annular_noncrossing(frame: AnnularFrame, alpha: SignedPermutation,
                           require_connected: bool = True) -> bool:
    """Membership in the connected annular-noncrossing permutations.

    A permutation that does not connect the two boundary cycles is reported
    as not a member (rather than an error)."""
    if require_connected and not _connects_cycles(frame, alpha):
        return False
    return not is_annular_nonstandard(frame, alpha) and not is_annular_crossing(frame, alpha)


def mingo_nica_criterion(frame: AnnularFrame, alpha: SignedPermutation) -> bool:
    """Cycle-count characterization for connecting alpha:
    #(a) + #(phi^{-1} a^{-1}) = |I|."""
    dom = _common_domain(frame.phi, alpha)
    if not _connects_cycles(frame, alpha):
        raise ValidationError("alpha does not connect the boundary cycles")
    product = frame.phi.inverse().compose(alpha.inverse())
    return alpha.cycle_count + product.cycle_count == len(dom)


# -- premap (unoriented) characterizations of Euler characteristic 2 ---------


def premap_chi2_disc(phi: SignedPermutation, a: Premap) -> bool:
    """For a one-cycle phi on I: chi = 2 iff a keeps I and -I apart and its
    restriction to I is disc noncrossing."""
    _single_cycle(phi)
    half = sorted(phi.domain)
    if a.connects(half, [-k for k in half]):
        return False
    return is_disc_noncrossing(phi, a.restrict_induced(half))


def premap_chi2_annular(frame: AnnularFrame, a: Premap) -> bool:
    """For a two-cycle phi: chi = 2 iff for one of the two half-selections
    J = V1 u (+/-V2), a keeps J and -J apart and restricts to a connected
    annular-noncrossing permutation relative to phi_+ phi_-^{-1} on J."""
    phi = frame.phi
    v1, v2 = sorted(frame.external), sorted(frame.internal)
    if not a.connects([x for k in v1 for x in (k, -k)], [x for k in v2 for x in (k, -k)]):
        raise ValidationError("premap does not connect the two boundary handles")
    boundary = phi_plus(phi).compose(phi_minus(phi).inverse())
    for sign in (1, -1):
        j = list(v1) + [sign * k for k in v2]
        if a.connects(j, [-k for k in j]):
            continue
        sub_frame = AnnularFrame(boundary.restrict_induced(j))
        if is_annular_noncrossing(sub_frame, a.restrict_induced(j)):
            return True
    return False
