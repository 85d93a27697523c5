import itertools
import random
from collections import deque

import pytest

from haargenus.errors import GroundMismatchError, ValidationError
from haargenus.permap import (K, K_inverse, Premap, SignedPermutation,
                              delta_eps_conjugate, enumerate_premaps, euler_characteristic,
                              is_alternating, pairings_to_premap, particular_cycles,
                              premap_to_pairings, young_of_premap)
from haargenus.setpart import SetPartition, YoungDiagram, enumerate_pairings
from oracles import (conjugate_by, enumerate_alternating_premaps, induced_permutation,
                     is_premap, orbit_partition, transposition_length)

LOOP_PLUS = SetPartition([[1, 2], [3, 5], [4, 8], [6, 7]])
LOOP_MINUS = SetPartition([[1, 6], [2, 5], [3, 7], [4, 8]])


def cycle_perm(*cycles):
    return SignedPermutation.from_cycles(cycles)


class TestSignedPermutation:
    def test_bijection_required(self):
        with pytest.raises(ValidationError):
            SignedPermutation({1: 2, 2: 2})

    def test_composition_order(self):
        # (s * t)(k) = s(t(k)): worked product of the two loop pairings
        s = cycle_perm([1, 2], [3, 5], [4, 8], [6, 7])
        t = cycle_perm([1, 6], [2, 5], [3, 7], [4, 8])
        assert (s * t).cycles(include_fixed=True) == ((1, 7, 5), (2, 3, 6), (4,), (8,))

    def test_inverse(self):
        s = cycle_perm([1, 2, 3], [4, 5])
        assert (s * s.inverse()) == SignedPermutation.identity(s.domain)

    def test_conjugation_relabels_cycles(self):
        rng = random.Random(9)
        for n in (3, 4, 5, 6):
            dom = list(range(1, n + 1))
            for _ in range(10):
                images = dom[:]
                rng.shuffle(images)
                pi = SignedPermutation(dict(zip(dom, images)))
                images2 = dom[:]
                rng.shuffle(images2)
                rho = SignedPermutation(dict(zip(dom, images2)))
                conj = conjugate_by(pi, rho)
                relabeled = {frozenset(rho(k) for k in c) for c in pi.cycles()}
                assert {frozenset(c) for c in conj.cycles()} == relabeled

    def test_induced_first_return(self):
        s = cycle_perm([1, 2, 3, 4])
        assert induced_permutation(s, [1, 3]).cycles() == ((1, 3),)

    def test_induced_full_domain(self):
        s = cycle_perm([1, 2], [3, 4, 5])
        assert induced_permutation(s, s.domain) == s

    def test_induced_disconnected_is_restriction(self):
        s = cycle_perm([1, 2], [3, 4, 5])
        sub = induced_permutation(s, [1, 2])
        assert sub == cycle_perm([1, 2])

    def test_induced_requires_subset(self):
        s = cycle_perm([1, 2])
        with pytest.raises(GroundMismatchError):
            induced_permutation(s, [1, 7])

    def test_transposition_length_bfs_oracle(self):
        # |pi| = n - #cycles, checked against breadth-first search distance in
        # the Cayley graph of S4 generated by transpositions
        dom = (1, 2, 3, 4)
        idx = {p: i for i, p in enumerate(itertools.permutations(dom))}
        dist = [None] * len(idx)
        start = idx[dom]
        dist[start] = 0
        queue = deque([dom])
        transpositions = list(itertools.combinations(range(4), 2))
        while queue:
            cur = queue.popleft()
            for i, j in transpositions:
                nxt = list(cur)
                nxt[i], nxt[j] = nxt[j], nxt[i]
                nxt = tuple(nxt)
                if dist[idx[nxt]] is None:
                    dist[idx[nxt]] = dist[idx[cur]] + 1
                    queue.append(nxt)
        for images in itertools.permutations(dom):
            s = SignedPermutation(dict(zip(dom, images)))
            assert transposition_length(s) == dist[idx[images]]

    def test_json_round_trip(self):
        s = cycle_perm([1, -2], [2, -1])
        assert SignedPermutation.from_json(s.to_json()) == s


class TestPremap:
    def test_is_premap_examples(self):
        assert is_premap(cycle_perm([1, -2], [2, -1]))
        assert not is_premap(cycle_perm([1, -1]))
        assert is_premap(cycle_perm([1, 2], [-1, -2]))

    def test_premap_requires_symmetric_domain(self):
        with pytest.raises(ValidationError):
            is_premap(cycle_perm([1, 2]))

    def test_rejects_self_negation(self):
        with pytest.raises(ValidationError):
            Premap({1: -1, -1: 1})

    def test_enumeration_counts(self):
        # (2n-1)!! premaps on +/-[n]
        assert len(list(enumerate_premaps([1]))) == 1
        assert len(list(enumerate_premaps([1, 2]))) == 3
        assert len(list(enumerate_premaps([1, 2, 3]))) == 15
        assert len(list(enumerate_premaps([1, 2, 3, 4]))) == 105

    def test_enumeration_valid_and_distinct(self):
        premaps = list(enumerate_premaps([1, 2, 3]))
        assert len(set(premaps)) == len(premaps)
        for a in premaps:
            assert is_premap(a)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_enumeration_against_brute_filter(self, n):
        # brute membership filter over all permutations of +/-[n]
        domain = [x for k in range(1, n + 1) for x in (k, -k)]
        brute = set()
        for images in itertools.permutations(domain):
            s = SignedPermutation(dict(zip(domain, images)))
            if is_premap(s):
                brute.add(s)
        assert set(enumerate_premaps(range(1, n + 1))) == brute

    def test_closure_under_conjugation_and_inverse(self):
        for a in enumerate_premaps([1, 2, 3, 4]):
            inv = a.inverse()
            assert is_premap(inv) and inv.cycle_count == a.cycle_count
            for bits in itertools.product((1, -1), repeat=4):
                eps = dict(zip((1, 2, 3, 4), bits))
                conj = delta_eps_conjugate(a, eps)
                assert is_premap(conj)
                assert conj.cycle_count == a.cycle_count

    def test_particular_cycles_determine_premap(self):
        for a in enumerate_premaps([1, 2, 3, 4]):
            rebuilt = Premap.from_particular(a.particular_cycles())
            assert rebuilt == a
            assert len(a.particular_cycles()) == a.cycle_count // 2

    def test_premap_json_expands_particular_cycles(self):
        a = pairings_to_premap(LOOP_PLUS, LOOP_MINUS)
        from_particular = Premap.from_json([list(c) for c in a.particular_cycles()])
        assert from_particular == a


class TestPairingBijection:
    def test_two_point_example(self):
        a = pairings_to_premap(SetPartition([[1, 2]]), SetPartition([[1, 2]]))
        assert a == cycle_perm([1, -2], [2, -1])

    def test_loop_example(self):
        a = pairings_to_premap(LOOP_PLUS, LOOP_MINUS)
        assert a.particular_cycles() == ((1, -2, 5, -3, 7, -6), (4, -8))

    def test_round_trip_exhaustive(self):
        pairings = list(enumerate_pairings([1, 2, 3, 4]))
        images = set()
        for p_plus in pairings:
            for p_minus in pairings:
                a = pairings_to_premap(p_plus, p_minus)
                assert is_alternating(a)
                assert premap_to_pairings(a) == (p_plus, p_minus)
                images.add(a)
        assert len(images) == 9
        # the image is exactly the alternating premaps
        alternating = {a for a in enumerate_premaps([1, 2, 3, 4]) if is_alternating(a)}
        assert images == alternating
        assert set(enumerate_alternating_premaps([1, 2, 3, 4])) == alternating

    @pytest.mark.slow
    def test_bijection_counts_size_six(self):
        # (6-1)!!^2 = 225 alternating premaps on +/-[6], counted both ways
        images = {pairings_to_premap(p, q)
                  for p in enumerate_pairings(range(1, 7))
                  for q in enumerate_pairings(range(1, 7))}
        assert len(images) == 225
        filtered = sum(1 for a in enumerate_premaps(range(1, 7)) if is_alternating(a))
        assert filtered == 225
        for a in images:
            p, q = premap_to_pairings(a)
            assert pairings_to_premap(p, q) == a

    def test_non_alternating_rejected(self):
        with pytest.raises(ValidationError):
            premap_to_pairings(Premap(cycle_perm([1, 2], [-1, -2])._map))

    def test_young_diagram_triple(self):
        a = pairings_to_premap(LOOP_PLUS, LOOP_MINUS)
        assert young_of_premap(a) == YoungDiagram([3, 1])
        b = pairings_to_premap(SetPartition([[1, 2]]), SetPartition([[1, 2]]))
        assert young_of_premap(b) == YoungDiagram([1])


class TestVertexPermutation:
    def test_k_inverse_mixed_signs(self):
        phi = cycle_perm([1, 2])
        alpha = pairings_to_premap(SetPartition([[1, 2]]), SetPartition([[1, 2]]))
        conj = delta_eps_conjugate(alpha, {1: 1, 2: -1})
        kinv = K_inverse(phi, conj)
        assert kinv == SignedPermutation.identity({1, 2, -1, -2})
        assert euler_characteristic(phi, conj) == 2

    def test_k_inverse_same_signs(self):
        phi = cycle_perm([1, 2])
        alpha = pairings_to_premap(SetPartition([[1, 2]]), SetPartition([[1, 2]]))
        kinv = K_inverse(phi, alpha)
        assert kinv == cycle_perm([1, -2], [2, -1])
        assert euler_characteristic(phi, alpha) == 1

    def test_k_is_inverse_of_k_inverse(self):
        phi = cycle_perm([1, 2, 3])
        for a in enumerate_premaps([1, 2, 3]):
            assert K(phi, a) == K_inverse(phi, a).inverse()
            assert is_premap(K(phi, a))

    def test_k_refines_join(self):
        # K(phi, a) is finer than the join of {+/-V_i} with the orbits of a
        rng = random.Random(17)
        for n in (3, 4, 5):
            dom = list(range(1, n + 1))
            premaps = list(enumerate_premaps(dom)) if n <= 4 else None
            for _ in range(25):
                images = dom[:]
                rng.shuffle(images)
                phi = SignedPermutation(dict(zip(dom, images)))
                a = rng.choice(premaps) if premaps is not None else _random_premap(rng, dom)
                vertex_part = orbit_partition(K(phi, a))
                blocks = [set(c) | {-k for k in c} for c in phi.cycles()]
                upper = SetPartition(blocks).join(orbit_partition(a))
                assert vertex_part.is_finer_than(upper)

    def test_chi_of_loop_gluing(self):
        # two traces of lengths 3+5 glued along the loop pairings: chi = -1
        phi = cycle_perm([1, 2, 3], [4, 5, 6, 7, 8])
        eps = {1: 1, 2: 1, 3: -1, 4: 1, 5: -1, 6: -1, 7: 1, 8: 1}
        a = delta_eps_conjugate(pairings_to_premap(LOOP_PLUS, LOOP_MINUS), eps)
        assert euler_characteristic(phi, a) == -1
        kinv = K_inverse(phi, a)
        assert set(kinv.cycles()) >= {(1, -3, 5), (2, 7, -8, 4), (6,)}

    def test_chi_at_most_two_when_connected(self):
        for n, shapes in ((3, [[(1, 2, 3)], [(1, 2), (3,)]]),
                          (4, [[(1, 2, 3, 4)], [(1, 2), (3, 4)]])):
            for shape in shapes:
                phi = SignedPermutation.from_cycles(shape, domain=range(1, n + 1))
                blocks = [set(c) | {-k for k in c} for c in phi.cycles()]
                for a in enumerate_premaps(range(1, n + 1)):
                    joined = SetPartition(blocks).join(orbit_partition(a))
                    if joined.num_blocks == 1:
                        assert euler_characteristic(phi, a) <= 2

    def test_chi_at_most_two_random_n6(self):
        rng = random.Random(23)
        dom = list(range(1, 7))
        phi = cycle_perm([1, 2, 3], [4, 5, 6])
        blocks = [set(c) | {-k for k in c} for c in phi.cycles()]
        for _ in range(300):
            a = _random_premap(rng, dom)
            joined = SetPartition(blocks).join(orbit_partition(a))
            if joined.num_blocks == 1:
                assert euler_characteristic(phi, a) <= 2

    def test_chi_additivity(self):
        rng = random.Random(31)
        for _ in range(30):
            phi1 = cycle_perm([1, 2])
            a1 = _random_premap(rng, [1, 2])
            phi2 = SignedPermutation.from_cycles([[3, 4, 5]])
            a2 = _random_premap(rng, [3, 4, 5])
            phi = SignedPermutation({**{k: phi1(k) for k in phi1.domain},
                                     **{k: phi2(k) for k in phi2.domain}})
            a = Premap({**a1._map, **a2._map})
            assert euler_characteristic(phi, a) == \
                euler_characteristic(phi1, a1) + euler_characteristic(phi2, a2)

    def test_particular_cycle_order(self):
        a = pairings_to_premap(LOOP_PLUS, LOOP_MINUS)
        cycles = particular_cycles(a)
        assert [c[0] for c in cycles] == sorted(c[0] for c in cycles)
        assert all(c[0] > 0 for c in cycles)


_PREMAP_POOLS: dict[tuple, list] = {}


def _random_premap(rng, positive):
    key = tuple(sorted(positive))
    if key not in _PREMAP_POOLS:
        _PREMAP_POOLS[key] = list(enumerate_premaps(key))
    return rng.choice(_PREMAP_POOLS[key])
