import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haargenus.errors import CapExceededError, GroundMismatchError, ValidationError
from haargenus.setpart import (SetPartition, YoungDiagram, enumerate_interval,
                               enumerate_pairings, enumerate_partitions,
                               join_of_pairings_diagram, mobius)
from oracles import (bell_number, block_of, cumulants_from_moments, kernel_of,
                     moments_from_cumulants)


def partitions_of(n):
    return list(enumerate_partitions(range(1, n + 1)))


def random_partition(rng, ground):
    blocks = {}
    labels = []
    for k in ground:
        if labels and rng.random() < 0.6:
            blocks[rng.choice(labels)].append(k)
        else:
            labels.append(len(labels))
            blocks[labels[-1]] = [k]
    return SetPartition(blocks.values())


class TestBasics:
    def test_blocks_canonical(self):
        p = SetPartition([[5, 3], [1], [4, 2]])
        assert p.to_json() == [[1], [2, 4], [3, 5]]

    def test_rejects_overlap_and_empty(self):
        with pytest.raises(ValidationError):
            SetPartition([[1, 2], [2, 3]])
        with pytest.raises(ValidationError):
            SetPartition([[1], []])
        with pytest.raises(ValidationError):
            SetPartition([[0, 1]])

    def test_ground_mismatch(self):
        p = SetPartition([[1, 2]])
        q = SetPartition([[1], [3]])
        with pytest.raises(GroundMismatchError):
            p.join(q)
        with pytest.raises(GroundMismatchError):
            p.meet(q)

    def test_signed_ground(self):
        p = SetPartition([[-2, 1], [2, -1]])
        assert p.ground == frozenset({-2, -1, 1, 2})

    def test_json_round_trip(self):
        p = SetPartition([[1, 4], [2], [3, 5]])
        assert SetPartition.from_json(p.to_json()) == p


class TestJoinMeet:
    def test_join_two_loops(self):
        # two pairings whose union closes into two loops; the six-point loop
        # necessarily contains 7
        p = SetPartition([[1, 2], [3, 5], [4, 8], [6, 7]])
        q = SetPartition([[1, 6], [2, 5], [3, 7], [4, 8]])
        assert (p | q) == SetPartition([[1, 2, 3, 5, 6, 7], [4, 8]])

    def test_join_with_bottom_is_identity(self):
        p = SetPartition([[1, 3], [2, 4]])
        assert p | SetPartition.singletons([1, 2, 3, 4]) == p

    def test_meet_with_top_is_identity(self):
        p = SetPartition([[1, 3], [2, 4]])
        assert p & SetPartition.full([1, 2, 3, 4]) == p

    def test_meet_crossing_pairings(self):
        p = SetPartition([[1, 2], [3, 4]])
        q = SetPartition([[1, 3], [2, 4]])
        assert (p & q) == SetPartition.singletons([1, 2, 3, 4])

    def test_join_against_transitive_closure(self):
        rng = random.Random(0)
        ground = list(range(1, 7))
        for _ in range(40):
            p = random_partition(rng, ground)
            q = random_partition(rng, ground)
            # independent oracle: repeatedly merge any two blocks that intersect
            blocks = [set(b) for b in list(p.blocks) + list(q.blocks)]
            changed = True
            while changed:
                changed = False
                for i in range(len(blocks)):
                    for j in range(i + 1, len(blocks)):
                        if blocks[i] & blocks[j]:
                            blocks[i] |= blocks.pop(j)
                            changed = True
                            break
                    if changed:
                        break
            assert (p | q) == SetPartition(blocks)

    def test_meet_against_pair_oracle(self):
        rng = random.Random(1)
        ground = list(range(1, 7))
        for _ in range(40):
            p = random_partition(rng, ground)
            q = random_partition(rng, ground)
            m = p & q
            # two points share a meet-block iff they share blocks in both
            for a in ground:
                for b in ground:
                    together = block_of(m, a) == block_of(m, b)
                    expected = (block_of(p, a) == block_of(p, b)
                                and block_of(q, a) == block_of(q, b))
                    assert together == expected

    def test_lattice_laws(self):
        parts = partitions_of(4)
        bottom = SetPartition.singletons(range(1, 5))
        top = SetPartition.full(range(1, 5))
        for p in parts:
            assert (p | bottom) == p and (p & top) == p
            assert (p | top) == top and (p & bottom) == bottom
            assert (p | p) == p and (p & p) == p
        rng = random.Random(2)
        sample = [random_partition(rng, range(1, 7)) for _ in range(6)]
        for p, q, r in itertools.combinations(sample, 3):
            assert (p | q) == (q | p) and (p & q) == (q & p)
            assert ((p | q) | r) == (p | (q | r))
            assert ((p & q) & r) == (p & (q & r))
            assert (p | (p & q)) == p and (p & (p | q)) == p

    def test_useful_block_count_inequality(self):
        # joining with sigma can merge at most as many blocks of a coarser
        # partition as of a finer one
        parts = partitions_of(4)
        for pi in parts:
            for rho in parts:
                if not pi.is_finer_than(rho):
                    continue
                for sigma in parts:
                    assert (pi.num_blocks - (pi | sigma).num_blocks
                            >= rho.num_blocks - (rho | sigma).num_blocks)

    @pytest.mark.slow
    def test_useful_inequality_exhaustive_n6(self):
        ground = list(range(1, 7))
        parts = partitions_of(6)
        bottom = SetPartition.singletons(ground)
        for rho in parts:
            refinements = list(enumerate_interval(bottom, rho))
            for sigma in parts:
                rho_drop = rho.num_blocks - (rho | sigma).num_blocks
                for pi in refinements:
                    assert pi.num_blocks - (pi | sigma).num_blocks >= rho_drop


class TestEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_partition_counts_match_bell(self, n):
        parts = partitions_of(n)
        assert len(parts) == bell_number(n)
        assert len(set(parts)) == len(parts)

    def test_single_element(self):
        assert partitions_of(1) == [SetPartition([[1]])]

    def test_partition_cap(self):
        with pytest.raises(CapExceededError):
            list(enumerate_partitions(range(1, 14)))
        # cap is configuration, not a constant
        gen = enumerate_partitions(range(1, 14), cap=13)
        next(gen)

    def test_pairings(self):
        assert list(enumerate_pairings([1, 2])) == [SetPartition([[1, 2]])]
        assert len(list(enumerate_pairings([1, 2, 3, 4]))) == 3
        assert list(enumerate_pairings([1, 2, 3])) == []
        assert len(list(enumerate_pairings(range(1, 9)))) == 105

    def test_pairing_cap(self):
        with pytest.raises(CapExceededError):
            list(enumerate_pairings(range(1, 19)))

    def test_interval_enumeration(self):
        lower = SetPartition([[1, 2], [3], [4]])
        upper = SetPartition([[1, 2, 3], [4]])
        interval = list(enumerate_interval(lower, upper))
        assert lower in interval and upper in interval
        assert len(interval) == 2


class TestKernel:
    def test_constant(self):
        f = {k: 7 for k in range(1, 5)}
        assert kernel_of(f) == SetPartition.full(range(1, 5))

    def test_injective(self):
        f = {k: k * k for k in range(1, 5)}
        assert kernel_of(f) == SetPartition.singletons(range(1, 5))

    def test_word(self):
        w = {1: 1, 2: 1, 3: 2, 4: 2, 5: 1, 6: 1}
        assert kernel_of(w) == SetPartition([[1, 2, 5, 6], [3, 4]])


class TestMobius:
    def test_reflexive(self):
        for p in partitions_of(4):
            assert mobius(p, p) == 1

    def test_bottom_to_top_three(self):
        # oracle: solve the defining triangular system on all partitions of [3]
        parts = partitions_of(3)
        top = SetPartition.full([1, 2, 3])
        mu = {}
        for p in sorted(parts, key=lambda q: q.num_blocks):
            if p == top:
                mu[p] = 1
                continue
            mu[p] = -sum(mu[s] for s in parts
                         if p.is_finer_than(s) and s != p and s in mu)
        bottom = SetPartition.singletons([1, 2, 3])
        assert mu[bottom] == 2
        assert mobius(bottom, top) == mu[bottom]
        for p in parts:
            assert mobius(p, top) == mu[p]

    def test_not_finer_gives_zero(self):
        p = SetPartition([[1, 2], [3, 4]])
        q = SetPartition([[1, 3], [2, 4]])
        assert mobius(p, q) == 0

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_defining_identity(self, n):
        parts = partitions_of(n)
        for p in parts:
            for q in parts:
                if not p.is_finer_than(q):
                    continue
                total = sum(mobius(s, q) for s in enumerate_interval(p, q))
                assert total == (1 if p == q else 0)


class TestYoungDiagram:
    def test_sorted_rows(self):
        assert YoungDiagram([1, 3, 2]).rows == (3, 2, 1)
        assert YoungDiagram([3, 1]).n == 4

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            YoungDiagram([2, 0])

    def test_from_even_block_sizes(self):
        assert YoungDiagram.from_even_block_sizes([6, 2]) == YoungDiagram([3, 1])
        with pytest.raises(ValidationError):
            YoungDiagram.from_even_block_sizes([3])

    def test_join_of_pairings_diagram(self):
        p = SetPartition([[1, 2], [3, 5], [4, 8], [6, 7]])
        q = SetPartition([[1, 6], [2, 5], [3, 7], [4, 8]])
        assert join_of_pairings_diagram(p, q) == YoungDiagram([3, 1])

    def test_json(self):
        d = YoungDiagram([3, 1])
        assert YoungDiagram.from_json(d.to_json()) == d


class TestCumulants:
    def test_first_cumulant_is_expectation(self):
        target = SetPartition.full([1])
        assert cumulants_from_moments(lambda p: Fraction(5, 7), target) == Fraction(5, 7)

    def test_second_cumulant_is_covariance(self):
        e_x, e_y, e_xy = Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)

        def moments(p):
            if p.num_blocks == 1:
                return e_xy
            return e_x * e_y

        target = SetPartition.full([1, 2])
        assert cumulants_from_moments(moments, target) == e_xy - e_x * e_y

    def test_third_cumulant_coin_flip(self):
        # i.i.d. fair coins: every mixed moment is (1/2)^{number of blocks}
        def moments(p):
            return Fraction(1, 2) ** p.num_blocks

        # oracle: solve a_pi = sum over rho <= pi of k_rho by subtraction,
        # working down from singletons (k multiplicative over blocks)
        k_full = {}
        for size in (1, 2, 3):
            ground = list(range(1, size + 1))
            target = SetPartition.full(ground)
            acc = Fraction(0)
            for rho in enumerate_interval(SetPartition.singletons(ground), target):
                if rho == target:
                    continue
                prod = Fraction(1)
                for b in rho.blocks:
                    prod *= k_full[len(b)]
                acc += prod
            k_full[size] = moments(target) - acc
        # Bernoulli(1/2): k1 = 1/2, k2 = 1/4, k3 = 0
        assert k_full == {1: Fraction(1, 2), 2: Fraction(1, 4), 3: Fraction(0)}
        assert cumulants_from_moments(moments, SetPartition.full([1, 2, 3])) == k_full[3]
        assert cumulants_from_moments(moments, SetPartition.full([1, 2])) == k_full[2]

    def test_round_trip(self):
        rng = random.Random(4)
        parts = partitions_of(4)
        subsets = [frozenset(c) for size in range(1, 5)
                   for c in itertools.combinations(range(1, 5), size)]
        values = {s: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for s in subsets}

        def moment_of(p):
            prod = Fraction(1)
            for b in p.blocks:
                prod *= values[frozenset(b)]
            return prod

        # convert blockwise to cumulants and back: the round trip is identity
        def cumulant_of(p):
            prod = Fraction(1)
            for b in p.blocks:
                prod *= _block_cumulant(b, moment_of)
            return prod

        for p in parts:
            assert moments_from_cumulants(cumulant_of, p) == moment_of(p)

    def test_independent_groups_vanish(self):
        # moment oracle factorizes across {1} and {2}: k2 must vanish
        e = {1: Fraction(2, 3), 2: Fraction(-1, 4)}

        def moments(p):
            prod = Fraction(1)
            for b in p.blocks:
                for k in b:
                    prod *= e[k]
            return prod

        assert cumulants_from_moments(moments, SetPartition.full([1, 2])) == 0
        e3 = {1: Fraction(2, 3), 2: Fraction(-1, 4), 3: Fraction(5, 2)}

        def moments3(p):
            prod = Fraction(1)
            for b in p.blocks:
                for k in b:
                    prod *= e3[k]
            return prod

        assert cumulants_from_moments(moments3, SetPartition.full([1, 2, 3])) == 0

    def test_mixed_modes_rejected(self):
        def moments(p):
            return 0.5 if p.num_blocks == 1 else Fraction(1, 4)

        with pytest.raises(ValidationError):
            cumulants_from_moments(moments, SetPartition.full([1, 2]))


def _block_cumulant(block, moment_of):
    sub = SetPartition.full(block)

    def restricted(p):
        return moment_of(SetPartition(list(p.blocks)))

    return cumulants_from_moments(restricted, sub)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.randoms(use_true_random=False))
def test_partition_enumeration_covers_randoms(n, rng):
    ground = list(range(1, n + 1))
    p = random_partition(rng, ground)
    assert p in set(enumerate_partitions(ground))
