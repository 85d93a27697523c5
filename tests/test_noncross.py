import itertools

import pytest

from haargenus.errors import ValidationError
from haargenus.noncross import (AnnularFrame, biane_criterion, is_annular_noncrossing,
                                is_annular_nonstandard, is_disc_crossing,
                                is_disc_noncrossing, is_disc_nonstandard,
                                mingo_nica_criterion, premap_chi2_annular,
                                premap_chi2_disc)
from haargenus.permap import (Premap, SignedPermutation, enumerate_premaps,
                              euler_characteristic, pairings_to_premap)
from haargenus.setpart import SetPartition
from haargenus.verify import (biane_scan, mingo_nica_scan, premap_annular_scan,
                              premap_disc_scan)
from oracles import count_phi_neighbors, find_phi_neighbor


def perm(*cycles, domain=None):
    return SignedPermutation.from_cycles(cycles, domain=domain)


def all_perms(n):
    dom = list(range(1, n + 1))
    for images in itertools.permutations(dom):
        yield SignedPermutation(dict(zip(dom, images)))


CATALAN = {3: 5, 4: 14, 5: 42, 6: 132, 7: 429}


class TestDisc:
    def test_nonstandard_examples(self):
        phi = perm([1, 2, 3])
        assert is_disc_nonstandard(phi, perm([1, 2, 3]))
        assert not is_disc_nonstandard(phi, perm([1, 3, 2]))
        assert not is_disc_nonstandard(phi, SignedPermutation.identity([1, 2, 3]))

    def test_crossing_example(self):
        phi = perm([1, 2, 3, 4])
        assert is_disc_crossing(phi, perm([1, 3], [2, 4]))
        assert not is_disc_noncrossing(phi, perm([1, 3], [2, 4]))

    def test_identity_is_noncrossing(self):
        for n in (3, 4, 5):
            phi = perm(tuple(range(1, n + 1)))
            assert is_disc_noncrossing(phi, SignedPermutation.identity(range(1, n + 1)))
            assert biane_criterion(phi, SignedPermutation.identity(range(1, n + 1)))

    def test_requires_single_cycle(self):
        with pytest.raises(ValidationError):
            is_disc_noncrossing(perm([1, 2], [3, 4]), perm([1, 2], domain=[1, 2, 3, 4]))

    def test_biane_count_example(self):
        phi = perm([1, 2, 3, 4])
        alpha = perm([1, 3], [2, 4])
        prod = phi.inverse().compose(alpha.inverse())
        assert alpha.cycle_count + prod.cycle_count == 3  # != 5
        assert not biane_criterion(phi, alpha)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_definitional_equals_cycle_count(self, n):
        phi = perm(tuple(range(1, n + 1)))
        for alpha in all_perms(n):
            assert is_disc_noncrossing(phi, alpha) == biane_criterion(phi, alpha)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_catalan_count_definitional(self, n):
        phi = perm(tuple(range(1, n + 1)))
        count = sum(1 for a in all_perms(n) if is_disc_noncrossing(phi, a))
        assert count == CATALAN[n]

    def test_catalan_count_cycle_criterion_n7(self):
        phi = perm(tuple(range(1, 8)))
        count = sum(1 for a in all_perms(7) if biane_criterion(phi, a))
        assert count == CATALAN[7]


class TestAnnular:
    def test_frame_validation(self):
        with pytest.raises(ValidationError):
            AnnularFrame(perm([1, 2, 3]))
        with pytest.raises(ValidationError):
            AnnularFrame(perm([1], [2, 3], domain=[1, 2, 3]))

    def test_noncrossing_example(self):
        frame = AnnularFrame.from_cycles((1, 2), (3, 4))
        assert is_annular_noncrossing(frame, perm([1, 3], [2, 4]))
        assert mingo_nica_criterion(frame, perm([1, 3], [2, 4]))

    def test_nonstandard_condition_two(self):
        frame = AnnularFrame.from_cycles((1, 2), (3, 4))
        alpha = perm([1, 3, 2, 4])
        assert is_annular_nonstandard(frame, alpha)
        assert not is_annular_noncrossing(frame, alpha)

    def test_non_connecting_reported_not_member(self):
        frame = AnnularFrame.from_cycles((1, 2), (3, 4))
        alpha = perm([1, 2], [3, 4])
        assert not is_annular_noncrossing(frame, alpha)
        with pytest.raises(ValidationError):
            mingo_nica_criterion(frame, alpha)

    def test_mingo_nica_counts(self):
        frame = AnnularFrame.from_cycles((1, 2), (3, 4))
        good = perm([1, 3], [2, 4])
        prod = frame.phi.inverse().compose(good.inverse())
        assert good.cycle_count + prod.cycle_count == 4
        bad = perm([1, 3, 2, 4])
        prod = frame.phi.inverse().compose(bad.inverse())
        assert bad.cycle_count + prod.cycle_count != 4

    def test_partial_pairing_with_fixed_points(self):
        # (1,3)(2)(4) connects the cycles; both tests classify it alike
        frame = AnnularFrame.from_cycles((1, 2), (3, 4))
        alpha = perm([1, 3], domain=[1, 2, 3, 4])
        assert alpha.connects(frame.external, frame.internal)
        assert mingo_nica_criterion(frame, alpha) == \
            is_annular_noncrossing(frame, alpha) is True

    @pytest.mark.parametrize("split", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)])
    def test_definitional_equals_cycle_count(self, split):
        e, i = split
        frame = AnnularFrame.from_cycles(tuple(range(1, e + 1)),
                                         tuple(range(e + 1, e + i + 1)))
        for alpha in all_perms(e + i):
            if not alpha.connects(frame.external, frame.internal):
                continue
            assert is_annular_noncrossing(frame, alpha) == \
                mingo_nica_criterion(frame, alpha)

    def test_lambda_cut_is_single_cycle(self):
        frame = AnnularFrame.from_cycles((1, 2, 3), (4, 5))
        for x in (1, 2, 3):
            for y in (4, 5):
                lam = frame.lambda_xy(x, y)
                assert lam.cycle_count == 1
                assert lam.domain == frozenset({1, 2, 3, 4, 5}) - {x, y}


class TestPremapCharacterizations:
    def test_disc_examples(self):
        phi = perm([1, 2, 3])
        for a in enumerate_premaps([1, 2, 3]):
            assert premap_chi2_disc(phi, a) == (euler_characteristic(phi, a) == 2)

    @pytest.mark.slow
    @pytest.mark.parametrize("n", [5, 6])
    def test_disc_characterization_exhaustive(self, n):
        phi = perm(tuple(range(1, n + 1)))
        for a in enumerate_premaps(range(1, n + 1)):
            assert premap_chi2_disc(phi, a) == (euler_characteristic(phi, a) == 2)

    @pytest.mark.slow
    def test_annular_characterization_random_three_three(self):
        import random as _random
        frame = AnnularFrame.from_cycles((1, 2, 3), (4, 5, 6))
        pool = list(enumerate_premaps(range(1, 7)))
        rng = _random.Random(2024)
        pm_ext = [x for k in (1, 2, 3) for x in (k, -k)]
        pm_int = [x for k in (4, 5, 6) for x in (k, -k)]
        checked = 0
        for a in rng.sample(pool, 1500):
            if not a.connects(pm_ext, pm_int):
                continue
            checked += 1
            assert premap_chi2_annular(frame, a) == \
                (euler_characteristic(frame.phi, a) == 2)
        assert checked > 1000

    def test_disc_connecting_example(self):
        # a premap sending 1 to -2 connects the two halves: chi < 2
        phi = perm([1, 2])
        a = pairings_to_premap(SetPartition([[1, 2]]), SetPartition([[1, 2]]))
        assert a(1) == -2
        assert euler_characteristic(phi, a) < 2
        assert not premap_chi2_disc(phi, a)

    def test_disc_noncrossing_pairing_image(self):
        # separated halves with a noncrossing restriction give chi = 2
        phi = perm([1, 2])
        a = Premap(perm([1, 2], [-1, -2])._map)
        assert premap_chi2_disc(phi, a)
        assert euler_characteristic(phi, a) == 2

    def test_spoke_premap_uses_reversed_branch(self):
        frame = AnnularFrame.from_cycles((1, 2), (3, 4))
        a = Premap.from_particular([(1, -3), (2, -4)])
        assert premap_chi2_annular(frame, a)
        assert euler_characteristic(frame.phi, a) == 2
        # the straight selection connects to its negative; only the reversed
        # half-selection exhibits the noncrossing structure
        assert a.connects([1, 2, 3, 4], [-1, -2, -3, -4])

    def test_annular_requires_connection(self):
        frame = AnnularFrame.from_cycles((1, 2), (3, 4))
        a = Premap(perm([1, 2], [-1, -2], [3, 4], [-3, -4])._map)
        with pytest.raises(ValidationError):
            premap_chi2_annular(frame, a)

    def test_both_branch_failures(self):
        # every connecting premap failing both half-selections has chi < 2
        # (lower chi values, including nonorientable chi = 1, all occur), and
        # cases with chi <= 0 exist
        frame = AnnularFrame.from_cycles((1, 2), (3, 4))
        chis = []
        for a in enumerate_premaps([1, 2, 3, 4]):
            if not a.connects([1, 2, -1, -2], [3, 4, -3, -4]):
                continue
            if not premap_chi2_annular(frame, a):
                chi = euler_characteristic(frame.phi, a)
                assert chi < 2
                chis.append(chi)
        assert chis and min(chis) <= 0


class TestNeighbors:
    def test_example(self):
        phi = perm([1, 2, 3, 4])
        alpha = perm([1, 2], [3, 4])
        k = find_phi_neighbor(phi, alpha)
        assert k is not None and alpha.inverse()(k) == phi(k)
        assert count_phi_neighbors(phi, alpha) >= 2

    def test_absent(self):
        phi = perm([1, 2, 3])
        alpha = SignedPermutation.identity([1, 2, 3])
        assert find_phi_neighbor(phi, alpha) is None

    def test_disc_neighbors_exist_exhaustive_s5(self):
        phi = perm([1, 2, 3, 4, 5])
        for alpha in all_perms(5):
            if any(len(c) == 1 for c in alpha.cycles()):
                continue
            if is_disc_noncrossing(phi, alpha):
                assert count_phi_neighbors(phi, alpha) >= 2

    def test_annular_neighbors_exist_exhaustive(self):
        # fixed-point-free annular-noncrossing permutations with two points
        # sharing both a boundary cycle and a permutation cycle have a
        # neighbour (singleton cycles genuinely break this: (1)(2)(3,4,5)(6)
        # on the (3,3) annulus is noncrossing with a shared pair but has none)
        frame = AnnularFrame.from_cycles((1, 2, 3), (4, 5, 6))
        checked = 0
        for alpha in all_perms(6):
            if any(len(c) == 1 for c in alpha.cycles()):
                continue
            if not alpha.connects(frame.external, frame.internal):
                continue
            if not is_annular_noncrossing(frame, alpha):
                continue
            shares = any(
                len({a, b} & set(c)) == 2
                for cyc in frame.phi.cycles()
                for a, b in itertools.combinations(cyc, 2)
                for c in alpha.cycles())
            if shares:
                checked += 1
                assert find_phi_neighbor(frame.phi, alpha) is not None
        assert checked > 0


class TestScans:
    def test_biane_scan_clean(self):
        report = biane_scan(5)
        assert report["counterexamples"] == []
        assert report["instances"] == 6 + 24 + 120

    def test_mingo_nica_scan_clean(self):
        report = mingo_nica_scan(((2, 2), (3, 2)))
        assert report["counterexamples"] == []

    def test_premap_scans_clean(self):
        assert premap_disc_scan(4)["counterexamples"] == []
        assert premap_annular_scan(((2, 2),))["counterexamples"] == []
