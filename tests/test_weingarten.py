import itertools
import json
import random
from fractions import Fraction

import pytest

from haargenus.errors import CapExceededError, ValidationError
from haargenus.matrixlab import mc_entry_moment
from haargenus.ratpoly import PolyFrac, format_polyfrac, monomial
from haargenus.setpart import (SetPartition, YoungDiagram, enumerate_interval,
                               enumerate_pairings, enumerate_partitions, mobius,
                               young_diagrams)
from haargenus.weingarten import (TableSet, WeingartenTable, catalan, compute_table,
                                  gram_matrix, golden_path, join_blocks, leading_order,
                                  load_golden, pairing_join_diagram, pairing_partners,
                                  verify_gram_identity,
                                  weingarten_table, wg_cumulant,
                                  wg_cumulant_order_check, wg_limit, wg_normalized,
                                  write_golden, _class_representative)
from oracles import polyfrac_solve


def lam(*rows):
    return YoungDiagram(rows)


class TestJoinWalk:
    def test_matches_setpartition_join(self):
        # every pair of pairings of 1..m: 1, 9, 225 and 11,025 pairs
        for m in (2, 4, 6, 8):
            pairings = list(enumerate_pairings(range(1, m + 1)))
            partners = pairing_partners(m)
            assert [SetPartition((i + 1, a[i] + 1) for i in range(m) if i < a[i])
                    for a in partners] == pairings
            for (p, a), (q, b) in itertools.product(zip(pairings, partners), repeat=2):
                blocks = join_blocks(a, b)
                assert SetPartition([[k + 1 for k in blk] for blk in blocks]) == p.join(q)
                assert sum(map(len, blocks)) == m  # no point twice
                firsts = [blk[0] for blk in blocks]
                assert firsts == sorted(firsts) and all(blk[0] == min(blk) for blk in blocks)
                for blk in blocks:
                    # i, a[i], b[a[i]], ... and b leads back to i
                    steps = [(a, b)[t % 2][x] for t, x in enumerate(blk)]
                    assert steps == list(blk[1:]) + [blk[0]]


class TestGramMatrix:
    def test_n2(self):
        pairings, rows = gram_matrix(2)
        assert len(pairings) == 1 and rows == [[(0, 1)]]

    def test_n4(self):
        pairings, rows = gram_matrix(4)
        assert len(pairings) == 3
        for i in range(3):
            for j in range(3):
                assert rows[i][j] == (monomial(2) if i == j else monomial(1))

    def test_n6_entries(self):
        pairings, rows = gram_matrix(6)
        assert len(pairings) == 15
        seen = {r[c] for r in rows for c in range(15)}
        assert seen == {monomial(1), monomial(2), monomial(3)}

    def test_odd_or_capped(self):
        with pytest.raises(ValidationError):
            gram_matrix(3)
        with pytest.raises(CapExceededError):
            gram_matrix(12)


class TestTable:
    def test_n2(self):
        t = weingarten_table(2)
        assert t.entries[lam(1)] == PolyFrac((1,), (0, 1))

    def test_n4_against_full_inversion(self):
        # symbolic inverse of the full 3x3 Gram matrix
        pairings, rows = gram_matrix(4)
        g = [[PolyFrac(v) for v in r] for r in rows]
        rhs = [[PolyFrac(1 if i == j else 0) for j in range(3)] for i in range(3)]
        inv = polyfrac_solve(g, rhs)
        t = weingarten_table(4)
        for i, p in enumerate(pairings):
            for j, q in enumerate(pairings):
                assert inv[i][j] == t.entries[pairing_join_diagram(p, q)]
        assert format_polyfrac(t.entries[lam(1, 1)]) == "(N+1)/(N*(N+2)*(N-1))"
        assert format_polyfrac(t.entries[lam(2)]) == "-1/(N*(N+2)*(N-1))"

    def test_n6_against_full_inversion(self):
        pairings, rows = gram_matrix(6)
        g = [[PolyFrac(v) for v in r] for r in rows]
        rhs = [[PolyFrac(1 if i == j else 0) for j in range(15)] for i in range(15)]
        inv = polyfrac_solve(g, rhs)
        t = weingarten_table(6)
        for i, p in enumerate(pairings):
            for j, q in enumerate(pairings):
                # constancy on diagram classes and symmetry come with equality
                assert inv[i][j] == t.entries[pairing_join_diagram(p, q)]
                assert inv[i][j] == inv[j][i]

    def test_n8_known_value(self):
        t = weingarten_table(8)
        assert format_polyfrac(t.wg(lam(3, 1))) == \
            "2*N^6/((N+1)*(N+2)*(N+6)*(N-1)*(N-2)*(N-3))"

    def test_gram_identity(self):
        for n in (2, 4, 6, 8):
            assert verify_gram_identity(n)

    def test_n10_fixed_dimension_solves(self):
        # the class system solved over exact rationals at five dimensions
        # matches the symbolic table, and the orbit row sums give the identity
        t = weingarten_table(10)
        order = list(range(1, 11))
        pairings = list(enumerate_pairings(order))
        reference = SetPartition([(k, k + 1) for k in range(1, 11, 2)])
        rng = random.Random(6)
        dims = rng.sample(range(11, 40), 5)
        ones = YoungDiagram([1] * 5)
        for n0 in dims:
            for target in young_diagrams(5):
                rep = _class_representative(target)
                total = Fraction(0)
                for sigma in pairings:
                    mu_diag = pairing_join_diagram(sigma, rep)
                    total += Fraction(n0) ** pairing_join_diagram(reference, sigma).num_rows \
                        * t.entries[mu_diag].eval_at(n0)
                assert total == (1 if target == ones else 0)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            weingarten_table(12)
        with pytest.raises(ValidationError):
            weingarten_table(3)

    @pytest.mark.slow
    def test_n12_behind_explicit_cap(self):
        t = compute_table(12, cap=12)
        assert len(t.entries) == 11
        for d in young_diagrams(6):
            assert t.wg(d).limit_at_infinity() == wg_limit(d)

    def test_json_round_trip(self):
        t = weingarten_table(4)
        assert WeingartenTable.from_json(t.to_json()).entries == t.entries


class TestNormalized:
    def test_wg_of_ones_is_one(self):
        for n in (2, 4, 6, 8):
            t = weingarten_table(n)
            assert t.wg(YoungDiagram([1] * (n // 2))).limit_at_infinity() == 1
        assert weingarten_table(2).wg(lam(1)) == PolyFrac(1)

    def test_n4_values(self):
        t = weingarten_table(4)
        p = SetPartition([[1, 2], [3, 4]])
        q = SetPartition([[1, 3], [2, 4]])
        same = wg_normalized(t, p, p)
        cross = wg_normalized(t, p, q)
        assert same == PolyFrac.n_power(2) * t.entries[lam(1, 1)]
        assert cross == PolyFrac.n_power(3) * t.entries[lam(2)]

    def test_eval_and_pole(self):
        t = weingarten_table(8)
        wg31 = t.wg(lam(3, 1))
        assert wg31.eval_at(10) == Fraction(2 * 10 ** 6, 11 * 12 * 16 * 9 * 8 * 7)
        assert sorted(wg31.poles()) == [-6, -2, -1, 1, 2, 3]
        from haargenus.errors import PoleError
        with pytest.raises(PoleError):
            wg31.eval_at(2)


class TestLeadingOrder:
    def test_examples(self):
        sign, coeff, exponent = leading_order(lam(3, 1))
        assert (sign, coeff) == (1, 2) and exponent == -8 + 2
        assert wg_limit(lam(3, 1)) == 2
        sign, coeff, _ = leading_order(lam(2))
        assert sign * coeff == -1

    def test_catalan(self):
        assert [catalan(k) for k in range(6)] == [1, 1, 2, 5, 14, 42]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_table_limit(self, k):
        t = weingarten_table(2 * k)
        for d in young_diagrams(k):
            assert t.wg(d).limit_at_infinity() == wg_limit(d)
            # exponent of the unnormalized value
            sign, coeff, exponent = leading_order(d)
            assert t.entries[d].degree() == exponent

    def test_lambda_two_unnormalized_limit(self):
        # lim N^3 Wg([2]) = -1
        t = weingarten_table(4)
        assert (PolyFrac.n_power(3) * t.entries[lam(2)]).limit_at_infinity() == -1

    def test_large_dimension_evaluation_tracks_limit(self):
        # values at a large dimension sit within 1% of the leading-order limit
        big = 10 ** 4
        for k in (1, 2, 3, 4):
            t = weingarten_table(2 * k)
            for d in young_diagrams(k):
                value = t.wg(d).eval_at(big)
                limit = wg_limit(d)
                assert abs(value - limit) <= abs(limit) * Fraction(1, 100)


class TestCumulants:
    def test_rho_equals_sigma(self):
        tables = TableSet()
        pi = SetPartition([[1, 2], [3, 4]])
        sigma = SetPartition([[1, 2], [3, 4]])
        c = wg_cumulant(tables, pi, sigma, sigma)
        assert c == tables.wg_diagram(lam(1)) * tables.wg_diagram(lam(1))
        assert c == PolyFrac(1)

    def test_covering_merge(self):
        tables = TableSet()
        pi = SetPartition([[1, 2], [3, 4]])
        rho = pi
        sigma = SetPartition.full([1, 2, 3, 4])
        c = wg_cumulant(tables, pi, rho, sigma)
        whole = tables.wg_block(pi, [1, 2, 3, 4])
        parts = tables.wg_block(pi, [1, 2]) * tables.wg_block(pi, [3, 4])
        assert c == whole - parts
        # the two-block join of a crossing-style setup has order at most -2
        assert c.degree() <= 2 * (sigma.num_blocks - rho.num_blocks)
        assert c.degree() <= -2

    def test_mobius_round_trip(self):
        # the blockwise wg product over sigma equals the sum of cumulants
        # C_{pi,pi,tau} over pi <= tau <= sigma
        tables = TableSet()
        for blocks in ([[1, 2], [3, 4]],
                       [[1, 2], [3, 4], [5, 6]],
                       [[1, 2, 3, 4], [5, 6], [7, 8]]):
            pi = SetPartition(blocks)
            ground = sorted(pi.ground)
            for sigma in enumerate_partitions(ground):
                if sigma.num_blocks > 3 or not pi.is_finer_than(sigma):
                    continue
                lhs = PolyFrac(1)
                for v in sigma.blocks:
                    lhs = lhs * tables.wg_block(pi, v)
                total = PolyFrac(0)
                for tau in enumerate_interval(pi, sigma):
                    total = total + wg_cumulant(tables, pi, pi, tau)
                assert lhs == total

    def test_preconditions(self):
        tables = TableSet()
        pi = SetPartition([[1, 2], [3]])
        with pytest.raises(ValidationError):
            wg_cumulant(tables, pi, pi, SetPartition.full([1, 2, 3]))

    def test_order_bound_exhaustive_n4(self):
        tables = TableSet()
        ground = range(1, 5)
        even_parts = [p for p in enumerate_partitions(ground)
                      if all(len(b) % 2 == 0 for b in p.blocks)]
        for pi in even_parts:
            for rho in enumerate_interval(pi, SetPartition.full(ground)):
                for sigma in enumerate_interval(rho, SetPartition.full(ground)):
                    c = wg_cumulant(tables, pi, rho, sigma)
                    assert wg_cumulant_order_check(c, rho, sigma)


class TestGolden:
    def test_packaged_files_match_regeneration(self, tmp_path):
        for n in (2, 4, 6, 8, 10):
            with open(golden_path(n)) as fh:
                packaged = json.load(fh)
            regen = write_golden(n, str(tmp_path / f"wg_n{n}.json"))
            with open(regen) as fh:
                fresh = json.load(fh)
            assert packaged == fresh
            assert load_golden(n).entries == weingarten_table(n).entries


@pytest.mark.slow
class TestMonteCarloGrounding:
    def test_entry_moments_match_table(self):
        # E[O11^2], E[O11^4], E[O11^2 O22^2] at N = 5 against the pairing sums
        n0 = 5
        t2 = weingarten_table(2)
        t4 = weingarten_table(4)
        exact_o11_sq = t2.entries[lam(1)].eval_at(n0)
        # all nine pairing pairs are compatible for O11^4
        exact_o11_4 = 3 * t4.entries[lam(1, 1)].eval_at(n0) + \
            6 * t4.entries[lam(2)].eval_at(n0)
        # only the aligned pair survives for O11^2 O22^2
        exact_mixed = t4.entries[lam(1, 1)].eval_at(n0)
        assert exact_o11_sq == Fraction(1, 5)
        assert exact_o11_4 == Fraction(3, 5 * 7)
        est = mc_entry_moment(n0, {(1, 1): 2}, samples=40000, seed=101)
        assert est.within(exact_o11_sq, 5)
        est4 = mc_entry_moment(n0, {(1, 1): 4}, samples=40000, seed=102)
        assert est4.within(exact_o11_4, 5)
        mixed = mc_entry_moment(n0, {(1, 1): 2, (2, 2): 2}, samples=40000, seed=103)
        assert mixed.within(exact_mixed, 5)
