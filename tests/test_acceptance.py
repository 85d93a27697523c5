"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS lines
inline).  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import json
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from haargenus.expansion import (TraceExpression, asymptotic_moment, center_slots,
                                 concatenate, evaluate_moment, expand_moment,
                                 moment_symbolic, predicted_second_order_cov,
                                 to_unnormalized, trace_cumulant)
from haargenus.matrixlab import (DenseMatrix, mc_entry_moment, mc_moment, trace_along)
from haargenus.permap import pairings_to_premap, young_of_premap, premap_to_pairings
from haargenus.ratpoly import PolyFrac, format_polyfrac
from haargenus.setpart import (SetPartition, YoungDiagram, enumerate_interval,
                               enumerate_pairings, enumerate_partitions,
                               join_of_pairings_diagram, mobius, young_diagrams)
from haargenus.verify import (biane_scan, mingo_nica_scan, oracle_suite,
                              premap_annular_scan, premap_disc_scan)
from haargenus.weingarten import (TableSet, verify_gram_identity, weingarten_table,
                                  wg_cumulant, wg_cumulant_order_check, wg_limit)

TABLES = TableSet()


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def rational_matrix(rng, n, span=3):
    return DenseMatrix([[Fraction(rng.randint(-span, span), rng.randint(1, 3))
                         for _ in range(n)] for _ in range(n)])


def example_two_trace_expression():
    return TraceExpression(
        cycles=[(1, 2, 3), (4, 5, 6, 7, 8)],
        eps={1: 1, 2: 1, 3: -1, 4: 1, 5: -1, 6: -1, 7: 1, 8: 1},
        color={k: 1 for k in range(1, 9)},
        slot={k: k for k in range(1, 9)})


def test_criterion_01_weingarten_golden_value():
    table = weingarten_table(8)
    lam = YoungDiagram([3, 1])
    expected = PolyFrac(
        (0, 0, 0, 0, 0, 0, 2),
        _poly_product([(1, 1), (2, 1), (6, 1), (-1, 1), (-2, 1), (-3, 1)]))
    assert table.wg(lam) == expected
    assert format_polyfrac(table.wg(lam)) == \
        "2*N^6/((N+1)*(N+2)*(N+6)*(N-1)*(N-2)*(N-3))"
    fresh = time.time()
    from haargenus.weingarten import compute_table
    compute_table(8)
    build_time = time.time() - fresh
    assert build_time < 10.0
    report(1, f"wg([3,1]) exact symbolic match; n=8 table built in {build_time:.2f}s")


def _poly_product(linears):
    out = (1,)
    for c0, c1 in linears:
        nxt = [0] * (len(out) + 1)
        for i, v in enumerate(out):
            nxt[i] += v * c0
            nxt[i + 1] += v * c1
        out = tuple(nxt)
    return out


def test_criterion_02_leading_order():
    checked = 0
    for k in (1, 2, 3, 4):
        table = weingarten_table(2 * k)
        for lam in young_diagrams(k):
            assert table.wg(lam).limit_at_infinity() == wg_limit(lam)
            checked += 1
    assert weingarten_table(8).wg(YoungDiagram([3, 1])).limit_at_infinity() == 2
    report(2, f"lim wg(lambda) matches the Catalan leading order for all "
              f"{checked} diagrams with weight <= 4 (incl. wg([3,1]) -> 2)")


def test_criterion_03_gram_identity():
    # full symbolic product for n = 2, 4, 6; for n = 8 one symbolic entry per
    # relabeling orbit (orbits classify every entry; the reduction is itself
    # cross-checked against the full product at n <= 6 inside
    # verify_gram_identity's unit tests) plus complete exact-integer products
    # at two dimensions
    for n in (2, 4, 6, 8):
        assert verify_gram_identity(n)
    report(3, "G . W = Id exactly for n in {2, 4, 6, 8}")


def test_criterion_04_noncrossing_equivalences():
    t0 = time.time()
    parts = [
        biane_scan(6),
        mingo_nica_scan(((2, 2), (3, 2), (4, 2), (3, 3), (5, 2), (4, 3))),
        premap_disc_scan(4),
        premap_annular_scan(((2, 2), (3, 2))),
    ]
    elapsed = time.time() - t0
    total = sum(p["instances"] for p in parts)
    for p in parts:
        assert p["counterexamples"] == [], p
        assert p["agreements"] == p["instances"]
    assert elapsed < 60.0
    report(4, f"definitional and cycle-count noncrossing tests agree on all "
              f"{total} instances in {elapsed:.1f}s (zero counterexamples)")


def test_criterion_05_bijection_and_young_triple():
    pairings = list(enumerate_pairings(range(1, 7)))
    assert len(pairings) == 15
    cases = 0
    for p_plus in pairings:
        for p_minus in pairings:
            a = pairings_to_premap(p_plus, p_minus)
            assert premap_to_pairings(a) == (p_plus, p_minus)
            d_join = join_of_pairings_diagram(p_plus, p_minus)
            d_premap = young_of_premap(a)
            # product pairing cycles come in equal-length pairs
            prod = _pairing_perm(p_plus).compose(_pairing_perm(p_minus))
            lengths = Counter(len(c) for c in prod.cycles())
            rows = []
            for length, mult in lengths.items():
                assert mult % 2 == 0
                rows.extend([length] * (mult // 2))
            d_product = YoungDiagram(rows)
            assert d_join == d_premap == d_product
            cases += 1
    assert cases == 225
    # the worked instance
    p_plus = SetPartition([[1, 2], [3, 5], [4, 8], [6, 7]])
    p_minus = SetPartition([[1, 6], [2, 5], [3, 7], [4, 8]])
    prod = _pairing_perm(p_plus).compose(_pairing_perm(p_minus))
    assert prod.cycles() == ((1, 7, 5), (2, 3, 6), (4,), (8,))
    assert young_of_premap(pairings_to_premap(p_plus, p_minus)) == YoungDiagram([3, 1])
    report(5, "bijection round-trips and the three Young diagrams coincide on "
              "all 225 pairing pairs of [6]; worked instance reproduced")


def _pairing_perm(p):
    from haargenus.permap import SignedPermutation
    return SignedPermutation.from_cycles([tuple(sorted(b)) for b in p.blocks])


def test_criterion_06_cross_oracle_battery():
    t0 = time.time()
    result = oracle_suite(seed=20240, count=80, tables=TABLES)
    elapsed = time.time() - t0
    assert result["cases"] >= 50
    assert result["discrepancies"] == []
    assert elapsed < 300.0
    report(6, f"evaluate_moment == brute_force_moment exactly on "
              f"{result['cases']} generated expressions in {elapsed:.1f}s")


def test_criterion_07_hand_derived_closed_forms():
    rng = random.Random(777)
    conj = TraceExpression.single_trace([(1, 1, 1), (1, -1, 2)])
    plain = TraceExpression.single_trace([(1, 1, 1), (1, 1, 2)])
    for n in (2, 5, 10):
        x = {1: rational_matrix(rng, n), 2: rational_matrix(rng, n)}
        lhs_conj = evaluate_moment(conj, x, n, tables=TABLES).value
        assert lhs_conj == x[1].normalized_trace() * x[2].normalized_trace()
        lhs_plain = evaluate_moment(plain, x, n, tables=TABLES).value
        assert lhs_plain == Fraction(1, n) * (x[1] @ x[2].transpose()).normalized_trace()
    report(7, "E[tr(O X1 O^T X2)] = tr(X1) tr(X2) and E[tr(O X1 O X2)] = "
              "tr(X1 X2^T)/N exactly at N in {2, 5, 10}")


def test_criterion_08_two_trace_worked_term():
    expr = example_two_trace_expression()
    target = (SetPartition([[1, 2], [3, 5], [4, 8], [6, 7]]),
              SetPartition([[1, 6], [2, 5], [3, 7], [4, 8]]))
    matches = [t for t in expand_moment(expr, tables=TABLES)
               if t.pairings[0] == target]
    assert len(matches) == 1
    term = matches[0]
    assert term.chi == -1
    coefficient = PolyFrac.n_power(term.exponent) * term.wg_factor
    expected = PolyFrac(
        (0, 2), _poly_product([(1, 1), (2, 1), (6, 1), (-1, 1), (-2, 1), (-3, 1)]))
    assert coefficient == expected
    assert term.vertex_labels == ((1, -3, 5), (2, 7, -8, 4), (6,))
    report(8, "two-trace expansion contains the chi = -1 gluing with "
              "coefficient 2N/((N+1)(N+2)(N+6)(N-1)(N-2)(N-3)) and vertex "
              "traces tr(X1 X3^T X5) tr(X2 X7 X8^T X4) tr(X6)")


@pytest.mark.slow
def test_criterion_09_monte_carlo_concordance():
    t0 = time.time()
    rng = random.Random(909)
    n = 10
    samples = 100_000
    x = {k: rational_matrix(rng, n) for k in range(1, 9)}
    checks = []
    conj = TraceExpression.single_trace([(1, 1, 1), (1, -1, 2)])
    plain = TraceExpression.single_trace([(1, 1, 1), (1, 1, 2)])
    two_trace = example_two_trace_expression()
    for label, expr in (("conjugated pair", conj), ("straight pair", plain),
                        ("two-trace worked expression", two_trace)):
        exact = evaluate_moment(expr, x, n, mode="float", tables=TABLES).value
        est = mc_moment(expr, x, n, samples, seed=2024, workers=2)
        assert est.within(exact, 5.0), (label, exact, est)
        checks.append((label, est.z_score(exact)))
    entry = mc_entry_moment(5, {(1, 1): 2}, samples, seed=2025, workers=2)
    assert entry.within(Fraction(1, 5), 5.0)
    checks.append(("E[O11^2] at N=5", entry.z_score(Fraction(1, 5))))
    elapsed = time.time() - t0
    assert elapsed < 300.0
    zs = ", ".join(f"{label}: z={z:+.2f}" for label, z in checks)
    report(9, f"Monte Carlo within 5 SE of exact ({zs}) in {elapsed:.0f}s")


def test_criterion_10_cumulant_consistency():
    rng = random.Random(1010)

    def mobius_oracle(exprs, mats, n):
        r = len(exprs)
        total = Fraction(0)
        full = SetPartition.full(range(1, r + 1))
        for rho in enumerate_partitions(range(1, r + 1)):
            prod = Fraction(1)
            for block in rho.blocks:
                combined = concatenate([exprs[i - 1] for i in sorted(block)])
                value = evaluate_moment(combined, mats, n, tables=TABLES).value
                prod *= to_unnormalized(value, combined.num_traces, n)
            total += mobius(rho, full) * prod
        return total

    for n_dim in (4, 5):
        x = {i: rational_matrix(rng, n_dim) for i in range(1, 7)}
        y1 = TraceExpression.single_trace([(1, 1, 1), (1, -1, 2)])
        y2 = TraceExpression.single_trace([(1, 1, 3), (1, 1, 4), (1, -1, 5), (1, -1, 6)])
        assert trace_cumulant([y1], matrices=x, n=n_dim, tables=TABLES) == \
            mobius_oracle([y1], x, n_dim)
        assert trace_cumulant([y1, y2], matrices=x, n=n_dim, tables=TABLES) == \
            mobius_oracle([y1, y2], x, n_dim)
        ys = [TraceExpression.single_trace([(1, 1, i), (1, -1, i + 1)])
              for i in (1, 3, 5)]
        assert trace_cumulant(ys, matrices=x, n=n_dim, tables=TABLES) == \
            mobius_oracle(ys, x, n_dim)

    # Weingarten cumulant order bound over every admissible triple
    triples = 0
    for n in (4, 6):
        ground = range(1, n + 1)
        top = SetPartition.full(ground)
        even_parts = [p for p in enumerate_partitions(ground)
                      if all(len(b) % 2 == 0 for b in p.blocks)]
        for pi in even_parts:
            for rho in enumerate_interval(pi, top):
                for sigma in enumerate_interval(rho, top):
                    value = wg_cumulant(TABLES, pi, rho, sigma)
                    assert wg_cumulant_order_check(value, rho, sigma)
                    triples += 1
    report(10, f"trace cumulants match the Mobius combination exactly for "
               f"r <= 3 at N in {{4, 5}}; degree bound holds on all {triples} "
               f"Weingarten-cumulant triples at n in {{4, 6}}")


def test_criterion_11_asymptotic_freeness():
    rng = random.Random(3)
    block_size = 3
    blocks = {i: DenseMatrix([[Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                               for _ in range(block_size)] for _ in range(block_size)])
              for i in range(1, 6)}
    blocks = center_slots(blocks)

    def tv(cycle):
        if not cycle:
            return Fraction(1)
        return trace_along([cycle], blocks, normalized=True)

    # first-order decay of centred alternating conjugated words
    words = {2: TraceExpression.conjugated_word([1, 2], [1, 2]),
             3: TraceExpression.conjugated_word([1, 2, 1], [1, 2, 3]),
             4: TraceExpression.conjugated_word([1, 2, 1, 2], [1, 2, 3, 4])}
    ratios = []
    for length, word in words.items():
        moment = moment_symbolic(word, tv, tables=TABLES)
        values = {n: moment.eval_at(n) for n in (8, 16, 32)}
        # |m(N)| <= c / N with c from the first point (monotone decay)
        bound = abs(values[8]) * 8
        for n in (8, 16, 32):
            assert abs(values[n]) <= (bound / n if bound else Fraction(0))
        if values[8] != 0:
            for a, b in ((8, 16), (16, 32)):
                ratio = abs(values[b]) / abs(values[a])
                assert Fraction(3, 10) <= ratio <= Fraction(7, 10), (length, ratio)
                ratios.append(float(ratio))
        else:
            assert values == {8: 0, 16: 0, 32: 0}
    assert ratios, "at least one word must exercise the ratio test"

    # second-order spokes at p = q = 2
    y1 = TraceExpression.conjugated_word([1, 2], [1, 2])
    y2 = TraceExpression.conjugated_word([1, 2], [3, 4])
    k2 = trace_cumulant([y1, y2], symbolic=True, trace_value=tv, tables=TABLES)
    # exact rational reconstruction from 5 integer dimensions with the known
    # degree bounds, then the limit from leading coefficients
    d_num = len(k2.num) - 1
    d_den = len(k2.den) - 1
    sample_dims = [4, 6, 8, 10, 12]
    assert d_num + d_den + 1 <= len(sample_dims)
    points = [(n, k2.eval_at(n)) for n in sample_dims]
    reconstructed = _reconstruct_rational(points, d_num, d_den)
    assert reconstructed == k2
    limit = k2.limit_at_infinity()

    def phi1(i, j, transposed, v, w):
        if v[i] != w[j]:
            return Fraction(0)
        cyc = (i + 1, -(j + 3)) if transposed else (i + 1, j + 3)
        return trace_along([cyc], blocks, normalized=True)

    v = w = [1, 2]
    a_tab = [[phi1(i, j, False, v, w) for j in range(2)] for i in range(2)]
    at_tab = [[phi1(i, j, True, v, w) for j in range(2)] for i in range(2)]
    predicted = predicted_second_order_cov(a_tab, at_tab, 2, 2)
    assert limit == predicted

    # p = q = 1 across colours: a single conjugated letter has constant trace
    # and the letters are free and centred, so both sides are exactly zero
    # (a single letter is not cyclically alternating within one colour, so the
    # same-colour case is outside the covariance formula's hypotheses)
    z1 = TraceExpression.conjugated_word([1], [1])
    z2 = TraceExpression.conjugated_word([2], [2])
    k2_single = trace_cumulant([z1, z2], symbolic=True, trace_value=tv, tables=TABLES)
    cross = asymptotic_moment(
        TraceExpression.conjugated_word([1, 2], [1, 2]), tables=TABLES
    ).evaluate(blocks, block_size)
    cross_t = asymptotic_moment(
        TraceExpression.conjugated_word([1, 2], [1, -2]), tables=TABLES
    ).evaluate(blocks, block_size)
    assert k2_single.limit_at_infinity() == \
        predicted_second_order_cov([[cross]], [[cross_t]], 1, 1) == 0

    # p != q: the limit covariance vanishes
    y3 = TraceExpression.conjugated_word([1, 2, 3], [3, 4, 5])
    k2_unequal = trace_cumulant([y1, y3], symbolic=True, trace_value=tv, tables=TABLES)
    assert k2_unequal.limit_at_infinity() == 0
    report(11, f"first-order moments decay O(1/N) (doubling ratios "
               f"{[round(r, 3) for r in ratios]}); exact k2 limit equals the "
               f"spoke prediction {predicted} for p=q=2 and 0 for p=q=1 "
               f"across colours; p != q limit is 0")


def test_criterion_11_spokes_beyond_two():
    """Second-order spokes of cyclically alternating centred words of p = q =
    3 and 4 letters, with transposed slots, and of one p != q pair: the exact
    limit of k2 equals the spoke prediction, and each word's first-order
    limit is 0.  Letters of distinct colours keep the expansions small."""
    rng = random.Random(11)
    block_size = 3
    blocks = center_slots({i: rational_matrix(rng, block_size, span=2) for i in range(1, 9)})

    def tv(cycle):
        return trace_along([cycle], blocks, normalized=True) if cycle else Fraction(1)

    def phi(x, y):
        """First-order value of the product of two (colour, slot) letters: zero
        across colours, since free centred letters multiply to zero."""
        (cx, sx), (cy, sy) = x, y
        return tv((sx, sy)) if cx == cy else Fraction(0)

    cases = [  # (colours, slots) of each word
        (([1, 2, 3], [1, -2, 3]), ([1, 2, 3], [4, 5, -6])),  # only the transposed spoke
        (([1, 2, 3], [1, 2, -3]), ([1, 3, 2], [-4, 5, 6])),  # only the direct spoke
        (([1, 2, 3, 4], [1, -2, 3, 4]), ([1, 2, 3, 4], [5, 6, -7, 8])),
        (([1, 2, 3, 4], [-1, 2, 3, 4]), ([1, 4, 3, 2], [5, -6, 7, 8])),
        (([1, 2, 3], [1, -2, 3]), ([1, 2, 3, 4], [5, 6, -7, 8])),  # p != q
    ]
    limits, transposed = [], []
    for (c1, s1), (c2, s2) in cases:
        y1 = TraceExpression.conjugated_word(c1, s1)
        y2 = TraceExpression.conjugated_word(c2, s2)
        for word in (y1, y2):
            assert asymptotic_moment(word, tables=TABLES).evaluate(blocks, block_size) == 0
        x, y = list(zip(c1, s1)), list(zip(c2, s2))
        p, q = len(x), len(y)
        direct = [[phi(a, b) for b in y] for a in x]
        flipped = [[phi(a, (cb, -sb)) for cb, sb in y] for a in x]
        predicted = predicted_second_order_cov(direct, flipped, p, q)
        k2 = trace_cumulant([y1, y2], symbolic=True, trace_value=tv, tables=TABLES)
        assert k2.limit_at_infinity() == predicted, (c1, s1, c2, s2)
        limits.append(predicted)
        if p == q:
            zero = [[0] * q for _ in range(p)]
            transposed.append(predicted_second_order_cov(zero, flipped, p, q))
    assert transposed[0] != 0 and transposed[0] == limits[0]  # the transposed spoke alone
    assert transposed[1] == 0 and limits[1] != 0  # the direct spoke alone
    assert limits[-1] == 0
    report(11, f"spoke limits {[str(v) for v in limits]} for p = q = 3, 4 with "
               f"transposed slots and for p = 3, q = 4; first-order limits 0")


def _reconstruct_rational(points, d_num, d_den):
    """Exact rational-function reconstruction with denominator normalized
    monic; needs d_num + d_den + 1 points."""
    unknowns = d_num + 1 + d_den  # denominator leading coefficient fixed to 1
    rows, rhs = [], []
    for x, f in points:
        x = Fraction(x)
        row = [x ** k for k in range(d_num + 1)]
        row += [-f * x ** k for k in range(d_den)]
        rows.append(row)
        rhs.append(f * x ** d_den)
    sol = _solve_fractions(rows[:unknowns], rhs[:unknowns])
    num = sol[:d_num + 1]
    den = sol[d_num + 1:] + [Fraction(1)]
    scale = 1
    for v in num + den:
        scale = scale * v.denominator // __import__("math").gcd(scale, v.denominator)
    return PolyFrac(tuple(int(v * scale) for v in num),
                    tuple(int(v * scale) for v in den))


def _solve_fractions(a, b):
    n = len(a)
    m = [list(row) + [b[i]] for i, row in enumerate(a)]
    for k in range(n):
        pivot = next(r for r in range(k, n) if m[r][k])
        m[k], m[pivot] = m[pivot], m[k]
        inv = 1 / m[k][k]
        m[k] = [v * inv for v in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                f = m[i][k]
                m[i] = [vi - f * vk for vi, vk in zip(m[i], m[k])]
    return [m[i][n] for i in range(n)]


def test_criterion_12_determinism(tmp_path):
    expr = {
        "traces": [[{"color": 1, "eps": 1, "slot": 1},
                    {"color": 1, "eps": -1, "slot": 2}]],
        "matrices": {"1": [["1/2", "1"], ["0", "1/3"]],
                     "2": [["2", "1/2"], ["1", "1"]]},
    }
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(expr))
    args = [sys.executable, "-m", "haargenus.cli", "verify", "--suite", "mc",
            "--expr", str(path), "--N", "2", "--samples", "4000", "--seed", "42"]
    outputs = set()
    for workers in ("1", "4", "1"):
        run = subprocess.run(args + ["--workers", workers], capture_output=True)
        assert run.returncode == 0
        outputs.add(run.stdout)
    assert len(outputs) == 1
    report(12, "identical (config, seed) runs are byte-identical across "
               "repeats and worker counts")
