import json
import math
import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haargenus.errors import ValidationError
from haargenus.expansion import TraceExpression, evaluate_moment
from haargenus.matrixlab import (INT64_LIMIT, DenseMatrix, block_diagonal_repeat,
                                 brute_force_moment, haar_orthogonal, mc_cumulant,
                                 mc_entry_moment, mc_moment, sample_rng, trace_along,
                                 trace_numerators, traces_along)
from haargenus.verify import mc_suite
from haargenus.weingarten import TableSet
from oracles import dense_trace_along, trace_index_sum


def rational_matrix(rng, n, span=3):
    return DenseMatrix([[Fraction(rng.randint(-span, span), rng.randint(1, 3))
                         for _ in range(n)] for _ in range(n)])


class TestDenseMatrix:
    def test_modes(self):
        exact = DenseMatrix([[1, 2], [3, 4]])
        assert exact.mode == "exact"
        floaty = DenseMatrix([[1.0, 2.0], [3.0, 4.0]])
        assert floaty.mode == "float"
        with pytest.raises(ValidationError):
            exact.matmul(floaty)

    def test_square_required(self):
        with pytest.raises(ValidationError):
            DenseMatrix([[1, 2, 3], [4, 5, 6]])

    def test_exact_ops(self):
        a = DenseMatrix([[Fraction(1, 2), 1], [0, 2]])
        b = DenseMatrix([[2, 0], [1, 1]])
        assert (a @ b).rows == ((Fraction(2), Fraction(1)), (Fraction(2), Fraction(2)))
        assert a.transpose().rows == ((Fraction(1, 2), Fraction(0)), (Fraction(1), Fraction(2)))
        assert a.trace() == Fraction(5, 2)
        assert a.normalized_trace() == Fraction(5, 4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            DenseMatrix([[1]]) @ DenseMatrix([[1, 0], [0, 1]])

    def test_json_round_trip(self):
        m = DenseMatrix([[Fraction(1, 3), 2], [0, Fraction(-5, 7)]])
        assert DenseMatrix.from_json(m.to_json()) == m

    # every string Fraction accepts, or refuses, with its exception and text
    STRINGS = ["1/2", "-3/4", "+5", "0", "-0", "-0/7", "007/014", "12345678901234567890/3",
               "1_000", "\u0661/\u0662", " 3", "3\n", "1.5", "-2e-3", "1/-2", " 1 / 2 ", "1 /2",
               "", "/2", "1/", "+-1", "abc", "1/0", "0/0", "\u0663/0"]

    @pytest.mark.parametrize("text", STRINGS)
    def test_string_entries_parse_as_fraction_does(self, text):
        try:
            want = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            for make in (DenseMatrix, DenseMatrix.from_json):
                with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                    make([[text]])
            return
        for make in (DenseMatrix, DenseMatrix.from_json):
            got = make([[text, 1], [0, "1"]]).rows[0][0]
            assert type(got) is Fraction and got == want

    def test_entries_parsed_once(self):
        half = Fraction(1, 2)
        assert DenseMatrix([[half]]).rows[0][0] is half
        m = DenseMatrix.from_json([["2/4", "3"], [2, "-4/6"]])
        assert m.rows == ((Fraction(1, 2), Fraction(3)), (Fraction(2), Fraction(-2, 3)))
        assert all(type(v) is Fraction for r in m.rows for v in r)
        # the integer form of parsed entries is over the lcm of lowest-terms denominators
        assert m.integer_form() == (6, ((3, 18), (12, -4)), ((3, 12), (18, -4)))
        assert m == DenseMatrix(m.rows) and m.integer_form() == DenseMatrix(m.rows).integer_form()
        # strings in a float matrix are parsed as rationals first
        assert DenseMatrix.from_json([["1/4", 1.5], [0, "2"]]).as_numpy().tolist() == \
            [[0.25, 1.5], [0.0, 2.0]]

    @pytest.mark.parametrize("rows", [[[True]], [[1, False], [0, 1]], [[True, 1.5], [0.0, 1.0]],
                                      [["1/2", True], [0, 1]]])
    def test_bool_entries_refused(self, rows):
        for make in (DenseMatrix, DenseMatrix.from_json):
            with pytest.raises(ValidationError, match="^matrix entries must be numbers, got "
                                                      "(True|False)$"):
                make(rows)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_entries_refused(self, bad):
        with pytest.raises(ValidationError, match=f"^matrix entries must be finite, got {bad}$"):
            DenseMatrix([[1.0, 0.0], ["1/2", bad]])
        with pytest.raises(ValidationError, match="finite"):
            DenseMatrix.from_json(json.loads(json.dumps([[1, bad], [0, 1]])))
        with pytest.raises(ValidationError, match=f"^matrix entries must be finite, got {bad}$"):
            DenseMatrix(arr=[[1.0, 0.0], [0.5, bad]])

    def test_float_overflow_refused(self):
        # a float product, sum or multiple that overflows is refused like an input
        big = DenseMatrix(arr=[[1e200, 0.0], [0.0, 1.0]])
        huge = DenseMatrix(arr=[[1.5e308, 0.0], [0.0, 1.0]])
        for overflow in (lambda: big @ big, lambda: huge.add(huge), lambda: huge.scale(2)):
            with pytest.raises(ValidationError, match="^matrix entries must be finite, got inf$"):
                with np.errstate(over="ignore"):
                    overflow()

    def test_block_repeat(self):
        block = DenseMatrix([[1, 2], [3, 4]])
        big = block_diagonal_repeat(block, 6)
        assert big.n == 6
        assert big.normalized_trace() == block.normalized_trace()
        with pytest.raises(ValidationError):
            block_diagonal_repeat(block, 5)


class TestTraceAlong:
    def test_fixed_points_give_trace_product(self):
        rng = random.Random(0)
        x = {1: rational_matrix(rng, 3), 2: rational_matrix(rng, 3)}
        assert trace_along([(1,), (2,)], x) == x[1].trace() * x[2].trace()

    def test_transposed_label(self):
        rng = random.Random(1)
        x = {1: rational_matrix(rng, 3), 2: rational_matrix(rng, 3)}
        assert trace_along([(1, -2)], x) == (x[1] @ x[2].transpose()).trace()

    def test_against_index_sum(self):
        rng = random.Random(2)
        x = {1: rational_matrix(rng, 3), 2: rational_matrix(rng, 3),
             3: rational_matrix(rng, 3)}
        cycles = [(1, 2, 3)]
        assert trace_along(cycles, x) == trace_index_sum(cycles, x)

    def test_index_sum_random_instances(self):
        rng = random.Random(3)
        for _ in range(8):
            n = rng.randint(2, 4)
            labels = list(range(1, rng.randint(2, 4)))
            x = {l: rational_matrix(rng, n) for l in range(1, 5)}
            points = list(range(1, rng.randint(2, 4) + 1))
            rng.shuffle(points)
            cut = rng.randint(1, len(points))
            cycles = [tuple(rng.choice([p, -p]) for p in points[:cut])]
            if points[cut:]:
                cycles.append(tuple(rng.choice([p, -p]) for p in points[cut:]))
            # labels are the signed points themselves here
            assert trace_along(cycles, x) == trace_index_sum(cycles, x)

    def test_normalized(self):
        rng = random.Random(4)
        x = {1: rational_matrix(rng, 4)}
        assert trace_along([(1,)], x, normalized=True) == x[1].trace() / 4

    def test_missing_label(self):
        with pytest.raises(ValidationError):
            trace_along([(1, 5)], {1: DenseMatrix([[1]])})

    def test_mixed_modes_rejected(self):
        x = {1: DenseMatrix([[1, 2], [3, 4]]), 2: DenseMatrix([[1.0, 0.0], [0.0, 1.0]])}
        # within a cycle, or across the cycles of one call
        for cycles in ([(1, 2)], [(2, 1)], [(1,), (2,)], [(2,), (1,)], [(1, 1), (-2,)]):
            with pytest.raises(ValidationError):
                trace_along(cycles, x)
            with pytest.raises(ValidationError):
                traces_along(cycles, x)
        with pytest.raises(ValidationError):
            trace_along([(1, 3)], {1: x[1], 3: DenseMatrix([[1]])})


def _signed_cycles(rng, labels, max_len):
    """1-2 cycles of signed labels drawn with repetition."""
    return [tuple(rng.choice((1, -1)) * rng.choice(labels)
                  for _ in range(rng.randint(1, max_len)))
            for _ in range(rng.randint(1, 2))]


class TestIntegerTraceKernel:
    """The exact trace runs on integers; it must equal Fraction arithmetic."""

    def test_integer_form(self):
        m = DenseMatrix([[Fraction(1, 6), Fraction(-3, 4)], [2, Fraction(5, 9)]])
        den, rows, cols = m.integer_form()
        assert den == 36
        assert rows == ((6, -27), (72, 20))
        assert cols == ((6, 72), (-27, 20))
        assert all(type(v) is int for r in rows for v in r)
        assert m.integer_form() is m.integer_form()  # computed once
        with pytest.raises(ValidationError):
            DenseMatrix([[1.0]]).integer_form()

    def test_kernel_inputs_kept(self):
        # made with the matrix: the bound max(1, |entry|) and the int64 rows if they fit
        m = DenseMatrix([[Fraction(1, 6), Fraction(-3, 4)], [2, Fraction(5, 9)]])
        assert m._bound == 72
        assert m._int64.dtype == np.int64 and m._int64.tolist() == [[6, -27], [72, 20]]
        top = DenseMatrix([[INT64_LIMIT - 1, 0], [0, 1]])
        assert top._bound == INT64_LIMIT - 1 and top._int64.tolist() == [[2**63 - 1, 0], [0, 1]]
        big = DenseMatrix([[-INT64_LIMIT, 0], [0, 1]])
        assert big._bound == INT64_LIMIT and big._int64 is None
        assert DenseMatrix.zeros(2)._bound == 1

    def test_against_references(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(1, 5)
            x = {l: rational_matrix(rng, n, span=5) for l in (1, 2, 3)}
            cycles = _signed_cycles(rng, (1, 2, 3), 6)
            for normalized in (False, True):
                got = trace_along(cycles, x, normalized=normalized)
                assert type(got) is Fraction
                assert got == dense_trace_along(cycles, x, normalized=normalized)
            # the index sum keys points by signed label, so it needs them distinct
            points = [l for c in cycles for l in c]
            if len(set(points)) == len(points) and n ** len(points) <= 1024:
                assert trace_along(cycles, x) == trace_index_sum(cycles, x)

    def test_one_by_one_and_zero_matrices(self):
        x = {1: DenseMatrix([[Fraction(-2, 3)]]), 2: DenseMatrix([[Fraction(5, 7)]])}
        assert trace_along([(1, -2, 1)], x) == Fraction(20, 63)
        assert trace_along([(1,), (-2, 2)], x, normalized=True) == Fraction(-50, 147)
        rng = random.Random(42)
        z = {1: DenseMatrix.zeros(3), 2: rational_matrix(rng, 3)}
        for cycles in ([(1,)], [(2, -1, 2)], [(2,), (1, -2)]):
            for normalized in (False, True):
                got = trace_along(cycles, z, normalized=normalized)
                assert type(got) is Fraction and got == 0

    def test_large_coprime_denominators(self):
        rng = random.Random(43)
        primes = (1_000_000_007, 998_244_353, 2**61 - 1, 1_000_000_009, 3**40)
        for _ in range(10):
            n = rng.randint(2, 4)
            x = {l: DenseMatrix([[Fraction(rng.randint(-10**12, 10**12), rng.choice(primes))
                                  for _ in range(n)] for _ in range(n)])
                 for l in (1, 2)}
            cycles = _signed_cycles(rng, (1, 2), 5)
            for normalized in (False, True):
                assert trace_along(cycles, x, normalized=normalized) == \
                    dense_trace_along(cycles, x, normalized=normalized)


def _wide_matrix(rng, n, span):
    """Rational entries with numerators up to `span` and small denominators."""
    return DenseMatrix([[Fraction(rng.randint(-span, span), rng.randint(1, 4))
                         for _ in range(n)] for _ in range(n)])


class TestBatchTraceKernel:
    """`traces_along` stacks the cycles of one dimension and length; it runs in
    int64 only below the overflow bound and on Python ints otherwise.  Every
    test holds a cycle whose trace does not fit int64 without that bound."""

    def test_against_references(self):
        rng = random.Random(44)
        for n in range(1, 7):
            for span in (5, 2**20, 2**40):
                x = {l: _wide_matrix(rng, n, span) for l in (1, 2, 3)}
                # mixed lengths 1..6, repeated and transposed labels, one batch
                cycles = [tuple(rng.choice((1, -1)) * rng.choice((1, 2, 3))
                                for _ in range(rng.randint(1, 6))) for _ in range(12)]
                cycles += [(1, 1, 1, 1), (-2, 2, -2), (3,), (-3,)]
                for normalized in (False, True):
                    got = traces_along(cycles, x, normalized)
                    assert all(type(t) is Fraction for t in got)
                    assert got == [dense_trace_along([c], x, normalized) for c in cycles]
                    # unreduced int numerators over the product of the factors' scales
                    nums, dens = trace_numerators(cycles, x, normalized)
                    assert all(type(t) is int for t in nums)
                    assert dens == [math.prod(x[abs(l)].integer_form()[0] for l in c) *
                                    (n if normalized else 1) for c in cycles]
                    assert [Fraction(t, d) for t, d in zip(nums, dens)] == got
                # the index sum keys points by signed label, so it needs them distinct
                for c in ((1, -2, 3), (-1, 2), (2,), (1, 2, 3)):
                    if n ** len(c) <= 216:
                        assert traces_along([c], x) == [trace_index_sum([c], x)]
        x = {1: _wide_matrix(rng, 4, 2**40), 2: _wide_matrix(rng, 4, 2**40)}
        cycles = [(1, 2, -1), (2, -2), (1,)]
        assert traces_along(cycles, x) == [dense_trace_along([c], x) for c in cycles]
        assert trace_along(cycles, x) == dense_trace_along(cycles, x)

    def test_bound_on_both_sides_of_int64(self):
        top = INT64_LIMIT - 1
        assert top == 2**63 - 1
        one = {1: DenseMatrix([[top]]), 2: DenseMatrix([[-top]]), 3: DenseMatrix([[1]])}
        # bound exactly 2^63 - 1: runs in int64 and the trace is the largest int64
        assert traces_along([(1,), (3, 1, 3), (2,)], one) == [top, top, -top]
        # just above: 2^63 itself and (2^63 - 1)^2 overflow int64 and stay exact
        two = {1: DenseMatrix([[2**62, 0], [0, 2**62]]), 4: DenseMatrix([[2**31, 1], [1, 2**31]])}
        assert traces_along([(1,), (1, 1), (4, 4, 4, 4)], two) == \
            [2**63, 2**125, dense_trace_along([(4, 4, 4, 4)], two)]
        assert traces_along([(1, 1), (2, 2)], one) == [top * top, top * top]
        # the true trace of a 3 x 3 cycle overflows int64 although every entry fits
        rng = random.Random(45)
        x = {l: _wide_matrix(rng, 3, 2**30) for l in (1, 2)}
        cycles = [(1, 2, 1), (1, -2, 2), (2,)]
        got = traces_along(cycles, x, normalized=True)
        assert got == [dense_trace_along([c], x, normalized=True) for c in cycles]
        assert max(abs(t.numerator) for t in got) >= INT64_LIMIT

    def test_int64_choice_per_cycle(self, monkeypatch):
        import haargenus.matrixlab as ml

        stacks = []  # (Python ints, rows) of each stack a call multiplies
        real = ml._stack_traces

        def spy(base, index, lengths, exact):
            stacks.append((base.dtype == object, len(lengths)))
            return real(base, index, lengths, exact)

        monkeypatch.setattr(ml, "_stack_traces", spy)
        top = INT64_LIMIT - 1
        one = {1: DenseMatrix([[top]]), 2: DenseMatrix([[-top]]), 3: DenseMatrix([[1]])}
        # every bound is 2^63 - 1, padding included: one int64 stack
        assert traces_along([(1,), (3, 1, 3), (2,)], one) == [top, top, -top]
        assert stacks == [(False, 3)]
        stacks.clear()
        # only (1, 1) has a bound of 2^63 or more
        assert traces_along([(1,), (1, 1), (3, 3, 3), (2, 3)], one) == [top, top * top, 1, -top]
        assert sorted(stacks) == [(False, 3), (True, 1)]

    def test_empty_zero_and_one_by_one(self):
        assert traces_along([], {}) == []
        assert trace_along([], {}) == Fraction(1)
        big = 3**30
        x = {1: DenseMatrix([[Fraction(big, 7)]]), 2: DenseMatrix([[Fraction(-big, 5)]])}
        assert traces_along([(1, -2, 1), (2,)], x, normalized=True) == \
            [Fraction(big, 7) ** 2 * Fraction(-big, 5), Fraction(-big, 5)]
        rng = random.Random(46)
        z = {1: DenseMatrix.zeros(3), 2: _wide_matrix(rng, 3, 2**40)}
        cycles = [(1,), (2, -1, 2), (2, 2, 2), (1, 1), (-2, 2)]
        got = traces_along(cycles, z)
        assert got[:2] == [0, 0] and got[3] == 0
        assert got == [dense_trace_along([c], z) for c in cycles]

    def test_bad_cycles_raise(self):
        rng = random.Random(47)
        good = {1: _wide_matrix(rng, 3, 2**40), 2: _wide_matrix(rng, 3, 2**40)}
        cycles = [(1, 2, 1), (-2, 1)]
        assert traces_along(cycles, good) == [dense_trace_along([c], good) for c in cycles]
        bad = [({**good, 3: DenseMatrix([[1.0, 0.0, 0.0]] * 3)}, (1, 3)),  # mixed modes
               ({**good, 3: _wide_matrix(rng, 2, 2**40)}, (1, -3)),  # dimension mismatch
               (good, (1, 5)),  # no matrix for the label
               (good, ())]  # no factor at all
        for mats, cycle in bad:
            with pytest.raises(ValidationError):
                traces_along(cycles + [cycle], mats)
            with pytest.raises(ValidationError):
                trace_along([cycle] + cycles, mats)


def _product_chain(cycle, matrices):
    """The DenseMatrix product along a cycle, one factor at a time from the
    left, each negative label a transposed copy."""
    prod = None
    for label in cycle:
        m = matrices[abs(label)]
        m = m.transpose() if label < 0 else m
        prod = m if prod is None else prod.matmul(m)
    return prod


_SMALL = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
# near 2^40: a cycle of two such factors overflows int64, one factor does not
_LARGE = st.builds(lambda sign, k, d: Fraction(sign * (2**40 - k), d),
                   st.sampled_from((1, -1)), st.integers(0, 2**12), st.integers(1, 3))


def _square(entries, n):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def _batches(draw, exact: bool):
    """(n, matrices, cycles): labels 1-3 of one size n in 1..6, and 1-10
    cycles of 1-8 signed labels (transposes and repeats) in one call.  Exact
    label 1 has small entries and label 2 entries near 2^40, so int64 and
    Python-int cycles share a call; float entries are often zero."""
    n = draw(st.integers(1, 6))
    if exact:
        entries = {1: _SMALL, 2: _LARGE, 3: st.one_of(_SMALL, _LARGE)}
        mats = {l: DenseMatrix(draw(_square(e, n))) for l, e in entries.items()}
    else:
        entry = st.one_of(st.just(0.0), st.floats(-2.0, 2.0, allow_nan=False))
        mats = {l: DenseMatrix(arr=np.array(draw(_square(entry, n)), dtype=float).reshape(n, n))
                for l in (1, 2, 3)}
    signed = st.sampled_from((1, -1, 2, -2, 3, -3))
    cycles = draw(st.lists(st.lists(signed, min_size=1, max_size=8).map(tuple),
                           min_size=1, max_size=10))
    return n, mats, cycles


# at least 2^63: no int64 array holds such a matrix, so its cycles run on
# Python-int rows alone
_HUGE = st.builds(lambda sign, k, d: Fraction(sign * (2**63 + k), d),
                  st.sampled_from((1, -1)), st.integers(0, 2**12), st.integers(1, 3))


@st.composite
def _small_mixed_batches(draw, exact: bool):
    """(matrices, cycles): labels 1-3 of size n and 4-6 of size m (n, m in
    1..5, maybe equal), and 1-4 cycles of 1-4 signed labels of one size each.
    The evaluators give every call one dimension (`_resolve_for_mode`), so
    mixed sizes in one call cover the public kernel only.  Exact labels 3 and 6 are
    drawn from small, near-2^40 or at-least-2^63 entries, so int64 and
    Python-int stacks of both sizes share a call."""
    sizes = {1: draw(st.integers(1, 5)), 2: draw(st.integers(1, 5))}
    mats = {}
    for label in range(1, 7):
        n = sizes[1 if label <= 3 else 2]
        if exact:
            entries = _SMALL if label % 3 else st.one_of(_SMALL, _LARGE, _HUGE)
            mats[label] = DenseMatrix(draw(_square(entries, n)))
        else:
            entry = st.one_of(st.just(0.0), st.floats(-2.0, 2.0, allow_nan=False))
            mats[label] = DenseMatrix(arr=np.array(draw(_square(entry, n)), dtype=float))
    group = st.sampled_from(((1, -1, 2, -2, 3, -3), (4, -4, 5, -5, 6, -6)))
    cycles = draw(st.lists(group.flatmap(lambda labels: st.lists(
        st.sampled_from(labels), min_size=1, max_size=4).map(tuple)), min_size=1, max_size=4))
    return mats, cycles


def _chain_numerators(cycles, mats, normalized):
    """(nums, dens) of `trace_numerators` from one DenseMatrix product chain
    per cycle, each cycle at its own dimension."""
    dens, nums = [], []
    for cycle in cycles:
        n = mats[abs(cycle[0])].n if normalized else 1
        dens.append(math.prod(mats[abs(l)].integer_form()[0] for l in cycle) * n)
        scaled = _product_chain(cycle, mats).trace() * dens[-1] / n
        assert scaled.denominator == 1
        nums.append(scaled.numerator)
    return nums, dens


class TestTraceKernelProperties:
    """`trace_numerators` against one naive product chain per cycle."""

    @settings(max_examples=60, deadline=None)
    @given(_batches(exact=True), st.booleans())
    def test_exact_equals_matmul_chain(self, batch, normalized):
        n, mats, cycles = batch
        nums, dens = trace_numerators(cycles, mats, normalized)
        assert all(type(t) is int for t in nums) and all(type(d) is int for d in dens)
        assert (nums, dens) == _chain_numerators(cycles, mats, normalized)

    @settings(max_examples=60, deadline=None)
    @given(_batches(exact=False), st.booleans())
    def test_float_equals_matmul_chain(self, batch, normalized):
        n, mats, cycles = batch
        nums, dens = trace_numerators(cycles, mats, normalized)
        assert all(type(t) is float for t in nums)
        assert list(map(repr, nums)) == [repr(_product_chain(c, mats).trace()) for c in cycles]
        assert dens == [n if normalized else 1] * len(cycles)

    @settings(max_examples=80, deadline=None)
    @given(_small_mixed_batches(exact=True), st.booleans())
    def test_small_mixed_exact_batches(self, batch, normalized):
        mats, cycles = batch
        nums, dens = trace_numerators(cycles, mats, normalized)
        assert all(type(t) is int for t in nums) and all(type(d) is int for d in dens)
        assert (nums, dens) == _chain_numerators(cycles, mats, normalized)

    @settings(max_examples=80, deadline=None)
    @given(_small_mixed_batches(exact=False), st.booleans())
    def test_small_mixed_float_batches(self, batch, normalized):
        mats, cycles = batch
        nums, dens = trace_numerators(cycles, mats, normalized)
        assert all(type(t) is float for t in nums)
        assert list(map(repr, nums)) == [repr(_product_chain(c, mats).trace()) for c in cycles]
        assert dens == [mats[abs(c[0])].n if normalized else 1 for c in cycles]

    def test_python_int_stack_alone(self):
        # every factor beyond int64: the call holds no int64 stack at all
        rng = random.Random(49)
        mats = {l: DenseMatrix([[Fraction(rng.choice((1, -1)) * (2**64 + rng.randrange(9)),
                                          rng.randint(1, 3)) for _ in range(3)]
                                for _ in range(3)]) for l in (1, 2)}
        assert all(m._int64 is None for m in mats.values())
        cycles = [(1,), (-2,), (1, 2), (2, -1, 1)]
        for normalized in (False, True):
            assert trace_numerators(cycles, mats, normalized) == \
                _chain_numerators(cycles, mats, normalized)

    def test_error_texts(self):
        good = {1: DenseMatrix([[1, 2], [3, 4]]), 2: DenseMatrix.identity(2)}
        wide = {**good, 3: DenseMatrix.identity(3)}
        cases = [(good, [(1, 2), (1, 5)], "no matrix for label 5"),
                 ({**good, 3: DenseMatrix([[1.0, 0.0], [0.0, 1.0]])}, [(1,), (2, -3)],
                  "mixed exact and float matrices"),
                 (wide, [(1, 2), (2, -3)], "dimension mismatch: 2 vs 3"),
                 # the first mismatched cycle in the caller's order, not the longest
                 (wide, [(3, 1), (1, 2, 2, -3)], "dimension mismatch: 3 vs 2"),
                 (good, [(1,), (), (2, 1)], "a trace cycle needs at least one matrix")]
        for mats, cycles, text in cases:
            for normalized in (False, True):
                with pytest.raises(ValidationError, match=f"^{re.escape(text)}$"):
                    trace_numerators(cycles, mats, normalized)


class TestFloatTraceKernel:
    """Float cycles run in the same batch kernel as exact ones; every trace
    must equal, by repr, the per-cycle DenseMatrix product chain."""

    def test_against_per_cycle_reference(self):
        rng = np.random.default_rng(48)
        pick = random.Random(48)
        for n in range(1, 34):
            x = {l: DenseMatrix(arr=rng.standard_normal((n, n)) / math.sqrt(n))
                 for l in (1, 2, 3)}
            # lengths 1..6, repeated and transposed labels, one batch
            cycles = [tuple(pick.choice((1, -1)) * pick.choice((1, 2, 3))
                            for _ in range(length))
                      for length in range(1, 7) for _ in range(3)]
            cycles += [(1, 1, 1, 1), (-2, 2, -2), (3,), (-3,), (1, -1, 2, -2, 3, -3)]
            for normalized in (False, True):
                got = traces_along(cycles, x, normalized)
                assert all(type(t) is float for t in got)
                assert list(map(repr, got)) == \
                    [repr(dense_trace_along([c], x, normalized)) for c in cycles]
            assert repr(trace_along(cycles, x)) == repr(dense_trace_along(cycles, x))


class TestHaar:
    def test_orthogonality(self):
        for i in range(3):
            o = haar_orthogonal(6, sample_rng(1, i))
            assert np.max(np.abs(o @ o.T - np.eye(6))) < 1e-12

    @pytest.mark.slow
    def test_entry_second_moment(self):
        est = mc_entry_moment(5, {(1, 1): 2}, samples=40000, seed=21)
        assert est.within(Fraction(1, 5), 5)

    @pytest.mark.slow
    def test_entry_first_moment_zero(self):
        est = mc_entry_moment(5, {(1, 1): 1}, samples=40000, seed=22)
        assert est.within(0, 5)

    @pytest.mark.slow
    def test_left_invariance(self):
        # statistics of QO match statistics of O for a fixed orthogonal Q
        rng = random.Random(5)
        n = 4
        x = rational_matrix(rng, n).as_numpy()
        q = haar_orthogonal(n, sample_rng(99, 0))

        def stat(o):
            return np.trace(o @ x @ o.T @ x) / n

        vals_o, vals_qo = [], []
        for i in range(20000):
            o = haar_orthogonal(n, sample_rng(23, i))
            vals_o.append(stat(o))
            vals_qo.append(stat(q @ o))
        m1, m2 = np.mean(vals_o), np.mean(vals_qo)
        se = np.sqrt(np.var(vals_o) / len(vals_o) + np.var(vals_qo) / len(vals_qo))
        assert abs(m1 - m2) <= 5 * se


@pytest.fixture
def no_sampling(monkeypatch):
    """Any Haar draw fails the test: checks must run before sampling."""
    import haargenus.matrixlab as ml

    def sampled(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(ml, "_haar_chunk", sampled)
    monkeypatch.setattr(ml, "haar_orthogonal", sampled)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replaces the thread pool with a stand-in that records each pool's size and
    runs the chunks in the calling thread; starts no threads."""
    import haargenus.matrixlab as ml

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(ml, "ThreadPoolExecutor", RecordingPool)
    return sizes


class TestMonteCarlo:
    def test_moment_concordance(self):
        rng = random.Random(6)
        n = 6
        x = {1: rational_matrix(rng, n), 2: rational_matrix(rng, n)}
        expr = TraceExpression.single_trace([(1, 1, 1), (1, -1, 2)])
        exact = float(evaluate_moment(expr, x, n).value)
        est = mc_moment(expr, x, n, samples=20000, seed=31)
        assert est.within(exact, 5)

    def test_deterministic_across_workers(self):
        rng = random.Random(7)
        n = 4
        x = {1: rational_matrix(rng, n)}
        expr = TraceExpression.single_trace([(1, 1, 1), (1, 1, -1)])
        a = mc_moment(expr, x, n, samples=3000, seed=8, workers=1)
        b = mc_moment(expr, x, n, samples=3000, seed=8, workers=4)
        assert a == b

    @pytest.mark.slow
    def test_se_scaling(self):
        rng = random.Random(8)
        n = 5
        x = {1: rational_matrix(rng, n), 2: rational_matrix(rng, n)}
        expr = TraceExpression.single_trace([(1, 1, 1), (1, 1, 2)])
        small = mc_moment(expr, x, n, samples=8000, seed=9)
        large = mc_moment(expr, x, n, samples=32000, seed=9)
        ratio = large.std_error / small.std_error
        assert 0.5 * 0.8 <= ratio <= 0.5 * 1.2

    def test_cumulant_order_validation(self):
        with pytest.raises(ValidationError):
            mc_cumulant([], {}, 4, 100, 0, order=4)

    def test_cumulant_deterministic_across_workers(self):
        rng = random.Random(11)
        n = 3
        x = {1: rational_matrix(rng, n), 2: rational_matrix(rng, n)}
        ys = [TraceExpression.single_trace([(1, 1, 1), (1, -1, 2)]),
              TraceExpression.single_trace([(1, 1, 2), (1, 1, 1)])]
        a = mc_cumulant(ys, x, n, samples=1100, seed=5, order=2, workers=1)
        b = mc_cumulant(ys, x, n, samples=1100, seed=5, order=2, workers=2)
        assert a.to_json() == b.to_json()

    def test_sample_count_validated_before_sampling(self, no_sampling):
        x = {1: DenseMatrix.identity(2)}
        expr = TraceExpression.single_trace([(1, 1, 1), (1, -1, 1)])
        with pytest.raises(ValidationError):
            mc_moment(expr, x, 2, samples=0, seed=1)
        with pytest.raises(ValidationError):
            mc_entry_moment(2, {(1, 1): 2}, samples=0, seed=1)
        # one sample has no standard error
        with pytest.raises(ValidationError, match="two samples"):
            mc_moment(expr, x, 2, samples=1, seed=1)
        with pytest.raises(ValidationError, match="two samples"):
            mc_entry_moment(2, {(1, 1): 2}, samples=1, seed=1)
        for samples, order in [(0, 2), (2, 2), (3, 2), (5, 3)]:
            with pytest.raises(ValidationError):
                mc_cumulant([expr] * order, x, 2, samples=samples, seed=1, order=order)
        # counts are integers, and a jackknife needs two batches
        with pytest.raises(ValidationError, match="two samples .*got 40.0$"):
            mc_moment(expr, x, 2, samples=40.0, seed=1)
        with pytest.raises(ValidationError, match="two samples .*got 40.0$"):
            mc_entry_moment(2, {(1, 1): 2}, samples=40.0, seed=1)
        with pytest.raises(ValidationError, match="two samples .*got 40.0$"):
            mc_cumulant([expr] * 2, x, 2, samples=40.0, seed=1, order=2)
        for batches in (2.5, 1, 0, -3):
            with pytest.raises(ValidationError, match=f"two batches .*got {batches!r}$"):
                mc_cumulant([expr] * 2, x, 2, samples=40, seed=1, order=2, batches=batches)

    def test_worker_count_validated_before_sampling(self, no_sampling):
        x = {1: DenseMatrix.identity(2)}
        expr = TraceExpression.single_trace([(1, 1, 1), (1, -1, 1)])
        # workers is an integer of at least one: no float, string or bool
        for workers in (0, -3, 2.5, "2", True, np.float64(2)):
            with pytest.raises(ValidationError, match="worker"):
                mc_moment(expr, x, 2, samples=100, seed=1, workers=workers)
            with pytest.raises(ValidationError):
                mc_entry_moment(2, {(1, 1): 2}, samples=100, seed=1, workers=workers)
            with pytest.raises(ValidationError):
                mc_cumulant([expr] * 2, x, 2, samples=100, seed=1, order=2, workers=workers)

    def test_seed_range_validated_before_sampling(self, no_sampling):
        # a seed is one unsigned 64-bit word of the Philox key, and an integer:
        # True ran as seed 1 and 1.5 was reported as given
        x = {1: DenseMatrix.identity(2)}
        expr = TraceExpression.single_trace([(1, 1, 1), (1, -1, 1)])
        for seed in (-1, 2 ** 64, True, False, 1.5, 1.0, "1", None, np.float64(1),
                     np.int64(-1)):
            want = "^" + re.escape(f"seed must be an integer in 0..2**64 - 1, got {seed!r}") + "$"
            with pytest.raises(ValidationError, match=want):
                mc_moment(expr, x, 2, samples=100, seed=seed)
            with pytest.raises(ValidationError, match=want):
                mc_entry_moment(2, {(1, 1): 2}, samples=100, seed=seed)
            with pytest.raises(ValidationError, match=want):
                mc_cumulant([expr] * 2, x, 2, samples=100, seed=seed, order=2)
            with pytest.raises(ValidationError, match=want):
                sample_rng(seed, 0)
        sample_rng(2 ** 64 - 1, 0)

    def test_numpy_integer_seed_stored_as_int(self):
        x = {1: DenseMatrix.identity(2)}
        expr = TraceExpression.single_trace([(1, 1, 1), (1, -1, 1)])
        for seed in (np.uint64(7), np.int32(7)):
            for run in (lambda s: mc_moment(expr, x, 2, samples=64, seed=s),
                        lambda s: mc_entry_moment(2, {(1, 1): 2}, samples=64, seed=s),
                        lambda s: mc_cumulant([expr] * 2, x, 2, samples=64, seed=s, order=2)):
                got = run(seed)
                assert type(got.seed) is int and got.to_json() == run(7).to_json()
        report = mc_suite(expr, x, 2, 64, np.int64(7))
        assert type(report["seed"]) is int and report == mc_suite(expr, x, 2, 64, 7)

    def test_entry_moment_inputs_validated_before_sampling(self, no_sampling):
        for powers in ({(0, 1): 2},        # row 0 would wrap to row N
                       {(4, 1): 2},        # out of range at N = 3
                       {(1, 1): -2},
                       {(1, 1): 1.5},
                       {(1, 1): True},
                       {(True, 1): 2},
                       {(1.0, 1): 2},
                       {1: 2}):
            with pytest.raises(ValidationError):
                mc_entry_moment(3, powers, samples=64, seed=1)

    def test_numpy_integers_accepted(self):
        # any numbers.Integral but bool: numpy integers give the int results
        x = {1: DenseMatrix.identity(2)}
        expr = TraceExpression.single_trace([(1, 1, 1), (1, -1, 1)])
        assert mc_entry_moment(3, {(np.int64(3), 1): np.int64(4)}, samples=np.int32(64),
                               seed=1, workers=np.int64(2)) == \
            mc_entry_moment(3, {(3, 1): 4}, samples=64, seed=1)
        assert mc_moment(expr, x, 2, samples=np.int64(40), seed=1, workers=np.int8(1)) == \
            mc_moment(expr, x, 2, samples=40, seed=1)
        assert mc_cumulant([expr] * 2, x, 2, samples=np.int64(40), seed=1, order=2,
                           batches=np.int64(4), workers=np.int64(2)) == \
            mc_cumulant([expr] * 2, x, 2, samples=40, seed=1, order=2, batches=4)

    def test_counts_reject_bools(self, no_sampling):
        x = {1: DenseMatrix.identity(2)}
        expr = TraceExpression.single_trace([(1, 1, 1), (1, -1, 1)])
        with pytest.raises(ValidationError, match="two samples .*got True$"):
            mc_moment(expr, x, 2, samples=True, seed=1)
        with pytest.raises(ValidationError, match="two batches .*got True$"):
            mc_cumulant([expr] * 2, x, 2, samples=40, seed=1, order=2, batches=True)

    def test_thread_pool_is_capped(self, monkeypatch, pool_sizes):
        import os
        import haargenus.matrixlab as ml

        sizes = pool_sizes
        monkeypatch.setattr(ml, "MC_CHUNK", 8)
        monkeypatch.setattr(ml, "MC_THREAD_MIN_N", 1)
        x = {1: DenseMatrix.identity(2)}
        expr = TraceExpression.single_trace([(1, 1, 1), (1, -1, 1)])
        reference = mc_moment(expr, x, 2, samples=40, seed=1)  # 5 chunks
        for cpus, samples, workers, expected in [(4, 40, 100_000, [4]), (4, 40, 3, [3]),
                                                 (4, 16, 100_000, [2]), (64, 40, 10**9, [5]),
                                                 (None, 40, 100_000, []), (4, 40, 1, [])]:
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            sizes.clear()
            est = mc_moment(expr, x, 2, samples=samples, seed=1, workers=workers)
            assert sizes == expected
            if samples == 40:
                assert est == reference

    def test_small_matrices_run_on_the_calling_thread(self, monkeypatch, pool_sizes):
        # below MC_THREAD_MIN_N no estimator builds a pool, whatever `workers`
        import os
        import haargenus.matrixlab as ml

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(ml, "MC_CHUNK", 8)
        for n, expected in [(ml.MC_THREAD_MIN_N - 1, []), (ml.MC_THREAD_MIN_N, [4])]:
            x = {1: DenseMatrix(arr=np.eye(n))}
            expr = TraceExpression.single_trace([(1, 1, 1), (1, -1, 1)])
            for estimate in (lambda: mc_moment(expr, x, n, samples=40, seed=1, workers=4),
                             lambda: mc_cumulant([expr] * 2, x, n, samples=40, seed=1,
                                                 order=2, workers=4),
                             lambda: mc_entry_moment(n, {(1, 1): 2}, samples=40, seed=1,
                                                     workers=4)):
                pool_sizes.clear()
                estimate()
                assert pool_sizes == expected, n

    def test_threaded_reports_match_at_the_threshold(self):
        # at MC_THREAD_MIN_N chunks run on real threads; 130 samples make 3 chunks
        import haargenus.matrixlab as ml

        n = ml.MC_THREAD_MIN_N
        rng = np.random.default_rng(50)
        x = {i: DenseMatrix(arr=rng.standard_normal((n, n))) for i in (1, 2, 3)}
        ys = [TraceExpression.single_trace([(1, 1, 1), (1, -1, 2)]),
              TraceExpression.single_trace([(1, 1, -2), (2, -1, 0), (2, 1, 3)]),
              TraceExpression.single_trace([(2, -1, 1), (1, 1, 3)])]

        def reports(workers):
            return [json.dumps(r.to_json()) for r in (
                mc_moment(ys[1], x, n, samples=130, seed=51, workers=workers),
                mc_cumulant(ys, x, n, samples=130, seed=52, order=3, batches=7,
                            workers=workers),
                mc_entry_moment(n, {(1, 2): 3, (n, n): 2}, samples=130, seed=53,
                                workers=workers))]

        expected = reports(1)
        for workers in (2, 3):
            assert reports(workers) == expected, workers

    def test_smallest_jackknife_sample_counts(self):
        x = {1: DenseMatrix.identity(2)}
        expr = TraceExpression.single_trace([(1, 1, 1), (1, -1, 1)])
        for samples, order in [(4, 2), (6, 3)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                est = mc_cumulant([expr] * order, x, 2, samples=samples, seed=1, order=order)
            assert np.isfinite(est.std_error)

    @pytest.mark.slow
    def test_cumulant_concordance(self):
        from haargenus.expansion import trace_cumulant
        rng = random.Random(10)
        n = 6
        x = {1: rational_matrix(rng, n), 2: rational_matrix(rng, n)}
        y1 = TraceExpression.single_trace([(1, 1, 1), (1, -1, 2)])
        y2 = TraceExpression.single_trace([(1, 1, 2), (1, 1, 1)])
        exact = float(trace_cumulant([y1, y2], matrices=x, n=n))
        est = mc_cumulant([y1, y2], x, n, samples=40000, seed=12, order=2)
        assert est.within(exact, 5)

    @pytest.mark.slow
    def test_conjugated_word_covariance(self):
        # k2 of two conjugated-word traces (p = q = 2, two colours) against
        # the exact trace cumulant at the same dimension
        from haargenus.expansion import center_slots, trace_cumulant
        rng = random.Random(14)
        n = 12
        x = center_slots({i: rational_matrix(rng, n) for i in range(1, 5)})
        y1 = TraceExpression.conjugated_word([1, 2], [1, 2])
        y2 = TraceExpression.conjugated_word([1, 2], [3, 4])
        exact = float(trace_cumulant([y1, y2], matrices=x, n=n))
        est = mc_cumulant([y1, y2], x, n, samples=40000, seed=15, order=2)
        assert est.within(exact, 5.0)

    @pytest.mark.slow
    def test_unequal_lengths_covariance_near_zero(self):
        # centred words of different lengths: the exact covariance is zero
        # here and the estimator must agree within noise
        from haargenus.expansion import center_slots, trace_cumulant
        rng = random.Random(16)
        n = 6
        x = center_slots({i: rational_matrix(rng, n) for i in range(1, 6)})
        y1 = TraceExpression.conjugated_word([1, 2], [1, 2])
        y2 = TraceExpression.conjugated_word([1, 2, 3], [3, 4, 5])
        exact = float(trace_cumulant([y1, y2], matrices=x, n=n))
        assert exact == 0.0
        est = mc_cumulant([y1, y2], x, n, samples=30000, seed=17, order=2)
        assert est.within(exact, 5.0)

    @pytest.mark.slow
    def test_third_cumulant_concordance(self):
        from haargenus.expansion import trace_cumulant
        rng = random.Random(18)
        n = 6
        x = {i: rational_matrix(rng, n) for i in range(1, 4)}
        ys = [TraceExpression.single_trace([(1, 1, i), (1, -1, i)]) for i in (1, 2, 3)]
        exact = float(trace_cumulant(ys, matrices=x, n=n))
        est = mc_cumulant(ys, x, n, samples=40000, seed=19, order=3)
        assert est.within(exact, 5.0)


def _golden_reports():
    rng = random.Random(2026)
    n = 5
    x = {i: rational_matrix(rng, n) for i in (1, 2, 3)}
    two_colour = TraceExpression([(1, 2, 3), (4,)], {1: 1, 2: -1, 3: -1, 4: 1},
                                 {1: 1, 2: 2, 3: 1, 4: 2}, {1: 1, 2: 0, 3: -2, 4: 3})
    word = TraceExpression.conjugated_word([1, 2], [1, -3])
    ys = [TraceExpression.single_trace([(1, 1, 1), (1, -1, 2)]),
          TraceExpression.single_trace([(1, 1, -2), (2, -1, 0), (2, 1, 3)]),
          TraceExpression.single_trace([(2, -1, 1), (1, 1, 3)])]
    return [
        mc_moment(two_colour, x, n, samples=300, seed=3),
        mc_moment(word, x, n, samples=130, seed=4, workers=2),
        mc_cumulant(ys[:2], x, n, samples=300, seed=5, order=2),
        mc_cumulant(ys, x, n, samples=257, seed=6, order=3, batches=7, workers=2),
        mc_entry_moment(4, {(1, 1): 1, (2, 3): 2, (4, 4): 3}, samples=300, seed=7),
        mc_entry_moment(6, {(2, 2): 4, (1, 6): 5}, samples=200, seed=8),
        mc_entry_moment(3, {(3, 1): 6}, samples=65, seed=9, workers=2),
    ]


# reports of _golden_reports(), recorded from the chunk kernel's per-sample
# values (which equal the per-sample sampler's, one generator and one QR per
# sample) summed by math.fsum; a change in the streams, the QR, the statistic
# or the estimators' arithmetic shows here
GOLDEN_REPORTS = [
    '{"mean": -0.03504831768100131, "std_error": 0.04150463408018027, "samples": 300, '
    '"seed": 3, "generator": "philox4x64"}',
    '{"mean": 0.33167118424688974, "std_error": 0.10358192095836102, "samples": 130, '
    '"seed": 4, "generator": "philox4x64"}',
    '{"mean": 1.1207730783514758, "std_error": 3.35124196435662, "samples": 300, '
    '"seed": 5, "generator": "philox4x64"}',
    '{"mean": -21.095098687213437, "std_error": 15.154558137554869, "samples": 257, '
    '"seed": 6, "generator": "philox4x64"}',
    '{"mean": -0.0008208846306460885, "std_error": 0.005797095055251769, "samples": 300, '
    '"seed": 7, "generator": "philox4x64"}',
    '{"mean": 0.0009386162062044522, "std_error": 0.0006860521289212626, "samples": 200, '
    '"seed": 8, "generator": "philox4x64"}',
    '{"mean": 0.13987131917302192, "std_error": 0.030802037836308478, "samples": 65, '
    '"seed": 9, "generator": "philox4x64"}',
]


class TestChunkKernel:
    def test_matches_per_sample_haar(self):
        import haargenus.matrixlab as ml
        for n in (1, 2, 6, 16):
            for count in (1, 2, 3):
                start, stop = 5 + n, 9 + n
                stack = ml._haar_chunk(n, count, 17, start, stop)
                assert stack.shape == (stop - start, count, n, n)
                for j, i in enumerate(range(start, stop)):
                    rng = sample_rng(17, i)
                    for c in range(count):
                        assert np.array_equal(stack[j, c], haar_orthogonal(n, rng))

    def test_per_sample_values_match_reference_loop(self, monkeypatch):
        # the per-sample loop the chunk kernel replaced, on 2-D matrices
        import haargenus.matrixlab as ml
        chunks = []

        def recording(*args):
            out = chunk_values(*args)
            chunks.extend(out)
            return out

        chunk_values = ml._chunk_values
        monkeypatch.setattr(ml, "_chunk_values", recording)

        def reference_statistic(expr, mats, n, o_by_color):
            value = 1.0
            for cyc in expr.cycles:
                prod = None
                for k in cyc:
                    o = o_by_color[expr.color[k]]
                    f = o if expr.eps[k] == 1 else o.T
                    fm = f @ mats[k]
                    prod = fm if prod is None else prod @ fm
                value *= prod.trace() / n
            return value

        rng = random.Random(40)
        n = 16
        x = {i: rational_matrix(rng, n) for i in (1, 2)}
        expr = TraceExpression([(1, 2, 3), (4,)], {1: 1, 2: -1, 3: 1, 4: -1},
                               {1: 2, 2: 1, 3: 2, 4: 1}, {1: 1, 2: -2, 3: 0, 4: 2})
        mats = {k: np.eye(n) if expr.slot[k] == 0 else
                (x[abs(expr.slot[k])].as_numpy().T if expr.slot[k] < 0
                 else x[expr.slot[k]].as_numpy()) for k in expr.positions}
        mc_moment(expr, x, n, samples=70, seed=41)
        got = [v for chunk in chunks for v in chunk]
        want = []
        for i in range(70):
            sample = sample_rng(41, i)
            o_by_color = {c: haar_orthogonal(n, sample) for c in (1, 2)}
            want.append(reference_statistic(expr, mats, n, o_by_color))
        assert got == want

        chunks.clear()
        powers = {(1, 1): 3, (2, 3): 4, (10, 7): 5, (4, 4): 6}
        mc_entry_moment(10, powers, samples=70, seed=42)
        got = [v for chunk in chunks for v in chunk]
        want = []
        for i in range(70):
            o = haar_orthogonal(10, sample_rng(42, i))
            v = 1.0
            for (r, c), p in powers.items():
                v *= o[r - 1, c - 1] ** p
            want.append(v)
        assert got == want

    def test_golden_reports(self):
        assert [json.dumps(est.to_json()) for est in _golden_reports()] == GOLDEN_REPORTS

    def test_reports_independent_of_chunk_size_and_workers(self, monkeypatch):
        import haargenus.matrixlab as ml
        rng = random.Random(30)
        n = 4
        x = {i: rational_matrix(rng, n) for i in (1, 2)}
        ys = [TraceExpression.single_trace([(1, 1, 1), (2, -1, -2)]),
              TraceExpression.single_trace([(2, 1, 2), (1, -1, 0)])]

        def reports(workers):
            return [json.dumps(r.to_json()) for r in (
                mc_moment(ys[0], x, n, samples=150, seed=31, workers=workers),
                mc_cumulant(ys, x, n, samples=150, seed=32, order=2, workers=workers),
                mc_entry_moment(n, {(1, 2): 3, (4, 4): 2}, samples=150, seed=33,
                                workers=workers))]

        expected = reports(1)
        for chunk in (1, 7, 64, 512):
            monkeypatch.setattr(ml, "MC_CHUNK", chunk)
            for workers in (1, 2, 3):
                assert reports(workers) == expected, (chunk, workers)

    @staticmethod
    def _summation_case():
        rng = random.Random(60)
        n = 5
        x = {i: rational_matrix(rng, n) for i in (1, 2, 3)}
        ys = [TraceExpression.single_trace([(1, 1, 1), (1, -1, 2)]),
              TraceExpression.single_trace([(1, 1, -2), (2, -1, 0), (2, 1, 3)]),
              TraceExpression.single_trace([(2, -1, 1), (1, 1, 3)])]
        return n, x, ys

    def test_totals_are_exactly_rounded(self, monkeypatch):
        # every total is the float nearest the rational sum of the per-sample
        # values, or of their float products, that _chunk_values returned
        import haargenus.matrixlab as ml
        chunks = []

        def recording(*args):
            out = chunk_values(*args)
            chunks.extend(out)
            return out

        chunk_values = ml._chunk_values
        monkeypatch.setattr(ml, "_chunk_values", recording)

        def total(values):
            return float(sum(map(Fraction, values.tolist())))

        n, x, ys = self._summation_case()
        samples = 300
        for estimate in (lambda: mc_moment(ys[1], x, n, samples=samples, seed=61),
                         lambda: mc_entry_moment(n, {(1, 2): 3, (4, 4): 2}, samples=samples,
                                                 seed=62)):
            chunks.clear()
            est = estimate()
            values = np.concatenate(chunks)
            assert len(values) == samples
            mean = total(values) / samples
            var = max(total(values * values) / samples - mean * mean, 0.0) * \
                samples / (samples - 1)
            assert (est.mean, est.std_error) == (mean, math.sqrt(var / samples))
        for order in (2, 3):
            chunks.clear()
            est = mc_cumulant(ys[:order], x, n, samples=samples, seed=63, order=order)
            v = np.concatenate(chunks)
            assert v.shape == (samples, order)
            cols = {"x": v[:, 0], "y": v[:, 1], "xy": v[:, 0] * v[:, 1]}
            if order == 3:
                cols.update(z=v[:, 2], xz=v[:, 0] * v[:, 2], yz=v[:, 1] * v[:, 2],
                            xyz=v[:, 0] * v[:, 1] * v[:, 2])
            sums = {key: total(col) for key, col in cols.items()}
            assert est.mean == ml._k_statistic(dict(sums, count=samples), order)

    def test_reports_independent_of_sample_order(self, monkeypatch):
        # the same per-sample values in another order give the same moment
        # reports and the same cumulant mean; the jackknife's batches, and so
        # the cumulant's standard error, follow the order
        import haargenus.matrixlab as ml
        chunk_values = ml._chunk_values
        n, x, ys = self._summation_case()

        def reports():
            return [mc_moment(ys[1], x, n, samples=300, seed=61),
                    mc_entry_moment(n, {(1, 2): 3, (4, 4): 2}, samples=300, seed=62),
                    mc_cumulant(ys, x, n, samples=300, seed=63, order=3)]

        expected = reports()
        # summed in sample order, each of the three changes under one of these
        for order_seed in range(4):
            def permuted(*args):
                values = np.concatenate(chunk_values(*args))
                return [values[np.random.default_rng(order_seed).permutation(len(values))]]

            monkeypatch.setattr(ml, "_chunk_values", permuted)
            got = reports()
            assert got[:2] == expected[:2], order_seed
            assert got[2].mean == expected[2].mean, order_seed

    @pytest.mark.slow
    def test_scipy_ortho_group_oracle(self):
        # a second Haar sampler: E[tr(O X O^T Y)/N] and E[O_11^4] must agree
        stats = pytest.importorskip("scipy.stats")
        n, samples = 4, 20000
        rng = random.Random(34)
        x = {1: rational_matrix(rng, n), 2: rational_matrix(rng, n)}
        expr = TraceExpression.single_trace([(1, 1, 1), (1, -1, 2)])
        ours = [mc_moment(expr, x, n, samples, seed=35),
                mc_entry_moment(n, {(1, 1): 4}, samples, seed=36)]
        o = stats.ortho_group.rvs(dim=n, size=samples, random_state=37)
        xa, ya = x[1].as_numpy(), x[2].as_numpy()
        theirs = [np.trace(o @ xa @ np.swapaxes(o, 1, 2) @ ya, axis1=1, axis2=2) / n,
                  o[:, 0, 0] ** 4]
        for est, vals in zip(ours, theirs):
            se = math.sqrt(est.std_error ** 2 + vals.var(ddof=1) / samples)
            assert abs(est.mean - vals.mean()) <= 5 * se


class TestBruteForce:
    def test_closed_forms(self):
        rng = random.Random(11)
        tables = TableSet()
        for n in (2, 3):
            x = {1: rational_matrix(rng, n), 2: rational_matrix(rng, n)}
            conj = TraceExpression.single_trace([(1, 1, 1), (1, -1, 2)])
            plain = TraceExpression.single_trace([(1, 1, 1), (1, 1, 2)])
            assert brute_force_moment(conj, x, n, tables) == \
                x[1].normalized_trace() * x[2].normalized_trace()
            assert brute_force_moment(plain, x, n, tables) == \
                Fraction(1, n) * (x[1] @ x[2].transpose()).normalized_trace()

    def test_matches_expansion_n4(self):
        rng = random.Random(12)
        tables = TableSet()
        n = 3
        x = {1: rational_matrix(rng, n), 2: rational_matrix(rng, n)}
        expr = TraceExpression.single_trace(
            [(1, 1, 1), (1, -1, 2), (1, 1, -1), (1, -1, 2)])
        assert brute_force_moment(expr, x, n, tables) == \
            evaluate_moment(expr, x, n, tables=tables).value

    def test_odd_count_is_zero(self):
        rng = random.Random(13)
        tables = TableSet()
        x = {1: rational_matrix(rng, 2)}
        expr = TraceExpression.single_trace([(1, 1, 1), (1, 1, 1), (1, -1, 1)])
        assert brute_force_moment(expr, x, 2, tables) == 0

    def test_caps(self):
        x = {1: DenseMatrix([[1]])}
        expr = TraceExpression.single_trace([(1, 1, 1)] * 10)
        with pytest.raises(ValidationError):
            brute_force_moment(expr, x, 1, max_positions=8)
