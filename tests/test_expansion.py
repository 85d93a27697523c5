import functools
import gc
import itertools
import math
import os
import random
import re
import sys
import tracemalloc
import weakref
from unittest import mock
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from haargenus.errors import CapExceededError, PoleError, ValidationError
from haargenus.expansion import (TERM_CAP, TraceExpression, _Gluings, _block_shapes,
                                 _connecting_rhos, _pairing_table, asymptotic_moment,
                                 center_slots, concatenate, evaluate_moment, expand_moment,
                                 moment_symbolic, predicted_second_order_cov,
                                 to_unnormalized, trace_cumulant)
from haargenus.matrixlab import DenseMatrix, brute_force_moment, trace_along
from haargenus.permap import (K_inverse, Premap, delta_eps_conjugate, euler_characteristic,
                              pairings_to_premap, particular_cycles)
from haargenus.ratpoly import PolyFrac, format_polyfrac
from haargenus.setpart import (SetPartition, enumerate_interval, enumerate_pairings,
                               enumerate_partitions, join_of_pairings_diagram, mobius,
                               young_diagrams)
from haargenus.weingarten import TableSet, wg_cumulant
from oracles import (check_conjugated_color_consistency, dense_trace_along, kernel_of,
                     fraction_moment, fraction_moment_symbolic, join_trace_cumulant,
                     label_cycles, premap_gluings)

TABLES = TableSet()


def rational_matrix(rng, n, span=3):
    return DenseMatrix([[Fraction(rng.randint(-span, span), rng.randint(1, 3))
                         for _ in range(n)] for _ in range(n)])


def _trace_value(cycle, mats, n):
    if not cycle:
        return Fraction(1)
    return trace_along([cycle], mats, normalized=True)


class TestTraceExpression:
    def test_validation(self):
        with pytest.raises(ValidationError):
            TraceExpression([(1, 1)], {1: 1}, {1: 1}, {1: 1})
        with pytest.raises(ValidationError):
            TraceExpression([(1,)], {1: 2}, {1: 1}, {1: 1})

    @pytest.mark.parametrize("field, value", [("eps", True), ("eps", 1.0), ("color", 1.9),
                                              ("color", "1"), ("slot", 1.5), ("slot", False),
                                              ("slot", Fraction(2))])
    def test_fields_must_be_integers(self, field, value):
        # no truncation: slot 1.5 would evaluate slot 1, eps True would count as +1
        fields = {"eps": {1: 1, 2: -1}, "color": {1: 1, 2: 1}, "slot": {1: 1, 2: 2}}
        fields[field][2] = value
        with pytest.raises(ValidationError, match=f"position 2: {field} must be an integer"):
            TraceExpression([(1, 2)], **fields)

    def test_numpy_integer_fields_accepted(self):
        import numpy as np

        e = TraceExpression([(1, 2)], {1: np.int64(1), 2: np.int8(-1)}, {1: np.int32(3), 2: 3},
                            {1: np.int64(-2), 2: 0})
        assert e.to_json() == TraceExpression([(1, 2)], {1: 1, 2: -1}, {1: 3, 2: 3},
                                              {1: -2, 2: 0}).to_json()
        assert all(type(v) is int for d in (e.eps, e.color, e.slot) for v in d.values())

    def test_json_round_trip(self):
        e = TraceExpression.single_trace([(1, 1, 1), (2, -1, -2), (1, 1, 0)])
        assert TraceExpression.from_json(e.to_json()).to_json() == e.to_json()

    def test_conjugated_word_shape(self):
        e = TraceExpression.conjugated_word([1, 2], [5, 7])
        assert e.cycles == ((1, 2, 3, 4),)
        assert e.eps == {1: -1, 2: 1, 3: -1, 4: 1}
        assert e.color == {1: 1, 2: 1, 3: 2, 4: 2}
        assert e.slot == {1: 5, 2: 0, 3: 7, 4: 0}

    def test_concatenate(self):
        a = TraceExpression.single_trace([(1, 1, 1)])
        b = TraceExpression.single_trace([(2, -1, 3), (1, 1, 2)])
        c = concatenate([a, b])
        assert c.cycles == ((1,), (2, 3))
        assert c.color == {1: 1, 2: 2, 3: 1}

    def test_vertex_labels_drop_identity(self):
        # the oracle that the kernel's label cycles are checked against
        e = TraceExpression.conjugated_word([1], [4])
        assert label_cycles(e, [(1, -2)]) == ((4,),)
        assert label_cycles(e, [(2, -2)]) == ((),)
        assert label_cycles(e, [(-1,)]) == ((-4,),)


class TestExpandMoment:
    def test_conjugated_pair(self):
        e = TraceExpression.single_trace([(1, 1, 1), (1, -1, 2)])
        terms = list(expand_moment(e, TABLES))
        assert len(terms) == 1
        t = terms[0]
        assert t.exponent == 0 and t.chi == 2
        assert t.wg_factor == PolyFrac(1)
        assert t.vertex_labels == ((1,), (2,))

    def test_straight_pair(self):
        e = TraceExpression.single_trace([(1, 1, 1), (1, 1, 2)])
        terms = list(expand_moment(e, TABLES))
        assert len(terms) == 1
        t = terms[0]
        assert t.exponent == -1 and t.chi == 1
        assert t.vertex_labels == ((1, -2),)

    def test_odd_color_count_empty(self):
        e = TraceExpression.single_trace([(1, 1, 1), (1, 1, 2), (2, 1, 1)])
        assert list(expand_moment(e, TABLES)) == []
        x = {1: DenseMatrix([[1, 2], [3, 4]]), 2: DenseMatrix([["1/2", 0], [1, 1]])}
        for mode, zero in (("exact", Fraction(0)), ("float", 0.0)):
            result = evaluate_moment(e, x, 2, mode=mode, tables=TABLES)
            assert repr(result.value) == repr(zero) and result.term_count == 0
        assert moment_symbolic(e, lambda c: Fraction(1, 3), tables=TABLES) == PolyFrac(0)

    def test_term_count_multicolor(self):
        e = TraceExpression.single_trace(
            [(1, 1, 1), (1, -1, 1), (2, 1, 2), (2, -1, 2)])
        assert len(list(expand_moment(e, TABLES))) == 1  # one pairing pair per colour

    def test_term_cap(self):
        e = TraceExpression.single_trace([(1, 1, 1)] * 8)
        with pytest.raises(CapExceededError):
            list(expand_moment(e, TABLES, term_cap=100))

    def test_exponent_bookkeeping(self):
        # chi recomputed from the premap and the boundary matches the stored value
        e = TraceExpression(
            cycles=[(1, 2, 3), (4, 5, 6, 7, 8)],
            eps={1: 1, 2: 1, 3: -1, 4: 1, 5: -1, 6: -1, 7: 1, 8: 1},
            color={k: 1 for k in range(1, 9)},
            slot={k: k for k in range(1, 9)})
        phi = e.phi()
        count = 0
        for term in expand_moment(e, TABLES):
            conj = delta_eps_conjugate(term.alpha, e.eps)
            assert euler_characteristic(phi, conj) == term.chi
            assert term.exponent == term.chi - 2 * e.num_traces
            count += 1
        assert count == 105 ** 2

    def test_worked_two_trace_term(self):
        e = TraceExpression(
            cycles=[(1, 2, 3), (4, 5, 6, 7, 8)],
            eps={1: 1, 2: 1, 3: -1, 4: 1, 5: -1, 6: -1, 7: 1, 8: 1},
            color={k: 1 for k in range(1, 9)},
            slot={k: k for k in range(1, 9)})
        target = (SetPartition([[1, 2], [3, 5], [4, 8], [6, 7]]),
                  SetPartition([[1, 6], [2, 5], [3, 7], [4, 8]]))
        found = [t for t in expand_moment(e, TABLES) if t.pairings[0] == target]
        assert len(found) == 1
        term = found[0]
        assert term.chi == -1
        coeff = PolyFrac.n_power(term.exponent) * term.wg_factor
        assert format_polyfrac(coeff) == \
            "2*N/((N+1)*(N+2)*(N+6)*(N-1)*(N-2)*(N-3))"
        assert term.vertex_labels == ((1, -3, 5), (2, 7, -8, 4), (6,))


def random_expression(rng, max_positions=8):
    """1-3 traces over 1-3 colours, each colour on an even number of positions."""
    ncolors = rng.randint(1, 3)
    counts = [2] * ncolors
    target = rng.randrange(2 * ncolors, max_positions + 1, 2)
    while sum(counts) < target:
        counts[rng.randrange(ncolors)] += 2
    colors = [c for c, m in zip(rng.sample([1, 2, 5, 9], ncolors), counts) for _ in range(m)]
    rng.shuffle(colors)
    n = len(colors)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(2, n - 1))))
    cycles = [list(range(a + 1, b + 1)) for a, b in zip([0] + cuts, cuts + [n])]
    return TraceExpression(cycles,
                           {k: rng.choice((1, -1)) for k in range(1, n + 1)},
                           dict(enumerate(colors, 1)),
                           {k: rng.choice((0, 1, 2, -1, -3)) for k in range(1, n + 1)})


def relabel_positions(expr, mapping):
    """The same expression with position k renamed mapping[k]."""
    return TraceExpression([[mapping[k] for k in c] for c in expr.cycles],
                           {mapping[k]: v for k, v in expr.eps.items()},
                           {mapping[k]: v for k, v in expr.color.items()},
                           {mapping[k]: v for k, v in expr.slot.items()})


def scattered(expr, rng):
    """Relabel the positions of an expression onto random, gapped values."""
    targets = rng.sample(range(1, 4 * expr.n + 1), expr.n)
    return relabel_positions(expr, dict(zip(expr.positions, targets)))


@st.composite
def kernel_expressions(draw):
    """1-3 colours on at most 8 positions in all and at most 6 per colour (a
    colour on 8 has 11,025 gluings, seconds of premap oracle, so one fixed
    example has one), odd counts too; 1-3 traces, identity and repeated
    slots, on scattered positions."""
    counts = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)
                  .filter(lambda c: sum(c) <= 8))
    colours = draw(st.permutations([c for c, m in zip((1, 2, 5), counts) for _ in range(m)]))
    n = len(colours)
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=2))) if n > 1 else []
    eps = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    slots = draw(st.lists(st.sampled_from((0, 1, -1, 2, -2)), min_size=n, max_size=n))
    points = draw(st.permutations(sorted(draw(st.sets(st.integers(1, 3 * n), min_size=n,
                                                      max_size=n)))))
    return TraceExpression([points[a:b] for a, b in zip([0, *cuts], [*cuts, n])],
                           dict(zip(points, eps)), dict(zip(points, colours)),
                           dict(zip(points, slots)))


class TestGluingKernel:
    @settings(max_examples=40, deadline=None)
    @given(kernel_expressions())
    # one colour on 8 positions, all 11,025 gluings: the worked example's shape
    # on scattered positions, with identity and repeated slots
    @example(TraceExpression([(3, 9, 4), (12, 1, 7, 15, 6)],
                             dict(zip((3, 9, 4, 12, 1, 7, 15, 6), (1, 1, -1, 1, -1, -1, 1, 1))),
                             {k: 2 for k in (1, 3, 4, 6, 7, 9, 12, 15)},
                             dict(zip((3, 9, 4, 12, 1, 7, 15, 6), (1, 0, -1, 2, 1, -2, 0, 1)))))
    # two colours of two diagrams each: a gluing's index into `lambdas`
    # weighs colour 0's diagram by colour 1's count
    @example(TraceExpression([(1, 2, 3, 4), (5, 6, 7, 8)],
                             dict(zip(range(1, 9), (1, -1, -1, 1, 1, 1, -1, -1))),
                             dict(zip(range(1, 9), (1, 2, 1, 2, 2, 1, 1, 2))),
                             dict(zip(range(1, 9), (1, 2, -1, 0, 2, 1, 1, -2)))))
    def test_against_premap_oracle(self, expr):
        # every gluing, in order: the cycle table's cycles and labels, each
        # gluing's exponent and diagrams from `terms`, and each streamed term
        glu = _Gluings(expr, TABLES, TERM_CAP)
        expected = list(premap_gluings(expr))
        combos = list(itertools.product(*glu.choices))
        assert len(combos) == len(expected) == glu.total
        r = expr.num_traces
        for combo, (pairings, chi, lambdas, vertex, labels) in zip(combos, expected):
            ids = glu.term_for(combo)
            assert tuple(tuple(glu.codes[c] for c in glu.cycles[i]) for i in ids) == vertex
            assert tuple(glu.labels[i] for i in ids) == labels
            assert glu.pairings(combo) == pairings
        # one id per distinct cycle, in first-seen order
        assert list(glu.cycle_ids) == glu.cycles
        assert list(glu.cycle_ids.values()) == list(range(len(glu.cycles)))
        assert glu.bits == [sum({1 << expr.positions.index(abs(glu.codes[c])) for c in cyc})
                            for cyc in glu.cycles]
        other = _Gluings(expr, TABLES, TERM_CAP)
        slices = list(other.slices())
        assert [(combo, tuple(other.labels[i] for i in ids), exponent, other.lambdas[lam])
                for rows, _ in slices for combo, ids, exponent, lam in rows] == \
            [(combo, labels, chi - 2 * r, lambdas)
             for combo, (_, chi, lambdas, _, labels) in zip(combos, expected)]
        # each slice brings the label cycles of the ids it meets first
        assert [c for _, fresh in slices for c in fresh] == other.labels
        # `lambdas` lists each gluing's diagrams once, in first-seen order
        assert other.lambdas == tuple(dict.fromkeys(lambdas for _, _, lambdas, _, _ in expected))
        terms = list(expand_moment(expr, TABLES))
        assert [(t.pairings, t.chi, t.exponent, t.lambdas, t.vertex_cycles, t.vertex_labels)
                for t in terms] == [(p, chi, chi - 2 * r, lambdas, vertex, labels)
                                    for p, chi, lambdas, vertex, labels in expected]
        assert all(t.wg_factor == TABLES.wg_product(t.lambdas) for t in terms)

    def test_trace_value_called_in_first_seen_order(self, monkeypatch):
        # a caller's trace_value sees each label cycle once, in the order the
        # gluings, taken in turn, first meet it, in slices of any size; the
        # empty label cycle, tr(I) / N = 1, is not asked for
        from haargenus import expansion

        for block in (3, expansion.GLUING_BLOCK):
            monkeypatch.setattr(expansion, "GLUING_BLOCK", block)
            rng = random.Random(62)
            for _ in range(12):
                expr = random_expression(rng, max_positions=6)
                exprs = random_single_traces(rng)
                for value, cycles in ((lambda tv: moment_symbolic(expr, tv, TABLES), expr),
                                      (lambda tv: trace_cumulant(exprs, trace_value=tv,
                                                                 symbolic=True, tables=TABLES),
                                       concatenate(exprs))):
                    calls = []
                    value(lambda cycle: calls.append(cycle) or Fraction(len(cycle) + 1, 3))
                    assert calls == list(dict.fromkeys(
                        c for *_, labels in premap_gluings(cycles) for c in labels if c))

    def test_expand_moment_terms_on_scattered_positions(self):
        # each colour's shared table, built on 1..m, is relabelled onto that
        # colour's positions, which here interleave and leave gaps
        rng = random.Random(60)
        gapped = 0
        for _ in range(15):
            expr = scattered(random_expression(rng, max_positions=6), rng)
            by_color = expr.positions_by_color()
            gapped += any(pts[-1] - pts[0] >= len(pts) for pts in by_color.values())
            phi = expr.phi()
            terms = list(expand_moment(expr, TABLES))
            per_colour = [[(p, q) for p in enumerate_pairings(pts) for q in enumerate_pairings(pts)]
                          for pts in by_color.values()]
            assert [t.pairings for t in terms] == list(itertools.product(*per_colour))
            for t in terms:
                alpha = Premap({k: v for p, q in t.pairings
                                for k, v in pairings_to_premap(p, q)._map.items()})
                assert t.alpha == alpha
                conj = delta_eps_conjugate(alpha, expr.eps)
                assert t.chi == euler_characteristic(phi, conj)
                assert t.vertex_cycles == particular_cycles(K_inverse(phi, conj))
                assert t.vertex_labels == label_cycles(expr, t.vertex_cycles)
                assert t.lambdas == tuple(join_of_pairings_diagram(p, q) for p, q in t.pairings)
        assert gapped >= 10

    def test_pairing_table_one_entry_per_colour_size(self):
        # the shared tables are keyed by colour size: a key per point set
        # would keep one table per distinct set of positions
        _pairing_table.cache_clear()
        rng = random.Random(61)
        sizes, point_sets = set(), set()
        for _ in range(24):
            expr = scattered(random_expression(rng), rng)
            for pts in expr.positions_by_color().values():
                sizes.add(len(pts))
                point_sets.add(tuple(pts))
            asymptotic_moment(expr, TABLES)
        assert len(point_sets) > 2 * len(sizes)
        assert _pairing_table.cache_info().currsize == len(sizes)

    def test_pairing_table_memory(self):
        # a table lives as long as the process, so what it keeps per pair
        # (11,025 pairs at m = 8) counts; premap arcs stored per pair kept
        # 18.1 MB.  A fresh cache, as after `cache_clear()`, leaves the
        # module's own cache as it was.
        fresh = functools.lru_cache(maxsize=None)(_pairing_table.__wrapped__)
        gc.collect()
        tracemalloc.start()
        try:
            fresh(8)
            gc.collect()
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fresh.cache_info().currsize == 1
        assert kept < 9e6

    def test_grouping_counts_the_stream(self):
        rng = random.Random(7)
        for _ in range(10):
            expr = random_expression(rng, max_positions=6)
            stream = Counter((t.vertex_labels, t.exponent, t.lambdas)
                             for t in expand_moment(expr, TABLES))
            glu = _Gluings(expr, TABLES, TERM_CAP)
            terms = [row for rows, _ in glu.slices() for _, *row in rows]
            # the ids tell gluings apart, so the sums by id are per gluing
            assert len({ids for ids, _, _ in terms}) == len(terms) == glu.total
            grouped = Counter()
            for ids, exponent, lam in terms:
                grouped[tuple(map(glu.labels.__getitem__, ids)), exponent, glu.lambdas[lam]] += 1
            assert grouped == stream and list(grouped) == list(stream)

    def test_rho_choices_follow_the_interval(self):
        # trace cumulants build and evaluate the relative cumulants in the
        # order `_connecting_rhos` names them: that of `enumerate_interval`.
        # One trace is connected by every rho, so every key is named.
        rng = random.Random(11)
        for _ in range(15):
            expr = random_expression(rng)
            glu = _Gluings(expr, TABLES, TERM_CAP)
            ker = kernel_of(expr.color)
            for combo in rng.sample(list(itertools.product(*glu.choices)), min(5, glu.total)):
                pi = SetPartition([b for p_plus, p_minus in glu.pairings(combo)
                                   for b in (p_plus | p_minus).blocks])
                block_shape = []
                for c in glu.ker_order:
                    m = len(glu.points[c]) - 1
                    ids, shapes = _block_shapes((1,) * m)
                    pair = combo[c]
                    block_shape.append(shapes[ids[pair.plus * len(_pairing_table(m)[0])
                                                  + pair.minus]])
                # pi's blocks, colour by colour in ker order, by least point
                assert [size for shape in block_shape for size, _ in shape] == \
                    [len(b) for v in ker.blocks for b in pi.blocks if b <= v]
                assert _connecting_rhos(1, (1,), tuple(block_shape), ((0,),)) == \
                    tuple(tuple(sorted(tuple(sorted(len(b) for b in pi.blocks if b <= v))
                                       for v in rho.blocks))
                          for rho in enumerate_interval(pi, ker))

    def test_benchmark_tracer_counts_every_gluing(self):
        # the benchmark's tracer patches the kernel by name; a renamed method
        # fails here rather than in a traced benchmark run
        perfbench = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
        sys.path.insert(0, perfbench)
        try:
            import tracer
        finally:
            sys.path.remove(perfbench)
        rng = random.Random(3)
        expr = TraceExpression.single_trace([(1, 1, 1), (1, -1, 2), (1, 1, -1),
                                             (1, 1, 0), (1, -1, 2), (1, 1, 1)])
        mats = {1: rational_matrix(rng, 3), 2: rational_matrix(rng, 3)}
        t = tracer.Tracer()
        t.install()
        try:
            result = evaluate_moment(expr, mats, 3, tables=TABLES)
            listed = [(term.chi, term.vertex_labels) for term in expand_moment(expr, TABLES)]
        finally:
            t.uninstall()
        assert result.term_count == len(listed) == 15 ** 2
        assert t.counts["expansion.gluings"] == 2 * result.term_count
        assert t.metrics()["permap.premap.built"] == 0  # a term builds alpha only when read


class TestEvaluateMoment:
    def test_identity_matrices(self):
        for n in (3, 5):
            ident = DenseMatrix.identity(n)
            conj = TraceExpression.single_trace([(1, 1, 1), (1, -1, 2)])
            plain = TraceExpression.single_trace([(1, 1, 1), (1, 1, 2)])
            mats = {1: ident, 2: ident}
            assert evaluate_moment(conj, mats, n, tables=TABLES).value == 1
            assert evaluate_moment(plain, mats, n, tables=TABLES).value == Fraction(1, n)

    def test_closed_forms_random(self):
        rng = random.Random(20)
        conj = TraceExpression.single_trace([(1, 1, 1), (1, -1, 2)])
        plain = TraceExpression.single_trace([(1, 1, 1), (1, 1, 2)])
        for n in (2, 5, 10):
            x = {1: rational_matrix(rng, n), 2: rational_matrix(rng, n)}
            assert evaluate_moment(conj, x, n, tables=TABLES).value == \
                x[1].normalized_trace() * x[2].normalized_trace()
            assert evaluate_moment(plain, x, n, tables=TABLES).value == \
                Fraction(1, n) * (x[1] @ x[2].transpose()).normalized_trace()

    def test_exact_matches_brute_force(self):
        rng = random.Random(21)
        for n in (2, 3):
            x = {1: rational_matrix(rng, n), 2: rational_matrix(rng, n)}
            e = TraceExpression.single_trace(
                [(1, 1, 1), (1, -1, 2), (1, 1, 2), (1, -1, 1)])
            assert evaluate_moment(e, x, n, tables=TABLES).value == \
                brute_force_moment(e, x, n, TABLES)

    def test_float_mode(self):
        rng = random.Random(22)
        n = 4
        x = {1: rational_matrix(rng, n), 2: rational_matrix(rng, n)}
        e = TraceExpression.single_trace([(1, 1, 1), (1, -1, 2)])
        exact = evaluate_moment(e, x, n, tables=TABLES).value
        approx = evaluate_moment(e, x, n, mode="float", tables=TABLES).value
        assert abs(float(exact) - approx) < 1e-12

    def test_pole_detection(self):
        e = TraceExpression.single_trace([(1, 1, 1)] * 4)
        x = {1: DenseMatrix([[1]])}
        with pytest.raises(PoleError):
            evaluate_moment(e, x, 1, tables=TABLES)

    def test_dimension_check(self):
        e = TraceExpression.single_trace([(1, 1, 1), (1, -1, 1)])
        with pytest.raises(ValidationError):
            evaluate_moment(e, {1: DenseMatrix([[1]])}, 2, tables=TABLES)


class TestAsymptotics:
    def test_conjugated_pair_limit(self):
        e = TraceExpression.single_trace([(1, 1, 1), (1, -1, 2)])
        limit = asymptotic_moment(e, TABLES)
        assert limit.terms == ((Fraction(1), ((1,), (2,))),)

    def test_straight_pair_vanishes(self):
        e = TraceExpression.single_trace([(1, 1, 1), (1, 1, 2)])
        assert asymptotic_moment(e, TABLES).terms == ()

    def test_centred_alternating_length_two_vanishes(self):
        rng = random.Random(23)
        e = TraceExpression.conjugated_word([1, 2], [1, 2])
        limit = asymptotic_moment(e, TABLES)
        n = 4
        mats = center_slots({1: rational_matrix(rng, n), 2: rational_matrix(rng, n)})
        assert limit.evaluate(mats, n) == 0

    def test_evaluation_matches_large_n_trend(self):
        rng = random.Random(24)
        block = {1: rational_matrix(rng, 2), 2: rational_matrix(rng, 2)}
        e = TraceExpression.single_trace([(1, 1, 1), (1, -1, 2)])

        def tv(cycle):
            if not cycle:
                return Fraction(1)
            return trace_along([cycle], block, normalized=True)

        sym = moment_symbolic(e, tv, tables=TABLES)
        assert sym.limit_at_infinity() == asymptotic_moment(e, TABLES).evaluate(block, 2)


class TestTraceCumulant:
    def _oracle(self, exprs, mats, n, r):
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

    def test_r1_reduces_to_moment(self):
        rng = random.Random(30)
        n = 4
        x = {1: rational_matrix(rng, n), 2: rational_matrix(rng, n)}
        y = TraceExpression.single_trace([(1, 1, 1), (1, -1, 2)])
        k1 = trace_cumulant([y], matrices=x, n=n, tables=TABLES)
        assert k1 == self._oracle([y], x, n, 1)

    def test_r2_matches_difference(self):
        rng = random.Random(31)
        n = 4
        x = {i: rational_matrix(rng, n) for i in range(1, 5)}
        y1 = TraceExpression.single_trace([(1, 1, 1), (1, -1, 2)])
        y2 = TraceExpression.single_trace([(1, 1, 3), (1, -1, 4)])
        assert trace_cumulant([y1, y2], matrices=x, n=n, tables=TABLES) == \
            self._oracle([y1, y2], x, n, 2)

    def test_r3_matches_mobius(self):
        rng = random.Random(32)
        n = 5
        x = {i: rational_matrix(rng, n) for i in range(1, 4)}
        ys = [TraceExpression.single_trace([(1, 1, i), (1, -1, i)]) for i in (1, 2, 3)]
        assert trace_cumulant(ys, matrices=x, n=n, tables=TABLES) == \
            self._oracle(ys, x, n, 3)

    def test_no_arguments_rejected(self):
        with pytest.raises(ValidationError):
            trace_cumulant([], matrices={1: DenseMatrix([[1]])}, n=1, tables=TABLES)

    def test_exact_mode_rejects_float_trace_values(self):
        y = TraceExpression.single_trace([(1, 1, 1), (1, -1, 2)])
        with pytest.raises(ValidationError, match="rational"):
            trace_cumulant([y, y], trace_value=lambda c: 0.5, n=3, tables=TABLES)
        assert isinstance(trace_cumulant([y, y], trace_value=lambda c: 0.5, n=3, mode="float",
                                         tables=TABLES), float)

    def test_multi_trace_rejected(self):
        e = TraceExpression([(1,), (2,)], {1: 1, 2: 1}, {1: 1, 2: 1}, {1: 1, 2: 1})
        with pytest.raises(ValidationError):
            trace_cumulant([e], matrices={1: DenseMatrix([[1]])}, n=1, tables=TABLES)

    def test_random_sign_ensemble_via_kappa(self):
        # slots carry s * X0 with one global Rademacher sign s: every vertex
        # trace is s^(cycle length) times a deterministic value, so its joint
        # cumulants are products of the deterministic traces with the
        # cumulants of s (0, 1, 0, -2, 0, 16, ...); the oracle averages the
        # deterministic joint moments over s = +1 and s = -1
        rng = random.Random(35)
        n = 3
        x0 = {i: rational_matrix(rng, n, span=2) for i in range(1, 5)}
        rademacher = {2: Fraction(1), 4: Fraction(-2), 6: Fraction(16)}

        def tv(cycle):
            if len(cycle) % 2:
                return Fraction(0)
            return _trace_value(cycle, x0, n)

        def kappa(cycles):
            if any(len(c) % 2 == 0 for c in cycles):
                return Fraction(0)
            value = rademacher.get(len(cycles), Fraction(0))
            for c in cycles:
                value *= _trace_value(c, x0, n)
            return value

        def signed_joint(exprs):
            total = Fraction(0)
            for sign in (1, -1):
                mats = {k: m.scale(sign) for k, m in x0.items()}
                combined = concatenate(exprs)
                value = evaluate_moment(combined, mats, n, tables=TABLES).value
                total += to_unnormalized(value, combined.num_traces, n)
            return total / 2

        def oracle(exprs):
            r = len(exprs)
            total = Fraction(0)
            full = SetPartition.full(range(1, r + 1))
            for rho in enumerate_partitions(range(1, r + 1)):
                prod = Fraction(1)
                for block in rho.blocks:
                    prod *= signed_joint([exprs[i - 1] for i in sorted(block)])
                total += mobius(rho, full) * prod
            return total

        y1 = TraceExpression.single_trace([(1, 1, 1), (1, -1, 2)])
        y2 = TraceExpression.single_trace([(1, 1, 3), (1, 1, 4)])
        y3 = TraceExpression.single_trace([(1, 1, 2), (1, -1, 3)])
        for batch in ([y1], [y1, y2], [y1, y2, y3]):
            got = trace_cumulant(batch, trace_value=tv, kappa=kappa, n=n,
                                 tables=TABLES)
            assert got == oracle(batch)

    def test_symbolic_matches_numeric(self):
        rng = random.Random(33)
        block = center_slots({i: rational_matrix(rng, 2) for i in range(1, 5)})
        from haargenus.matrixlab import block_diagonal_repeat

        def tv(cycle):
            if not cycle:
                return Fraction(1)
            return trace_along([cycle], block, normalized=True)

        y1 = TraceExpression.conjugated_word([1, 2], [1, 2])
        y2 = TraceExpression.conjugated_word([1, 2], [3, 4])
        sym = trace_cumulant([y1, y2], symbolic=True, trace_value=tv, tables=TABLES)
        n = 6
        big = {i: block_diagonal_repeat(block[i], n) for i in block}
        num = trace_cumulant([y1, y2], matrices=big, n=n, tables=TABLES)
        assert sym.eval_at(n) == num


def random_single_traces(rng):
    """2-3 single traces over 1-2 colours, each colour on an even number of
    at most 6 positions."""
    sizes = rng.choice([(1, 1), (2, 2), (1, 3), (3, 3), (2, 4), (2, 2, 2), (1, 1, 2),
                        (4, 4), (3, 5)])
    total = sum(sizes)
    counts = rng.choice([c for c in ([total], [2, total - 2], [total - 2, 2], [4, total - 4])
                         if min(c) > 0 and max(c) <= 6])
    colours = [c for c, m in zip(rng.sample([1, 2, 7], len(counts)), counts) for _ in range(m)]
    rng.shuffle(colours)
    exprs = []
    for size in sizes:
        factors = [(colours.pop(), rng.choice((1, -1)), rng.choice((0, 1, -1, 2, -2)))
                   for _ in range(size)]
        exprs.append(TraceExpression.single_trace(factors))
    return exprs


class TestCumulantAgainstJoins:
    """trace_cumulant tests connectivity on trace indices; the oracle joins
    SetPartitions.  A float result is the float of the exact sum over the
    float traces, so floats match by repr."""

    def test_exact_and_float(self):
        rng = random.Random(50)
        for _ in range(12):
            exprs = random_single_traces(rng)
            n = rng.randint(3, 5)
            x = {l: rational_matrix(rng, n) for l in (1, 2)}
            for mode in ("exact", "float"):
                got = trace_cumulant(exprs, matrices=x, n=n, mode=mode, tables=TABLES)
                want = join_trace_cumulant(exprs, matrices=x, n=n, mode=mode, tables=TABLES)
                assert repr(got) == repr(want)

    def test_symbolic(self):
        rng = random.Random(51)
        for _ in range(10):
            exprs = random_single_traces(rng)
            block = {l: rational_matrix(rng, 2) for l in (1, 2)}

            def tv(cycle):
                return _trace_value(cycle, block, 2)

            assert trace_cumulant(exprs, symbolic=True, trace_value=tv, tables=TABLES) == \
                join_trace_cumulant(exprs, symbolic=True, trace_value=tv, tables=TABLES)

    def test_random_slots_via_kappa(self):
        rng = random.Random(52)
        for _ in range(8):
            exprs = random_single_traces(rng)
            n = rng.randint(4, 6)
            x = {l: rational_matrix(rng, 2) for l in (1, 2)}

            def tv(cycle):
                return _trace_value(cycle, x, 2)

            def kappa(cycles):
                return Fraction(len(cycles), 1 + sum(map(len, cycles))) * tv(cycles[0])

            for mode, cast in (("exact", Fraction), ("float", float)):
                kw = dict(trace_value=lambda c: cast(tv(c)), kappa=lambda c: cast(kappa(c)),
                          n=n, mode=mode, tables=TABLES)
                assert repr(trace_cumulant(exprs, **kw)) == repr(join_trace_cumulant(exprs, **kw))


def random_cumulant_args(rng, slots, counts=((2,), (4,), (6,), (2, 2), (4, 2), (2, 4),
                                             (2, 2, 2), (4, 2, 2))):
    """1-3 single traces over 1-3 colours; slots are distinct labels (each
    transposed or not) or drawn from a small alphabet with repeats."""
    counts = rng.choice(counts)
    colours = [c for c, m in zip(rng.sample([1, 2, 7], len(counts)), counts) for _ in range(m)]
    rng.shuffle(colours)
    total = len(colours)
    cuts = sorted(rng.sample(range(1, total), rng.randint(0, min(2, total - 1))))
    labels = iter(range(1, total + 1))
    exprs = []
    for a, b in zip([0] + cuts, cuts + [total]):
        exprs.append(TraceExpression.single_trace(
            [(colours.pop(), rng.choice((1, -1)),
              next(labels) * rng.choice((1, -1)) if slots == "distinct"
              else rng.choice((0, 1, -1, 2, -2)))
             for _ in range(b - a)]))
    return exprs


class TestCumulantShapes:
    """trace_cumulant scans connectivity once per gluing shape and memoises
    the caller's callbacks; the oracle joins SetPartitions for every gluing."""

    @pytest.mark.parametrize("slots", ["distinct", "alphabet"])
    def test_against_joins_one_to_three_colours(self, slots):
        rng = random.Random(53 if slots == "distinct" else 54)
        for _ in range(8):
            exprs = random_cumulant_args(rng, slots)
            n = rng.randint(3, 4)
            x = {l: rational_matrix(rng, n) for l in range(1, 9)}
            for mode in ("exact", "float"):
                got = trace_cumulant(exprs, matrices=x, n=n, mode=mode, tables=TABLES)
                want = join_trace_cumulant(exprs, matrices=x, n=n, mode=mode, tables=TABLES)
                assert repr(got) == repr(want)
            block = {l: rational_matrix(rng, 2) for l in range(1, 9)}

            def tv(cycle):
                return _trace_value(cycle, block, 2)

            assert trace_cumulant(exprs, symbolic=True, trace_value=tv, tables=TABLES) == \
                join_trace_cumulant(exprs, symbolic=True, trace_value=tv, tables=TABLES)

    @pytest.mark.parametrize("slots", ["distinct", "alphabet"])
    def test_kappa_against_joins(self, slots):
        rng = random.Random(55 if slots == "distinct" else 56)
        for _ in range(6):
            exprs = random_cumulant_args(rng, slots, counts=((2,), (4,), (2, 2), (4, 2),
                                                             (2, 2, 2)))
            n = rng.randint(4, 6)
            block = {l: rational_matrix(rng, 2) for l in range(1, 7)}

            def tv(cycle):
                return _trace_value(cycle, block, 2)

            def kappa(cycles):
                return Fraction(len(cycles), 1 + sum(map(len, cycles))) * tv(cycles[0])

            for mode, cast in (("exact", Fraction), ("float", float)):
                kw = dict(trace_value=lambda c: cast(tv(c)), kappa=lambda c: cast(kappa(c)),
                          n=n, mode=mode, tables=TABLES)
                assert repr(trace_cumulant(exprs, **kw)) == repr(join_trace_cumulant(exprs, **kw))
            kw = dict(trace_value=tv, kappa=kappa, symbolic=True, tables=TABLES)
            assert trace_cumulant(exprs, **kw) == join_trace_cumulant(exprs, **kw)

    def test_callbacks_called_once_per_argument(self):
        rng = random.Random(57)
        for slots in ("distinct", "alphabet"):
            for _ in range(5):
                exprs = random_cumulant_args(rng, slots, counts=((4,), (6,), (4, 2), (2, 2, 2)))
                block = {l: rational_matrix(rng, 2) for l in range(1, 7)}
                calls, kappa_calls = Counter(), Counter()

                def tv(cycle):
                    calls[cycle] += 1
                    return _trace_value(cycle, block, 2)

                def kappa(cycles):
                    kappa_calls[cycles] += 1
                    return Fraction(len(cycles), 1 + sum(map(len, cycles)))

                trace_cumulant(exprs, symbolic=True, trace_value=tv, tables=TABLES)
                assert calls and max(calls.values()) == 1
                calls.clear()
                trace_cumulant(exprs, trace_value=tv, kappa=kappa, n=4, tables=TABLES)
                assert max(calls.values()) == 1
                assert max(kappa_calls.values(), default=1) == 1


class TestBatchedTraces:
    """Each evaluation, exact or float, fills its trace memo in
    `trace_numerators` batches; exact values must equal Fraction products on
    the same cycles, also where entries force the kernel off int64."""

    @staticmethod
    def _wide(rng, n):
        span = rng.choice((3, 2**40))
        return DenseMatrix([[Fraction(rng.randint(-span, span), rng.randint(1, 5))
                             for _ in range(n)] for _ in range(n)])

    def test_moments_and_limits(self, monkeypatch):
        from haargenus import expansion

        rng = random.Random(60)
        batches = []
        real = expansion.trace_numerators
        monkeypatch.setattr(expansion, "trace_numerators",
                            lambda cycles, *a, **kw: batches.append(list(cycles)) or real(cycles, *a, **kw))
        for _ in range(10):
            expr = concatenate(random_single_traces(rng))
            n = rng.randint(3, 5)
            x = {l: self._wide(rng, n) for l in (1, 2)}

            def tv(cycle):
                return dense_trace_along([cycle], x, normalized=True) if cycle else 1

            batches.clear()
            got = evaluate_moment(expr, x, n, tables=TABLES).value
            assert got == moment_symbolic(expr, tv, tables=TABLES).eval_at(n)
            assert len(batches) == 1 and len(set(batches[0])) == len(batches[0])
            batches.clear()
            evaluate_moment(expr, x, n, mode="float", tables=TABLES)
            assert len(batches) == 1 and len(set(batches[0])) == len(batches[0])
            limit = asymptotic_moment(expr, TABLES)
            assert limit.evaluate(x, n) == sum(
                (c * math.prod(map(tv, pattern)) for c, pattern in limit.terms), Fraction(0))

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_memo_freed_without_the_collector(self, mode):
        # a reference cycle would keep every trace of an evaluation alive
        # until the next garbage collection
        from haargenus.expansion import _TraceMemo

        memo = _TraceMemo({1: DenseMatrix.identity(2, mode)}, 2, mode, [1])
        memo.fill([(1,), (1, -1)])
        assert memo.value((1, -1)) == 1
        ref = weakref.ref(memo)
        del memo
        assert ref() is None

    def test_cumulants_in_blocks(self, monkeypatch):
        from haargenus import expansion

        # every evaluator runs in slices of GLUING_BLOCK gluings; every sum
        # is exact and a float result is rounded once, so the slice size must
        # not change any result by one bit
        reports = {}
        for block in (3, expansion.GLUING_BLOCK):
            monkeypatch.setattr(expansion, "GLUING_BLOCK", block)
            rng = random.Random(61)
            for _ in range(6):
                exprs = random_single_traces(rng)
                expr = concatenate(exprs)
                n = rng.randint(3, 5)
                x = {l: self._wide(rng, n) for l in (1, 2)}

                def tv(cycle):
                    return dense_trace_along([cycle], x, normalized=True) if cycle else 1

                def kappa(cycles):
                    return Fraction(len(cycles), 7) * tv(cycles[0])

                got = trace_cumulant(exprs, matrices=x, n=n, tables=TABLES)
                assert got == trace_cumulant(exprs, trace_value=tv, n=n, tables=TABLES)
                reports.setdefault(block, []).extend([
                    got,
                    repr(trace_cumulant(exprs, matrices=x, n=n, mode="float", tables=TABLES)),
                    trace_cumulant(exprs, matrices=x, n=n, kappa=kappa, tables=TABLES),
                    repr(trace_cumulant(exprs, trace_value=lambda c: float(tv(c)),
                                        kappa=lambda c: float(kappa(c)), n=n, mode="float",
                                        tables=TABLES)),
                    evaluate_moment(expr, x, n, tables=TABLES).value,
                    repr(evaluate_moment(expr, x, n, mode="float", tables=TABLES).value),
                    asymptotic_moment(expr, TABLES),
                    moment_symbolic(expr, tv, TABLES),
                    list(expand_moment(expr, TABLES))])
        assert reports[3] == reports[expansion.GLUING_BLOCK]


class TestRelativeCumulantCache:
    """Trace cumulants keep each relative cumulant C_{pi,pi,rho} on the
    TableSet, keyed by the sizes of pi's blocks inside each block of rho."""

    def test_cached_values_equal_fresh_cumulants(self):
        rng = random.Random(58)
        tables = TableSet()
        for _ in range(6):
            exprs = random_cumulant_args(rng, "alphabet")
            x = {l: rational_matrix(rng, 5) for l in (1, 2)}
            trace_cumulant(exprs, matrices=x, n=5, tables=tables)
        assert len(tables.relative_cumulants) > 3
        # and every key of at most 10 points: the sorted even sizes of pi's
        # blocks inside each block of rho
        every = set()
        for half in range(1, 6):
            for lam in young_diagrams(half):
                sizes = [2 * row for row in lam.rows]
                for sigma in enumerate_partitions(range(1, len(sizes) + 1)):
                    every.add(tuple(sorted(tuple(sorted(sizes[i - 1] for i in b))
                                           for b in sigma.blocks)))
        assert len(every) == 51
        built = TableSet()
        fresh = TableSet()
        for key, value in [*tables.relative_cumulants.items(),
                           *((key, built.relative_cumulant(key)) for key in sorted(every))]:
            # the key fixes the cumulant: any pi and rho with these sizes give it
            for shuffled in (False, True):
                points = list(range(1, 1 + sum(map(sum, key))))
                if shuffled:
                    rng.shuffle(points)
                it = iter(points)
                pi_blocks, rho_blocks = [], []
                for sizes in key:
                    pi_blocks += [[next(it) for _ in range(size)] for size in sizes]
                    rho_blocks.append([k for b in pi_blocks[-len(sizes):] for k in b])
                pi, rho = SetPartition(pi_blocks), SetPartition(rho_blocks)
                assert wg_cumulant(fresh, pi, pi, rho) == value

    def test_reuse_across_calls_keeps_values_and_poles(self, monkeypatch):
        built = []
        rng = random.Random(59)
        exprs = random_cumulant_args(rng, "distinct", counts=((4, 2),))
        x = {l: rational_matrix(rng, 4) for l in range(1, 7)}
        tables = TableSet()
        kept, real = tables.relative_cumulants, tables.relative_cumulant

        def spy(key):  # the relative cumulants these tables build
            if key not in kept:
                built.append(key)
            return real(key)

        monkeypatch.setattr(tables, "relative_cumulant", spy)
        first = trace_cumulant(exprs, matrices=x, n=4, tables=tables)
        count = len(built)
        assert count
        for mode in ("exact", "float"):
            assert repr(trace_cumulant(exprs, matrices=x, n=4, mode=mode, tables=tables)) == \
                repr(join_trace_cumulant(exprs, matrices=x, n=4, mode=mode, tables=TableSet()))
        assert trace_cumulant(exprs, matrices=x, n=4, tables=tables) == first
        assert len(built) == count
        # a pole is raised at N on every call, with the text of fresh tables
        exprs = [TraceExpression.single_trace([(1, 1, 1), (1, -1, 2)]),
                 TraceExpression.single_trace([(1, 1, 2), (1, 1, 1)])]
        ones = {1: DenseMatrix([[2]]), 2: DenseMatrix([[3]])}
        texts = []
        for tables in (TableSet(), tables, tables):
            with pytest.raises(PoleError) as exc:
                trace_cumulant(exprs, matrices=ones, n=1, tables=tables)
            texts.append(str(exc.value))
        assert texts[0] == texts[1] == texts[2] and "N=1" in texts[0]


class TestCoefficientMemos:
    """The TableSet keeps each Weingarten product, its value at N and each
    relative cumulant's value at N across calls, and `_block_shapes` keeps
    each colour's pair block shapes for the process: warm memos must give
    what fresh ones give."""

    @staticmethod
    def _results(case, tables):
        expr, exprs, n, x, block = case

        def tv(cycle):
            return _trace_value(cycle, block, 2)

        def kappa(cycles):
            return Fraction(len(cycles), 5) * tv(cycles[0])

        return [
            evaluate_moment(expr, x, n, tables=tables).value,
            repr(evaluate_moment(expr, x, n, mode="float", tables=tables).value),
            moment_symbolic(expr, tv, tables=tables),
            asymptotic_moment(expr, tables).terms,
            trace_cumulant(exprs, matrices=x, n=n, tables=tables),
            repr(trace_cumulant(exprs, matrices=x, n=n, mode="float", tables=tables)),
            trace_cumulant(exprs, trace_value=tv, kappa=kappa, n=n, tables=tables),
            repr(trace_cumulant(exprs, trace_value=lambda c: float(tv(c)),
                                kappa=lambda c: float(kappa(c)), n=n, mode="float",
                                tables=tables)),
            trace_cumulant(exprs, trace_value=tv, symbolic=True, tables=tables),
        ]

    def test_warm_tables_equal_fresh(self, monkeypatch):
        rng = random.Random(90)
        cases = []
        for _ in range(8):
            # at most 6 positions per colour: N >= 3 is no pole
            n = rng.randint(3, 5)
            cases.append((random_expression(rng, max_positions=6), random_single_traces(rng), n,
                          {l: rational_matrix(rng, n) for l in (1, 2, 3)},
                          {l: rational_matrix(rng, 2) for l in (1, 2, 3)}))
        warm = TableSet()
        for case in cases:
            self._results(case, warm)
        calls = []
        real = PolyFrac.eval_at
        monkeypatch.setattr(PolyFrac, "eval_at",
                            lambda self, n0: calls.append(n0) or real(self, n0))
        for case in cases:
            again = self._results(case, warm)
            assert not calls  # every value at N came from the memos
            assert again == self._results(case, TableSet())
            calls.clear()

    def test_pole_raised_on_every_call(self):
        e = TraceExpression.single_trace([(1, 1, 1)] * 4)
        x = {1: DenseMatrix([[1]])}
        tables = TableSet()
        for mode in ("exact", "float"):
            for t in (TableSet(), tables, tables):
                with pytest.raises(PoleError) as exc:
                    evaluate_moment(e, x, 1, mode=mode, tables=t)
                assert str(exc.value) == \
                    "Weingarten factor for diagram(s) [[1, 1]] has a pole at N=1: pole at " \
                    "N=1: denominator vanishes (factors (N-1)*(N+2))"
                assert exc.value.n_value == 1 and exc.value.factors == ("(N-1)", "(N+2)")

    def test_cumulant_after_pairing_table_cleared(self):
        # the block shapes are kept by position in the pairing table, so a
        # rebuilt table (new pair objects) reads them alike
        rng = random.Random(91)
        cases = []
        for _ in range(6):
            n = rng.randint(3, 5)
            cases.append((random_single_traces(rng), n,
                          {l: rational_matrix(rng, n) for l in (1, 2)}))
        first = [trace_cumulant(exprs, matrices=x, n=n, tables=TABLES) for exprs, n, x in cases]
        _pairing_table.cache_clear()
        for (exprs, n, x), value in zip(cases, first):
            assert trace_cumulant(exprs, matrices=x, n=n, tables=TABLES) == value == \
                join_trace_cumulant(exprs, matrices=x, n=n, tables=TableSet())

    def test_values_at_n_bounded(self, monkeypatch):
        from haargenus import expansion, weingarten

        assert expansion._block_shapes.cache_info().maxsize == expansion.BLOCK_SHAPES_CAP
        monkeypatch.setattr(weingarten, "VALUES_AT_N_CAP", 3)
        rng = random.Random(92)
        e = TraceExpression.single_trace([(1, 1, 1), (1, -1, 2), (1, 1, 2), (1, -1, 1)])
        tables = TableSet()
        for n in range(4, 13):  # [e, e] has 8 positions of one colour: a pole at N = 3
            x = {l: rational_matrix(rng, n) for l in (1, 2)}
            assert evaluate_moment(e, x, n, tables=tables).value == \
                evaluate_moment(e, x, n, tables=TableSet()).value
            assert trace_cumulant([e, e], matrices=x, n=n, tables=tables) == \
                trace_cumulant([e, e], matrices=x, n=n, tables=TableSet())
            assert 0 < len(tables._wg_products_at) <= 3
            assert 0 < len(tables._cumulants_at) <= 3


# -- metamorphic properties ----------------------------------------------------

META_N = 4
META_MATRICES = {l: rational_matrix(random.Random(70 + l), META_N) for l in (1, 2)}
META_BLOCKS = {l: rational_matrix(random.Random(80 + l), 2) for l in (1, 2)}


def _block_trace(cycle):
    return _trace_value(cycle, META_BLOCKS, 2)


@st.composite
def small_expressions(draw, counts=((2,), (4,), (6,), (2, 2), (4, 2), (2, 2, 2))):
    """1-3 traces over 1-3 colours on at most 6 positions, each colour on the
    position counts of one of `counts`."""
    counts = draw(st.sampled_from(counts))
    colours = draw(st.permutations([c for c, m in zip((1, 2, 5), counts) for _ in range(m)]))
    n = len(colours)
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=2))) if n > 1 else []
    eps = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    slots = draw(st.lists(st.sampled_from((0, 1, -1, 2, -2)), min_size=n, max_size=n))
    return TraceExpression([range(a + 1, b + 1) for a, b in zip([0, *cuts], [*cuts, n])],
                           dict(enumerate(eps, 1)), dict(enumerate(colours, 1)),
                           dict(enumerate(slots, 1)))


def single_traces(expr):
    """The traces of an expression as single-trace expressions."""
    return [TraceExpression.single_trace([(expr.color[k], expr.eps[k], expr.slot[k])
                                          for k in c]) for c in expr.cycles]


def rename_colours(expr, names):
    return TraceExpression(expr.cycles, expr.eps, {k: names[c] for k, c in expr.color.items()},
                           expr.slot)


def rotate_trace(expr, t, shift):
    cycles = list(expr.cycles)
    shift %= len(cycles[t])
    cycles[t] = cycles[t][shift:] + cycles[t][:shift]
    return TraceExpression(cycles, expr.eps, expr.color, expr.slot)


def transposed_reversal(expr, t):
    """tr(O_1^e_1 X_1 ... O_m^e_m X_m) as the trace of its transpose,
    tr(O_m^-e_m X_(m-1)^T ... O_1^-e_1 X_m^T), on the same positions."""
    cyc = expr.cycles[t]
    eps, color, slot = dict(expr.eps), dict(expr.color), dict(expr.slot)
    for j, k in enumerate(cyc):
        src = len(cyc) - 1 - j
        eps[k] = -expr.eps[cyc[src]]
        color[k] = expr.color[cyc[src]]
        slot[k] = -expr.slot[cyc[src - 1]]
    return TraceExpression(expr.cycles, eps, color, slot)


def moment_values(expr):
    return (evaluate_moment(expr, META_MATRICES, META_N, tables=TABLES).value,
            moment_symbolic(expr, _block_trace, tables=TABLES))


def cumulant_values(exprs):
    return (trace_cumulant(exprs, matrices=META_MATRICES, n=META_N, tables=TABLES),
            trace_cumulant(exprs, symbolic=True, trace_value=_block_trace, tables=TABLES))


META_SETTINGS = settings(max_examples=15, deadline=None)


class TestMetamorphic:
    """Renaming colours or positions, or writing a trace or a product of
    traces in another equal form, leaves every value unchanged."""

    @META_SETTINGS
    @given(small_expressions(), st.permutations([3, 4, 8]))
    def test_rename_colours(self, expr, names):
        names = dict(zip((1, 2, 5), names))
        assert moment_values(rename_colours(expr, names)) == moment_values(expr)
        args = single_traces(expr)
        assert cumulant_values([rename_colours(e, names) for e in args]) == \
            cumulant_values(args)

    @META_SETTINGS
    @given(small_expressions(), st.randoms(use_true_random=False))
    def test_relabel_positions(self, expr, rng):
        assert moment_values(scattered(expr, rng)) == moment_values(expr)
        args = single_traces(expr)
        assert cumulant_values([scattered(e, rng) for e in args]) == cumulant_values(args)

    @META_SETTINGS
    @given(small_expressions(), st.data())
    def test_rotate_a_trace(self, expr, data):
        t = data.draw(st.integers(0, expr.num_traces - 1))
        shift = data.draw(st.integers(1, 5))
        assert moment_values(rotate_trace(expr, t, shift)) == moment_values(expr)
        args = single_traces(expr)
        args_rotated = list(args)
        args_rotated[t] = rotate_trace(args[t], 0, shift)
        assert cumulant_values(args_rotated) == cumulant_values(args)

    @META_SETTINGS
    @given(small_expressions(), st.data())
    def test_transposed_reversal(self, expr, data):
        t = data.draw(st.integers(0, expr.num_traces - 1))
        assert moment_values(transposed_reversal(expr, t)) == moment_values(expr)
        args = single_traces(expr)
        args_reversed = list(args)
        args_reversed[t] = transposed_reversal(args[t], 0)
        assert cumulant_values(args_reversed) == cumulant_values(args)

    @META_SETTINGS
    @given(small_expressions(), st.data())
    def test_permute_traces_and_arguments(self, expr, data):
        order = data.draw(st.permutations(range(expr.num_traces)))
        permuted = TraceExpression([expr.cycles[i] for i in order], expr.eps, expr.color,
                                   expr.slot)
        assert moment_values(permuted) == moment_values(expr)
        args = single_traces(expr)
        assert cumulant_values([args[i] for i in order]) == cumulant_values(args)


@st.composite
def dyadic_matrices(draw, n):
    """Matrices for labels 1 and 2 with entries k/4, |k| <= 8: at N <= 5 every
    float trace along a cycle of at most 6 of them is exact (no partial sum
    needs more than 53 bits)."""
    entry = st.integers(-8, 8).map(lambda k: Fraction(k, 4))
    return {label: DenseMatrix([[draw(entry) for _ in range(n)] for _ in range(n)])
            for label in (1, 2)}


def exactly_float(value: Fraction) -> float:
    """value as a float, which must hold it exactly."""
    assert float(value) == value
    return float(value)


class TestFloatIsExactRounded:
    """Float mode sums exactly over its float traces and rounds once, so
    where every float trace is exact, each float result is float() of the
    exact result, bit for bit, whatever N does to the normalized traces."""

    @settings(max_examples=40, deadline=None)
    @given(small_expressions(), st.sampled_from((2, 3, 4, 5)), st.data())
    def test_moments(self, expr, n, data):
        x = data.draw(dyadic_matrices(n))
        try:
            exact = evaluate_moment(expr, x, n, tables=TABLES).value
        except PoleError as exc:
            with pytest.raises(PoleError, match=re.escape(str(exc))):
                evaluate_moment(expr, x, n, mode="float", tables=TABLES)
        else:
            assert repr(evaluate_moment(expr, x, n, mode="float", tables=TABLES).value) == \
                repr(float(exact))
        limit = asymptotic_moment(expr, TABLES)
        assert repr(limit.evaluate(x, n, mode="float")) == repr(float(limit.evaluate(x, n)))

    @settings(max_examples=30, deadline=None)
    @given(small_expressions(), st.sampled_from((3, 4, 5)), st.data())
    def test_cumulants(self, expr, n, data):
        args = single_traces(expr)
        x = data.draw(dyadic_matrices(n))
        block = data.draw(dyadic_matrices(2))

        def tv(cycle):
            return _trace_value(cycle, block, 2)

        def kappa(cycles):
            return Fraction(len(cycles), 4) * tv(cycles[0])

        exact = trace_cumulant(args, matrices=x, n=n, tables=TABLES)
        assert repr(trace_cumulant(args, matrices=x, n=n, mode="float", tables=TABLES)) == \
            repr(float(exact))
        exact = trace_cumulant(args, trace_value=tv, kappa=kappa, n=n, tables=TABLES)
        got = trace_cumulant(args, trace_value=lambda c: exactly_float(tv(c)),
                             kappa=lambda c: exactly_float(kappa(c)), n=n, mode="float",
                             tables=TABLES)
        assert repr(got) == repr(float(exact))


@st.composite
def integer_sum_matrices(draw, n):
    """Exact matrices for labels 1 and 2 at N = n, over different denominators
    (3 and 4): small entries, entries of at least 2^40 (so stacks run on
    Python ints), or strictly upper triangular ones, whose traces along cycles
    of their own label are zero."""
    out = {}
    for label, den in ((1, 3), (2, 4)):
        kind = draw(st.sampled_from(("small", "wide", "nilpotent")))
        if kind == "wide":
            entry = st.integers(2**40, 2**41).map(lambda v: v * (-1) ** (v % 3))
        else:
            entry = st.integers(-3, 3)
        out[label] = DenseMatrix([[Fraction(draw(entry), den)
                                   if kind != "nilpotent" or j > i else 0
                                   for j in range(n)] for i in range(n)])
    return out


class TestIntegerSums:
    """Exact moments and built-in cumulants sum products of trace numerators
    as ints and divide once per group; they must equal the Fraction-level
    references, whatever the denominators, identity and transposed slots,
    zero traces and int64 or Python-int stacks."""

    @settings(max_examples=25, deadline=None)
    @given(small_expressions(), st.sampled_from((3, 4)), st.data())
    def test_moment_matches_references(self, expr, n, data):
        x = data.draw(integer_sum_matrices(n))
        got = evaluate_moment(expr, x, n, tables=TABLES).value
        assert got == moment_symbolic(expr, lambda c: _trace_value(c, x, n),
                                      tables=TABLES).eval_at(n)
        if expr.n <= 4 and n == 3:
            assert got == brute_force_moment(expr, x, n, TABLES)

    @settings(max_examples=25, deadline=None)
    @given(small_expressions(), st.sampled_from((3, 4)), st.data())
    def test_cumulant_matches_joins(self, expr, n, data):
        x = data.draw(integer_sum_matrices(n))
        args = single_traces(expr)
        assert trace_cumulant(args, matrices=x, n=n, tables=TABLES) == \
            join_trace_cumulant(args, matrices=x, n=n, tables=TABLES)

        # kappa keeps the built-in path on Fractions
        def kappa(cycles):
            return Fraction(len(cycles), 7) * _trace_value(cycles[0], x, n)

        assert trace_cumulant(args, matrices=x, n=n, kappa=kappa, tables=TABLES) == \
            join_trace_cumulant(args, matrices=x, n=n, kappa=kappa, tables=TABLES)


def outcome(call):
    """What a call returns, or the text of the PoleError it raises."""
    try:
        return call()
    except PoleError as exc:
        return f"PoleError: {exc}"


def has_negative_exponent(expr) -> bool:
    return any(t.exponent < 0 for t in expand_moment(expr, TABLES))


class TestClosingSums:
    """Exact moments and cumulants sum on ints from the Weingarten values at
    N to the end and form one Fraction per result.  They must equal the
    Fraction sums the library closed with before (`fraction_moment`, and
    `join_trace_cumulant`'s total), over gluings with negative N exponents,
    and a pole must raise the same PoleError text."""

    @settings(max_examples=40, deadline=None)
    @given(small_expressions(), st.sampled_from((1, 2, 3, 4, 5)), st.data())
    def test_moment(self, expr, n, data):
        assume(has_negative_exponent(expr))
        x = data.draw(integer_sum_matrices(n))
        got = outcome(lambda: evaluate_moment(expr, x, n, tables=TABLES).value)
        assert type(got) in (Fraction, str)
        assert got == outcome(lambda: fraction_moment(expr, x, n, tables=TABLES))

    @settings(max_examples=40, deadline=None)
    @given(small_expressions(), st.sampled_from((1, 2, 3, 4, 5)), st.data())
    def test_cumulant(self, expr, n, data):
        assume(has_negative_exponent(expr))
        x = data.draw(integer_sum_matrices(n))
        args = single_traces(expr)
        got = outcome(lambda: trace_cumulant(args, matrices=x, n=n, tables=TABLES))
        assert type(got) in (Fraction, str)
        assert got == outcome(lambda: join_trace_cumulant(args, matrices=x, n=n,
                                                          tables=TABLES))


class TestEmptyTrace:
    """An empty trace stands for tr(I) / N = 1: a vertex cycle of its own,
    with the empty label cycle, on every gluing; in a cumulant it is the
    constant tr(I) = N, independent of every other trace."""

    EMPTY = TraceExpression.from_json({"traces": [[]]})

    @settings(max_examples=25, deadline=None)
    @given(small_expressions(), st.sampled_from((3, 4)), st.integers(0, 2), st.data())
    def test_moment_of_a_product_with_it(self, expr, n, at, data):
        x = data.draw(integer_sum_matrices(n))
        parts = single_traces(expr)
        with_empty = concatenate(parts[:at] + [self.EMPTY] + parts[at:])
        for mode in ("exact", "float"):
            assert outcome(lambda: evaluate_moment(with_empty, x, n, mode, TABLES).value) == \
                outcome(lambda: evaluate_moment(expr, x, n, mode, TABLES).value)
        assert moment_symbolic(with_empty, _block_trace, TABLES) == \
            moment_symbolic(expr, _block_trace, TABLES)
        limit = asymptotic_moment(with_empty, TABLES)
        assert limit.evaluate(x, n) == asymptotic_moment(expr, TABLES).evaluate(x, n)
        if expr.n <= 4 and n == 3:
            assert brute_force_moment(with_empty, x, n, TABLES) == \
                brute_force_moment(expr, x, n, TABLES)
        # a cumulant of the constant tr(I) with anything is zero
        assert trace_cumulant(parts[:1] + [self.EMPTY], matrices=x, n=n, tables=TABLES) == 0

    def test_every_evaluator_alone(self):
        x = {1: DenseMatrix([[1, 2, 0], [Fraction(1, 3), -1, 4], [0, 1, 1]])}
        assert evaluate_moment(self.EMPTY, x, 3, tables=TABLES).value == 1
        assert evaluate_moment(self.EMPTY, {}, 2, mode="float", tables=TABLES).value == 1.0
        [term] = expand_moment(self.EMPTY, TABLES)
        assert (term.chi, term.exponent, term.vertex_cycles, term.vertex_labels) == \
            (2, 0, ((),), ((),))
        assert asymptotic_moment(self.EMPTY, TABLES).terms == ((Fraction(1), ((),)),)
        assert moment_symbolic(self.EMPTY, lambda c: Fraction(1), TABLES) == PolyFrac(1)
        # k1 is the unnormalized trace tr(I) = N
        assert trace_cumulant([self.EMPTY], matrices=x, n=3, tables=TABLES) == 3
        assert trace_cumulant([self.EMPTY], symbolic=True, trace_value=lambda c: 1,
                              tables=TABLES) == PolyFrac.n_power(1)
        assert trace_cumulant([self.EMPTY, self.EMPTY], matrices=x, n=3, tables=TABLES) == 0
        assert brute_force_moment(self.EMPTY, x, 3, TABLES) == 1

    def test_caller_values_are_not_asked_for_it(self):
        # the empty label cycle is 1 and a vertex-trace cumulant that holds it
        # is 0, whatever a caller's trace_value or kappa would answer; an
        # identity-only trace has the empty label cycle too
        w = TraceExpression.from_json({"traces": [[{"color": 1, "eps": 1, "slot": 1},
                                                   {"color": 1, "eps": -1, "slot": 1}]]})
        ident = TraceExpression.from_json({"traces": [[{"color": 2, "eps": 1, "slot": 0},
                                                       {"color": 2, "eps": -1, "slot": 0}]]})
        asked = []

        def trace_value(cycle):
            asked.append(cycle)
            return Fraction(1, 2)

        def kappa(cycles):
            asked.append(cycles)
            return Fraction(1, 3)

        for constant in (self.EMPTY, ident):
            for kw in (dict(kappa=kappa, n=3), dict(n=3)):
                assert trace_cumulant([constant, w], trace_value=trace_value, tables=TABLES,
                                      **kw) == 0
                assert trace_cumulant([w, constant], trace_value=trace_value, tables=TABLES,
                                      **kw) == 0
            assert trace_cumulant([constant], trace_value=trace_value, n=3, tables=TABLES) == 3
            assert trace_cumulant([constant], trace_value=trace_value, symbolic=True,
                                  tables=TABLES) == PolyFrac.n_power(1)
            assert moment_symbolic(constant, trace_value, TABLES) == PolyFrac(1)
        assert asked and all(c and () not in c for c in asked)

    def test_monte_carlo(self):
        from haargenus.matrixlab import mc_cumulant, mc_moment

        x = {1: DenseMatrix([[1, 2], [0, -1]])}
        w = TraceExpression.from_json({"traces": [[{"color": 1, "eps": 1, "slot": 1},
                                                   {"color": 1, "eps": -1, "slot": 1}]]})
        assert mc_moment(self.EMPTY, x, 2, samples=64, seed=3).mean == 1.0
        assert mc_moment(concatenate([self.EMPTY, w]), x, 2, samples=64, seed=3) == \
            mc_moment(w, x, 2, samples=64, seed=3)
        assert abs(mc_cumulant([self.EMPTY, w], x, 2, samples=64, seed=3, order=2).mean) \
            < 1e-12


# odd counts have no gluing: every evaluator must give zero
ONE_OR_TWO_COLOURS = ((2,), (4,), (6,), (2, 2), (4, 2), (2, 4), (3,), (2, 1))


@st.composite
def caller_values(draw):
    """A function of its argument onto a few rational values (ints and
    Fractions of mixed denominators, zeros and negatives among them)."""
    values = draw(st.lists(st.one_of(st.just(0), st.integers(-5, 5),
                                     st.fractions(-4, 4, max_denominator=36)),
                           min_size=1, max_size=7))
    return lambda arg: values[hash(arg) % len(values)]


class TestCallerValueSums:
    """A caller's trace values and kappa are summed as ints over common
    denominators, and symbolic weights as one Laurent polynomial per
    coefficient; the results must equal the Fraction-level references, and
    float moments must equal them by repr."""

    @settings(max_examples=40, deadline=None)
    @given(small_expressions(ONE_OR_TWO_COLOURS), caller_values(), caller_values(),
           st.sampled_from((4, 5)))
    def test_against_fraction_references(self, expr, tv, kappa, n):
        assert moment_symbolic(expr, tv, tables=TABLES) == \
            fraction_moment_symbolic(expr, tv, tables=TABLES)
        args = single_traces(expr)
        for kw in (dict(symbolic=True, trace_value=tv),
                   dict(symbolic=True, trace_value=tv, kappa=kappa),
                   dict(trace_value=tv, n=n), dict(trace_value=tv, kappa=kappa, n=n)):
            assert trace_cumulant(args, tables=TABLES, **kw) == \
                join_trace_cumulant(args, tables=TABLES, **kw)

    @settings(max_examples=40, deadline=None)
    @given(small_expressions(ONE_OR_TWO_COLOURS), st.sampled_from((2, 3, 4, 6)),
           st.integers(0, 2**32))
    def test_float_moment_bits(self, expr, n, seed):
        rng = random.Random(seed)
        x = {l: DenseMatrix(arr=[[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)])
             for l in (1, 2)}
        try:
            want = repr(fraction_moment(expr, x, n, "float", TABLES))
        except PoleError as exc:
            want = str(exc)
        try:
            got = repr(evaluate_moment(expr, x, n, mode="float", tables=TABLES).value)
        except PoleError as exc:
            got = str(exc)
        assert got == want

    def test_caller_values_must_be_rational(self):
        expr = TraceExpression.single_trace([(1, 1, 1), (1, -1, 2)])
        args = single_traces(concatenate([expr, expr]))
        for bad in (0.5, True, 1.0, None, "1/2"):
            calls = [
                lambda: moment_symbolic(expr, lambda c: bad, tables=TABLES),
                lambda: trace_cumulant(args, symbolic=True, trace_value=lambda c: bad,
                                       tables=TABLES),
                lambda: trace_cumulant(args, trace_value=lambda c: bad, n=3, tables=TABLES),
                lambda: trace_cumulant(args, trace_value=lambda c: 1, kappa=lambda c: bad, n=3,
                                       tables=TABLES),
                lambda: trace_cumulant(args, symbolic=True, trace_value=lambda c: Fraction(1, 3),
                                       kappa=lambda c: bad, tables=TABLES)]
            for call in calls:
                with pytest.raises(ValidationError, match=r"(trace_value|kappa)\(\(.*\)\) must be rational"):
                    call()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, True, "x", None])
    def test_float_mode_caller_values_must_be_finite(self, bad):
        y = TraceExpression.single_trace([(1, 1, 1), (1, -1, 2)])
        calls = {
            "trace_value": lambda: trace_cumulant([y, y], trace_value=lambda c: bad, n=3,
                                                  mode="float", tables=TABLES),
            "kappa": lambda: trace_cumulant([y, y], trace_value=lambda c: 0.5,
                                            kappa=lambda c: bad, n=3, mode="float",
                                            tables=TABLES)}
        for name, call in calls.items():
            with pytest.raises(ValidationError,
                               match=rf"{name}\(\(.*\)\) must be a finite float, an int or a "
                                     rf"Fraction, got {re.escape(repr(bad))}"):
                call()

    def test_values_called_once_in_first_seen_order(self):
        rng = random.Random(63)
        for _ in range(6):
            args = random_cumulant_args(rng, "alphabet", counts=((4,), (6,), (4, 2)))
            block = {l: rational_matrix(rng, 2) for l in (1, 2)}
            expr = concatenate(args)
            for symbolic, kappa in ((True, None), (False, lambda cs: Fraction(len(cs), 3))):
                got, want = [], []
                for cumulant, log in ((trace_cumulant, got), (join_trace_cumulant, want)):
                    def tv(cycle, log=log):
                        log.append(cycle)
                        return _trace_value(cycle, block, 2)

                    kw = dict(symbolic=True) if symbolic else dict(kappa=kappa, n=4)
                    cumulant(args, trace_value=tv, tables=TABLES, **kw)
                assert got == list(dict.fromkeys(want))
            got, want = [], []
            moment_symbolic(expr, lambda c: got.append(c) or _trace_value(c, block, 2),
                            tables=TABLES)
            fraction_moment_symbolic(expr, lambda c: want.append(c) or
                                     _trace_value(c, block, 2), tables=TABLES)
            assert got == want and len(set(got)) == len(got)


@st.composite
def three_traces_two_colours(draw):
    """Three single traces over two colours, each colour on 2 or 4 positions."""
    counts = draw(st.sampled_from([(2, 2), (4, 2), (2, 4), (4, 4)]))
    colours = draw(st.permutations([c for c, m in zip((1, 2), counts) for _ in range(m)]))
    n = len(colours)
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=2, max_size=2)))
    factors = [(c, draw(st.sampled_from((1, -1))), draw(st.sampled_from((0, 1, -1, 2, -2))))
               for c in colours]
    return [TraceExpression.single_trace(factors[a:b]) for a, b in zip([0, *cuts], [*cuts, n])]


def ints_and_tuples(value) -> bool:
    """Whether value is an int (not a bool) or a tuple of such values, nested."""
    if isinstance(value, tuple):
        return all(map(ints_and_tuples, value))
    return isinstance(value, int) and not isinstance(value, bool)


class TestConnectivityMemo:
    """`_connecting_rhos` is memoised for the process on trace masks: its
    results, cold or warm, give the oracle's joins in every mode, and every
    memo key holds only ints and tuples (no id, frozenset or SetPartition)."""

    @settings(max_examples=30, deadline=None)
    @given(three_traces_two_colours(), st.sampled_from((3, 4)),
           st.randoms(use_true_random=False))
    def test_three_traces_against_joins(self, args, n, rng):
        keys = self.against_joins(args, n, rng)
        # with all-zero matrices (a draw Hypothesis may shrink to) every
        # product of vertex traces is 0, so no gluing reaches the scan and
        # the draw has no key to check
        assume(keys)
        assert all(map(ints_and_tuples, keys))

    def test_fixed_three_traces_build_keys(self):
        args = [TraceExpression.single_trace([(1, 1, 1), (2, 1, 2)]),
                TraceExpression.single_trace([(1, -1, 1)]),
                TraceExpression.single_trace([(2, -1, -2)])]
        keys = self.against_joins(args, 3, random.Random(62))
        assert keys and all(map(ints_and_tuples, keys))

    @staticmethod
    def against_joins(args, n, rng) -> list:
        """Check the cumulant of args, warm and cold, against the oracle in
        every mode, and return the arguments of every `_connecting_rhos`
        call."""
        from haargenus import expansion

        x = {l: rational_matrix(rng, n) for l in (1, 2)}
        block = {l: rational_matrix(rng, 2) for l in (1, 2)}

        def tv(cycle):
            return _trace_value(cycle, block, 2)

        def kappa(cycles):
            return Fraction(len(cycles), 1 + sum(map(len, cycles))) * tv(cycles[0])

        modes = [dict(matrices=x, n=n), dict(matrices=x, n=n, mode="float"),
                 dict(trace_value=tv, kappa=kappa, n=n), dict(symbolic=True, trace_value=tv)]
        scan = expansion._connecting_rhos
        keys = []

        def spy(*key):
            keys.append(key)
            return scan(*key)

        def values(cumulant):
            # a float result is the float of the exact sum, so floats compare by repr
            out = [cumulant(args, tables=TABLES, **kw) for kw in modes]
            return [repr(v) if isinstance(v, float) else v for v in out]

        with mock.patch.object(expansion, "_connecting_rhos", spy):
            warm = values(trace_cumulant)
            assert warm == values(join_trace_cumulant)
            scan.cache_clear()
            assert values(trace_cumulant) == warm
        return keys


class TestErrorOrder:
    """A slot label with no matrix is bad input: it fails before any
    enumeration or coefficient, so at a pole N too; with every matrix present
    the pole is reported."""

    # one colour on four positions, so N = 1 is a pole; label 2 has no matrix
    EXPR = TraceExpression.single_trace([(1, 1, 1), (1, -1, 0), (1, 1, 2), (1, -1, 0)])
    ARGS = [TraceExpression.single_trace([(1, 1, 1), (1, -1, 0)]),
            TraceExpression.single_trace([(1, 1, 2), (1, -1, 0)])]

    @staticmethod
    def no_enumeration(monkeypatch):
        import haargenus.expansion as ex

        def enumerated(*args):
            raise AssertionError("enumerated")

        monkeypatch.setattr(ex, "_Gluings", enumerated)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_moment_reports_the_missing_matrix_first(self, mode, monkeypatch):
        one = DenseMatrix.identity(1)
        with pytest.raises(PoleError, match="N=1"):
            evaluate_moment(self.EXPR, {1: one, 2: one}, 1, mode=mode, tables=TABLES)
        limit = asymptotic_moment(self.EXPR, TABLES)
        assert limit.terms
        self.no_enumeration(monkeypatch)
        for n in (1, 2):
            with pytest.raises(ValidationError, match="no matrix for label 2"):
                evaluate_moment(self.EXPR, {1: DenseMatrix.identity(n)}, n, mode=mode,
                                tables=TABLES)
            with pytest.raises(ValidationError, match="no matrix for label 2"):
                limit.evaluate({1: DenseMatrix.identity(n)}, n, mode=mode)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_pole_before_any_trace_across_slices(self, mode, monkeypatch):
        # every diagrams' coefficient is evaluated before the first slice's
        # traces, though the 9 gluings run in three slices
        import haargenus.expansion as ex

        def traced(*args, **kwargs):
            raise AssertionError("traced")

        monkeypatch.setattr(ex, "GLUING_BLOCK", 3)
        monkeypatch.setattr(ex, "trace_numerators", traced)
        for n, error in ((1, PoleError), (2, AssertionError)):
            x = dict.fromkeys((1, 2), DenseMatrix.identity(n))
            with pytest.raises(error, match="N=1" if n == 1 else "traced"):
                evaluate_moment(self.EXPR, x, n, mode=mode, tables=TABLES)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("kappa", [None, lambda cycles: Fraction(0)])
    def test_cumulant_pole_and_missing_matrix(self, mode, kappa, monkeypatch):
        one = DenseMatrix.identity(1)
        with pytest.raises(PoleError, match="N=1"):
            trace_cumulant(self.ARGS, matrices={1: one, 2: one}, n=1, mode=mode,
                           kappa=kappa, tables=TABLES)
        self.no_enumeration(monkeypatch)
        for n in (1, 2):
            with pytest.raises(ValidationError, match="no matrix for label 2"):
                trace_cumulant(self.ARGS, matrices={1: DenseMatrix.identity(n)}, n=n,
                               mode=mode, kappa=kappa, tables=TABLES)


class TestColorConsistency:
    def test_conjugated_words(self):
        e = TraceExpression.conjugated_word([1, 2, 1], [1, 2, 3])
        for term in expand_moment(e, TABLES):
            assert check_conjugated_color_consistency(e, term)
        e2 = concatenate([TraceExpression.conjugated_word([1, 2], [1, 2]),
                          TraceExpression.conjugated_word([2, 1], [3, 4])])
        for term in expand_moment(e2, TABLES):
            assert check_conjugated_color_consistency(e2, term)


class TestSpokes:
    def test_p_not_q_is_zero(self):
        assert predicted_second_order_cov([[1]], [[1]], 1, 2) == 0

    def test_p1(self):
        assert predicted_second_order_cov([[Fraction(2, 3)]], [[Fraction(1, 5)]], 1, 1) == \
            Fraction(2, 3) + Fraction(1, 5)

    def test_p2_four_products(self):
        a = [[1, 2], [3, 4]]
        at = [[5, 6], [7, 8]]
        # direct anti-diagonal matchings plus transposed diagonal matchings
        expected = 1 * 4 + 2 * 3 + 5 * 8 + 6 * 7
        assert predicted_second_order_cov(a, at, 2, 2) == expected


class TestCentering:
    def test_identity_goes_to_zero(self):
        mats = center_slots({1: DenseMatrix.identity(3)})
        assert mats[1] == DenseMatrix.zeros(3)

    def test_trace_vanishes_and_idempotent(self):
        rng = random.Random(34)
        m = rational_matrix(rng, 4)
        once = center_slots({1: m})
        assert once[1].normalized_trace() == 0
        twice = center_slots(once)
        assert twice[1] == once[1]


class TestDimensionAndMode:
    """N must be a positive integer and mode "exact" or "float" at every
    numeric entry point; both are checked before any work."""

    # tr(O O^T) has identity slots only, so no matrix can reject a bad N first
    BARE = TraceExpression.single_trace([(1, 1, 0), (1, -1, 0)])

    @pytest.mark.parametrize("n", [0, -2, 2.0, None, True])
    def test_bad_dimension_raises(self, n):
        from haargenus.matrixlab import mc_cumulant, mc_entry_moment, mc_moment

        e = self.BARE
        calls = [
            lambda: evaluate_moment(e, {}, n, tables=TABLES),
            lambda: evaluate_moment(e, {}, n, mode="float", tables=TABLES),
            lambda: asymptotic_moment(e, TABLES).evaluate({}, n),
            lambda: trace_cumulant([e], matrices={}, n=n, tables=TABLES),
            lambda: trace_cumulant([e, e], trace_value=lambda c: Fraction(1), n=n,
                                   tables=TABLES),
            lambda: mc_moment(e, {}, n, 64, 1),
            lambda: mc_cumulant([e, e], {}, n, 64, 1, 2),
            lambda: mc_entry_moment(n, {}, 64, 1),
        ]
        for call in calls:
            with pytest.raises(ValidationError):
                call()

    def test_unknown_mode_raises(self):
        e = TraceExpression.single_trace([(1, 1, 1), (1, -1, 2)])
        x = {1: DenseMatrix([[1, 2], [3, 4]]), 2: DenseMatrix([[0, 1], [5, 1]])}
        assert trace_cumulant([e, e], matrices=x, n=2, tables=TABLES) == \
            trace_cumulant([e, e], matrices=x, n=2, mode="exact", tables=TABLES)
        for mode in ("Float", "EXACT", "symbolic", ""):
            calls = [
                lambda: evaluate_moment(e, x, 2, mode=mode, tables=TABLES),
                lambda: asymptotic_moment(e, TABLES).evaluate(x, 2, mode=mode),
                lambda: trace_cumulant([e, e], matrices=x, n=2, mode=mode, tables=TABLES),
                lambda: trace_cumulant([e, e], trace_value=lambda c: Fraction(1), n=2,
                                       mode=mode, tables=TABLES),
            ]
            for call in calls:
                with pytest.raises(ValidationError, match="mode"):
                    call()
