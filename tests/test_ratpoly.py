import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haargenus.errors import PoleError, ValidationError
from haargenus.ratpoly import (ONE, PolyFrac, bareiss_solve, format_polyfrac,
                               integer_roots, monomial, padd, pmul, poly,
                               poly_gcd)
from oracles import polyfrac_solve


def pf(num, den=(1,)):
    return PolyFrac(num, den)


class TestPoly:
    def test_normalization_strips_zeros(self):
        assert poly([1, 2, 0, 0]) == (1, 2)
        assert poly([0, 0]) == ()

    def test_gcd(self):
        # (N-1)(N+2) and (N-1)N share the factor (N-1)
        a = pmul((-1, 1), (2, 1))
        b = pmul((-1, 1), (0, 1))
        assert poly_gcd(a, b) == (-1, 1)
        assert poly_gcd((4, 8), (6,)) == (2,)

    def test_integer_roots(self):
        p = pmul(pmul((-1, 1), (2, 1)), (0, 2))  # 2N(N-1)(N+2)
        roots, residual, npow, const = integer_roots(p)
        assert sorted(roots) == [(-2, 1), (1, 1)]
        assert residual == ONE and npow == 1 and const == 2

    def test_integer_roots_large_and_small(self):
        # roots 3 and -9999991 next to an irreducible N^2 + 2; the constant
        # term has magnitude about 6 * 10^7
        p = pmul(pmul((-3, 1), (9999991, 1)), (2, 0, 1))
        roots, residual, npow, const = integer_roots(pmul(p, (5,)))
        assert roots == [(3, 1), (-9999991, 1)]
        assert residual == (2, 0, 1) and npow == 0 and const == 5
        assert format_polyfrac(PolyFrac(1, (10 ** 7, 1))) == "1/(N+10000000)"


class TestPolyFrac:
    def test_reduction(self):
        # (N^2 - 1) / (N - 1) = N + 1
        assert pf((-1, 0, 1), (-1, 1)) == pf((1, 1))

    def test_denominator_sign(self):
        v = pf((1,), (-1, -1))  # 1 / (-1 - N)
        assert v.den[-1] > 0 and v.num == (-1,)

    def test_content_reduction(self):
        assert pf((2, 4), (2,)) == pf((1, 2))

    def test_zero(self):
        assert not pf(0)
        assert pf(0) + pf((1, 2)) == pf((1, 2))

    def test_arithmetic(self):
        a = pf((1,), (0, 1))        # 1/N
        b = pf((0, 1))              # N
        assert a * b == pf((1,))
        assert a + a == pf((2,), (0, 1))
        assert b - b == pf(0)
        assert (a / b) == pf((1,), (0, 0, 1))
        assert b ** 3 == pf((0, 0, 0, 1))
        assert PolyFrac.n_power(-2) == pf((1,), (0, 0, 1))

    def test_eval(self):
        v = pf((1, 1), (0, 1))  # (1+N)/N
        assert v.eval_at(4) == Fraction(5, 4)
        assert v.eval_at(Fraction(1, 2)) == 3

    def test_pole_reports_factors(self):
        v = pf((1,), pmul((-2, 1), (1, 1)))  # 1/((N-2)(N+1))
        with pytest.raises(PoleError) as err:
            v.eval_at(2)
        assert err.value.n_value == 2
        assert "(N-2)" in str(err.value)
        assert v.poles() == [-1, 2]

    def test_limit_at_infinity(self):
        assert pf((0, 3), (2, 1)).limit_at_infinity() == 3
        assert pf((1,), (0, 1)).limit_at_infinity() == 0
        with pytest.raises(ValidationError):
            pf((0, 0, 1), (0, 1)).limit_at_infinity()

    def test_degree(self):
        assert pf((0, 0, 1), (1, 1)).degree() == 1
        assert pf((1,), (0, 0, 1)).degree() == -2

    def test_json_round_trip(self):
        v = pf((1, 2), (3, 0, 1))
        assert PolyFrac.from_json(v.to_json()) == v

    def test_format(self):
        assert format_polyfrac(pf((1,), (0, 1))) == "1/N"
        assert format_polyfrac(pf((0, 0, 2))) == "2*N^2"
        assert format_polyfrac(pf((-1,), pmul((0, 1), pmul((2, 1), (-1, 1))))) == \
            "-1/(N*(N+2)*(N-1))"
        assert format_polyfrac(pf(0)) == "0"
        assert format_polyfrac(pf((5,), (3,))) == "5/3"


def _random_polyfrac(rng):
    """A fraction with small integer coefficients and shared linear factors
    (N + r), so that reduction has common factors and content to cancel."""
    def part():
        p = poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]) or (1,)
        for _ in range(rng.randint(0, 2)):
            p = pmul(p, (rng.randint(-3, 3), 1))
        return pmul(p, (rng.choice([1, 2, 3]),))

    common = (rng.randint(-3, 3), 1) if rng.random() < 0.5 else ONE
    return pmul(part(), common), pmul(part(), common)


class TestSympyOracle:
    """PolyFrac arithmetic and analysis against sympy on seeded random fractions."""

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        n = sympy.Symbol("N")

        def expr(num, den):
            return sympy.Poly(list(reversed(num)), n).as_expr() / \
                sympy.Poly(list(reversed(den)), n).as_expr()

        def check(got, want):
            want = sympy.cancel(want)
            assert sympy.cancel(expr(got.num, got.den) - want) == 0
            # lowest terms over Z[N], content included, denominator leading > 0
            g = sympy.gcd(sympy.Poly(list(reversed(got.num)), n),
                          sympy.Poly(list(reversed(got.den)), n))
            assert got.num == () or g.degree() == 0 and abs(g.LC()) == 1
            assert got.den[-1] > 0
            wnum, wden = (sympy.Poly(p, n) for p in sympy.fraction(want))
            assert got.poles() == sorted(int(r) for r in sympy.roots(wden) if r.is_integer)
            for n0 in range(-4, 5):
                if wden.eval(n0) == 0:
                    with pytest.raises(PoleError):
                        got.eval_at(n0)
                else:
                    assert got.eval_at(n0) == Fraction(str(wnum.eval(n0) / wden.eval(n0)))
            limit = sympy.limit(want, n, sympy.oo)
            if limit.is_infinite:
                with pytest.raises(ValidationError):
                    got.limit_at_infinity()
            else:
                assert got.limit_at_infinity() == Fraction(str(limit))

        rng = random.Random(61)
        for _ in range(15):
            a, b = _random_polyfrac(rng), _random_polyfrac(rng)
            x, y = PolyFrac(*a), PolyFrac(*b)
            ex, ey = expr(*a), expr(*b)
            check(x, ex)
            check(x + y, ex + ey)
            check(x - y, ex - ey)
            check(x * y, ex * ey)
            if y:
                check(x / y, ex / ey)


class TestLinearSolvers:
    def test_bareiss_against_fraction_solve(self):
        rng = random.Random(12)
        for _ in range(20):
            p = rng.randint(1, 4)
            a_int = [[rng.randint(-4, 4) for _ in range(p)] for _ in range(p)]
            b_int = [rng.randint(-4, 4) for _ in range(p)]
            det = _det(a_int)
            if det == 0:
                continue
            a = [[(v,) if v else () for v in row] for row in a_int]
            b = [(v,) if v else () for v in b_int]
            x = bareiss_solve(a, b)
            expected = _fraction_solve(a_int, b_int)
            for xi, ei in zip(x, expected):
                assert xi.eval_at(0) == ei if xi.num else ei == 0
                assert xi == PolyFrac.from_fraction(ei)

    def test_bareiss_polynomial_system(self):
        # [[N, 1], [1, N]] x = [1, 0]  ->  x = (N, -1)/(N^2 - 1)
        a = [[(0, 1), (1,)], [(1,), (0, 1)]]
        x = bareiss_solve(a, [(1,), ()])
        assert x[0] == pf((0, 1), (-1, 0, 1))
        assert x[1] == pf((-1,), (-1, 0, 1))

    def test_bareiss_singular(self):
        with pytest.raises(ValidationError):
            bareiss_solve([[(1,), (1,)], [(1,), (1,)]], [(1,), ()])

    def test_polyfrac_solve_inverse(self):
        a = [[pf((0, 1)), pf((1,))], [pf((1,)), pf((0, 1))]]
        rhs = [[pf(1), pf(0)], [pf(0), pf(1)]]
        inv = polyfrac_solve(a, rhs)
        # multiply back
        for i in range(2):
            for j in range(2):
                acc = pf(0)
                for k in range(2):
                    acc = acc + a[i][k] * inv[k][j]
                assert acc == (pf(1) if i == j else pf(0))


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def _fraction_solve(a, b):
    n = len(a)
    m = [[Fraction(v) for v in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    for k in range(n):
        pivot = next(r for r in range(k, n) if m[r][k])
        m[k], m[pivot] = m[pivot], m[k]
        m[k] = [v / m[k][k] for v in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                f = m[i][k]
                m[i] = [vi - f * vk for vi, vk in zip(m[i], m[k])]
    return [m[i][n] for i in range(n)]


small_polys = st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=4) \
    .map(tuple).filter(lambda t: any(t))


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_field_laws(a, b, c):
    x, y, z = PolyFrac(a), PolyFrac(b, c), PolyFrac(c)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert (x / y) * y == x
