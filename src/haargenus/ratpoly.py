"""Exact univariate polynomial and rational-function arithmetic over Z.

Polynomials in the matrix dimension N are dense tuples of big integers,
ascending powers.  PolyFrac is a reduced ratio of two such polynomials with a
primitive, positively-led denominator, so representations are unique and
symbolic identities can be tested with ==.  A fraction-free (Bareiss) solver
provides exact solutions of small polynomial linear systems.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import PoleError, ValidationError

Poly = tuple[int, ...]

ZERO: Poly = ()
ONE: Poly = (1,)
N: Poly = (0, 1)


def poly(coeffs: Iterable[int]) -> Poly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_const(v: int) -> Poly:
    return (v,) if v else ()


def monomial(k: int, coeff: int = 1) -> Poly:
    if coeff == 0:
        return ZERO
    return tuple([0] * k + [coeff])


def degree(p: Poly) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(p) - 1


def leading(p: Poly) -> int:
    return p[-1] if p else 0


def padd(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    c = list(a)
    for i, v in enumerate(b):
        c[i] += v
    return poly(c)


def pneg(a: Poly) -> Poly:
    return tuple(-v for v in a)


def psub(a: Poly, b: Poly) -> Poly:
    return padd(a, pneg(b))


def pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ZERO
    c = [0] * (len(a) + len(b) - 1)
    for i, va in enumerate(a):
        if va:
            for j, vb in enumerate(b):
                c[i + j] += va * vb
    return poly(c)


def pscale(a: Poly, s: int) -> Poly:
    if s == 0:
        return ZERO
    return tuple(v * s for v in a)


def pshift(a: Poly, k: int) -> Poly:
    """Multiply by N^k."""
    if not a:
        return ZERO
    return tuple([0] * k + list(a))


def peval(a: Poly, x):
    acc = 0
    for v in reversed(a):
        acc = acc * x + v
    return acc


def content(a: Poly) -> int:
    return math.gcd(*a) if a else 0


def primitive(a: Poly) -> Poly:
    c = content(a)
    if c in (0, 1):
        return a
    return tuple(v // c for v in a)


def pdivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Division when it is exact over Z step by step (used with such inputs)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [0] * max(0, len(a) - len(b) + 1)
    r = list(a)
    lb = b[-1]
    while len(r) >= len(b) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(b):
            break
        c, rem = divmod(r[-1], lb)
        if rem:
            raise ValidationError("polynomial division is not exact over Z")
        shift = len(r) - len(b)
        q[shift] = c
        for i, v in enumerate(b):
            r[shift + i] -= c * v
    return poly(q), poly(r)


def exact_div(a: Poly, b: Poly) -> Poly:
    q, r = pdivmod(a, b)
    if r:
        raise ValidationError("expected exact polynomial division")
    return q


def pseudo_rem(a: Poly, b: Poly) -> Poly:
    """Remainder of lc(b)^(deg a - deg b + 1) * a by b; stays over Z."""
    if not b:
        raise ZeroDivisionError("pseudo remainder by zero")
    r = list(a)
    lb = b[-1]
    power = max(0, len(a) - len(b) + 1)
    r = [v * lb ** power for v in r]
    while True:
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(b):
            break
        c = r[-1] // lb  # exact by construction
        shift = len(r) - len(b)
        for i, v in enumerate(b):
            r[shift + i] -= c * v
    return poly(r)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Gcd over Z (content included), normalized to positive leading coeff."""
    if not a:
        g = b
    elif not b:
        g = a
    else:
        ca, cb = content(a), content(b)
        x, y = primitive(a), primitive(b)
        while y:
            r = pseudo_rem(x, y)
            x, y = y, primitive(r)
        g = pscale(primitive(x), math.gcd(ca, cb))
    if leading(g) < 0:
        g = pneg(g)
    return g


def integer_roots(p: Poly) -> tuple[list[tuple[int, int]], Poly, int, int]:
    """Factor out integer roots: returns (roots, residual, n_power, const).

    p = const * N^n_power * prod (N - r)^mult * residual, residual primitive
    with no integer roots (or ONE).
    """
    if not p:
        return [], ZERO, 0, 0
    const = content(p)
    if leading(p) < 0:
        const = -const
    work = primitive(p)
    if leading(work) < 0:
        work = pneg(work)
    n_power = 0
    while work and work[0] == 0:
        work = work[1:]
        n_power += 1
    roots: list[tuple[int, int]] = []
    if work and len(work) > 1:
        c0 = abs(work[0])
        small = [d for d in range(1, math.isqrt(c0) + 1) if c0 % d == 0]
        for mag in sorted({*small, *(c0 // d for d in small)}):
            for r in (mag, -mag):
                mult = 0
                while len(work) > 1 and peval(work, r) == 0:
                    work = exact_div(work, (-r, 1))
                    mult += 1
                if mult:
                    roots.append((r, mult))
    return roots, work, n_power, const


class PolyFrac:
    """Reduced ratio of integer polynomials in N; unique representation."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        num = _as_poly(num)
        den = _as_poly(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num, self.den = ZERO, ONE
            return
        g = poly_gcd(num, den)
        if degree(g) > 0 or abs(leading(g)) > 1:
            num = exact_div(num, g)
            den = exact_div(den, g)
        if leading(den) < 0:
            num, den = pneg(num), pneg(den)
        self.num, self.den = num, den

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_fraction(cls, q: Fraction) -> "PolyFrac":
        q = Fraction(q)
        return cls(poly_const(q.numerator), poly_const(q.denominator))

    @classmethod
    def n_power(cls, k: int) -> "PolyFrac":
        """N^k for any integer k."""
        if k >= 0:
            return cls(monomial(k))
        return cls(ONE, monomial(-k))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "PolyFrac":
        other = _as_polyfrac(other)
        return PolyFrac(padd(pmul(self.num, other.den), pmul(other.num, self.den)),
                        pmul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self) -> "PolyFrac":
        return PolyFrac(pneg(self.num), self.den)

    def __sub__(self, other) -> "PolyFrac":
        return self + (-_as_polyfrac(other))

    def __rsub__(self, other) -> "PolyFrac":
        return _as_polyfrac(other) + (-self)

    def __mul__(self, other) -> "PolyFrac":
        other = _as_polyfrac(other)
        return PolyFrac(pmul(self.num, other.num), pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "PolyFrac":
        other = _as_polyfrac(other)
        if not other.num:
            raise ZeroDivisionError("division by zero polynomial fraction")
        return PolyFrac(pmul(self.num, other.den), pmul(self.den, other.num))

    def __rtruediv__(self, other) -> "PolyFrac":
        return _as_polyfrac(other) / self

    def __pow__(self, k: int) -> "PolyFrac":
        if k < 0:
            return PolyFrac(ONE) / self ** (-k)
        out = PolyFrac(ONE)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        other = _as_polyfrac(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        return bool(self.num)

    # -- analysis -----------------------------------------------------------

    def degree(self) -> int:
        """deg(num) - deg(den); the order of growth in N."""
        if not self.num:
            return -(10 ** 9)
        return degree(self.num) - degree(self.den)

    def eval_at(self, n0) -> Fraction:
        dval = peval(self.den, Fraction(n0))
        if dval == 0:
            roots, _, npow, _ = integer_roots(self.den)
            factors = []
            if npow:
                factors.append("N" if npow == 1 else f"N^{npow}")
            factors += [_linear_str(r) + (f"^{m}" if m > 1 else "") for r, m in roots]
            raise PoleError(
                f"pole at N={n0}: denominator vanishes (factors {'*'.join(factors) or self.den})",
                n_value=n0, factors=factors)
        return Fraction(peval(self.num, Fraction(n0))) / dval

    def poles(self) -> list[int]:
        roots, _, npow, _ = integer_roots(self.den)
        out = [0] * (1 if npow else 0) + [r for r, _ in roots]
        return sorted(set(out))

    def limit_at_infinity(self) -> Fraction:
        d = self.degree()
        if not self.num:
            return Fraction(0)
        if d > 0:
            raise ValidationError("diverges as N grows")
        if d < 0:
            return Fraction(0)
        return Fraction(leading(self.num), leading(self.den))

    # -- rendering / serialization -------------------------------------------

    def __repr__(self) -> str:
        return f"PolyFrac({format_polyfrac(self)})"

    def to_json(self) -> dict:
        return {"num": list(self.num), "den": list(self.den)}

    @classmethod
    def from_json(cls, data: dict) -> "PolyFrac":
        return cls(tuple(data["num"]), tuple(data["den"]))


def _as_poly(p) -> Poly:
    if isinstance(p, tuple):
        return poly(p)
    if isinstance(p, (list,)):
        return poly(p)
    if isinstance(p, int):
        return poly_const(p)
    raise ValidationError(f"cannot interpret {p!r} as a polynomial")


def _as_polyfrac(v) -> PolyFrac:
    if isinstance(v, PolyFrac):
        return v
    if isinstance(v, int):
        return PolyFrac(poly_const(v))
    if isinstance(v, Fraction):
        return PolyFrac.from_fraction(v)
    raise ValidationError(f"cannot interpret {v!r} as a polynomial fraction")


def _linear_str(root: int) -> str:
    if root == 0:
        return "N"
    return f"(N{'-' if root > 0 else '+'}{abs(root)})"


def _poly_expanded_str(p: Poly) -> str:
    if not p:
        return "0"
    parts = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if c == 0:
            continue
        if k == 0:
            term = str(abs(c))
        else:
            base = "N" if k == 1 else f"N^{k}"
            term = base if abs(c) == 1 else f"{abs(c)}*{base}"
        parts.append(("-" if c < 0 else "+", term))
    sign, first = parts[0]
    out = ("-" if sign == "-" else "") + first
    for sign, term in parts[1:]:
        out += sign + term
    return out


def _factored_parts(p: Poly) -> tuple[int, list[str]]:
    """Split p into an integer constant and ordered factor strings.

    Factor order: N^k, then (N+a) by ascending a, then (N-a) by ascending a;
    an irreducible residual is rendered expanded in parentheses.
    """
    roots, residual, npow, const = integer_roots(p)
    factors: list[str] = []
    if npow:
        factors.append("N" if npow == 1 else f"N^{npow}")
    pos = sorted([(abs(r), m) for r, m in roots if r < 0])
    neg = sorted([(abs(r), m) for r, m in roots if r > 0])
    for a, m in pos:
        factors.append(f"(N+{a})" + (f"^{m}" if m > 1 else ""))
    for a, m in neg:
        factors.append(f"(N-{a})" + (f"^{m}" if m > 1 else ""))
    if degree(residual) > 0:
        factors.append(f"({_poly_expanded_str(residual)})")
    return const, factors


def format_polyfrac(pf: PolyFrac) -> str:
    """Canonical factored string, e.g. 2*N^6/((N+1)*(N+2)*(N+6)*(N-1)*(N-2)*(N-3))."""
    if not pf.num:
        return "0"
    nconst, nfactors = _factored_parts(pf.num)
    dconst, dfactors = _factored_parts(pf.den)
    parts = [] if (abs(nconst) == 1 and nfactors) else [str(abs(nconst))]
    num_str = ("-" if nconst < 0 else "") + "*".join(parts + nfactors)
    if pf.den == ONE:
        return num_str
    dparts = ([str(dconst)] if dconst != 1 else []) + dfactors
    den_str = "*".join(dparts)
    if len(dparts) > 1:
        den_str = f"({den_str})"
    return f"{num_str}/{den_str}"


# -- exact linear algebra -----------------------------------------------------


def bareiss_solve(a: Sequence[Sequence[Poly]], b: Sequence[Poly]) -> list[PolyFrac]:
    """Solve A x = b over the fraction field, A a square polynomial matrix.

    Fraction-free forward elimination keeps every intermediate entry a
    polynomial over Z (minors of A), then back-substitution forms PolyFracs.
    """
    p = len(a)
    m = [[_as_poly(v) for v in row] + [_as_poly(b[i])] for i, row in enumerate(a)]
    prev = ONE
    for k in range(p):
        pivot_row = next((r for r in range(k, p) if m[r][k]), None)
        if pivot_row is None:
            raise ValidationError("singular polynomial matrix")
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
        for i in range(k + 1, p):
            for j in range(k + 1, p + 1):
                m[i][j] = exact_div(psub(pmul(m[k][k], m[i][j]), pmul(m[i][k], m[k][j])), prev)
            m[i][k] = ZERO
        prev = m[k][k]
    x: list[PolyFrac] = [PolyFrac(ZERO)] * p
    for i in range(p - 1, -1, -1):
        acc = PolyFrac(m[i][p])
        for j in range(i + 1, p):
            acc = acc - PolyFrac(m[i][j]) * x[j]
        x[i] = acc / PolyFrac(m[i][i])
    return x
