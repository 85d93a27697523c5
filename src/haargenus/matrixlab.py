"""Dense matrix arithmetic, Haar orthogonal sampling, Monte Carlo estimators,
and the entrywise brute-force moment oracle.

An exact matrix is made in integer form, its entries scaled to integers
over one common denominator, with their bound and int64 array; its Fraction
rows are formed on demand.  Float matrices hold numpy arrays.  Traces along
label cycles run in one kernel for both modes, `trace_numerators`: the
cycles of one call form one stack per dimension and dtype, sorted by length,
that multiplies level by level on a shrinking leading slice.  Small calls
are common (a call's new cycles, often a handful), so the set-up takes few
numpy calls: a cached mask per row width places the factors and the stack
of factors is filled by assignment.  An exact cycle runs in the int64 stack
where a bound proves that no partial sum overflows and in the Python-int
stack otherwise, and its trace is an integer numerator over the product of
its factors' denominators; `traces_along` forms one Fraction per cycle from
them.  A float stack multiplies from the left and sums each trace as numpy
sums one matrix's, so every float trace is the one of multiplying that
cycle's matrices in turn.  The brute-force oracle and the Monte Carlo
estimators take an empty trace as tr(I) / N = 1.

The Monte Carlo estimators use per-sample Philox substreams on a fixed chunk
grid: sample i draws from the counter-based stream keyed by (seed, i), and
each chunk of MC_CHUNK samples rekeys one generator per sample, stacks the
Gaussian draws, makes one batched QR with the sign fix and evaluates the
statistic on the stack, one numpy array of per-sample values per chunk.
Every total, batch total and jackknife sum is `math.fsum`, which rounds the
exact sum once, so it does not depend on the order of the values: a result
is reproducible bit for bit for a given seed and depends on neither the
chunk size nor the worker count.

`workers` caps the threads; they are used only when N >= MC_THREAD_MIN_N.
Below that a chunk is mostly short numpy calls between Python steps (the
rekey, a small draw, the QR wrapper), each holding the GIL, so threads pass
the lock back and forth and lose: on a 2-vCPU host with BLAS on one thread,
`mc_moment` (4 positions, 512 samples, one colour) took 1.1-1.6x as long on
two threads as on one for N = 8-24, the same at N = 32 and 0.64x at 48.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .weingarten import TableSet
from .setpart import enumerate_pairings, join_of_pairings_diagram

RNG_NAME = "philox4x64"
MC_CHUNK = 64
MC_THREAD_MIN_N = 32  # smallest N whose chunks run on threads; see above
INT64_LIMIT = 2 ** 63  # an exact cycle runs in int64 only if its bound is below this


class DenseMatrix:
    """A square matrix in a uniform scalar mode: exact rationals or floats.

    Entries may be ints, Fractions, strings that `Fraction` accepts, or
    floats; one float entry makes the whole matrix float.  A bool entry or a
    non-finite float is refused, in `arr` too, so a float product, sum or
    multiple that overflows raises ValidationError.  An exact matrix is made
    in integer form (`integer_form`), with what `trace_numerators` reads of
    it: `_bound`, max(1, largest |integer entry|), and `_int64`, the integer
    rows as an int64 array when that bound is below INT64_LIMIT (else None).
    Its Fraction rows are kept when it is made from Fractions and formed on
    first use otherwise, so a "p/q" string of ASCII digits is read by two
    int() parses and never becomes a Fraction on the way to a trace."""

    __slots__ = ("mode", "n", "_rows", "_arr", "_ints", "_bound", "_int64")

    def __init__(self, rows=None, *, arr=None):
        self._rows = self._ints = self._arr = self._bound = self._int64 = None
        if arr is None:
            rows = [list(r) for r in rows]
            n = len(rows)
            if any(len(r) != n for r in rows):
                raise ValidationError("matrix must be square")
            flat = [v for r in rows for v in r]
            for v in (v for v in flat if isinstance(v, bool)):
                raise ValidationError(f"matrix entries must be numbers, got {v!r}")
            if any(isinstance(v, float) for v in flat):
                arr = np.array([v if isinstance(v, float) else operator.truediv(*_rational(v))
                                for v in flat], dtype=float).reshape(n, n)
        if arr is not None:
            arr = np.asarray(arr, dtype=float)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ValidationError("matrix must be square")
            for v in arr[~np.isfinite(arr)].tolist():
                raise ValidationError(f"matrix entries must be finite, got {v!r}")
            self.mode = "float"
            self.n = arr.shape[0]
            self._arr = arr
            return
        self.mode = "exact"
        self.n = n
        pairs = list(map(_rational, flat))
        den = math.lcm(*[q for _, q in pairs])
        ints = [p if q == den else p * (den // q) for p, q in pairs]
        self._bound = max(1, max(map(abs, ints), default=0))
        self._int64 = np.array(ints, dtype=np.int64).reshape(n, n) \
            if self._bound < INT64_LIMIT else None
        int_rows = tuple(tuple(ints[i:i + n]) for i in range(0, n * n, n))
        self._ints = (den, int_rows, tuple(zip(*int_rows)))
        if all(type(v) is Fraction for v in flat):
            self._rows = tuple(map(tuple, rows))

    @classmethod
    def identity(cls, n: int, mode: str = "exact") -> "DenseMatrix":
        if mode == "float":
            return cls(arr=np.eye(n))
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, n: int, mode: str = "exact") -> "DenseMatrix":
        if mode == "float":
            return cls(arr=np.zeros((n, n)))
        return cls([[0] * n for _ in range(n)])

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as Fractions, formed from the integer form on first use."""
        if self.mode != "exact":
            raise ValidationError("rows are only stored in exact mode")
        if self._rows is None:
            den, ints, _ = self._ints
            self._rows = tuple(tuple(Fraction(v, den) for v in r) for r in ints)
        return self._rows

    def integer_form(self) -> tuple[int, tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """(den, rows, cols) with this exact matrix = rows / den, den the lcm of
        the entries' denominators; cols holds the same integers by column."""
        if self.mode != "exact":
            raise ValidationError("integer form is only defined in exact mode")
        return self._ints

    def as_numpy(self) -> np.ndarray:
        if self.mode == "float":
            return self._arr
        den, ints, _ = self._ints
        # int / int rounds the exact quotient once, as float(Fraction) does
        return np.array([[v / den for v in r] for r in ints], dtype=float).reshape(self.n, self.n)

    def to_float(self) -> "DenseMatrix":
        return self if self.mode == "float" else DenseMatrix(arr=self.as_numpy())

    def transpose(self) -> "DenseMatrix":
        if self.mode == "float":
            return DenseMatrix(arr=self._arr.T.copy())
        return DenseMatrix(list(zip(*self.rows)))

    def matmul(self, other: "DenseMatrix") -> "DenseMatrix":
        self._check_compatible(other)
        if self.mode == "float":
            return DenseMatrix(arr=self._arr @ other._arr)
        bt = list(zip(*other.rows))
        return DenseMatrix([[sum(a * b for a, b in zip(row, col)) for col in bt]
                            for row in self.rows])

    __matmul__ = matmul

    def add(self, other: "DenseMatrix") -> "DenseMatrix":
        self._check_compatible(other)
        if self.mode == "float":
            return DenseMatrix(arr=self._arr + other._arr)
        return DenseMatrix([[a + b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.rows, other.rows)])

    def scale(self, s) -> "DenseMatrix":
        if self.mode == "float":
            return DenseMatrix(arr=self._arr * float(s))
        return DenseMatrix([[v * Fraction(s) for v in r] for r in self.rows])

    def sub(self, other: "DenseMatrix") -> "DenseMatrix":
        return self.add(other.scale(-1))

    def trace(self):
        if self.mode == "float":
            return float(np.trace(self._arr))
        return sum(self.rows[i][i] for i in range(self.n))

    def normalized_trace(self):
        t = self.trace()
        return t / self.n if self.mode == "float" else Fraction(t, self.n)

    def _check_compatible(self, other: "DenseMatrix") -> None:
        if self.n != other.n:
            raise ValidationError(f"dimension mismatch: {self.n} vs {other.n}")
        if self.mode != other.mode:
            raise ValidationError("mixed exact and float matrices")

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseMatrix) or self.n != other.n or self.mode != other.mode:
            return False
        if self.mode == "float":
            return bool(np.array_equal(self._arr, other._arr))
        return self._ints[:2] == other._ints[:2]  # the integer form is unique

    def __repr__(self) -> str:
        return f"DenseMatrix(n={self.n}, mode={self.mode})"

    def to_json(self) -> list[list]:
        if self.mode == "float":
            return [[float(v) for v in r] for r in self._arr]
        return [[str(v) for v in r] for r in self.rows]

    @classmethod
    def from_json(cls, data) -> "DenseMatrix":
        """The matrix of `to_json`'s rows, or of rows of JSON numbers and
        rational strings."""
        return cls(data)


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")  # the strings read by int()


def _rational(v) -> tuple[int, int]:
    """(numerator, denominator) of an exact entry in lowest terms, as
    `Fraction(v)` has them: "p" and "p/q" (ASCII digits, q > 0) by int(),
    and every other string, accepted or refused with its error, by
    `Fraction`."""
    if type(v) is int:
        return v, 1
    if type(v) is str and (m := _RATIONAL.fullmatch(v)):
        p, q = int(m[1]), int(m[2] or 1)
        if q:  # "p/0" is left to Fraction's ZeroDivisionError
            g = math.gcd(p, q)
            return p // g, q // g
    v = v if type(v) is Fraction else Fraction(v)
    return v.numerator, v.denominator


def block_diagonal_repeat(block: DenseMatrix, n: int) -> DenseMatrix:
    """Copies of `block` down the diagonal of an n x n matrix.

    Traces of words in such matrices equal the block-word traces after
    normalization, so they do not depend on n (n a multiple of the block
    size); this gives exact matrix families with a limit distribution.
    """
    m = block.n
    if n % m:
        raise ValidationError("dimension must be a multiple of the block size")
    if block.mode == "float":
        out = np.zeros((n, n))
        for s in range(0, n, m):
            out[s:s + m, s:s + m] = block.as_numpy()
        return DenseMatrix(arr=out)
    zero = Fraction(0)
    rows = []
    for r in range(n):
        row = [zero] * n
        base = (r // m) * m
        for c in range(m):
            row[base + c] = block.rows[r % m][c]
        rows.append(row)
    return DenseMatrix(rows)


def check_dimension(n) -> None:
    """N, the dimension of every matrix, must be a positive integer (not a bool)."""
    if not _integer_at_least(n, 1):
        raise ValidationError(f"N must be a positive integer, got {n!r}")


def _slot_matrix(matrices: Mapping[int, DenseMatrix], label: int) -> DenseMatrix:
    """The stored matrix of a signed label, before any transpose."""
    base = matrices.get(abs(label))
    if base is None:
        raise ValidationError(f"no matrix for label {abs(label)}")
    return base


def resolve_slot(matrices: Mapping[int, DenseMatrix], label: int) -> DenseMatrix:
    """Matrix for a signed label: negative labels mean the transpose."""
    base = _slot_matrix(matrices, label)
    return base.transpose() if label < 0 else base


def trace_numerators(cycles: Sequence[Sequence[int]], matrices: Mapping[int, DenseMatrix],
                     normalized: bool = False) -> tuple[list, list[int]]:
    """(numerators, denominators) of the trace of the product of the matrices
    along each cycle, as one batch: cycle i's trace is nums[i] / dens[i].

    Entries are signed labels (negative: the transpose), and the matrices of
    one call are all exact or all float.  A cycle's denominator is the
    product of its factors' denominators, times N when normalized.  The
    cycles of one dimension N and one dtype form one stack, sorted by length,
    longest first (`_stack_traces`): level j multiplies in factor j of the
    cycles still that long, a leading slice that shrinks, so each cycle takes
    exactly its own products.  Each cycle's row of factor indices is padded
    with an identity factor of denominator and bound 1, which no product
    reads (an exact length-1 cycle folds its factor into the identity).

    Exact: each factor is its integer form over its denominator (fraction-free,
    as in Bareiss elimination), so each numerator is a Python int, not reduced
    against its denominator.  A cycle takes L - 2 products and one fold of its
    last factor into the trace, sum over i, j of P[i][j] B[j][i].  No partial
    sum exceeds N^L times the product of max(1, largest |entry|) over the
    factors, so a cycle whose bound is below 2^63 runs in the int64 stack and
    the others in the Python-int (dtype object) stack, by the same code; no
    value passes through a float.  Denominators and bounds are products over
    per-label arrays, in int64 only where the largest product they could
    reach is below 2^63.

    Float: the numerator is the trace, from L - 1 products from the left and
    `np.trace` of each: the operations, in their order, of multiplying one
    cycle's matrices in turn (einsum or the exact fold would sum in another
    order); the denominator is 1, or N when normalized."""
    if not cycles:
        return [], []
    flat = list(itertools.chain.from_iterable(cycles))
    row = dict.fromkeys(flat)  # label -> its place in the per-label lists
    sizes, dens, bounds = [], [], []
    factors = []  # per label: (int64 array, None if too large, or float array; Python-int rows)
    mode = None
    for label in row:
        m = _slot_matrix(matrices, label)
        mode = mode or m.mode
        if m.mode != mode:
            raise ValidationError("mixed exact and float matrices")
        row[label] = len(sizes)
        sizes.append(m.n)
        if mode == "exact":
            d, rows, cols = m.integer_form()
            dens.append(d)
            bounds.append(m._bound)
            fast = m._int64
            factors.append((fast.T if label < 0 and fast is not None else fast,
                            cols if label < 0 else rows))
        else:
            factors.append((m.as_numpy().T if label < 0 else m.as_numpy(), None))
    count = len(cycles)
    lens = list(map(len, cycles))
    if 0 in lens:
        raise ValidationError("a trace cycle needs at least one matrix")
    one_size = len(set(sizes)) == 1
    if not one_size:
        for cyc in cycles:
            n = sizes[row[cyc[0]]]
            for label in cyc:
                if sizes[row[label]] != n:
                    raise ValidationError(f"dimension mismatch: {n} vs {sizes[row[label]]}")
    exact = mode == "exact"
    order = sorted(range(count), key=lens.__getitem__, reverse=True)
    lengths = list(map(lens.__getitem__, order))  # longest first
    n = [sizes[row[cycles[i][0]]] for i in order] if not one_size else [sizes[0]] * count
    top = max(sizes)
    pad = len(sizes)  # the place of the identity factor

    # each cycle's factors as places in the per-label lists
    width = max(lengths[0], 2) if exact else lengths[0]
    padded = np.full((count, width), pad, dtype=np.intp)
    padded[_filled(width, exact)[lengths]] = np.fromiter(
        map(row.__getitem__, itertools.chain.from_iterable(map(cycles.__getitem__, order))),
        np.intp, len(flat))
    fits = [True] * count
    if exact:
        scale = top if normalized else 1
        den = np.array(dens + [1], dtype=np.int64 if max(dens) ** lengths[0] * scale
                       < INT64_LIMIT else object)[padded].prod(axis=1)
        den = (den * (top if one_size else np.array(n)) if normalized else den).tolist()
        if (top * max(bounds)) ** lengths[0] >= INT64_LIMIT:
            bound = np.array(bounds + [1], dtype=object)[padded].prod(axis=1).tolist()
            fits = [k ** length * b < INT64_LIMIT for k, length, b in zip(n, lengths, bound)]
    else:
        den = n if normalized else [1] * count

    # one stack per (dimension, int64 or not): its rows, in length order
    stacks: dict[tuple[int, bool], list[int]] = {}
    for place, key in enumerate(zip(n, fits)):
        stacks.setdefault(key, []).append(place)
    nums = [None] * count
    for (dim, fit), places in stacks.items():
        # every label's factor by its place, then the identity; a label of
        # another size, or too large for int64 in an int64 stack, is never
        # read and stands as zeros
        dtype = float if not exact else np.int64 if fit else object
        pick = 0 if fit else 1
        base = np.zeros((pad + 1, dim, dim), dtype)
        for j, factor in enumerate(factors):
            if sizes[j] == dim and factor[pick] is not None:
                base[j] = factor[pick]
        base[pad].flat[::dim + 1] = 1
        whole = len(places) == count
        # a float trace that overflows is refused by the caller, which names
        # its cycle, so numpy's overflow warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            traces = _stack_traces(base, padded if whole else padded[places],
                                   lengths if whole else [lengths[p] for p in places],
                                   exact)
        for place, t in zip(places, traces.tolist()):
            nums[place] = t
    # back to the caller's order
    inverse = sorted(range(count), key=order.__getitem__)
    return list(map(nums.__getitem__, inverse)), list(map(den.__getitem__, inverse))


@functools.lru_cache(maxsize=None)
def _filled(width: int, exact: bool) -> np.ndarray:
    """Row L marks the columns of a stack row `width` wide that a cycle of
    length L fills with its factors: an exact row holds factors 0..L-2 from
    the left and factor L-1 in its last column, a float row factors 0..L-1.
    Kept per width, the longest cycle of a call, so a few small arrays."""
    filled = np.arange(width) < np.arange(width + 1)[:, None] - exact
    if exact:
        filled[1:, -1] = True
    filled.flags.writeable = False
    return filled


def _stack_traces(base: np.ndarray, index: np.ndarray, lengths: list[int],
                  exact: bool) -> np.ndarray:
    """The trace of the product of the factors base[index[i]] of each row i,
    the rows sorted by length, longest first (see `trace_numerators` for the
    layout).  Level j multiplies factor j into the leading slice of rows that
    need it, as a new array, and sets aside a copy of the rows it leaves
    finished: exact rows take factors 1..L-2 and fold in their last column,
    float rows take factors 1..L-1 and `np.trace`."""
    prod = base[index[:, 0]]
    done = []  # the finished rows of each level, shortest last
    k = len(lengths)
    for j in range(1, lengths[0] - 1 if exact else lengths[0]):
        # the first k rows are long enough for factor j: L >= j + 2 (exact) or j + 1
        # (float); the first row always is
        rows = k
        while lengths[k - 1] < j + 1 + exact:
            k -= 1
        if k < rows:
            done.append(prod[k:rows].copy())
        prod = prod[:k] @ base[index[:k, j]]
    if done:
        prod = np.concatenate([prod] + done[::-1])
    if exact:
        return (prod * base[index[:, -1]].swapaxes(1, 2)).sum(axis=(1, 2))
    return np.trace(prod, axis1=1, axis2=2)


def traces_along(cycles: Sequence[Sequence[int]], matrices: Mapping[int, DenseMatrix],
                 normalized: bool = False) -> list:
    """Trace of the product of the matrices along each cycle, as one batch
    (`trace_numerators`): an exact cycle forms one Fraction, a float cycle
    divides its trace by N when normalized."""
    nums, dens = trace_numerators(cycles, matrices, normalized)
    return [t / d if isinstance(t, float) else Fraction(t, d) for t, d in zip(nums, dens)]


def trace_along(cycles: Iterable[Sequence[int]], matrices: Mapping[int, DenseMatrix],
                normalized: bool = False):
    """Product over cycles of their traces from `traces_along`, left to right;
    Fraction(1) for no cycle."""
    return math.prod(traces_along(list(cycles), matrices, normalized), start=Fraction(1))


# -- Haar sampling ------------------------------------------------------------


def _check_seed(seed) -> int:
    """A seed is the first of the two unsigned 64-bit words of a Philox key:
    an integer (numpy's too, but not a bool) in 0..2**64 - 1, returned as an
    int."""
    if not (_integer_at_least(seed, 0) and seed < 2 ** 64):
        raise ValidationError(f"seed must be an integer in 0..2**64 - 1, got {seed!r}")
    return int(seed)


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based substream for one sample."""
    seed = _check_seed(seed)
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _haar_from_gaussian(z: np.ndarray) -> np.ndarray:
    """Haar-distributed orthogonal matrices from a stack of Gaussian ones (last
    two axes): QR with the triangular factor's diagonal made positive, since
    plain QR is not Haar (Mezzadri 2007)."""
    q, r = np.linalg.qr(z)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return q * signs[..., None, :]


def haar_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed orthogonal n x n matrix drawn from `rng`."""
    return _haar_from_gaussian(rng.standard_normal((n, n)))


def _haar_chunk(n: int, count: int, seed: int, start: int, stop: int) -> np.ndarray:
    """Haar matrices of samples start..stop-1, `count` per sample, as a stack of
    shape (stop - start, count, n, n).

    One Philox generator is rekeyed to (seed, i) for each sample i, counter 0,
    so entry [i - start, c] equals, bit for bit, the c-th `haar_orthogonal`
    drawn from `sample_rng(seed, i)`; all QRs run in one batched call."""
    bitgen = np.random.Philox(0)  # its key is replaced before every draw
    rng = np.random.Generator(bitgen)
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": None},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    keys = np.empty((stop - start, 2), dtype=np.uint64)
    keys[:, 0] = seed
    keys[:, 1] = np.arange(start, stop, dtype=np.uint64)
    z = np.empty((stop - start, count, n, n))
    for j, key in enumerate(keys):
        state["state"]["key"] = key
        bitgen.state = state
        rng.standard_normal((count, n, n), out=z[j])
    return _haar_from_gaussian(z)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    samples: int
    seed: int
    generator: str = RNG_NAME

    def within(self, exact, k: float = 5.0) -> bool:
        return abs(self.mean - float(exact)) <= k * self.std_error

    def z_score(self, exact) -> float:
        if self.std_error == 0:
            return 0.0 if self.mean == float(exact) else math.inf
        return (self.mean - float(exact)) / self.std_error

    def to_json(self) -> dict:
        return {"mean": self.mean, "std_error": self.std_error,
                "samples": self.samples, "seed": self.seed, "generator": self.generator}


def _expr_sampler(expr, matrices: Mapping[int, DenseMatrix], n: int):
    """Compile an expression into a function of a stack of O samples, shape
    (samples, colours, n, n), and a colour -> column map, that returns each
    sample's product of normalized traces."""
    check_dimension(n)  # before np.eye(n)
    mats = {}
    for k in expr.positions:
        label = expr.slot[k]
        if label == 0:
            mats[k] = np.eye(n)
        else:
            mats[k] = resolve_slot(matrices, label).to_float().as_numpy()
        if mats[k].shape[0] != n:
            raise ValidationError("matrix dimension does not match N")
    cycles = [tuple(c) for c in expr.cycles if c]  # an empty trace, tr(I) / N, is 1
    colors = sorted({expr.color[k] for k in expr.positions})

    def statistic(o: np.ndarray, column: Mapping[int, int]) -> np.ndarray:
        value = np.ones(len(o))
        for cyc in cycles:
            prod = None
            for k in cyc:
                f = o[:, column[expr.color[k]]]
                if expr.eps[k] != 1:
                    f = np.swapaxes(f, 1, 2)
                fm = f @ mats[k]
                prod = fm if prod is None else prod @ fm
            # np.trace sums each diagonal as ndarray.trace does; einsum does not
            value *= np.trace(prod, axis1=1, axis2=2) / n
        return value

    return statistic, colors


def _integer_at_least(value, least: int) -> bool:
    """Whether value is an integer of at least `least`: any numbers.Integral
    (numpy's too) but a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) \
        and value >= least


def _check_count(what: str, value) -> None:
    """A sample or batch count: an integer of at least two, since a standard
    error needs two."""
    if not _integer_at_least(value, 2):
        raise ValidationError(f"need an integer count of at least two {what} for a "
                              f"standard error, got {value!r}")


def _chunk_values(sample_chunk, n: int, samples: int, workers: int) -> list[np.ndarray]:
    """Per-sample values from `sample_chunk(start, stop)` over the fixed grid of
    MC_CHUNK-sample chunks, one array per chunk, in chunk order.  Chunks of
    N x N samples with N >= MC_THREAD_MIN_N run on up to `workers` threads;
    smaller ones run on the calling thread.  A sample's value depends only on
    its index, so neither the chunk size nor the thread count changes any
    value."""
    check_dimension(n)
    if not _integer_at_least(workers, 1):
        raise ValidationError(f"need an integer count of at least one worker, got {workers!r}")
    starts = range(0, samples, MC_CHUNK)
    threads = 1
    if n >= MC_THREAD_MIN_N:
        threads = min(workers, len(starts), os.cpu_count() or 1)

    def run(start: int) -> np.ndarray:
        return sample_chunk(start, min(start + MC_CHUNK, samples))

    if threads <= 1:
        return [run(s) for s in starts]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(run, starts))


def _mean_estimate(sample_chunk, n: int, samples: int, seed: int,
                   workers: int) -> McEstimate:
    """Sample mean and its standard error from the exactly rounded sums
    `math.fsum` of the values and of their squares, which no order of the
    values changes."""
    _check_count("samples", samples)
    seed = _check_seed(seed)
    values = np.concatenate(_chunk_values(sample_chunk, n, samples, workers))
    mean = math.fsum(values) / samples
    var = max(math.fsum(values * values) / samples - mean * mean, 0.0) * samples / (samples - 1)
    return McEstimate(mean=mean, std_error=math.sqrt(var / samples), samples=samples, seed=seed)


def mc_moment(expr, matrices: Mapping[int, DenseMatrix], n: int, samples: int,
              seed: int, workers: int = 1) -> McEstimate:
    """Monte Carlo estimate of the expected product of normalized traces,
    with fresh independent O per color per sample."""
    statistic, colors = _expr_sampler(expr, matrices, n)
    column = {c: j for j, c in enumerate(colors)}

    def sample_chunk(start: int, stop: int) -> np.ndarray:
        return statistic(_haar_chunk(n, len(colors), seed, start, stop), column)

    return _mean_estimate(sample_chunk, n, samples, seed, workers)


def mc_entry_moment(n: int, powers: Mapping[tuple[int, int], int], samples: int,
                    seed: int, workers: int = 1) -> McEstimate:
    """Monte Carlo moments of individual entries, e.g. E[O_11^2 O_22^2].
    Keys are 1-based (row, column) pairs; powers are non-negative integers."""
    entries = []
    for key, p in powers.items():
        if not (isinstance(key, tuple) and len(key) == 2
                and all(_integer_at_least(v, 1) and v <= n for v in key)):
            raise ValidationError(f"entry {key!r} is not a (row, column) pair in 1..{n}")
        if not _integer_at_least(p, 0):
            raise ValidationError(f"power of entry {key} must be a non-negative integer, "
                                  f"got {p!r}")
        # int(p): for a numpy p, e ** p below stays a Python float power
        entries.append((key[0] - 1, key[1] - 1, int(p)))

    def sample_chunk(start: int, stop: int) -> np.ndarray:
        o = _haar_chunk(n, 1, seed, start, stop)[:, 0]
        values = np.ones(stop - start)
        for r, c, p in entries:
            # a scalar pow per entry: ndarray ** p rounds differently for p >= 3
            values *= [e ** p for e in o[:, r, c].tolist()]
        return values

    return _mean_estimate(sample_chunk, n, samples, seed, workers)


def _k_statistic(sums: dict, r: int) -> float:
    """Unbiased joint cumulant from raw power sums of r <= 3 variables."""
    m = sums["count"]
    if r == 2:
        return (m * sums["xy"] - sums["x"] * sums["y"]) / (m * (m - 1))
    if r == 3:
        xb, yb, zb = sums["x"] / m, sums["y"] / m, sums["z"] / m
        centered = (sums["xyz"] - xb * sums["yz"] - yb * sums["xz"] - zb * sums["xy"]
                    + 2 * m * xb * yb * zb)
        return m * centered / ((m - 1) * (m - 2))
    raise ValidationError("cumulant estimator supports orders 2 and 3")


def mc_cumulant(exprs: Sequence, matrices: Mapping[int, DenseMatrix], n: int,
                samples: int, seed: int, order: int, workers: int = 1,
                batches: int = 20) -> McEstimate:
    """k-statistic estimate of the joint cumulant of unnormalized traces,
    with standard error from a jackknife over `batches` sample batches.

    Batch b holds the samples i with (i * batches) // samples == b, the
    indices ceil(b * samples / batches) up to ceil((b + 1) * samples /
    batches).  Each power sum is `math.fsum` of one column of per-sample
    products, and a leave-one-out sum is the full sum minus its batch's."""
    if order not in (2, 3):
        raise ValidationError("unsupported cumulant order (use 2 or 3)")
    if len(exprs) != order:
        raise ValidationError("need exactly one expression per argument")
    _check_count("samples", samples)
    _check_count("batches", batches)
    batches = min(batches, samples // 2)
    # the smallest leave-one-out set drops the largest batch, ceil(samples / batches)
    if samples + (-samples // batches) < order:
        raise ValidationError(
            f"{samples} samples leave fewer than {order} per jackknife estimate")
    seed = _check_seed(seed)
    compiled = [_expr_sampler(e, matrices, n) for e in exprs]
    all_colors = sorted({c for _, cols in compiled for c in cols})
    column = {c: j for j, c in enumerate(all_colors)}

    def sample_chunk(start: int, stop: int) -> np.ndarray:
        o = _haar_chunk(n, len(all_colors), seed, start, stop)
        # traces are unnormalized: one factor of N per trace cycle; one row per sample
        return np.column_stack([stat(o, column) * n ** len(e.cycles)
                                for e, (stat, _) in zip(exprs, compiled)])

    values = np.concatenate(_chunk_values(sample_chunk, n, samples, workers))
    x, y = values[:, 0], values[:, 1]
    columns = {"x": x, "y": y, "xy": x * y}
    if order == 3:
        z = values[:, 2]
        columns.update(z=z, xz=x * z, yz=y * z, xyz=x * y * z)
    total = {key: math.fsum(col) for key, col in columns.items()}
    full = _k_statistic(dict(total, count=samples), order)
    edges = [-(-b * samples // batches) for b in range(batches + 1)]
    leave_outs = []
    for lo, hi in zip(edges, edges[1:]):
        rest = {key: total[key] - math.fsum(col[lo:hi]) for key, col in columns.items()}
        leave_outs.append(_k_statistic(dict(rest, count=samples - (hi - lo)), order))
    lo_mean = math.fsum(leave_outs) / batches
    se = math.sqrt((batches - 1) / batches * math.fsum((v - lo_mean) ** 2 for v in leave_outs))
    return McEstimate(mean=full, std_error=se, samples=samples, seed=seed)


# -- exact brute-force oracle --------------------------------------------------


def brute_force_moment(expr, matrices: Mapping[int, DenseMatrix], n: int,
                       tables: TableSet | None = None, max_positions: int = 8,
                       max_dim: int = 4) -> Fraction:
    """Exact expected product of normalized traces by the explicit index sum.

    Sums over every index assignment iota: +/-positions -> [N]; the expected
    value of the product of O entries is expanded as the sum of Weingarten
    values over the pairings compatible with the assignment.  Shares nothing
    with the genus-expansion path beyond the Weingarten table itself.
    """
    tables = tables or TableSet()
    positions = sorted(expr.positions)
    npos = len(positions)
    if npos > max_positions or n > max_dim:
        raise ValidationError("brute-force oracle capped (positions or dimension too large)")
    by_color: dict[int, list[int]] = {}
    for k in positions:
        by_color.setdefault(expr.color[k], []).append(k)
    if any(len(v) % 2 for v in by_color.values()):
        return Fraction(0)  # no pairings exist; every term vanishes

    phi_next = {}
    for cyc in expr.cycles:
        for a, b in zip(cyc, tuple(cyc[1:]) + tuple(cyc[:1])):
            phi_next[a] = b

    # integer-scaled entries; one common denominator per slot occurrence
    order = positions + [-k for k in positions]
    index_of = {p: i for i, p in enumerate(order)}
    scale = Fraction(1)
    entry_tables = []
    row_pos, col_pos = [], []
    for k in positions:
        m = DenseMatrix.identity(n) if expr.slot[k] == 0 \
            else resolve_slot(matrices, expr.slot[k])
        if m.mode != "exact":
            raise ValidationError("brute-force oracle needs exact matrices")
        if m.n != n:
            raise ValidationError("matrix dimension does not match N")
        denom = math.lcm(*[v.denominator for row in m.rows for v in row])
        scaled = [[int(v * denom) for v in row] for row in m.rows]
        scale *= denom
        entry_tables.append(scaled)
        row_pos.append(index_of[-expr.eps[k] * k])
        col_pos.append(index_of[expr.eps[abs(phi_next[k])] * phi_next[k]])

    # per-color expectation of the product of O entries, memoized on the
    # index values at (positions, negated positions) of that color
    color_keys = []
    color_memos = []
    wg_at_n: dict = {}
    for c, pts in sorted(by_color.items()):
        pairs = []
        for p_plus in enumerate_pairings(pts):
            for p_minus in enumerate_pairings(pts):
                lam = join_of_pairings_diagram(p_plus, p_minus)
                if lam not in wg_at_n:
                    wg_at_n[lam] = tables.table(2 * lam.n).wg_unnormalized(lam).eval_at(n)
                plus_map = {k: next(iter(b - {k})) for b in p_plus.blocks for k in b}
                minus_map = {k: next(iter(b - {k})) for b in p_minus.blocks for k in b}
                pairs.append((plus_map, minus_map, wg_at_n[lam]))
        color_keys.append(([index_of[k] for k in pts], [index_of[-k] for k in pts], pts))
        color_memos.append((pairs, {}))

    def o_expectation(color_idx: int, iota) -> Fraction:
        (pos_idx, neg_idx, pts) = color_keys[color_idx]
        pairs, memo = color_memos[color_idx]
        key = tuple(iota[i] for i in pos_idx) + tuple(iota[i] for i in neg_idx)
        val = memo.get(key)
        if val is None:
            val = Fraction(0)
            vplus = dict(zip(pts, key[:len(pts)]))
            vminus = dict(zip(pts, key[len(pts):]))
            for plus_map, minus_map, wg in pairs:
                if all(vplus[k] == vplus[p] for k, p in plus_map.items()) and \
                        all(vminus[k] == vminus[p] for k, p in minus_map.items()):
                    val += wg
            memo[key] = val
        return val

    ncolors = len(color_keys)
    sums_by_weight: dict[tuple, int] = {}
    for iota in itertools.product(range(n), repeat=2 * npos):
        wkey = tuple(o_expectation(ci, iota) for ci in range(ncolors))
        if not all(wkey):
            continue
        prod = 1
        for t, rp, cp in zip(entry_tables, row_pos, col_pos):
            prod *= t[iota[rp]][iota[cp]]
        sums_by_weight[wkey] = sums_by_weight.get(wkey, 0) + prod

    total = Fraction(0)
    for wkey, s in sums_by_weight.items():
        weight = Fraction(1)
        for w in wkey:
            weight *= w
        total += weight * s
    # an empty trace adds no index and no factor: its tr(I) / N is 1
    return total / scale / Fraction(n) ** sum(1 for c in expr.cycles if c)
