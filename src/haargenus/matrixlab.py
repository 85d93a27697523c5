"""Dense matrix arithmetic, Haar orthogonal sampling, Monte Carlo estimators,
and the entrywise brute-force moment oracle.

Exact matrices hold Fractions; float matrices hold numpy arrays.  Traces
along label cycles run in one kernel for both modes, `trace_numerators`: the
cycles of one dimension and length multiply as stacks.  Each exact matrix is
scaled once to integer entries over one common denominator, its stacks
multiply in int64 where a bound proves that no partial sum overflows and on
Python ints otherwise, and each cycle's trace is an integer numerator over
the product of its factors' denominators; `traces_along` forms one Fraction
per cycle from them.  A float stack multiplies from the left and sums each
trace as numpy sums one matrix's, so every float trace is the one of
multiplying that cycle's matrices in turn.

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

import itertools
import math
import numbers
import os
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


class DenseMatrix:
    """A square matrix in a uniform scalar mode: exact Fractions or floats."""

    __slots__ = ("mode", "n", "_rows", "_arr", "_ints")

    def __init__(self, rows=None, *, arr=None):
        self._ints = None  # integer form of an exact matrix, made on first use
        if arr is not None:
            arr = np.asarray(arr, dtype=float)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ValidationError("matrix must be square")
            self.mode = "float"
            self.n = arr.shape[0]
            self._arr = arr
            self._rows = None
            return
        rows = [list(r) for r in rows]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValidationError("matrix must be square")
        if any(isinstance(v, float) for r in rows for v in r):
            self.mode = "float"
            self._arr = np.array([[float(v) for v in r] for r in rows], dtype=float)
            self._rows = None
        else:
            self.mode = "exact"
            self._rows = tuple(tuple(Fraction(v) for v in r) for r in rows)
            self._arr = None
        self.n = n

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
    def rows(self):
        if self.mode != "exact":
            raise ValidationError("rows are only stored in exact mode")
        return self._rows

    def integer_form(self) -> tuple[int, tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """(den, rows, cols) with this exact matrix = rows / den, den the lcm of
        the entries' denominators; cols holds the same integers by column.
        Computed on first use and kept, since the matrix is immutable."""
        if self._ints is None:
            if self.mode != "exact":
                raise ValidationError("integer form is only defined in exact mode")
            den = math.lcm(*(v.denominator for r in self._rows for v in r))
            rows = tuple(tuple(v.numerator * (den // v.denominator) for v in r)
                         for r in self._rows)
            self._ints = (den, rows, tuple(zip(*rows)))
        return self._ints

    def as_numpy(self) -> np.ndarray:
        if self.mode == "float":
            return self._arr
        return np.array([[float(v) for v in r] for r in self._rows], dtype=float)

    def to_float(self) -> "DenseMatrix":
        return self if self.mode == "float" else DenseMatrix(arr=self.as_numpy())

    def transpose(self) -> "DenseMatrix":
        if self.mode == "float":
            return DenseMatrix(arr=self._arr.T.copy())
        return DenseMatrix([[self._rows[j][i] for j in range(self.n)] for i in range(self.n)])

    def matmul(self, other: "DenseMatrix") -> "DenseMatrix":
        self._check_compatible(other)
        if self.mode == "float":
            return DenseMatrix(arr=self._arr @ other._arr)
        bt = list(zip(*other._rows))
        return DenseMatrix([[sum(a * b for a, b in zip(row, col)) for col in bt]
                            for row in self._rows])

    __matmul__ = matmul

    def add(self, other: "DenseMatrix") -> "DenseMatrix":
        self._check_compatible(other)
        if self.mode == "float":
            return DenseMatrix(arr=self._arr + other._arr)
        return DenseMatrix([[a + b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self._rows, other._rows)])

    def scale(self, s) -> "DenseMatrix":
        if self.mode == "float":
            return DenseMatrix(arr=self._arr * float(s))
        return DenseMatrix([[v * Fraction(s) for v in r] for r in self._rows])

    def sub(self, other: "DenseMatrix") -> "DenseMatrix":
        return self.add(other.scale(-1))

    def trace(self):
        if self.mode == "float":
            return float(np.trace(self._arr))
        return sum(self._rows[i][i] for i in range(self.n))

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
        return self._rows == other._rows

    def __repr__(self) -> str:
        return f"DenseMatrix(n={self.n}, mode={self.mode})"

    def to_json(self) -> list[list]:
        if self.mode == "float":
            return [[float(v) for v in r] for r in self._arr]
        return [[str(v) for v in r] for r in self._rows]

    @classmethod
    def from_json(cls, data) -> "DenseMatrix":
        rows = []
        for r in data:
            row = []
            for v in r:
                row.append(Fraction(v) if isinstance(v, str) else v)
            rows.append(row)
        return cls(rows)


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


INT64_LIMIT = 2 ** 63  # an exact cycle runs in int64 only if its bound is below this


def trace_numerators(cycles: Sequence[Sequence[int]], matrices: Mapping[int, DenseMatrix],
                     normalized: bool = False) -> tuple[list, list[int]]:
    """(numerators, denominators) of the trace of the product of the matrices
    along each cycle, as one batch: cycle i's trace is nums[i] / dens[i].

    Entries are signed labels (negative: the transpose), and the matrices of
    one call are all exact or all float.  Cycles are grouped by dimension N
    and length L, and each group multiplies stacks of its factors.  A cycle's
    denominator is the product of its factors' denominators, times N when
    normalized.

    Exact: each factor is its integer form over its denominator (fraction-free,
    as in Bareiss elimination), so each numerator is a Python int, not reduced
    against its denominator.  A cycle takes L - 2 stacked products and one
    fold of the last factor into the trace, sum over i, j of P[i][j] B[j][i].
    No partial sum exceeds N^L times the product of max(1, largest |entry|)
    over the factors, so a cycle whose bound is below 2^63 runs in int64 and
    the others on Python ints (dtype object), by the same code; no value
    passes through a float.

    Float: the numerator is the trace, from L - 1 stacked products from the
    left and `np.trace` of each: the operations, in their order, of
    multiplying one cycle's matrices in turn (einsum or the exact fold would
    sum in another order); the denominator is 1, or N when normalized."""
    info: dict[int, tuple[int, int, int, int]] = {}  # label -> (n, den, max(1, |entry|), index)
    stacks: dict[int, list] = {}  # n -> (factor, max(1, |entry|)) of each label of size n
    groups: dict[tuple[int, int, bool], list[int]] = {}  # (n, L, int64 or float) -> cycle indices
    dens = []
    mode = None
    for i, cyc in enumerate(cycles):
        n = None
        den = bound = 1
        for label in cyc:
            entry = info.get(label)
            if entry is None:
                m = _slot_matrix(matrices, label)
                mode = mode or m.mode
                if m.mode != mode:
                    raise ValidationError("mixed exact and float matrices")
                if mode == "exact":
                    d, rows, cols = m.integer_form()
                    biggest = max(1, max((abs(v) for r in rows for v in r), default=0))
                    factor = cols if label < 0 else rows
                else:
                    d = biggest = 1
                    factor = m.as_numpy().T if label < 0 else m.as_numpy()
                same_size = stacks.setdefault(m.n, [])
                entry = info[label] = (m.n, d, biggest, len(same_size))
                same_size.append((factor, biggest))
            if n is not None and entry[0] != n:
                raise ValidationError(f"dimension mismatch: {n} vs {entry[0]}")
            n = entry[0]
            den *= entry[1]
            bound *= entry[2]
        if n is None:
            raise ValidationError("a trace cycle needs at least one matrix")
        dens.append(den * n if normalized else den)
        fits = mode == "float" or n ** len(cyc) * bound < INT64_LIMIT
        groups.setdefault((n, len(cyc), fits), []).append(i)

    nums: list = [None] * len(dens)
    bases: dict[tuple[int, bool], np.ndarray] = {}  # (n, fits) -> every label's stacked factor
    for (n, length, fits), members in groups.items():
        base = bases.get((n, fits))
        if base is None:
            stack = stacks[n]
            if mode == "float":  # a C-contiguous copy of each factor, transposes included
                base = np.array([arr for arr, _ in stack], dtype=float)
            elif fits:  # a label too large for int64 is never read by a group that fits
                base = np.array([rows if biggest < INT64_LIMIT else [[0] * n] * n
                                 for rows, biggest in stack], dtype=np.int64)
            else:
                base = np.array([rows for rows, _ in stack], dtype=object)
            base = bases[n, fits] = base.reshape(len(stack), n, n)
        index = np.array([[info[label][3] for label in cycles[i]] for i in members],
                         dtype=np.intp)
        prod = base[index[:, 0]]
        if mode == "float":
            for j in range(1, length):
                prod = prod @ base[index[:, j]]
            traces = np.trace(prod, axis1=1, axis2=2)
        elif length == 1:
            traces = prod.diagonal(axis1=1, axis2=2).sum(axis=1)
        else:
            for j in range(1, length - 1):
                prod = prod @ base[index[:, j]]
            traces = (prod * base[index[:, -1]].swapaxes(1, 2)).sum(axis=(1, 2))
        for i, t in zip(members, traces.tolist()):
            nums[i] = t
    return nums, dens


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


def _check_seed(seed: int) -> None:
    """A seed is the first of the two unsigned 64-bit words of a Philox key."""
    if not 0 <= seed < 2 ** 64:
        raise ValidationError(f"seed must lie in 0..2**64 - 1, got {seed}")


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based substream for one sample."""
    _check_seed(seed)
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
    cycles = [tuple(c) for c in expr.cycles]
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
    _check_seed(seed)
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
    _check_seed(seed)
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
        for a, b in zip(cyc, tuple(cyc[1:]) + (cyc[0],)):
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
    return total / scale / Fraction(n) ** len(expr.cycles)
