"""Span and count recorders wrapped around the library's layer boundaries.

Spans are recorded from the benchmark's side: `Tracer.install` replaces each
layer's public function with a wrapper everywhere the library looks it up
(the defining module and every module that imported the name), and patches
methods on their class, so `isinstance` checks and lookups through
`haargenus.expansion.Premap` both see the recorder.  Spans stay in memory
and are written out by `write_spans` when the run ends.

A span's self time is its duration minus the part of that interval covered
by its child spans.  Spans opened by Monte Carlo pool threads take the
calling thread's open span as their parent.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

MODULES = ("setpart", "permap", "ratpoly", "weingarten", "matrixlab", "expansion", "cli")

# (module, function name, span name): functions replaced wherever imported;
# matrixlab.trace_along is also replaced, by a wrapper that counts its work
FUNCTIONS = [
    ("matrixlab", "sample_rng", "matrixlab.sample_rng"),
    ("matrixlab", "haar_orthogonal", "matrixlab.haar_orthogonal"),
    ("matrixlab", "mc_moment", "matrixlab.mc_estimate"),
    ("matrixlab", "mc_cumulant", "matrixlab.mc_estimate"),
    ("matrixlab", "mc_entry_moment", "matrixlab.mc_estimate"),
    ("weingarten", "compute_table", "weingarten.compute_table"),
    ("weingarten", "wg_cumulant", "weingarten.wg_cumulant"),
    ("ratpoly", "bareiss_solve", "ratpoly.bareiss_solve"),
    ("cli", "main", "cli.main"),
]
# (module, generator name, span name, counter of items yielded or None)
GENERATORS = [
    ("setpart", "enumerate_interval", "setpart.enumerate_interval",
     "setpart.enumerate_interval.yielded"),
    ("expansion", "expand_moment", "expansion.enumerate", None),
]
# (module, class, method, span name)
METHODS = [
    ("ratpoly", "PolyFrac", "__add__", "ratpoly.polyfrac_ops"),
    ("ratpoly", "PolyFrac", "__radd__", "ratpoly.polyfrac_ops"),
    ("ratpoly", "PolyFrac", "__mul__", "ratpoly.polyfrac_ops"),
    ("ratpoly", "PolyFrac", "__rmul__", "ratpoly.polyfrac_ops"),
    ("ratpoly", "PolyFrac", "eval_at", "ratpoly.eval_at"),
    ("permap", "Premap", "__init__", "permap.premap"),
    # trace_cumulant enumerates gluings without expand_moment, so the
    # enumeration layer is also timed at the shared gluing machinery
    ("expansion", "_Gluings", "__init__", "expansion.enumerate"),
    ("expansion", "_Gluings", "term_for", "expansion.enumerate"),
]

SELF_LAYERS = [
    "matrixlab.trace_along", "expansion.enumerate", "permap.premap",
    "ratpoly.polyfrac_ops", "ratpoly.eval_at", "weingarten.compute_table",
    "ratpoly.bareiss_solve", "weingarten.wg_cumulant", "setpart.enumerate_interval",
    "matrixlab.sample_rng", "matrixlab.haar_orthogonal", "matrixlab.mc_estimate",
    "cli.main",
]
# count metrics: the number of spans of a name, or a counter kept by a wrapper
SPAN_COUNTS = {
    "matrixlab.trace_along.calls": "matrixlab.trace_along",
    "permap.premap.built": "permap.premap",
    "ratpoly.polyfrac_ops.calls": "ratpoly.polyfrac_ops",
    "ratpoly.eval_at.calls": "ratpoly.eval_at",
    "weingarten.compute_table.builds": "weingarten.compute_table",
    "weingarten.wg_cumulant.calls": "weingarten.wg_cumulant",
    "matrixlab.sample_rng.calls": "matrixlab.sample_rng",
    "matrixlab.haar_orthogonal.calls": "matrixlab.haar_orthogonal",
    "cli.main.calls": "cli.main",
}
COUNTERS = [
    "matrixlab.trace_along.distinct_cycles",
    "matrixlab.trace_along.matmuls",
    "expansion.gluings",
    "setpart.enumerate_interval.yielded",
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.counts: Counter = Counter()
        self.query = -1
        self.active = True  # wrappers record only while active
        self._cycles_seen: set = set()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[list[int], int, int]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:  # a pool thread: the span waiting on it is the caller's
            parent = self._main_stack[-1] if self._main_stack else 0
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def _close(self, stack, sid, parent, name, t0) -> None:
        t1 = time.perf_counter_ns()
        stack.pop()
        self.spans.append((sid, parent, name, t0, t1, self.query))

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) are not recorded."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def start_query(self, index: int) -> None:
        self.query = index
        self._cycles_seen = set()

    def span_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack, sid, parent = tracer._open()
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(stack, sid, parent, name, t0)

        return wrapper

    def generator_wrapper(self, name: str, fn, counter: str | None):
        """Each resumption of the generator is one span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.active:
                yield from gen
                return
            while True:
                stack, sid, parent = tracer._open()
                t0 = time.perf_counter_ns()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._close(stack, sid, parent, name, t0)
                if counter:
                    tracer.count(counter)
                yield item

        return wrapper

    def trace_along_wrapper(self, fn):
        inner = self.span_wrapper("matrixlab.trace_along", fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(cycles, *args, **kwargs):
            if not tracer.active:
                return fn(cycles, *args, **kwargs)
            cycles = [tuple(c) for c in cycles]
            fresh = [c for c in cycles if c not in tracer._cycles_seen]
            tracer._cycles_seen.update(fresh)
            tracer.count("matrixlab.trace_along.distinct_cycles", len(set(fresh)))
            tracer.count("matrixlab.trace_along.matmuls",
                         sum(max(len(c) - 1, 0) for c in cycles))
            return inner(cycles, *args, **kwargs)

        return wrapper

    def term_for_wrapper(self, fn):
        inner = self.span_wrapper("expansion.enumerate", fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.count("expansion.gluings")
            return inner(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"haargenus.{m}") for m in MODULES}
        mods["haargenus"] = importlib.import_module("haargenus")
        wrappers = [(mod, fname, self.span_wrapper(span, getattr(mods[mod], fname)))
                    for mod, fname, span in FUNCTIONS]
        wrappers += [(mod, fname, self.generator_wrapper(span, getattr(mods[mod], fname), counter))
                     for mod, fname, span, counter in GENERATORS]
        wrappers.append(("matrixlab", "trace_along",
                         self.trace_along_wrapper(mods["matrixlab"].trace_along)))
        for mod, fname, wrapped in wrappers:
            original = getattr(mods[mod], fname)
            for m in mods.values():
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, attr, wrapped)
        wrapped_methods: dict = {}
        for mod, cls_name, meth, span in METHODS:
            cls = getattr(mods[mod], cls_name)
            original = cls.__dict__[meth]
            if original not in wrapped_methods:  # __radd__ is __add__
                wrapped_methods[original] = (self.term_for_wrapper(original)
                                             if meth == "term_for"
                                             else self.span_wrapper(span, original))
            self._set(cls, meth, wrapped_methods[original])

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span less the union of its children."""
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for _, parent, _, t0, t1, _ in self.spans:
            children[parent].append((t0, t1))
        out: dict[str, float] = defaultdict(float)
        for sid, _, name, t0, t1, _ in self.spans:
            covered = 0
            end = t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out[name] += (t1 - t0 - covered) / 1e9
        return out

    def metrics(self) -> dict[str, float]:
        calls = Counter(name for _, _, name, _, _, _ in self.spans)
        out: dict[str, float] = {}
        for metric, span in SPAN_COUNTS.items():
            out[metric] = calls[span]
        for metric in COUNTERS:
            out[metric] = self.counts[metric]
        selfs = self.self_times()
        for layer in SELF_LAYERS:
            out[f"{layer}.self_s"] = selfs.get(layer, 0.0)
        return out

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            for sid, parent, name, t0, t1, query in self.spans:
                fh.write(json.dumps([sid, parent, name, t0, t1, query]) + "\n")
