"""The benchmark in perfbench/ reaches into the library by name: its tracer
wraps functions and methods looked up by string, and its checks import
names.  These tests load both, so that a renamed library name fails here and
not first in a benchmark run."""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture
def perfbench_path(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    yield
    for name in ("tracer", "checks", "workloads"):
        sys.modules.pop(name, None)


def test_tracer_install_and_uninstall(perfbench_path):
    from haargenus import expansion, matrixlab, ratpoly
    from haargenus.matrixlab import DenseMatrix

    def hooks():
        return (matrixlab.trace_along, matrixlab.mc_moment, expansion.expand_moment,
                expansion._Gluings.term_for, ratpoly.PolyFrac.eval_at)

    before = hooks()
    tracer = importlib.import_module("tracer").Tracer()
    tracer.install()
    try:
        assert all(a is not b for a, b in zip(hooks(), before))
        assert matrixlab.trace_along([(1,), (-1, 1)], {1: DenseMatrix([[2]])}) == 8
        assert tracer.metrics()["matrixlab.trace_along.calls"] == 1
    finally:
        tracer.uninstall()
    assert all(a is b for a, b in zip(hooks(), before))


def test_checks_import(perfbench_path):
    checks = importlib.import_module("checks")
    assert callable(checks.check_result) and callable(checks.canonical)
