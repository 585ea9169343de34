"""The benchmark tracer wraps library functions by name; a refactor that
drops or renames one, or breaks what the benchmark's trace check asserts,
must fail here, not only in a benchmark run."""

import importlib
import pathlib
import time

import pytest

from fracadapt import DomainSpec, RhsField, RunConfig, run

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    workloads = importlib.import_module("workloads")
    targets = workloads.trace_targets()
    assert targets
    for module, attr, span, _ in targets:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"


@pytest.mark.parametrize("mode", ["multimesh", "singlemesh"])
def test_traced_run_passes_the_trace_check(mode, monkeypatch):
    # one solve per mesh object and iteration, and traced solve dofs equal
    # to cumcost, on a small run traced as the benchmark traces its runs
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    workloads = importlib.import_module("workloads")
    tracer = importlib.import_module("tracer").Tracer()
    config = RunConfig(
        s=0.5, domain=DomainSpec("unit-square"), f=RhsField.test2(), kappa=0.6,
        initial_cells=32, max_iterations=5, mode=mode,
    )
    with tracer.patched(workloads.trace_targets()):
        t0 = time.perf_counter()
        res = run(config)
        solve_s = time.perf_counter() - t0
    assert len(res.records) == 5
    w = {"mode": mode, "N": res.scheme.N}
    assert workloads._check_trace(res, w, tracer, solve_s) == []
