"""The benchmark tracer wraps library functions by name; a refactor that
drops or renames one must fail here, not only in a benchmark run."""

import importlib
import pathlib

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    workloads = importlib.import_module("workloads")
    targets = workloads.trace_targets()
    assert targets
    for module, attr, span, _ in targets:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"
