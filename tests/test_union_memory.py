"""A bound on the memory the union pass allocates per union cell.

``tracemalloc`` counts every byte numpy allocates, so the peak of one call
over the memory traced at its entry is the same from run to run.  The bounds
are about 1.1x the measured peaks: 2,654 bytes per cell on the singlemesh run
(its kernel path; the indicators it sets, 8 bytes per cell and problem, are
1,408 of them) and 845 on the multimesh run (its class sums).  Before the
estimator kernel wrote into buffers of its own, with the class sums formed
over the whole union per class, they were 3,640 and 1,134.
"""

import tracemalloc

import pytest

from fracadapt import estimators
from fracadapt.driver import RunConfig, run
from fracadapt.fem import RhsField
from fracadapt.mesh import DomainSpec

BOUND = {"singlemesh": 2930, "multimesh": 940}  # bytes per union cell


@pytest.mark.parametrize("mode, iterations", [("singlemesh", 4), ("multimesh", 5)])
def test_union_pass_peak_per_cell(monkeypatch, mode, iterations):
    # the last union pass of a small run of the two-disc field, 176 problems
    config = RunConfig(s=0.3, domain=DomainSpec("unit-square"), f=RhsField.test2(), tol=1e-9,
                       kappa=0.26, max_iterations=iterations, mode=mode)
    real, class_sums = estimators.global_union_estimate, estimators._class_sums
    calls, summed = [], []

    def traced(scheme, states, union, f):
        summed.clear()
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = real(scheme, states, union, f)
        calls.append((union.num_cells, tracemalloc.get_traced_memory()[1] - entry, bool(summed)))
        return out

    def counted(*args):
        summed.append(True)
        return class_sums(*args)

    monkeypatch.setattr(estimators, "global_union_estimate", traced)
    monkeypatch.setattr(estimators, "_class_sums", counted)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        run(config)
    finally:
        if not tracing:
            tracemalloc.stop()
    cells, peak, summed = calls[-1]
    assert summed == (mode == "multimesh")
    assert peak / cells <= BOUND[mode], f"{peak / cells:.0f} bytes per union cell"
