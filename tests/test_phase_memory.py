import importlib.util
import os

import pytest

import fracadapt as fa

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "phase_memory.py")
_spec = importlib.util.spec_from_file_location("phase_memory", _PATH)
phase_memory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(phase_memory)

SQUARE = fa.DomainSpec("square")


@pytest.mark.parametrize("mode", ["multimesh", "uniform"])
def test_every_phase_is_measured_on_a_small_run(mode):
    # a 32-cell run with a reference: each phase is counted once per call in
    # both measurements, and the wrapped functions are restored afterwards
    f = fa.RhsField.one()
    config = fa.RunConfig(s=0.5, domain=SQUARE, f=f, tol=1e-8, kappa=0.6, max_iterations=3,
                          mode=mode, initial_cells=32)
    reference = fa.spectral_reference(SQUARE, f, 0.5, modes=400)
    before = [getattr(importlib.import_module(m), a) for _, m, a in phase_memory.PHASES]
    rss = phase_memory.measure(config, reference)
    traced = phase_memory.measure(config, reference, traced=True)
    assert before == [getattr(importlib.import_module(m), a) for _, m, a in phase_memory.PHASES]
    lines = phase_memory.merge(rss, traced)
    phases = {line.pop("phase"): line for line in lines[:-1]}
    assert list(phases) == ["solve", "local estimate", "union pass", "mark", "refine",
                            "union mesh", "reference error"]
    assert lines[-1]["iterations"] == 3 and lines[-1]["vmhwm_mb"] > 0.0
    calls = {"local estimate": 3, "union pass": 3, "mark": 0 if mode == "uniform" else 2,
             "union mesh": 3, "reference error": 3}
    for name, line in phases.items():
        assert line["calls"] == calls.get(name, line["calls"])
        assert line["vmhwm_rise_mb"] >= 0.0 and line["entry_mb"] >= 0.0
        assert line["traced_peak_mb"] >= 0.0
    # one refine per iteration in uniform mode, one per refined problem else
    assert phases["refine"]["calls"] >= 2 and phases["solve"]["calls"] > 0
    for name, st in traced["phases"].items():
        assert st["calls"] == rss["phases"][name]["calls"]
        assert (st["peak"] > 0) == (st["at_call"] > 0)
    if mode != "uniform":
        assert phases["mark"]["pool_mb"] > 0.0 and traced["phases"]["mark"]["peak"] > 0
