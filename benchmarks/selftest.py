"""Fast self-tests of the benchmark's own code: the independent series, the
point evaluation and the tracer's self-time accounting.

    python3 benchmarks/selftest.py

The file name keeps it out of pytest's default collection.
"""

import json
import math
import os
import sys
import threading
import types

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from series import SquareSeries, p1_eval  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_series_coefficients_match_quadrature():
    # <1, psi_ij> by Gauss-Legendre on (-1, 1)^2, against 16 / (pi^2 i j)
    x, w = np.polynomial.legendre.leggauss(200)
    for i, j in [(1, 1), (1, 3), (5, 7), (2, 1)]:
        fx = np.sum(w * np.sin(i * math.pi * (x + 1) / 2))
        fy = np.sum(w * np.sin(j * math.pi * (x + 1) / 2))
        exact = 16 / (math.pi**2 * i * j) if i % 2 and j % 2 else 0.0
        assert abs(fx * fy - exact) < 1e-12, (i, j, fx * fy, exact)


def test_series_at_s0_is_the_constant():
    # with s = 0 the series is the sine expansion of f = 1 itself
    series = SquareSeries(0.0, 2001)
    val = series.eval(np.array([0.1, -0.3]), np.array([0.2, 0.5]))
    assert np.all(np.abs(val - 1.0) < 2e-2), val


def test_tail_bound_bounds_the_omitted_modes():
    for s in (0.1, 0.5, 0.9):
        full = SquareSeries(s, 2049).norm()
        for n in (31, 127, 255):
            trunc = SquareSeries(s, n)
            omitted = math.sqrt(max(full**2 - trunc.norm() ** 2, 0.0))
            assert omitted <= trunc.tail_bound(), (s, n, omitted, trunc.tail_bound())
            # and the bound is not loose by orders of magnitude
            assert trunc.tail_bound() < 10 * omitted + 1e-12, (s, n)


def test_l2_error_quadrature_matches_parseval():
    # || u_n - 0 || by quadrature on a uniform mesh equals the Parseval norm
    m = 32
    g = np.linspace(-1, 1, m + 1)
    X, Y = np.meshgrid(g, g, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel()])
    idx = np.arange((m + 1) ** 2).reshape(m + 1, m + 1)
    a, b, c, d = idx[:-1, :-1].ravel(), idx[1:, :-1].ravel(), idx[1:, 1:].ravel(), idx[:-1, 1:].ravel()
    cells = np.concatenate([np.column_stack([a, b, c]), np.column_stack([a, c, d])])
    series = SquareSeries(0.5, 15)
    err = series.l2_error(verts, cells, np.zeros(len(verts)))
    assert abs(err - series.norm()) < 1e-9 * series.norm(), (err, series.norm())


def test_p1_eval_reproduces_linear_functions():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    cells = np.array([[0, 1, 2], [0, 2, 3]])
    vals = 2.0 * verts[:, 0] - 3.0 * verts[:, 1] + 0.5
    pts = np.array([[0.25, 0.1], [0.1, 0.9], [0.5, 0.5], [1.0, 1.0]])
    got = p1_eval(verts, cells, vals, pts)
    assert np.allclose(got, 2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 0.5, atol=1e-14)


class _FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_accounting():
    clock = _FakeClock()
    tr = Tracer(clock=clock)
    mod = types.SimpleNamespace()

    def leaf():
        clock.t += 5.0

    def middle():
        clock.t += 1.0
        mod.leaf()
        mod.leaf()
        clock.t += 2.0

    def outer():
        clock.t += 0.5
        mod.middle()
        clock.t += 0.25

    mod.leaf, mod.middle, mod.outer = leaf, middle, outer
    targets = [(mod, "leaf", "leaf", None), (mod, "middle", "middle", None), (mod, "outer", "outer", None)]
    with tr.patched(targets):
        mod.outer()
        mod.leaf()  # a second top-level span
    assert tr.self_time == {"leaf": 15.0, "middle": 3.0, "outer": 0.75}, dict(tr.self_time)
    assert tr.counts["leaf.calls"] == 3 and tr.counts["outer.calls"] == 1
    assert tr.top_level_time() == 18.75
    assert sum(tr.self_time.values()) == tr.top_level_time()
    parents = [(name, tr.spans[p][0] if p >= 0 else None) for name, _, _, p in tr.spans]
    assert parents == [("outer", None), ("middle", "outer"), ("leaf", "middle"), ("leaf", "middle"), ("leaf", None)]


def test_patched_restores_names_even_on_error():
    mod = types.SimpleNamespace(f=len, g=abs)
    tr = Tracer()
    try:
        with tr.patched([(mod, "f", "f", None), (mod, "g", "g", None)]):
            assert mod.f is not len and mod.f.__wrapped__ is len
            mod.g(-1)
            raise KeyError("boom")
    except KeyError:
        pass
    assert mod.f is len and mod.g is abs
    assert not tr._open, "a span stayed open"


def test_spans_close_when_the_call_raises():
    tr = Tracer()

    def bad():
        raise ValueError

    wrapped = tr.wrap("bad", bad)
    try:
        wrapped()
    except ValueError:
        pass
    assert tr.spans[0][2] is not None and not tr._open


def test_tracer_refuses_other_threads():
    tr = Tracer()
    wrapped = tr.wrap("f", lambda: None)
    caught = []

    def other():
        try:
            wrapped()
        except RuntimeError as exc:
            caught.append(exc)

    t = threading.Thread(target=other)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive() and len(caught) == 1


def test_keys_are_never_reused():
    tr = Tracer()

    class Obj:
        pass

    a = Obj()
    ka = tr.key(a)
    assert tr.key(a) == ka
    del a
    keys = {tr.key(Obj()) for _ in range(20)}  # ids of dead objects get reused
    assert ka not in keys and len(keys) == 20


def test_benchmark_json_lists_what_the_code_reports():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import run
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    reported = workloads.layer_metrics(Tracer(), 1.0)
    reported["trace.overhead_s"] = {"unit": "s"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in reported.items()
    }


def main():
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}")
        except Exception as exc:  # report every failing test, then exit non-zero
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
