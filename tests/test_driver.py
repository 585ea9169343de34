from dataclasses import replace

import numpy as np
import pytest

from fracadapt import estimators
from fracadapt.driver import RunConfig, decay_rate, run
from fracadapt.driver import IterationRecord
from fracadapt.estimators import combined_equal_mesh_estimate
from fracadapt.fem import RhsField
from fracadapt.mesh import DomainSpec, is_refinement_of

SQUARE = DomainSpec("square")


def small_config(**kw):
    defaults = dict(
        s=0.5,
        domain=SQUARE,
        f=RhsField.one(),
        theta=0.5,
        tol=1e-8,
        k=1,
        kappa=0.6,  # coarse pole sum keeps N small for fast tests
        max_iterations=6,
        initial_cells=32,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(theta=0.0)
    with pytest.raises(ValueError):
        small_config(theta=1.5)
    with pytest.raises(ValueError):
        small_config(k=0)
    with pytest.raises(ValueError):
        small_config(mode="magic")
    for n in (0, -1):
        with pytest.raises(ValueError, match="max_iterations"):
            small_config(max_iterations=n)


def test_run_produces_expected_records():
    res = run(small_config(max_iterations=5))
    assert len(res.records) == 5
    assert res.stopped == "max-iter"
    # every iteration has the cost columns; checkpoints (k=1: all) also have
    # the estimates
    for r in res.records:
        assert r.totcost >= 0 and r.total_dofs > 0
        assert r.eta_union is not None and r.eta_union > 0
        assert r.union_dofs > 0
    # iteration 0 solves every problem on the initial mesh
    n = res.scheme.N
    assert res.records[0].solved_problems == n
    assert res.records[0].totcost == n * res.records[0].total_dofs // n


def test_cost_accounting():
    res = run(small_config(max_iterations=4))
    cum = 0
    for r in res.records:
        cum += r.totcost
        assert r.cumcost == cum
    # totcost at m only counts re-solved problems; after iteration 0 it is
    # strictly below the full sweep
    assert res.records[1].totcost < res.records[0].totcost


def test_checkpoint_stride():
    res = run(small_config(max_iterations=5, k=2))
    for r in res.records:
        if r.m % 2 == 0:
            assert r.eta_union is not None
        else:
            assert r.eta_union is None and r.union_dofs is None


def test_tol_stop_exit():
    # a loose tolerance stops immediately at the first checkpoint
    res = run(small_config(tol=1e3))
    assert res.stopped == "tol"
    assert len(res.records) == 1


def test_estimate_decreases():
    res = run(small_config(max_iterations=8))
    etas = [r.eta_union for r in res.records]
    assert etas[-1] < etas[0]


def test_carry_over_no_resolve():
    # problems not marked at m are not re-solved or re-estimated at m+1
    res = run(small_config(max_iterations=6))
    n = res.scheme.N
    for m in range(1, len(res.records)):
        marked_before = set(res.marked_per_iter[m - 1])
        solved_now = set(res.solved_per_iter[m])
        assert solved_now == marked_before
    # carried-over problems keep their mesh object between iterations
    assert any(c == 0 for c in res.refine_counts)


def test_union_contains_all_meshes():
    res = run(small_config(max_iterations=6))
    for st in res.states:
        assert is_refinement_of(res.union, st.mesh)
    assert res.solution.mesh is res.union


def test_singlemesh_mode_shares_one_mesh():
    res = run(small_config(max_iterations=4, mode="singlemesh"))
    first = res.states[0].mesh
    for st in res.states:
        assert st.mesh is first
    # every iteration re-solves everything
    for r in res.records:
        assert r.solved_problems == res.scheme.N


def test_uniform_mode_quadruples_cells():
    res = run(small_config(max_iterations=3, mode="uniform"))
    assert len(res.records) == 3
    # cells quadruple exactly; interior vertices approach x4 from above
    assert res.union.num_cells == 32 * 4**2
    dofs = [r.union_dofs for r in res.records]
    assert 3.0 < dofs[1] / dofs[0] < 6.0
    assert 3.5 < dofs[2] / dofs[1] < 4.7


@pytest.mark.parametrize("mode", ["singlemesh", "uniform"])
def test_shared_mesh_union_estimate_matches_combined(mode):
    # on a shared mesh the driver's union estimate must equal the
    # independent per-cell combination of the local solutions
    cfg = small_config(max_iterations=3, mode=mode)
    res = run(cfg)
    direct = combined_equal_mesh_estimate(res.scheme, res.states, cfg.f)
    assert res.records[-1].eta_union == pytest.approx(direct, rel=1e-12)


def test_nonfinite_indicator_fails_loudly(monkeypatch):
    real = estimators.local_indicators
    calls = []

    def broken(mesh, w, b, c, f):
        eta = real(mesh, w, b, c, f)
        calls.append(b)
        if len(calls) == 3:
            eta[0] = np.nan
        return eta

    monkeypatch.setattr(estimators, "local_indicators", broken)
    with pytest.raises(ValueError) as exc:
        run(small_config(max_iterations=2))
    msg = str(exc.value)
    assert "l = 2" in msg
    assert f"b_l = {calls[2]:.6g}" in msg and "c_l = 1" in msg


def test_rerun_marks_identical_cells():
    # the square with f = 1 is mirror symmetric, so marking meets ties between
    # mirror cells; a rerun must break them the same way.  Records and
    # marked_per_iter list problems, not cells, so compare the final meshes.
    first = run(small_config(max_iterations=6))
    second = run(small_config(max_iterations=6))
    for r, q in zip(first.records, second.records, strict=True):
        assert replace(r, wall_time=0.0) == replace(q, wall_time=0.0)
    for a, b in zip(first.states, second.states, strict=True):
        assert np.array_equal(a.mesh.cell_key, b.mesh.cell_key)


def test_multimesh_cheaper_than_singlemesh():
    multi = run(small_config(max_iterations=6))
    single = run(small_config(max_iterations=6, mode="singlemesh"))
    assert multi.records[-1].cumcost < single.records[-1].cumcost


def test_on_checkpoint_callback():
    seen = []

    def cb(m, states, union, solution):
        seen.append((m, union.num_cells))

    run(small_config(max_iterations=4, k=2), on_checkpoint=cb)
    assert [m for m, _ in seen] == [0, 2]


def test_decay_rate_exact_power_law():
    recs = []
    for m in range(20):
        dofs = 100 * 2**m
        recs.append(
            IterationRecord(
                m=m,
                solved_problems=1,
                totcost=dofs,
                cumcost=0,
                total_dofs=dofs,
                union_dofs=dofs,
                eta_union=float(dofs) ** -0.75,
                eta_triangle=float(dofs) ** -0.5,
            )
        )
    assert decay_rate(recs) == pytest.approx(0.75, abs=1e-10)
    assert decay_rate(recs, estimate="eta_triangle") == pytest.approx(0.5, abs=1e-10)


def test_decay_rate_needs_enough_records():
    with pytest.raises(ValueError):
        decay_rate([], window=15)
