import math
import time
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from fracadapt import driver, estimators, fem, mesh
from fracadapt.driver import RunConfig, decay_rate, run
from fracadapt.driver import IterationRecord
from fracadapt.estimators import combined_equal_mesh_estimate
from fracadapt.fem import RhsField, SolveError
from fracadapt.mesh import DomainSpec, is_refinement_of, make_initial_mesh
from fracadapt.oracle import faber_krahn_lambda0
from fracadapt.rational import bp_coefficients, choose_kappa

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
    # eta_union < tol could never hold, so the run would refine to max_iterations
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol"):
            small_config(tol=tol)


def test_kappa_none_is_chosen_from_the_tolerance():
    res = run(small_config(kappa=None, tol=1e-2, max_iterations=2))
    f_norm = fem.l2_norm(RhsField.one(), make_initial_mesh(SQUARE, 32))
    assert res.scheme.kappa == choose_kappa(0.5, 1e-2, faber_krahn_lambda0(SQUARE), f_norm)


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


@pytest.mark.parametrize("mode", ["multimesh", "singlemesh"])
@pytest.mark.parametrize("reason", ["tol", "max-iter", "converged"])
def test_stop_paths_close_the_mark_record(monkeypatch, reason, mode):
    # every stop leaves one marked_per_iter entry per record, the last empty
    if reason == "converged":
        monkeypatch.setattr(driver, "doerfler_mark", lambda states, *args: [set() for _ in states])
    cfg = {"tol": dict(tol=1e3), "max-iter": dict(max_iterations=3), "converged": {}}[reason]
    res = run(small_config(mode=mode, **cfg))
    assert res.stopped == reason
    assert len(res.marked_per_iter) == len(res.records)
    assert res.marked_per_iter[-1] == []


def test_wall_time_covers_mark_and_refine(monkeypatch):
    # a refinement that sleeps must show in the time of its iteration
    real = driver.refine
    calls = []

    def slow(coarse, marked):
        calls.append(len(marked))
        time.sleep(0.05)
        return real(coarse, marked)

    monkeypatch.setattr(driver, "refine", slow)
    res = run(small_config(max_iterations=2))
    assert calls and res.records[0].wall_time >= 0.05 * len(calls)


@pytest.mark.parametrize("mode", ["multimesh", "singlemesh", "uniform"])
def test_each_refined_mesh_is_solved_once_per_holder(mode, monkeypatch):
    # the benchmark tracer's per-object rule: iteration 0 solves every
    # problem on one mesh object, and at iteration m + 1 exactly the objects
    # that the refines of iteration m returned are solved, once per problem
    # that holds one; every object is held, so no id is reused
    solved, refined, holders = [[]], [[]], []
    real_solve = fem.assemble_and_solve

    def spy_solve(mesh, *args):
        solved[-1].append(mesh)
        return real_solve(mesh, *args)

    def spy_refine(real):
        def call(*args):
            refined[-1].append(real(*args))
            return refined[-1][-1]

        return call

    monkeypatch.setattr(fem, "assemble_and_solve", spy_solve)
    for name in ("refine", "uniform_refine"):
        monkeypatch.setattr(driver, name, spy_refine(getattr(driver, name)))

    def on_checkpoint(m, states, *args):
        holders.append(Counter(id(st.mesh) for st in states))
        solved.append([])
        refined.append([])

    res = run(small_config(mode=mode, max_iterations=4), on_checkpoint=on_checkpoint)
    assert res.stopped == "max-iter" and len(holders) == 4
    n = res.scheme.N
    assert len(solved[0]) == n and len({id(x) for x in solved[0]}) == 1
    for m in range(1, len(holders)):
        expected = {id(x): holders[m][id(x)] for x in refined[m]}
        assert refined[m] and Counter(id(x) for x in solved[m]) == expected
        assert sum(expected.values()) == len(res.marked_per_iter[m - 1])


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
    # a NaN indicator must be reported with its problem and coefficients,
    # where the union pass sets it (iteration 0: every problem on the
    # initial mesh, problem l = 2 in column 2 of the first block) and where
    # local_indicators does (iteration 1, a refined mesh below the union)
    real_coeffs, real_local = estimators._modal_coeffs, estimators.local_indicators
    calls = []

    def broken_coeffs(target, columns, vals, jump, b, c):
        y = real_coeffs(target, columns, vals, jump, b, c)
        calls.append(b)
        if len(calls) == 1:
            y[2, :, 0] = np.nan
        return y

    monkeypatch.setattr(estimators, "_modal_coeffs", broken_coeffs)
    with pytest.raises(ValueError) as exc:
        run(small_config(max_iterations=2))
    msg = str(exc.value)
    assert "l = 2" in msg
    assert f"b_l = {calls[0][2]:.6g}" in msg and "c_l = 1" in msg

    monkeypatch.setattr(estimators, "_modal_coeffs", real_coeffs)
    calls.clear()

    def broken_local(mesh, w, b, c, f):
        eta = real_local(mesh, w, b, c, f)
        calls.append((b, c))
        if len(calls) == 1:
            eta[0, -1] = np.nan
        return eta

    monkeypatch.setattr(estimators, "local_indicators", broken_local)
    with pytest.raises(ValueError) as exc:
        run(small_config(max_iterations=2))
    b, c = calls[0][0][-1], calls[0][1][-1]
    l = int(np.flatnonzero(bp_coefficients(0.5, 0.6, faber_krahn_lambda0(SQUARE)).b == b)[0])
    assert str(exc.value) == (
        f"non-finite error indicator for problem l = {l} (b_l = {b:.6g}, c_l = {c:.6g})"
    )


@pytest.mark.parametrize("broken", ["eta", "solution"])
def test_nonfinite_union_pass_names_the_checkpoint(monkeypatch, broken):
    # a union pass that returns a non-finite eta_union or recombined solution
    # at checkpoint m = 1 stops the run there, instead of failing eta < tol
    # at every checkpoint until max-iter
    real, seen = estimators.global_union_estimate, []

    def broken_pass(scheme, states, union, f):
        eta, solution = real(scheme, states, union, f)
        seen.append(eta)
        if len(seen) == 2:
            if broken == "eta":
                eta = math.nan
            else:
                solution.nodal_values[-1] = math.inf
        return eta, solution

    monkeypatch.setattr(estimators, "global_union_estimate", broken_pass)
    with pytest.raises(ValueError, match=r"recombined solution at m = 1$"):
        run(small_config(max_iterations=6))
    assert len(seen) == 2


def test_singlemesh_estimates_in_stacked_blocks(monkeypatch):
    # every iteration solves all N problems on the shared mesh, which is the
    # union, and the union pass estimates them in ceil(N / _BLOCK) stacked
    # kernel calls; local_indicators is never called
    real = estimators._modal_coeffs
    widths = []

    def spy(target, columns, vals, jump, b, c):
        widths.append(len(b))
        return real(target, columns, vals, jump, b, c)

    def refuse(*args):
        raise AssertionError("local_indicators called")

    monkeypatch.setattr(estimators, "_modal_coeffs", spy)
    monkeypatch.setattr(estimators, "local_indicators", refuse)
    seen = []
    res = run(
        small_config(mode="singlemesh", max_iterations=3),
        on_checkpoint=lambda *args: seen.append(len(widths)),
    )
    n = res.scheme.N
    assert n > estimators._BLOCK and len(res.records) == 3
    assert np.diff([0] + seen).tolist() == [math.ceil(n / estimators._BLOCK)] * 3
    assert sum(widths) == 3 * n
    assert all(not st.dirty and np.all(np.isfinite(st.indicators)) for st in res.states)


@pytest.mark.parametrize(
    "error",
    [ValueError("coefficients rejected"), SolveError("residual too large", residual=0.5)],
    ids=["ValueError", "SolveError"],
)
def test_failed_solve_names_the_problem(monkeypatch, error):
    real = fem.assemble_and_solve
    calls = []

    def failing(mesh, b, c, f):
        calls.append((b, c))
        if len(calls) == 3:
            raise error
        return real(mesh, b, c, f)

    monkeypatch.setattr(fem, "assemble_and_solve", failing)
    with pytest.raises(type(error)) as exc:
        run(small_config(max_iterations=2))
    b, c = calls[2]
    assert type(exc.value) is type(error) and exc.value.__cause__ is error
    assert str(exc.value) == f"problem l = 2 (b_l = {b:.6g}, c_l = {c:.6g}): {error}"
    if isinstance(error, SolveError):
        assert exc.value.residual == 0.5


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


def test_each_live_mesh_is_built_once(monkeypatch):
    # equal refinements and unions are twins of a live mesh, not new builds:
    # no mesh is built while a built mesh with the same leaves is alive
    built = []
    real = mesh.TriMesh._build

    def spy(self, rows):
        keys = self.cell_key.tobytes()
        assert not any(k == keys and ref() is not None for k, ref in built)
        real(self, rows)
        built.append((keys, weakref.ref(self)))

    monkeypatch.setattr(mesh.TriMesh, "_build", spy)
    res = run(small_config(max_iterations=6))
    # the run does refine problems to equal meshes
    keys = {st.mesh.cell_key.tobytes() for st in res.states}
    assert len(keys) < len({id(st.mesh) for st in res.states})


def _meshes_in(value):
    """Every TriMesh reachable from ``value`` through tuples, lists and dicts."""
    if isinstance(value, mesh.TriMesh):
        yield value
    elif isinstance(value, dict):
        for item in value.items():
            yield from _meshes_in(item)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _meshes_in(item)


def test_mesh_caches_hold_no_mesh():
    # every _cache entry is a function of the leaves (see ``mesh``), so no
    # cache may hold a mesh, which would keep it alive and tie it to an object
    res = run(small_config(max_iterations=6))
    assert any(not st.mesh.same_mesh(res.union) for st in res.states)
    for m in [st.mesh for st in res.states] + [res.union]:
        assert not list(_meshes_in(m._cache))


@pytest.mark.parametrize("mode", ["multimesh", "singlemesh"])
def test_solve_caches_live_for_one_solve_phase(mode, monkeypatch):
    # the driver drops a mesh group's FE system, loads and bases once its
    # solves are done, and the estimator caches no edge geometry: no system
    # outlives its group, and at the end no mesh holds any of them
    built, build = [], fem._build_system

    def spy(m, dofs):
        assert not any("system" in cache for cache in built)
        built.append(m._cache)
        return build(m, dofs)

    monkeypatch.setattr(fem, "_build_system", spy)
    res = run(small_config(mode=mode))
    assert len(built) >= len(res.records)
    for m in [st.mesh for st in res.states] + [res.union]:
        assert not [k for k in m._cache if k in ("system", "geometry") or k[0] in ("load", "basis")]


@pytest.mark.parametrize("mode", ["multimesh", "singlemesh", "uniform"])
def test_spent_marks_are_released(mode, monkeypatch):
    # every iteration is a checkpoint (k = 1) and marks after it, so at the
    # checkpoint of iteration m every mark set made so far, and every set a
    # refine took, belongs to an earlier iteration and must be gone
    refs, mark, refine = [], driver.doerfler_mark, driver.refine

    def spy_mark(*args):
        marks = mark(*args)
        refs.extend(weakref.ref(mk) for mk in marks)
        return marks

    def spy_refine(m, marked):
        refs.append(weakref.ref(marked))
        return refine(m, marked)

    def on_checkpoint(m, *args):
        checked.append(m)
        assert not [ref for ref in refs if ref() is not None]

    checked = []
    monkeypatch.setattr(driver, "doerfler_mark", spy_mark)
    monkeypatch.setattr(driver, "refine", spy_refine)
    res = run(small_config(mode=mode, max_iterations=4), on_checkpoint=on_checkpoint)
    assert checked == [0, 1, 2, 3] and res.stopped == "max-iter"
    assert bool(refs) == (mode != "uniform")


def test_multimesh_cheaper_than_singlemesh():
    multi = run(small_config(max_iterations=6))
    single = run(small_config(max_iterations=6, mode="singlemesh"))
    assert multi.records[-1].cumcost < single.records[-1].cumcost


@pytest.mark.parametrize("s", [0.05, 0.95])
def test_extreme_s_at_the_finest_kappa(s):
    # choose_kappa picks kappa = 0.12 or finer here, where the unscaled b_l
    # leaves double range at one end of the pole sum
    res = run(small_config(s=s, kappa=None, tol=1e-13, initial_cells=8, max_iterations=3))
    assert len(res.records) == 3
    assert all(np.isfinite(r.eta_union) for r in res.records)


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
