"""The acceptance gate: desk-scaled versions of the production experiments.

Every numeric gate (tolerance, band, iteration cap) is pinned here, not
computed at run time.  Each test prints one PASS/FAIL line; run with ``-s``
to watch them appear.  The long runs are shared through module-scope
fixtures, so the whole module takes tens of minutes on one core.
"""

import itertools
import math
import time

import numpy as np
import pytest

import fracadapt as fa
from fracadapt import estimators
from fracadapt.driver import MARKING_SLACK, doerfler_mark
from fracadapt.mesh import ancestor_cell_map

SQUARE = fa.DomainSpec("square")
UNIT = fa.DomainSpec("unit-square")
LSHAPE = fa.DomainSpec("lshape")

TABLE_N = {0.1: 408, 0.3: 176, 0.5: 149, 0.7: 176, 0.9: 408}


def check(name, ok, detail):
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _p1_at(w, cell, pts):
    """Values of the P1 function ``w`` at the points ``pts`` of its mesh's
    cells ``cell``, by barycentric coordinates solved from the corners."""
    corners = w.mesh.cells[cell]
    x = w.mesh.vertices[corners]
    T = np.stack([x[:, 1] - x[:, 0], x[:, 2] - x[:, 0]], axis=2)
    l1, l2 = np.linalg.solve(T, (pts - x[:, 0])[..., None])[..., 0].T
    return np.einsum("pk,pk->p", np.column_stack([1.0 - l1 - l2, l1, l2]), w.nodal_values[corners])


# -- shared long runs --------------------------------------------------------


@pytest.fixture(scope="module")
def case1_run():
    """Constant field on (-1,1)^2, s = 0.5, run to the desk-scale tolerance.

    At every checkpoint the exactness of the nested transfer is probed at 100
    random points per sampled problem, each in a random union cell, where the
    source is evaluated in the cell's ancestor; the worst relative mismatch
    per checkpoint is recorded alongside the run.
    """
    f = fa.RhsField.one()
    ref = fa.spectral_reference(SQUARE, f, 0.5, modes=10_000)
    rng = np.random.default_rng(2024)
    transfer_errors = []

    def probe_transfer(m, states, union, solution):
        cell = rng.integers(union.num_cells, size=100)
        bary = rng.dirichlet(np.ones(3), size=100)
        pts = np.einsum("pk,pkd->pd", bary, union.vertices[union.cells[cell]])
        # the most and least refined problems plus three rotating picks
        dofs = [st.mesh.num_interior_vertices for st in states]
        picks = {int(np.argmax(dofs)), int(np.argmin(dofs))}
        picks.update((m + j * 37) % len(states) for j in range(3))
        worst = 0.0
        for l in sorted(picks):
            src = states[l].solution
            moved = fa.transfer_p1(src, union)
            a = _p1_at(src, ancestor_cell_map(union, src.mesh)[cell], pts)
            b = _p1_at(moved, cell, pts)
            scale = max(np.max(np.abs(a)), 1e-300)
            worst = max(worst, float(np.max(np.abs(a - b)) / scale))
        transfer_errors.append((m, worst))

    cfg = fa.RunConfig(
        s=0.5, domain=SQUARE, f=f, theta=0.5, tol=3.8e-4, k=1, kappa=0.26,
        max_iterations=40,
    )
    t0 = time.perf_counter()
    res = fa.run(cfg, reference=ref, on_checkpoint=probe_transfer)
    return res, transfer_errors, time.perf_counter() - t0


@pytest.fixture(scope="module")
def case2_pair():
    """Discontinuous field on (0,1)^2, s = 0.3: multimesh and singlemesh runs
    to the same tolerance."""
    f = fa.RhsField.test2()
    out = {}
    t0 = time.perf_counter()
    for mode in ("multimesh", "singlemesh"):
        cfg = fa.RunConfig(
            s=0.3, domain=UNIT, f=f, theta=0.5, tol=1e-3, k=1, kappa=0.26,
            max_iterations=40, mode=mode,
        )
        out[mode] = fa.run(cfg)
    return out, time.perf_counter() - t0


def _case2_fraction_run(s):
    """Fixed-length multimesh run of the discontinuous-field problem, long
    enough for the never-refined population to settle."""
    f = fa.RhsField.test2()
    cfg = fa.RunConfig(
        s=s, domain=UNIT, f=f, theta=0.5, tol=1e-12, k=23, kappa=0.26,
        max_iterations=24,
    )
    return fa.run(cfg)


@pytest.fixture(scope="module")
def lshape_runs():
    """L-shape, s = 0.9: adaptive multimesh vs the uniform baseline."""
    f = fa.RhsField.one()
    adaptive = fa.run(
        fa.RunConfig(
            s=0.9, domain=LSHAPE, f=f, theta=0.5, tol=1e-12, k=1, kappa=0.26,
            max_iterations=16,
        )
    )
    uniform = fa.run(
        fa.RunConfig(
            s=0.9, domain=LSHAPE, f=f, theta=0.5, tol=1e-12, k=1, kappa=0.26,
            max_iterations=5, mode="uniform",
        )
    )
    return adaptive, uniform


# -- 1: pole counts ----------------------------------------------------------


def test_01_pole_counts():
    t0 = time.perf_counter()
    lam0 = fa.faber_krahn_lambda0(UNIT)
    got = {s: fa.bp_coefficients(s, 0.26, lam0).N for s in TABLE_N}
    dt = time.perf_counter() - t0
    check(
        "pole counts",
        got == TABLE_N and dt < 1.0,
        f"N(s) = {got}, {dt:.3f} s",
    )


# -- 2: uniform rational bound -----------------------------------------------


def test_02_uniform_rational_bound():
    t0 = time.perf_counter()
    violations = 0
    worst = 0.0
    for domain in (SQUARE, UNIT, LSHAPE):
        lam0 = fa.faber_krahn_lambda0(domain)
        lam = np.logspace(math.log10(lam0), 8.0, 200)
        lam[0] = lam0  # logspace round-trip can land a hair below lambda0
        for s in np.arange(0.1, 0.95, 0.1):
            for kappa in (0.20, 0.26, 0.35):
                scheme = fa.bp_coefficients(s, kappa, lam0)
                err = np.max(np.abs(lam**-s - fa.eval_Q(scheme, lam)))
                worst = max(worst, err / scheme.epsilon)
                if err > scheme.epsilon:
                    violations += 1
    dt = time.perf_counter() - t0
    check(
        "uniform rational bound",
        violations == 0 and dt < 2.0,
        f"0 violations required, got {violations}; "
        f"worst err/bound = {worst:.3f}, {dt:.2f} s",
    )


# -- 3: second-order FEM convergence -----------------------------------------


def test_03_fem_second_order():
    t0 = time.perf_counter()
    b, c = 1.0, 1.0

    def exact(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    f = fa.RhsField.manufactured(
        lambda x, y: (2.0 * b * np.pi**2 + c) * exact(x, y)
    )

    class _Exact:
        def eval(self, pts):
            return exact(pts[:, 0], pts[:, 1])

    mesh = fa.make_initial_mesh(UNIT, 128)
    errs = []
    for _ in range(4):
        w = fa.assemble_and_solve(mesh, b, c, f)
        errs.append(fa.l2_error(_Exact(), w))
        mesh = fa.uniform_refine(mesh)
    ratios = [errs[i] / errs[i + 1] for i in range(3)]
    dt = time.perf_counter() - t0
    check(
        "second-order FEM convergence",
        all(3.6 <= r <= 4.4 for r in ratios) and dt < 30.0,
        f"L2-error ratios {[f'{r:.3f}' for r in ratios]} in [3.6, 4.4], {dt:.1f} s",
    )


# -- 4: eigenfunction end to end ---------------------------------------------


def test_04_eigenfunction_end_to_end():
    t0 = time.perf_counter()
    f = fa.eigenfunction_field(SQUARE, 1, 1)
    ref = fa.eigenfunction_reference(SQUARE, 1, 1, 0.5)
    cfg = fa.RunConfig(
        s=0.5, domain=SQUARE, f=f, theta=0.5, tol=1e-12, k=14, kappa=0.26,
        max_iterations=15,
    )
    res = fa.run(cfg, reference=ref)
    rec = res.records[-1]
    dt = time.perf_counter() - t0
    ok = (
        rec.total_dofs >= 10_000
        and 0.5 <= rec.effectivity <= 2.0
        and dt < 300.0
    )
    check(
        "eigenfunction end to end",
        ok,
        f"total dofs {rec.total_dofs}, eta/error = {rec.effectivity:.3f} "
        f"in [0.5, 2], {dt:.0f} s",
    )


# -- 5: constant-field run: scale, decay rate, effectivity -------------------


def test_05_case1_rate(case1_run):
    res, _, dt = case1_run
    rec = res.records[-1]
    rate = fa.decay_rate(res.records, window=15)
    ok = (
        res.stopped == "tol"
        and 9_000 <= rec.union_dofs <= 19_000
        and 0.80 <= rate <= 1.00
        and dt < 900.0
    )
    check(
        "constant-field decay rate",
        ok,
        f"union dofs {rec.union_dofs} (~13k), eta_union rate {rate:.3f} "
        f"in 0.90 +/- 0.10, {dt:.0f} s",
    )


def test_05_case1_effectivity(case1_run):
    res, _, _ = case1_run
    effs = [
        (r.m, r.effectivity)
        for r in res.records
        if r.effectivity is not None and r.m > 10
    ]
    bad = [(m, e) for m, e in effs if not (0.6 <= e <= 1.2)]
    check(
        "constant-field effectivity band",
        len(effs) > 0 and not bad,
        f"{len(effs)} checkpoints past m=10, all in [0.6, 1.2]; "
        f"range [{min(e for _, e in effs):.3f}, {max(e for _, e in effs):.3f}]",
    )


# -- 6: L-shape adaptive vs uniform ------------------------------------------


def test_06_lshape_rates(lshape_runs):
    adaptive, uniform = lshape_runs
    rate_a = fa.decay_rate(adaptive.records, window=15)
    rate_u = fa.decay_rate(uniform.records, window=5)
    check(
        "L-shape adaptive vs uniform rate",
        rate_a >= 0.90 and rate_a > rate_u,
        f"adaptive {rate_a:.3f} >= 0.90 and > uniform {rate_u:.3f}",
    )


# -- 7: multimesh cost advantage ---------------------------------------------


def test_07_cost_advantage(case2_pair):
    runs, dt = case2_pair
    multi = runs["multimesh"]
    single = runs["singlemesh"]
    eta_m = multi.records[-1].eta_union
    eta_s = single.records[-1].eta_union
    ratio = single.records[-1].cumcost / multi.records[-1].cumcost
    ok = (
        multi.stopped == "tol"
        and single.stopped == "tol"
        and 0.5 <= eta_m / eta_s <= 2.0
        and ratio >= 3.0
        and dt < 1800.0
    )
    check(
        "multimesh cost advantage",
        ok,
        f"final eta_union {eta_m:.3e} vs {eta_s:.3e} (matched tol 1e-3), "
        f"cumcost ratio {ratio:.2f} >= 3, {dt:.0f} s",
    )


# -- 8: carry-over and never-refined population ------------------------------


def test_08_carry_over_no_recompute(case2_pair):
    multi = case2_pair[0]["multimesh"]
    mismatches = 0
    for m in range(1, len(multi.records)):
        if set(multi.solved_per_iter[m]) != set(multi.marked_per_iter[m - 1]):
            mismatches += 1
    n = multi.scheme.N
    total_solves = int(multi.solve_counts.sum())
    expected = sum(r.solved_problems for r in multi.records)
    check(
        "carry-over call counts",
        mismatches == 0 and total_solves == expected,
        f"{len(multi.records)} iterations, re-solved sets equal previous "
        f"mark sets; {total_solves} solves for N = {n} problems",
    )


@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_08_never_refined_fraction(s):
    res = _case2_fraction_run(s)
    frac = float(np.mean(res.refine_counts == 0))
    check(
        f"never-refined population (s={s})",
        0.35 <= frac <= 0.60,
        f"fraction {frac:.3f} of N = {res.scheme.N} problems in [0.35, 0.60] "
        f"after {len(res.records)} iterations",
    )


# -- 9: exact nested transfer ------------------------------------------------


def test_09_nested_transfer_exact(case1_run):
    _, transfer_errors, _ = case1_run
    worst = max(e for _, e in transfer_errors)
    check(
        "nested transfer exactness",
        len(transfer_errors) > 0 and worst <= 1e-12,
        f"{len(transfer_errors)} checkpoints, 100 random points each, "
        f"worst relative mismatch {worst:.2e} <= 1e-12",
    )


# -- 10: estimator-path equivalence on equal meshes --------------------------


def test_10_estimator_path_equivalence():
    f = fa.RhsField.one()
    lam0 = fa.faber_krahn_lambda0(UNIT)
    scheme = fa.bp_coefficients(0.5, 0.6, lam0)
    mesh = fa.uniform_refine(fa.make_initial_mesh(UNIT, 32))
    states = []
    for l in range(scheme.N):
        w = fa.assemble_and_solve(mesh, scheme.b[l], scheme.c[l], f)
        states.append(
            fa.ParametricState(index=l, mesh=mesh, solution=w, dirty=False)
        )
    via_union = estimators.global_union_estimate(scheme, states, mesh, f)[0]
    direct = estimators.combined_equal_mesh_estimate(scheme, states, f)
    rel = abs(via_union - direct) / direct
    check(
        "estimator-path equivalence",
        rel <= 1e-12,
        f"union-path {via_union:.12e} vs single-mesh {direct:.12e}, "
        f"rel diff {rel:.2e} <= 1e-12",
    )


# -- 11: bulk-marking optimality ---------------------------------------------


class _Scheme:
    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)


def _exhaustive_minimum(flat, theta):
    total = sum(flat)
    if total == 0.0:
        return 0
    for size in range(len(flat) + 1):
        for combo in itertools.combinations(flat, size):
            if sum(combo) >= theta * total - MARKING_SLACK * total:
                return size
    return len(flat)


def test_11_marking_optimality():
    rng = np.random.default_rng(7)
    failures = 0
    for _ in range(1000):
        n_problems = int(rng.integers(1, 4))
        sizes = rng.integers(1, 5, size=n_problems)
        while sizes.sum() > 12:
            sizes[np.argmax(sizes)] -= 1
        inds = [rng.uniform(0.0, 10.0, size=sz) for sz in sizes]
        a = rng.uniform(0.1, 10.0, size=n_problems)
        theta = float(rng.uniform(0.05, 1.0))
        states = [
            fa.ParametricState(
                index=l, mesh=None, solution=None, indicators=inds[l], dirty=False
            )
            for l in range(n_problems)
        ]
        marks = doerfler_mark(states, _Scheme(a), theta)
        weighted_sq = [(a[l] * inds[l]) ** 2 for l in range(n_problems)]
        total = sum(float(row.sum()) for row in weighted_sq)
        picked = sum(
            weighted_sq[l][k] for l in range(n_problems) for k in marks[l]
        )
        card = sum(len(m) for m in marks)
        flat = [v for row in weighted_sq for v in row]
        if picked < theta * total - 1e-9 * total:
            failures += 1
        elif card != _exhaustive_minimum(flat, theta):
            failures += 1
    check(
        "bulk-marking optimality",
        failures == 0,
        f"1000 random trials vs exhaustive oracle, {failures} failures",
    )
