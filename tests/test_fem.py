import math

import numpy as np
import pytest

from fracadapt import fem
from fracadapt.fem import (
    TRI_QP,
    FeFunction,
    RhsField,
    SolveError,
    assemble_and_solve,
    combine_on_union,
    l2_norm,
    transfer_p1,
)
from fracadapt.mesh import DomainSpec, make_initial_mesh, refine, uniform_refine, union_mesh
from fracadapt.rational import bp_coefficients

UNIT = DomainSpec("unit-square")


def sinsin(x, y):
    return np.sin(math.pi * np.asarray(x)) * np.sin(math.pi * np.asarray(y))


class _Exact:
    """Callable-on-points wrapper so l2_error accepts a plain function."""

    def __init__(self, fn):
        self.fn = fn

    def eval(self, pts):
        pts = np.atleast_2d(pts)
        return self.fn(pts[:, 0], pts[:, 1])


def manufactured_problem(b, c):
    """Reaction-diffusion problem whose exact solution is sin(pi x) sin(pi y)."""
    lam = 2.0 * math.pi**2

    def f(x, y):
        return (b * lam + c) * sinsin(x, y)

    return RhsField.manufactured(f), _Exact(sinsin)


def test_quadrature_exactness_degree_4():
    # the 6-point rule integrates x^a y^b, a+b <= 4, exactly on the reference
    # triangle; check via barycentric monomials lam1^a lam2^b
    from math import factorial

    for a in range(5):
        for b in range(5 - a):
            exact = (
                factorial(a) * factorial(b) / factorial(a + b + 2) * 2.0
            )  # integral of lam1^a lam2^b over the unit-area reference triangle
            approx = np.sum(fem.TRI_QW * fem.TRI_QP[:, 1] ** a * fem.TRI_QP[:, 2] ** b)
            assert approx == pytest.approx(exact, rel=1e-12), (a, b)


def test_fem_second_order_convergence():
    f, exact = manufactured_problem(1.0, 1.0)
    from fracadapt.oracle import l2_error

    m = make_initial_mesh(UNIT, 32)
    errs = []
    for _ in range(4):
        w = assemble_and_solve(m, 1.0, 1.0, f)
        errs.append(l2_error(exact, w))
        m = uniform_refine(m)
    ratios = [errs[i] / errs[i + 1] for i in range(3)]
    assert all(3.6 <= r <= 4.4 for r in ratios), ratios


def test_solution_zero_on_boundary():
    m = make_initial_mesh(UNIT, 32)
    w = assemble_and_solve(m, 1.0, 1.0, RhsField.one())
    assert np.all(w.nodal_values[m.boundary_vertex] == 0.0)
    assert np.all(w.nodal_values[~m.boundary_vertex] > 0.0)  # positive rhs


def test_extreme_coefficients_scaled_solve():
    # b spans ~32 orders of magnitude in the pole sum; the scaled solve must
    # stay accurate at both ends
    m = make_initial_mesh(UNIT, 128)
    f = RhsField.one()
    # diffusion-dominated: w ~ 0 in the interior scale 1/b
    w = assemble_and_solve(m, 1e16, 1.0, f)
    assert np.all(np.isfinite(w.nodal_values))
    assert np.abs(w.nodal_values).max() < 1e-14
    # reaction-dominated: w is the L2 projection of f/c, close to 1 away from
    # the boundary layer (nodal over/undershoot of a few percent is expected)
    w = assemble_and_solve(m, 1e-16, 1.0, f)
    center = np.flatnonzero(
        (np.abs(m.vertices[:, 0] - 0.5) < 0.2) & (np.abs(m.vertices[:, 1] - 0.5) < 0.2)
    )
    assert np.allclose(w.nodal_values[center], 1.0, atol=0.05)


def test_caches_not_served_across_fields():
    # fields built and dropped in a loop may reuse one id(); the per-mesh
    # load-vector and quadrature caches must still tell them apart
    m = make_initial_mesh(UNIT, 32)
    ref = assemble_and_solve(make_initial_mesh(UNIT, 32), 1.0, 1.0, RhsField.one())
    for k in range(50):
        w = assemble_and_solve(
            m, 1.0, 1.0, RhsField.manufactured(lambda x, y: (k + 1) * np.ones_like(x))
        )
        assert np.allclose(w.nodal_values, (k + 1) * ref.nodal_values, rtol=1e-12, atol=0)


def test_reaction_limit_mass_identity():
    # with b -> 0 the discrete problem is M w = F; verify against a direct
    # dense solve of the mass system
    m = make_initial_mesh(UNIT, 32)
    f = RhsField.one()
    K, M = fem._matrices(m)
    F = fem._load_vector(m, f)
    interior = ~m.boundary_vertex
    dense = np.linalg.solve(M.toarray()[np.ix_(interior, interior)], F[interior])
    w = assemble_and_solve(m, 1e-30, 1.0, f)
    assert np.allclose(w.nodal_values[interior], dense, rtol=1e-9)


def test_stiffness_matrix_against_dense_assembly():
    m = refine(make_initial_mesh(UNIT, 8), {0})
    K, M = fem._matrices(m)
    n = m.num_vertices
    Kd = np.zeros((n, n))
    Md = np.zeros((n, n))
    for cell, area in zip(m.cells, m.cell_areas()):
        x = m.vertices[cell]
        G = np.column_stack([np.ones(3), x])
        C = np.linalg.inv(G)  # rows: coefficients of the three hats
        grads = C[1:, :].T  # (3, 2)
        Kd[np.ix_(cell, cell)] += area * grads @ grads.T
        Md[np.ix_(cell, cell)] += area * (np.ones((3, 3)) + np.eye(3)) / 12.0
    assert np.allclose(K.toarray(), Kd, atol=1e-12)
    assert np.allclose(M.toarray(), Md, atol=1e-12)


def test_solve_error_carries_residual():
    m = make_initial_mesh(UNIT, 32)
    with pytest.raises(SolveError) as exc_info:
        assemble_and_solve(m, 1.0, 1.0, RhsField.one(), rel_tol=0.0)
    assert exc_info.value.residual >= 0.0


def test_invalid_coefficients():
    m = make_initial_mesh(UNIT, 8)
    with pytest.raises(ValueError):
        assemble_and_solve(m, 0.0, 1.0, RhsField.one())
    with pytest.raises(ValueError):
        assemble_and_solve(m, 1.0, -2.0, RhsField.one())


def test_transfer_p1_exact_at_random_points():
    m0 = make_initial_mesh(UNIT, 32)
    m1 = refine(m0, {0, 3, 11})
    rng = np.random.default_rng(0)
    w = FeFunction(m0, rng.normal(size=m0.num_vertices))
    wt = transfer_p1(w, m1)
    pts = rng.uniform(0.001, 0.999, size=(100, 2))
    a = w.eval(pts)
    b = wt.eval(pts)
    assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))


def test_transfer_p1_same_mesh_copies():
    m = make_initial_mesh(UNIT, 8)
    w = FeFunction(m, np.arange(m.num_vertices, dtype=float))
    wt = transfer_p1(w, m)
    assert np.array_equal(wt.nodal_values, w.nodal_values)
    assert wt.nodal_values is not w.nodal_values


def test_stacked_values_match_columns():
    # (n, L) nodal values: transfer, gradients and cell values must equal the
    # one-column results column by column; point values sum in another order
    m0 = make_initial_mesh(UNIT, 32)
    m1 = refine(m0, {0, 3, 11, 20})
    rng = np.random.default_rng(5)
    W = rng.normal(size=(m0.num_vertices, 4))
    stacked = FeFunction(m0, W)
    moved = transfer_p1(stacked, m1)
    pts = rng.uniform(0.001, 0.999, size=(20, 2))
    for k in range(W.shape[1]):
        one = FeFunction(m0, W[:, k])
        assert np.array_equal(moved.nodal_values[:, k], transfer_p1(one, m1).nodal_values)
        assert np.array_equal(stacked.cell_gradients()[..., k], one.cell_gradients())
        assert np.allclose(stacked.eval(pts)[:, k], one.eval(pts), rtol=1e-15, atol=1e-15)
        assert np.array_equal(stacked.cell_values_at(TRI_QP)[..., k], one.cell_values_at(TRI_QP))


def test_transfer_preserves_l2_norm():
    # nested P1 spaces: the transferred function is the same function
    m0 = make_initial_mesh(UNIT, 32)
    m1 = uniform_refine(refine(m0, {1, 2}))
    w = assemble_and_solve(m0, 1.0, 1.0, RhsField.one())
    wt = transfer_p1(w, m1)
    assert l2_norm(wt) == pytest.approx(l2_norm(w), rel=1e-12)


def test_combine_on_union_matches_manual_sum():
    scheme = bp_coefficients(0.5, 0.5, 1.0)
    m0 = make_initial_mesh(UNIT, 32)
    meshes = [m0, refine(m0, {0, 1}), refine(m0, {8, 9})]
    states = []
    rng = np.random.default_rng(7)
    for l in range(scheme.N):
        mesh = meshes[l % 3]
        states.append(
            fem.ParametricState(
                index=l,
                mesh=mesh,
                solution=FeFunction(mesh, rng.normal(size=mesh.num_vertices)),
                dirty=False,
            )
        )
    u = union_mesh([st.mesh for st in states])
    combined = combine_on_union(scheme, states, u)
    pts = rng.uniform(0.01, 0.99, size=(25, 2))
    expected = np.zeros(len(pts))
    for st in states:
        expected += scheme.a[st.index] * st.solution.eval(pts)
    expected *= scheme.C
    assert np.allclose(combined.eval(pts), expected, rtol=1e-11, atol=1e-13)


def test_rhs_field_test2_values():
    f = RhsField.test2()
    # inside either disc of radius 0.6 about (0,0) or (1,1): -1, else +1
    assert f(0.1, 0.1) == -1.0
    assert f(0.9, 0.95) == -1.0
    assert f(0.5, 0.5) == 1.0
    assert f(0.7, 0.1) == 1.0
    x = np.array([0.0, 0.5, 1.0])
    assert np.array_equal(f(x, x), [-1.0, 1.0, -1.0])


def test_l2_norm_of_constant():
    m = make_initial_mesh(DomainSpec("square"), 32)
    assert l2_norm(RhsField.one(), m) == pytest.approx(2.0)  # sqrt(area) = 2


def test_fefunction_validation():
    m = make_initial_mesh(UNIT, 8)
    with pytest.raises(ValueError):
        FeFunction(m, np.zeros(3))
