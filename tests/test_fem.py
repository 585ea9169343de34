import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from fracadapt import fem
from fracadapt import mesh as meshmod
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
from fracadapt.mesh import (
    DomainSpec,
    TriMesh,
    make_initial_mesh,
    read_mesh,
    refine,
    uniform_refine,
    union_mesh,
    write_mesh,
)
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
    # b/c spans ~32 orders of magnitude; the solve must stay accurate at
    # both ends
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


def test_twin_solve_matches_fresh_mesh():
    # a twin reuses the system and load vector of the mesh it shares a cache
    # with; its solve must match one on an unshared mesh
    f = RhsField.test2()
    marks = {0, 5, 17}
    m0 = make_initial_mesh(UNIT, 32)
    first = refine(m0, marks)
    assemble_and_solve(first, 1e-3, 1.0, f)
    twin = refine(m0, marks)
    assert twin is not first and twin._cache is first._cache
    fresh = refine(make_initial_mesh(UNIT, 32), marks)
    assert fresh._cache is not first._cache
    for b, c in ((1e-3, 1.0), (2.5, 0.5)):
        w, ref = assemble_and_solve(twin, b, c, f), assemble_and_solve(fresh, b, c, f)
        err = np.max(np.abs(w.nodal_values - ref.nodal_values))
        assert err <= 1e-13 * np.max(np.abs(ref.nodal_values))


def _random_mesh(m, rng):
    for _ in range(6):
        m = refine(m, rng.choice(m.num_cells, m.num_cells // 6, replace=False))
    return m


@pytest.mark.parametrize("kind, cells", [("square", 32), ("unit-square", 32), ("lshape", 96)])
def test_solution_depends_only_on_the_leaves(kind, cells):
    # no first-solve path: repeated solves on one mesh, a twin of a mesh kept
    # alive and a fresh build in another forest all give the same bits
    f = RhsField.test2()
    m0 = make_initial_mesh(DomainSpec(kind), cells)
    for seed in range(6):
        mesh = _random_mesh(m0, np.random.default_rng(seed))
        first = assemble_and_solve(mesh, 1e-3, 1.0, f).nodal_values
        assert np.array_equal(assemble_and_solve(mesh, 1e-3, 1.0, f).nodal_values, first)
        twin = _random_mesh(m0, np.random.default_rng(seed))
        fresh = TriMesh(make_initial_mesh(DomainSpec(kind), cells).base, mesh.cell_key.copy())
        assert twin._cache is mesh._cache and fresh._cache is not mesh._cache
        for b, c in ((1e-3, 1.0), (2.5, 0.5)):
            w = assemble_and_solve(twin, b, c, f).nodal_values
            assert np.array_equal(assemble_and_solve(fresh, b, c, f).nodal_values, w)


def _dense_matrices(m):
    """Stiffness and mass on all vertices, assembled cell by cell."""
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
    return Kd, Md


def _system_to_dense(system, values):
    """Expand the cached CSC values (``system.k`` or ``system.m``) to the
    dense interior matrix in ``system.dofs`` order."""
    n = len(system.dofs)
    return sp.csc_matrix((values, system.indices, system.indptr), shape=(n, n)).toarray()


def test_reaction_limit_mass_identity():
    # with b -> 0 the discrete problem is M w = F; verify against a direct
    # dense solve of the mass system
    m = make_initial_mesh(UNIT, 32)
    f = RhsField.one()
    system = fem._system(m)
    F = fem._load_vector(m, f)[system.dofs]
    dense = np.linalg.solve(_system_to_dense(system, system.m), F)
    w = assemble_and_solve(m, 1e-30, 1.0, f)
    assert np.allclose(w.nodal_values[system.dofs], dense, rtol=1e-9)


def test_stiffness_matrix_against_dense_assembly():
    # the cached system holds the interior block of both matrices
    for cells, marked in ((8, {0}), (32, {0, 5})):
        m = refine(make_initial_mesh(UNIT, cells), marked)
        Kd, Md = _dense_matrices(m)
        system = fem._system(m)
        block = np.ix_(system.dofs, system.dofs)
        assert np.allclose(_system_to_dense(system, system.k), Kd[block], atol=1e-12)
        assert np.allclose(_system_to_dense(system, system.m), Md[block], atol=1e-12)


def test_forest_order_is_nested_dissection():
    # the system's order is a permutation of the interior vertices in which
    # every interior edge joins a separator node to one of its descendants,
    # and factoring in that order fills less than COLAMD on the vertex order
    meshes = [refine(uniform_refine(uniform_refine(make_initial_mesh(UNIT, 32))), {0, 7, 40})]
    meshes += [
        _random_mesh(make_initial_mesh(DomainSpec(kind), cells), np.random.default_rng(3))
        for kind, cells in (("square", 32), ("lshape", 24))
    ]
    for m in meshes:
        interior = np.flatnonzero(~m.boundary_vertex)
        assert np.array_equal(np.sort(fem._system(m).dofs), interior)
        prefix, mask = meshmod.separator_nodes(m)
        u, v = m.edges[~m.boundary_vertex[m.edges].any(axis=1)].T
        above = np.maximum(mask[u], mask[v])  # the shallower node's mask
        assert np.array_equal(prefix[u] | above, prefix[v] | above)

    def fill(system, permc_spec):
        n = len(system.dofs)
        A = sp.csc_matrix((system.k + system.m, system.indices, system.indptr), shape=(n, n))
        lu = splu(A, permc_spec=permc_spec, diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        return lu.L.nnz

    m = make_initial_mesh(DomainSpec("lshape"), 384)
    for _ in range(3):
        m = uniform_refine(m)
    system = fem._system(m)
    assert len(system.dofs) == 12_033
    by_vertex = fem._build_system(m, np.flatnonzero(~m.boundary_vertex))
    assert fill(system, "NATURAL") < fill(by_vertex, "COLAMD")


def _written_and_read(tmp_path):
    path = tmp_path / "refined.txt"
    write_mesh(refine(make_initial_mesh(UNIT, 32), {0, 3, 11}), path)
    return read_mesh(path)


_EXTREME = bp_coefficients(0.95, 0.26, 2.0 * math.pi**2)


# the ends of the pole sum: (b, c) = (1.6e-9, 1) and (1, 8.2e-166)
@pytest.mark.parametrize(
    "b, c", [(_EXTREME.b[0], _EXTREME.c[0]), (_EXTREME.b[-1], _EXTREME.c[-1])],
    ids=["b_min", "b_max"],
)
@pytest.mark.parametrize(
    "make_mesh",
    [
        lambda tmp: make_initial_mesh(UNIT, 32),
        lambda tmp: make_initial_mesh(DomainSpec("lshape"), 96),
        _written_and_read,
        lambda tmp: make_initial_mesh(UNIT, 8),  # one interior vertex
        lambda tmp: make_initial_mesh(UNIT, 2),  # no interior vertex
    ],
    ids=["square", "lshape", "read_mesh", "one_interior", "no_interior"],
)
def test_solve_matches_dense_solve(make_mesh, b, c, tmp_path):
    m = make_mesh(tmp_path)
    f = RhsField.test2()
    Kd, Md = _dense_matrices(m)
    F = fem._load_vector(m, f)
    interior = ~m.boundary_vertex
    ref = np.zeros(m.num_vertices)
    if interior.any():
        block = np.ix_(interior, interior)
        ref[interior] = np.linalg.solve(b * Kd[block] + c * Md[block], F[interior])
    # the first solve orders the mesh's system, the second reuses that order
    for _ in range(2):
        w = assemble_and_solve(m, b, c, f).nodal_values
        assert np.all(w[~interior] == 0.0)
        assert np.max(np.abs(w - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_solve_error_carries_residual():
    m = make_initial_mesh(UNIT, 32)
    with pytest.raises(SolveError) as exc_info:
        assemble_and_solve(m, 1.0, 1.0, RhsField.one(), rel_tol=0.0)
    assert exc_info.value.residual >= 0.0


def test_singular_matrix_raises_solve_error():
    # zeroing the cached values makes b K + c M singular; the factorization
    # failure must surface as SolveError naming b and c
    m = make_initial_mesh(UNIT, 32)
    system = fem._system(m)
    system.k[:] = 0.0
    system.m[:] = 0.0
    with pytest.raises(SolveError, match=r"b = 1.0, c = 1e-06"):
        assemble_and_solve(m, 1.0, 1e-6, RhsField.one())


def test_invalid_coefficients():
    m = make_initial_mesh(UNIT, 8)
    for b, c in [(0.0, 0.0), (-1.0, 1.0), (1.0, -2.0), (math.inf, 1.0), (math.nan, 1.0),
                 (1.0, math.inf)]:
        with pytest.raises(ValueError, match=r"b = .*, c = "):
            assemble_and_solve(m, b, c, RhsField.one())


@pytest.mark.parametrize("b, c", [(0.0, 1.0), (1.0, 0.0)], ids=["mass", "stiffness"])
def test_one_zero_coefficient_solves(b, c):
    # the pole sum stores b_l = 0 or c_l = 0 where the other term dominates
    # beyond double range; either alone is an SPD system
    m = make_initial_mesh(UNIT, 32)
    f = RhsField.test2()
    Kd, Md = _dense_matrices(m)
    interior = ~m.boundary_vertex
    block = np.ix_(interior, interior)
    ref = np.linalg.solve(b * Kd[block] + c * Md[block], fem._load_vector(m, f)[interior])
    w = assemble_and_solve(m, b, c, f).nodal_values
    assert np.max(np.abs(w[interior] - ref)) <= 1e-9 * np.max(np.abs(ref))


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
