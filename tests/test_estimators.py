import math

import numpy as np
import pytest

from fracadapt import estimators, fem
from fracadapt import mesh as meshmod
from fracadapt.estimators import (
    combined_equal_mesh_estimate,
    global_triangle_estimate,
    global_union_estimate,
    local_indicators,
)
from fracadapt.fem import (
    FeFunction,
    ParametricState,
    RhsField,
    assemble_and_solve,
    combine_on_union,
    transfer_p1,
)
from fracadapt.mesh import (
    DomainSpec,
    ancestor_cell_map,
    make_initial_mesh,
    nested_barycentric,
    read_mesh,
    refine,
    uniform_refine,
    union_mesh,
    write_mesh,
)
from fracadapt.oracle import l2_error
from fracadapt.rational import bp_coefficients

UNIT = DomainSpec("unit-square")


def _solved_state(index, mesh, b, c, f):
    w = assemble_and_solve(mesh, b, c, f)
    return ParametricState(
        index=index,
        mesh=mesh,
        solution=w,
        indicators=local_indicators(mesh, w, b, c, f),
        dirty=False,
    )


def test_indicators_nonnegative_finite():
    m = refine(make_initial_mesh(UNIT, 32), {0, 5})
    w = assemble_and_solve(m, 1.0, 1.0, RhsField.one())
    eta = local_indicators(m, w, 1.0, 1.0, RhsField.one())
    assert eta.shape == (m.num_cells,)
    assert np.all(np.isfinite(eta)) and np.all(eta >= 0.0)
    assert eta.max() > 0.0


# corners v0, v1, v2, then the midpoints of (v0, v1), (v1, v2), (v2, v0)
_NODES = np.array(
    [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0.5, 0.5, 0], [0, 0.5, 0.5], [0.5, 0, 0.5]]
)
# children (v2, v0, m01) and (v1, v2, m01), each bisected once more
_SUBTRIANGLES = [[3, 2, 5], [0, 3, 5], [3, 1, 4], [2, 3, 4]]


def _subtriangle_matrices(X):
    """Enrichment stiffness and mass of the cell with corners X (3, 2), by
    brute-force quadrature over its 4 subtriangles."""
    S = np.zeros((3, 3))
    M = np.zeros((3, 3))
    nodes = _NODES @ X
    for sub in _SUBTRIANGLES:
        tri = nodes[sub]
        e1, e2 = tri[1] - tri[0], tri[2] - tri[0]
        area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
        hat_grads = np.linalg.inv(np.column_stack([np.ones(3), tri]))[1:].T
        # midpoint hat i is 1 at local node 3 + i: (3 basis, 3 corners)
        V = (np.array(sub)[None, :] == np.arange(3, 6)[:, None]).astype(float)
        grads = V @ hat_grads
        S += area * grads @ grads.T
        M += area * V @ ((np.ones((3, 3)) + np.eye(3)) / 12.0) @ V.T
    return S, M


def _dense_indicators(mesh, w, b, c, f):
    """Indicators from a dense per-cell solve of (b S_K + c M_K) e = r_K."""
    jump = estimators._edge_jumps(mesh, w.cell_gradients().T[None])
    corner_vals = w.nodal_values[mesh.cells].T[None]
    rhs = estimators._rhs(mesh, corner_vals, jump, b, c, f)[0].T
    eta = np.empty(mesh.num_cells)
    for k, cell in enumerate(mesh.cells):
        S, M = _subtriangle_matrices(mesh.vertices[cell])
        e = np.linalg.solve(b * S + c * M, rhs[k])
        eta[k] = np.sqrt(e @ M @ e)
    return eta


def _perturbed_mesh(tmp_path, cells=32, seed=3):
    """A read_mesh mesh of the unit square with moved interior vertices, so
    that few of its cells share a shape."""
    m = make_initial_mesh(UNIT, cells)
    rng = np.random.default_rng(seed)
    interior = ~m.boundary_vertex
    m.vertices[interior] += rng.uniform(-0.04, 0.04, size=(np.count_nonzero(interior), 2))
    path = tmp_path / "perturbed.txt"
    write_mesh(m, path)
    out = read_mesh(path)
    shapes = estimators._shape(out.vertices[out.cells])
    assert len(np.unique(shapes, axis=0)) > out.num_cells // 2
    return out


def test_closed_form_stiffness_against_subtriangle_quadrature():
    # S_K from the shape q and the reference tensors, and M_K = |K| M_ref,
    # on random triangles no two of which are similar
    rng = np.random.default_rng(11)
    X = rng.uniform(-2.0, 2.0, size=(40, 3, 2))
    e1, e2 = X[:, 1] - X[:, 0], X[:, 2] - X[:, 0]
    area = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    keep = area > 0.05
    X, area = X[keep], area[keep]
    S = np.einsum("ma,aij->mij", estimators._shape(X), estimators._T)
    for k in range(len(X)):
        S_ref, M_ref = _subtriangle_matrices(X[k])
        scale = np.abs(S_ref).max()
        assert np.allclose(S[k], S_ref, rtol=0, atol=1e-12 * scale)
        assert np.allclose(area[k] * estimators._MREF, M_ref, rtol=0, atol=1e-14 * area[k])


@pytest.mark.parametrize("b", [1e-3, 1.0, 1e3, 1e60, 1e120, 1.2e165])
def test_modal_solve_matches_dense_solve(b, tmp_path):
    # many distinct shapes, b across the whole range of the pole sums
    m = _perturbed_mesh(tmp_path)
    rng = np.random.default_rng(2)
    w = FeFunction(m, rng.normal(size=m.num_vertices))
    f = RhsField.test2()
    eta = local_indicators(m, w, b, 0.7, f)
    assert np.allclose(eta, _dense_indicators(m, w, b, 0.7, f), rtol=1e-12, atol=0)


def _graded_mesh(levels=6):
    """The unit square bisected again and again towards the corner (0, 0)."""
    m = make_initial_mesh(UNIT, 32)
    for _ in range(levels):
        centroid = m.vertices[m.cells].mean(axis=1)
        m = refine(m, np.flatnonzero(np.hypot(*centroid.T) < 0.3))
    return m


@pytest.mark.parametrize("kind", ["graded", "read_mesh"])
@pytest.mark.parametrize("L", [1, 3, estimators._BLOCK])
def test_stacked_indicators_equal_per_problem_calls(kind, L, tmp_path):
    # one stacked call gives every problem the indicators of its own call,
    # bit for bit, for b across the whole range of the pole sums
    m = _graded_mesh() if kind == "graded" else _perturbed_mesh(tmp_path)
    rng = np.random.default_rng(L)
    b = rng.permutation(np.geomspace(1e-3, 1.2e165, max(L, 2)))[:L]
    c = rng.uniform(0.5, 2.0, L)
    w = rng.normal(size=(m.num_vertices, L))
    f = RhsField.test2()
    stacked = local_indicators(m, FeFunction(m, w), b, c, f)
    assert stacked.shape == (m.num_cells, L)
    for k in range(L):
        one = local_indicators(m, FeFunction(m, w[:, k]), b[k], c[k], f)
        assert np.array_equal(stacked[:, k], one)


def test_union_estimate_matches_dense_reference_on_perturbed_mesh(tmp_path):
    scheme = bp_coefficients(0.5, 0.6, 1.0)
    m = _perturbed_mesh(tmp_path)
    f = RhsField.one()
    states = [
        _solved_state(l, m, scheme.b[l], scheme.c[l], f) for l in range(scheme.N)
    ]
    a = combined_equal_mesh_estimate(scheme, states, f)
    assert global_union_estimate(scheme, states, m, f)[0] == pytest.approx(a, rel=1e-12)


def test_union_estimate_matches_transferred_dense_reference(tmp_path):
    # three source meshes, each holding more states than one stacked block;
    # the reference solves every transferred state densely on the union
    scheme = bp_coefficients(0.5, 0.6, 1.0)
    m0 = _perturbed_mesh(tmp_path)
    meshes = [m0, refine(m0, {0, 1, 2}), refine(refine(m0, {20, 21}), {5})]
    f = RhsField.test2()
    states = [
        _solved_state(l, meshes[l % 3], scheme.b[l], scheme.c[l], f)
        for l in range(scheme.N)
    ]
    assert scheme.N // 3 > estimators._BLOCK
    u = union_mesh(meshes)
    moved = [
        ParametricState(index=st.index, mesh=u, solution=transfer_p1(st.solution, u))
        for st in states
    ]
    a = combined_equal_mesh_estimate(scheme, moved, f)
    assert global_union_estimate(scheme, states, u, f)[0] == pytest.approx(a, rel=1e-12)


def test_union_pass_returns_recombined_solution(tmp_path):
    # the solution of the union pass must equal the one-shot recombination,
    # for three source meshes each holding more states than one stacked block
    # and for states that all share one mesh
    scheme = bp_coefficients(0.5, 0.6, 1.0)
    m0 = _perturbed_mesh(tmp_path)
    meshes = [m0, refine(m0, {0, 1, 2}), refine(refine(m0, {20, 21}), {5})]
    f = RhsField.test2()
    assert scheme.N // 3 > estimators._BLOCK
    for sources in (meshes, meshes[1:2]):
        states = [
            _solved_state(l, sources[l % len(sources)], scheme.b[l], scheme.c[l], f)
            for l in range(scheme.N)
        ]
        u = union_mesh(sources)
        solution = global_union_estimate(scheme, states, u, f)[1]
        assert solution.mesh is u
        expected = combine_on_union(scheme, states, u).nodal_values
        err = np.max(np.abs(solution.nodal_values - expected)) / np.max(np.abs(expected))
        assert err <= 1e-14


def test_union_table_interpolates_like_transfer(tmp_path):
    # the per-source table gives each union cell the corner values that an
    # exact transfer puts on the union vertices
    m0 = _perturbed_mesh(tmp_path)
    src = refine(m0, {0, 1, 2})
    u = union_mesh([src, refine(refine(m0, {20, 21}), {5})])
    rng = np.random.default_rng(5)
    w = FeFunction(src, rng.normal(size=(src.num_vertices, 3)))
    parents = ancestor_cell_map(u, src)
    lam = nested_barycentric(u.cell_key, src.cell_key[parents])
    table = fem._matvec(lam, w.nodal_values[src.cells[parents]])
    moved = transfer_p1(w, u).nodal_values[u.cells]
    assert np.max(np.abs(table - moved)) <= 1e-15 * np.max(np.abs(moved))


def test_union_pass_makes_no_transfer(monkeypatch, tmp_path):
    scheme = bp_coefficients(0.5, 0.6, 1.0)
    m0 = _perturbed_mesh(tmp_path)
    meshes = [m0, refine(m0, {0, 1, 2}), refine(m0, {20, 21})]
    f = RhsField.one()
    states = [
        _solved_state(l, meshes[l % 3], scheme.b[l], scheme.c[l], f)
        for l in range(scheme.N)
    ]
    u = union_mesh(meshes)
    expected = global_union_estimate(scheme, states, u, f)

    def refuse(*args):
        raise AssertionError("transfer_p1 called")

    monkeypatch.setattr(fem, "transfer_p1", refuse)
    monkeypatch.setattr(estimators, "transfer_p1", refuse)
    eta, solution = global_union_estimate(scheme, states, u, f)
    assert eta == expected[0]
    assert np.array_equal(solution.nodal_values, expected[1].nodal_values)


def test_union_pass_groups_twin_meshes(monkeypatch, tmp_path):
    # twins (equal leaves, separate objects) form one source group: one
    # ancestor map per distinct source mesh, and the result of one shared object
    scheme = bp_coefficients(0.5, 0.6, 1.0)
    m0 = _perturbed_mesh(tmp_path)
    a, b = refine(m0, {0, 1, 2}), refine(m0, {20, 21})
    twins = [m0, a, refine(m0, {2, 1, 0}), b, refine(m0, {21, 20})]
    assert twins[2] is not a and twins[2]._cache is a._cache
    f = RhsField.test2()
    u = union_mesh([a, b])

    def solved_on(meshes):
        return [
            _solved_state(l, meshes[l % 5], scheme.b[l], scheme.c[l], f)
            for l in range(scheme.N)
        ]

    expected_eta, expected = global_union_estimate(scheme, solved_on([m0, a, a, b, b]), u, f)
    calls = []
    real = meshmod.ancestor_cell_map

    def spy(fine, coarse):
        calls.append(coarse.cell_key.tobytes())
        return real(fine, coarse)

    monkeypatch.setattr(meshmod, "ancestor_cell_map", spy)
    states = solved_on(twins)
    eta, solution = global_union_estimate(scheme, states, u, f)
    assert len(calls) == len(set(calls)) == 3
    assert eta == pytest.approx(expected_eta, rel=1e-14)
    err = np.max(np.abs(solution.nodal_values - expected.nodal_values))
    assert err <= 1e-14 * np.max(np.abs(expected.nodal_values))
    calls.clear()
    combine_on_union(scheme, states, u)
    assert len(calls) == len(set(calls)) == 3


def test_mirror_images_get_equal_indicators():
    # the unit-square mesh is symmetric under (x, y) -> (y, x); for a
    # symmetric P1 function and field, mirror-image cells must get bitwise
    # equal indicators, so that marking breaks their ties by cell id
    m = make_initial_mesh(UNIT, 128)
    x, y = m.vertices.T
    w = FeFunction(m, x * y * (x + y - 2.0) ** 2 * (1.0 - x) * (1.0 - y))
    eta = local_indicators(m, w, 0.3, 2.0, RhsField.one())
    centroid = m.vertices[m.cells].mean(axis=1)
    index = {tuple(np.round(p, 12)): k for k, p in enumerate(centroid)}
    mirror = np.array([index[tuple(np.round(p[::-1], 12))] for p in centroid])
    assert np.array_equal(eta, eta[mirror])


@pytest.mark.parametrize(
    "s, kappa", [(s, kappa) for s in (0.05, 0.5, 0.95) for kappa in (0.10, 0.26, 0.50)]
)
def test_indicators_finite_at_extreme_coefficients(s, kappa):
    # the unscaled b_l spans exp(+-987) at kappa = 0.10, so the stored b_l or
    # c_l underflows to 0 at the ends of the pole sum; the solve and the
    # local problems must stay finite at both ends
    m = make_initial_mesh(UNIT, 32)
    f = RhsField.test2()
    scheme = bp_coefficients(s, kappa, 2.0 * math.pi**2)
    for l in (0, scheme.N - 1):  # b = 0 or tiny with c = 1, b = 1 with c = 0 or tiny
        b, c = scheme.b[l], scheme.c[l]
        w = assemble_and_solve(m, b, c, f)
        assert np.all(np.isfinite(local_indicators(m, w, b, c, f)))


def test_jump_orientation_invariance():
    # the edge term only uses (jump . fixed normal), so the indicator must not
    # depend on which cell the edge structure lists first; check the indicator
    # of a linear-in-parts function is reproducible and zero-jump for globals
    m = refine(make_initial_mesh(UNIT, 32), {2, 7})
    # a globally linear function has no gradient jumps at all
    w = FeFunction(m, 0.25 * m.vertices[:, 0] + 0.5 * m.vertices[:, 1])
    jumps = estimators._edge_jumps(m, w.cell_gradients().T[None])
    assert np.allclose(jumps, 0.0, atol=1e-13)


def test_indicator_scales_like_error():
    # for the manufactured problem the estimate tracks the true L2 error
    # within a modest factor and both shrink ~4x under uniform refinement
    lam = 2.0 * math.pi**2

    def f_fn(x, y):
        return (lam + 1.0) * np.sin(math.pi * np.asarray(x)) * np.sin(math.pi * np.asarray(y))

    class Exact:
        def eval(self, pts):
            pts = np.atleast_2d(pts)
            return np.sin(math.pi * pts[:, 0]) * np.sin(math.pi * pts[:, 1])

    f = RhsField.manufactured(f_fn)
    m = uniform_refine(make_initial_mesh(UNIT, 128))
    vals = []
    for _ in range(3):
        w = assemble_and_solve(m, 1.0, 1.0, f)
        eta = np.sqrt(np.sum(local_indicators(m, w, 1.0, 1.0, f) ** 2))
        err = l2_error(Exact(), w)
        vals.append((eta, err))
        m = uniform_refine(m)
    for eta, err in vals:
        assert 0.5 <= eta / err <= 2.0, (eta, err)
    assert vals[0][0] / vals[1][0] == pytest.approx(4.0, rel=0.1)
    assert vals[1][0] / vals[2][0] == pytest.approx(4.0, rel=0.1)


def test_global_triangle_estimate_formula():
    scheme = bp_coefficients(0.5, 0.6, 1.0)
    m = make_initial_mesh(UNIT, 32)
    f = RhsField.one()
    states = [
        _solved_state(l, m, scheme.b[l], scheme.c[l], f) for l in range(scheme.N)
    ]
    expected = scheme.C * sum(
        scheme.a[l] * np.sqrt(np.sum(states[l].indicators ** 2))
        for l in range(scheme.N)
    )
    assert global_triangle_estimate(scheme, states) == pytest.approx(expected)


def test_global_triangle_rejects_dirty_state():
    scheme = bp_coefficients(0.5, 0.6, 1.0)
    m = make_initial_mesh(UNIT, 8)
    states = [ParametricState(index=0, mesh=m)]
    with pytest.raises(ValueError):
        global_triangle_estimate(scheme, states)


def test_union_estimate_equals_combined_when_meshes_equal():
    # the two estimator paths must agree to near machine precision when all
    # problems share one mesh
    scheme = bp_coefficients(0.5, 0.6, 1.0)
    m = refine(make_initial_mesh(UNIT, 32), {0, 9})
    f = RhsField.one()
    states = [
        _solved_state(l, m, scheme.b[l], scheme.c[l], f) for l in range(scheme.N)
    ]
    a = combined_equal_mesh_estimate(scheme, states, f)
    b = global_union_estimate(scheme, states, m, f)[0]
    assert b == pytest.approx(a, rel=1e-12)


def test_union_estimate_triangle_bound():
    # the recombined estimate is bounded by the triangle-inequality estimate
    scheme = bp_coefficients(0.5, 0.7, 1.0)
    m0 = make_initial_mesh(UNIT, 32)
    f = RhsField.one()
    meshes = [m0, refine(m0, {0, 1, 2}), refine(m0, {20, 21})]
    states = [
        _solved_state(l, meshes[l % 3], scheme.b[l], scheme.c[l], f)
        for l in range(scheme.N)
    ]
    u = union_mesh([st.mesh for st in states])
    eta_u = global_union_estimate(scheme, states, u, f)[0]
    eta_t = global_triangle_estimate(scheme, states)
    assert 0.0 < eta_u < eta_t


def test_union_estimate_skips_interior_source_edges():
    # transferring a P1 solution to the union introduces no spurious jumps:
    # with a single state, the union estimate must equal the estimate
    # computed on the source mesh cells refined... verified here by checking
    # the jump vector explicitly
    m0 = make_initial_mesh(UNIT, 32)
    src = refine(m0, {0, 1})
    other = refine(m0, {30, 31})
    u = union_mesh([src, other])
    f = RhsField.one()
    w = assemble_and_solve(src, 1.0, 1.0, f)
    parents = ancestor_cell_map(u, src)
    sides = estimators._jump_sides(u, parents)
    jumps = estimators._edge_jumps(u, w.cell_gradients().T[None], sides)[0]
    interior = u.edge_cells[:, 1] >= 0
    same_parent = interior & (
        parents[u.edge_cells[:, 0]] == parents[np.maximum(u.edge_cells[:, 1], 0)]
    )
    assert np.all(jumps[same_parent] == 0.0)
    assert np.any(jumps[interior & ~same_parent] != 0.0)
