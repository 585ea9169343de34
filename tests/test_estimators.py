import math

import numpy as np
import pytest

import union_reference
from fracadapt import estimators, fem, oracle, rational
from fracadapt import mesh as meshmod
from fracadapt.driver import RunConfig, run
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
    read_mesh,
    refine,
    uniform_refine,
    union_mesh,
    write_mesh,
)
from fracadapt.oracle import l2_error
from fracadapt.rational import bp_coefficients
from union_reference import nested_barycentric

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


def _dense_rhs(mesh, w, b, c, f):
    """Local right-hand sides (m, 3), formed cell by cell: (f - c w, phi_i)_K
    by the 6-point rule on each of the 4 subtriangles (24 points), minus
    b / 4 times the flux jump times the length of local edge i, which joins
    corners i and i + 1 and carries the midpoint of phi_i."""
    x = mesh.vertices[mesh.cells]
    # the gradient of w on every cell, from its corner values
    P = np.concatenate([np.ones((mesh.num_cells, 3, 1)), x], axis=2)
    grad = np.linalg.solve(P, w.nodal_values[mesh.cells][..., None])[:, 1:, 0]
    rhs = np.zeros((mesh.num_cells, 3))
    for k, cell in enumerate(mesh.cells):
        nodes, node_w = _NODES @ x[k], _NODES @ w.nodal_values[cell]
        for sub in _SUBTRIANGLES:
            e1, e2 = nodes[sub[1]] - nodes[sub[0]], nodes[sub[2]] - nodes[sub[0]]
            area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
            pts, w_pts = fem.TRI_QP @ nodes[sub], fem.TRI_QP @ node_w[sub]
            phi = fem.TRI_QP @ (np.array(sub)[None, :] == np.arange(3, 6)[:, None]).T
            residual = f(pts[:, 0], pts[:, 1]) - c * w_pts
            rhs[k] += area * (fem.TRI_QW * residual) @ phi
        for i in range(3):
            e = mesh.cell_edge[k, i]
            if mesh.edge_cells[e, 1] < 0:
                continue  # no jump on the boundary
            other = mesh.edge_cells[e, 0] + mesh.edge_cells[e, 1] - k
            d = x[k, (i + 1) % 3] - x[k, i]
            length = np.hypot(d[0], d[1])
            jump = (grad[k] - grad[other]) @ np.array([d[1], -d[0]]) / length
            rhs[k, i] -= b / 4.0 * jump * length
    return rhs


def _dense_indicators(mesh, w, b, c, f):
    """Indicators from a dense per-cell solve of (b S_K + c M_K) e = r_K."""
    rhs = _dense_rhs(mesh, w, b, c, f)
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


def test_union_pass_sets_the_indicators_of_dirty_states_on_the_union(tmp_path):
    # states on the union mesh (the union itself and a twin) have their
    # local problems on their own cells: the union pass sets the indicators
    # of the dirty ones, equal to local_indicators bit for bit, and leaves
    # clean states and states on coarser meshes as they are
    scheme = bp_coefficients(0.5, 0.6, 1.0)
    m0 = _perturbed_mesh(tmp_path)
    a, b = refine(m0, {0, 1, 2}), refine(m0, {20, 21})
    u = union_mesh([a, b])
    meshes = [a, u, b, union_mesh([b, a])]
    assert meshes[3] is not u and meshes[3]._cache is u._cache
    f = RhsField.test2()
    states = []
    for l in range(scheme.N):
        mesh = meshes[l % 4]
        w = assemble_and_solve(mesh, scheme.b[l], scheme.c[l], f)
        states.append(ParametricState(index=l, mesh=mesh, solution=w))
    clean = states[1]
    clean.indicators, clean.dirty = np.full(u.num_cells, 7.0), False
    assert scheme.N // 2 > estimators._BLOCK
    global_union_estimate(scheme, states, u, f)
    assert np.all(clean.indicators == 7.0)
    for st in states:
        if st.mesh.same_mesh(u) and st is not clean:
            assert not st.dirty
            b_l, c_l = scheme.b[st.index], scheme.c[st.index]
            expected = local_indicators(u, st.solution, b_l, c_l, f)
            assert expected.tobytes() == np.ascontiguousarray(st.indicators).tobytes()
        elif st is not clean:
            assert st.dirty and st.indicators is None


def test_union_table_interpolates_like_transfer(tmp_path):
    # the reference's per-source table gives each union cell the corner
    # values that its vertex transfer puts on the union vertices, and the
    # sweep of transfer_p1 gives them up to rounding
    m0 = _perturbed_mesh(tmp_path)
    src = refine(m0, {0, 1, 2})
    u = union_mesh([src, refine(refine(m0, {20, 21}), {5})])
    rng = np.random.default_rng(5)
    w = FeFunction(src, rng.normal(size=(src.num_vertices, 3)))
    parents = ancestor_cell_map(u, src)
    lam = nested_barycentric(u.cell_key, src.cell_key[parents])
    table = fem._matvec(lam, w.nodal_values[src.cells[parents]])
    transfer = union_reference.vertex_transfer(src, u)
    moved = union_reference.at_vertices(transfer, w.nodal_values)[u.cells]
    assert np.array_equal(table, moved)
    swept = transfer_p1(w, u).nodal_values[u.cells]
    assert np.max(np.abs(swept - table)) <= 1e-14 * np.max(np.abs(table))


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
    # scatter into the sweep per distinct source mesh, and the result of one
    # shared object
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
    real = fem._Prolongation.add

    def spy(self, src, values, right):
        calls.append(src.cell_key.tobytes())
        return real(self, src, values, right)

    monkeypatch.setattr(fem._Prolongation, "add", spy)
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
    columns = estimators._columns(m, RhsField.one())
    grads = estimators._corner_values(m, columns[5], w.nodal_values[:, None])[1]
    jumps = estimators._edge_jumps(m, columns[6], grads)
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


def test_moved_solution_jumps_only_across_source_cells():
    # a P1 solution moved to the union is P1 on every source cell: the union
    # pass's jumps on union edges inside one source cell vanish up to rounding
    m0 = make_initial_mesh(UNIT, 32)
    src = refine(m0, {0, 1})
    u = union_mesh([src, refine(refine(m0, {12, 20}), {5, 30})])
    w = assemble_and_solve(src, 1.0, 1.0, RhsField.one())
    columns = estimators._columns(u, RhsField.one())
    grads = estimators._corner_values(u, columns[5], transfer_p1(w, u).nodal_values[:, None])[1]
    jumps = np.abs(estimators._edge_jumps(u, columns[6], grads)[0])
    parents = ancestor_cell_map(u, src)
    interior = u.edge_cells[:, 1] >= 0
    same_parent = interior & (
        parents[u.edge_cells[:, 0]] == parents[np.maximum(u.edge_cells[:, 1], 0)]
    )
    assert np.any(same_parent)
    assert np.max(jumps[same_parent]) <= 1e-13 * np.max(jumps[interior & ~same_parent])


def _num_classes(union, f):
    """Distinct (lam_0, lam_1, lam_2, |K|) rows of the union's cells."""
    _, _, lam, _, area, *_ = estimators._columns(union, f)
    return len(np.unique(np.vstack([lam, area]).T, axis=0))


def _spy_union_paths(monkeypatch):
    """Record the union pass's paths: per coarser group's surpluses added to
    the sweep, its problems and the columns they go to (the recombined sum in
    column 0 and the weighted sums, or a column per coarser problem), the
    number of sweeps, the problems per kernel call, and the number of
    weighted-sum evaluations."""
    calls = {"scattered": [], "sweeps": 0, "kernel": [], "class_sums": 0}
    add, result = fem._Prolongation.add, fem._Prolongation.result
    kernel, class_sums = estimators._modal_coeffs, estimators._class_sums

    def spy_add(self, src, values, right):
        assert values.shape[1] == len(right)
        calls["scattered"].append(right.shape)
        return add(self, src, values, right)

    def spy_result(self):
        calls["sweeps"] += 1
        return result(self)

    def spy_kernel(target, columns, corner_vals, jump, b, c):
        calls["kernel"].append(len(corner_vals))
        return kernel(target, columns, corner_vals, jump, b, c)

    def spy_class_sums(*args):
        calls["class_sums"] += 1
        return class_sums(*args)

    monkeypatch.setattr(fem._Prolongation, "add", spy_add)
    monkeypatch.setattr(fem._Prolongation, "result", spy_result)
    monkeypatch.setattr(estimators, "_modal_coeffs", spy_kernel)
    monkeypatch.setattr(estimators, "_class_sums", spy_class_sums)
    return calls


def _assert_close(solution, reference):
    """Equal up to the sweep's rounding: 1e-14 relative in the max norm."""
    ref = reference.nodal_values
    assert np.max(np.abs(solution.nodal_values - ref)) <= 1e-14 * np.max(np.abs(ref))


def _spy_column_reads(monkeypatch, mesh):
    """Count the reads of each forest column by ``mesh`` and its twins."""
    reads, column = {}, meshmod.TriMesh.column

    def spy(self, name, compute):
        if self._cache is mesh._cache:
            key = name if isinstance(name, str) else name[0]
            reads[key] = reads.get(key, 0) + 1
        return column(self, name, compute)

    monkeypatch.setattr(meshmod.TriMesh, "column", spy)
    return reads


def test_setup_reads_the_areas_and_gradients_once_per_use(monkeypatch):
    # a factored pole, a basis pole and one stacked local_indicators call on a
    # fresh mesh: the FE system forms its eigenvalue bounds from the areas
    # and gradients it gathers, and the estimator gathers both once per call
    m = refine(make_initial_mesh(UNIT, 32), {0, 9})
    f = RhsField.test2()
    reads = _spy_column_reads(monkeypatch, m)
    b, c = np.array([1.0, 1.0]), np.array([1.0, 1e-9])
    w = [assemble_and_solve(m, b[k], c[k], f).nodal_values for k in range(2)]
    assert ("basis", "k", f) in m._cache  # only the second pole summed a basis
    local_indicators(m, FeFunction(m, np.stack(w, axis=1)), b, c, f)
    assert reads["grads"] == 2 and reads["areas"] == 2


def test_union_pass_reads_the_union_gradients_once(monkeypatch):
    # two kernel blocks on the union and one coarser group in the class sums
    # share one gather of the union's gradients
    scheme = bp_coefficients(0.5, 0.6, 1.0)
    m0 = make_initial_mesh(UNIT, 32)
    u = refine(m0, {0, 9})
    f = RhsField.test2()
    own = estimators._BLOCK + 1
    states = [
        _solved_state(l, u if l < own else m0, scheme.b[l], scheme.c[l], f)
        for l in range(scheme.N)
    ]
    assert 3 * _num_classes(u, f) < scheme.N - own
    calls = _spy_union_paths(monkeypatch)
    reads = _spy_column_reads(monkeypatch, u)
    global_union_estimate(scheme, states, union_mesh([u, m0]), f)
    assert calls["kernel"] == [estimators._BLOCK, 1] and calls["class_sums"] == 1
    assert reads["grads"] == 1


def _random_refinement(mesh, rng, rounds):
    for _ in range(rounds):
        mesh = refine(mesh, set(rng.choice(mesh.num_cells, 3, replace=False).tolist()))
    return mesh


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("s", [0.05, 0.95])
@pytest.mark.parametrize("kind", ["square", "unit-square", "lshape"])
def test_union_pass_equals_per_problem_reference(kind, s, seed, monkeypatch):
    # random refinements; the coarser groups are a large group on the initial
    # mesh, groups of 3 x classes + 1 and 3 x classes problems (on either side
    # of the old per-group condition) and a group split over two twins; one
    # state sits on the union.  The pole sum is the one choose_kappa picks at
    # tol = 1e-13, as in test_extreme_s_at_the_finest_kappa, so b_l = 0 or
    # c_l ~ 1e-307 occur; the first and the last term are in the large group
    rng = np.random.default_rng([seed, len(kind), round(100 * s)])
    domain = DomainSpec(kind)
    m0 = make_initial_mesh(domain, 24 if kind == "lshape" else 32)
    lam0 = oracle.faber_krahn_lambda0(domain)
    f = RhsField.test2()
    kappa = rational.choose_kappa(s, 1e-13, lam0, fem.l2_norm(RhsField.one(), m0))
    scheme = bp_coefficients(s, kappa, lam0)
    assert scheme.b[0] == 0.0 or scheme.c[-1] < 1e-300
    a, b = _random_refinement(m0, rng, 2), _random_refinement(m0, rng, 3)
    marks = rng.choice(m0.num_cells, 4, replace=False)
    twin = [refine(m0, set(marks.tolist())), refine(m0, set(marks[::-1].tolist()))]
    assert twin[1] is not twin[0] and twin[1]._cache is twin[0]._cache
    u = union_mesh([a, b, twin[0]])
    k3 = 3 * _num_classes(u, f)
    sizes = [k3 + 5, k3 + 1, k3, k3 // 2 + 1, k3 // 2 + 1, 1]
    meshes = [m0, a, b, twin[0], twin[1], union_mesh([b, twin[1], a])]
    pick = rng.choice(np.arange(1, scheme.N - 1), sum(sizes) - 2, replace=False)
    order = np.concatenate([[0, scheme.N - 1], pick])
    states = []
    for mesh, idx in zip(meshes, np.split(order, np.cumsum(sizes)[:-1])):
        for l in idx:
            w = assemble_and_solve(mesh, scheme.b[l], scheme.c[l], f)
            states.append(ParametricState(index=int(l), mesh=mesh, solution=w))
    calls = _spy_union_paths(monkeypatch)
    eta, solution = global_union_estimate(scheme, states, u, f)
    # each of the four coarser groups scatters its recombined sum with its
    # 6 x classes weighted sums into one sweep, the union's own problem alone
    # runs the kernel, and the weighted sums are taken once
    groups = [k3 + 5, k3 + 1, k3, 2 * (k3 // 2 + 1)]
    assert sorted(calls["scattered"]) == sorted((n, 1 + 2 * k3) for n in groups)
    assert calls["sweeps"] == 1
    assert calls["kernel"] == [1] and calls["class_sums"] == 1
    ref_eta, ref_solution = union_reference.global_union_estimate(scheme, states, u, f)
    assert eta == pytest.approx(ref_eta, rel=1e-14, abs=0)
    _assert_close(solution, ref_solution)


@pytest.mark.parametrize("kind", ["square", "unit-square", "lshape"])
def test_single_problem_groups_join_the_union_sum(kind, monkeypatch):
    # a large never-refined group (more problems than 6 x classes, so it forms
    # its sums at its own vertices) and one problem on each of four coarser
    # meshes: every group goes into the union-level sum, and no kernel runs
    rng = np.random.default_rng(len(kind))
    m0 = make_initial_mesh(DomainSpec(kind), 24 if kind == "lshape" else 32)
    f = RhsField.test2()
    scheme = bp_coefficients(0.5, 0.6, 1.0)
    singles = [_random_refinement(m0, rng, r) for r in (1, 1, 2, 3)]
    u = union_mesh(singles)
    k6 = 6 * _num_classes(u, f)
    assert k6 + 5 < scheme.N and 3 * _num_classes(u, f) < k6 + 5
    states = [_solved_state(l, m0, scheme.b[l], scheme.c[l], f) for l in range(k6 + 1)]
    states += [
        _solved_state(l, mesh, scheme.b[l], scheme.c[l], f)
        for l, mesh in zip(range(k6 + 1, k6 + 5), singles)
    ]
    calls = _spy_union_paths(monkeypatch)
    eta, solution = global_union_estimate(scheme, states, u, f)
    scattered = [(k6 + 1, 1 + k6)] + [(1, 1 + k6)] * 4
    assert calls == {"scattered": scattered, "sweeps": 1, "kernel": [], "class_sums": 1}
    ref_eta, ref_solution = union_reference.global_union_estimate(scheme, states, u, f)
    assert eta == pytest.approx(ref_eta, rel=1e-14, abs=0)
    _assert_close(solution, ref_solution)


def test_weighted_group_makes_no_kernel_call(monkeypatch):
    # 20 problems on the initial square mesh and one on the union: only the
    # union's own problem runs the kernel
    m0 = make_initial_mesh(DomainSpec("square"), 32)
    u = refine(refine(m0, {0, 7, 19}), {3, 30})
    f = RhsField.one()
    scheme = bp_coefficients(0.5, 0.6, 1.0)
    assert 3 * _num_classes(u, f) < 20 < scheme.N
    states = [
        _solved_state(l, m0 if l < 20 else u, scheme.b[l], scheme.c[l], f) for l in range(21)
    ]
    calls = []
    real = estimators._modal_coeffs

    def spy(target, columns, corner_vals, jump, b, c):
        calls.append(len(corner_vals))
        return real(target, columns, corner_vals, jump, b, c)

    monkeypatch.setattr(estimators, "_modal_coeffs", spy)
    eta, solution = global_union_estimate(scheme, states, u, f)
    assert calls == [1]
    ref_eta, ref_solution = union_reference.global_union_estimate(scheme, states, u, f)
    assert eta == pytest.approx(ref_eta, rel=1e-14, abs=0)
    _assert_close(solution, ref_solution)


def test_many_classes_keep_every_group_on_the_kernel(monkeypatch, tmp_path):
    # on the perturbed read_mesh forest more than half the cells have a shape
    # of their own, so 3 x classes exceeds the coarser problems: every group
    # scatters its solutions into the one sweep, each block runs the kernel at
    # the union's vertices, and the pass is the per-problem reference up to
    # the sweep's rounding
    scheme = bp_coefficients(0.5, 0.6, 1.0)
    m0 = _perturbed_mesh(tmp_path)
    meshes = [m0, refine(m0, {0, 1, 2}), refine(refine(m0, {20, 21}), {5})]
    f = RhsField.test2()
    states = [
        _solved_state(l, meshes[l % 3], scheme.b[l], scheme.c[l], f) for l in range(scheme.N)
    ]
    u = union_mesh(meshes)
    assert 3 * _num_classes(u, f) > scheme.N
    calls = _spy_union_paths(monkeypatch)
    eta, solution = global_union_estimate(scheme, states, u, f)
    sizes, B = [len(range(k, scheme.N, 3)) for k in range(3)], estimators._BLOCK
    blocks = [min(B, n - i) for n in sizes for i in range(0, n, B)]
    scattered = [(n, scheme.N) for n in sizes]
    assert calls == {"scattered": scattered, "sweeps": 1, "kernel": blocks, "class_sums": 0}
    ref_eta, ref_solution = union_reference.global_union_estimate(scheme, states, u, f)
    assert eta == pytest.approx(ref_eta, rel=1e-14, abs=0)
    _assert_close(solution, ref_solution)


def test_class_sums_hold_under_cancellation(monkeypatch):
    # ROADMAP item 12: on a smooth field at a tolerance 4x below the
    # fingerprinted sin-multimesh config's, the union estimate is small
    # against the terms the class sums cancel; at every checkpoint after
    # iteration 0 the class-sum path runs, and eta_union stays within 1e-13
    # relative of the per-problem kernel reference
    square = DomainSpec("square")
    f = oracle.eigenfunction_field(square, 1, 2)
    config = RunConfig(
        s=0.5, domain=square, f=f, theta=0.5, tol=2.5e-4, k=1, kappa=0.26,
        max_iterations=40, mode="multimesh",
    )
    scheme = bp_coefficients(0.5, 0.26, oracle.faber_krahn_lambda0(square))
    real, calls, seen = estimators._class_sums, [], []

    def spy(*args):
        calls.append(1)
        return real(*args)

    def reference(m, states, union, solution):
        eta = union_reference.global_union_estimate(scheme, states, union, f)[0]
        seen.append((m, len(calls), eta))

    monkeypatch.setattr(estimators, "_class_sums", spy)
    res = run(config, on_checkpoint=reference)
    assert res.stopped == "tol"
    assert [(m, n) for m, n, _ in seen] == [(m, m) for m in range(len(res.records))]
    for rec, (_, _, ref) in zip(res.records, seen):
        assert abs(rec.eta_union - ref) <= 1e-13 * ref, rec.m
