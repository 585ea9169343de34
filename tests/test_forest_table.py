"""The forest's node table: builds that do not depend on the forest's
history, per-node columns equal to the per-mesh formulas they replaced
(``setup_reference``), the table's growth and references, the exact path
table of the old union transfer (``union_reference``), and the sweep of
hierarchical surpluses that replaced it."""

import copy
import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import forest_reference
import setup_reference
import union_reference
from fracadapt import estimators, fem
from fracadapt.fem import FeFunction, ParametricState, RhsField, assemble_and_solve, transfer_p1
from fracadapt.mesh import (
    _LEVEL_MASK,
    DomainSpec,
    TriMesh,
    ancestor_cell_map,
    dissection_order,
    make_initial_mesh,
    read_mesh,
    refine,
    uniform_refine,
    union_mesh,
    write_mesh,
)
from fracadapt.oracle import eigenfunction_field
from fracadapt.rational import bp_coefficients
from union_reference import PATH_DEPTH, nested_barycentric

SQUARE = DomainSpec("square")
FIELDS = (RhsField.one(), RhsField.test2(), eigenfunction_field(SQUARE, 2, 3))
# exactly equal; the edges are compared apart from their numbering, which
# follows the forest's history (``forest_reference.edge_arrays``)
MESH_ARRAYS = ("vertices", "cells", "boundary_vertex")
EDGE_ARRAYS = ("edges[cell_edge]", "edges", "edge_cells")


def assert_bits(a, b, what):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype, what
    assert a.tobytes() == b.tobytes(), what


def _chain(mesh, marks):
    for marked in marks:
        mesh = refine(mesh, marked)
    return mesh


A_MARKS = ({0, 5}, {1, 2, 3}, {40})
B_MARKS = ({20, 30}, {4}, {11, 12})


def _dense(mesh, dofs, diag_and_edges):
    """Dense matrix of one value per vertex ``dofs`` and per interior edge."""
    interior = ~mesh.boundary_vertex
    on = interior[mesh.edges[:, 0]] & interior[mesh.edges[:, 1]]
    row = np.full(mesh.num_vertices, -1)
    row[dofs] = np.arange(len(dofs))
    out = np.zeros((len(dofs), len(dofs)))
    out[np.arange(len(dofs)), np.arange(len(dofs))] = diag_and_edges[: len(dofs)]
    i, j = row[mesh.edges[on]].T
    out[i, j] = out[j, i] = diag_and_edges[len(dofs) :]
    return out


def assert_setup_matches_reference(mesh):
    """Every per-cell setup value of ``mesh`` equals the per-mesh formula."""
    ref = forest_reference.from_mesh(mesh)
    for name in MESH_ARRAYS:
        assert np.array_equal(getattr(mesh, name), getattr(ref, name)), name
    got, want = forest_reference.edge_arrays(mesh), forest_reference.edge_arrays(ref)
    for a, b, name in zip(got, want, EDGE_ARRAYS):
        assert np.array_equal(a, b), name
    assert_bits(mesh.cell_areas(), setup_reference.areas(mesh), "areas")
    assert_bits(fem._grads(mesh), setup_reference.grads(mesh), "grads")
    geo = dict(zip(("normal", "length"), estimators._geometry(mesh)))
    geo_ref = setup_reference.geometry(mesh)
    assert geo.keys() == geo_ref.keys()
    for name in geo:
        got, want = geo[name], geo_ref[name]
        if name == "normal":
            # a zero component takes its sign from the cell, where the
            # per-mesh formula took it from the vertex numbering: + 0.0
            # maps -0.0 to 0.0 and leaves every other value as it is
            got, want = got + 0.0, want + 0.0
        assert_bits(got, want, name)
    ops_ref = setup_reference.operators(mesh)
    for f in FIELDS:
        *ops, alpha, area, _, _, _ = estimators._columns(mesh, f)
        for got, want, name in zip(ops, ops_ref, ("W'", "B", "lam")):
            assert_bits(got, np.moveaxis(want, 0, -1), name)
        assert_bits(alpha, setup_reference.alpha(mesh, f).T, f"alpha {f.kind}")
        assert_bits(area, setup_reference.areas(mesh), f"areas {f.kind}")
        assert_bits(fem._load_vector(mesh, f), setup_reference.load_vector(mesh, f), f.kind)
    dofs = np.flatnonzero(~mesh.boundary_vertex)
    system = fem._build_system(mesh, dofs)
    n = len(dofs)
    for values, ref_values in zip((system.k, system.m), setup_reference.system_values(mesh, dofs)):
        got = sp.csc_matrix((values, system.indices, system.indptr), shape=(n, n)).toarray()
        assert_bits(got, _dense(mesh, dofs, ref_values), "system")


def test_builds_do_not_depend_on_the_forest_history():
    # the same leaves reached in four histories: two refinement orders, one
    # build straight from the roots, and a rebuild from a complete table
    m0 = make_initial_mesh(SQUARE, 32)
    first = union_mesh([_chain(m0, A_MARKS), _chain(m0, B_MARKS)])
    keys = first.cell_key.copy()
    m1 = make_initial_mesh(SQUARE, 32)
    b = _chain(m1, B_MARKS)
    second = union_mesh([b, _chain(m1, A_MARKS)])
    third = TriMesh(make_initial_mesh(SQUARE, 32).base, keys.copy())
    rows = len(m0.base.key)
    fourth = TriMesh(m0.base, keys.copy())
    assert len(m0.base.key) == rows
    assert np.array_equal(second.cell_key, keys)
    for mesh in (first, second, third, fourth):
        assert_setup_matches_reference(mesh)
    for mesh in (second, third, fourth):
        for name in MESH_ARRAYS:
            assert_bits(getattr(mesh, name), getattr(first, name), name)
        got, want = forest_reference.edge_arrays(mesh), forest_reference.edge_arrays(first)
        for a, b, name in zip(got, want, EDGE_ARRAYS):
            assert_bits(a, b, name)
        normal = [estimators._geometry(m)[0][np.lexsort(m.edges.T[::-1])]
                  for m in (mesh, first)]  # by vertex pair, as edge_arrays orders them
        assert_bits(*normal, "normal")
        assert_bits(fem._system(mesh).dofs, fem._system(first).dofs, "order")


ID_ARRAYS = ("cells", "edges", "cell_edge", "edge_cells", "rows")


def _with_int64_ids(mesh):
    """A shallow copy of ``mesh`` with int64 id arrays and a cache of its own."""
    wide = copy.copy(mesh)
    for name in ID_ARRAYS:
        setattr(wide, name, getattr(mesh, name).astype(np.int64))
    wide._cache = {}
    return wide


def test_ids_are_int32_and_no_value_depends_on_their_dtype():
    m0 = make_initial_mesh(SQUARE, 32)
    coarse = _chain(m0, A_MARKS)
    union = union_mesh([coarse, _chain(m0, B_MARKS)])
    for name in ("corners", "cell_edge", "edges", "child", "half"):
        assert getattr(m0.base, name).dtype == np.int32, name
    assert m0.base.key.dtype == union.cell_key.dtype == np.int64
    for mesh in (m0, coarse, union):
        assert all(getattr(mesh, name).dtype == np.int32 for name in ID_ARRAYS)
    # the setup functions, stacked local indicators and one union pass with a
    # kernel block on the union and a class-sum group on the coarse mesh
    f, scheme, own = FIELDS[1], bp_coefficients(0.5, 0.6, 1.0), 3
    _, _, lam, _, area, *_ = estimators._columns(union, f)
    assert 3 * len(np.unique(np.vstack([lam, area]), axis=1)) < scheme.N - own
    w = [assemble_and_solve(union if l < own else coarse, scheme.b[l], scheme.c[l], f).nodal_values
         for l in range(scheme.N)]

    def values(coarse, union):
        dofs = dissection_order(union)
        states = [ParametricState(l, union if l < own else coarse) for l in range(scheme.N)]
        for st in states:
            st.solution = FeFunction(st.mesh, w[st.index])
        eta, solution = estimators.global_union_estimate(scheme, states, union, f)
        stacked = FeFunction(union, np.stack(w[:own], axis=1))
        local = estimators.local_indicators(union, stacked, scheme.b[:own], scheme.c[:own], f)
        return [dofs, *fem._build_system(union, dofs), *estimators._geometry(union),
                *estimators._geometry(coarse), eta, solution.nodal_values, local,
                *(st.indicators for st in states[:own])]

    for got, want in zip(values(_with_int64_ids(coarse), _with_int64_ids(union)),
                         values(coarse, union), strict=True):
        assert_bits(got, want, "value")


def test_columns_extend_with_the_table():
    # the operator column grows by the rows added since its last use, in a
    # forest whose table grows between uses
    m0 = make_initial_mesh(SQUARE, 32)
    estimators._columns(m0, FIELDS[0])
    meshes = [m0]
    for marks in (A_MARKS, B_MARKS):
        meshes.append(_chain(meshes[-1], marks))
        assert len(m0.base.columns[("ops", FIELDS[0])]) < len(m0.base.corners)
        assert_setup_matches_reference(meshes[-1])
    assert_setup_matches_reference(uniform_refine(meshes[1]))
    for mesh in meshes:
        assert_setup_matches_reference(mesh)


@pytest.mark.parametrize("kind", ["square", "unit-square", "lshape"])
def test_root_tree_equals_the_recursion(kind, tmp_path):
    # the level-by-level split gives the recursion's paths and depths, on the
    # initial meshes and on a read_mesh forest with an odd number of roots
    m0 = make_initial_mesh(DomainSpec(kind), 384 if kind == "lshape" else 512)
    second = {6} if kind == "lshape" else {5}  # a bisection with no neighbour to close
    odd = _chain(make_initial_mesh(DomainSpec(kind), 24 if kind == "lshape" else 32), [{5}, second])
    assert odd.num_cells % 2 == 1
    write_mesh(odd, tmp_path / "odd.txt")
    for base in (m0.base, read_mesh(tmp_path / "odd.txt").base):
        path, depth = forest_reference.bisect_roots(base.vertices[base.cells].mean(axis=1))
        assert_bits(base.root_path, path, "root_path")
        assert_bits(base.root_depth, depth, "root_depth")
        assert len(np.unique(path)) == len(path)


def test_table_grows_only_by_new_nodes():
    m0 = make_initial_mesh(SQUARE, 32)
    base = m0.base
    a, b = _chain(m0, A_MARKS), _chain(m0, B_MARKS)
    rows = len(base.key)
    assert len(base.corners) == rows == len(np.unique(base.key))
    u = union_mesh([a, b])
    assert len(base.key) == rows  # the union's leaves are the sources'
    del a, u
    gc.collect()
    again = _chain(m0, A_MARKS)  # rebuilt: no live mesh has these leaves
    assert not hasattr(again, "_built")
    assert len(base.key) == rows
    uniform_refine(again)
    assert len(base.key) > rows


def test_field_is_evaluated_at_new_nodes_only():
    evaluated = []

    def field(x, y):
        evaluated.append(np.size(x))
        return np.sin(3.0 * x) * np.cos(2.0 * y)

    f = RhsField.manufactured(field)
    m0 = make_initial_mesh(SQUARE, 32)
    base = m0.base
    fem._load_vector(m0, f)
    assert sum(evaluated) == 6 * len(base.key)
    rows = len(base.key)
    mesh = _chain(m0, A_MARKS)
    fem._load_vector(mesh, f)
    assert sum(evaluated) == 6 * len(base.key) > 6 * rows
    seen = sum(evaluated)
    del mesh
    gc.collect()
    fem._load_vector(_chain(m0, A_MARKS), f)  # a new build with known nodes
    assert sum(evaluated) == seen


def test_node_table_holds_no_mesh():
    m0 = make_initial_mesh(SQUARE, 32)
    base = m0.base
    meshes = [m0, _chain(m0, A_MARKS), uniform_refine(m0)]
    for mesh in meshes:
        fem._load_vector(mesh, FIELDS[1])
        mesh.cell_areas()
        estimators._geometry(mesh)
        estimators._columns(mesh, FIELDS[2])
    refs = [weakref.ref(mesh) for mesh in meshes]
    del m0, meshes, mesh
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert set(base.columns) == {"areas", "grads", ("load", FIELDS[1]), ("ops", FIELDS[2])}
    assert len(base.key) > 32


def _deep(mesh, depth):
    """``mesh`` refined ``depth`` times at the cell holding a fixed point."""
    point = mesh.vertices[mesh.cells[3]].mean(axis=0)[None]
    for _ in range(depth):
        mesh = refine(mesh, forest_reference.from_mesh(mesh).locate(point)[0])
    return mesh


@pytest.mark.parametrize("kind, cells", [("square", 32), ("unit-square", 32), ("lshape", 24)])
def test_path_table_equals_geometric_transfer(kind, cells):
    m0 = make_initial_mesh(DomainSpec(kind), cells)
    src = refine(m0, {0, 3})
    fine = union_mesh([_deep(src, 2 * PATH_DEPTH + 3), _chain(src, [{1, 7}, {2}])])
    rng = np.random.default_rng(4)
    for coarse in (m0, src):
        parents = ancestor_cell_map(fine, coarse)
        gap = (fine.cell_key & _LEVEL_MASK) - (coarse.cell_key[parents] & _LEVEL_MASK)
        assert gap.max() > 2 * PATH_DEPTH  # three chained lookups
        lam = nested_barycentric(fine.cell_key, coarse.cell_key[parents])
        corners, lam_ref = setup_reference.nested_barycentric(coarse, fine, parents)
        assert np.array_equal(lam, lam_ref)
        w = FeFunction(coarse, rng.normal(size=coarse.num_vertices))
        moved = np.empty(fine.num_vertices)
        moved[fine.cells] = fem._matvec(lam_ref, w.nodal_values[corners])
        transfer = union_reference.vertex_transfer(coarse, fine)
        assert np.array_equal(union_reference.at_vertices(transfer, w.nodal_values), moved)


def _moved_mesh(tmp_path):
    """A read_mesh forest of the unit square with moved interior vertices."""
    m = make_initial_mesh(DomainSpec("unit-square"), 32)
    interior = ~m.boundary_vertex
    rng = np.random.default_rng(3)
    m.vertices[interior] += rng.uniform(-0.04, 0.04, size=(np.count_nonzero(interior), 2))
    write_mesh(m, tmp_path / "moved.txt")
    return read_mesh(tmp_path / "moved.txt")


def test_path_table_on_a_read_mesh_forest(tmp_path):
    # the geometric coordinates round on moved vertices, the table does not
    m0 = _moved_mesh(tmp_path)
    fine = union_mesh([_deep(m0, 14), _chain(m0, [{0, 1, 2}, {5}])])
    parents = ancestor_cell_map(fine, m0)
    lam = nested_barycentric(fine.cell_key, m0.cell_key[parents])
    lam_ref = setup_reference.nested_barycentric(m0, fine, parents)[1]
    assert np.max(np.abs(lam - lam_ref)) <= 1e-14
    assert not np.array_equal(lam, lam_ref)


@pytest.mark.parametrize("kind", ["square", "unit-square", "lshape", "read_mesh"])
def test_vertex_transfer_equals_the_per_cell_table(kind, tmp_path):
    # a vertex takes its values from the source cell of the last fine cell
    # that lists it; every other fine cell holding it gives the same bits,
    # on source edges and past the path table's depth too
    if kind == "read_mesh":
        m0 = _moved_mesh(tmp_path)
    else:
        m0 = make_initial_mesh(DomainSpec(kind), 24 if kind == "lshape" else 32)
    src = refine(m0, {0, 3})
    fine = union_mesh([_deep(src, 26), _chain(src, [{1, 7}, {2}])])
    rng = np.random.default_rng(6)
    for coarse in (m0, src):
        parents = ancestor_cell_map(fine, coarse)
        gap = (fine.cell_key & _LEVEL_MASK) - (coarse.cell_key[parents] & _LEVEL_MASK)
        assert gap.max() > 2 * PATH_DEPTH
        lam = nested_barycentric(fine.cell_key, coarse.cell_key[parents])
        W = rng.normal(size=(coarse.num_vertices, 3))
        table = fem._matvec(lam, W[coarse.cells[parents]])
        moved = union_reference.at_vertices(union_reference.vertex_transfer(coarse, fine), W)
        assert_bits(moved[fine.cells], table, kind)


@pytest.mark.parametrize("kind", ["square", "lshape", "read_mesh"])
def test_sweep_equals_the_per_cell_table(kind, tmp_path):
    # the sweep of hierarchical surpluses (transfer_p1 on stacked columns, and
    # the union pass's recombined solution over four source meshes) agrees
    # with the path-table transfer to 1e-14 relative in the max norm, past
    # gaps of 20 levels too
    if kind == "read_mesh":
        m0 = _moved_mesh(tmp_path)
    else:
        m0 = make_initial_mesh(DomainSpec(kind), 24 if kind == "lshape" else 32)
    src = refine(m0, {0, 3})
    deep, chain = _deep(src, 2 * PATH_DEPTH + 3), _chain(src, [{1, 7}, {2}])
    fine = union_mesh([deep, chain])
    rng = np.random.default_rng(8)
    for coarse in (m0, src, deep):
        parents = ancestor_cell_map(fine, coarse)
        gap = (fine.cell_key & _LEVEL_MASK) - (coarse.cell_key[parents] & _LEVEL_MASK)
        assert gap.max() > 2 * PATH_DEPTH or coarse is deep
        W = rng.normal(size=(coarse.num_vertices, 3))
        ref = union_reference.at_vertices(union_reference.vertex_transfer(coarse, fine), W)
        moved = transfer_p1(FeFunction(coarse, W), fine).nodal_values
        assert np.max(np.abs(moved - ref)) <= 1e-14 * np.max(np.abs(ref)), kind
    scheme = bp_coefficients(0.5, 0.6, 1.0)
    meshes = [m0, src, deep, chain]
    states = []
    for l in range(scheme.N):
        mesh = meshes[l % 4]
        w = FeFunction(mesh, rng.normal(size=mesh.num_vertices))
        states.append(ParametricState(index=l, mesh=mesh, solution=w, dirty=False))
    f = RhsField.test2()
    solution = estimators.global_union_estimate(scheme, states, fine, f)[1].nodal_values
    ref = union_reference.global_union_estimate(scheme, states, fine, f)[1].nodal_values
    assert np.max(np.abs(solution - ref)) <= 1e-14 * np.max(np.abs(ref)), kind
