"""The forest's node table: builds that do not depend on the forest's
history, per-node columns equal to the per-mesh formulas they replaced
(``setup_reference``), the table's growth and references, and the exact
path table of the union transfer."""

import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import forest_reference
import setup_reference
from fracadapt import estimators, fem
from fracadapt.fem import FeFunction, RhsField, transfer_p1
from fracadapt.mesh import (
    _LEVEL_MASK,
    _PATH_DEPTH,
    DomainSpec,
    TriMesh,
    ancestor_cell_map,
    make_initial_mesh,
    nested_barycentric,
    read_mesh,
    refine,
    uniform_refine,
    union_mesh,
    write_mesh,
)
from fracadapt.oracle import eigenfunction_field

SQUARE = DomainSpec("square")
FIELDS = (RhsField.one(), RhsField.test2(), eigenfunction_field(SQUARE, 2, 3))
MESH_ARRAYS = (
    "vertices",
    "cells",
    "cell_root",
    "edges",
    "cell_edge",
    "edge_cells",
    "edge_count",
    "boundary_vertex",
)


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
    assert_bits(mesh.cell_areas(), setup_reference.areas(mesh), "areas")
    assert_bits(fem._grads(mesh), setup_reference.grads(mesh), "grads")
    geo, geo_ref = estimators._geometry(mesh), setup_reference.geometry(mesh)
    assert geo.keys() == geo_ref.keys()
    for name in geo:
        got, want = geo[name], geo_ref[name]
        if name == "normal":
            # a zero component takes its sign from the cell, where the
            # per-mesh formula took it from the vertex numbering: + 0.0
            # maps -0.0 to 0.0 and leaves every other value as it is
            got, want = got + 0.0, want + 0.0
        assert_bits(got, want, name)
    modal, modal_ref = estimators._modal_basis(mesh), setup_reference.modal_basis(mesh)
    for got, want, name in zip(modal, modal_ref, ("W", "lam")):
        assert_bits(got, want, name)
    for f in FIELDS:
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
    rows = len(m0.base.node_key)
    fourth = TriMesh(m0.base, keys.copy())
    assert len(m0.base.node_key) == rows
    assert np.array_equal(second.cell_key, keys)
    for mesh in (first, second, third, fourth):
        assert_setup_matches_reference(mesh)
    for mesh in (second, third, fourth):
        for name in MESH_ARRAYS:
            assert_bits(getattr(mesh, name), getattr(first, name), name)
        normal = estimators._geometry(mesh)["normal"]
        assert_bits(normal, estimators._geometry(first)["normal"], "normal")
        assert_bits(fem._system(mesh).dofs, fem._system(first).dofs, "order")


def test_table_grows_only_by_new_nodes():
    m0 = make_initial_mesh(SQUARE, 32)
    base = m0.base
    a, b = _chain(m0, A_MARKS), _chain(m0, B_MARKS)
    rows = len(base.node_key)
    assert len(base.corners) == rows == len(np.unique(base.node_key))
    u = union_mesh([a, b])
    assert len(base.node_key) == rows  # the union's leaves are the sources'
    del a, u
    gc.collect()
    again = _chain(m0, A_MARKS)  # rebuilt: no live mesh has these leaves
    assert not hasattr(again, "_built")
    assert len(base.node_key) == rows
    uniform_refine(again)
    assert len(base.node_key) > rows


def test_field_is_evaluated_at_new_nodes_only():
    evaluated = []

    def field(x, y):
        evaluated.append(np.size(x))
        return np.sin(3.0 * x) * np.cos(2.0 * y)

    f = RhsField.manufactured(field)
    m0 = make_initial_mesh(SQUARE, 32)
    base = m0.base
    fem._load_vector(m0, f)
    assert sum(evaluated) == 6 * len(base.node_key)
    rows = len(base.node_key)
    mesh = _chain(m0, A_MARKS)
    fem._load_vector(mesh, f)
    assert sum(evaluated) == 6 * len(base.node_key) > 6 * rows
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
        estimators._geometry(mesh)
        estimators._modal_basis(mesh)
    refs = [weakref.ref(mesh) for mesh in meshes]
    del m0, meshes, mesh
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert len(base.columns) > 3 and len(base.node_key) > 32


def _deep(mesh, depth):
    """``mesh`` refined ``depth`` times at the cell holding a fixed point."""
    point = mesh.vertices[mesh.cells[3]].mean(axis=0)[None]
    for _ in range(depth):
        mesh = refine(mesh, mesh.locate(point)[0])
    return mesh


@pytest.mark.parametrize("kind, cells", [("square", 32), ("unit-square", 32), ("lshape", 24)])
def test_path_table_equals_geometric_transfer(kind, cells):
    m0 = make_initial_mesh(DomainSpec(kind), cells)
    src = refine(m0, {0, 3})
    fine = union_mesh([_deep(src, 2 * _PATH_DEPTH + 3), _chain(src, [{1, 7}, {2}])])
    rng = np.random.default_rng(4)
    for coarse in (m0, src):
        parents = ancestor_cell_map(fine, coarse)
        gap = (fine.cell_key & _LEVEL_MASK) - (coarse.cell_key[parents] & _LEVEL_MASK)
        assert gap.max() > 2 * _PATH_DEPTH  # three chained lookups
        lam = nested_barycentric(fine.cell_key, coarse.cell_key[parents])
        corners, lam_ref = setup_reference.nested_barycentric(coarse, fine, parents)
        assert np.array_equal(lam, lam_ref)
        w = FeFunction(coarse, rng.normal(size=coarse.num_vertices))
        moved = np.empty(fine.num_vertices)
        moved[fine.cells] = fem._matvec(lam_ref, w.nodal_values[corners])
        assert np.array_equal(transfer_p1(w, fine).nodal_values, moved)


def test_path_table_on_a_read_mesh_forest(tmp_path):
    # the geometric coordinates round on moved vertices, the table does not
    m = make_initial_mesh(DomainSpec("unit-square"), 32)
    interior = ~m.boundary_vertex
    rng = np.random.default_rng(3)
    m.vertices[interior] += rng.uniform(-0.04, 0.04, size=(np.count_nonzero(interior), 2))
    write_mesh(m, tmp_path / "moved.txt")
    m0 = read_mesh(tmp_path / "moved.txt")
    fine = union_mesh([_deep(m0, 14), _chain(m0, [{0, 1, 2}, {5}])])
    parents = ancestor_cell_map(fine, m0)
    lam = nested_barycentric(fine.cell_key, m0.cell_key[parents])
    lam_ref = setup_reference.nested_barycentric(m0, fine, parents)[1]
    assert np.max(np.abs(lam - lam_ref)) <= 1e-14
    assert not np.array_equal(lam, lam_ref)
