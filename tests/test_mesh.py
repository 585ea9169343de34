import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import forest_reference
from fracadapt.mesh import (
    _LEVEL_MASK,
    _MAX_ROOTS,
    MAX_LEVEL,
    _ForestBase,
    _leaf_mesh,
    _root_mesh,
    DomainSpec,
    MeshStructureError,
    TriMesh,
    ancestor_cell_map,
    is_refinement_of,
    make_initial_mesh,
    read_mesh,
    refine,
    uniform_refine,
    union_mesh,
    write_mesh,
)

SQUARE = DomainSpec("square")
LSHAPE = DomainSpec("lshape")
PERIMETER = 8.0  # of (-1,1)^2 and of the L-shape; (0,1)^2 has 4
FOREST_ARRAYS = (
    "vertices",
    "cells",
    "edges",
    "cell_edge",
    "edge_cells",
    "boundary_vertex",
)


def once_length(mesh):
    """Total length of the edges with one incident cell."""
    ends = mesh.vertices[mesh.edges[mesh.edge_cells[:, 1] < 0]]
    d = ends[:, 1] - ends[:, 0]
    return np.hypot(d[:, 0], d[:, 1]).sum()


def assert_conforming(mesh, perimeter=PERIMETER):
    """Structural conformity: the edges with one incident cell make up the
    boundary.  At a hanging node the coarse edge and its two halves each
    have one incident cell, which adds twice the edge's length."""
    assert once_length(mesh) == pytest.approx(perimeter, rel=1e-12)
    # orientation: all cells counterclockwise with positive area
    assert np.all(mesh.cell_areas() > 0)
    # no duplicated vertices, and no vertex pair listed as two edges (as
    # where neighbours disagree on the ids of a bisected edge's halves)
    assert len(np.unique(mesh.vertices, axis=0)) == mesh.num_vertices
    assert len(np.unique(mesh.edges, axis=0)) == len(mesh.edges)
    # each local edge's id names the cell's own vertex pair (not, say, the
    # other half of a bisected edge)
    pairs = np.sort(mesh.cells[:, [[0, 1], [1, 2], [2, 0]]], axis=2)
    assert np.array_equal(mesh.edges[mesh.cell_edge], pairs)


def test_initial_mesh_square():
    m = make_initial_mesh(SQUARE, 512)
    assert m.num_cells == 512
    assert m.num_vertices == 17 * 17
    assert m.num_interior_vertices == 15 * 15
    assert m.cell_areas().sum() == pytest.approx(4.0)
    assert_conforming(m)


def test_initial_mesh_unit_square():
    m = make_initial_mesh(DomainSpec("unit-square"), 512)
    assert m.cell_areas().sum() == pytest.approx(1.0)
    assert np.all(m.vertices >= 0.0) and np.all(m.vertices <= 1.0)
    assert_conforming(m, 4.0)


def test_initial_mesh_lshape():
    m = make_initial_mesh(LSHAPE, 384)
    assert m.num_cells == 384
    assert m.cell_areas().sum() == pytest.approx(3.0)
    # the reentrant corner (0, 0) is a boundary vertex
    k = np.flatnonzero((m.vertices[:, 0] == 0.0) & (m.vertices[:, 1] == 0.0))
    assert len(k) == 1 and m.boundary_vertex[k[0]]
    assert_conforming(m)


# (domain, cells, grid squares per side)
_INITIAL_GRIDS = (
    [("square", 2 * n * n, n) for n in (1, 2, 4, 8, 16, 32)]
    + [("unit-square", 2 * n * n, n) for n in (2, 16)]
    + [("lshape", 3 * n * n // 2, n) for n in (2, 4, 8, 16, 32)]
)


@pytest.mark.parametrize("kind, cells, n", _INITIAL_GRIDS)
def test_initial_mesh_matches_loop_reference(kind, cells, n):
    domain = DomainSpec(kind)
    m = make_initial_mesh(domain, cells)
    verts, ref_cells = forest_reference.initial_grid(domain, n)
    ref = _root_mesh(_ForestBase(verts, ref_cells))
    assert m.vertices.dtype == ref.vertices.dtype and m.cells.dtype == ref.cells.dtype
    for name in ("vertices", "cells", "edges", "cell_edge", "edge_cells", "boundary_vertex"):
        assert np.array_equal(getattr(m, name), getattr(ref, name)), name


def test_initial_mesh_bad_count():
    with pytest.raises(ValueError):
        make_initial_mesh(SQUARE, 100)


def test_cells_are_right_isosceles():
    # hypotenuse (the refinement edge) is always (v0, v1)
    m = refine(make_initial_mesh(SQUARE, 8), {0, 3})
    x = m.vertices[m.cells]
    e01 = np.linalg.norm(x[:, 1] - x[:, 0], axis=1)
    e12 = np.linalg.norm(x[:, 2] - x[:, 1], axis=1)
    e20 = np.linalg.norm(x[:, 0] - x[:, 2], axis=1)
    assert np.allclose(e12, e20)
    assert np.allclose(e01, e12 * np.sqrt(2.0))


def test_refine_marks_are_bisected():
    m = make_initial_mesh(SQUARE, 32)
    marked = {0, 7, 20}
    gen = m.cell_key[sorted(marked)]
    m2 = refine(m, marked)
    # each marked cell is gone from the leaf keys of the new mesh
    assert not np.isin(gen, m2.cell_key).any()
    assert_conforming(m2)
    assert m2.cell_areas().sum() == pytest.approx(4.0)
    assert is_refinement_of(m2, m)


def test_refine_past_depth_limit_raises():
    m = make_initial_mesh(SQUARE, 8)
    with pytest.raises(MeshStructureError):
        for _ in range(2 * MAX_LEVEL):
            m = refine(m, {int(np.argmax(m.cell_key & _LEVEL_MASK))})
    assert (m.cell_key & _LEVEL_MASK).max() >= MAX_LEVEL - 1


def test_forest_root_limit():
    with pytest.raises(MeshStructureError):
        _ForestBase(np.zeros((3, 2)), np.zeros((_MAX_ROOTS, 3), dtype=np.int64))


def test_keys_with_a_gap_do_not_tile():
    m = refine(make_initial_mesh(SQUARE, 8), {0, 3})
    with pytest.raises(MeshStructureError, match="tile"):
        TriMesh(m.base, np.delete(m.cell_key, 2))


def test_keys_with_an_overlap_do_not_tile():
    m = refine(make_initial_mesh(SQUARE, 8), {0, 3})
    children = [m.base.key[row] for row in m.base.children(m.rows[2:3]).T]
    with pytest.raises(MeshStructureError, match="tile"):
        TriMesh(m.base, np.sort(np.append(m.cell_key, children[0])))
    # an overlap with the area of a gap: leaf 3, the sibling of leaf 2,
    # replaced by both children of leaf 2
    with pytest.raises(MeshStructureError, match="tile"):
        TriMesh(m.base, np.sort(np.concatenate([np.delete(m.cell_key, 3)] + children)))


def test_refine_empty_returns_same():
    m = make_initial_mesh(SQUARE, 32)
    assert refine(m, set()) is m


def test_refine_invalid_mark():
    m = make_initial_mesh(SQUARE, 32)
    with pytest.raises(ValueError):
        refine(m, {999})


def test_closure_no_hanging_nodes_brute_force():
    # hanging node check from scratch: every vertex that lies strictly inside
    # an edge of some cell would break conformity
    m = make_initial_mesh(LSHAPE, 24)
    rng = np.random.default_rng(3)
    for _ in range(6):
        marked = set(rng.choice(m.num_cells, size=max(1, m.num_cells // 6), replace=False))
        m = refine(m, marked)
        verts = m.vertices
        for e in m.edges:
            a, b = verts[e[0]], verts[e[1]]
            t = b - a
            L2 = t @ t
            # project all vertices on the segment, none may sit strictly inside
            u = ((verts - a) @ t) / L2
            d = verts - a
            on_line = np.abs(t[0] * d[:, 1] - t[1] * d[:, 0]) < 1e-12 * np.sqrt(L2)
            inside = on_line & (u > 1e-12) & (u < 1 - 1e-12)
            assert not np.any(inside), f"hanging node on edge {e}"
        assert_conforming(m)


def test_uniform_refine_quarters_everything():
    m = make_initial_mesh(SQUARE, 32)
    m2 = uniform_refine(m)
    assert m2.num_cells == 4 * m.num_cells
    assert_conforming(m2)
    assert np.allclose(np.sort(m2.cell_areas()), m.cell_areas()[0] / 4.0)
    assert is_refinement_of(m2, m)


def test_union_of_disjoint_refinements():
    m0 = make_initial_mesh(SQUARE, 32)
    ma = refine(m0, {0, 1})
    mb = refine(m0, {10, 11})
    u = union_mesh([ma, mb])
    assert_conforming(u)
    assert is_refinement_of(u, ma) and is_refinement_of(u, mb)
    # refinements touched disjoint cells, so the union is their superposition
    assert u.num_cells == ma.num_cells + mb.num_cells - m0.num_cells


def test_union_absorbs_coarser_mesh():
    m0 = make_initial_mesh(SQUARE, 32)
    m1 = refine(m0, {0, 5})
    m2 = refine(m1, {3, 4})
    assert union_mesh([m0, m1, m2]).same_mesh(m2)


def test_union_identical_meshes_is_identity():
    m = refine(make_initial_mesh(SQUARE, 32), {2})
    assert union_mesh([m, m, m]) is m


def test_union_is_coarsest_common_refinement():
    # randomized: union must be a refinement of all inputs, and every one of
    # its leaves must be a leaf of at least one input (no extra refinement)
    rng = np.random.default_rng(11)
    m0 = make_initial_mesh(SQUARE, 8)
    meshes = []
    for _ in range(3):
        m = m0
        for _ in range(3):
            marked = set(rng.choice(m.num_cells, size=2, replace=False))
            m = refine(m, marked)
        meshes.append(m)
    u = union_mesh(meshes)
    assert_conforming(u)
    for m in meshes:
        assert is_refinement_of(u, m)
    assert np.isin(u.cell_key, np.concatenate([m.cell_key for m in meshes])).all()


def assert_twins(a, b):
    """``b`` is a second object for the mesh ``a``: it shares the arrays and
    the cache, and both equal a fresh build of the same leaves."""
    assert a is not b
    assert b.cell_key is a.cell_key and b._cache is a._cache
    fresh = TriMesh(a.base, a.cell_key.copy())
    for name in FOREST_ARRAYS:
        assert getattr(b, name) is getattr(a, name), name
        assert np.array_equal(getattr(b, name), getattr(fresh, name)), name


def test_equal_refinements_are_twins():
    m0 = make_initial_mesh(SQUARE, 32)
    a, b = refine(m0, {0, 7}), refine(m0, [7, 0])
    assert_twins(a, b)
    assert_twins(uniform_refine(m0), uniform_refine(m0))
    # a union equal to a live mesh is its twin, as are equal unions
    c = refine(m0, {20})
    assert_twins(a, union_mesh([m0, a]))
    assert_twins(union_mesh([a, c]), union_mesh([c, b]))
    # the root mesh of a forest too
    assert_twins(m0, _root_mesh(m0.base))


def test_twin_registry_holds_no_mesh_alive():
    m0 = make_initial_mesh(SQUARE, 32)
    base = m0.base
    meshes = [refine(m0, {0}), refine(m0, {0}), uniform_refine(m0)]
    meshes.append(union_mesh(meshes[1:]))  # the uniform refinement again
    assert len(base.leaves) == 3  # with the root mesh
    del m0, meshes
    gc.collect()
    assert len(base.leaves) == 0


def test_union_incompatible_bases():
    with pytest.raises(MeshStructureError):
        union_mesh([make_initial_mesh(SQUARE, 8), make_initial_mesh(SQUARE, 32)])


def test_equal_forests_built_apart_are_distinct():
    # forests compare by identity: equal roots built twice share no mesh
    a, b = make_initial_mesh(SQUARE, 32), make_initial_mesh(SQUARE, 32)
    assert np.array_equal(a.vertices, b.vertices) and np.array_equal(a.cells, b.cells)
    assert not a.same_mesh(b) and not is_refinement_of(refine(a, {0}), b)
    with pytest.raises(MeshStructureError):
        union_mesh([a, b])
    with pytest.raises(MeshStructureError):
        ancestor_cell_map(refine(a, {0}), b)


def test_ancestor_cell_map():
    m0 = make_initial_mesh(SQUARE, 32)
    m1 = refine(m0, {0, 1, 2})
    parents = ancestor_cell_map(m1, m0)
    # each fine cell's centroid lies in its reported coarse cell
    cent = m1.vertices[m1.cells].mean(axis=1)
    cells, _ = forest_reference.from_mesh(m0).locate(cent)
    assert np.array_equal(parents, cells)


def test_ancestor_cell_map_not_refinement():
    m0 = make_initial_mesh(SQUARE, 32)
    m1 = refine(m0, {0})
    with pytest.raises(MeshStructureError):
        ancestor_cell_map(m0, m1)


def test_ancestor_cell_map_holds_no_mesh_alive():
    coarse = make_initial_mesh(SQUARE, 32)
    fine = refine(coarse, {0, 1, 2})
    ancestor_cell_map(fine, coarse)
    ref = weakref.ref(coarse)
    del coarse
    gc.collect()
    assert ref() is None
    assert fine.num_cells > 32


def test_a_hanging_node_fails_the_conformity_check():
    # root 0 bisected, root 1 across its hypotenuse not: the midpoint hangs
    # on root 1's refinement edge, which then has one incident cell
    m0 = make_initial_mesh(SQUARE, 8)
    rows = np.concatenate([m0.rows[1:], m0.base.children(m0.rows[:1]).ravel()])
    hanging = _leaf_mesh(m0.base, rows)
    assert hanging.num_cells == 9 and hanging.cell_areas().sum() == pytest.approx(4.0)
    assert once_length(hanging) == pytest.approx(PERIMETER + 2 * np.sqrt(2.0))
    with pytest.raises(AssertionError):
        assert_conforming(hanging)
    assert_conforming(refine(m0, {0}))


def test_mesh_file_roundtrip(tmp_path):
    m = refine(make_initial_mesh(LSHAPE, 24), {0, 5, 10})
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    write_mesh(m, p1)
    m2 = read_mesh(p1)
    write_mesh(m2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert m2.num_vertices == m.num_vertices
    assert m2.num_cells == m.num_cells
    assert m2.cell_areas().sum() == pytest.approx(m.cell_areas().sum())


def test_read_mesh_canonical_refinement_edge(tmp_path):
    # cells written in rotated/reflected order come back with the hypotenuse
    # first and counterclockwise orientation
    p = tmp_path / "m.txt"
    p.write_text(
        "nodes 4 cells 2\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 3 2\n"
    )
    m = read_mesh(p)
    x = m.vertices[m.cells]
    e01 = np.linalg.norm(x[:, 1] - x[:, 0], axis=1)
    assert np.allclose(e01, np.sqrt(2.0))
    assert np.all(m.cell_areas() > 0)


def test_read_mesh_malformed(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("vertices 3 cells 1\n")
    with pytest.raises(ValueError):
        read_mesh(p)


@pytest.mark.parametrize("text", ["nodes -1 cells -1\n", "nodes 0 cells 0\n"])
def test_read_mesh_rejects_bad_counts(tmp_path, text):
    # a negative count, or a mesh with no cells, is a malformed header
    p = tmp_path / "bad.txt"
    p.write_text(text)
    with pytest.raises(ValueError, match="malformed mesh header"):
        read_mesh(p)


@pytest.mark.parametrize(
    "text, problem",
    [
        ("nodes 3 cells 1\n0 0\n1 0\n", "ends after 2 of 3 vertex lines"),
        ("nodes 3 cells 1\n0 0\n1 0\n0 1\n", "ends after 0 of 1 cell lines"),
        ("nodes 3 cells 1\n0 0\n1 0\n0 1\n0 1\n", "cell line 1 has 2 numbers"),
        ("nodes 3 cells 1\n0 0\n1 0\n0 1\n0 1 3\n", "outside 0..2"),
        ("nodes 3 cells 1\n0 0\n1 0\n0 1\n0 1 -1\n", "outside 0..2"),
        ("nodes 4 cells 1\n0 0\n1 0\n0 1\n1 0\n0 1 2\n", "same coordinates"),
    ],
)
def test_read_mesh_names_the_problem(tmp_path, text, problem):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    with pytest.raises(ValueError, match=problem):
        read_mesh(p)


@pytest.mark.parametrize(
    "text, problem",
    [
        # a repeated vertex
        ("nodes 3 cells 2\n0 0\n1 0\n0 1\n0 1 2\n0 0 1\n", r"cell 1 has zero area: \[0, 0, 1\]"),
        # three collinear vertices
        ("nodes 3 cells 1\n0 0\n1 0\n2 0\n0 1 2\n", r"cell 0 has zero area: \[0, 1, 2\]"),
    ],
)
def test_read_mesh_rejects_degenerate_cells(tmp_path, text, problem):
    p = tmp_path / "flat.txt"
    p.write_text(text)
    with pytest.raises(ValueError, match=problem):
        read_mesh(p)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_refine_conformity_property(data):
    m = make_initial_mesh(SQUARE, 8)
    for _ in range(data.draw(st.integers(1, 4))):
        n = m.num_cells
        marked = data.draw(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=min(4, n))
        )
        m = refine(m, marked)
    assert_conforming(m)
    assert m.cell_areas().sum() == pytest.approx(4.0)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_union_overlay_property(data):
    m0 = make_initial_mesh(SQUARE, 8)
    meshes = []
    for _ in range(data.draw(st.integers(2, 3))):
        m = m0
        for _ in range(data.draw(st.integers(0, 3))):
            n = m.num_cells
            marked = data.draw(
                st.sets(st.integers(0, n - 1), min_size=1, max_size=min(3, n))
            )
            m = refine(m, marked)
        meshes.append(m)
    u = union_mesh(meshes)
    assert_conforming(u)
    for m in meshes:
        assert is_refinement_of(u, m)
    assert u.cell_areas().sum() == pytest.approx(4.0)


def assert_same_as_reference(mesh, ref):
    for name in ("vertices", "cells", "boundary_vertex"):
        assert np.array_equal(getattr(mesh, name), getattr(ref, name)), name
    # the edges are numbered in the forest's order, the reference's lexicographically
    got, want = forest_reference.edge_arrays(mesh), forest_reference.edge_arrays(ref)
    for a, b, name in zip(got, want, ("edges[cell_edge]", "edges", "edge_cells")):
        assert np.array_equal(a, b), name
    assert np.array_equal(mesh.cell_key, forest_reference.keys_of(ref))


@settings(max_examples=50, deadline=None)
@given(data=st.data(), initial=st.sampled_from([(SQUARE, 8), (LSHAPE, 24)]))
def test_forest_matches_loop_reference(data, initial):
    """Refine, union, uniform refine and the ancestor map give exactly the
    arrays of the tuple-path loop implementation."""
    m0 = make_initial_mesh(*initial)
    meshes, refs = [], []
    for _ in range(data.draw(st.integers(1, 3))):
        m, r = m0, forest_reference.from_mesh(m0)
        assert_same_as_reference(m, r)
        for _ in range(data.draw(st.integers(0, 5))):
            marked = data.draw(
                st.sets(st.integers(0, m.num_cells - 1), min_size=1, max_size=5)
            )
            m, r = refine(m, marked), forest_reference.refine(r, marked)
            assert_same_as_reference(m, r)
        meshes.append(m)
        refs.append(r)
    u, ru = union_mesh(meshes), forest_reference.union_mesh(refs)
    assert_same_as_reference(u, ru)
    for m, r in zip(meshes, refs):
        assert np.array_equal(
            ancestor_cell_map(u, m), forest_reference.ancestor_cell_map(ru, r)
        )
        assert is_refinement_of(m, u) == forest_reference.is_refinement_of(r, ru)
    assert_same_as_reference(
        uniform_refine(meshes[0]), forest_reference.uniform_refine(refs[0])
    )
