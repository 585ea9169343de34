"""Conforming triangle meshes with bisection refinement and exact overlays.

Meshes are immutable values.  Every mesh is described by a *forest*: a fixed
initial triangulation (the roots) plus, for each root cell, the leaves of a
binary bisection tree.  A tree node is the root index plus the path of 0/1
choices recording which child was taken at each bisection, packed into one
int64 *key*::

    key = root << 46 | bits << 6 | level

``level`` is the path length and ``bits`` holds the path left-aligned in a
40-bit field (first choice in the highest bit, unused bits zero).  A path is
therefore at most ``MAX_LEVEL = 40`` bisections deep, and a forest has fewer
than ``2**17`` roots; refining past that depth raises MeshStructureError.
Sorted keys list the nodes root by root in preorder (a node before its
descendants, child 0's subtree before child 1's), so the leaf keys of a mesh,
sorted, give its cell order: root, then lexicographic path.  Because the
geometry of a child is determined entirely by its parent, two meshes
descending from the same initial mesh can be overlaid exactly by merging
their key arrays, with no geometric predicates involved.

Cell storage convention: each cell is a counterclockwise vertex triple
``(v0, v1, v2)`` whose refinement edge is ``(v0, v1)`` and whose peak (newest
vertex) is ``v2``.  Bisection inserts the midpoint ``m`` of ``(v0, v1)`` and
produces the children ``(v2, v0, m)`` and ``(v1, v2, m)``, which is the
standard newest-vertex rule.  All initial cells are right isosceles triangles
with the hypotenuse as refinement edge, so the refinement edge of every
descendant is its (unique) longest edge.

Each forest keeps a node table (``_ForestBase``): every node built so far,
append-only, with its key, corners, edges and first child, and per-node
columns (areas, gradients, per field the load contributions and the
estimator's operators, per reference its values), each keyed by the function
that computes it and that function's arguments, computed once per node and
gathered by every mesh (``TriMesh.column``), node axis last: a gather comes
out cells innermost, as the estimator reads it, and a caller that flattens it
cell-major transposes it.  Each midpoint also records the ends (lo, hi) of
the edge it bisects and its generation, one more than the larger of theirs
(roots: 0), which is all a P1 prolongation between meshes of the forest needs
(``fem._Prolongation``).  A refinement keeps its mesh's leaf rows and adds
children's, appended at a node's first bisection, and a build numbers the
forest vertices and edges its leaves use.  Forests compare by identity:
meshes of two separately built forests are never the same mesh and never
combine, even over equal roots.

Vertex numbering: the initial vertices come first, then one midpoint per
bisected edge, ordered by the smallest key of a node that bisects that edge.
This does not depend on what else the forest holds: the one or two nodes
bisecting an edge whose midpoint is a vertex of a conforming mesh both lie
in that mesh's tree.  Midpoints are identified by their edge, so the initial
vertices must be distinct points.

A forest is also a separator tree for nested dissection (``dissection_order``):
the roots form a coordinate-bisection tree, a cell's *full path* is its root's
path there followed by its key bits, and no edge joins the open interiors of a
node's two children, because every edge lies inside one cell.

A mesh is identified by its leaves.  While a mesh of a forest is alive,
``refine``, ``uniform_refine`` and ``union_mesh`` return a mesh with the same
leaves as a *twin*: a new object sharing its arrays and ``_cache`` dict.
Only ``TriMesh.memo`` reads and writes ``_cache``, keying ``compute(mesh,
*args)`` by ``(compute, *args)``: a function of the leaves that holds no
mesh, so twins share the dict safely, ``id(mesh._cache)`` groups meshes by
leaves, and no cache keeps another mesh alive.  It holds the FE system,
loads and Neumann bases for one solve phase (``fem``), then is cleared whole.

Vertex, cell, edge and row ids, in the meshes and in the node table, are
int32: a forest stays far below 2**31 nodes.  Hot gathers by them use
``np.take``, which costs no more than indexing by intp, and products of ids
are formed in intp.
"""

import copy
import weakref
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainSpec",
    "TriMesh",
    "MeshStructureError",
    "make_initial_mesh",
    "refine",
    "uniform_refine",
    "union_mesh",
    "is_refinement_of",
    "write_mesh",
    "read_mesh",
]

MAX_LEVEL = 40
_LEVEL_BITS = 6
_LEVEL_MASK = (1 << _LEVEL_BITS) - 1
_ROOT_SHIFT = MAX_LEVEL + _LEVEL_BITS
_MAX_ROOTS = 1 << (63 - _ROOT_SHIFT)
_PATH_BITS = MAX_LEVEL + 63 - _ROOT_SHIFT  # a full path: root path (<= 17 bits), key bits


class MeshStructureError(Exception):
    """Raised when meshes are structurally incompatible (e.g. different roots)."""


@dataclass(frozen=True)
class DomainSpec:
    """Polygonal computational domain.

    kind is one of ``"square"`` ((-1,1)^2), ``"unit-square"`` ((0,1)^2) or
    ``"lshape"`` ((-1,1)^2 minus the closed lower-left quadrant).
    """

    kind: str

    _AREAS = {"square": 4.0, "unit-square": 1.0, "lshape": 3.0}

    def __post_init__(self):
        if self.kind not in self._AREAS:
            raise ValueError(f"unknown domain kind: {self.kind!r}")

    @property
    def area(self):
        return self._AREAS[self.kind]

    @property
    def rectangle(self):
        """Bounding box (x0, x1, y0, y1) if the domain is a rectangle, else None."""
        if self.kind == "square":
            return (-1.0, 1.0, -1.0, 1.0)
        if self.kind == "unit-square":
            return (0.0, 1.0, 0.0, 1.0)
        return None


class _ForestBase:
    """An initial mesh (the forest roots) and the node table of its forest.

    The table is append-only, roots first.  Row r holds a node's key, its
    corners as forest vertex ids, its local edges (v0,v1), (v1,v2), (v2,v0)
    as ids into ``edges``, the forest's (lo, hi) vertex pairs, and the row
    of its child 0 (-1 until bisected; child 1 is the next row).  ``half``
    holds the id of the half (lo, m) of each bisected edge, (hi, m) being
    the next, else -1.  ``xy`` holds the forest vertices, ``rank`` their
    order in a mesh, ``parent`` the (lo, hi) ends of the edge each midpoint
    bisects (-1 at the initial vertices), ``generation`` their generations,
    ``columns`` the columns of ``TriMesh.column``, and
    ``root_path``/``root_depth`` the roots' tree (``_bisect_roots``).
    """

    __slots__ = ("vertices", "cells", "leaves", "key", "corners", "cell_edge", "child", "edges",
                 "half", "xy", "rank", "parent", "generation", "columns", "root_path", "root_depth")

    def __init__(self, vertices, cells):
        self.vertices = np.asarray(vertices, dtype=float)
        self.cells = np.asarray(cells, dtype=np.int32)
        self.leaves = weakref.WeakValueDictionary()
        if len(self.cells) >= _MAX_ROOTS:
            raise MeshStructureError(f"a forest has at most {_MAX_ROOTS - 1} roots")
        self.root_path, self.root_depth = _bisect_roots(self.vertices[self.cells].mean(axis=1))
        self.key = np.arange(len(self.cells), dtype=np.int64) << _ROOT_SHIFT
        self.corners, self.xy = self.cells, self.vertices
        self.child = np.full(len(self.cells), -1, dtype=np.int32)
        pairs = np.sort(self.cells[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2), axis=1)
        self.edges, inv = np.unique(pairs, axis=0, return_inverse=True)
        self.cell_edge = inv.reshape(-1, 3).astype(np.int32)
        self.half = np.full(len(self.edges), -1, dtype=np.int32)
        self.rank = np.arange(len(self.vertices), dtype=np.int64) - len(self.vertices)
        self.parent = np.full((len(self.vertices), 2), -1, dtype=np.int32)
        self.generation = np.zeros(len(self.vertices), dtype=np.int8)  # at most MAX_LEVEL
        self.columns = {}

    def rows_of(self, keys):
        """Rows of the sorted leaf keys ``keys``, descending from the roots by ``child``."""
        # the leaves tile the roots if none holds the next one and, per root,
        # their areas (2^-level of the root's) add up to the root's
        share = np.bincount(keys >> _ROOT_SHIFT, 2.0 ** (MAX_LEVEL - (keys & _LEVEL_MASK)))
        if not (np.array_equal(share, np.full(len(self.cells), 2.0**MAX_LEVEL))
                and not _is_prefix(keys[:-1], keys[1:]).any()):
            raise MeshStructureError("cell keys do not tile the forest roots")
        rows, level = keys >> _ROOT_SHIFT, keys & _LEVEL_MASK
        for d in range(int(level.max(initial=0))):
            deeper = level > d
            parent, inv = np.unique(rows[deeper], return_inverse=True)
            rows[deeper] = self.children(parent)[inv, (keys[deeper] >> (_ROOT_SHIFT - 1 - d)) & 1]
        return rows.astype(np.int32)

    def children(self, rows):
        """Rows (r, 2) of the children of the distinct nodes ``rows``, bisecting as needed."""
        new = rows[np.take(self.child, rows) < 0]
        if len(new):
            self._bisect(new)
        return np.take(self.child, rows)[:, None] + np.arange(2, dtype=np.int32)

    def _bisect(self, rows):
        """Append both children of the distinct, unbisected nodes ``rows``."""
        keys, (v0, v1, v2) = np.take(self.key, rows), np.take(self.corners, rows, axis=0).T
        edge = np.take(self.cell_edge, rows, axis=0)
        level = keys & _LEVEL_MASK
        if level.max() >= MAX_LEVEL:
            raise MeshStructureError(f"bisection deeper than MAX_LEVEL = {MAX_LEVEL}")
        child = np.stack([keys + 1, keys + 1 + (1 << (_ROOT_SHIFT - 1 - level))], axis=1).ravel()
        # a refinement edge bisected for the first time gets a midpoint and two halves
        new = np.unique(edge[self.half[edge[:, 0]] < 0, 0])
        ends, mid = self.edges[new], len(self.xy) + np.arange(len(new), dtype=np.int32)
        self.xy = np.concatenate([self.xy, (self.xy[ends[:, 0]] + self.xy[ends[:, 1]]) / 2.0])
        self.rank = np.append(self.rank, np.full(len(new), np.iinfo(np.int64).max))
        self.parent = np.concatenate([self.parent, ends])
        self.generation = np.append(self.generation, self.generation[ends].max(axis=1) + 1)
        self.half[new] = len(self.edges) + 2 * np.arange(len(new), dtype=np.int32)
        halves = np.column_stack([ends.ravel(), np.repeat(mid, 2)])  # (lo, m), (hi, m)
        peak = len(self.edges) + len(halves) + np.arange(len(rows), dtype=np.int32)
        self.edges = np.concatenate([self.edges, halves, np.empty((len(rows), 2), dtype=np.int32)])
        self.half = np.append(self.half, np.full(len(halves) + len(rows), -1, dtype=np.int32))
        h = self.half[edge[:, 0]]
        m = self.edges[h, 1]  # the later end of either half
        np.minimum.at(self.rank, m, keys)  # the smallest key bisecting the edge
        self.edges[peak] = np.stack([np.minimum(v2, m), np.maximum(v2, m)], axis=1)
        self.child[rows] = len(self.key) + 2 * np.arange(len(rows), dtype=np.int32)
        self.child = np.append(self.child, np.full(len(child), -1, dtype=np.int32))
        self.key = np.concatenate([self.key, child])
        children = np.stack([v2, v0, m, v1, v2, m], axis=1).reshape(-1, 3)
        self.corners = np.concatenate([self.corners, children])
        h0, h1 = h + (v0 > v1), h + (v1 > v0)  # the halves at v0 and at v1
        edges = np.stack([edge[:, 2], h0, peak, edge[:, 1], peak, h1], axis=1).reshape(-1, 3)
        self.cell_edge = np.concatenate([self.cell_edge, edges])


def _bisect_roots(centroids):
    """Paths (left-aligned in ``_PATH_BITS`` bits) and depths of the roots in
    the recursive coordinate bisection of their centroids (0: the lower half
    along the longer side of the bounding box, ties by index).  Each level
    splits all its groups at once: ``idx`` lists the roots group by group, and
    one stable sort by group, then coordinate, orders every group."""
    path, depth = np.zeros((2, len(centroids)), dtype=np.int64)
    idx = np.arange(len(centroids))
    start = np.zeros(int(len(idx) > 1), dtype=np.int64)  # groups of more than one root
    d = 0
    while len(start):
        size = np.diff(np.append(start, len(idx)))
        group = np.repeat(np.arange(len(start)), size)
        c = centroids[idx]
        axis = np.argmax(np.maximum.reduceat(c, start) - np.minimum.reduceat(c, start), axis=1)
        idx = idx[np.lexsort((c[np.arange(len(idx)), axis[group]], group))]
        half = size // 2
        path[idx[np.arange(len(idx)) >= (start + half)[group]]] |= 1 << (_PATH_BITS - 1 - d)
        d += 1
        depth[idx] = d
        size = np.stack([half, size - half], axis=1).ravel()
        idx = idx[np.repeat(size > 1, size)]
        size = size[size > 1]
        start = np.cumsum(size) - size
    return path, depth


# -- node keys ---------------------------------------------------------------


def _is_prefix(p, q):
    """Elementwise: is node ``p`` equal to or an ancestor of node ``q``?

    Exact when ``p <= q``: a node sorting before ``q`` that shares its first
    level(p) choices is an ancestor of ``q``.
    """
    shift = _ROOT_SHIFT - (p & _LEVEL_MASK)
    return (p >> shift) == (q >> shift)


def separator_nodes(mesh):
    """Separator node of each interior vertex: the deepest node with the
    vertex in its open interior, as its path left-aligned in ``_PATH_BITS``
    bits and a mask of the bits below it.  It is the longest common prefix of
    the full paths of the vertex's cells, so of their min and max: leaves are
    prefix-free, so their left-aligned paths sort as the paths do, and the
    first bit where two differ is on both."""
    root = mesh.cell_key >> _ROOT_SHIFT
    depth = mesh.base.root_depth[root]
    bits = (mesh.cell_key >> _LEVEL_BITS) & ((1 << MAX_LEVEL) - 1)
    path = mesh.base.root_path[root] | bits << (_PATH_BITS - MAX_LEVEL - depth)
    vertex, path = mesh.cells.reshape(-1), np.repeat(path, 3)
    lo = np.full(mesh.num_vertices, np.iinfo(np.int64).max)
    mask = np.zeros(mesh.num_vertices, dtype=np.int64)
    np.minimum.at(lo, vertex, path)
    np.maximum.at(mask, vertex, path)
    mask ^= lo
    for shift in (1, 2, 4, 8, 16, 32):  # ones from the first differing bit down
        mask |= mask >> shift
    return lo & ~mask, mask


def dissection_order(mesh):
    """The interior vertices in a post-order of their separator nodes
    (descendants first), ties by vertex id.  Padded with ones, a node's path
    is its subtree's largest, shared only along its all-ones branch, where
    deeper nodes (smaller masks) go first."""
    prefix, mask = separator_nodes(mesh)
    dofs = np.flatnonzero(~mesh.boundary_vertex)
    return dofs[np.lexsort((mask[dofs], prefix[dofs] | mask[dofs]))]


def _ancestor_index(fine, coarse):
    """Index of the coarse cell containing each fine cell, or None if some
    fine cell lies in no coarse cell."""
    ck, fk = coarse.cell_key, fine.cell_key
    # a coarse ancestor is the last coarse key not after the fine key: the
    # keys between them would lie in its subtree, and coarse leaves are disjoint
    pos = np.searchsorted(ck, fk, side="right") - 1
    ok = (pos >= 0) & _is_prefix(ck[np.maximum(pos, 0)], fk)
    return pos if ok.all() else None


class TriMesh:
    """Immutable conforming triangulation obtained by bisections of a fixed
    initial mesh.

    Attributes
    ----------
    vertices : (n, 2) float array
    cells : (m, 3) int32 array, counterclockwise, refinement edge ``(v0, v1)``
    cell_key : (m,) sorted int64 array, forest key of each cell (see module doc)
    rows : (m,) int32 array, node-table row of each cell (see ``_ForestBase``)
    ids : (n,) int32 array, forest vertex id of each vertex; the initial ones first
    edges : (e, 2) int32 array, sorted vertex pairs in the forest's edge order
    cell_edge : (m, 3) int32 array, edge ids of local edges (v0,v1), (v1,v2), (v2,v0)
    edge_cells : (e, 2) int32 array, incident cells (second is -1 on the boundary)
    boundary_vertex : (n,) bool array
    """

    def __init__(self, base, cell_key, rows=None):
        self.base = base
        self.cell_key = cell_key
        self._build(base.rows_of(cell_key) if rows is None else rows)
        self._cache = {}

    # -- construction -------------------------------------------------------

    def _build(self, rows):
        """Vertices, cells and edges of the leaves at table rows ``rows``, found by masks."""
        base = self.base
        self.rows, corners = rows, np.take(base.corners, rows, axis=0)  # faster than [rows]
        cell_edge = np.take(base.cell_edge, rows, axis=0)
        used = np.zeros(len(base.xy), dtype=bool)
        used[corners.astype(np.intp)] = True  # a scatter by intp ids is about 2x faster
        ids = np.flatnonzero(used)
        ids = ids[np.argsort(base.rank[ids])]
        local = np.empty(len(base.xy), dtype=np.int32)
        local[ids] = np.arange(len(ids), dtype=np.int32)
        self.vertices, self.cells = base.xy[ids], np.take(local, corners)
        self.ids = ids.astype(np.int32)  # the forest's vertex ids, for ``fem._Prolongation``
        used = np.zeros(len(base.edges), dtype=bool)
        used[cell_edge.astype(np.intp)] = True
        lo, hi = np.take(local, np.take(base.edges, np.flatnonzero(used), axis=0)).T
        self.edges = np.stack([np.minimum(lo, hi), np.maximum(lo, hi)], axis=1)
        self.cell_edge = np.take(np.cumsum(used, dtype=np.int32) - 1, cell_edge)
        # each edge's first and last incident cell in local-edge-major order (local
        # edge j of cell k at j m + k); an edge used once is on the boundary
        m, flat = len(rows), self.cell_edge.T.ravel()
        first, last = np.full(len(self.edges), 3 * m), np.full(len(self.edges), -1)
        np.minimum.at(first, flat, np.arange(3 * m))
        np.maximum.at(last, flat, np.arange(3 * m))
        once = first == last
        self.edge_cells = np.stack([first % m, np.where(once, -1, last % m)], axis=1,
                                   dtype=np.int32)
        self.boundary_vertex = np.zeros(len(ids), dtype=bool)
        self.boundary_vertex[self.edges[once]] = True

    # -- basic queries -------------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_cells(self):
        return len(self.cells)

    @property
    def num_interior_vertices(self):
        return int(np.count_nonzero(~self.boundary_vertex))

    def cell_areas(self):
        return self.column(_cell_areas)

    def column(self, compute, *args):
        """This mesh's cells' values (..., m), cells innermost, in the forest's
        per-node column ``(compute, *args)``, stored node axis last.

        ``compute(x, *args)`` maps the corners x (r, 3, 2) of r nodes to their
        values (r, ...); it runs once per node, on the rows added since the
        column was last extended.  It must compute each node's values from its
        own corners alone, elementwise, so that no bit depends on the other rows.
        """
        base, key = self.base, (compute, *args)
        col = base.columns.get(key)
        done = 0 if col is None else col.shape[-1]
        if done < len(base.corners):
            new = compute(np.take(base.xy, base.corners[done:], axis=0), *args)
            new = np.ascontiguousarray(np.moveaxis(new, 0, -1))  # else take copies it
            base.columns[key] = col = new if col is None else np.concatenate([col, new], -1)
        return np.take(col, self.rows, axis=-1)  # faster than col[..., self.rows]

    def memo(self, compute, *args):
        """``compute(self, *args)``, kept in ``_cache`` until it is cleared."""
        key = (compute, *args)
        if key not in self._cache:
            self._cache[key] = compute(self, *args)
        return self._cache[key]

    def same_mesh(self, other):
        return self is other or (
            self.base is other.base and np.array_equal(self.cell_key, other.cell_key)
        )


def _cell_areas(x):
    """Signed areas of cells with corners x (r, 3, 2)."""
    d1 = x[:, 1] - x[:, 0]
    d2 = x[:, 2] - x[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


# -- initial meshes ----------------------------------------------------------


def make_initial_mesh(domain, target_cells):
    """Uniform right-angled triangulation of the domain with ``target_cells``
    cells.

    Each grid square is split along the bottom-left to top-right diagonal; the
    hypotenuse is the refinement edge of both triangles.
    """
    if domain.kind in ("square", "unit-square"):
        n = int(round(np.sqrt(target_cells / 2.0)))
        if 2 * n * n != target_cells or n < 1:
            raise ValueError(
                f"{target_cells} cells not achievable on a uniform grid of {domain.kind}"
            )
        cut = 0
    else:
        # 2 * (3/4) * n^2 cells on the [-1,1]^2 grid minus the lower-left quadrant
        n = int(round(np.sqrt(target_cells * 2.0 / 3.0)))
        if 3 * n * n // 2 != target_cells or n % 2 != 0:
            raise ValueError(
                f"{target_cells} cells not achievable on a uniform L-shape grid"
            )
        cut = n // 2
    lo, hi = (0.0, 1.0) if domain.kind == "unit-square" else (-1.0, 1.0)
    h = (hi - lo) / n
    # grid squares row by row, without the cut x cut block at the lower left
    j, i = np.divmod(np.arange(n * n), n)
    keep = (i >= cut) | (j >= cut)
    i, j = i[keep], j[keep]
    # corners a, b, c, d of each square, counter-clockwise from the lower left
    gi = np.stack([i, i + 1, i + 1, i], axis=1).reshape(-1)
    gj = np.stack([j, j, j + 1, j + 1], axis=1).reshape(-1)
    # vertices are numbered in the order the squares first touch them
    _, first, inverse = np.unique(gj * (n + 1) + gi, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    a, b, c, d = rank[inverse].reshape(-1, 4).T
    # diagonal a-c is the hypotenuse of both triangles
    cells = np.stack([c, a, b, a, c, d], axis=1).reshape(-1, 3)
    touched = np.sort(first)
    verts = np.stack([lo + gi[touched] * h, lo + gj[touched] * h], axis=1)
    return _root_mesh(_ForestBase(verts, cells))


def _root_mesh(base):
    """The unrefined mesh of a forest: one leaf per root."""
    return _leaf_mesh(base, np.arange(len(base.cells), dtype=np.int32))


def _leaf_mesh(base, rows):
    """The mesh of the leaves at table rows ``rows``, ordered by key: a twin
    of a live mesh with these leaves, sharing its arrays and ``_cache`` (see
    the module doc), or else a new build."""
    rows = rows[np.argsort(np.take(base.key, rows))]
    keys = np.take(base.key, rows)
    built = base.leaves.get(keys.tobytes())  # weak: it holds no mesh alive
    if built is None:
        return base.leaves.setdefault(keys.tobytes(), TriMesh(base, keys, rows))
    twin = copy.copy(built)
    twin._built = built  # holds the registered mesh, and so its entry, alive
    return twin


# -- refinement --------------------------------------------------------------


def refine(mesh, marked):
    """Bisect every marked cell at least once and close for conformity.

    Returns ``mesh`` itself if nothing is marked, else a new object (a twin
    of any live mesh with equal leaves).  Unmarked cells are bisected only
    as needed to remove hanging nodes (standard newest-vertex closure).
    """
    marked = np.fromiter(marked, dtype=np.int64)
    if not marked.size:
        return mesh
    if marked.min() < 0 or marked.max() >= mesh.num_cells:
        raise ValueError("marked set contains invalid cell ids")
    # edge-marking closure: a cell with any marked edge has its refinement edge marked
    ce = mesh.cell_edge
    marked_edge = np.zeros(len(mesh.edges), dtype=bool)
    marked_edge[ce[marked, 0]] = True
    while True:
        on = np.take(marked_edge, ce.T)  # by local edge; or-ing rows beats any(axis=1) ~10x
        split = on[0] | on[1] | on[2]
        ref = ce[split, 0]
        if np.take(marked_edge, ref).all():
            break
        marked_edge[ref] = True
    # a split cell's child 0 (v2, v0, m) is split again if edge (v2, v0) is
    # marked, child 1 (v1, v2, m) if edge (v1, v2) is
    children = mesh.base.children(mesh.rows[split])
    again = np.take(marked_edge, ce[split][:, [2, 1]])
    rows = [mesh.rows[~split], children[~again], mesh.base.children(children[again]).ravel()]
    return _leaf_mesh(mesh.base, np.concatenate(rows))


def uniform_refine(mesh):
    """Split every cell into its four generation-(g+2) descendants."""
    return _leaf_mesh(mesh.base, mesh.base.children(mesh.base.children(mesh.rows).ravel()).ravel())


def union_mesh(meshes):
    """Coarsest common refinement (overlay) of meshes sharing one initial mesh.

    Computed by merging the bisection forests: sort all leaf keys, then keep
    the row of each distinct key that is not an ancestor of the next one
    (the deepest fringe).  The result is conforming because the overlay of
    conforming newest-vertex refinements is conforming.
    """
    meshes = list(meshes)
    if not meshes:
        raise ValueError("need at least one mesh")
    base = meshes[0].base
    for m in meshes[1:]:
        if m.base is not base:
            raise MeshStructureError("meshes do not share an initial mesh")
    if all(m.same_mesh(meshes[0]) for m in meshes):
        return meshes[0]
    distinct = {id(m.rows): m.rows for m in meshes}  # twins share rows
    rows = np.concatenate(list(distinct.values()))
    keys, first = np.unique(np.take(base.key, rows), return_index=True)
    keep = np.ones(len(keys), dtype=bool)
    keep[:-1] = ~_is_prefix(keys[:-1], keys[1:])
    return _leaf_mesh(base, rows[first[keep]])


def is_refinement_of(fine, coarse):
    """True if every cell of ``coarse`` is a union of cells of ``fine``."""
    if fine.base is not coarse.base:
        return False
    return _ancestor_index(fine, coarse) is not None


def ancestor_cell_map(fine, coarse):
    """For each cell of ``fine``, the index of the ``coarse`` cell containing it.

    Raises MeshStructureError if ``coarse`` is not a coarsening of ``fine``.
    Not cached, so ``fine`` holds no reference to ``coarse``.
    """
    if fine.base is not coarse.base:
        raise MeshStructureError("meshes do not share an initial mesh")
    out = _ancestor_index(fine, coarse)
    if out is None:
        raise MeshStructureError("target mesh is not a refinement of the source")
    return out


# -- ASCII round-trip format -------------------------------------------------


def write_mesh(mesh, path):
    """Write the ASCII mesh format: header, vertex lines, cell lines.

    ``path`` may also be an open text stream.
    """
    if hasattr(path, "write"):
        _write_mesh_stream(mesh, path)
    else:
        with open(path, "w") as fh:
            _write_mesh_stream(mesh, fh)


def _write_mesh_stream(mesh, fh):
    fh.write(f"nodes {mesh.num_vertices} cells {mesh.num_cells}\n")
    for x, y in mesh.vertices:
        fh.write(f"{x:.17g} {y:.17g}\n")
    for a, b, c in mesh.cells:
        fh.write(f"{a} {b} {c}\n")


def _read_rows(fh, count, width, parse, what):
    rows = []
    for i in range(count):
        line = fh.readline()
        if not line:
            raise ValueError(f"mesh file ends after {i} of {count} {what} lines")
        tokens = line.split()
        if len(tokens) != width:
            raise ValueError(
                f"{what} line {i + 1} has {len(tokens)} numbers, expected {width}"
            )
        rows.append([parse(t) for t in tokens])
    return rows


def read_mesh(path):
    """Read the ASCII mesh format back into a TriMesh.

    The cells of the file become the roots of a fresh forest.  Each cell is
    rotated so its (unique) longest edge comes first, which recovers the
    refinement edge for any mesh this package produces; ties are broken by the
    smallest opposite-vertex index.  Raises ValueError for a malformed
    header (also a negative count or no cells), a truncated file, a vertex
    index out of range, two vertices at the same point, or a cell of zero
    area (a repeated vertex gives one).
    """
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "nodes" or header[2] != "cells":
            raise ValueError("malformed mesh header")
        nv, nc = int(header[1]), int(header[3])
        if nv < 0 or nc < 1:
            raise ValueError("malformed mesh header")
        verts = np.array(_read_rows(fh, nv, 2, float, "vertex"), dtype=float)
        cells = np.array(_read_rows(fh, nc, 3, int, "cell"), dtype=np.int64)
    verts, cells = verts.reshape(nv, 2), cells.reshape(nc, 3)
    bad = (cells < 0) | (cells >= nv)
    if bad.any():
        k = int(np.argmax(bad.any(axis=1)))
        raise ValueError(
            f"cell {k} refers to a vertex outside 0..{nv - 1}: {cells[k].tolist()}"
        )
    if len(np.unique(verts, axis=0)) != nv:
        raise ValueError("two vertices share the same coordinates")
    x = verts[cells]
    d1, d2 = x[:, 1] - x[:, 0], x[:, 2] - x[:, 0]
    area2 = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    if (area2 == 0).any():
        k = int(np.argmax(area2 == 0))
        raise ValueError(f"cell {k} has zero area: {cells[k].tolist()}")
    flip = area2 < 0
    cells[flip] = cells[flip][:, [0, 2, 1]]
    rots = np.stack([cells, cells[:, [1, 2, 0]], cells[:, [2, 0, 1]]], axis=1)
    d = verts[rots[:, :, 1]] - verts[rots[:, :, 0]]
    lengths = np.hypot(d[..., 0], d[..., 1])
    longest = lengths == lengths.max(axis=1, keepdims=True)
    best = np.argmin(np.where(longest, rots[:, :, 2], nv), axis=1)
    canon = rots[np.arange(nc), best]
    return _root_mesh(_ForestBase(verts, canon))
