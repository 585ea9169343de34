"""Loop reference for the bisection forest in ``fracadapt.mesh``.

This is the tuple-path implementation the array-native forest replaced, kept
as the reference the tests compare against, together with the loop that
built the initial grid before ``make_initial_mesh`` was vectorised, and the
recursion that built the roots' bisection tree (``bisect_roots``) before
``mesh._bisect_roots`` split a whole level at once, and the sort that found
each vertex's smallest and largest full path (``separator_nodes``) before
``mesh.separator_nodes`` took them with ``np.minimum.at``/``np.maximum.at``.  Each root cell carries a
frozenset of leaf paths (tuples of 0/1 bisection choices); building,
refinement (recursive newest-vertex closure), overlay and the ancestor map
walk those paths in Python.  Meshes here share ``_ForestBase`` with the real
ones, and ``from_mesh`` / ``keys_of`` convert between the two encodings.
The real meshes number their edges in the forest's order, the reference
lexicographically; ``edge_arrays`` compares them apart from that numbering.
"""

from dataclasses import dataclass

import numpy as np

from fracadapt.mesh import (
    _LEVEL_BITS,
    _LEVEL_MASK,
    _PATH_BITS,
    _ROOT_SHIFT,
    MAX_LEVEL,
    MeshStructureError,
)


def bisect_roots(centroids):
    """Root paths and depths of ``mesh._bisect_roots``, one call per tree node."""
    path, depth = np.zeros((2, len(centroids)), dtype=np.int64)

    def split(idx, d):
        depth[idx] = d
        if len(idx) > 1:
            c = centroids[idx]
            idx = idx[np.argsort(c[:, np.argmax(np.ptp(c, axis=0))], kind="stable")]
            half = len(idx) // 2
            path[idx[half:]] |= 1 << (_PATH_BITS - 1 - d)
            split(idx[:half], d + 1)
            split(idx[half:], d + 1)

    split(np.arange(len(centroids)), 0)
    return path, depth


def separator_nodes(mesh):
    """``mesh.separator_nodes``, with each vertex's paths in one ``lexsort``."""
    root = mesh.cell_key >> _ROOT_SHIFT
    depth = mesh.base.root_depth[root]
    bits = (mesh.cell_key >> _LEVEL_BITS) & ((1 << MAX_LEVEL) - 1)
    path = mesh.base.root_path[root] | bits << (_PATH_BITS - MAX_LEVEL - depth)
    vertex, path = mesh.cells.reshape(-1), np.repeat(path, 3)
    path = path[np.lexsort((path, vertex))]
    last = np.cumsum(np.bincount(vertex, minlength=mesh.num_vertices)) - 1
    lo, mask = path[np.append(0, last[:-1] + 1)], path[last]
    mask ^= lo
    for shift in (1, 2, 4, 8, 16, 32):
        mask |= mask >> shift
    return lo & ~mask, mask


def from_mesh(mesh):
    """The reference mesh with the same leaves as a ``fracadapt.mesh.TriMesh``."""
    leaf_sets = [set() for _ in mesh.base.cells]
    for key in mesh.cell_key.tolist():
        level = key & _LEVEL_MASK
        bits = (key >> _LEVEL_BITS) & ((1 << MAX_LEVEL) - 1)
        path = tuple((bits >> (MAX_LEVEL - 1 - i)) & 1 for i in range(level))
        leaf_sets[key >> _ROOT_SHIFT].add(path)
    return TriMesh(mesh.base, tuple(frozenset(s) for s in leaf_sets))


def edge_arrays(mesh):
    """The edges of ``mesh`` apart from their numbering: the vertex pair of
    every local edge, ``edges[cell_edge]``, and the edges and their incident
    cells ``edge_cells`` by vertex pair, in lexicographic order."""
    order = np.lexsort(mesh.edges.T[::-1])
    return mesh.edges[mesh.cell_edge], mesh.edges[order], mesh.edge_cells[order]


def keys_of(ref):
    """Forest keys of the cells of a reference mesh, in its cell order."""
    out = []
    for r, p in zip(ref.cell_root.tolist(), ref.cell_path):
        bits = sum(b << (MAX_LEVEL - 1 - i) for i, b in enumerate(p))
        out.append(r << _ROOT_SHIFT | bits << _LEVEL_BITS | len(p))
    return np.array(out, dtype=np.int64)


class TriMesh:
    """Immutable conforming triangulation obtained by bisections of a fixed
    initial mesh.

    Attributes
    ----------
    vertices : (n, 2) float array
    cells : (m, 3) int array, counterclockwise, refinement edge ``(v0, v1)``
    cell_root : (m,) int array, index of the initial cell each cell descends from
    cell_path : list of tuples, bisection path from the root cell
    boundary_vertex : (n,) bool array
    """

    def __init__(self, base, leaf_sets):
        self.base = base
        self.leaf_sets = leaf_sets  # tuple of frozensets, one per root cell
        self._build()
        self._cache = {}

    # -- construction -------------------------------------------------------

    def _build(self):
        base = self.base
        coords = [(float(x), float(y)) for x, y in base.vertices]
        index = {c: i for i, c in enumerate(coords)}

        def vid(x, y):
            key = (x, y)
            i = index.get(key)
            if i is None:
                i = len(coords)
                coords.append(key)
                index[key] = i
            return i

        cells = []
        roots = []
        paths = []
        for r, (a, b, c) in enumerate(base.cells):
            leaves = self.leaf_sets[r]
            internal = set()
            for p in leaves:
                for i in range(len(p)):
                    internal.add(p[:i])
            stack = [((), int(a), int(b), int(c))]
            while stack:
                path, va, vb, vc = stack.pop()
                if path in leaves:
                    cells.append((va, vb, vc))
                    roots.append(r)
                    paths.append(path)
                elif path in internal:
                    xa, ya = coords[va]
                    xb, yb = coords[vb]
                    vm = vid((xa + xb) / 2.0, (ya + yb) / 2.0)
                    stack.append((path + (1,), vb, vc, vm))
                    stack.append((path + (0,), vc, va, vm))
                else:
                    raise MeshStructureError(
                        f"leaf set of root {r} does not cover the root cell"
                    )
        self.vertices = np.array(coords, dtype=float)
        self.cells = np.array(cells, dtype=np.int64)
        self.cell_root = np.array(roots, dtype=np.int64)
        self.cell_path = paths
        self._compute_edges()

    def _compute_edges(self):
        c = self.cells
        pairs = np.concatenate(
            [c[:, [0, 1]], c[:, [1, 2]], c[:, [2, 0]]], axis=0
        )
        pairs_sorted = np.sort(pairs, axis=1)
        edges, inv, counts = np.unique(
            pairs_sorted, axis=0, return_inverse=True, return_counts=True
        )
        self.edges = edges
        inv = inv.reshape(-1)
        # cell_edge[k, j] = global edge id of local edge j of cell k,
        # local edges ordered (v0,v1), (v1,v2), (v2,v0)
        self.cell_edge = inv.reshape(3, len(c)).T
        bmask = np.zeros(len(self.vertices), dtype=bool)
        bnd = edges[counts == 1]
        bmask[bnd.ravel()] = True
        self.boundary_vertex = bmask
        # up-to-two incident cells per edge (second is -1 on the boundary)
        e2c = np.full((len(edges), 2), -1, dtype=np.int64)
        order = np.argsort(inv, kind="stable")
        cell_of = np.tile(np.arange(len(c)), 3)[order]
        first_idx = np.searchsorted(inv[order], np.arange(len(edges)))
        e2c[:, 0] = cell_of[first_idx]
        shared = counts == 2
        e2c[shared, 1] = cell_of[first_idx[shared] + 1]
        self.edge_cells = e2c

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

    def cell_generation(self, k):
        return len(self.cell_path[k])

    def cell_areas(self):
        x = self.vertices[self.cells]
        d1 = x[:, 1] - x[:, 0]
        d2 = x[:, 2] - x[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def same_mesh(self, other):
        return self is other or (self.base is other.base and self.leaf_sets == other.leaf_sets)

    def locate(self, points, tol=1e-12):
        """Containing cell index and barycentric coordinates for each point.

        Points must lie inside the domain (within ``tol``).  Location walks
        the bisection forest, so it is exact with respect to the mesh
        hierarchy.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        base = self.base
        leaf_index = {
            (int(r), p): k
            for k, (r, p) in enumerate(zip(self.cell_root, self.cell_path))
        }
        out_cell = np.empty(len(points), dtype=np.int64)
        out_bary = np.empty((len(points), 3), dtype=float)
        bv = base.vertices
        for i, pt in enumerate(points):
            root = None
            for r, (a, b, c) in enumerate(base.cells):
                lam = _barycentric(bv[a], bv[b], bv[c], pt)
                if lam.min() >= -tol:
                    root = r
                    tri = (bv[a].copy(), bv[b].copy(), bv[c].copy())
                    break
            if root is None:
                raise ValueError(f"point {pt} outside the domain")
            path = ()
            A, B, C = tri
            leaves = self.leaf_sets[root]
            while path not in leaves:
                M = 0.5 * (A + B)
                lam0 = _barycentric(C, A, M, pt)
                if lam0.min() >= -tol:
                    path = path + (0,)
                    A, B, C = C, A, M
                else:
                    path = path + (1,)
                    A, B, C = B, C, M
            k = leaf_index[(root, path)]
            va, vb, vc = self.cells[k]
            out_cell[i] = k
            out_bary[i] = _barycentric(
                self.vertices[va], self.vertices[vb], self.vertices[vc], pt
            )
        return out_cell, out_bary

def _barycentric(A, B, C, p):
    T = np.array([[B[0] - A[0], C[0] - A[0]], [B[1] - A[1], C[1] - A[1]]])
    rhs = np.array([p[0] - A[0], p[1] - A[1]])
    lam12 = np.linalg.solve(T, rhs)
    return np.array([1.0 - lam12[0] - lam12[1], lam12[0], lam12[1]])


@dataclass
class _WorkCell:
    root: int
    path: tuple
    verts: tuple  # (v0, v1, v2)
    alive: bool = True


def refine(mesh, marked):
    """Bisect every marked cell at least once and close for conformity.

    Returns a new mesh; the input is unchanged.  Unmarked cells are bisected
    only as needed to remove hanging nodes (standard newest-vertex closure).
    """
    marked = sorted(set(int(k) for k in marked))
    if not marked:
        return mesh
    if any(k < 0 or k >= mesh.num_cells for k in marked):
        raise ValueError("marked set contains invalid cell ids")

    coords = [tuple(p) for p in mesh.vertices]
    index = {c: i for i, c in enumerate(coords)}
    work = [
        _WorkCell(int(r), p, (int(a), int(b), int(c)))
        for (r, p, (a, b, c)) in zip(mesh.cell_root, mesh.cell_path, mesh.cells)
    ]
    edge2cells = {}

    def ekey(i, j):
        return (i, j) if i < j else (j, i)

    def add_edges(cid):
        a, b, c = work[cid].verts
        for e in (ekey(a, b), ekey(b, c), ekey(c, a)):
            edge2cells.setdefault(e, []).append(cid)

    def drop_edges(cid):
        a, b, c = work[cid].verts
        for e in (ekey(a, b), ekey(b, c), ekey(c, a)):
            lst = edge2cells[e]
            lst.remove(cid)
            if not lst:
                del edge2cells[e]

    for cid in range(len(work)):
        add_edges(cid)

    def neighbor_across(cid, e):
        for other in edge2cells.get(e, ()):
            if other != cid and work[other].alive:
                return other
        return None

    def bisect(cid):
        cell = work[cid]
        a, b, c = cell.verts
        xa, ya = coords[a]
        xb, yb = coords[b]
        mkey = ((xa + xb) / 2.0, (ya + yb) / 2.0)
        m = index.get(mkey)
        if m is None:
            m = len(coords)
            coords.append(mkey)
            index[mkey] = m
        drop_edges(cid)
        cell.alive = False
        for child_verts, bit in (((c, a, m), 0), ((b, c, m), 1)):
            child = _WorkCell(cell.root, cell.path + (bit,), child_verts)
            work.append(child)
            add_edges(len(work) - 1)

    def ensure_bisected(c0):
        stack = [c0]
        while stack:
            cid = stack[-1]
            if not work[cid].alive:
                stack.pop()
                continue
            a, b, _ = work[cid].verts
            e = ekey(a, b)
            nb = neighbor_across(cid, e)
            if nb is None:
                bisect(cid)
                stack.pop()
            else:
                na, nbv, _ = work[nb].verts
                if ekey(na, nbv) == e:
                    bisect(cid)
                    bisect(nb)
                    stack.pop()
                else:
                    stack.append(nb)

    for cid in marked:
        if work[cid].alive:
            ensure_bisected(cid)

    leaf_sets = [set() for _ in mesh.base.cells]
    for cell in work:
        if cell.alive:
            leaf_sets[cell.root].add(cell.path)
    return TriMesh(mesh.base, tuple(frozenset(s) for s in leaf_sets))


def uniform_refine(mesh):
    """Split every cell into its four generation-(g+2) descendants."""
    leaf_sets = tuple(
        frozenset(p + bits for p in leaves for bits in ((0, 0), (0, 1), (1, 0), (1, 1)))
        for leaves in mesh.leaf_sets
    )
    return TriMesh(mesh.base, leaf_sets)


def union_mesh(meshes):
    """Coarsest common refinement (overlay) of meshes sharing one initial mesh.

    Computed by merging the bisection forests: per root cell, keep the deepest
    fringe of the combined leaf sets.  The result is conforming because the
    overlay of conforming newest-vertex refinements is conforming.
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
    merged = []
    for r in range(len(base.cells)):
        all_paths = set()
        for m in meshes:
            all_paths |= m.leaf_sets[r]
        prefixes = set()
        for p in all_paths:
            for i in range(len(p)):
                prefixes.add(p[:i])
        merged.append(frozenset(p for p in all_paths if p not in prefixes))
    return TriMesh(base, tuple(merged))


def is_refinement_of(fine, coarse):
    """True if every cell of ``coarse`` is a union of cells of ``fine``."""
    if fine.base is not coarse.base:
        return False
    for lf, lc in zip(fine.leaf_sets, coarse.leaf_sets):
        for p in lf:
            if not any(p[: len(q)] == q for q in lc if len(q) <= len(p)):
                return False
    return True


def ancestor_cell_map(fine, coarse):
    """For each cell of ``fine``, the index of the ``coarse`` cell containing it.

    Raises MeshStructureError if ``coarse`` is not a coarsening of ``fine``.
    The map is cached on ``fine``.
    """
    key = ("ancestors", id(coarse))
    cached = fine._cache.get(key)
    if cached is not None and cached[0] is coarse:
        return cached[1]
    if fine.base is not coarse.base:
        raise MeshStructureError("meshes do not share an initial mesh")
    leaf_index = {
        (int(r), p): k
        for k, (r, p) in enumerate(zip(coarse.cell_root, coarse.cell_path))
    }
    out = np.empty(fine.num_cells, dtype=np.int64)
    for k, (r, p) in enumerate(zip(fine.cell_root, fine.cell_path)):
        r = int(r)
        hit = None
        for cut in range(len(p), -1, -1):
            hit = leaf_index.get((r, p[:cut]))
            if hit is not None:
                break
        if hit is None:
            raise MeshStructureError("target mesh is not a refinement of the source")
        out[k] = hit
    out.setflags(write=False)
    fine._cache[key] = (coarse, out)
    return out


def initial_grid(domain, n):
    """Vertices and cells of the uniform grid of n x n squares on the domain,
    built square by square; vertices are numbered as first touched."""
    lo, hi = (0.0, 1.0) if domain.kind == "unit-square" else (-1.0, 1.0)
    half = n // 2 if domain.kind == "lshape" else 0
    h = (hi - lo) / n
    vid = {}
    verts = []

    def v(i, j):
        key = (i, j)
        k = vid.get(key)
        if k is None:
            k = len(verts)
            verts.append((lo + i * h, lo + j * h))
            vid[key] = k
        return k

    cells = []
    for j in range(n):
        for i in range(n):
            if i < half and j < half:
                continue
            a = v(i, j)
            b = v(i + 1, j)
            c = v(i + 1, j + 1)
            d = v(i, j + 1)
            # diagonal a-c is the hypotenuse of both triangles
            cells.append((c, a, b))
            cells.append((a, c, d))
    return np.array(verts), np.array(cells)
