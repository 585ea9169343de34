"""Hierarchical (local Neumann) error indicators and the global estimates.

Each cell K carries a 3-dimensional enrichment space: the hats of the three
edge midpoints on the 4-subtriangle partition of K made by two newest-vertex
bisections.  The local problem on K,

    b (grad e, grad v)_K + c (e, v)_K
        = (r, v)_K - 1/2 sum_F (J_F, v)_F      for all v in the enrichment,

with residual r = f - c w (the Laplacian of a P1 function vanishes cellwise)
and edge flux jumps J_F, is a 3x3 SPD system; the indicator is ||e||_{L2(K)}.

With B = [v1 - v0, v2 - v0], the enrichment mass matrix is M_K = |K| M_ref,
and the stiffness matrix S_K = q00 T00 + q01 (T01 + T10) + q11 T11 depends
only on the shape q = adj(B^T B) / |det B| (the T are reference-cell tensors).
The eigenbasis S V = M_ref V diag(lam), V^T M_ref V = I, is computed once per
forest node (a per-node column, see ``mesh.TriMesh.column``) and turns the
solve into a division, y = V^T r_K / (b lam + c |K|), and ||e_K||^2 =
|K| |y|^2.  The eigenvalues are positive, so the denominator is positive.

Both estimates stack up to ``_BLOCK`` problems of one distinct mesh
(``fem._mesh_groups``) per kernel call.  Kernel arrays keep the cell index
innermost, (L, 3, m), so broadcasts run over cells, not over the L problems;
each cell sums its terms in a fixed order, so stacking changes no bit.
"""

import numpy as np

from . import mesh as meshmod
from .fem import TRI_QP, TRI_QW, FeFunction, _grads, _mesh_groups
from .fem import transfer_p1  # noqa: F401  (the benchmark tracer wraps this name)

__all__ = [
    "local_indicators",
    "global_triangle_estimate",
    "combined_equal_mesh_estimate",
    "global_union_estimate",
]

# local node numbering: 0,1,2 = cell corners; 3,4,5 = midpoints m01, m12, m20
_NODE_BARY = np.vstack([np.eye(3), (np.eye(3) + np.roll(np.eye(3), 1, axis=1)) / 2.0])
# the four subtriangles of the double bisection, as local node triples
_SUBTRI = np.array([[3, 2, 5], [0, 3, 5], [3, 1, 4], [2, 3, 4]])
# nodal values of the three midpoint hats on the 6 local nodes
_VFULL = np.eye(6)[3:]

# cell-barycentric coordinates of the quadrature points of each subtriangle
_CB = np.einsum("qk,tkj->tqj", TRI_QP, _NODE_BARY[_SUBTRI]).reshape(24, 3)
# quadrature weight times midpoint-hat value, per (subtriangle, point)
_WPHI = np.einsum("q,itk,qk->tqi", TRI_QW, _VFULL[:, _SUBTRI], TRI_QP).reshape(24, 3)
# the modal tables use the basis (phi_0, phi_1 + phi_2, phi_1 - phi_2)
_PT = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, -1.0]])

# problems stacked per kernel call; larger blocks raise the peak memory of a
# run for no measurable speed
_BLOCK = 8


def _reference_tables():
    """On the reference cell (0,0), (1,0), (0,1): the stiffness tensors
    (T00, T01 + T10, T11), the mass matrix M_ref per unit area, and G with
    (phi_i, P1 hat j)_K = |K| / 4 * G[i, j].  All sums are exact before the
    last division, so entries equal in exact arithmetic are equal bitwise."""
    V = _VFULL[:, _SUBTRI].transpose(1, 0, 2)  # (subtriangle, basis, corner)
    corners = _NODE_BARY[_SUBTRI]  # barycentric; (x, y) = (lam1, lam2) here
    P = np.concatenate([np.ones((4, 3, 1)), corners[..., 1:]], axis=2)
    g = V @ np.swapaxes(np.linalg.inv(P)[:, 1:], 1, 2)  # basis gradients
    T = np.einsum("tia,tjb->abij", g, g) / 8.0  # subtriangle area 1/8
    mass = np.ones((3, 3)) + np.eye(3)  # 12 x the unit-area P1 mass matrix
    M = np.einsum("tia,ab,tjb->ij", V, mass, V) / 48.0
    G = np.einsum("tia,ab,tbj->ij", V, mass, corners) / 12.0
    return np.stack([T[0, 0], T[0, 1] + T[1, 0], T[1, 1]]), M, G


_T, _MREF, _G = _reference_tables()
_LINV = np.linalg.inv(np.linalg.cholesky(_PT @ _MREF @ _PT.T))


def _shape(x):
    """Scale-free shape (q00, q01, q11) of adj(B^T B) / |det B| of cells with
    corners x (r, 3, 2)."""
    e1, e2 = x[:, 1] - x[:, 0], x[:, 2] - x[:, 0]
    det = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    q = np.stack([(e2 * e2).sum(axis=1), -(e1 * e2).sum(axis=1), (e1 * e1).sum(axis=1)])
    return (q / det).T


def _sides(x):
    """Outward unit normal and length (r, 3, 3) of each local edge j, from
    corner j to corner j + 1 (mod 3), of counterclockwise cells with corners
    x (r, 3, 2)."""
    d = np.roll(x, -1, axis=1) - x
    length = np.hypot(d[..., 0], d[..., 1])
    return np.stack([d[..., 1] / length, -d[..., 0] / length, length], axis=-1)


def _modal_of(x):
    """Modal basis W (r, 3, 3) and eigenvalues lam (r, 3) of cells with
    corners x (r, 3, 2), side by side as (r, 3, 4)."""
    # eigenbasis in the _PT basis: a shape symmetric under the mirror swapping
    # phi_1 and phi_2 keeps exact zeros there, so mirror-image cells get equal
    # indicators bit for bit and marking breaks their ties by cell id
    S = _PT @ np.einsum("ka,aij->kij", _shape(x), _T) @ _PT.T
    lam, U = np.linalg.eigh(_LINV @ S @ _LINV.T)
    return np.concatenate([np.swapaxes(U, 1, 2) @ _LINV, lam[..., None]], axis=2)


def _geometry(mesh):
    """Areas, fixed edge normals and edge lengths, cached."""
    geo = mesh._cache.get("geometry")
    if geo is not None:
        return geo
    # fixed edge normals: outward from edge_cells[:, 0], as its side of the edge
    c0, e = mesh.edge_cells[:, 0], np.arange(len(mesh.edges))
    side = (mesh.cell_edge[c0, 1] == e) + 2 * (mesh.cell_edge[c0, 2] == e)
    normal, length = np.split(mesh.column("sides", _sides)[c0, side], [2], axis=1)
    geo = dict(area=mesh.cell_areas(), normal=normal, length=length[:, 0])
    mesh._cache["geometry"] = geo
    return geo


def _f_moments(mesh, f):
    """(f, phi_i)_K / (|K| / 4) per cell, shape (3, m), cached per field."""
    key = ("enr_f", f)
    F = mesh._cache.get(key)
    if F is None:
        qpts = _CB @ mesh.vertices[mesh.cells]  # (m, 24, 2)
        F = np.ascontiguousarray((f(qpts[..., 0], qpts[..., 1]) @ _WPHI).T)
        mesh._cache[key] = F
    return F


def _jump_sides(mesh, labels=None):
    """(mask, side-1 cells, side-2 cells) of the interior edges; with per-cell
    ``labels`` the sides are labels, and edges inside one label are left out
    (on the union mesh, edges inside a source cell have no jump)."""
    c1, c2 = mesh.edge_cells.T
    sel = c2 >= 0
    if labels is not None:
        c1, c2 = labels[c1], labels[c2]  # boundary edges stay out through sel
        sel &= c1 != c2
    return sel, c1[sel], c2[sel]


def _cell_matvec(A, v):
    """A (p, 3, m) or (p, 3, 1) times v (L, 3, m) cell by cell, shape
    (L, p, m), summed term by term in the order of ``fem._matvec``."""
    out = A[:, 0] * v[:, None, 0] + A[:, 1] * v[:, None, 1]
    out += A[:, 2] * v[:, None, 2]
    return out


def _corner_values(mesh, nodal):
    """Corner values (L, 3, m) and cell gradients (L, 2, m) of nodal values
    (n, L) on ``mesh``."""
    vals = np.take(nodal.T, mesh.cells.T, axis=1)  # np.take keeps cells innermost
    return vals, _cell_matvec(np.ascontiguousarray(_grads(mesh).transpose(2, 1, 0)), vals)


def _edge_jumps(mesh, grads, sides=None):
    """Flux-jump scalar (gradient jump dotted with the fixed normal) per edge,
    shape (L, e), for gradients (L, 2, k) per side of ``sides`` (default:
    ``_jump_sides(mesh)``); edges left out get an exact zero."""
    sel, s1, s2 = _jump_sides(mesh) if sides is None else sides
    normal = _geometry(mesh)["normal"][sel].T
    dg = np.take(grads, s1, axis=2) - np.take(grads, s2, axis=2)
    j = np.zeros((len(grads), len(mesh.edges)))
    j[:, sel] = dg[:, 0] * normal[0] + dg[:, 1] * normal[1]
    return j


def _rhs(mesh, corner_vals, jump, b, c, f):
    """Local right-hand sides (L, 3, m): (r, phi_i)_K - b |F_i| J_i / 4 for
    corner values (L, 3, m), jumps (L, e) and b, c scalars or (L, 1, 1)."""
    geo = _geometry(mesh)
    jl = np.take(jump * geo["length"], mesh.cell_edge.T, axis=1)
    resid = _f_moments(mesh, f) - c * _cell_matvec(_G[..., None], corner_vals)
    return geo["area"] / 4.0 * resid - 0.25 * b * jl


def _modal_basis(mesh):
    """Modal basis W (3, 3, m) and eigenvalues (3, m) of each cell."""
    modal = np.ascontiguousarray(mesh.column("modal", _modal_of).transpose(1, 2, 0))
    return modal[:, :3], modal[:, 3]


def _modal_coeffs(target, basis, corner_vals, jump, b, c, f):
    """Modal coefficients y (L, 3, m) of the local problems on ``target`` for
    corner values (L, 3, m) and flux jumps (L, e) of L stacked P1 functions
    on ``target``; b and c give one value per column, and ``basis`` is
    ``_modal_basis`` of ``target``."""
    W, lam = basis
    b, c = np.reshape(b, (-1, 1, 1)), np.reshape(c, (-1, 1, 1))
    r = _rhs(target, corner_vals, jump, b, c, f)
    r = np.stack([r[:, 0], r[:, 1] + r[:, 2], r[:, 1] - r[:, 2]], axis=1)  # _PT @ r
    return _cell_matvec(W, r) / (lam * b + _geometry(target)["area"] * c)


def local_indicators(mesh, w, b, c, f):
    """Per-cell indicators ||e_K||_{L2(K)} of the problems whose solutions
    ``w`` live on ``mesh``: shape (m,) for one solution, (m, L) for L stacked
    ones with one b and one c per column."""
    geo = _geometry(mesh)
    vals, grads = _corner_values(mesh, w.nodal_values.reshape(mesh.num_vertices, -1))
    y = _modal_coeffs(mesh, _modal_basis(mesh), vals, _edge_jumps(mesh, grads), b, c, f)
    eta = np.sqrt(geo["area"] * np.sum(y**2, axis=1)).T
    return eta if w.nodal_values.ndim > 1 else eta[:, 0]


def global_triangle_estimate(scheme, states):
    """Triangle-inequality estimate: C * sum_l a_l * sqrt(sum_K eta_{l,K}^2)."""
    total = 0.0
    for st in states:
        if st.dirty:
            raise ValueError(f"state {st.index} has stale indicators")
        total += scheme.a[st.index] * float(np.sqrt(np.sum(st.indicators**2)))
    return scheme.C * total


def combined_equal_mesh_estimate(scheme, states, f):
    """Single-mesh estimate: combine per-cell local solutions before the norm.

    All states must live on the same mesh.  Returns
    sqrt(sum_K ||C sum_l a_l e_{l,K}||^2).  Every local system
    (b S_K + c M_K) e = r_K is solved densely, without the modal basis, so
    this is an independent reference for the union estimate.
    """
    mesh = states[0].mesh
    for st in states:
        if not st.mesh.same_mesh(mesh):
            raise meshmod.MeshStructureError("states are not on a shared mesh")
    S = np.einsum("ma,aij->mij", mesh.column("shape", _shape), _T)
    M = _geometry(mesh)["area"][:, None, None] * _MREF
    combined = np.zeros((mesh.num_cells, 3))
    for st in states:
        b, c = scheme.b[st.index], scheme.c[st.index]
        vals, grads = _corner_values(mesh, st.solution.nodal_values[:, None])
        rhs = _rhs(mesh, vals, _edge_jumps(mesh, grads), b, c, f)[0].T
        combined += scheme.a[st.index] * np.linalg.solve(b * S + c * M, rhs[..., None])[..., 0]
    combined *= scheme.C
    return float(np.sqrt(np.sum(np.einsum("mi,mij,mj->m", combined, M, combined))))


def global_union_estimate(scheme, states, union, f):
    """Union-mesh estimate and recombined solution in one pass.

    Returns ``(eta, solution)``: eta = sqrt(sum_K ||C sum_l a_l e_{l,K}||^2)
    from the local problems on every union cell for every l, and the
    ``FeFunction`` C sum_l a_l w_l on ``union``.  States whose meshes share
    leaves form one group and are stacked in blocks of ``_BLOCK``.  A source
    mesh other than the union is a coarsening of it: once per source, a table
    gives each union cell the corners of its source cell and its own corners'
    barycentric coordinates there, for exact interpolation, and jumps are
    taken from source-cell gradients on the union edges between two source
    cells only.
    """
    geo = _geometry(union)
    basis = _modal_basis(union)  # hoisted out of the blocks
    combined = np.zeros((3, union.num_cells))
    corner_sum = np.zeros((1, 3, union.num_cells))
    for src, group in _mesh_groups(states):
        if src.same_mesh(union):
            corners, lam, sides = union.cells, None, _jump_sides(union)
        else:
            parents = meshmod.ancestor_cell_map(union, src)
            corners = src.cells[parents]
            lam = meshmod.nested_barycentric(union.cell_key, src.cell_key[parents])
            lam = np.ascontiguousarray(lam.transpose(1, 2, 0))  # cells innermost
            sides = _jump_sides(union, parents)
        partial = np.zeros(src.num_vertices)
        for start in range(0, len(group), _BLOCK):
            block = group[start : start + _BLOCK]
            l = np.array([st.index for st in block])
            nodal = np.stack([st.solution.nodal_values for st in block], axis=1)
            vals, grads = _corner_values(src, nodal)
            if lam is not None:
                vals = _cell_matvec(lam, np.take(nodal.T, corners.T, axis=1))
            jump = _edge_jumps(union, grads, sides)
            y = _modal_coeffs(union, basis, vals, jump, scheme.b[l], scheme.c[l], f)
            combined += np.tensordot(scheme.a[l], y, 1)
            partial += nodal @ scheme.a[l]
        partial = np.take(partial[None], corners.T, axis=1)
        corner_sum += partial if lam is None else _cell_matvec(lam, partial)
    solution = np.empty(union.num_vertices)
    solution[union.cells] = scheme.C * corner_sum[0].T
    eta = scheme.C * float(np.sqrt(np.sum(geo["area"] * np.sum(combined**2, axis=0))))
    return eta, FeFunction(union, solution)
