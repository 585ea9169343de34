"""Hierarchical (local Neumann) error indicators and the global estimates.

Each cell K carries a 3-dimensional enrichment space: the hat functions of
the three edge midpoints on the 4-subtriangle partition of K obtained by two
newest-vertex bisections.  The local problem on K,

    b (grad e, grad v)_K + c (e, v)_K
        = (r, v)_K - 1/2 sum_F (J_F, v)_F      for all v in the enrichment,

with interior residual r = f - c w (the Laplacian of a P1 function vanishes
cellwise) and edge flux jumps J_F, is a 3x3 SPD system solved in closed form
for all cells at once.  The per-cell indicator is the L2 norm of e.
"""

import numpy as np

from . import mesh as meshmod
from .fem import TRI_QP, TRI_QW, FeFunction, _areas, _grads, transfer_p1

__all__ = [
    "local_indicators",
    "global_triangle_estimate",
    "combined_equal_mesh_estimate",
    "global_union_estimate",
    "union_jump_edge_count",
]

# local node numbering: 0,1,2 = cell corners; 3,4,5 = midpoints m01, m12, m20
_NODE_BARY = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.5, 0.5, 0.0],
        [0.0, 0.5, 0.5],
        [0.5, 0.0, 0.5],
    ]
)
# the four subtriangles of the double bisection, as local node triples
_SUBTRI = np.array([[3, 2, 5], [0, 3, 5], [3, 1, 4], [2, 3, 4]])
# nodal values of the three midpoint hats on the 6 local nodes
_VFULL = np.zeros((3, 6))
_VFULL[0, 3] = _VFULL[1, 4] = _VFULL[2, 5] = 1.0

# cell-barycentric coordinates of the quadrature points of each subtriangle
_CB = np.einsum("qk,tkj->tqj", TRI_QP, _NODE_BARY[_SUBTRI])  # (4, 6, 3)
# midpoint-hat values at those points
_PHI = np.einsum("itk,qk->itq", _VFULL[:, _SUBTRI], TRI_QP)


def _enrichment_geometry(mesh):
    """Per-cell 3x3 enrichment stiffness/mass and edge normals, cached."""
    cached = mesh._cache.get("enr")
    if cached is not None:
        return cached
    X = mesh.vertices[mesh.cells]  # (m, 3, 2)
    area = _areas(mesh)
    sub_area = area / 4.0
    S = np.zeros((len(X), 3, 3))
    M = np.zeros((len(X), 3, 3))
    mass_ref = (np.ones((3, 3)) + np.eye(3)) / 12.0
    for t in range(4):
        Y = np.einsum("kj,mjd->mkd", _NODE_BARY[_SUBTRI[t]], X)  # subtri corners
        area2 = 2.0 * sub_area
        g = np.empty((len(X), 3, 2))
        for k in range(3):
            p1 = Y[:, (k + 1) % 3]
            p2 = Y[:, (k + 2) % 3]
            g[:, k, 0] = (p1[:, 1] - p2[:, 1]) / area2
            g[:, k, 1] = (p2[:, 0] - p1[:, 0]) / area2
        Vt = _VFULL[:, _SUBTRI[t]]  # (3, 3) basis values at subtri corners
        Genr = np.einsum("ik,mkd->mid", Vt, g)
        S += sub_area[:, None, None] * np.einsum("mid,mjd->mij", Genr, Genr)
        M += sub_area[:, None, None] * (Vt @ mass_ref @ Vt.T)[None]
    # quadrature points of the 4 subtriangles in physical coordinates
    qpts = np.einsum("tqj,mjd->mtqd", _CB, X)
    # fixed edge normals, outward with respect to edge_cells[:, 0]
    ev = mesh.vertices[mesh.edges]
    tang = ev[:, 1] - ev[:, 0]
    length = np.hypot(tang[:, 0], tang[:, 1])
    normal = np.stack([tang[:, 1], -tang[:, 0]], axis=1) / length[:, None]
    c0 = mesh.edge_cells[:, 0]
    opp = mesh.cells[c0].sum(axis=1) - mesh.edges.sum(axis=1)
    flip = np.einsum("ed,ed->e", normal, mesh.vertices[opp] - ev[:, 0]) > 0
    normal[flip] *= -1.0
    cached = {
        "S": S,
        "M": M,
        "qpts": qpts,
        "sub_area": sub_area,
        "edge_normal": normal,
        "edge_length": length,
    }
    mesh._cache["enr"] = cached
    return cached


def _f_at_enrichment_quad(mesh, f):
    key = ("enr_fq", f)
    fq = mesh._cache.get(key)
    if fq is None:
        qpts = _enrichment_geometry(mesh)["qpts"]
        fq = f(qpts[..., 0], qpts[..., 1])  # (m, 4, 6)
        mesh._cache[key] = fq
    return fq


def _edge_jumps(mesh, cell_grads, skip_same=None):
    """Flux-jump scalar (gradient jump dotted with the fixed normal) per edge.

    ``skip_same`` is an optional per-cell label array; edges whose two cells
    carry the same label get an exact zero (used on the union mesh, where
    edges interior to a source cell have no jump by construction).
    """
    geo = _enrichment_geometry(mesh)
    c1 = mesh.edge_cells[:, 0]
    c2 = mesh.edge_cells[:, 1]
    interior = c2 >= 0
    j = np.zeros(len(mesh.edges))
    sel = interior.copy()
    if skip_same is not None:
        sel &= np.where(interior, skip_same[c1] != skip_same[np.maximum(c2, 0)], False)
    dg = cell_grads[c1[sel]] - cell_grads[np.maximum(c2, 0)[sel]]
    j[sel] = np.einsum("ed,ed->e", dg, geo["edge_normal"][sel])
    return j


def _solve_local(mesh, corner_vals, edge_jump, b, c, f):
    """Solve every cell's 3x3 local Neumann problem; returns coefficients (m, 3).

    ``corner_vals``: P1 solution values at the three cell corners.
    ``edge_jump``: per-edge gradient-jump scalar (without the b factor).

    The system is divided by the smallest power of two above max(b, c), as
    if b, c and f were: the solution is unchanged bit for bit, and the 3x3
    determinant cannot overflow for extreme b.
    """
    geo = _enrichment_geometry(mesh)
    fq = _f_at_enrichment_quad(mesh, f)
    wq = np.einsum("tqj,mj->mtq", _CB, corner_vals)
    resid = fq - c * wq
    rhs = geo["sub_area"][:, None] * np.einsum("mtq,q,itq->mi", resid, TRI_QW, _PHI)
    # edge term: -1/2 * (J, phi_i)_F = -b * jump * |F| / 4 on phi_i's own edge
    jl = edge_jump * geo["edge_length"]
    rhs -= 0.25 * b * jl[mesh.cell_edge]
    scale = np.ldexp(1.0, np.frexp(max(b, c))[1])
    A = (b / scale) * geo["S"] + (c / scale) * geo["M"]
    return _cramer_solve(A, rhs / scale)


def _cramer_solve(A, rhs):
    a, bb, cc = A[:, 0, 0], A[:, 0, 1], A[:, 0, 2]
    d, e, g = A[:, 1, 0], A[:, 1, 1], A[:, 1, 2]
    h, i, j = A[:, 2, 0], A[:, 2, 1], A[:, 2, 2]
    det = a * (e * j - g * i) - bb * (d * j - g * h) + cc * (d * i - e * h)
    inv = np.empty_like(A)
    inv[:, 0, 0] = e * j - g * i
    inv[:, 0, 1] = cc * i - bb * j
    inv[:, 0, 2] = bb * g - cc * e
    inv[:, 1, 0] = g * h - d * j
    inv[:, 1, 1] = a * j - cc * h
    inv[:, 1, 2] = cc * d - a * g
    inv[:, 2, 0] = d * i - e * h
    inv[:, 2, 1] = bb * h - a * i
    inv[:, 2, 2] = a * e - bb * d
    return np.einsum("mij,mj->mi", inv, rhs) / det[:, None]


def _enrichment_norms(mesh, coeffs):
    geo = _enrichment_geometry(mesh)
    return np.einsum("mi,mij,mj->m", coeffs, geo["M"], coeffs)


def _local_coeffs(target, w, b, c, f):
    """Enrichment coefficients (m, 3) on ``target`` for a P1 ``w`` that lives
    on ``target`` or on a coarsening of it.

    On a proper refinement, edges of ``target`` interior to one cell of
    ``w.mesh`` carry no jump by construction and are skipped as exact zeros.
    """
    if w.mesh.same_mesh(target):
        corner_vals = w.nodal_values[target.cells]
        grads = np.einsum("mk,mkd->md", corner_vals, _grads(target))
        jump = _edge_jumps(target, grads)
    else:
        parents = meshmod.ancestor_cell_map(target, w.mesh)
        jump = _edge_jumps(target, w.cell_gradients()[parents], skip_same=parents)
        corner_vals = transfer_p1(w, target).nodal_values[target.cells]
    return _solve_local(target, corner_vals, jump, b, c, f)


def local_indicators(mesh, w, b, c, f):
    """Per-cell indicator ||e_K||_{L2(K)} for one parametric problem."""
    coeffs = _local_coeffs(mesh, w, b, c, f)
    return np.sqrt(np.maximum(_enrichment_norms(mesh, coeffs), 0.0))


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
    sqrt(sum_K ||C sum_l a_l e_{l,K}||^2).
    """
    mesh = states[0].mesh
    for st in states:
        if not st.mesh.same_mesh(mesh):
            raise meshmod.MeshStructureError("states are not on a shared mesh")
    combined = np.zeros((mesh.num_cells, 3))
    for st in states:
        w = st.solution
        corner_vals = w.nodal_values[mesh.cells]
        grads = np.einsum("mk,mkd->md", corner_vals, _grads(mesh))
        jump = _edge_jumps(mesh, grads)
        coeffs = _solve_local(
            mesh, corner_vals, jump, scheme.b[st.index], scheme.c[st.index], f
        )
        combined += scheme.a[st.index] * coeffs
    combined *= scheme.C
    return float(np.sqrt(np.sum(_enrichment_norms(mesh, combined))))


def global_union_estimate(scheme, states, union, f):
    """Union-mesh estimate: local problems on every union cell for every l,
    sqrt(sum_K ||C sum_l a_l e_{l,K}||^2).

    Each parametric solution is transferred (exactly) onto the union mesh;
    when all states share one mesh, the union is that mesh.
    """
    combined = np.zeros((union.num_cells, 3))
    for st in states:
        l = st.index
        combined += scheme.a[l] * _local_coeffs(
            union, st.solution, scheme.b[l], scheme.c[l], f
        )
    combined *= scheme.C
    return float(np.sqrt(np.sum(_enrichment_norms(union, combined))))


def union_jump_edge_count(union, src):
    """Number of union edges that can carry a nonzero jump for a problem on
    ``src`` (interior union edges separating different source cells)."""
    parents = meshmod.ancestor_cell_map(union, src)
    c1 = union.edge_cells[:, 0]
    c2 = union.edge_cells[:, 1]
    interior = c2 >= 0
    return int(np.count_nonzero(interior & (parents[c1] != parents[np.maximum(c2, 0)])))
