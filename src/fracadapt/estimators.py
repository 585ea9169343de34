"""Hierarchical (local Neumann) error indicators and the global estimates.

Each cell K carries a 3-dimensional enrichment space: the hats of the three
edge midpoints on the 4-subtriangle partition of K made by two newest-vertex
bisections.  The local problem on K,

    b (grad e, grad v)_K + c (e, v)_K
        = (r, v)_K - b/2 sum_F (J_F, v)_F      for all v in the enrichment,

with residual r = f - c w and edge flux jumps J_F, is a 3x3 SPD system with
mass matrix |K| M_ref and a stiffness matrix S that depends only on the
cell's shape; the indicator is ||e||_{L2(K)}.  With S V = M_ref V diag(lam),
V^T M_ref V = I, what depends on the cell alone is composed once per forest
node, in one per-node column per field (``mesh.TriMesh.column``): W' = V^T,
lam, B = (|K| / 4) W' G with (phi_i, hat_j)_K = (|K| / 4) G[i, j], and
alpha = (|K| / 4) W' F with f-moments F summed over 24 points one by one.
For corner values v and jumps times lengths j per local edge, one kernel
serves every estimate, and lam > 0 keeps its denominator positive:

    y = (alpha - c B v - (b / 4) W' j) / (lam b + |K| c),   ||e_K||^2 = |K| |y|^2.

Both estimates run the kernel on blocks of up to ``_BLOCK`` problems of one
mesh, cells innermost, (L, 3, m); each cell sums its terms in a fixed order,
so stacking changes no bit.  The union estimate needs only sum_l a_l y_l, which
is linear in each w_l with d = lam b_l + |K| c_l as its only (l, K) factor;
per class of cells with bitwise equal (lam, |K|) and per mode, the weighted
sums Z^c = sum_l a_l c_l w_l / d and Z^b = sum_l a_l b_l w_l / d give

    sum_l a_l y_l = alpha sum_l a_l / d - B v(Z^c) - (1 / 4) W' j(Z^b).

A solution on a mesh coarser than the union is P1 on the union too, so the
union pass estimates it at the union's vertices, alone or summed into Z,
where one sweep of hierarchical surpluses carries every coarser group's
columns (``global_union_estimate``); the jumps on union edges inside a
source cell are then zero only up to rounding.
"""

import math

import numpy as np

from . import mesh as meshmod
from .fem import TRI_QP, TRI_QW, FeFunction, _grads, _matvec, _mesh_groups, _Prolongation
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
# the eigensolve runs in the basis (phi_0, phi_1 + phi_2, phi_1 - phi_2)
_PT = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, -1.0]])

# problems stacked per kernel call; larger blocks raise the peak memory of a
# run for no measurable speed
_BLOCK = 8


def _reference_tables():
    """On the reference cell (0,0), (1,0), (0,1): the stiffness tensors
    (T00, T01 + T10, T11), the mass matrix M_ref per unit area, and G.  All
    sums are exact before the last division, so entries equal in exact
    arithmetic are equal bitwise."""
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


def _ops_of(x, f):
    """W' (r, 3, 3), B (r, 3, 3), lam (r, 3) and alpha (r, 3) for the field
    ``f`` of cells with corners x (r, 3, 2), side by side as (r, 3, 8)."""
    # a shape symmetric under the mirror swapping phi_1 and phi_2 has exact zeros in the
    # _PT basis: columns 1 and 2 of W' = W _PT are equal or opposite, and added first
    S = _PT @ np.einsum("ka,aij->kij", _shape(x), _T) @ _PT.T
    lam, U = np.linalg.eigh(_LINV @ S @ _LINV.T)
    W = np.swapaxes(U, 1, 2) @ _LINV
    Wp = np.stack([W[..., 0], W[..., 1] + W[..., 2], W[..., 1] - W[..., 2]], axis=2)
    WG = Wp[..., 0, None] * _G[0] + (Wp[..., 1, None] * _G[1] + Wp[..., 2, None] * _G[2])
    fq = f(*np.moveaxis(_matvec(_CB, x), -1, 0))  # F_i = sum_q f(x_q) _WPHI[q, i], in order
    F = sum(fq[:, q, None] * _WPHI[q] for q in range(24))
    WF = Wp[..., 0] * F[:, None, 0] + (Wp[..., 1] * F[:, None, 1] + Wp[..., 2] * F[:, None, 2])
    area = meshmod._cell_areas(x)
    B, alpha = area[:, None, None] / 4.0 * WG, area[:, None] / 4.0 * WF
    return np.concatenate([Wp, B, lam[..., None], alpha[..., None]], axis=2)


def _columns(mesh, f):
    """Everything an estimate call reads of ``mesh``, formed once per call and
    not cached: W' (3, 3, m), B (3, 3, m), lam (3, m), alpha (3, m) for the
    field ``f``, the areas (m,) and the hat-function gradients (2, 3, m),
    cells innermost, then the edge normals (e, 2) and lengths (e,) of
    ``_geometry``."""
    ops = np.ascontiguousarray(mesh.column(("ops", f), lambda x: _ops_of(x, f)).transpose(1, 2, 0))
    grads = np.ascontiguousarray(_grads(mesh).transpose(2, 1, 0))
    return ops[:, :3], ops[:, 3:6], ops[:, 6], ops[:, 7], mesh.cell_areas(), grads, *_geometry(mesh)


def _geometry(mesh):
    """Fixed edge normals (e, 2) and edge lengths (e,), formed at each call;
    the areas are ``mesh.cell_areas()``."""
    # fixed edge normals: outward from edge_cells[:, 0], as its local edge j
    # from corner j to corner j + 1 (mod 3) of the counterclockwise cell
    c0, e = mesh.edge_cells[:, 0], np.arange(len(mesh.edges), dtype=np.int32)
    ce = np.take(mesh.cell_edge, c0, axis=0)
    # the flat index in cells of corner j of c0, where the edge is its local edge j
    start = 3 * c0.astype(np.intp) + (ce[:, 1] == e) + 2 * (ce[:, 2] == e)
    ends = np.take(mesh.cells, [start + np.where(start % 3 == 2, -2, 1), start])
    p = np.take(mesh.vertices, ends, axis=0)
    d = p[0] - p[1]
    length = np.hypot(d[:, 0], d[:, 1])
    return np.stack([d[:, 1] / length, -d[:, 0] / length], axis=1), length


def _cell_matvec(A, v):
    """A (p, 3, m) times v (L, 3, m) cell by cell, shape (L, p, m), summed
    term by term in the order of ``fem._matvec``."""
    out = A[:, 0] * v[:, None, 0] + A[:, 1] * v[:, None, 1]
    out += A[:, 2] * v[:, None, 2]
    return out


def _corner_values(mesh, dphi, nodal):
    """Corner values (L, 3, m) and cell gradients (L, 2, m) of nodal values
    (n, L) on ``mesh``, from its hat-function gradients ``dphi`` (2, 3, m) as
    ``_columns`` gives them."""
    vals = np.take(nodal.T, mesh.cells.T, axis=1)  # np.take keeps cells innermost
    return vals, _cell_matvec(dphi, vals)


def _edge_jumps(mesh, normal, grads):
    """Flux-jump scalar (gradient jump dotted with the fixed ``normal``) per
    edge, shape (L, e), for cell gradients (L, 2, m); boundary edges get an
    exact zero."""
    c1, c2 = mesh.edge_cells.T
    sel = c2 >= 0
    normal = normal[sel].T
    dg = np.take(grads, c1[sel], axis=2) - np.take(grads, c2[sel], axis=2)
    j = np.zeros((len(grads), len(mesh.edges)))
    j[:, sel] = dg[:, 0] * normal[0] + dg[:, 1] * normal[1]
    return j


def _modal_coeffs(target, columns, corner_vals, jump, b, c):
    """Modal coefficients y (L, 3, m) on ``target`` of L stacked P1 functions
    with corner values (L, 3, m) and flux jumps (L, e), one b and c each."""
    Wp, B, lam, alpha, area, _, _, length = columns
    b, c = np.reshape(b, (-1, 1, 1)), np.reshape(c, (-1, 1, 1))
    j = np.take(jump * length, target.cell_edge.T, axis=1)
    # the mirror pairs edges 1 and 2, and corners 0 and 1: each pair is added first
    wj = Wp[:, 1] * j[:, None, 1] + Wp[:, 2] * j[:, None, 2]
    wj += Wp[:, 0] * j[:, None, 0]
    d = lam * b + area * c
    return (alpha - c * _cell_matvec(B, corner_vals) - b / 4.0 * wj) / d


def local_indicators(mesh, w, b, c, f):
    """Per-cell indicators ||e_K||_{L2(K)} of the problems whose solutions
    ``w`` live on ``mesh``: shape (m,) for one solution, (m, L) for L stacked
    ones with one b and one c per column, estimated ``_BLOCK`` at a time."""
    nodal, columns = w.nodal_values.reshape(mesh.num_vertices, -1), _columns(mesh, f)
    b, c, eta = np.reshape(b, -1), np.reshape(c, -1), np.empty((mesh.num_cells, nodal.shape[1]))
    for block in (slice(k, k + _BLOCK) for k in range(0, nodal.shape[1], _BLOCK)):
        vals, grads = _corner_values(mesh, columns[5], nodal[:, block])
        jump = _edge_jumps(mesh, columns[6], grads)
        y = _modal_coeffs(mesh, columns, vals, jump, b[block], c[block])
        eta[:, block] = np.sqrt(columns[4] * np.sum(y**2, axis=1)).T  # as in the union pass
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

    All states must live on the same mesh.  Returns sqrt(sum_K ||C sum_l a_l
    e_{l,K}||^2), with every (b S_K + c M_K) e = r_K formed and solved densely
    without the per-node columns: an independent reference for the union pass.
    """
    mesh = states[0].mesh
    for st in states:
        if not st.mesh.same_mesh(mesh):
            raise meshmod.MeshStructureError("states are not on a shared mesh")
    S = np.einsum("ma,aij->mij", _shape(mesh.vertices[mesh.cells]), _T)
    area, (normal, length) = mesh.cell_areas(), _geometry(mesh)
    M = area[:, None, None] * _MREF
    F = f(*np.moveaxis(_CB @ mesh.vertices[mesh.cells], -1, 0)) @ _WPHI
    dphi = np.ascontiguousarray(_grads(mesh).transpose(2, 1, 0))
    combined = np.zeros((mesh.num_cells, 3))
    for st in states:
        b, c = scheme.b[st.index], scheme.c[st.index]
        vals, grads = _corner_values(mesh, dphi, st.solution.nodal_values[:, None])
        jl = (_edge_jumps(mesh, normal, grads)[0] * length)[mesh.cell_edge]
        rhs = area[:, None] / 4.0 * (F - c * vals[0].T @ _G.T) - b / 4.0 * jl
        combined += scheme.a[st.index] * np.linalg.solve(b * S + c * M, rhs[..., None])[..., 0]
    combined *= scheme.C
    return float(np.sqrt(np.sum(np.einsum("mi,mij,mj->m", combined, M, combined))))


def _class_sums(union, columns, cls, Z, S):
    """sum_l a_l y_l (3, m) on ``union`` of every problem summed into the
    weighted sums Z (n, 6 x classes) at the union's vertices, per class and
    mode Z^c then Z^b, with S = sum_l a_l / d (classes, 3) (module docstring)
    and ``cls`` the class of each cell."""
    (Wp, B, lam, alpha, _, dphi, normal, length), classes = columns, len(S)
    col = 3 * cls + np.arange(3)[:, None]  # per mode, the column of each cell's class
    v = Z[union.cells.T, col[:, None]]
    j = np.empty_like(v)
    for k in range(classes):  # one class at a time bounds the buffers
        at, zb = cls == k, Z[:, 3 * (classes + k) : 3 * (classes + k + 1)]
        jump = _edge_jumps(union, normal, _corner_values(union, dphi, zb)[1]) * length
        j[:, :, at] = np.take(jump, union.cell_edge[at].T, axis=1)
    Bv = B[:, 0] * v[:, 0] + B[:, 1] * v[:, 1]  # the mirror pairs are added first
    wj = Wp[:, 1] * j[:, 1] + Wp[:, 2] * j[:, 2]
    Bv, wj = Bv + B[:, 2] * v[:, 2], wj + Wp[:, 0] * j[:, 0]
    return alpha * S[cls].T - Bv - wj / 4.0


def global_union_estimate(scheme, states, union, f):
    """Union-mesh estimate and recombined solution in one pass.

    Returns ``(eta, solution)``: eta = sqrt(sum_K ||C sum_l a_l e_{l,K}||^2)
    from the local problems on every union cell for every l, and the
    ``FeFunction`` C sum_l a_l w_l on ``union``.  States whose meshes share
    leaves form one group.  States on the union run the kernel in blocks of
    ``_BLOCK``, and the dirty ones get their indicators (``local_indicators``'s
    bits) here.  Every coarser group adds the hierarchical surpluses of its
    solutions, times its rows of ``weights``, to one accumulator that one
    coarse-to-fine sweep completes at the union's vertices
    (``fem._Prolongation``).  When the L coarser problems outnumber
    3 x classes, the weights form the recombined sum and the weighted sums Z
    (module docstring); else each problem keeps a column, which runs the
    kernel in blocks like the union's own, with jumps on every interior union
    edge.
    """
    columns = _columns(union, f)  # hoisted out of the blocks
    lam, area = columns[2], columns[4]
    # classes of cells with bitwise equal (lam, |K|) rows, and the first cell of each; raw
    # bytes sort several times faster than np.unique(axis=0)'s structured rows
    rows = np.ascontiguousarray(np.vstack([lam, area]).T).view("V32").ravel()
    _, rep, cls = np.unique(rows, return_index=True, return_inverse=True)
    groups = _mesh_groups(states)
    coarser = [st.index for src, group in groups if not src.same_mesh(union) for st in group]
    weighted = 3 * len(rep) < len(coarser)
    if weighted:
        a, b, c = (x[coarser, None, None] for x in (scheme.a, scheme.b, scheme.c))
        wa = a / (lam[:, rep].T * b + area[rep, None] * c)  # the kernel's d, bit for bit
        weights = np.concatenate([wa * c, wa * b], axis=1).reshape(len(coarser), -1)
        weights = np.column_stack([a[:, 0, 0], weights])  # column 0: the recombined sum
        # alpha S cancels against B v(Z^c): round S once, its error is not averaged over l
        S = np.array([math.fsum(x) for x in wa.reshape(len(coarser), -1).T]).reshape(-1, 3)
    else:
        weights = np.eye(len(coarser))  # each coarser problem in a column of its own
    sweep = _Prolongation(union, weights.shape[1])
    combined, solution = np.zeros((3, union.num_cells)), np.zeros(union.num_vertices)
    kernel, done = [], 0  # per kernel block: its problems, states on the union, first column
    for src, group in groups:
        l, own = np.array([st.index for st in group]), src.same_mesh(union)
        if not own:
            nodal = np.stack([st.solution.nodal_values for st in group], axis=1)
            sweep.add(src, nodal, weights[done : done + len(l)])
        if own or not weighted:
            kernel += [(l[k : k + _BLOCK], group[k : k + _BLOCK] if own else [], done + k)
                       for k in range(0, len(l), _BLOCK)]
        done += 0 if own else len(l)
    if coarser:
        acc = sweep.result()
        solution += acc[:, 0] if weighted else acc @ scheme.a[coarser]
        if weighted:
            combined += _class_sums(union, columns, cls, acc[:, 1:], S)
    for l, block, col in kernel:
        if block:
            nodal = np.stack([st.solution.nodal_values for st in block], axis=1)
            solution += nodal @ scheme.a[l]
        else:
            nodal = acc[:, col : col + len(l)]
        vals, grads = _corner_values(union, columns[5], nodal)
        jump = _edge_jumps(union, columns[6], grads)
        y = _modal_coeffs(union, columns, vals, jump, scheme.b[l], scheme.c[l])
        combined += (scheme.a[l] @ y.reshape(len(l), -1)).reshape(combined.shape)  # a gemv
        for st, ind in zip(block, np.sqrt(area * np.sum(y**2, axis=1))):
            if st.dirty:
                st.indicators, st.dirty = ind, False
    eta = scheme.C * float(np.sqrt(np.sum(area * np.sum(combined**2, axis=0))))
    return eta, FeFunction(union, scheme.C * solution)
