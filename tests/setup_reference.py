"""Per-mesh reference for the per-node columns of ``fracadapt``.

These are the per-mesh formulas that the forest's per-node columns replaced
(``TriMesh.column``), kept unchanged as the reference the tests compare
against, bit for bit: each computes its values from ``mesh.vertices`` and
``mesh.cells`` of one mesh, with no forest table.  ``modal_basis`` is the
per-mesh grouping into shape classes that the per-node modal column
replaced, and ``nested_barycentric`` the geometric transfer that the exact
path table replaced.
"""

import numpy as np

from fracadapt.estimators import _LINV, _PT, _T
from fracadapt.fem import TRI_QP, TRI_QW, _matvec


def areas(mesh):
    x = mesh.vertices[mesh.cells]
    d1 = x[:, 1] - x[:, 0]
    d2 = x[:, 2] - x[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def grads(mesh):
    """P1 hat-function gradients per cell, shape (m, 3, 2)."""
    x = mesh.vertices[mesh.cells]
    area2 = (x[:, 1, 0] - x[:, 0, 0]) * (x[:, 2, 1] - x[:, 0, 1]) - (
        x[:, 1, 1] - x[:, 0, 1]
    ) * (x[:, 2, 0] - x[:, 0, 0])
    g = np.empty((len(x), 3, 2))
    for k in range(3):
        p1 = x[:, (k + 1) % 3]
        p2 = x[:, (k + 2) % 3]
        g[:, k, 0] = (p1[:, 1] - p2[:, 1]) / area2
        g[:, k, 1] = (p2[:, 0] - p1[:, 0]) / area2
    return g


def system_values(mesh, dofs):
    """Stiffness and mass sums (k, m) of ``fem._build_system``: one value per
    interior vertex ``dofs``, then one per interior edge."""
    interior = ~mesh.boundary_vertex
    on = interior[mesh.edges].all(axis=1)
    n, n_edges = mesh.num_vertices, len(mesh.edges)
    g = grads(mesh)
    area = areas(mesh)
    g_next = np.roll(g, -1, axis=1)
    k_diag = area[:, None] * (g[..., 0] * g[..., 0] + g[..., 1] * g[..., 1])
    k_edge = area[:, None] * (g[..., 0] * g_next[..., 0] + g[..., 1] * g_next[..., 1])
    area3 = np.repeat(area, 3)
    edge_id = mesh.cell_edge.reshape(-1)
    vertex_id = mesh.cells.reshape(-1)
    k = np.concatenate(
        [
            np.bincount(vertex_id, k_diag.reshape(-1), n)[dofs],
            np.bincount(edge_id, k_edge.reshape(-1), n_edges)[on],
        ]
    )
    m = np.concatenate(
        [
            np.bincount(vertex_id, area3, n)[dofs] / 6.0,
            np.bincount(edge_id, area3, n_edges)[on] / 12.0,
        ]
    )
    return k, m


def load_vector(mesh, f):
    qp = _matvec(TRI_QP, mesh.vertices[mesh.cells])
    fq = f(qp[..., 0], qp[..., 1])
    area = areas(mesh)
    contrib = sum(fq[:, q, None] * TRI_QW[q] * TRI_QP[q] * area[:, None] for q in range(6))
    return np.bincount(mesh.cells.reshape(-1), contrib.reshape(-1), mesh.num_vertices)


def shape(mesh):
    x = mesh.vertices[mesh.cells]
    e1, e2 = x[:, 1] - x[:, 0], x[:, 2] - x[:, 0]
    det = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    q = np.stack([(e2 * e2).sum(axis=1), -(e1 * e2).sum(axis=1), (e1 * e1).sum(axis=1)])
    return (q / det).T


def modal_basis(mesh):
    """``estimators._modal_basis``, one eigensolve per shape class (cells
    with bitwise equal shapes) gathered to the cells."""
    q = shape(mesh)
    order = np.lexsort(q.T[::-1])
    qs = q[order]
    new = np.ones(len(q), dtype=bool)
    new[1:] = np.any(qs[1:] != qs[:-1], axis=1)
    cls = np.empty(len(q), dtype=np.intp)
    cls[order] = np.cumsum(new) - 1
    S = _PT @ np.einsum("ka,aij->kij", qs[new], _T) @ _PT.T
    lam, U = np.linalg.eigh(_LINV @ S @ _LINV.T)
    W = np.swapaxes(U, 1, 2) @ _LINV
    return np.take(W.transpose(1, 2, 0), cls, axis=2), np.take(lam.T, cls, axis=1)


def geometry(mesh):
    """The dict of ``estimators._geometry``."""
    ev = mesh.vertices[mesh.edges]
    tang = ev[:, 1] - ev[:, 0]
    length = np.hypot(tang[:, 0], tang[:, 1])
    normal = np.stack([tang[:, 1], -tang[:, 0]], axis=1) / length[:, None]
    opp = mesh.cells[mesh.edge_cells[:, 0]].sum(axis=1) - mesh.edges.sum(axis=1)
    flip = np.einsum("ed,ed->e", normal, mesh.vertices[opp] - ev[:, 0]) > 0
    normal[flip] *= -1.0
    return dict(area=areas(mesh), normal=normal, length=length)


def nested_barycentric(src, target, parents):
    """Corner vertices (mt, 3) of the ``src`` cell ``parents`` holding each
    ``target`` cell, and the barycentric coordinates (mt, 3, 3) of the
    target cell's corners in it, from the coordinates."""
    corners = src.cells[parents]
    A = src.vertices[corners]  # (mt, 3, 2) source triangle corners
    P = target.vertices[target.cells]  # (mt, 3, 2) target corners
    e1, e2 = A[:, 1] - A[:, 0], A[:, 2] - A[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    d = P - A[:, 0][:, None, :]
    l1 = (d[..., 0] * e2[:, None, 1] - d[..., 1] * e2[:, None, 0]) / det[:, None]
    l2 = (d[..., 1] * e1[:, None, 0] - d[..., 0] * e1[:, None, 1]) / det[:, None]
    return corners, np.stack([1.0 - l1 - l2, l1, l2], axis=-1)
