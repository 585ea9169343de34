"""P1 Galerkin assembly and solution of the parametric reaction-diffusion
problems, plus recombination of parametric solutions on the union mesh.

Every problem ``(b K + c M) w = F`` on a mesh is symmetric positive definite
and shares the matrices ``K`` and ``M``.  Once per mesh the stiffness and mass
values are summed from the element matrices straight into one compressed
sparse column (CSC) pattern of the interior vertices (one value per interior
vertex and per interior edge).  Each solve fills that pattern with
``b K + c M``, scaled by ``1/max(b, c)``, and factors it with SuperLU using
diagonal pivots.  The fill-reducing column order SuperLU picks at the first
factorization on a mesh is cached with the pattern, so the many problems
sharing a mesh pay for the ordering once.  The cost follows the fill of the
factors, not the band width of the matrix, which on graded meshes grows much
faster than the number of unknowns.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import mesh as meshmod

__all__ = [
    "FeFunction",
    "RhsField",
    "ParametricState",
    "SolveError",
    "assemble_and_solve",
    "combine_on_union",
    "l2_norm",
    "transfer_p1",
]

# 6-point, degree-4 triangle quadrature (barycentric points, weights sum to 1)
_QA = 0.445948490915965
_QB = 0.091576213509771
_QW1 = 0.223381589678011
_QW2 = 0.109951743655322
TRI_QP = np.array(
    [
        [1 - 2 * _QA, _QA, _QA],
        [_QA, 1 - 2 * _QA, _QA],
        [_QA, _QA, 1 - 2 * _QA],
        [1 - 2 * _QB, _QB, _QB],
        [_QB, 1 - 2 * _QB, _QB],
        [_QB, _QB, 1 - 2 * _QB],
    ]
)
TRI_QW = np.array([_QW1, _QW1, _QW1, _QW2, _QW2, _QW2])


class SolveError(Exception):
    """Linear solve did not reach the requested relative residual."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


@dataclass
class FeFunction:
    """Piecewise-linear function: a mesh plus one nodal value per vertex.

    ``nodal_values`` may also be (n, L), L functions stacked column by column;
    every method then returns one trailing column per function.
    """

    mesh: object
    nodal_values: np.ndarray

    def __post_init__(self):
        self.nodal_values = np.asarray(self.nodal_values, dtype=float)
        if len(self.nodal_values) != self.mesh.num_vertices:
            raise ValueError("nodal value vector does not match the mesh")

    def eval(self, points):
        """Evaluate at arbitrary points inside the domain."""
        cells, bary = self.mesh.locate(points)
        vals = self.nodal_values[self.mesh.cells[cells]]
        return np.einsum("pk,pk...->p...", bary, vals)

    def cell_values_at(self, bary_points):
        """Values at fixed barycentric points of every cell, shape (m, q, ...)."""
        vals = np.moveaxis(self.nodal_values[self.mesh.cells], 1, -1)
        return np.moveaxis(vals @ np.asarray(bary_points).T, -1, 1)

    def cell_gradients(self):
        """Constant gradient per cell, shape (m, 2, ...)."""
        g = _grads(self.mesh)
        vals = self.nodal_values[self.mesh.cells]
        return np.einsum("mk...,mkd->md...", vals, g)


def _test2_eval(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    inside = (x**2 + y**2 < 0.36) | ((x - 1.0) ** 2 + (y - 1.0) ** 2 < 0.36)
    return np.where(inside, -1.0, 1.0)


@dataclass(frozen=True)
class RhsField:
    """Right-hand side field; ``kind`` tags the fields with special handling."""

    kind: str  # "one", "testII", or "manufactured"
    evaluator: object = None

    def __call__(self, x, y):
        if self.kind == "one":
            return np.ones_like(np.asarray(x, dtype=float))
        if self.kind == "testII":
            return _test2_eval(x, y)
        return self.evaluator(x, y)

    @staticmethod
    def one():
        return RhsField(kind="one")

    @staticmethod
    def test2():
        return RhsField(kind="testII")

    @staticmethod
    def manufactured(fn):
        return RhsField(kind="manufactured", evaluator=fn)


@dataclass
class ParametricState:
    """Per-problem bundle carried through the adaptive loop."""

    index: int
    mesh: object
    solution: FeFunction = None
    indicators: np.ndarray = None
    dirty: bool = True


# -- cached per-mesh geometry -----------------------------------------------


def _grads(mesh):
    """P1 hat-function gradients per cell, shape (m, 3, 2)."""
    g = mesh._cache.get("grads")
    if g is None:
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
        mesh._cache["grads"] = g
    return g


def _areas(mesh):
    a = mesh._cache.get("areas")
    if a is None:
        a = mesh.cell_areas()
        mesh._cache["areas"] = a
    return a


def _quad_points(mesh):
    """Physical quadrature points per cell, shape (m, 6, 2)."""
    qp = mesh._cache.get("qp")
    if qp is None:
        x = mesh.vertices[mesh.cells]
        qp = np.einsum("qk,mkd->mqd", TRI_QP, x)
        mesh._cache["qp"] = qp
    return qp


def _rhs_at_quad(mesh, f):
    key = ("fq", f)
    fq = mesh._cache.get(key)
    if fq is None:
        qp = _quad_points(mesh)
        fq = f(qp[..., 0], qp[..., 1])
        mesh._cache[key] = fq
    return fq


class _System(NamedTuple):
    """Interior system of one mesh: both triangles of K and M on one CSC
    pattern.

    Row and column ``i`` belong to vertex ``dofs[i]``; ``k`` and ``m`` are the
    stiffness and mass values in the slots of ``(indices, indptr)``.
    ``ordered`` tells whether ``dofs`` already follow the fill-reducing order
    that SuperLU chose at the first factorization on this mesh.
    """

    dofs: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    k: np.ndarray
    m: np.ndarray
    ordered: bool


def _build_system(mesh, dofs, ordered):
    """Stiffness and mass of the interior vertices ``dofs``, summed from the
    element matrices into one value per interior vertex and per interior edge
    and scattered to the CSC slots of the pattern in ``dofs`` order."""
    interior = ~mesh.boundary_vertex
    on = interior[mesh.edges].all(axis=1)
    n, n_edges = mesh.num_vertices, len(mesh.edges)
    g = _grads(mesh)
    area = _areas(mesh)
    # local edge j of a cell joins its corners j and j + 1 (mod 3)
    k_diag = area[:, None] * np.einsum("mjd,mjd->mj", g, g)
    k_edge = area[:, None] * np.einsum("mjd,mjd->mj", g, np.roll(g, -1, axis=1))
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
    # an interior edge gives entries (i, j) and (j, i), both with its value
    n_dofs = len(dofs)
    row = np.empty(n, dtype=np.intp)
    row[dofs] = np.arange(n_dofs)
    i, j = row[mesh.edges[on]].T
    diag = np.arange(n_dofs)
    edge_value = np.arange(n_dofs, len(k))
    rows = np.concatenate([diag, i, j])
    cols = np.concatenate([diag, j, i])
    slot = np.argsort(cols * n_dofs + rows)  # column-major, rows ascending
    value = np.concatenate([diag, edge_value, edge_value])[slot]
    indptr = np.zeros(n_dofs + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=n_dofs), out=indptr[1:])
    return _System(dofs, rows[slot].astype(np.int32), indptr, k[value], m[value], ordered)


def _system(mesh):
    """The cached interior system of a mesh.  It is built in vertex order;
    once a factorization has stored SuperLU's column order for the mesh, the
    next call rebuilds it in that order."""
    system = mesh._cache.get("system")
    order = mesh._cache.get("system_order")
    if system is None or (order is not None and not system.ordered):
        dofs = np.flatnonzero(~mesh.boundary_vertex)
        if order is not None:
            dofs = dofs[order]
        system = _build_system(mesh, dofs, ordered=order is not None)
        mesh._cache["system"] = system
    return system


def _load_vector(mesh, f):
    """Load vector on all vertices; cached per mesh and field."""
    key = ("load", f)
    F = mesh._cache.get(key)
    if F is None:
        fq = _rhs_at_quad(mesh, f)
        area = _areas(mesh)
        # F_i = sum_q w_q area f(x_q) lambda_i(x_q)
        contrib = np.einsum("mq,q,qk,m->mk", fq, TRI_QW, TRI_QP, area)
        F = np.bincount(mesh.cells.reshape(-1), contrib.reshape(-1), mesh.num_vertices)
        mesh._cache[key] = F
    return F


# -- operations --------------------------------------------------------------


def assemble_and_solve(mesh, b, c, f, rel_tol=1e-10):
    """Solve (b K + c M) w = F on the interior vertices, zero on the boundary.

    The system is scaled by 1/max(b, c) before solving so the conditioning is
    set by the mesh, not by the (possibly extreme) reaction-diffusion
    coefficients.  It is factored by SuperLU (``scipy.sparse.linalg.splu``)
    with diagonal pivots, which is stable for this symmetric positive
    definite matrix.  The first factorization on a mesh picks a fill-reducing
    column order (COLAMD); the cached system is then kept in that order and
    later factorizations on the mesh skip the ordering step.  Raises
    ValueError unless b and c are finite and positive, and SolveError if the
    matrix is singular or the relative residual of the reduced system exceeds
    ``rel_tol``.
    """
    if not (np.isfinite(b) and np.isfinite(c) and b > 0.0 and c > 0.0):
        raise ValueError(f"coefficients must be finite and positive, got b = {b}, c = {c}")
    system = _system(mesh)
    n = len(system.dofs)
    w = np.zeros(mesh.num_vertices)
    if n == 0:
        return FeFunction(mesh, w)
    scale = max(b, c)
    A = sp.csc_matrix(
        ((b / scale) * system.k + (c / scale) * system.m, system.indices, system.indptr),
        shape=(n, n),
    )
    rhs = _load_vector(mesh, f)[system.dofs] / scale
    try:
        lu = splu(
            A,
            permc_spec="NATURAL" if system.ordered else "COLAMD",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise SolveError(f"b K + c M at b = {b}, c = {c}: {exc}", residual=np.inf) from exc
    if not system.ordered:
        mesh._cache["system_order"] = np.argsort(lu.perm_c)
    sol = lu.solve(rhs)
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm > 0.0:
        res = np.linalg.norm(A @ sol - rhs) / rhs_norm
        if not np.isfinite(res) or res > rel_tol:
            raise SolveError(
                f"relative residual {res:.3e} exceeds rel_tol {rel_tol:.1e}",
                residual=res,
            )
    w[system.dofs] = sol
    return FeFunction(mesh, w)


def transfer_p1(f, target):
    """Exact nodal transfer of a P1 function onto a refinement of its mesh;
    stacked (n, L) nodal values are transferred column by column."""
    src = f.mesh
    if src.same_mesh(target):
        return FeFunction(target, f.nodal_values.copy())
    parents = meshmod.ancestor_cell_map(target, src)
    A = src.vertices[src.cells[parents]]  # (mt, 3, 2) source triangle corners
    P = target.vertices[target.cells]  # (mt, 3, 2) target corners
    # barycentric coordinates of each target corner in its source triangle
    e1 = A[:, 1] - A[:, 0]
    e2 = A[:, 2] - A[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    d = P - A[:, 0][:, None, :]
    l1 = (d[..., 0] * e2[:, None, 1] - d[..., 1] * e2[:, None, 0]) / det[:, None]
    l2 = (d[..., 1] * e1[:, None, 0] - d[..., 0] * e1[:, None, 1]) / det[:, None]
    lam = np.stack([1.0 - l1 - l2, l1, l2], axis=-1)  # (mt, 3, 3)
    svals = f.nodal_values[src.cells[parents]]  # (mt, 3, ...)
    tvals = np.einsum("mpk,mk...->mp...", lam, svals)
    stack = svals.shape[2:]
    out = np.empty((target.num_vertices,) + stack)
    out[target.cells.reshape(-1)] = tvals.reshape((-1,) + stack)
    return FeFunction(target, out)


def combine_on_union(scheme, states, union):
    """Fully discrete combination C * sum_l a_l w_l on the union mesh.

    States sharing a mesh object are summed nodally before the (exact)
    transfer, which matters when many problems still sit on the initial mesh.
    """
    groups = {}
    for st in states:
        key = id(st.mesh)
        if key not in groups:
            groups[key] = (st.mesh, np.zeros(st.mesh.num_vertices))
        groups[key][1][:] += scheme.a[st.index] * st.solution.nodal_values
    out = np.zeros(union.num_vertices)
    for m, partial in groups.values():
        out += transfer_p1(FeFunction(m, partial), union).nodal_values
    return FeFunction(union, scheme.C * out)


def l2_norm(obj, mesh=None):
    """L2 norm over the domain, by the 6-point rule on each cell."""
    if isinstance(obj, FeFunction):
        mesh = obj.mesh
        vals = obj.cell_values_at(TRI_QP)
    else:
        if mesh is None:
            raise ValueError("a mesh is required to integrate a field")
        vals = _rhs_at_quad(mesh, obj)
    area = _areas(mesh)
    return float(np.sqrt(np.einsum("mq,q,m->", vals**2, TRI_QW, area)))
