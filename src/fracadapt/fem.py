"""P1 Galerkin assembly and solution of the parametric reaction-diffusion
problems, plus recombination of parametric solutions on the union mesh.

The adaptive loop gets the recombined solution from the union estimate's
pass (``estimators.global_union_estimate``); ``combine_on_union`` is the
one-shot public recombination for callers that hold only the states.

Every problem ``(b K + c M) w = F`` on a mesh is symmetric positive definite
and shares the matrices ``K`` and ``M``.  Once per mesh the stiffness and mass
values are summed from the element values (per-node columns of the forest,
see ``mesh``) straight into one compressed sparse column (CSC) pattern of
the interior vertices (one value per interior vertex and per interior
edge).  Each solve fills that pattern with ``b K + c M`` and factors it
with SuperLU using diagonal pivots, in the pattern's own order.  That order
is a nested dissection read off the forest (``mesh.dissection_order``),
fixed before the first factorization, so a solution depends only on the
mesh's leaves, b, c and f.  Equal meshes share one cache (see ``mesh``),
so they also share the pattern and load vectors.
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
        return _matvec(np.swapaxes(_grads(self.mesh), 1, 2), self.nodal_values[self.mesh.cells])


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


def _matvec(A, x):
    """A (p, 3) or (m, p, 3) times x (m, 3, ...) cell by cell, summed term by
    term in order, so the rounding does not depend on a cell's position."""
    v = x.reshape(len(x), 1, 3, -1)
    out = A[..., 0, None] * v[:, :, 0] + A[..., 1, None] * v[:, :, 1]
    out += A[..., 2, None] * v[:, :, 2]
    return out.reshape((len(x), A.shape[-2]) + x.shape[2:])


def _grads_of(x):
    """P1 hat-function gradients (r, 3, 2) of cells with corners x (r, 3, 2)."""
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


def _grads(mesh):
    """P1 hat-function gradients per cell, shape (m, 3, 2)."""
    return mesh.column("grads", _grads_of)


def _stiffness_of(x):
    """Element stiffness values (r, 2, 3) of cells with corners x: the
    diagonal entries, and the entry of local edge j, which joins corners j
    and j + 1 (mod 3)."""
    g, area = _grads_of(x), meshmod._cell_areas(x)
    g_next = np.roll(g, -1, axis=1)
    k_diag = area[:, None] * (g[..., 0] * g[..., 0] + g[..., 1] * g[..., 1])
    k_edge = area[:, None] * (g[..., 0] * g_next[..., 0] + g[..., 1] * g_next[..., 1])
    return np.stack([k_diag, k_edge], axis=1)


def _load_of(x, f):
    """Load contributions (r, 3) of cells with corners x: sum_q w_q |K|
    f(x_q) lambda_i(x_q), summed over q in order."""
    qp = _matvec(TRI_QP, x)
    fq, area = f(qp[..., 0], qp[..., 1]), meshmod._cell_areas(x)
    return sum(fq[:, q, None] * TRI_QW[q] * TRI_QP[q] * area[:, None] for q in range(6))


def _quad_points(mesh):
    """Physical quadrature points per cell, shape (m, 6, 2)."""
    return _matvec(TRI_QP, mesh.vertices[mesh.cells])


class _System(NamedTuple):
    """Interior system of one mesh: both triangles of K and M on one CSC
    pattern.

    Row and column ``i`` belong to vertex ``dofs[i]``; ``k`` and ``m`` are the
    stiffness and mass values in the slots of ``(indices, indptr)``.
    """

    dofs: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    k: np.ndarray
    m: np.ndarray


def _build_system(mesh, dofs):
    """Stiffness and mass of the interior vertices ``dofs``, summed from the
    element matrices into one value per interior vertex and per interior edge
    and scattered to the CSC slots of the pattern in ``dofs`` order."""
    interior = ~mesh.boundary_vertex
    on = interior[mesh.edges[:, 0]] & interior[mesh.edges[:, 1]]
    n, n_edges = mesh.num_vertices, len(mesh.edges)
    k_diag, k_edge = mesh.column("stiffness", _stiffness_of).transpose(1, 0, 2)
    area3 = np.repeat(mesh.cell_areas(), 3)
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
    return _System(dofs, rows[slot].astype(np.int32), indptr, k[value], m[value])


def _system(mesh):
    """The cached interior system of a mesh, in nested-dissection order."""
    system = mesh._cache.get("system")
    if system is None:
        system = mesh._cache["system"] = _build_system(mesh, meshmod.dissection_order(mesh))
    return system


def _load_vector(mesh, f):
    """Load vector on all vertices; cached per mesh and field."""
    key = ("load", f)
    F = mesh._cache.get(key)
    if F is None:
        contrib = mesh.column(key, lambda x: _load_of(x, f))
        F = np.bincount(mesh.cells.reshape(-1), contrib.reshape(-1), mesh.num_vertices)
        mesh._cache[key] = F
    return F


# -- operations --------------------------------------------------------------


def assemble_and_solve(mesh, b, c, f, rel_tol=1e-10):
    """Solve (b K + c M) w = F on the interior vertices, zero on the boundary.

    The pole sum stores max(b, c) = 1 (see ``rational.bp_coefficients``), so
    the conditioning is set by the mesh, not by the coefficients.  The system
    is factored by SuperLU (``scipy.sparse.linalg.splu``) with diagonal
    pivots, which is stable for this symmetric positive definite matrix, in
    the nested-dissection order the cached system is built in, with no
    ordering step of its own.  Raises ValueError unless b and c are finite
    and nonnegative with one of them positive (either alone gives an SPD
    system), and SolveError if the matrix is singular or the relative
    residual of the reduced system exceeds ``rel_tol``.
    """
    if not (np.isfinite(b) and np.isfinite(c) and min(b, c) >= 0.0 and max(b, c) > 0.0):
        raise ValueError(f"coefficients must be finite, nonnegative and not both zero, "
                         f"got b = {b}, c = {c}")
    system = _system(mesh)
    n = len(system.dofs)
    w = np.zeros(mesh.num_vertices)
    if n == 0:
        return FeFunction(mesh, w)
    A = sp.csc_matrix((b * system.k + c * system.m, system.indices, system.indptr), shape=(n, n))
    rhs = _load_vector(mesh, f)[system.dofs]
    try:
        # no relaxed supernodes, one-column panels: faster below ~3,000 dofs, even at 48,641
        lu = splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.0, relax=1, panel_size=1,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolveError(f"b K + c M at b = {b}, c = {c}: {exc}", residual=np.inf) from exc
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
    lam = meshmod.nested_barycentric(target.cell_key, src.cell_key[parents])
    out = np.empty((target.num_vertices,) + f.nodal_values.shape[1:])
    out[target.cells] = _matvec(lam, f.nodal_values[src.cells[parents]])
    return FeFunction(target, out)


def _mesh_groups(states):
    """``(mesh, states)`` per distinct mesh, in order of first appearance;
    twins share one ``_cache`` (see ``mesh``), so they form one group."""
    groups = {}
    for st in states:
        groups.setdefault(id(st.mesh._cache), (st.mesh, []))[1].append(st)
    return list(groups.values())


def combine_on_union(scheme, states, union):
    """Fully discrete combination C * sum_l a_l w_l on the union mesh.

    States whose meshes share leaves are summed nodally before the (exact)
    transfer, which matters when many problems still sit on the initial mesh.
    """
    out = np.zeros(union.num_vertices)
    for m, group in _mesh_groups(states):
        partial = sum(scheme.a[st.index] * st.solution.nodal_values for st in group)
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
        qp = _quad_points(mesh)
        vals = obj(qp[..., 0], qp[..., 1])
    return float(np.sqrt(np.einsum("mq,q,m->", vals**2, TRI_QW, mesh.cell_areas())))
