"""P1 Galerkin assembly and solution of the parametric reaction-diffusion
problems, plus recombination of parametric solutions on the union mesh."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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


def _matrices(mesh):
    """Global stiffness and mass matrices (all vertices), CSR."""
    g = _grads(mesh)
    area = _areas(mesh)
    kloc = np.einsum("mid,mjd,m->mij", g, g, area)
    mloc = (np.ones((3, 3)) + np.eye(3)) / 12.0
    mloc = area[:, None, None] * mloc[None]
    rows = np.repeat(mesh.cells, 3, axis=1).reshape(-1)
    cols = np.tile(mesh.cells, (1, 3)).reshape(-1)
    n = mesh.num_vertices
    K = sp.coo_matrix((kloc.reshape(-1), (rows, cols)), shape=(n, n)).tocsr()
    M = sp.coo_matrix((mloc.reshape(-1), (rows, cols)), shape=(n, n)).tocsr()
    return K, M


def _load_vector(mesh, f):
    fq = _rhs_at_quad(mesh, f)
    area = _areas(mesh)
    # F_i = sum_q w_q area f(x_q) lambda_i(x_q)
    contrib = np.einsum("mq,q,qk,m->mk", fq, TRI_QW, TRI_QP, area)
    F = np.zeros(mesh.num_vertices)
    np.add.at(F, mesh.cells.reshape(-1), contrib.reshape(-1))
    return F


def _interior_system(mesh, f):
    """K_II and M_II (CSC) and F_I on the interior vertices; the matrices are
    cached per mesh, the load vector per mesh and field."""
    interior = ~mesh.boundary_vertex
    KM = mesh._cache.get("KM_II")
    if KM is None:
        KM = tuple(A[interior][:, interior].tocsc() for A in _matrices(mesh))
        mesh._cache["KM_II"] = KM
    key = ("load_I", f)
    F = mesh._cache.get(key)
    if F is None:
        F = _load_vector(mesh, f)[interior]
        mesh._cache[key] = F
    return KM + (F,)


# -- operations --------------------------------------------------------------


def assemble_and_solve(mesh, b, c, f, rel_tol=1e-10):
    """Solve (b K + c M) w = F on the interior vertices, zero on the boundary.

    The system is scaled by 1/max(b, c) before solving so the conditioning is
    set by the mesh, not by the (possibly extreme) reaction-diffusion
    coefficients.  Raises SolveError if the relative residual of the reduced
    system exceeds ``rel_tol``.
    """
    if b <= 0.0 or c <= 0.0:
        raise ValueError("coefficients b and c must be positive")
    K, M, F = _interior_system(mesh, f)
    scale = max(b, c)
    A = (b / scale) * K + (c / scale) * M
    rhs = F / scale
    w = np.zeros(mesh.num_vertices)
    if rhs.size:
        sol = spla.spsolve(A, rhs)
        rhs_norm = np.linalg.norm(rhs)
        if rhs_norm > 0.0:
            res = np.linalg.norm(A @ sol - rhs) / rhs_norm
            if not np.isfinite(res) or res > rel_tol:
                raise SolveError(
                    f"relative residual {res:.3e} exceeds rel_tol {rel_tol:.1e}",
                    residual=res,
                )
        w[~mesh.boundary_vertex] = sol
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
