"""P1 Galerkin assembly and solution of the parametric reaction-diffusion
problems, plus recombination of parametric solutions on the union mesh.

The adaptive loop gets the recombined solution from the union estimate's
pass (``estimators.global_union_estimate``); ``combine_on_union`` is the
one-shot public recombination for callers that hold only the states.

Every problem ``(b K + c M) w = F`` on a mesh is symmetric positive definite
and shares the matrices ``K`` and ``M``.  Once per mesh and solve phase the
stiffness and mass values are formed from the areas and gradients (per-node
columns of the forest, see ``mesh``) and summed straight into one compressed
sparse column (CSC) pattern of the interior vertices (one value per interior
vertex and per interior edge).  That pattern's order is a nested dissection
read off the forest (``mesh.dissection_order``), fixed before the first
factorization, and every factorization runs SuperLU with diagonal pivots in
it, so a solution depends only on the mesh's leaves, b, c and f.

Most poles of the pole sum lie close to one of its two limits, ``b K`` or
``c M``.  With sigma = min(b, c) / max(b, c), the other matrix perturbs the
limit by at most q = sigma / lam_lo (b >= c) or q = sigma lam_hi (b < c),
where lam_lo = pi j01^2 / |mesh| (Faber-Krahn) bounds the smallest and
lam_hi = max over cells of 12 sum_i |grad phi_i|^2 the largest eigenvalue of
(K, M); the mesh's system carries both.  A pole with q <= ``_Q`` is solved
by the Neumann series w = sum_k (-sigma)^k (P^-1 E)^k P^-1 F / max(b, c),
with P the limit matrix and E the other one, cut after the j terms with
q^j <= 2^-53.  Its terms V_k = (P^-1 E)^k P^-1 F, k < ``_T``, are computed
once per mesh, limit and field from one factorization of P and cached; the
factor itself is freed at once, because a live SuperLU object pins far more
memory than the ``_T`` vectors of the basis.  Every other pole factors its
own ``b K + c M``.

The system, load vectors and bases are cached in the mesh's ``_cache`` on
first use, which equal meshes share (see ``mesh``), and live for one solve
phase: the driver solves the problems of one mesh group after another and
drops the group's entries (``_drop_solve_caches``) when it is done, so a
solve phase holds one system at a time.  A later solve on the same leaves
builds them again, bit for bit.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import mesh as meshmod
from .rational import J0_FIRST_ZERO

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


def _terms(q):
    """Neumann terms j with q^j <= 2^-53, for 0 < q < 1."""
    return math.ceil(math.log(2.0**-53) / math.log(q))


_Q = 1e-3  # largest perturbation bound q of a pole solved from a Neumann basis
_T = _terms(_Q)  # rows of a basis


class SolveError(Exception):
    """Linear solve did not reach the requested relative residual."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


@dataclass
class FeFunction:
    """Piecewise-linear function: a mesh plus one nodal value per vertex.

    ``nodal_values`` may also be (n, L), L functions stacked column by column;
    ``cell_values_at`` then returns one trailing column per function.  There
    is no point evaluation: ``transfer_p1`` moves P1 functions between meshes.
    """

    mesh: object
    nodal_values: np.ndarray

    def __post_init__(self):
        self.nodal_values = np.asarray(self.nodal_values, dtype=float)
        if len(self.nodal_values) != self.mesh.num_vertices:
            raise ValueError("nodal value vector does not match the mesh")

    def cell_values_at(self, bary_points):
        """Values at fixed barycentric points of every cell, shape (m, q, ...)."""
        vals = np.moveaxis(np.take(self.nodal_values, self.mesh.cells, axis=0), 1, -1)
        return np.moveaxis(vals @ np.asarray(bary_points).T, -1, 1)


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
    ``lam_lo`` = pi j01^2 / |mesh| is below the smallest eigenvalue of (K, M)
    (Faber-Krahn, and a Galerkin eigenvalue is at least the continuous one),
    ``lam_hi`` = max over cells of 12 sum_i |grad phi_i|^2 above the largest
    (on a cell, v^T K v <= |K| sum_i |grad phi_i|^2 |v|^2 and v^T M v >= |K|
    |v|^2 / 12).
    """

    dofs: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    k: np.ndarray
    m: np.ndarray
    lam_lo: float
    lam_hi: float


def _build_system(mesh, dofs):
    """Stiffness and mass of the interior vertices ``dofs``, summed from the
    element matrices into one value per interior vertex and per interior edge
    and scattered to the CSC slots of the pattern in ``dofs`` order, and the
    eigenvalue bounds of (K, M)."""
    interior = ~mesh.boundary_vertex
    on = np.take(interior, mesh.edges[:, 0]) & np.take(interior, mesh.edges[:, 1])
    n, n_edges = mesh.num_vertices, len(mesh.edges)
    g, area = _grads(mesh), mesh.cell_areas()
    g_next = np.take(g, [1, 2, 0], axis=1)  # local edge j joins corners j and j + 1 (mod 3)
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
    # an interior edge gives entries (i, j) and (j, i), both with its value
    n_dofs = len(dofs)
    row = np.empty(n, dtype=np.intp)
    row[dofs] = np.arange(n_dofs)
    i, j = np.take(row, mesh.edges[on]).T  # intp, so cols * n_dofs + rows cannot overflow
    diag = np.arange(n_dofs)
    edge_value = np.arange(n_dofs, len(k))
    rows = np.concatenate([diag, i, j])
    cols = np.concatenate([diag, j, i])
    slot = np.argsort(cols * n_dofs + rows)  # column-major, rows ascending
    value = np.concatenate([diag, edge_value, edge_value])[slot]
    indptr = np.zeros(n_dofs + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=n_dofs), out=indptr[1:])
    lam_lo = math.pi * J0_FIRST_ZERO**2 / float(np.sum(area))
    # the six squares of a cell summed in (corner, axis) order, as np.sum over
    # axes (1, 2) sums them: these bits decide which poles take a basis
    sq = (g * g).reshape(len(g), 6)
    lam_hi = 12.0 * float(np.max(sq[:, 0] + sq[:, 1] + sq[:, 2] + sq[:, 3] + sq[:, 4] + sq[:, 5]))
    return _System(dofs, rows[slot].astype(np.int32), indptr, k[value], m[value], lam_lo, lam_hi)


def _system(mesh):
    """The cached interior system of a mesh, in nested-dissection order."""
    system = mesh._cache.get("system")
    if system is None:
        system = mesh._cache["system"] = _build_system(mesh, meshmod.dissection_order(mesh))
    return system


def _drop_solve_caches(mesh):
    """Drop the system, load vectors and bases from the ``_cache`` of ``mesh``
    and its twins."""
    for key in [k for k in mesh._cache if k == "system" or k[0] in ("load", "basis")]:
        del mesh._cache[key]


def _load_vector(mesh, f):
    """Load vector on all vertices; cached per mesh and field."""
    key = ("load", f)
    F = mesh._cache.get(key)
    if F is None:
        contrib = mesh.column(key, lambda x: _load_of(x, f))
        F = np.bincount(mesh.cells.reshape(-1), contrib.reshape(-1), mesh.num_vertices)
        mesh._cache[key] = F
    return F


def _csc(system, values):
    n = len(system.dofs)
    return sp.csc_matrix((values, system.indices, system.indptr), shape=(n, n))


def _factor(A, b, c):
    """SuperLU factor of A; a failure raises SolveError naming the pole's b and c."""
    try:
        # no relaxed supernodes, one-column panels: faster below ~3,000 dofs, even at 48,641
        return splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.0, relax=1, panel_size=1,
                    options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolveError(f"b K + c M at b = {b}, c = {c}: {exc}", residual=np.inf) from exc


def _basis(mesh, system, kind, f, b, c):
    """Rows V_k = (P^-1 E)^k P^-1 F, k < _T, with (P, E) = (K, M) for
    ``kind`` "k" and (M, K) for "m"; cached per mesh, kind and field.  The
    factor of P lives only in this call."""
    key = ("basis", kind, f)
    V = mesh._cache.get(key)
    if V is None:
        P, E = (system.k, system.m) if kind == "k" else (system.m, system.k)
        lu, E = _factor(_csc(system, P), b, c), _csc(system, E)
        V = np.empty((_T, len(system.dofs)))
        V[0] = lu.solve(_load_vector(mesh, f)[system.dofs])
        for k in range(1, _T):
            V[k] = lu.solve(E @ V[k - 1])
        mesh._cache[key] = V
    return V


# -- operations --------------------------------------------------------------


def assemble_and_solve(mesh, b, c, f, rel_tol=1e-10):
    """Solve (b K + c M) w = F on the interior vertices, zero on the boundary.

    A pole within q <= ``_Q`` of its limit ``b K`` or ``c M`` (module
    docstring) sums j = ceil(log 2^-53 / log q) rows of the mesh's Neumann
    basis for that limit and ``f``, by Horner's rule (one row when q = 0);
    any other pole factors ``b K + c M`` itself.  Every factorization is
    SuperLU's (``scipy.sparse.linalg.splu``) with diagonal pivots, which is
    stable for these symmetric positive definite matrices, in the
    nested-dissection order the cached system is built in, with no ordering
    step of its own; no factor outlives the call.  Raises ValueError unless b
    and c are finite and nonnegative with one of them positive (either alone
    gives an SPD system), and SolveError if a matrix to factor is singular or
    the relative residual of the reduced system ``b K + c M`` exceeds
    ``rel_tol``, which every call checks.
    """
    if not (np.isfinite(b) and np.isfinite(c) and min(b, c) >= 0.0 and max(b, c) > 0.0):
        raise ValueError(f"coefficients must be finite, nonnegative and not both zero, "
                         f"got b = {b}, c = {c}")
    system = _system(mesh)
    w = np.zeros(mesh.num_vertices)
    if len(system.dofs) == 0:
        return FeFunction(mesh, w)
    A = _csc(system, b * system.k + c * system.m)
    rhs = _load_vector(mesh, f)[system.dofs]
    scale, sigma = max(b, c), min(b, c) / max(b, c)
    kind, q = ("k", sigma / system.lam_lo) if b >= c else ("m", sigma * system.lam_hi)
    if q <= _Q:
        V = _basis(mesh, system, kind, f, b, c)
        j = _terms(q) if q > 0.0 else 1
        sol = V[j - 1]
        for k in range(j - 2, -1, -1):
            sol = V[k] - sigma * sol
        sol = sol / scale
    else:
        sol = _factor(A, b, c).solve(rhs)
    rhs_norm = np.linalg.norm(rhs)
    res = np.linalg.norm(A @ sol - rhs) / rhs_norm if rhs_norm > 0.0 else 0.0
    if not np.isfinite(res) or res > rel_tol:
        raise SolveError(f"relative residual {res:.3e} exceeds rel_tol {rel_tol:.1e}", residual=res)
    w[system.dofs] = sol
    return FeFunction(mesh, w)


_CHUNK = 16  # a source of fewer problems is multiplied out at the target, this many per gemm


class _Prolongation:
    """The sum T of the P1 prolongations onto ``target`` of functions on
    meshes that it refines, in one coarse-to-fine sweep.  A function on a
    mesh without the midpoint v of the forest edge (a, b) has, at v, the mean
    of its values at a and b (a cell of that mesh holds the edge), so
    T(v) = (T(a) + T(b)) / 2 plus the hierarchical surplus
    x(v) - (x(a) + x(b)) / 2 of every source x that has v.  Each source adds
    its surpluses to one accumulator (``add``), and ``result`` adds the
    parents' means, generation by generation."""

    def __init__(self, target, width):
        self.base, self.ids = target.base, target.ids
        # every mesh of the forest lists the same initial vertices first
        self.k = int(np.count_nonzero(self.ids < len(self.base.vertices)))
        self.at = np.full(len(self.base.xy), -1, dtype=np.int32)  # forest id -> target vertex
        self.at[self.ids] = np.arange(len(self.ids), dtype=np.int32)
        self.slot = np.empty(len(self.base.xy), dtype=np.int32)  # forest id -> source vertex
        self.acc, self.held = np.zeros((len(self.ids), width)), []

    def add(self, src, values, right):
        """Add the surpluses of ``values`` (n_src, L) on ``src`` (overwritten)
        times ``right`` (L, width): at the source's vertices for L >=
        ``_CHUNK``, else at the target's, one gemm per ``_CHUNK`` columns."""
        if src.base is not self.base:
            raise meshmod.MeshStructureError("meshes do not share an initial mesh")
        pos, k = np.take(self.at, src.ids), self.k
        if pos.min() < 0:  # a conforming mesh of bisections is fixed by its vertices
            raise meshmod.MeshStructureError("target mesh is not a refinement of the source")
        self.slot[src.ids] = np.arange(len(pos), dtype=np.int32)
        lo, hi = np.take(self.slot, np.take(self.base.parent, src.ids[k:], axis=0)).T
        values[k:] -= (np.take(values, lo, axis=0) + np.take(values, hi, axis=0)) / 2.0
        if len(right) >= _CHUNK:  # a take and a store: 2x faster than acc[pos] += ...
            self.acc[pos] = np.take(self.acc, pos, axis=0) + values @ right
            return
        if len(self.held) + len(right) > _CHUNK:
            self._flush()
        self.held += [(pos, column, w) for column, w in zip(values.T, right)]

    def _flush(self):
        block = np.zeros((len(self.held), len(self.ids)))
        for row, (pos, column, _) in zip(block, self.held):
            row[pos] = column
        self.acc += block.T @ np.reshape([w for *_, w in self.held], (len(block), -1))
        self.held = []

    def result(self):
        """The accumulator, completed in place: (n_target, width)."""
        if self.held:
            self._flush()
        ids, k, acc = self.ids, self.k, self.acc
        lo, hi = np.take(self.at, np.take(self.base.parent, ids[k:], axis=0)).T
        gen = np.take(self.base.generation, ids[k:])
        for g in range(1, int(gen.max(initial=0)) + 1):
            v = np.flatnonzero(gen == g)
            mean = (np.take(acc, lo[v], axis=0) + np.take(acc, hi[v], axis=0)) / 2.0
            acc[k + v] = np.take(acc, k + v, axis=0) + mean
        return acc


def transfer_p1(f, target):
    """Exact nodal transfer of a P1 function onto a refinement of its mesh:
    the one-source case of the union pass's sweep (``_Prolongation``);
    stacked (n, L) nodal values are transferred column by column."""
    src, nodal = f.mesh, f.nodal_values
    if src.same_mesh(target):
        return FeFunction(target, nodal.copy())
    values = nodal.reshape(len(nodal), -1).copy()
    sweep = _Prolongation(target, values.shape[1])
    sweep.add(src, values, np.eye(values.shape[1]))  # an exact product
    return FeFunction(target, sweep.result().reshape((-1,) + nodal.shape[1:]))


def _mesh_groups(states):
    """``(mesh, states)`` per distinct mesh, in order of first appearance;
    twins share one ``_cache`` (see ``mesh``), so they form one group."""
    groups = {}
    for st in states:
        groups.setdefault(id(st.mesh._cache), (st.mesh, []))[1].append(st)
    return list(groups.values())


def combine_on_union(scheme, states, union):
    """Fully discrete combination C * sum_l a_l w_l on the union mesh.

    States whose meshes share leaves are summed nodally, and every group
    reaches the union in one sweep (``_Prolongation``).
    """
    sweep = _Prolongation(union, 1)
    for m, group in _mesh_groups(states):
        partial = sum(scheme.a[st.index] * st.solution.nodal_values for st in group)
        sweep.add(m, partial[:, None], np.ones((1, 1)))
    return FeFunction(union, scheme.C * sweep.result()[:, 0])


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
