"""The adaptive Solve / Estimate / Mark / Refine loop.

The parametric reaction-diffusion problems are partitioned into clusters
that share one mesh: each problem alone in multimesh mode, all in one in
singlemesh and uniform mode.  Joint weighted bulk marking runs over all
(problem, cell) indicator pairs; a cluster with marks is refined once by the
union of its members' marks, and a cluster without carries its mesh,
solutions and indicators over without any recomputation.  Equal refinements
are separate mesh objects that share one build and its caches (see
``mesh``).  The union-mesh estimate, every ``k``-th iteration, gates the stop.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import estimators, fem, oracle, rational
from .mesh import DomainSpec, make_initial_mesh, refine, uniform_refine, union_mesh

__all__ = [
    "RunConfig",
    "IterationRecord",
    "RunResult",
    "doerfler_mark",
    "run",
    "decay_rate",
]

_INITIAL_CELLS = {"square": 512, "unit-square": 512, "lshape": 384}

# bulk marking stops once the marked share reaches theta * total minus this
# fraction of the total, so that rounding in the cumulative sum cannot demand
# one mark more than the exact sum would
MARKING_SLACK = 1e-14


@dataclass
class RunConfig:
    s: float
    domain: DomainSpec
    f: fem.RhsField
    theta: float = 0.5
    tol: float = 1e-4
    k: int = 1
    kappa: float = 0.26  # None selects kappa from the tolerance
    max_iterations: int = 60
    mode: str = "multimesh"  # "multimesh", "singlemesh", or "uniform"
    initial_cells: int = None

    def __post_init__(self):
        if not (0.0 < self.theta <= 1.0):
            raise ValueError("theta must lie in (0, 1]")
        if not 0.0 < self.tol < np.inf:  # a NaN fails this too
            raise ValueError("tol must be finite and positive")
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be a positive integer")
        if self.mode not in ("multimesh", "singlemesh", "uniform"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.initial_cells is None:
            self.initial_cells = _INITIAL_CELLS[self.domain.kind]


@dataclass
class IterationRecord:
    m: int
    solved_problems: int
    totcost: int
    cumcost: int
    total_dofs: int
    union_dofs: int = None
    eta_triangle: float = None
    eta_union: float = None
    error_ref: float = None
    effectivity: float = None
    wall_time: float = 0.0


@dataclass
class RunResult:
    records: list
    solution: fem.FeFunction
    union: object
    states: list
    scheme: rational.RationalScheme
    # "tol" (eta_union < tol), "max-iter", or "converged" (marking marked no
    # cell: every indicator is zero, or their bulk target underflows to zero)
    stopped: str
    refine_counts: np.ndarray
    solve_counts: np.ndarray
    solved_per_iter: list = field(default_factory=list)
    # the problems refined at each iteration, not the cells marked: two runs
    # that mark different cells of the same problems compare equal here, and
    # only the final ``cell_key`` arrays of the states tell them apart
    marked_per_iter: list = field(default_factory=list)


def _partition_at(vals, kth):
    """The (kth + 1)-th smallest entry of ``vals``, by an in-place partition
    that leaves ``vals`` in partitioned order."""
    vals.partition(kth)
    return vals[kth]


def _pool(pooled, scheme, out):
    """Write the (a_l * eta_{l,K})^2 of the states ``pooled`` into ``out``, one
    state after the other."""
    lo = 0
    for st in pooled:
        seg = out[lo : lo + len(st.indicators)]
        np.square(np.multiply(scheme.a[st.index], st.indicators, out=seg), out=seg)
        lo += len(seg)
    return out


def doerfler_mark(states, scheme, theta):
    """Joint weighted bulk marking of minimal cumulative cardinality.

    All (a_l * eta_{l,K})^2 are pooled in ascending (l, cell id) order and
    stably sorted in decreasing order, so ties go to the smaller (l, cell id);
    the shortest prefix reaching the theta fraction of the total is marked.
    Only the values at or above the k-th largest are sorted, with k doubled
    until their partial sums reach the target: they are the sort's first
    entries, in its order, so prefix and partial sums are those of the full
    sort.  The pool is one array, written in place state by state; each k-th
    largest comes from partitioning that array in place (its value does not
    depend on the order), and the array is written again from the indicators
    before the values at or above it are found and sorted, so the call holds
    one pool-sized float array.  Returns one cell-id set per state, in the
    order of ``states``.
    """
    for st in states:
        if st.dirty:
            raise ValueError(f"state {st.index} has stale indicators")
    by_index = sorted(range(len(states)), key=lambda i: states[i].index)
    pooled = [states[i] for i in by_index]
    offsets = np.cumsum([0] + [len(st.indicators) for st in pooled])
    vals = _pool(pooled, scheme, np.empty(offsets[-1]))
    total = vals.sum()
    target = theta * total - MARKING_SLACK * total
    marks = [set() for _ in states]
    if target <= 0.0:  # the empty prefix reaches it, also when it underflows
        return marks
    n, k = len(vals), max(1, len(vals) >> 5)
    while True:
        kth = _partition_at(vals, n - k)
        top = np.flatnonzero(_pool(pooled, scheme, vals) >= kth)
        order = top[np.argsort(-vals[top], kind="stable")]
        cumsum = np.cumsum(vals[order])
        if cumsum[-1] >= target or len(top) == n:
            break
        k = min(2 * len(top), n)
    del vals  # the mark sets are built without the pool
    take = int(np.searchsorted(cumsum, target)) + 1
    picked = np.sort(order[:take])
    cuts = np.searchsorted(picked, offsets)
    for i, lo, hi, offset in zip(by_index, cuts[:-1], cuts[1:], offsets):
        marks[i] = set((picked[lo:hi] - offset).tolist())
    return marks


def decay_rate(records, window=15, estimate="eta_union"):
    """Minus the slope of log(estimate) vs log(union dofs) over the last
    ``window`` records that carry estimates.

    The abscissa is the union-space dimension, not the total dof count (sum
    over all parametric problems): at small scale that is dominated by the
    fixed cost of the many never-refined problems, which inflates the
    apparent rate, so the union dimension is the comparable one.
    """
    if window < 2:
        raise ValueError(f"a decay rate needs a window of at least 2 records, got {window}")
    est = [r for r in records if r.eta_union is not None]
    if len(est) < window:
        raise ValueError(f"need at least {window} records with estimates, got {len(est)}")
    est = est[-window:]
    x = np.log([r.union_dofs for r in est])
    y = np.log([getattr(r, estimate) for r in est])
    slope = np.polyfit(x, y, 1)[0]
    return -float(slope)


def _problem(scheme, l):
    return f"problem l = {l} (b_l = {scheme.b[l]:.6g}, c_l = {scheme.c[l]:.6g})"


def _estimate(states, scheme, f):
    """Set the indicators of the solved ``states`` that are still dirty, in
    one stacked ``local_indicators`` call per mesh, and check that every
    state's indicators are finite."""
    for mesh, group in fem._mesh_groups([st for st in states if st.dirty]):
        l = [st.index for st in group]
        w = fem.FeFunction(mesh, np.stack([st.solution.nodal_values for st in group], axis=1))
        eta = estimators.local_indicators(mesh, w, scheme.b[l], scheme.c[l], f)
        for st, col in zip(group, eta.T):
            st.indicators, st.dirty = col, False
    for st in states:
        if not np.all(np.isfinite(st.indicators)):
            raise ValueError(f"non-finite error indicator for {_problem(scheme, st.index)}")


def run(config, reference=None, on_checkpoint=None):
    """Execute the adaptive loop and return a RunResult.

    ``reference`` is an optional SpectralSolution used to log the true L2
    error and the effectivity of the union estimate at checkpoints.
    ``on_checkpoint(m, states, union, solution)`` is called at every
    checkpoint after the estimates are recorded.
    """
    cfg = config
    lam0 = oracle.faber_krahn_lambda0(cfg.domain)
    mesh0 = make_initial_mesh(cfg.domain, cfg.initial_cells)
    kappa = cfg.kappa
    if kappa is None:
        kappa = rational.choose_kappa(cfg.s, cfg.tol, lam0, fem.l2_norm(cfg.f, mesh0))
    scheme = rational.bp_coefficients(cfg.s, kappa, lam0)
    states = [fem.ParametricState(index=l, mesh=mesh0) for l in range(scheme.N)]
    poles = list(range(scheme.N))
    clusters = [[l] for l in poles] if cfg.mode == "multimesh" else [poles]
    solve_counts = np.zeros(scheme.N, dtype=int)
    refine_counts = np.zeros(scheme.N, dtype=int)

    records = []
    solved_per_iter = []
    marked_per_iter = []
    cumcost = 0
    stopped = "max-iter"

    for m in range(cfg.max_iterations):
        t0 = time.perf_counter()
        dirty = [st for st in states if st.dirty]
        # one mesh group at a time, so that the solve phase holds one FE system
        for mesh, group in fem._mesh_groups(dirty):
            for st in group:
                b, c = scheme.b[st.index], scheme.c[st.index]
                try:
                    st.solution = fem.assemble_and_solve(st.mesh, b, c, cfg.f)
                except fem.SolveError as exc:
                    msg = f"{_problem(scheme, st.index)}: {exc}"
                    raise fem.SolveError(msg, exc.residual) from exc
                except ValueError as exc:
                    raise ValueError(f"{_problem(scheme, st.index)}: {exc}") from exc
                solve_counts[st.index] += 1
            mesh._cache.clear()  # the group's FE system, loads and bases
        solved_per_iter.append(sorted(st.index for st in dirty))

        totcost = sum(st.mesh.num_interior_vertices for st in dirty)
        cumcost += totcost
        total_dofs = sum(st.mesh.num_interior_vertices for st in states)
        rec = IterationRecord(
            m=m,
            solved_problems=len(dirty),
            totcost=totcost,
            cumcost=cumcost,
            total_dofs=total_dofs,
        )

        # iteration 0 is a checkpoint, so union and solution are always set
        checkpoint = m % cfg.k == 0
        if checkpoint:
            # when every state shares one mesh, the union is that mesh; the
            # union pass estimates the dirty states that live on the union
            union = union_mesh([st.mesh for st in states])
            rec.eta_union, solution = estimators.global_union_estimate(scheme, states, union, cfg.f)
        _estimate(dirty, scheme, cfg.f)  # a non-finite indicator is named first
        if checkpoint:
            if not (np.isfinite(rec.eta_union) and np.isfinite(solution.nodal_values).all()):
                raise ValueError(f"non-finite union estimate or recombined solution at m = {m}")
            rec.eta_triangle = estimators.global_triangle_estimate(scheme, states)
            rec.union_dofs = union.num_interior_vertices
            if reference is not None:
                rec.error_ref = oracle.l2_error(reference, solution)
                rec.effectivity = oracle.effectivity(rec.eta_union, rec.error_ref)
            if on_checkpoint is not None:
                on_checkpoint(m, states, union, solution)
        records.append(rec)
        if checkpoint and rec.eta_union < cfg.tol:
            stopped = "tol"
            break
        if m == cfg.max_iterations - 1:
            break

        if cfg.mode != "uniform":
            marks = doerfler_mark(states, scheme, cfg.theta)
            if not any(marks):
                stopped = "converged"
                break
        # a cluster with marks is refined once by the union of its members' marks
        # (uniform mode refines every cluster); its members move to the new mesh
        for cluster in clusters:
            if cfg.mode == "uniform":
                new = uniform_refine(states[cluster[0]].mesh)
            elif any(marks[l] for l in cluster):
                new = refine(states[cluster[0]].mesh, set().union(*(marks[l] for l in cluster)))
            else:
                continue
            for st in (states[l] for l in cluster):
                st.mesh, st.dirty, st.solution, st.indicators = new, True, None, None
            refine_counts[cluster] += 1
        marks = new = None  # no spent mark set is carried through the next iteration
        marked_per_iter.append([st.index for st in states if st.dirty])
        rec.wall_time = time.perf_counter() - t0

    # every run ends in a break, which skips the two lines above
    rec.wall_time = time.perf_counter() - t0
    marked_per_iter.append([])
    return RunResult(
        records=records,
        solution=solution,
        union=union,
        states=states,
        scheme=scheme,
        stopped=stopped,
        refine_counts=refine_counts,
        solve_counts=solve_counts,
        solved_per_iter=solved_per_iter,
        marked_per_iter=marked_per_iter,
    )
