"""The adaptive Solve / Estimate / Mark / Refine loop.

One independently refined mesh is kept per parametric reaction-diffusion
problem.  Marking is joint weighted bulk marking over the union of all
(problem, cell) indicator pairs; problems whose mark set comes back empty
carry their mesh, solution and indicators over to the next iteration without
any recomputation.  The union-mesh estimate gates the stopping criterion and
is computed every ``k``-th iteration.
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
    # "tol" (eta_union < tol), "max-iter", or "converged" (marking found no
    # cell with a nonzero indicator)
    stopped: str
    refine_counts: np.ndarray
    solve_counts: np.ndarray
    estimate_counts: np.ndarray
    solved_per_iter: list = field(default_factory=list)
    # the problems refined at each iteration, not the cells marked: two runs
    # that mark different cells of the same problems compare equal here, and
    # only the final ``cell_key`` arrays of the states tell them apart
    marked_per_iter: list = field(default_factory=list)


def doerfler_mark(states, scheme, theta):
    """Joint weighted bulk marking of minimal cumulative cardinality.

    All (a_l * eta_{l,K})^2 are pooled, sorted in decreasing order (ties
    broken by ascending (l, cell id)) and the shortest prefix reaching the
    theta fraction of the total is marked.  Returns one cell-id set per state.
    """
    ls = []
    ks = []
    vals = []
    for st in states:
        if st.dirty:
            raise ValueError(f"state {st.index} has stale indicators")
        n = len(st.indicators)
        ls.append(np.full(n, st.index))
        ks.append(np.arange(n))
        vals.append((scheme.a[st.index] * st.indicators) ** 2)
    ls = np.concatenate(ls)
    ks = np.concatenate(ks)
    vals = np.concatenate(vals)
    total = vals.sum()
    marks = [set() for _ in states]
    if total <= 0.0:
        return marks
    order = np.lexsort((ks, ls, -vals))
    cum = np.cumsum(vals[order])
    take = int(np.searchsorted(cum, theta * total - MARKING_SLACK * total) + 1)
    take = min(take, len(order))
    pos = {st.index: i for i, st in enumerate(states)}
    for idx in order[:take]:
        marks[pos[int(ls[idx])]].add(int(ks[idx]))
    return marks


def decay_rate(records, window=15, estimate="eta_union", abscissa="union_dofs"):
    """Minus the slope of log(estimate) vs log(dofs) over the last ``window``
    records that carry estimates.

    The default abscissa is the union-space dimension.  The total dof count
    (sum over all parametric problems) is also available; at small scale it is
    dominated by the fixed cost of the many never-refined problems, which
    inflates the apparent rate, so the union dimension is the comparable one.
    """
    est = [r for r in records if r.eta_union is not None]
    if len(est) < window:
        raise ValueError(f"need at least {window} records with estimates, got {len(est)}")
    est = est[-window:]
    x = np.log([getattr(r, abscissa) for r in est])
    y = np.log([getattr(r, estimate) for r in est])
    slope = np.polyfit(x, y, 1)[0]
    return -float(slope)


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
    if cfg.kappa is not None:
        kappa = cfg.kappa
    else:
        f_norm = fem.l2_norm(cfg.f, mesh0)
        kappa = rational.choose_kappa(cfg.s, cfg.tol, lam0, f_norm)
    scheme = rational.bp_coefficients(cfg.s, kappa, lam0)
    states = [fem.ParametricState(index=l, mesh=mesh0) for l in range(scheme.N)]
    solve_counts = np.zeros(scheme.N, dtype=int)
    estimate_counts = np.zeros(scheme.N, dtype=int)
    refine_counts = np.zeros(scheme.N, dtype=int)

    records = []
    solved_per_iter = []
    marked_per_iter = []
    cumcost = 0
    stopped = "max-iter"

    for m in range(cfg.max_iterations):
        t0 = time.perf_counter()
        dirty = [st for st in states if st.dirty]
        for st in dirty:
            b, c = scheme.b[st.index], scheme.c[st.index]
            st.solution = fem.assemble_and_solve(st.mesh, b, c, cfg.f)
            st.indicators = estimators.local_indicators(st.mesh, st.solution, b, c, cfg.f)
            if not np.all(np.isfinite(st.indicators)):
                raise ValueError(
                    f"non-finite error indicator for problem l = {st.index} "
                    f"(b_l = {b:.6g}, c_l = {c:.6g})"
                )
            st.dirty = False
            solve_counts[st.index] += 1
            estimate_counts[st.index] += 1
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
            # when every state shares one mesh, the union is that mesh
            union = union_mesh([st.mesh for st in states])
            rec.eta_union = estimators.global_union_estimate(scheme, states, union, cfg.f)
            rec.eta_triangle = estimators.global_triangle_estimate(scheme, states)
            rec.union_dofs = union.num_interior_vertices
            solution = fem.combine_on_union(scheme, states, union)
            if reference is not None:
                rec.error_ref = oracle.l2_error(reference, solution)
                rec.effectivity = oracle.effectivity(rec.eta_union, rec.error_ref)
            if on_checkpoint is not None:
                on_checkpoint(m, states, union, solution)
        rec.wall_time = time.perf_counter() - t0
        records.append(rec)
        if checkpoint and rec.eta_union < cfg.tol:
            stopped = "tol"
            marked_per_iter.append([])
            break

        if m == cfg.max_iterations - 1:
            marked_per_iter.append([])
            break

        if cfg.mode == "multimesh":
            marks = doerfler_mark(states, scheme, cfg.theta)
            if not any(marks):
                stopped = "converged"
                marked_per_iter.append([])
                break
            marked = []
            for st, mk in zip(states, marks):
                if mk:
                    st.mesh = refine(st.mesh, mk)
                    st.dirty = True
                    st.solution = None
                    st.indicators = None
                    refine_counts[st.index] += 1
                    marked.append(st.index)
            marked_per_iter.append(marked)
            continue

        # singlemesh and uniform: every problem moves to one new shared mesh
        if cfg.mode == "uniform":
            new_mesh = uniform_refine(states[0].mesh)
        else:
            joint = set().union(*doerfler_mark(states, scheme, cfg.theta))
            if not joint:
                stopped = "converged"
                marked_per_iter.append([])
                break
            new_mesh = refine(states[0].mesh, joint)
        for st in states:
            st.mesh = new_mesh
            st.dirty = True
        refine_counts += 1
        marked_per_iter.append([st.index for st in states])

    return RunResult(
        records=records,
        solution=solution,
        union=union,
        states=states,
        scheme=scheme,
        stopped=stopped,
        refine_counts=refine_counts,
        solve_counts=solve_counts,
        estimate_counts=estimate_counts,
        solved_per_iter=solved_per_iter,
        marked_per_iter=marked_per_iter,
    )
