"""Adaptive multimesh finite elements for the spectral fractional Laplacian.

The fractional problem (-Laplace)^s u = f with homogeneous Dirichlet data is
replaced by N independent reaction-diffusion problems via a rational
approximation of lambda**(-s).  Each problem gets its own adaptively refined
mesh; a hierarchical estimator drives joint bulk marking, and the parametric
solutions are recombined on the exact overlay (union) of all meshes.
"""

from .driver import RunConfig, RunResult, decay_rate, doerfler_mark, run
from .estimators import (
    combined_equal_mesh_estimate,
    global_triangle_estimate,
    global_union_estimate,
    local_indicators,
)
from .fem import (
    FeFunction,
    ParametricState,
    RhsField,
    SolveError,
    assemble_and_solve,
    combine_on_union,
    l2_norm,
    transfer_p1,
)
from .mesh import (
    DomainSpec,
    MeshStructureError,
    TriMesh,
    is_refinement_of,
    make_initial_mesh,
    read_mesh,
    refine,
    uniform_refine,
    union_mesh,
    write_mesh,
)
from .oracle import (
    SpectralSolution,
    effectivity,
    eigenfunction_field,
    eigenfunction_reference,
    faber_krahn_lambda0,
    l2_error,
    spectral_reference,
)
from .rational import (
    KappaSelectionError,
    RationalScheme,
    bp_coefficients,
    choose_kappa,
    epsilon_bound,
    eval_Q,
)

__version__ = "0.1.0"

__all__ = [
    "RunConfig",
    "RunResult",
    "decay_rate",
    "doerfler_mark",
    "run",
    "combined_equal_mesh_estimate",
    "global_triangle_estimate",
    "global_union_estimate",
    "local_indicators",
    "FeFunction",
    "ParametricState",
    "RhsField",
    "SolveError",
    "assemble_and_solve",
    "combine_on_union",
    "l2_norm",
    "transfer_p1",
    "DomainSpec",
    "MeshStructureError",
    "TriMesh",
    "is_refinement_of",
    "make_initial_mesh",
    "read_mesh",
    "refine",
    "uniform_refine",
    "union_mesh",
    "write_mesh",
    "SpectralSolution",
    "effectivity",
    "eigenfunction_field",
    "eigenfunction_reference",
    "faber_krahn_lambda0",
    "l2_error",
    "spectral_reference",
    "KappaSelectionError",
    "RationalScheme",
    "bp_coefficients",
    "choose_kappa",
    "epsilon_bound",
    "eval_Q",
    "__version__",
]
