"""Interior-layer asymptotics and source recovery for a 2D singularly
perturbed reaction-diffusion-advection model, plus the AER inversion
pipeline that recovers the source term from a noisy snapshot."""

from .asymptotics import (
    AssumptionReport,
    FrontCurve,
    ProblemSpec,
    assemble_u0,
    check_assumption1,
    check_assumption2,
    eval_phi,
    eval_q0,
    eval_u1,
    initial_condition,
    outer_branches,
    solve_front,
    transition_width,
)
from .errors import (
    AerError,
    AssumptionViolation,
    ConfigError,
    DiscrepancyUnreachable,
    ExprError,
    LayerTooWide,
    NumericalError,
    SolverBlowUp,
    ZeroNormError,
)
from .expr import Expr, parse
from .forward import SolverConfig, forward_solve
from .grid import (
    Field2D,
    Grid2D,
    RegionMask,
    l2_norm,
    rel_l2_error,
)
from .inverse import (
    Observation,
    PipelineResult,
    Prepared,
    ReconstructionResult,
    RegionSmoothing,
    layer_band,
    make_observation,
    prepare,
    reconstruct_source,
    run_aer_pipeline,
    smooth_region,
    smoothing_factors,
)

__version__ = "0.1.0"
