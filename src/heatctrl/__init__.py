"""Null-control synthesis and cost bounds for the 1D heat equation."""

from .biorthogonal import (
    BiorthogonalFamily,
    ControlSignal,
    assemble_control,
    biorthogonality_matrix,
    build_multiplier_family,
    gram_minimal_family,
)
from .entire import (
    ALPHA_2,
    GnEvaluator,
    MultiplierSpec,
    make_multiplier,
    sigma_star,
)
from .errors import (
    ConfigurationError,
    DegenerateInputError,
    HeatCtrlError,
    IllConditionedError,
    InvariantViolation,
    NumericError,
    TruncationError,
)
from .harness import CostReport, ExperimentConfig, bound_sandwich_report, cost_sweep
from .heatsim import (
    LowerBoundReport,
    ObservationRegion,
    Trajectory,
    evolve_free,
    heat_kernel_eval,
    lower_bound_experiment,
    observability_quotient,
    simulate_boundary_control,
    simulate_interior_control,
    terminal_states,
)
from .spectral import (
    AsymptoticsReport,
    HeatState,
    ParabolicProblem,
    ReductionSchedule,
    SpectralBasis,
    build_interval_basis,
    build_sturm_liouville_basis,
    reduce_to_canonical,
    verify_spectral_assumption,
)
from .transmute import (
    FundamentalControlledSolution,
    WaveControlledTrajectory,
    fit_cost_rate,
    fundamental_solution,
    kannai_residual,
    longest_avoiding_ray,
    transmute_control,
    two_end_control,
    wave_hum_control,
)

__version__ = "0.1.0"
