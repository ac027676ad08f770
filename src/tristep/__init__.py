"""Second-order explicit integrator from chained Heun substeps, with a
five-compartment corruption-poverty model, verification problems, and
convergence/era-summary study harnesses."""

from .config import ConfigError, RunConfig, format_config, parse_config, preset_from_config
from .cpmodel import (
    CompartmentState,
    CpParams,
    EraPreset,
    PRESET_LABELS,
    alpha_mismatch,
    conservation_residual,
    cp_rhs,
    effective_contact_rates,
    preset,
)
from .manufactured import ManufacturedProblem, PROBLEM_LABELS, example1, example2, problem
from .numerics import (
    StateVector,
    TimeGrid,
    Trajectory,
    as_state,
    build_grid,
    convergence_rate,
    discrete_l2_time_norm,
    era_indices,
    sup_norm,
)
from .scheme import (
    NumericalBlowupError,
    RhsField,
    SignConvention,
    advance_one_step,
    composed_step,
    heun_substep,
    integrate,
    zero_stability_root_moduli,
    zero_stability_roots,
)
from .studies import (
    ConvergenceRow,
    EraSummaryRow,
    compute_corrupted_total,
    era_summary,
    run_convergence_study,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "CompartmentState",
    "ConfigError",
    "ConvergenceRow",
    "CpParams",
    "EraPreset",
    "EraSummaryRow",
    "ManufacturedProblem",
    "NumericalBlowupError",
    "PRESET_LABELS",
    "PROBLEM_LABELS",
    "RhsField",
    "RunConfig",
    "SignConvention",
    "StateVector",
    "TimeGrid",
    "Trajectory",
    "advance_one_step",
    "alpha_mismatch",
    "as_state",
    "build_grid",
    "composed_step",
    "compute_corrupted_total",
    "conservation_residual",
    "convergence_rate",
    "cp_rhs",
    "discrete_l2_time_norm",
    "effective_contact_rates",
    "era_indices",
    "era_summary",
    "example1",
    "example2",
    "format_config",
    "heun_substep",
    "integrate",
    "parse_config",
    "preset",
    "preset_from_config",
    "problem",
    "run_convergence_study",
    "run_scenario",
    "sup_norm",
    "zero_stability_root_moduli",
    "zero_stability_roots",
]
