"""Second-order explicit integrator from chained Heun substeps, with a
five-compartment corruption-poverty model, verification problems, and
convergence/era-summary study harnesses."""

from .config import ConfigError, RunConfig, format_config, parse_config, preset_from_config
from .cpmodel import (
    CpParams,
    EraPreset,
    PRESET_LABELS,
    alpha_mismatch,
    conservation_residual,
    cp_rhs,
    effective_contact_rates,
    positivity_step_bound,
    preset,
)
from .manufactured import ManufacturedProblem, PROBLEM_LABELS, example1, example2, problem
from .numerics import (
    TimeGrid,
    Trajectory,
    as_state,
    build_grid,
    convergence_rate,
    discrete_l2_time_norm,
    era_starts,
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
    era_summary,
    run_convergence_study,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
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
    "TimeGrid",
    "Trajectory",
    "advance_one_step",
    "alpha_mismatch",
    "as_state",
    "build_grid",
    "composed_step",
    "conservation_residual",
    "convergence_rate",
    "cp_rhs",
    "discrete_l2_time_norm",
    "effective_contact_rates",
    "era_starts",
    "era_summary",
    "example1",
    "example2",
    "format_config",
    "heun_substep",
    "integrate",
    "parse_config",
    "positivity_step_bound",
    "preset",
    "preset_from_config",
    "problem",
    "run_convergence_study",
    "run_scenario",
    "sup_norm",
    "zero_stability_root_moduli",
    "zero_stability_roots",
]
