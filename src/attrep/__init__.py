"""Finite-volume simulator and analytic-bounds toolkit for an
attraction-repulsion chemotaxis system with sublinear signal production."""

from .bounds import (
    BoundsReport,
    compute_bounds,
    critical_mass,
    estimate_ehrling_constant,
    estimate_gn_constant,
)
from .config import ExperimentConfig, from_dict, load_config
from .diagnostics import (
    DiagnosticsConfig,
    DiagnosticsRecord,
    check_absorptive_bound,
    check_energy_inequality,
    sample,
    write_diagnostics_csv,
)
from .elliptic import solve_helmholtz, solve_signals
from .grid import (
    Field,
    grad_energy,
    integrate,
    lp_norm_p,
    neumann_laplacian_apply,
    read_field_csv,
    write_field_csv,
)
from .model import (
    BumpSpec,
    DomainSpec,
    InitialData,
    ModelParams,
    Regime,
    RegimeResult,
    build_initial_data,
    classify_regime,
)
from .stepper import (
    RunResult,
    SimState,
    Status,
    StepperConfig,
    initial_state,
    run,
    stable_dt,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "BumpSpec",
    "DiagnosticsConfig",
    "DiagnosticsRecord",
    "DomainSpec",
    "ExperimentConfig",
    "Field",
    "InitialData",
    "ModelParams",
    "Regime",
    "RegimeResult",
    "RunResult",
    "SimState",
    "Status",
    "StepperConfig",
    "build_initial_data",
    "check_absorptive_bound",
    "check_energy_inequality",
    "classify_regime",
    "compute_bounds",
    "critical_mass",
    "estimate_ehrling_constant",
    "estimate_gn_constant",
    "from_dict",
    "grad_energy",
    "initial_state",
    "integrate",
    "load_config",
    "lp_norm_p",
    "neumann_laplacian_apply",
    "read_field_csv",
    "run",
    "sample",
    "solve_helmholtz",
    "solve_signals",
    "stable_dt",
    "step",
    "write_diagnostics_csv",
    "write_field_csv",
]
