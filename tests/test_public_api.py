"""The package's public names, pinned so that adding or removing one shows
up as a diff of this test."""

import attrep

PUBLIC_NAMES = [
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
    "initial_state",
    "integrate",
    "load_config",
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


def test_public_names_pinned():
    assert sorted(attrep.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(attrep, name), name
