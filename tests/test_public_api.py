"""The package's public names, pinned so that adding or removing one shows
up as a diff of this test, and its runtime imports."""

import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

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


# The stepping API as its users call it: a state is its density, clock and
# the dt of the step that made it, and no entry point takes or returns a
# stored drift or its face drops; step forms its own bound. A sample reads its
# exponents and bounds from a DiagnosticsConfig.
SIM_STATE_FIELDS = ["u", "t", "step", "status", "dt"]
SIM_STATE_SIGNATURE = "(u: 'Field', t: 'float', step: 'int', status: 'Status', dt: 'float' = 0.0) -> None"
STEPPING_SIGNATURES = {
    "sample": "(state: 'SimState', params: 'ModelParams', diagnostics: 'DiagnosticsConfig') -> 'DiagnosticsRecord'",
    "initial_state": "(u0: 'Field', params: 'ModelParams') -> 'SimState'",
    "stable_dt": "(state: 'SimState', params: 'ModelParams', cfg: 'StepperConfig') -> 'float'",
    "step": "(state: 'SimState', params: 'ModelParams', cfg: 'StepperConfig', dt: 'float | None' = None) -> 'SimState'",
    "run": (
        "(state: 'SimState', params: 'ModelParams', cfg: 'StepperConfig', t_end: 'float', *, "
        "diagnostics: 'DiagnosticsConfig | None' = None, blowup_threshold: 'float | None' = None, "
        "steady_tol: 'float' = 1e-10, on_state=None) -> 'RunResult'"
    ),
}


def test_stepping_api_pinned():
    assert [f.name for f in dataclasses.fields(attrep.SimState)] == SIM_STATE_FIELDS
    assert str(inspect.signature(attrep.SimState)) == SIM_STATE_SIGNATURE
    for name, signature in STEPPING_SIGNATURES.items():
        assert str(inspect.signature(getattr(attrep, name))) == signature, name


# Imports the package and its CLI, then steps a grid past the matrix-product
# cutoff under both schemes and reads its signals.
_WITHOUT_SCIPY = """
import sys
import numpy as np
import attrep, attrep.cli
from attrep import DomainSpec, Field, ModelParams, StepperConfig, initial_state, solve_signals, step
dom = DomainSpec((1.0, 1.0), (72, 72))
params = ModelParams(1.0, 1.0, 1.0, 1.0, chi=1.0, xi=1.0, rho=0.5)
u = Field(1.0 + np.random.default_rng(0).uniform(size=dom.cells), dom)
for scheme in ("explicit-upwind", "imex-diffusion"):
    solve_signals(step(initial_state(u, params), params, StepperConfig(scheme=scheme)).u, params)
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""


def test_runs_without_scipy():
    # scipy is a test oracle only; a fresh interpreter never loads it.
    src = Path(attrep.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert done.stdout.strip() == "[]"
