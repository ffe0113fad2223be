"""Seeded workloads: inputs, the one timed call, and the output checks.

Inputs are made here from the seed with the standard library only, so the
runner can build them without importing numpy. The program receives only the
generated config (or initial-data spec); `prepare`, `call` and `check` run in
a fresh child interpreter after `attrep` is importable.

Why each workload exists (also recorded in BENCHMARK.json):

* explicit-256: `attrep.run`, explicit-upwind at 256^2. The diffusive dt
  bound binds, so the step count is fixed by t_end. Transforms and the
  stepper dominate and each field (512 KB) outgrows L2, so spectral-step and
  flux-kernel changes show here.
* imex-cli-128: `sim simulate` with the acceptance-criterion-4 physics
  (imex-diffusion, 128^2, chi = 5, xi = 0.1, rho = 1/2, mass 100). The
  advective CFL sets dt, so the step count is a result. Runs the whole
  pipeline: config, bounds estimate, implicit diffusion, outputs.
* diag-io-64: `sim simulate`, explicit, 64^2, a sample every step at three
  exponents and a density snapshot every 20 steps. Diagnostics, CSV writing
  and per-step Python overhead dominate; it bypasses spectral changes.
* sweep-64: `sim sweep` over initial.mass at rho = 1 with two workers. The
  only workload that runs the process pool, the per-point summaries and the
  blow-up early exit.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

FOUR_PI = 4.0 * math.pi

# Output contract every completed run must meet (README, acceptance suite).
MAX_DRIFT = 1e-10
MIN_DENSITY_RATIO = -1e-13
MIN_FRACTION_OK = 0.95

UNIT_PARAMS = {"alpha": 1.0, "beta": 1.0, "gamma": 1.0, "delta": 1.0}


def _explicit_t_end(cells: int, steps: int, cfl_safety: float) -> float:
    """t_end that the explicit stepper reaches in exactly `steps` steps when
    the diffusive bound cfl_safety * h^2 / 4 binds; the half step keeps the
    count clear of rounding in the accumulated time."""
    h = 1.0 / cells
    return (steps - 0.5) * cfl_safety * h * h / 4.0


def _bumps(rng: random.Random, anchors, jitter: float, width: float, width_jitter: float, amp_jitter: float):
    """Gaussian bumps near fixed anchors; the seed moves centres, widths and
    amplitudes a little so every seed gives the same outcome class."""
    return [
        {
            "center": [ax + rng.uniform(-jitter, jitter), ay + rng.uniform(-jitter, jitter)],
            "width": width + rng.uniform(-width_jitter, width_jitter),
            "amplitude": 1.0 + rng.uniform(-amp_jitter, amp_jitter),
        }
        for ax, ay in anchors
    ]


def _explicit_256(rng: random.Random) -> dict:
    cells = 256
    return {
        "entry": "run",
        "cells": cells,
        "domain": {"lengths": [1.0, 1.0], "cells": [cells, cells]},
        "params": dict(UNIT_PARAMS, chi=1.0, xi=1.0, rho=0.5),
        "initial": {
            "kind": "multi-bump",
            "bumps": _bumps(rng, [(0.3, 0.35), (0.65, 0.3), (0.5, 0.7)], 0.05, 0.08, 0.01, 0.2),
            "mass": 3.0,
        },
        "stepper": {"scheme": "explicit-upwind", "cfl_safety": 0.4, "dt_max": 0.01},
        "t_end": _explicit_t_end(cells, 300, 0.4),
        "diagnostics": {"p": [2.0], "every": 100},
        "expect": {"status": "Completed"},
    }


def _imex_cli_128(rng: random.Random) -> dict:
    cells = 128
    config = {
        "domain": {"lengths": [1.0, 1.0], "cells": [cells, cells]},
        "params": dict(UNIT_PARAMS, chi=5.0, xi=0.1, rho=0.5, dim=2),
        "initial": {
            "kind": "multi-bump",
            "bumps": _bumps(rng, [(0.45, 0.47), (0.55, 0.53)], 0.002, 0.05, 0.0005, 0.01),
            "mass": 100.0,
        },
        # dt_max stays above every CFL step, so the advective bound sets dt
        # throughout; by t = 0.4 the step count varies by a few % over seeds.
        "stepper": {"scheme": "imex-diffusion", "cfl_safety": 0.25, "dt_max": 0.01},
        "diagnostics": {"p": [2.0, 1.5], "sample_every": 25},
        "bounds": {"p": 1.5},
        "outputs": {"snapshot_every": 0},
        "t_end": 0.4,
    }
    return {
        "entry": "simulate",
        "cells": cells,
        "config": config,
        "expect": {"status": "Completed", "exit": 0, "bounds": True},
    }


def _diag_io_64(rng: random.Random) -> dict:
    cells = 64
    config = {
        "domain": {"lengths": [1.0, 1.0], "cells": [cells, cells]},
        "params": dict(UNIT_PARAMS, chi=1.0, xi=1.0, rho=0.5, dim=2),
        "initial": {
            "kind": "multi-bump",
            "bumps": _bumps(rng, [(0.35, 0.5), (0.65, 0.5)], 0.05, 0.1, 0.01, 0.2),
            "mass": 3.0,
        },
        "stepper": {"scheme": "explicit-upwind", "cfl_safety": 0.4, "dt_max": 0.01},
        "diagnostics": {"p": [2.0, 1.5, 3.0], "sample_every": 1},
        "bounds": {"p": 1.5},
        "outputs": {"snapshot_every": 20},
        "t_end": _explicit_t_end(cells, 1000, 0.4),
    }
    return {
        "entry": "simulate",
        "cells": cells,
        "config": config,
        "expect": {"status": "Completed", "exit": 0, "bounds": True, "snapshot_every": 20},
    }


# Sweep masses as multiples of the critical mass 4 pi / (chi alpha - xi gamma)
# = 4 pi, far enough on each side that the outcome does not depend on the seed.
SWEEP_MASS_FACTORS = (0.25, 0.5, 3.0, 4.0)


def _sweep_64(rng: random.Random) -> dict:
    cells = 64
    masses = [f * FOUR_PI for f in SWEEP_MASS_FACTORS]
    config = {
        "domain": {"lengths": [1.0, 1.0], "cells": [cells, cells]},
        "params": dict(UNIT_PARAMS, chi=2.0, xi=1.0, rho=1.0, dim=2),
        "initial": {
            "kind": "gaussian-bump",
            "amplitude": 1.0,
            "center": [0.5 + rng.uniform(-0.03, 0.03), 0.5 + rng.uniform(-0.03, 0.03)],
            "width": 0.08 + rng.uniform(-0.005, 0.005),
            "mass": masses[0],
        },
        "stepper": {"scheme": "explicit-upwind", "cfl_safety": 0.4, "dt_max": 0.01},
        "diagnostics": {"p": [2.0], "sample_every": 20},
        "sweep": {"axis": "initial.mass", "values": masses},
        "t_end": 0.05,
        "blowup_threshold": 5000.0,
        "workers": 2,
    }
    observed = ["bounded" if f < 1.0 else "blowup" for f in SWEEP_MASS_FACTORS]
    return {
        "entry": "sweep",
        "cells": cells,
        "config": config,
        "expect": {"exit": 0, "observed": observed},
    }


SPEC_MAKERS = {
    "explicit-256": _explicit_256,
    "imex-cli-128": _imex_cli_128,
    "diag-io-64": _diag_io_64,
    "sweep-64": _sweep_64,
}

DEFAULT_SEED = 1
HELD_OUT_SEED = 2


def make_spec(workload: str, seed: int) -> dict:
    """The JSON-serialisable inputs of one workload for one seed."""
    if workload not in SPEC_MAKERS:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(SPEC_MAKERS)}")
    spec = SPEC_MAKERS[workload](random.Random(f"{workload}/{seed}"))
    spec["workload"] = workload
    spec["seed"] = seed
    return spec


# ---------------------------------------------------------------------------
# The parts below run in the child, after `import attrep`.
# ---------------------------------------------------------------------------


def prepare(spec: dict, work_dir: Path):
    """Set-up that a user pays before the timed call. For `run` this builds
    the initial data and state; for the CLI it writes the config file."""
    if spec["entry"] == "run":
        import attrep

        dom = attrep.DomainSpec(tuple(spec["domain"]["lengths"]), tuple(spec["domain"]["cells"]))
        params = attrep.ModelParams(**spec["params"])
        ini = spec["initial"]
        initial = attrep.InitialData(
            kind=ini["kind"],
            bumps=tuple(
                attrep.BumpSpec(tuple(b["center"]), b["width"], b["amplitude"]) for b in ini["bumps"]
            ),
            mass=ini["mass"],
        )
        u0, _ = attrep.build_initial_data(initial, dom)
        state = attrep.initial_state(u0, params)
        return {
            "state": state,
            "params": params,
            "stepper": attrep.StepperConfig(**spec["stepper"]),
            "diagnostics": attrep.DiagnosticsConfig(
                ps=tuple(spec["diagnostics"]["p"]), every=spec["diagnostics"]["every"]
            ),
        }
    import attrep.cli  # noqa: F401  (the CLI's import cost is set-up)

    config_path = work_dir / "config.json"
    config_path.write_text(json.dumps(spec["config"], indent=1))
    out = work_dir / "out"
    return {"argv": [spec["entry"], str(config_path), "--out", str(out)], "out": out}


def call(spec: dict, prepared: dict):
    """The timed call: one public entry point, start to finish."""
    if spec["entry"] == "run":
        import attrep

        return attrep.run(
            prepared["state"],
            prepared["params"],
            prepared["stepper"],
            spec["t_end"],
            diagnostics=prepared["diagnostics"],
        )
    import attrep.cli

    return attrep.cli.main(prepared["argv"])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_summary(summary: dict, expect: dict, where: str, failures: list) -> None:
    if summary.get("status") != expect["status"]:
        failures.append(f"{where}: status {summary.get('status')!r}, expected {expect['status']!r}")
    drift = summary.get("conservation_drift")
    if drift is None or not drift <= MAX_DRIFT:
        failures.append(f"{where}: conservation_drift {drift} above {MAX_DRIFT}")
    if "min_density_ratio" in summary:
        ratio = summary["min_density_ratio"]
        if ratio is None or not ratio >= MIN_DENSITY_RATIO:
            failures.append(f"{where}: min_density_ratio {ratio} below {MIN_DENSITY_RATIO}")


def check(spec: dict, prepared: dict, outcome) -> tuple[dict, list]:
    """Check the outputs of one timed call.

    Returns (facts, failures). `facts` carries the step count, the final time
    and digests of the outputs, which the runner compares across the repeats
    of one seed; `failures` lists every broken output check.
    """
    expect = spec["expect"]
    failures: list = []
    if spec["entry"] == "run":
        import numpy as np

        result = outcome
        summary = {
            "status": result.state.status.value,
            "conservation_drift": result.mass_drift,
            "min_density_ratio": result.min_density_ratio,
        }
        _check_summary(summary, expect, "run", failures)
        digest = hashlib.sha256(np.ascontiguousarray(result.state.u.values).tobytes())
        for rec in result.records:
            digest.update(repr((rec.t, rec.mass, rec.u_max, sorted(rec.energies.items()))).encode())
        facts = {
            "steps": result.steps,
            "t_final": result.state.t,
            "outcome": summary["status"],
            "digests": {"u_final+records": digest.hexdigest()},
        }
        return facts, failures

    import attrep

    out: Path = prepared["out"]
    if outcome != expect["exit"]:
        failures.append(f"exit code {outcome}, expected {expect['exit']}")
    if spec["entry"] == "simulate":
        summary = json.loads((out / "summary.json").read_text())
        _check_summary(summary, expect, "simulate", failures)
        if expect.get("bounds"):
            ineq = summary.get("energy_inequality") or {}
            absorb = summary.get("absorptive") or {}
            frac = ineq.get("fraction_ok")
            if frac is None or not frac >= MIN_FRACTION_OK:
                failures.append(f"energy_inequality.fraction_ok {frac} below {MIN_FRACTION_OK}")
            ratio = absorb.get("max_ratio")
            if ratio is None or not ratio <= 1.0:
                failures.append(f"absorptive.max_ratio {ratio} above 1")
        dom = attrep.DomainSpec(
            tuple(spec["config"]["domain"]["lengths"]), tuple(spec["config"]["domain"]["cells"])
        )
        field = attrep.read_field_csv(out / "u_final.csv", dom)
        attrep.write_field_csv(field, out / "u_final.roundtrip.csv")
        if (out / "u_final.roundtrip.csv").read_bytes() != (out / "u_final.csv").read_bytes():
            failures.append("u_final.csv does not round-trip through read_field_csv")
        every = expect.get("snapshot_every")
        if every:
            snaps = len(list(out.glob("u_0*.csv")))
            if snaps != summary["steps"] // every + 1:
                failures.append(f"{snaps} snapshots for {summary['steps']} steps every {every}")
        facts = {
            "steps": summary["steps"],
            "t_final": summary["t_final"],
            "outcome": summary["status"],
            "digests": {"diagnostics.csv": _sha256(out / "diagnostics.csv")},
        }
        return facts, failures

    # sweep
    lines = (out / "regime_map.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    observed = [row[2] if len(row) == 4 else "error" for row in rows]
    if any("error" in row for row in rows):
        failures.append(f"sweep has error rows: {rows}")
    if observed != expect["observed"]:
        failures.append(f"sweep observed {observed}, expected {expect['observed']}")
    if any(row[3] != "true" for row in rows if len(row) == 4):
        failures.append(f"sweep prediction disagrees with outcome: {rows}")
    # Steps and final times add up over the points, so t_final / steps is
    # the mean step over the whole sweep.
    steps = 0
    t_final = 0.0
    digests = {}
    for i, obs in enumerate(observed):
        point = out / f"point_{i:03d}"
        summary = json.loads((point / "summary.json").read_text())
        steps += summary["steps"]
        t_final += summary["t_final"]
        status = "Completed" if obs == "bounded" else "BlowupSuspected"
        if obs == "bounded":
            _check_summary(summary, {"status": status}, f"point {i}", failures)
        elif summary.get("status") != status:
            failures.append(f"point {i}: status {summary.get('status')!r}, expected {status!r}")
        digests[f"point_{i:03d}/diagnostics.csv"] = _sha256(point / "diagnostics.csv")
    facts = {
        "steps": steps,
        "t_final": t_final,
        "outcome": "/".join(observed),
        "digests": digests,
    }
    return facts, failures
