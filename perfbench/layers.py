"""Per-layer metrics computed from one merged trace.

Every metric is reported on every workload; a layer a workload does not run
reads 0. Names and units here are the `per_layer` list of BENCHMARK.json.
"""

from __future__ import annotations

from tracer import (
    BYTES_COUNTER,
    FIELD_COUNTER,
    TRANSFORM_COUNTER,
    self_times,
)

LAYERS = ("config", "model", "grid", "elliptic", "stepper", "diagnostics", "bounds", "cli")

# name -> unit. Exact counts first; they must repeat exactly for one seed.
COUNTS = {
    "elliptic.transforms_per_step": "count",
    "stepper.steps": "count",
    "grid.fields_per_step": "count",
    "grid.require_finite_per_step": "count",
    "grid.write_field_csv.bytes": "bytes",
    "diagnostics.samples": "count",
    "bounds.test_family_builds": "count",
}
TIMES = {
    "elliptic.solve_signals.us_per_call": "us",
    "elliptic.chemical_sources.us_per_call": "us",
    "elliptic.implicit_diffusion_step.us_per_call": "us",
    "stepper.dt_mean": "model-time",
    "stepper.face_fluxes.us_per_call": "us",
    "stepper.step.self_us": "us",
    "stepper.mcell_steps_per_s": "Mcell-steps/s",
    "stepper.stable_dt.us_per_call": "us",
    "stepper.run.self_share": "fraction",
    "grid.write_field_csv.ms_per_call": "ms",
    "diagnostics.sample.us_per_call": "us",
    "diagnostics.write_diagnostics_csv.ms": "ms",
    "bounds.compute_bounds.ms": "ms",
    "config.load_config.ms": "ms",
    "model.build_initial_data.ms": "ms",
    "cli.simulate.self_ms": "ms",
    "cli.sweep.point_s": "s",
    "cli.sweep.pool_overhead_s": "s",
}
TIMES.update({f"{layer}.self_ms": "ms" for layer in LAYERS})
OVERHEAD = {"trace.overhead_frac": "fraction"}
UNITS = {**COUNTS, **TIMES, **OVERHEAD}


def _union_ns(intervals) -> int:
    total = 0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def compute(trace: dict, facts: dict, cells: int) -> dict:
    """Every per-layer metric except trace.overhead_frac, from one trace."""
    spans = trace["spans"]
    own = self_times(spans)
    dur: dict = {}
    slf: dict = {}
    for s in spans:
        dur.setdefault(s["name"], []).append(s["end"] - s["start"])
        slf.setdefault(s["name"], []).append(own[s["id"]])

    def calls(name):
        return len(dur.get(name, ()))

    def total_ns(name, table=dur):
        return sum(table.get(name, ()))

    def mean_ns(name, table=dur):
        n = len(table.get(name, ()))
        return total_ns(name, table) / n if n else 0.0

    run_totals: dict = {}
    for delta in trace["run_counts"]:
        for key, value in delta.items():
            run_totals[key] = run_totals.get(key, 0) + value
    steps = calls("stepper.step")

    def per_step(counter):
        return run_totals.get(counter, 0) / steps if steps else 0.0

    step_ns = total_ns("stepper.step")
    run_ns = total_ns("stepper.run")
    sweep_ns = total_ns("cli.cmd_sweep")
    points = [(s["start"], s["end"]) for s in spans if s["name"] == "cli._sweep_point"]
    bounds_calls = calls("bounds.compute_bounds")

    m = {
        "elliptic.transforms_per_step": per_step(TRANSFORM_COUNTER),
        "stepper.steps": steps,
        "grid.fields_per_step": per_step(FIELD_COUNTER),
        "grid.require_finite_per_step": per_step("grid.require_finite"),
        "grid.write_field_csv.bytes": trace["counts"].get(BYTES_COUNTER, 0),
        "diagnostics.samples": calls("diagnostics.sample"),
        "bounds.test_family_builds": calls("bounds._test_family") / bounds_calls if bounds_calls else 0.0,
        "elliptic.solve_signals.us_per_call": mean_ns("elliptic.solve_signals") / 1e3,
        "elliptic.chemical_sources.us_per_call": mean_ns("elliptic.chemical_sources") / 1e3,
        "elliptic.implicit_diffusion_step.us_per_call": mean_ns("elliptic.implicit_diffusion_step") / 1e3,
        "stepper.dt_mean": facts["t_final"] / facts["steps"] if facts["steps"] else 0.0,
        "stepper.face_fluxes.us_per_call": mean_ns("stepper.face_fluxes") / 1e3,
        "stepper.step.self_us": mean_ns("stepper.step", slf) / 1e3,
        "stepper.mcell_steps_per_s": cells * cells * steps / step_ns * 1e3 if step_ns else 0.0,
        "stepper.stable_dt.us_per_call": mean_ns("stepper.stable_dt") / 1e3,
        "stepper.run.self_share": total_ns("stepper.run", slf) / run_ns if run_ns else 0.0,
        "grid.write_field_csv.ms_per_call": mean_ns("grid.write_field_csv") / 1e6,
        "diagnostics.sample.us_per_call": mean_ns("diagnostics.sample") / 1e3,
        "diagnostics.write_diagnostics_csv.ms": total_ns("diagnostics.write_diagnostics_csv") / 1e6,
        "bounds.compute_bounds.ms": total_ns("bounds.compute_bounds") / 1e6,
        "config.load_config.ms": total_ns("config.load_config") / 1e6,
        "model.build_initial_data.ms": total_ns("model.build_initial_data") / 1e6,
        "cli.simulate.self_ms": total_ns("cli.cmd_simulate", slf) / 1e6,
        "cli.sweep.point_s": mean_ns("cli._sweep_point") / 1e9,
        "cli.sweep.pool_overhead_s": (sweep_ns - _union_ns(points)) / 1e9 if sweep_ns else 0.0,
    }
    for layer in LAYERS:
        prefix = layer + "."
        m[f"{layer}.self_ms"] = sum(own[s["id"]] for s in spans if s["name"].startswith(prefix)) / 1e6
    return m
