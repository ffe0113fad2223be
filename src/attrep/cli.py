"""Command line front end.

Subcommands: simulate (time-step one configuration and write its outputs),
bounds (emit the analytic-constants report as JSON), sweep (run one config
across a parameter axis, in a pool of at most one worker per point, and
tabulate predictions against outcomes), classify (print the regime for a
configuration). simulate and sweep attach the bounds report only where
classify_regime says the theorem applies. Only a sweep of two or more
workers imports the process pool, so no other command loads
multiprocessing and its dependencies.

Exit codes: 0 for Completed or SteadyDetected, 2 for BlowupSuspected, 1 for
configuration or validation errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, replace
from itertools import repeat
from pathlib import Path

from .bounds import compute_bounds
from .config import ExperimentConfig, exponent, integer, load_config, number, sweep_point
from .diagnostics import (
    DiagnosticsConfig,
    check_absorptive_bound,
    check_energy_inequality,
    write_diagnostics_csv,
)
from .elliptic import solve_signals
from .errors import ConfigError, SimulationError
from .grid import Field, write_field_csv
from .model import Regime, RegimeResult, build_initial_data, classify_regime
from .stepper import SCHEMES, RunResult, Status, initial_state, run

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BLOWUP = 2

_PREDICTED_OUTCOME = {
    Regime.SUBLINEAR_GLOBAL: "bounded",
    Regime.REPULSION_DOMINANT: "bounded",
    Regime.SUBCRITICAL_MASS: "bounded",
    Regime.SUPERCRITICAL_MASS: "blowup",
    Regime.CRITICAL_MASS: "critical",
    Regime.INDETERMINATE: "unknown",
}


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _bounds_report(cfg: ExperimentConfig, mass: float, p: float):
    """compute_bounds at exponent p with the config's domain and constant overrides."""
    return compute_bounds(cfg.params, mass, p, dom=cfg.domain, cgn=cfg.bounds_cgn, ce=cfg.bounds_ce)


def _require_2d(cfg: ExperimentConfig) -> None:
    """The stepper is two dimensional; a run must not silently ignore dim."""
    if cfg.params.dim != 2:
        raise ConfigError("params.dim", f"simulate and sweep support dim = 2 only, got {cfg.params.dim}")


def _run_experiment(cfg: ExperimentConfig, u0: Field, mass: float, regime: RegimeResult, out: Path) -> RunResult:
    """Run cfg from the initial density u0 of the given mass, classified as
    regime, and write the simulate output set into out: diagnostics.csv,
    diagnostics.svg when there are records, the u, v and w final fields,
    density snapshots and summary.json. An earlier run's plot and snapshots
    are deleted first. Everything that can reject the config runs before out
    is created."""
    state = initial_state(u0, cfg.params)

    # The bounds report exists only where the theorem applies and a p is chosen.
    bounds = None
    if cfg.bounds_p is not None and regime.theorem_applies:
        bounds = _bounds_report(cfg, mass, cfg.bounds_p)
    ps = tuple(cfg.diag_ps)
    if bounds is not None and bounds.p not in ps:
        ps = ps + (bounds.p,)
    diag = DiagnosticsConfig(ps=ps, every=cfg.sample_every, bounds=bounds)
    out.mkdir(parents=True, exist_ok=True)
    for stale in out.glob("u_" + "[0-9]" * 8 + ".csv"):
        stale.unlink()
    (out / "diagnostics.svg").unlink(missing_ok=True)

    on_state = None
    if cfg.snapshot_every > 0:
        every = cfg.snapshot_every

        def on_state(s):
            if s.step % every == 0:
                write_field_csv(s.u, out / f"u_{s.step:08d}.csv")

    result = run(
        state,
        cfg.params,
        cfg.stepper,
        cfg.t_end,
        diagnostics=diag,
        blowup_threshold=cfg.blowup_threshold,
        steady_tol=cfg.steady_tol,
        on_state=on_state,
    )

    write_diagnostics_csv(result.records, ps, out / "diagnostics.csv")
    final = result.state
    write_field_csv(final.u, out / "u_final.csv")
    v, w = solve_signals(final.u, cfg.params)
    write_field_csv(v, out / "v_final.csv")
    write_field_csv(w, out / "w_final.csv")
    if result.records:
        _energy_svg(result.records, ps, out / "diagnostics.svg")

    summary = {
        "status": final.status.value,
        "t_final": final.t,
        "steps": result.steps,
        "wall_time_s": result.wall_time,
        "mass_initial": result.mass_initial,
        "mass_final": result.mass_final,
        "conservation_drift": result.mass_drift,
        "min_density_ratio": result.min_density_ratio,
        "scheme": cfg.stepper.scheme,
        "cells": list(cfg.domain.cells),
        "final_energies": {format(p, "g"): result.records[-1].energies[p] for p in ps}
        if result.records
        else {},
        "bounds": bounds.to_dict() if bounds is not None else None,
    }
    if bounds is not None and len(result.records) >= 2:
        ineq = check_energy_inequality(result.records, bounds.p, bounds.cbar)
        absorb = check_absorptive_bound(
            result.records, bounds.p, result.records[0].energies[bounds.p], bounds.c_star_total
        )
        summary["energy_inequality"] = {**asdict(ineq), "fraction_ok": ineq.fraction_ok}
        summary["absorptive"] = {**asdict(absorb), "max_ratio": absorb.max_ratio}
    with open(out / "summary.json", "w") as fh:
        json.dump(_json_safe(summary), fh, indent=2)
        fh.write("\n")
    return result


def cmd_simulate(cfg: ExperimentConfig, out_dir: str) -> int:
    _require_2d(cfg)
    u0, mass = build_initial_data(cfg.initial, cfg.domain)
    out = Path(out_dir)
    result = _run_experiment(cfg, u0, mass, classify_regime(cfg.params, mass), out)
    final = result.state
    print(
        f"{final.status.value}: t = {final.t:.6g}, steps = {result.steps}, "
        f"mass drift = {result.mass_drift:.3e}, outputs in {out}"
    )
    return EXIT_BLOWUP if final.status is Status.BLOWUP_SUSPECTED else EXIT_OK


def cmd_bounds(cfg: ExperimentConfig, p_override: float | None) -> int:
    p = exponent("--p", p_override) if p_override is not None else cfg.bounds_p
    if p is None:
        p = 0.75 * cfg.params.dim  # 3n/4
    _, mass = build_initial_data(cfg.initial, cfg.domain)
    report = _bounds_report(cfg, mass, p)
    print(json.dumps(_json_safe(report.to_dict()), indent=2))
    return EXIT_OK


def cmd_classify(cfg: ExperimentConfig) -> int:
    _, mass = build_initial_data(cfg.initial, cfg.domain)
    result = classify_regime(cfg.params, mass)
    print(
        json.dumps(
            {
                "regime": result.regime.value,
                "critical_mass": result.critical_mass,
                "mass": mass,
                "predicted_outcome": _PREDICTED_OUTCOME[result.regime],
                "theorem_applies": result.theorem_applies,
            },
            indent=2,
        )
    )
    return EXIT_OK


def _sweep_point(cfg: ExperimentConfig, value, out_dir: str) -> dict:
    """Run cfg's sweep point at value into out_dir, exactly as `simulate`
    would run that config; failures become data rather than aborting the sweep."""
    row = {"value": value, "prediction": "error", "observed": "error"}
    try:
        cfg = sweep_point(cfg, value)
        u0, mass = build_initial_data(cfg.initial, cfg.domain)
        regime = classify_regime(cfg.params, mass)
        row["prediction"] = regime.regime.value
        row["predicted_outcome"] = _PREDICTED_OUTCOME[regime.regime]
        result = _run_experiment(cfg, u0, mass, regime, Path(out_dir))
        row["observed"] = "blowup" if result.state.status is Status.BLOWUP_SUSPECTED else "bounded"
    except Exception as exc:  # a broken point must not sink the sweep
        row["error"] = str(exc)
    predicted = row.get("predicted_outcome")
    if predicted in ("bounded", "blowup") and row["observed"] in ("bounded", "blowup"):
        row["agreement"] = "true" if predicted == row["observed"] else "false"
    else:
        row["agreement"] = "na"
    return row


def _workers_from_env(default: int) -> int:
    raw = os.environ.get("SIM_WORKERS")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = raw
    return integer(1)("SIM_WORKERS", value)


def cmd_sweep(cfg: ExperimentConfig, out_dir: str) -> int:
    if cfg.sweep_axis is None:
        print("error: config has no sweep block", file=sys.stderr)
        return EXIT_ERROR
    _require_2d(cfg)
    values = cfg.sweep_values
    workers = min(_workers_from_env(cfg.workers), len(values))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    dirs = [str(out / f"point_{i:03d}") for i in range(len(values))]
    if workers == 1:
        rows = list(map(_sweep_point, repeat(cfg), values, dirs))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, repeat(cfg), values, dirs))

    map_path = out / "regime_map.csv"
    with open(map_path, "w") as fh:
        fh.write(f"{cfg.sweep_axis},classifier_prediction,observed_outcome,agreement\n")
        for row in rows:
            fh.write(f"{row['value']:.17g},{row['prediction']},{row['observed']},{row['agreement']}\n")
    _regime_svg(rows, cfg.sweep_axis, out / "regime_map.svg")

    for row in rows:
        print(
            f"{cfg.sweep_axis} = {row['value']}: predicted {row['prediction']}, "
            f"observed {row['observed']} (agreement {row['agreement']})"
        )
        if "error" in row:
            print(f"{cfg.sweep_axis} = {row['value']}: error: {row['error']}", file=sys.stderr)
    print(f"regime map in {map_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Hand-rolled SVG, deliberately free of plotting dependencies.
# ---------------------------------------------------------------------------

_SVG_W, _SVG_H = 640, 400
_MARGIN = 60


def _scale(values, lo_px, hi_px):
    lo, hi = min(values), max(values)
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    return lambda v: lo_px + (v - lo) / span * (hi_px - lo_px), lo, hi


def _write_svg(path, parts) -> None:
    """Write a figure: its frame (a white page and the x axis), then parts."""
    frame = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_SVG_H - _MARGIN}" x2="{_SVG_W - 20}" y2="{_SVG_H - _MARGIN}" stroke="black"/>',
    ]
    with open(path, "w") as fh:
        fh.write("\n".join([*frame, *parts, "</svg>"]) + "\n")


def _energy_svg(records, ps, path) -> None:
    ts = [r.t for r in records]
    if len(ts) < 2:
        ts = ts + [ts[0] + 1.0] if ts else [0.0, 1.0]
    sx, t_lo, t_hi = _scale(ts, _MARGIN, _SVG_W - 20)
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    parts = [f'<line x1="{_MARGIN}" y1="20" x2="{_MARGIN}" y2="{_SVG_H - _MARGIN}" stroke="black"/>']
    all_vals = [r.energies[p] for r in records for p in ps if math.isfinite(r.energies[p])]
    if not all_vals:
        all_vals = [0.0, 1.0]
    sy, e_lo, e_hi = _scale(all_vals, _SVG_H - _MARGIN, 20)
    for idx, p in enumerate(ps):
        color = colors[idx % len(colors)]
        pts = " ".join(
            f"{sx(r.t):.2f},{sy(r.energies[p]):.2f}"
            for r in records
            if math.isfinite(r.energies[p])
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{_SVG_W - 150}" y="{30 + 16 * idx}" fill="{color}" font-size="12">'
            f"E_{format(p, 'g')}</text>"
        )
    parts += [
        f'<text x="{_SVG_W // 2}" y="{_SVG_H - 20}" font-size="12" text-anchor="middle">t</text>',
        f'<text x="15" y="{_SVG_H // 2}" font-size="12" transform="rotate(-90 15 {_SVG_H // 2})" text-anchor="middle">E_p</text>',
        f'<text x="{_MARGIN}" y="{_SVG_H - _MARGIN + 15}" font-size="10">{t_lo:.3g}</text>',
        f'<text x="{_SVG_W - 40}" y="{_SVG_H - _MARGIN + 15}" font-size="10">{t_hi:.3g}</text>',
        f'<text x="{_MARGIN - 5}" y="{_SVG_H - _MARGIN}" font-size="10" text-anchor="end">{e_lo:.3g}</text>',
        f'<text x="{_MARGIN - 5}" y="25" font-size="10" text-anchor="end">{e_hi:.3g}</text>',
    ]
    _write_svg(path, parts)


def _regime_svg(rows, axis, path) -> None:
    numeric = [float(r["value"]) for r in rows]
    sx, v_lo, v_hi = _scale(numeric, _MARGIN, _SVG_W - 30)
    y_of = {"bounded": _SVG_H - _MARGIN - 60, "blowup": 90, "error": _SVG_H // 2}
    color_of = {"true": "#2ca02c", "false": "#d62728", "na": "#7f7f7f"}
    parts = [
        f'<text x="{_SVG_W // 2}" y="{_SVG_H - 20}" font-size="12" text-anchor="middle">{axis}</text>',
        f'<text x="{_MARGIN - 10}" y="{y_of["bounded"] + 4}" font-size="11" text-anchor="end">bounded</text>',
        f'<text x="{_MARGIN - 10}" y="{y_of["blowup"] + 4}" font-size="11" text-anchor="end">blowup</text>',
        f'<text x="{_MARGIN}" y="{_SVG_H - _MARGIN + 15}" font-size="10">{v_lo:.6g}</text>',
        f'<text x="{_SVG_W - 60}" y="{_SVG_H - _MARGIN + 15}" font-size="10">{v_hi:.6g}</text>',
        f'<text x="{_MARGIN}" y="20" font-size="11">observed outcome, colored by agreement '
        f"(green true, red false, gray n/a)</text>",
    ]
    for row, value in zip(rows, numeric):
        y = y_of.get(row["observed"], _SVG_H // 2)
        color = color_of.get(row["agreement"], "#7f7f7f")
        parts.append(f'<circle cx="{sx(value):.2f}" cy="{y}" r="6" fill="{color}"/>')
        parts.append(
            f'<text x="{sx(value):.2f}" y="{y - 10}" font-size="9" text-anchor="middle">'
            f"{row['prediction']}</text>"
        )
    _write_svg(path, parts)


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sim",
        description="Finite-volume attraction-repulsion chemotaxis simulator and bounds toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="time-step one configuration")
    p_sim.add_argument("config", help="path to a JSON experiment config")
    p_sim.add_argument("--t-end", type=float, default=None, help="override t_end")
    p_sim.add_argument("--snapshot-every", type=int, default=None, help="density snapshot cadence in steps")
    p_sim.add_argument("--blowup-threshold", type=float, default=None, help="override the blow-up threshold on max u")
    p_sim.add_argument("--scheme", choices=SCHEMES, default=None)
    p_sim.add_argument("--out", default=None, help="output directory (default from config)")

    p_bounds = sub.add_parser("bounds", help="emit the analytic-constants report as JSON")
    p_bounds.add_argument("config")
    p_bounds.add_argument("--p", type=float, default=None, help="energy exponent (default 3n/4)")

    p_sweep = sub.add_parser("sweep", help="run the config across its sweep axis")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--out", default=None)

    p_classify = sub.add_parser("classify", help="print the regime classification")
    p_classify.add_argument("config")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "simulate":
            if args.t_end is not None:
                cfg = replace(cfg, t_end=number("t_end", args.t_end))
            if args.snapshot_every is not None:
                cfg = replace(cfg, snapshot_every=integer(0)("outputs.snapshot_every", args.snapshot_every))
            if args.blowup_threshold is not None:
                cfg = replace(cfg, blowup_threshold=number("blowup_threshold", args.blowup_threshold))
            if args.scheme is not None:
                cfg = replace(cfg, stepper=replace(cfg.stepper, scheme=args.scheme))
            return cmd_simulate(cfg, args.out or cfg.out_dir)
        if args.command == "bounds":
            return cmd_bounds(cfg, args.p)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.out or cfg.out_dir)
        if args.command == "classify":
            return cmd_classify(cfg)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (SimulationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
