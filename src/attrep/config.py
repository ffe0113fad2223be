"""Experiment configuration: JSON in, validated dataclasses out.

Parse errors always name the offending field by its dotted path so a bad
config fails with a message like "config field 'params.rho': missing".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import ConfigError
from .model import BumpSpec, DomainSpec, InitialData, ModelParams
from .stepper import StepperConfig

_COEFFS = ("alpha", "beta", "gamma", "delta", "chi", "xi", "rho")

# Leaves a sweep may vary; anything else is a config error, not a silent no-op.
SWEEPABLE = (
    {f"params.{name}" for name in _COEFFS}
    | {"params.dim"}
    | {"initial.mass", "initial.amplitude", "initial.width"}
    | {"t_end", "blowup_threshold"}
)


def _section(raw: dict, name: str, required: bool = True) -> dict:
    if name not in raw:
        if required:
            raise ConfigError(name, "missing")
        return {}
    value = raw[name]
    if not isinstance(value, dict):
        raise ConfigError(name, f"expected an object, got {type(value).__name__}")
    return value


def _num(obj: dict, path: str, key: str, default=None, required: bool = False) -> float:
    if key not in obj:
        if required:
            raise ConfigError(f"{path}.{key}", "missing")
        return default
    return _number(f"{path}.{key}", obj[key])


def _number(field: str, value) -> float:
    """A JSON number (not a bool) that is finite, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(field, f"expected a number, got {value!r}")
    return finite_float(field, value)


def finite_float(field: str, value) -> float:
    """value as a float; a non-number, NaN, +-inf or an int beyond float range
    raises ConfigError. Python's json reads NaN and Infinity, and argparse's
    float() reads "nan"."""
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    except (TypeError, ValueError):
        raise ConfigError(field, f"expected a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(field, f"expected a finite number, got {value!r}")
    return number


def _int(obj: dict, path: str, key: str, default=None, required: bool = False) -> int:
    if key not in obj:
        if required:
            raise ConfigError(f"{path}.{key}", "missing")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}.{key}", f"expected an integer, got {value!r}")
    return value


def _pair(obj: dict, path: str, key: str):
    if key not in obj:
        raise ConfigError(f"{path}.{key}", "missing")
    value = obj[key]
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{path}.{key}", f"expected a pair, got {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    domain: DomainSpec
    params: ModelParams
    initial: InitialData
    t_end: float
    stepper: StepperConfig
    diag_ps: tuple
    sample_every: int
    out_dir: str
    snapshot_every: int
    blowup_threshold: float | None
    steady_tol: float
    bounds_p: float | None
    bounds_cgn: float | None
    bounds_ce: float | None
    sweep_axis: str | None
    sweep_values: tuple | None
    workers: int
    raw: dict


def _parse_domain(raw: dict) -> DomainSpec:
    obj = _section(raw, "domain")
    lengths = _pair(obj, "domain", "lengths")
    cells = _pair(obj, "domain", "cells")
    try:
        return DomainSpec(tuple(float(v) for v in lengths), tuple(int(v) for v in cells))
    except (TypeError, ValueError) as exc:
        raise ConfigError("domain", str(exc)) from exc


def _parse_params(raw: dict) -> ModelParams:
    obj = _section(raw, "params")
    kwargs = {name: _num(obj, "params", name, required=True) for name in _COEFFS}
    kwargs["dim"] = _int(obj, "params", "dim", default=2)
    return ModelParams(**kwargs)


def _parse_initial(raw: dict) -> InitialData:
    obj = _section(raw, "initial")
    kind = obj.get("kind")
    if kind is None:
        raise ConfigError("initial.kind", "missing")
    if not isinstance(kind, str):
        raise ConfigError("initial.kind", f"expected a string, got {kind!r}")
    mass = _num(obj, "initial", "mass", default=None)
    if kind == "uniform":
        return InitialData(kind=kind, amplitude=_num(obj, "initial", "amplitude", required=True), mass=mass)
    if kind == "gaussian-bump":
        center = obj.get("center")
        if center is not None:
            center = tuple(finite_float("initial.center", v) for v in _pair(obj, "initial", "center"))
        return InitialData(
            kind=kind,
            amplitude=_num(obj, "initial", "amplitude", default=1.0),
            center=center,
            width=_num(obj, "initial", "width", required=True),
            mass=mass,
        )
    if kind == "multi-bump":
        raw_bumps = obj.get("bumps")
        if not isinstance(raw_bumps, list) or not raw_bumps:
            raise ConfigError("initial.bumps", "expected a non-empty list")
        bumps = []
        for i, b in enumerate(raw_bumps):
            if not isinstance(b, dict):
                raise ConfigError(f"initial.bumps[{i}]", "expected an object")
            path = f"initial.bumps[{i}]"
            center = tuple(finite_float(f"{path}.center", v) for v in _pair(b, path, "center"))
            bumps.append(
                BumpSpec(
                    center=center,
                    width=_num(b, path, "width", required=True),
                    amplitude=_num(b, path, "amplitude", required=True),
                )
            )
        return InitialData(kind=kind, bumps=tuple(bumps), mass=mass)
    if kind == "from-file":
        path = obj.get("path")
        if not isinstance(path, str):
            raise ConfigError("initial.path", "missing or not a string")
        return InitialData(kind=kind, path=path, mass=mass)
    raise ConfigError("initial.kind", f"unknown kind {kind!r}")


def _parse_stepper(raw: dict) -> StepperConfig:
    obj = _section(raw, "stepper", required=False)
    defaults = StepperConfig()
    scheme = obj.get("scheme", defaults.scheme)
    if not isinstance(scheme, str):
        raise ConfigError("stepper.scheme", f"expected a string, got {scheme!r}")
    try:
        return StepperConfig(
            dt_max=_num(obj, "stepper", "dt_max", default=defaults.dt_max),
            cfl_safety=_num(obj, "stepper", "cfl_safety", default=defaults.cfl_safety),
            dt_min=_num(obj, "stepper", "dt_min", default=defaults.dt_min),
            scheme=scheme,
        )
    except ValueError as exc:
        raise ConfigError("stepper", str(exc)) from exc


def from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "top level must be a JSON object")
    domain = _parse_domain(raw)
    params = _parse_params(raw)
    initial = _parse_initial(raw)
    stepper = _parse_stepper(raw)

    diag = _section(raw, "diagnostics", required=False)
    ps_raw = diag.get("p", [2.0])
    if isinstance(ps_raw, (int, float)) and not isinstance(ps_raw, bool):
        ps_raw = [ps_raw]
    if not isinstance(ps_raw, list) or not ps_raw:
        raise ConfigError("diagnostics.p", f"expected a number or list, got {ps_raw!r}")
    diag_ps = tuple(finite_float("diagnostics.p", p) for p in ps_raw)
    sample_every = _int(diag, "diagnostics", "sample_every", default=10)
    if sample_every < 1:
        raise ConfigError("diagnostics.sample_every", f"must be >= 1, got {sample_every}")

    outputs = _section(raw, "outputs", required=False)
    out_dir = outputs.get("directory", "sim_out")
    if not isinstance(out_dir, str):
        raise ConfigError("outputs.directory", f"expected a string, got {out_dir!r}")
    snapshot_every = _int(outputs, "outputs", "snapshot_every", default=0)
    if snapshot_every < 0:
        raise ConfigError("outputs.snapshot_every", f"must be >= 0, got {snapshot_every}")

    bounds = _section(raw, "bounds", required=False)
    sweep = _section(raw, "sweep", required=False)
    sweep_axis = None
    sweep_values = None
    if sweep:
        sweep_axis = sweep.get("axis")
        if not isinstance(sweep_axis, str):
            raise ConfigError("sweep.axis", "missing or not a string")
        if sweep_axis not in SWEEPABLE:
            raise ConfigError("sweep.axis", f"{sweep_axis!r} is not sweepable; choose from {sorted(SWEEPABLE)}")
        values = sweep.get("values")
        if not isinstance(values, list):
            raise ConfigError("sweep.values", "missing or not a list")
        # Checked as numbers but kept as given, so an int params.dim sweep stays int.
        for i, value in enumerate(values):
            _number(f"sweep.values[{i}]", value)
        sweep_values = tuple(values)

    workers = _int(raw, "<root>", "workers", default=1)
    if workers < 1:
        raise ConfigError("workers", f"must be >= 1, got {workers}")

    return ExperimentConfig(
        domain=domain,
        params=params,
        initial=initial,
        t_end=_num(raw, "<root>", "t_end", default=1.0),
        stepper=stepper,
        diag_ps=diag_ps,
        sample_every=sample_every,
        out_dir=out_dir,
        snapshot_every=snapshot_every,
        blowup_threshold=_num(raw, "<root>", "blowup_threshold", default=None),
        steady_tol=_num(raw, "<root>", "steady_tol", default=1e-10),
        bounds_p=_num(bounds, "bounds", "p", default=None),
        bounds_cgn=_num(bounds, "bounds", "cgn", default=None),
        bounds_ce=_num(bounds, "bounds", "ce", default=None),
        sweep_axis=sweep_axis,
        sweep_values=sweep_values,
        workers=workers,
        raw=raw,
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError("<file>", f"no such config file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON in {path}: {exc}") from exc
    return from_dict(raw)


def set_sweep_value(raw: dict, axis: str, value) -> dict:
    """Return a deep-enough copy of `raw` with the dotted sweep leaf set."""
    if axis not in SWEEPABLE:
        raise ConfigError("sweep.axis", f"{axis!r} is not sweepable")
    out = dict(raw)
    out.pop("sweep", None)
    parts = axis.split(".")
    if len(parts) == 1:
        out[parts[0]] = value
        return out
    section, leaf = parts
    sub = dict(out.get(section) or {})
    sub[leaf] = value
    out[section] = sub
    return out
