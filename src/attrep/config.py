"""Experiment configuration: JSON in, validated dataclasses out.

Every leaf goes through one reader per kind (`number`, `exponent`,
`integer`, `string`, `_pair`), and the `sim` flags go through the same
readers. Errors name the offending field by its dotted path, so a bad config
fails with a message like "config field 'params.rho': missing".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from .diagnostics import DiagnosticsConfig
from .errors import ConfigError
from .model import _INITIAL_KINDS, BumpSpec, DomainSpec, InitialData, ModelParams
from .stepper import STEADY_TOL, StepperConfig

_COEFFS = ("alpha", "beta", "gamma", "delta", "chi", "xi", "rho")

# Leaves a sweep may vary; anything else is a config error, not a silent no-op.
SWEEPABLE = (
    {f"params.{name}" for name in _COEFFS}
    | {"initial.mass", "initial.amplitude", "initial.width"}
    | {"t_end", "blowup_threshold"}
)


_REQUIRED = object()

# The keys of each block (README, Config schema), "" for the root. `initial`
# takes the keys of all its kinds (model._INITIAL_KINDS). A key outside its
# block's set is a typo, which would otherwise leave its field at the default.
_KEYS = {
    "": ("domain", "params", "initial", "stepper", "diagnostics", "outputs", "bounds", "sweep")
    + ("t_end", "blowup_threshold", "steady_tol", "workers"),
    "domain": ("lengths", "cells"),
    "params": (*_COEFFS, "dim"),
    "initial": ("kind", "mass", *(key for _, reads in _INITIAL_KINDS.values() for key in reads)),
    "stepper": ("scheme", "dt_max", "cfl_safety", "dt_min"),
    "diagnostics": ("p", "sample_every"),
    "outputs": ("directory", "snapshot_every"),
    "bounds": ("p", "cgn", "ce"),
    "sweep": ("axis", "values"),
}


def _known(obj: dict, path: str, keys: tuple) -> dict:
    """obj, once every key in it is one of `keys`; else the first other key
    fails, named by its dotted path."""
    for key in obj:
        if key not in keys:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")
    return obj


def _section(raw: dict, name: str, required: bool = True) -> dict:
    if name not in raw:
        if required:
            raise ConfigError(name, "missing")
        return {}
    value = raw[name]
    if not isinstance(value, dict):
        raise ConfigError(name, f"expected an object, got {type(value).__name__}")
    return _known(value, name, _KEYS[name])


def _get(obj: dict, path: str, key: str, read, default=_REQUIRED):
    """obj[key] passed through read(field, value), where field is the dotted
    name path.key. An absent key gives default, or fails when it is required;
    an explicit null is present, so its reader rejects it."""
    field = f"{path}.{key}" if path else key
    if key in obj:
        return read(field, obj[key])
    if default is _REQUIRED:
        raise ConfigError(field, "missing")
    return default


def number(field: str, value) -> float:
    """A finite JSON number, not a string or a bool, as a float. Python's json
    reads NaN and Infinity; an int beyond the float range is infinite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(field, f"expected a number, got {value!r}")
    try:
        result = float(value)
    except OverflowError:
        result = math.inf
    if not math.isfinite(result):
        raise ConfigError(field, f"expected a finite number, got {value!r}")
    return result


def exponent(field: str, value) -> float:
    """An energy exponent: a number p > 1."""
    p = number(field, value)
    if p <= 1.0:
        raise ConfigError(field, f"expected an exponent p > 1, got {value!r}")
    return p


def integer(minimum: int):
    """A reader of JSON integers, not bools or 2.0, that are >= minimum."""

    def read(field: str, value) -> int:
        if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
            raise ConfigError(field, f"expected an integer >= {minimum}, got {value!r}")
        return value

    return read


def string(field: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(field, f"expected a string, got {value!r}")
    return value


def _pair(read):
    """A reader of two-element lists whose entries pass read, as a tuple."""

    def read_pair(field: str, value) -> tuple:
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ConfigError(field, f"expected a pair, got {value!r}")
        return tuple(read(field, v) for v in value)

    return read_pair


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


def _parse_domain(raw: dict) -> DomainSpec:
    obj = _section(raw, "domain")
    lengths = _get(obj, "domain", "lengths", _pair(number))
    cells = _get(obj, "domain", "cells", _pair(integer(1)))
    try:
        return DomainSpec(lengths, cells)
    except ValueError as exc:
        raise ConfigError("domain", str(exc)) from exc


def _parse_params(raw: dict) -> ModelParams:
    obj = _section(raw, "params")
    kwargs = {name: _get(obj, "params", name, number) for name in _COEFFS}
    kwargs["dim"] = _get(obj, "params", "dim", integer(2), 2)
    return ModelParams(**kwargs)


def _bumps(field: str, value) -> tuple:
    """A non-empty list of bump objects, each with a center, width and amplitude."""
    if not isinstance(value, list) or not value:
        raise ConfigError(field, "expected a non-empty list")
    bumps = []
    for i, b in enumerate(value):
        path = f"{field}[{i}]"
        if not isinstance(b, dict):
            raise ConfigError(path, "expected an object")
        _known(b, path, ("center", "width", "amplitude"))
        center = _get(b, path, "center", _pair(number))
        bumps.append(BumpSpec(center, _get(b, path, "width", number), _get(b, path, "amplitude", number)))
    return tuple(bumps)


def _parse_initial(raw: dict) -> InitialData:
    obj = _section(raw, "initial")
    kind = _get(obj, "initial", "kind", string)
    if kind not in _INITIAL_KINDS:
        raise ConfigError("initial.kind", f"unknown kind {kind!r}")
    mass = _get(obj, "initial", "mass", number, None)
    read = {"amplitude": number, "center": _pair(number), "width": number, "bumps": _bumps, "path": string}
    # A key the config may leave out is passed only when given, so InitialData's default stands in.
    reads = _INITIAL_KINDS[kind][1]
    shape = {key: _get(obj, "initial", key, read[key]) for key, required in reads.items() if required or key in obj}
    return InitialData(kind, mass=mass, **shape)


def _parse_stepper(raw: dict) -> StepperConfig:
    obj = _section(raw, "stepper", required=False)
    read = {"dt_max": number, "cfl_safety": number, "dt_min": number, "scheme": string}
    try:
        return StepperConfig(**{key: _get(obj, "stepper", key, read[key]) for key in read if key in obj})
    except ValueError as exc:
        raise ConfigError("stepper", str(exc)) from exc


def from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "top level must be a JSON object")
    _known(raw, "", _KEYS[""])
    diag = _section(raw, "diagnostics", required=False)
    ps = diag.get("p", list(DiagnosticsConfig.ps))
    ps = ps if isinstance(ps, list) else [ps]
    if not ps:
        raise ConfigError("diagnostics.p", "expected a number or a non-empty list, got []")
    diag_ps = tuple(exponent("diagnostics.p", p) for p in ps)
    if len(set(diag_ps)) < len(diag_ps):
        raise ConfigError("diagnostics.p", f"expected a list of distinct exponents, got {ps!r}")
    outputs = _section(raw, "outputs", required=False)
    bounds = _section(raw, "bounds", required=False)
    sweep = _section(raw, "sweep", required=False)
    sweep_axis = None
    sweep_values = None
    if sweep:
        sweep_axis = _get(sweep, "sweep", "axis", string)
        if sweep_axis not in SWEEPABLE:
            raise ConfigError("sweep.axis", f"{sweep_axis!r} is not sweepable; choose from {sorted(SWEEPABLE)}")
        values = sweep.get("values")
        if not isinstance(values, list):
            raise ConfigError("sweep.values", "missing or not a list")
        sweep_values = tuple(number(f"sweep.values[{i}]", value) for i, value in enumerate(values))
    domain, params, initial = _parse_domain(raw), _parse_params(raw), _parse_initial(raw)
    # An axis the initial data never reads would run the same point N times.
    section, _, leaf = (sweep_axis or "").partition(".")
    if section == "initial" and leaf != "mass":
        if leaf not in _INITIAL_KINDS[initial.kind][1]:
            raise ConfigError("sweep.axis", f"{initial.kind} initial data never reads {sweep_axis!r}")
        if leaf == "amplitude" and initial.mass is not None:
            raise ConfigError("sweep.axis", f"{sweep_axis!r} is cancelled by the rescale to initial.mass")

    return ExperimentConfig(
        domain=domain,
        params=params,
        initial=initial,
        t_end=_get(raw, "", "t_end", number, 1.0),
        stepper=_parse_stepper(raw),
        diag_ps=diag_ps,
        sample_every=_get(diag, "diagnostics", "sample_every", integer(1), DiagnosticsConfig.every),
        out_dir=_get(outputs, "outputs", "directory", string, "sim_out"),
        snapshot_every=_get(outputs, "outputs", "snapshot_every", integer(0), 0),
        blowup_threshold=_get(raw, "", "blowup_threshold", number, None),
        steady_tol=_get(raw, "", "steady_tol", number, STEADY_TOL),
        bounds_p=_get(bounds, "bounds", "p", exponent, None),
        bounds_cgn=_get(bounds, "bounds", "cgn", number, None),
        bounds_ce=_get(bounds, "bounds", "ce", number, None),
        sweep_axis=sweep_axis,
        sweep_values=sweep_values,
        workers=_get(raw, "", "workers", integer(1), 1),
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError("<file>", f"no such config file: {path}") from exc
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON in {path}: {exc}") from exc
    return from_dict(raw)


def sweep_point(cfg: ExperimentConfig, value: float) -> ExperimentConfig:
    """cfg with its sweep axis leaf set to value. The leaf's owner checks it
    as it is built: a replaced coefficient goes through ModelParams, a
    replaced mass or shape value through InitialData."""
    section, _, leaf = cfg.sweep_axis.rpartition(".")
    if not section:
        return replace(cfg, **{leaf: value})
    return replace(cfg, **{section: replace(getattr(cfg, section), **{leaf: value})})
