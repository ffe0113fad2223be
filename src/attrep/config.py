"""Experiment configuration: JSON in, validated dataclasses out.

One table, `_SCHEMA`, gives every key of a config with its reader. Every leaf
goes through one reader per kind (`number`, `exponent`, `integer`, `string`,
`_pair`), and the `sim` flags go through the same readers. Errors name the
offending field by its dotted path, so a bad config fails with a message like
"config field 'params.rho': missing".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from .diagnostics import DiagnosticsConfig
from .errors import ConfigError, SimulationError
from .model import _INITIAL_KINDS, BumpSpec, DomainSpec, InitialData, ModelParams
from .stepper import STEADY_TOL, StepperConfig

_COEFFS = ("alpha", "beta", "gamma", "delta", "chi", "xi", "rho")

# Leaves a sweep may vary; anything else is a config error, not a silent no-op.
SWEEPABLE = (
    {f"params.{name}" for name in _COEFFS}
    | {"initial.mass", "initial.amplitude", "initial.width"}
    | {"t_end", "blowup_threshold"}
)


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

    def __post_init__(self):
        # A sweep is an axis with at least one value; no sweep has neither.
        if (self.sweep_axis, self.sweep_values) != (None, None) and not (self.sweep_axis and self.sweep_values):
            raise ValueError(f"a sweep needs an axis and values, got {self.sweep_axis!r} and {self.sweep_values!r}")


def _choice(choices, problem: str):
    """A reader of strings in choices; problem formats the error for any other value."""

    def read(field: str, value) -> str:
        if string(field, value) not in choices:
            raise ConfigError(field, problem.format(value=value, choices=sorted(choices)))
        return value

    return read


def _block(schema: dict):
    """A reader of objects whose keys all appear in schema, as a dict of the
    keys given, each read by its key's reader under its dotted name. An
    absent key stays absent, so the default of what is built from it stands."""

    def read(field: str, value) -> dict:
        if not isinstance(value, dict):
            raise ConfigError(field, f"expected an object, got {type(value).__name__}")
        path = f"{field}." if field else ""
        for key in value:
            if key not in schema:
                raise ConfigError(path + key, "unknown key")
        return {key: schema[key](path + key, v) for key, v in value.items()}

    return read


def _given(block: dict, field: str, keys) -> dict:
    """block, once it holds each of keys; else the first absent one is missing."""
    for key in keys:
        if key not in block:
            raise ConfigError(f"{field}.{key}" if field else key, "missing")
    return block


_BUMP = _block({"center": _pair(number), "width": number, "amplitude": number})


def _bumps(field: str, value) -> tuple:
    """A non-empty list of bump objects, each with a center, width and amplitude."""
    if not isinstance(value, list) or not value:
        raise ConfigError(field, "expected a non-empty list")
    bumps = ((f"{field}[{i}]", bump) for i, bump in enumerate(value))
    keys = ("center", "width", "amplitude")
    return tuple(_build(BumpSpec, path, _given(_BUMP(path, b), path, keys)) for path, b in bumps)


def _exponent_list(field: str, value) -> tuple:
    """One energy exponent, or a non-empty list of distinct ones."""
    ps = tuple(exponent(field, p) for p in (value if isinstance(value, list) else [value]))
    if not ps:
        raise ConfigError(field, "expected a number or a non-empty list, got []")
    if len(set(ps)) < len(ps):
        raise ConfigError(field, f"expected a list of distinct exponents, got {value!r}")
    return ps


def _values(field: str, value) -> tuple:
    """A non-empty list of numbers, each named by its index."""
    if not isinstance(value, list) or not value:
        raise ConfigError(field, f"expected a non-empty list, got {value!r}")
    return tuple(number(f"{field}[{i}]", v) for i, v in enumerate(value))


# The reader of each field that a kind of initial data reads (model._INITIAL_KINDS).
_SHAPE = {"amplitude": number, "center": _pair(number), "width": number, "bumps": _bumps, "path": string}

# Every key of a config with its reader, block by block and then the root
# scalars, as in the README's Config schema. `initial` takes the fields of
# all its kinds, each checked even where the kind does not read it; from_dict
# passes InitialData only the ones its kind reads.
_SCHEMA = {
    "domain": _block({"lengths": _pair(number), "cells": _pair(integer(1))}),
    "params": _block({**dict.fromkeys(_COEFFS, number), "dim": integer(2)}),
    "initial": _block({"kind": _choice(_INITIAL_KINDS, "unknown kind {value!r}"), "mass": number, **_SHAPE}),
    "stepper": _block({"scheme": string, "dt_max": number, "cfl_safety": number, "dt_min": number}),
    "diagnostics": _block({"p": _exponent_list, "sample_every": integer(1)}),
    "outputs": _block({"directory": string, "snapshot_every": integer(0)}),
    "bounds": _block({"p": exponent, "cgn": number, "ce": number}),
    "sweep": _block(
        {"axis": _choice(SWEEPABLE, "{value!r} is not sweepable; choose from {choices}"), "values": _values}
    ),
    "t_end": number,
    "blowup_threshold": number,
    "steady_tol": number,
    "workers": integer(1),
}


def _build(cls, field: str, block: dict):
    """cls(**block), its ValueError or SimulationError named by field."""
    try:
        return cls(**block)
    except (ValueError, SimulationError) as exc:
        raise ConfigError(field, str(exc)) from exc


def from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "top level must be a JSON object")
    cfg = _given(_block(_SCHEMA)("", raw), "", ("domain", "params", "initial"))
    domain = _build(DomainSpec, "domain", _given(cfg["domain"], "domain", ("lengths", "cells")))
    params = _build(ModelParams, "params", _given(cfg["params"], "params", _COEFFS))
    block = _given(cfg["initial"], "initial", ("kind",))
    reads = _INITIAL_KINDS[block["kind"]][1]
    _given(block, "initial", [key for key, required in reads.items() if required])
    initial = _build(InitialData, "initial", {k: block[k] for k in ("kind", "mass", *reads) if k in block})
    sweep = _given(cfg["sweep"], "sweep", ("axis", "values")) if "sweep" in cfg else {}
    # An axis the initial data never reads would run the same point N times.
    axis = sweep.get("axis")
    section, _, leaf = (axis or "").partition(".")
    if section == "initial" and leaf != "mass":
        if leaf not in reads:
            raise ConfigError("sweep.axis", f"{initial.kind} initial data never reads {axis!r}")
        if leaf == "amplitude" and initial.mass is not None:
            raise ConfigError("sweep.axis", f"{axis!r} is cancelled by the rescale to initial.mass")
    diag, outputs, bounds = (cfg.get(name, {}) for name in ("diagnostics", "outputs", "bounds"))
    return ExperimentConfig(
        domain=domain,
        params=params,
        initial=initial,
        t_end=cfg.get("t_end", 1.0),
        stepper=_build(StepperConfig, "stepper", cfg.get("stepper", {})),
        diag_ps=diag.get("p", DiagnosticsConfig.ps),
        sample_every=diag.get("sample_every", DiagnosticsConfig.every),
        out_dir=outputs.get("directory", "sim_out"),
        snapshot_every=outputs.get("snapshot_every", 0),
        blowup_threshold=cfg.get("blowup_threshold"),
        steady_tol=cfg.get("steady_tol", STEADY_TOL),
        bounds_p=bounds.get("p"),
        bounds_cgn=bounds.get("cgn"),
        bounds_ce=bounds.get("ce"),
        sweep_axis=axis,
        sweep_values=sweep.get("values"),
        workers=cfg.get("workers", 1),
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
