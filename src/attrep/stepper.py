"""Conservative transport stepping for the density equation.

The update is finite-volume in face-flux form. On each interior face between
cells L and R (normal pointing L to R) the stored flux is

    F = (u_R - u_L)/h - u_up * (phi_R - phi_L)/h

with phi = chi v - xi w the drift potential and u_up the donor cell with
respect to the physical face drift V = (phi_R - phi_L)/h: u_up = u_L when
V > 0, else u_R. Boundary faces are exactly zero. One step is

    u' = u + dt * div(F)

so mass conservation is structural (interior fluxes telescope, boundary
fluxes vanish) and donor-cell upwinding keeps the update monotone under the
CFL bound.

Two schemes: "explicit-upwind" treats everything explicitly and obeys both
the diffusive and the advective dt bound; "imex-diffusion" advects explicitly
but diffuses with a backward-Euler cosine-transform solve, dropping the
diffusive bound.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import DiagnosticsConfig, backfill_rate_estimates, sample
from .elliptic import implicit_diffusion_step, solve_signals
from .errors import NegativeDensity, NonFiniteState, SolverDiverged
from .grid import Field, integrate
from .model import ModelParams, validate_params

SCHEMES = ("explicit-upwind", "imex-diffusion")

# Default steady-state tolerance on ||u' - u||_inf / (dt ||u||_inf).
STEADY_TOL = 1e-10

# Default blow-up threshold multiplier applied to the mean density m/|Omega|.
BLOWUP_FACTOR = 1e6


class Status(enum.Enum):
    RUNNING = "Running"
    COMPLETED = "Completed"
    STEADY_DETECTED = "SteadyDetected"
    BLOWUP_SUSPECTED = "BlowupSuspected"


@dataclass(frozen=True)
class StepperConfig:
    dt_max: float = 1e-2
    cfl_safety: float = 0.4
    dt_min: float = 1e-12
    scheme: str = "explicit-upwind"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ValueError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety}")
        if not (0.0 < self.dt_min < self.dt_max):
            raise ValueError(f"need 0 < dt_min < dt_max, got {self.dt_min}, {self.dt_max}")


@dataclass(frozen=True)
class SimState:
    u: Field
    v: Field
    w: Field
    t: float
    step: int
    status: Status


def initial_state(u0: Field, params: ModelParams) -> SimState:
    validate_params(params)
    v, w = solve_signals(u0, params)
    return SimState(u0, v, w, t=0.0, step=0, status=Status.RUNNING)


def drift_potential(state: SimState, params: ModelParams) -> Field:
    """phi = chi v - xi w; cells drift up its gradient."""
    phi = np.multiply(state.v.values, params.chi)
    phi -= np.multiply(state.w.values, params.xi)
    return Field(phi, state.u.domain)


@dataclass(frozen=True)
class FaceFluxes:
    """Interior face fluxes: fx has shape (Nx-1, Ny), fy has shape (Nx, Ny-1).

    Boundary faces are implicit zeros.
    """

    fx: np.ndarray
    fy: np.ndarray


def face_fluxes(u: Field, phi: Field, *, diffusion: bool = True) -> FaceFluxes:
    """Diffusive plus upwinded advective flux on every interior face."""
    h = u.domain.h
    uv = u.values
    pv = phi.values
    return FaceFluxes(
        _axis_flux(uv[:-1, :], uv[1:, :], pv[:-1, :], pv[1:, :], h, diffusion),
        _axis_flux(uv[:, :-1], uv[:, 1:], pv[:, :-1], pv[:, 1:], h, diffusion),
    )


def _axis_flux(u_left, u_right, phi_left, phi_right, h, diffusion):
    """-u_up V (+ (u_R - u_L)/h) on the faces between the left and right
    cells, with V = (phi_R - phi_L)/h and the donor u_up = u_L where V > 0,
    else u_R. Works in two buffers; the arithmetic is the same, operation for
    operation, as forming each term in a fresh array."""
    speed = np.subtract(phi_right, phi_left)
    speed /= h
    flux = u_right.copy()
    np.copyto(flux, u_left, where=speed > 0.0)
    np.negative(flux, out=flux)
    flux *= speed
    if diffusion:
        grad = np.subtract(u_right, u_left, out=speed)
        grad /= h
        flux += grad
    return flux


def _flux_divergence(fluxes: FaceFluxes, u: Field) -> np.ndarray:
    h = u.domain.h
    div = np.empty(u.domain.cells)
    # 0.0 + fx, as accumulating onto zeros would give: it turns -0.0 into 0.0.
    np.add(fluxes.fx, 0.0, out=div[:-1, :])
    div[-1, :] = 0.0
    div[1:, :] -= fluxes.fx
    div[:, :-1] += fluxes.fy
    div[:, 1:] -= fluxes.fy
    div /= h
    return div


def _max_face_speed(phi: Field) -> float:
    pv = phi.values
    h = phi.domain.h
    speed = 0.0
    if pv.shape[0] > 1:
        speed = _max_abs_difference(pv[1:, :], pv[:-1, :]) / h
    if pv.shape[1] > 1:
        speed = max(speed, _max_abs_difference(pv[:, 1:], pv[:, :-1]) / h)
    return speed


def _max_abs_difference(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b|, in one temporary."""
    diff = np.subtract(a, b)
    return float(np.abs(diff, out=diff).max())


def stable_dt(state: SimState, params: ModelParams, cfg: StepperConfig) -> float:
    """cfl_safety * min(diffusive bound h^2/(2 dim), advective bound h/vmax),
    clamped to [dt_min, dt_max]; imex-diffusion drops the diffusive bound."""
    h = state.u.domain.h
    vmax = _max_face_speed(drift_potential(state, params))
    bounds = []
    if cfg.scheme == "explicit-upwind":
        bounds.append(h * h / (2.0 * state.u.values.ndim))
    if vmax > 0.0:
        bounds.append(h / vmax)
    dt = cfg.cfl_safety * min(bounds) if bounds else math.inf
    dt = min(dt, cfg.dt_max)
    return max(dt, cfg.dt_min)


def step(state: SimState, params: ModelParams, cfg: StepperConfig, dt: float | None = None) -> SimState:
    """Advance one step of size dt (stable_dt when omitted); recomputes the
    signals for the new density. Raises NonFiniteState on NaN/Inf."""
    if dt is None:
        dt = stable_dt(state, params, cfg)
    imex = cfg.scheme == "imex-diffusion"
    fluxes = face_fluxes(state.u, drift_potential(state, params), diffusion=not imex)
    # u + dt * div(F), built in the divergence buffer.
    update = _flux_divergence(fluxes, state.u)
    update *= dt
    update += state.u.values
    if not np.isfinite(update).all():
        raise NonFiniteState(f"density lost finiteness at t = {state.t}")
    new_u = Field(update, state.u.domain)
    if imex:
        new_u = implicit_diffusion_step(new_u, dt)
    v, w = solve_signals(new_u, params)
    return SimState(new_u, v, w, t=state.t + dt, step=state.step + 1, status=Status.RUNNING)


@dataclass(frozen=True)
class RunResult:
    state: SimState
    records: list
    steps: int
    wall_time: float
    mass_initial: float
    mass_final: float
    # Worst min(u)/max(u) seen over the whole run; stays above -1e-13 for a
    # CFL-compliant run that never blows up.
    min_density_ratio: float

    @property
    def mass_drift(self) -> float:
        return abs(self.mass_final - self.mass_initial) / self.mass_initial


def run(
    state: SimState,
    params: ModelParams,
    cfg: StepperConfig,
    t_end: float,
    *,
    diagnostics: DiagnosticsConfig | None = None,
    blowup_threshold: float | None = None,
    steady_tol: float = STEADY_TOL,
    callbacks: tuple = (),
    on_state=None,
) -> RunResult:
    """Step until t_end, steady state, or blow-up suspicion.

    Exit conditions, checked in this order at the top of each iteration:
    t >= t_end (Completed); max u above the threshold, the stable dt clamped
    at dt_min, or a non-finite/contract-violating step (all BlowupSuspected);
    relative change per unit time below steady_tol (SteadyDetected).

    Diagnostics are sampled at the top of every diagnostics.every-th step and
    once for the final state; `callbacks` receive (state, record) at each
    sample and `on_state` receives every accepted state. With t_end = 0 the
    loop exits before the first sample, so the series is empty.

    Checks sit at the edge: `initial_state` and `step` accept only a state
    whose density is finite and nonnegative up to rounding and whose signals
    are finite, and run does not re-check the states it reduces, samples or
    integrates. Pass it a state that one of them built.
    """
    validate_params(params)
    mass_initial = integrate(state.u)
    vol = state.u.domain.volume
    threshold = blowup_threshold if blowup_threshold is not None else BLOWUP_FACTOR * mass_initial / vol

    records: list = []
    last_sampled = -1
    started = time.perf_counter()

    def take_sample(s: SimState) -> None:
        nonlocal last_sampled
        rec = sample(s, diagnostics.ps, bounds=diagnostics.bounds)
        records.append(rec)
        last_sampled = s.step
        for cb in callbacks:
            cb(s, rec)

    # One min and one max per accepted state feed the density ratio, the
    # blow-up threshold and the steady-state scale max|u| = max(u_max, -u_min).
    u_min, u_max = float(state.u.values.min()), float(state.u.values.max())
    min_ratio = u_min / u_max if u_max > 0.0 else math.inf
    if on_state is not None:
        on_state(state)
    status = Status.RUNNING
    while True:
        if state.t >= t_end:
            status = Status.COMPLETED
            break
        if u_max > threshold:
            status = Status.BLOWUP_SUSPECTED
            break
        if diagnostics is not None and state.step % diagnostics.every == 0:
            take_sample(state)
        dt = stable_dt(state, params, cfg)
        if dt <= cfg.dt_min:
            status = Status.BLOWUP_SUSPECTED
            break
        try:
            new_state = step(state, params, cfg, dt)
        except (NonFiniteState, NegativeDensity, SolverDiverged):
            # The discrete solution left the regime the scheme is built for;
            # report suspicion rather than crash mid-experiment.
            status = Status.BLOWUP_SUSPECTED
            break
        scale = max(u_max, -u_min)
        u_min, u_max = float(new_state.u.values.min()), float(new_state.u.values.max())
        if u_max > 0.0:
            min_ratio = min(min_ratio, u_min / u_max)
        if on_state is not None:
            on_state(new_state)
        diff = _max_abs_difference(new_state.u.values, state.u.values)
        state = new_state
        if scale > 0.0 and diff / (dt * scale) < steady_tol:
            status = Status.STEADY_DETECTED
            break

    if diagnostics is not None:
        if records and state.step != last_sampled:
            take_sample(state)
        records = backfill_rate_estimates(records, diagnostics.ps[0])

    state = replace(state, status=status)
    return RunResult(
        state=state,
        records=records,
        steps=state.step,
        wall_time=time.perf_counter() - started,
        mass_initial=mass_initial,
        mass_final=integrate(state.u),
        min_density_ratio=min_ratio,
    )
