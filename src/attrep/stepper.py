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

A state is plain data: the density, its extrema, the clock and the drift
potential phi. The transport reads the signals only through phi, so
initial_state and step end with the one inverse transform that makes it
(elliptic._drift_potential), after at most one forward transform: 2
transforms an explicit step; the IMEX step adds the 2 of its diffusion
solve, whose coefficients of u it hands over, so 4, or 3 at rho = 1. run
builds the face speeds V from the state's phi once a step, in work arrays
of the thread like every reusable buffer of a step (elliptic._workspace),
and hands them to stable_dt and step. A state records the params its phi
was built with; stable_dt, step and run handed other params form phi anew
from u under theirs, so a state can be stepped under any params. v and w
are a read of u (elliptic.solve_signals, diagnostics.sample), checked there.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import InitVar, dataclass, field, replace

import numpy as np

from .diagnostics import DiagnosticsConfig, backfill_rate_estimates, sample
from .elliptic import _drift_potential, _implicit_solve, _work_array
from .errors import NegativeDensity, NonFiniteState, SolverDiverged
from .grid import Field, integrate, require_finite
from .model import DomainSpec, ModelParams

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
    """The density u, the drift potential phi = chi v - xi w (Nx, Ny) under
    `params`, the clock, and the extrema u_min, u_max of the density:
    `extrema` when given (step passes the pair it checked), else taken from
    u, as for any other construction, dataclasses.replace too.

    Construction freezes `phi` in place, as Field does its values. v and w
    are not kept: solve_signals(state.u, params) reads them."""

    u: Field
    phi: np.ndarray
    params: ModelParams
    t: float
    step: int
    status: Status
    extrema: InitVar[tuple[float, float] | None] = None
    u_min: float = field(init=False)
    u_max: float = field(init=False)

    def __post_init__(self, extrema):
        u_min, u_max = extrema or (float(self.u.values.min()), float(self.u.values.max()))
        object.__setattr__(self, "u_min", u_min)
        object.__setattr__(self, "u_max", u_max)
        self.phi.setflags(write=False)


def initial_state(u0: Field, params: ModelParams) -> SimState:
    """The state at t = 0. u0 must be finite (NonFiniteField) and nonnegative
    up to rounding (NegativeDensity), as for solve_signals."""
    require_finite(u0, "density")
    values = u0.values
    extrema = float(values.min()), float(values.max())
    phi = _drift_potential(values, *extrema, params, u0.domain)
    return SimState(u0, phi, params, t=0.0, step=0, status=Status.RUNNING, extrema=extrema)


def _phi(state: SimState, params: ModelParams) -> np.ndarray:
    """The drift potential of the state's density under params: the state's
    own phi when it was built under them, else formed anew (checks and
    transforms as for initial_state)."""
    if state.params is params or state.params == params:
        return state.phi
    return _drift_potential(state.u.values, state.u_min, state.u_max, params, state.u.domain)


# The left and right cells of the interior faces normal to each axis.
_FACES = ((np.s_[:-1, :], np.s_[1:, :]), (np.s_[:, :-1], np.s_[:, 1:]))


def _face_speeds(phi: np.ndarray, h: float) -> list[np.ndarray]:
    """The face drift V = (phi_R - phi_L)/h on the interior faces of each
    axis, in work arrays of the calling thread (elliptic._workspace) that the
    next build on a grid of the same shape writes over."""
    speeds = [
        np.subtract(phi[right], phi[left], out=_work_array("face-speeds", phi[right].shape)) for left, right in _FACES
    ]
    for speed in speeds:
        speed /= h
    return speeds


def _fluxes(u: np.ndarray, speeds: list[np.ndarray], h: float, diffusion: bool, scratch: np.ndarray) -> list[np.ndarray]:
    """Overwrite the face speeds V with the flux -u_up V (+ (u_R - u_L)/h),
    where the donor u_up = u_L where V > 0, else u_R, and return them. The
    arithmetic is the same, operation for operation, as in fresh arrays. The
    donors of each axis in turn are built in `scratch`, a contiguous float64
    array of u's size."""
    cells = scratch.reshape(-1)
    for speed, (left, right) in zip(speeds, _FACES):
        up = cells[: speed.size].reshape(speed.shape)
        np.copyto(up, u[right])
        np.copyto(up, u[left], where=speed > 0.0)
        np.negative(up, out=up)
        speed *= up
        if diffusion:
            grad = np.subtract(u[right], u[left], out=up)
            grad /= h
            speed += grad
    return speeds


def _flux_divergence(fx: np.ndarray, fy: np.ndarray, dom: DomainSpec, div: np.ndarray) -> np.ndarray:
    """div(F) on the cells, written into `div`."""
    # 0.0 + fx, as accumulating onto zeros would give: it turns -0.0 into 0.0.
    np.add(fx, 0.0, out=div[:-1, :])
    div[-1, :] = 0.0
    div[1:, :] -= fx
    div[:, :-1] += fy
    div[:, 1:] -= fy
    div /= dom.h
    return div


def stable_dt(state: SimState, params: ModelParams, cfg: StepperConfig, *, speeds=None) -> float:
    """cfl_safety * min(diffusive bound h^2/(2 dim), advective bound h/vmax),
    clamped to [dt_min, dt_max]; imex-diffusion drops the diffusive bound. A
    drift with NaN or Inf raises NonFiniteState. `speeds`, the list of face
    speeds of the drift under params, is built when omitted."""
    h = state.u.domain.h
    if speeds is None:
        speeds = _face_speeds(_phi(state, params), h)
    # max|V| = max(max V, -min V); dividing by h is monotone, so this is
    # max|phi_R - phi_L| / h to the bit. NaN propagates through min and max.
    extrema = [x for s in speeds if s.size for x in (float(s.max()), -float(s.min()))]
    if not all(map(math.isfinite, extrema)):
        raise NonFiniteState(f"drift lost finiteness at t = {state.t}")
    vmax = max(extrema, default=0.0)
    bounds = [h * h / (2.0 * state.u.values.ndim)] if cfg.scheme == "explicit-upwind" else []
    if vmax > 0.0:
        bounds.append(h / vmax)
    dt = cfg.cfl_safety * min(bounds) if bounds else math.inf
    return max(min(dt, cfg.dt_max), cfg.dt_min)


def step(state: SimState, params: ModelParams, cfg: StepperConfig, dt: float | None = None, *, speeds=None) -> SimState:
    """Advance one step of size dt (stable_dt when omitted, else checked:
    0 < dt < inf or ValueError) with the drift under params, then form the
    drift of the new density. One min and one max of the new density carry
    its checks: NaN/Inf raises NonFiniteState (SolverDiverged when only the
    implicit diffusion solve lost finiteness), a dip below -1e-13 max raises
    NegativeDensity; the new state carries the pair, which also bounds the
    signal sources (SolverDiverged). `speeds` as for stable_dt: step writes
    the fluxes into them and empties the list."""
    if dt is not None and not 0.0 < dt < math.inf:
        raise ValueError(f"dt must satisfy 0 < dt < inf, got {dt}")
    u = state.u
    dom = u.domain
    if speeds is None:
        speeds = _face_speeds(_phi(state, params), dom.h)
    if dt is None:
        dt = stable_dt(state, params, cfg, speeds=speeds)
    imex = cfg.scheme == "imex-diffusion"
    # u + dt * div(F), in the divergence buffer, which holds the flux donors
    # first; the fluxes overwrite the speeds and go before the transforms,
    # the caller's list emptied too. The explicit update is the new density;
    # the IMEX one is kept per thread (elliptic._workspace), as its solve
    # makes the new density.
    update = _work_array("imex-update", dom.cells) if imex else np.empty(dom.cells)
    _flux_divergence(*_fluxes(u.values, speeds, dom.h, not imex, update), dom, update)
    speeds.clear()
    update *= dt
    update += u.values
    if imex:
        new_u, coeffs = _implicit_solve(update, dt, dom)
    else:
        new_u, coeffs = update, None
    u_min, u_max = float(new_u.min()), float(new_u.max())
    if not (math.isfinite(u_min) and math.isfinite(u_max)):
        if imex and np.isfinite(update).all():
            raise SolverDiverged("implicit diffusion step produced non-finite values")
        raise NonFiniteState(f"density lost finiteness at t = {state.t}")
    del update  # past its check, the forward-Euler update is not needed
    phi = _drift_potential(new_u, u_min, u_max, params, dom, coeffs)
    return SimState(Field(new_u, dom), phi, params, state.t + dt, state.step + 1, Status.RUNNING, (u_min, u_max))


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
        """|mass_final - mass_initial|, relative unless mass_initial is 0."""
        drift = abs(self.mass_final - self.mass_initial)
        return drift / self.mass_initial if self.mass_initial else drift


def run(
    state: SimState,
    params: ModelParams,
    cfg: StepperConfig,
    t_end: float,
    *,
    diagnostics: DiagnosticsConfig | None = None,
    blowup_threshold: float | None = None,
    steady_tol: float = STEADY_TOL,
    on_state=None,
) -> RunResult:
    """Step until t_end, steady state, or blow-up suspicion.

    Exit conditions, checked in this order at the top of each iteration:
    t >= t_end (Completed); max u above the threshold, the stable dt clamped
    at dt_min, or a non-finite/contract-violating step (all BlowupSuspected);
    relative change per unit time below steady_tol (SteadyDetected).

    Diagnostics are sampled at the top of every diagnostics.every-th step and
    once for the final state; `on_state` receives every accepted state. With
    t_end = 0 the loop exits before the first sample, so the series is empty;
    t_end = inf runs until one of the other exits. A NaN t_end (which no t
    reaches), blowup_threshold (which no u_max exceeds) or steady_tol (which
    no change falls below) raises ValueError.

    Checks sit at the edge: `initial_state` and `step` build only states
    whose density is finite and nonnegative up to rounding, and run does not
    re-check the states it reduces, samples or integrates. Pass it a state
    that one of them built. A sample reads v and w and checks them; its
    SolverDiverged is reported as BlowupSuspected, like a failed step.
    """
    if math.isnan(t_end):
        raise ValueError("t_end is NaN; pass inf to run to a steady state")
    if blowup_threshold is not None and math.isnan(blowup_threshold):
        raise ValueError("blowup_threshold is NaN")
    if math.isnan(steady_tol):
        raise ValueError("steady_tol is NaN")
    mass_initial = integrate(state.u)
    h, vol = state.u.h, state.u.domain.volume
    threshold = blowup_threshold if blowup_threshold is not None else BLOWUP_FACTOR * mass_initial / vol

    records: list = []
    last_sampled = -1
    started = time.perf_counter()

    # The extrema each state carries feed the density ratio, the blow-up
    # threshold and the steady-state scale max|u| = max(u_max, -u_min).
    min_ratio = state.u_min / state.u_max if state.u_max > 0.0 else math.inf
    if on_state is not None:
        on_state(state)
    status = Status.RUNNING
    while True:
        if state.t >= t_end:
            status = Status.COMPLETED
            break
        if state.u_max > threshold:
            status = Status.BLOWUP_SUSPECTED
            break
        try:
            if diagnostics is not None and state.step % diagnostics.every == 0:
                records.append(sample(state, params, diagnostics.ps, bounds=diagnostics.bounds))
                last_sampled = state.step
            # One build of the face speeds serves stable_dt and then step.
            speeds = _face_speeds(_phi(state, params), h)
            dt = stable_dt(state, params, cfg, speeds=speeds)
            if dt <= cfg.dt_min:
                status = Status.BLOWUP_SUSPECTED
                break
            new_state = step(state, params, cfg, dt, speeds=speeds)
        except (NonFiniteState, NegativeDensity, SolverDiverged):
            # The discrete solution left the regime the scheme is built for;
            # report suspicion rather than crash mid-experiment.
            status = Status.BLOWUP_SUSPECTED
            break
        if new_state.u_max > 0.0:
            min_ratio = min(min_ratio, new_state.u_min / new_state.u_max)
        if on_state is not None:
            on_state(new_state)
        diff = np.subtract(new_state.u.values, state.u.values, out=_work_array("steady-change", state.u.domain.cells))
        change = float(np.abs(diff, out=diff).max())
        scale = max(state.u_max, -state.u_min)
        state = new_state
        if scale > 0.0 and change / (dt * scale) < steady_tol:
            status = Status.STEADY_DETECTED
            break

    if diagnostics is not None:
        if records and state.step != last_sampled:
            try:
                records.append(sample(state, params, diagnostics.ps, bounds=diagnostics.bounds))
            except SolverDiverged:
                status = Status.BLOWUP_SUSPECTED
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
