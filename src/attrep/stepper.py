"""Conservative transport stepping for the density equation.

The update is finite-volume in face-flux form. On each interior face between
cells L and R (normal pointing L to R) the flux is

    F = (u_R - u_L)/h - u_up * (phi_R - phi_L)/h

with phi = chi v - xi w the drift potential and u_up the donor cell with
respect to the face drop D = phi_R - phi_L, h times the physical face drift:
u_up = u_L when D > 0, else u_R. Boundary faces are exactly zero. One step is

    u' = u + dt * div(F)

so mass conservation is structural (interior fluxes telescope, boundary
fluxes vanish) and donor-cell upwinding keeps the update monotone under the
CFL bound. The kernel works in h-scaled units. It stores hF = (u_R - u_L) -
u_up D on each face, or for the IMEX scheme's transport, which has no
diffusion, u_up D = -hF (the minus sign moves into the scale). It sums each
cell's face differences without dividing by h and applies one scale:
u' = u + ((dt/h)/h) * sum. A zero donor gives an exactly zero drift flux,
so a cell at 0 takes no outflow.

Two schemes, one entry each of _SCHEMES: whether the transport carries the
diffusion (so dt obeys the diffusive bound besides the advective one), and
the solve that turns the transported field into the new density in place.
"explicit-upwind" treats everything explicitly, its solve the identity;
"imex-diffusion" drops the diffusive bound and diffuses with a backward-Euler
cosine-transform solve (elliptic._implicit_solve).

A state is plain data: the density (its extrema are Field.extrema), the
clock and the size of the step that made it. The transport reads the signals
only through the drift potential phi, a function of the density alone, which
the step forms where it reads it: one forward transform (two when beta !=
delta) and the one inverse that makes phi (elliptic._drift_potential), so 2
(3) transforms an explicit step; the IMEX step adds the 2 of its diffusion
solve, so 4 (5). step builds the face drops D once, in work arrays of the
thread like every reusable buffer of a step (elliptic._workspace), and takes
its CFL bound from them (_bound) unless given dt; stable_dt is that bound on
its own. run only steps, and takes the steady-state change in the work field
`scratch`. A state can be stepped under any params. v and w are a read of u
(elliptic.solve_signals, diagnostics.sample), checked there.
"""

from __future__ import annotations

import enum
import math
import numbers
import time
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import DiagnosticsConfig, backfill_rate_estimates, sample
from .elliptic import _check_density, _drift_potential, _implicit_solve, _work_array
from .errors import NegativeDensity, NonFiniteState, SolverDiverged
from .grid import Field, integrate, require_finite
from .model import ModelParams, _is

_SCHEMES = {"explicit-upwind": (True, lambda values, dt, dom: values), "imex-diffusion": (False, _implicit_solve)}
SCHEMES = tuple(_SCHEMES)

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
        for name in ("dt_max", "cfl_safety", "dt_min"):
            if not _is(numbers.Real, getattr(self, name)):
                raise ValueError(f"{name} must be a real number, got {getattr(self, name)!r}")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ValueError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety}")
        if not (0.0 < self.dt_min < self.dt_max < math.inf):
            raise ValueError(f"need 0 < dt_min < dt_max < inf, got {self.dt_min}, {self.dt_max}")


@dataclass(frozen=True)
class SimState:
    """The density u, the clock, and dt, the size of the step that made the
    state (0.0 for an initial state). The density's extrema are u.extrema. No
    drift or signal is kept: stable_dt and step form the drift from u under
    their params, and solve_signals(state.u, params) reads v and w."""

    u: Field
    t: float
    step: int
    status: Status
    dt: float = 0.0


def initial_state(u0: Field, params: ModelParams) -> SimState:
    """The state at t = 0. u0 must be finite (NonFiniteField) and nonnegative
    up to rounding (NegativeDensity), its signal sources bounded
    (SolverDiverged), as for solve_signals, and params.dim 2 (ValueError)."""
    require_finite(u0, "density")
    _check_density(u0, params)
    return SimState(u0, 0.0, 0, Status.RUNNING)


def _drops(state: SimState, params: ModelParams) -> list[np.ndarray]:
    """The face drops (_face_drops) of the drift of the state's density under
    params (checks and transforms: elliptic._drift_potential)."""
    return _face_drops(_drift_potential(state.u, params))


# The faces normal to x are kept as an (Nx - 1, Ny) array, those normal to y
# as an (Nx, Ny) array whose last column, the boundary faces, holds 0. Entry
# (i, j) is the face between cell (i, j) and the next cell along the axis,
# Ny cells further on in the flattened grid along x and 1 along y. So one
# contiguous pass over the flattened grid covers the faces of either axis;
# along y it pairs the end of one row with the start of the next at a
# boundary face, which is then set to 0.


def _face_drops(phi: np.ndarray) -> list[np.ndarray]:
    """The drift's drop D = phi_R - phi_L on the faces of each axis, in work
    arrays of the calling thread (elliptic._workspace) that the next build on
    the grid writes over."""
    nx, ny = phi.shape
    flat = phi.reshape(-1)
    drops = [_work_array("face-drops", (nx - 1, ny)), _work_array("face-drops", (nx, ny))]
    for drop, offset in zip(drops, (ny, 1)):
        np.subtract(flat[offset:], flat[:-offset], out=drop.reshape(-1)[: flat.size - offset])
    drops[1][:, -1] = 0.0
    return drops


def _fluxes(u: np.ndarray, drops: list[np.ndarray], diffusion: bool, scratch: np.ndarray) -> list[np.ndarray]:
    """Overwrite the face drops D with the h-scaled flux, (u_R - u_L) - u_up D
    with diffusion, else u_up D, where the donor u_up = u_L where D > 0, else
    u_R, and return them; the boundary faces stay 0. The donors of each axis
    in turn are built in `scratch`, a contiguous float64 array of u's size."""
    flat = u.reshape(-1)
    cells = scratch.reshape(-1)
    for drop, offset in zip(drops, (u.shape[1], 1)):
        face = drop.reshape(-1)[: flat.size - offset]
        left, right = flat[:-offset], flat[offset:]
        up = cells[:-offset]
        np.copyto(up, right)
        np.copyto(up, left, where=face > 0.0)
        face *= up
        if diffusion:
            grad = np.subtract(right, left, out=up)
            np.subtract(grad, face, out=face)
    drops[1][:, -1] = 0.0
    return drops


def _flux_divergence(fx: np.ndarray, fy: np.ndarray, div: np.ndarray) -> np.ndarray:
    """The sum of each cell's face differences of the fluxes on the faces of
    each axis, written into `div`: h^2 div(F) for the h-scaled fluxes hF.
    Each cell takes its faces to the next cells (the last row has no x face
    there, and a boundary y face adds 0), then gives its faces from the
    previous ones."""
    ny = div.shape[1]
    cells, x, y = div.reshape(-1), fx.reshape(-1), fy.reshape(-1)
    np.add(x, y[: x.size], out=cells[: x.size])
    cells[x.size :] = y[x.size :]
    cells[ny:] -= x
    cells[1:] -= y[:-1]
    return div


def _transport(u: np.ndarray, drops: list[np.ndarray], dt: float, h: float, diffusion: bool, out: np.ndarray) -> np.ndarray:
    """u + dt div(F), the forward-Euler transport of u over the face drops
    (with diffusion or the drift alone), written into `out`, which first
    holds the flux donors (_fluxes). The drops become the fluxes. The one
    scale is (dt/h)/h, not dt/h^2, whose h^2 overflows or underflows first;
    it is negated for the drift-only flux u_up D = -hF."""
    _flux_divergence(*_fluxes(u, drops, diffusion, out), out)
    scale = (dt / h) / h
    if scale < math.inf:
        out *= scale if diffusion else -scale
    else:
        # Past the float range, divide by h first, so that a zero sum stays 0
        # where inf * 0 would make it NaN.
        out /= h
        out /= h
        out *= dt if diffusion else -dt
    out += u
    return out


def _bound(state: SimState, drops: list[np.ndarray], cfg: StepperConfig) -> float:
    """cfl_safety * min(diffusive bound h^2/(2 dim), advective bound h/vmax)
    over the face drops D of the state's drift, clamped to [dt_min, dt_max];
    imex-diffusion drops the diffusive bound. A drift with NaN or Inf, or
    whose largest face speed max|D|/h overflows, raises NonFiniteState."""
    h = state.u.domain.h
    # max|D/h| = max(max D, -min D)/h to the bit: dividing by h > 0 is
    # monotone. The boundary faces' zeros leave max(max D, -min D) as it is,
    # as it is never below 0. NaN propagates through min and max.
    extrema = [x for d in drops if d.size for x in (float(d.max()), -float(d.min()))]
    vmax = max(extrema, default=0.0) / h
    if not all(map(math.isfinite, [*extrema, vmax])):
        raise NonFiniteState(f"drift lost finiteness at t = {state.t}")
    diffusion, _ = _SCHEMES[cfg.scheme]
    bounds = [h * h / (2.0 * state.u.values.ndim)] if diffusion else []
    if vmax > 0.0:
        bounds.append(h / vmax)
    dt = cfg.cfl_safety * min(bounds) if bounds else math.inf
    return max(min(dt, cfg.dt_max), cfg.dt_min)


def stable_dt(state: SimState, params: ModelParams, cfg: StepperConfig) -> float:
    """The dt that step takes when given none (_bound), from the drift of the
    state's density under params."""
    return _bound(state, _drops(state, params), cfg)


def step(state: SimState, params: ModelParams, cfg: StepperConfig, dt: float | None = None) -> SimState:
    """Advance one step of size dt (stable_dt when omitted, else checked:
    0 < dt < inf or ValueError) with the drift of the state's density under
    params, formed once. The new state records dt. The extrema of the new
    density's Field carry its checks: NaN/Inf raises NonFiniteState
    (SolverDiverged when only the implicit diffusion solve lost finiteness),
    a dip below -1e-13 max raises NegativeDensity; the new state reuses the
    field and its pair, which also bounds the signal sources (SolverDiverged)."""
    if dt is not None and not 0.0 < dt < math.inf:
        raise ValueError(f"dt must satisfy 0 < dt < inf, got {dt}")
    u = state.u
    dom = u.domain
    drops = _drops(state, params)
    if dt is None:
        dt = _bound(state, drops, cfg)
    diffusion, solve = _SCHEMES[cfg.scheme]
    # u + dt * div(F), solved in place; the fluxes overwrite the drops.
    new_u = Field(solve(_transport(u.values, drops, dt, dom.h, diffusion, np.empty(dom.cells)), dt, dom), dom)
    if not all(map(math.isfinite, new_u.extrema)):
        # The solve wrote over the (now frozen) transport: rebuild it to see which failed.
        if np.isfinite(_transport(u.values, _drops(state, params), dt, dom.h, diffusion, np.empty(dom.cells))).all():
            raise SolverDiverged("implicit diffusion step produced non-finite values")
        raise NonFiniteState(f"density lost finiteness at t = {state.t}")
    _check_density(new_u, params)
    return SimState(new_u, state.t + dt, state.step + 1, Status.RUNNING, dt)


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

    Exit conditions, checked in this order in each iteration:
    t >= t_end (Completed); max u above the threshold, a non-finite or
    contract-violating step, or a step whose stable dt is clamped at dt_min
    (all BlowupSuspected; the last is made and then discarded); relative
    change per unit time below steady_tol (SteadyDetected).

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
    vol = state.u.domain.volume
    threshold = blowup_threshold if blowup_threshold is not None else BLOWUP_FACTOR * mass_initial / vol

    records: list = []
    last_sampled = -1
    started = time.perf_counter()

    # The extrema of each density feed the density ratio, the blow-up
    # threshold and the steady-state scale max|u| = max(u_max, -u_min).
    u_min, u_max = state.u.extrema
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
        try:
            if diagnostics is not None and state.step % diagnostics.every == 0:
                records.append(sample(state, params, diagnostics))
                last_sampled = state.step
            new_state = step(state, params, cfg)
        except (NonFiniteState, NegativeDensity, SolverDiverged):
            # The discrete solution left the regime the scheme is built for;
            # report suspicion rather than crash mid-experiment.
            status = Status.BLOWUP_SUSPECTED
            break
        if new_state.dt <= cfg.dt_min:
            # The step bound sank to its floor: the step is not accepted.
            status = Status.BLOWUP_SUSPECTED
            break
        new_min, new_max = new_state.u.extrema
        if new_max > 0.0:
            min_ratio = min(min_ratio, new_min / new_max)
        if on_state is not None:
            on_state(new_state)
        diff = np.subtract(new_state.u.values, state.u.values, out=_work_array("scratch", state.u.domain.cells))
        change = float(np.abs(diff, out=diff).max())
        scale = max(u_max, -u_min)
        state, u_min, u_max = new_state, new_min, new_max
        if scale > 0.0 and change / (state.dt * scale) < steady_tol:
            status = Status.STEADY_DETECTED
            break

    if diagnostics is not None:
        if records and state.step != last_sampled:
            try:
                records.append(sample(state, params, diagnostics))
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
