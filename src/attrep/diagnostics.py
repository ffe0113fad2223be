"""Scalar time-series diagnostics and bound-consistency checks.

A sample, at the exponents and bounds of a DiagnosticsConfig, captures mass,
density extrema, the energies E_p = integral(u^p), their gradient terms
integral(|grad u^{p/2}|^2), and the signal maxima. Rate estimates (dE/dt) are
forward differences between consecutive samples, filled in after a run. The
two check_* functions compare a sampled series against the analytic energy
inequality and the absorptive bound; they are consistency reports for discrete
trajectories, not proofs. A sample's sums and both signal solves go through
one work field, `scratch` (elliptic._workspace): a warm one allocates only the
powers u^{p/2} for p != 2 and the clamp of a u that dips below 0.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .elliptic import _signals, _work_array
from .errors import InsufficientSamples, MismatchedP, NonFiniteField
from .grid import _grad_sum, _integral, _lp_integral
from .model import _is

if TYPE_CHECKING:
    from .bounds import BoundsReport
    from .model import ModelParams
    from .stepper import SimState


def _exponents(ps) -> tuple[float, ...]:
    """The energy exponents as floats: a collection (not a string, a bare
    number or None) of at least one, each a finite real number above 1 (not a
    bool or a string), none repeated (ValueError naming them)."""
    if isinstance(ps, str) or not isinstance(ps, Iterable):
        raise ValueError(f"ps must be a collection of real numbers, got {ps!r}")
    values = tuple(ps)
    if not all(_is(numbers.Real, p) for p in values):
        raise ValueError(f"every exponent must be a real number, got {ps!r}")
    ps = tuple(float(p) for p in values)
    if not ps:
        raise ValueError("need at least one exponent p")
    if not all(1.0 < p < math.inf for p in ps):
        raise ValueError(f"every exponent must be finite and satisfy p > 1, got {ps}")
    if len(set(ps)) < len(ps):
        raise ValueError(f"each exponent must appear once, got {ps}")
    return ps


@dataclass(frozen=True)
class DiagnosticsConfig:
    ps: tuple[float, ...] = (2.0,)
    every: int = 10
    bounds: "BoundsReport | None" = None

    def __post_init__(self):
        object.__setattr__(self, "ps", _exponents(self.ps))
        # A fractional interval would sample only where step % every is 0,
        # and a bool would pass for 1.
        if not (_is(numbers.Integral, self.every) and self.every >= 1):
            raise ValueError(f"sample interval must be an integer >= 1, got {self.every!r}")
        if self.bounds is not None and self.bounds.p not in self.ps:
            raise MismatchedP(
                f"bounds are for p = {self.bounds.p}, sampled exponents are {self.ps}"
            )


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    mass: float
    u_min: float
    u_max: float
    energies: dict
    grad_energies: dict
    v_max: float
    w_max: float
    dedt_estimate: float
    rhs_bound: float


def sample(state: SimState, params: ModelParams, diagnostics: DiagnosticsConfig) -> DiagnosticsRecord:
    """Pure snapshot of the state at the exponents and bounds of diagnostics,
    checked when it was built; identical states give identical records.

    Rounding-level negative dips in u are clamped to zero inside the powers
    only; u_min reports the true minimum, which the density carries. Each
    distinct power of u is computed once. v and w are read from u under
    params, one after the other, and checked (SolverDiverged); their maxima
    come from that check."""
    ps, bounds = diagnostics.ps, diagnostics.bounds
    h = state.u.h
    uv = state.u.values
    # NaN propagates through min and max and an infinity is an extreme, so
    # the density's pair checks u for every sum below.
    u_min, u_max = state.u.extrema
    if not (math.isfinite(u_min) and math.isfinite(u_max)):
        raise NonFiniteField("field contains NaN or Inf")
    clamped = np.maximum(uv, 0.0) if u_min < 0.0 else uv

    # u^{p/2} for each gradient term (u itself at p = 2) is also the power of
    # the energy whose exponent is p/2: u^1.5 serves the p = 3 gradient term
    # and E_1.5. An overflowing power fails its kernel's sum (NonFiniteField).
    roots = {p: clamped if p == 2.0 else np.power(clamped, p / 2.0) for p in ps}
    powers = {p / 2.0: root for p, root in roots.items()}
    scratch = _work_array("scratch", uv.shape)
    energies = {p: _lp_integral(powers[p], 1.0, h, scratch) if p in powers else _lp_integral(clamped, p, h, scratch) for p in ps}
    grads = {p: _grad_sum(root, scratch) for p, root in roots.items()}

    rhs_bound = math.nan
    if bounds is not None:
        p = bounds.p
        rhs_bound = -(4.0 * (p - 1.0) / p) * grads[p] + bounds.cbar

    v_max, w_max = _signals(state.u, params)
    return DiagnosticsRecord(
        t=float(state.t),
        mass=_integral(uv, h),
        u_min=u_min,
        u_max=u_max,
        energies=energies,
        grad_energies=grads,
        v_max=v_max,
        w_max=w_max,
        dedt_estimate=math.nan,
        rhs_bound=rhs_bound,
    )


def backfill_rate_estimates(records: list, p: float) -> list:
    """Forward-difference dE_p/dt onto each record; the last keeps NaN."""
    p = float(p)
    out = list(records)
    for i in range(len(out) - 1):
        a, b = out[i], out[i + 1]
        dt = b.t - a.t
        if dt > 0.0 and p in a.energies and p in b.energies:
            out[i] = replace(a, dedt_estimate=(b.energies[p] - a.energies[p]) / dt)
    return out


@dataclass(frozen=True)
class InequalityReport:
    n_pairs: int
    n_ok: int

    @property
    def fraction_ok(self) -> float:
        return self.n_ok / self.n_pairs if self.n_pairs else math.nan


def check_energy_inequality(records: list, p: float, cbar: float) -> InequalityReport:
    """Fraction of consecutive sample pairs satisfying the discrete energy
    inequality

        (E2 - E1)/(t2 - t1) <= -(4(p-1)/p) * G_mid + cbar + tol

    with G_mid the mean of the two gradient terms and slack
    tol = 0.05 (|rhs| + cbar) for discretization error.
    """
    p = float(p)
    if len(records) < 2:
        raise InsufficientSamples(f"need at least two samples, got {len(records)}")
    for rec in records:
        if p not in rec.energies or p not in rec.grad_energies:
            raise MismatchedP(f"records do not carry exponent p = {p}")
    n_pairs = 0
    n_ok = 0
    for a, b in zip(records[:-1], records[1:]):
        dt = b.t - a.t
        if dt <= 0.0:
            continue
        lhs = (b.energies[p] - a.energies[p]) / dt
        g_mid = 0.5 * (a.grad_energies[p] + b.grad_energies[p])
        rhs = -(4.0 * (p - 1.0) / p) * g_mid + cbar
        tol = 0.05 * (abs(rhs) + cbar)
        n_pairs += 1
        if lhs <= rhs + tol:
            n_ok += 1
    if n_pairs == 0:
        raise InsufficientSamples("no sample pair with positive time separation")
    return InequalityReport(n_pairs=n_pairs, n_ok=n_ok)


@dataclass(frozen=True)
class AbsorptiveReport:
    max_energy: float
    bound: float

    @property
    def max_ratio(self) -> float:
        return self.max_energy / self.bound


def check_absorptive_bound(records: list, p: float, e0: float, c_star_total: float) -> AbsorptiveReport:
    """max_t E_p(t) against max(E_p(0), c_star_total).

    With exact constants the ratio must stay below 1 + 1e-6; with estimated
    constants it is reported for judgment rather than asserted.
    """
    p = float(p)
    if not records:
        raise InsufficientSamples("need at least one sample")
    for rec in records:
        if p not in rec.energies:
            raise MismatchedP(f"records do not carry exponent p = {p}")
    max_energy = max(rec.energies[p] for rec in records)
    return AbsorptiveReport(max_energy=max_energy, bound=max(float(e0), float(c_star_total)))


def diagnostics_header(ps) -> str:
    ps = tuple(float(p) for p in ps)
    cols = ["t", "mass", "u_min", "u_max"]
    cols += [f"E_{p:g}" for p in ps]
    cols += [f"gradE_{p:g}" for p in ps]
    cols += ["v_max", "w_max", "dEdt", "rhs_bound"]
    return ",".join(cols)


def write_diagnostics_csv(records: list, ps, path) -> None:
    """One row per sample, 17 significant digits, header first; streamed by row."""
    ps = tuple(float(p) for p in ps)
    with open(path, "w") as fh:
        fh.write(diagnostics_header(ps) + "\n")
        for rec in records:
            row = [rec.t, rec.mass, rec.u_min, rec.u_max]
            row += [rec.energies[p] for p in ps]
            row += [rec.grad_energies[p] for p in ps]
            row += [rec.v_max, rec.w_max, rec.dedt_estimate, rec.rhs_bound]
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
