"""Screened Poisson solves (-Lap + kappa) phi = f under zero-flux boundaries.

The reflected-ghost five-point Laplacian is exactly diagonal in the type-II
discrete cosine basis, so the solve is direct: forward DCT, divide each mode
by kappa + lambda_x(k) + lambda_y(l), inverse DCT. kappa > 0 keeps every
denominator positive, no zero-mode special case is needed, and the residual
sits at rounding level.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.fft import dctn, idctn

from .errors import NegativeDensity, NonPositiveKappa, SolverDiverged
from .grid import Field, require_finite
from .model import DomainSpec, ModelParams

# Rounding tolerance, relative to the field maximum, below which a negative
# value is attributed to floating point noise rather than a real sign change.
NEGATIVE_TOL = 1e-13


@lru_cache(maxsize=32)
def _mode_eigenvalues(dom: DomainSpec) -> np.ndarray:
    """lambda_x(k) + lambda_y(l) >= 0 for the negated Neumann Laplacian."""
    h = dom.h
    nx, ny = dom.cells
    lx = 2.0 * (1.0 - np.cos(np.pi * np.arange(nx) / nx)) / (h * h)
    ly = 2.0 * (1.0 - np.cos(np.pi * np.arange(ny) / ny)) / (h * h)
    eig = lx[:, None] + ly[None, :]
    eig.setflags(write=False)
    return eig


@lru_cache(maxsize=32)
def _screened_denominators(dom: DomainSpec, kappa: float) -> np.ndarray:
    """kappa + lambda_x(k) + lambda_y(l): the mode divisors of one screened solve.

    The signal solves reuse the same two kappas every step, so the sum is
    formed, and kappa checked (NonPositiveKappa), once per (domain, kappa).
    """
    if not (kappa > 0.0) or not np.isfinite(kappa):
        raise NonPositiveKappa(f"kappa must be > 0, got {kappa}")
    denom = kappa + _mode_eigenvalues(dom)
    denom.setflags(write=False)
    return denom


def _cosine_solve(values: np.ndarray, denominators: np.ndarray, what: str) -> np.ndarray:
    """Forward DCT, divide each mode by its denominator in place, inverse DCT.

    Raises SolverDiverged, naming `what`, when the result is not finite.
    """
    coeffs = dctn(values, type=2, norm="ortho")
    coeffs /= denominators
    out = idctn(coeffs, type=2, norm="ortho", overwrite_x=True)
    if not np.isfinite(out).all():
        raise SolverDiverged(f"{what} produced non-finite values")
    return out


def solve_helmholtz(source: Field, kappa: float) -> Field:
    """Direct cosine-transform solve of (-Lap + kappa) phi = f.

    Post-conditions (checked in tests, not per call): stencil residual below
    1e-10 * (max|f| + kappa max|phi|), integral identity
    integrate(phi) = integrate(f) / kappa, and mode-wise exactness on the
    shifted cosine eigenvectors.
    """
    denom = _screened_denominators(source.domain, kappa)
    require_finite(source, "helmholtz source")
    return Field(_cosine_solve(source.values, denom, "cosine-transform solve"), source.domain)


def implicit_diffusion_step(field: Field, dt: float) -> Field:
    """Backward-Euler heat step (I - dt Lap) u' = u via the same mode basis.

    The zero mode has eigenvalue 0, so the mean (hence the mass) is preserved
    exactly; all other modes are damped, never amplified.
    """
    require_finite(field, "implicit diffusion input")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    denom = dt * _mode_eigenvalues(field.domain)
    denom += 1.0
    return Field(_cosine_solve(field.values, denom, "implicit diffusion step"), field.domain)


def chemical_sources(u: Field, params: ModelParams) -> tuple[Field, Field]:
    """Source fields alpha u^rho and gamma u for the two signal equations.

    u may dip to -NEGATIVE_TOL * max(u) from rounding; such dips are clamped
    to zero before the fractional power. Anything more negative raises.
    """
    require_finite(u, "density")
    values = u.values
    u_min = float(values.min())
    u_max = float(values.max())
    if u_min < -NEGATIVE_TOL * max(u_max, 0.0):
        raise NegativeDensity(f"density min {u_min} below tolerance for max {u_max}")
    work = np.maximum(values, 0.0) if u_min < 0.0 else values
    rho = params.rho
    if rho == 1.0:
        powered = work
    elif rho == 0.5:
        powered = np.sqrt(work)
    else:
        powered = np.power(work, rho)
    dom = u.domain
    return Field(params.alpha * powered, dom), Field(params.gamma * values, dom)


def solve_signals(u: Field, params: ModelParams) -> tuple[Field, Field]:
    """Solve both signal equations for the given density.

    v solves (-Lap + beta) v = alpha u^rho, w solves (-Lap + delta) w = gamma u.
    Both inherit nonnegativity from the source up to rounding (discrete
    maximum principle); a violation beyond tolerance means the solver broke
    its contract and raises.
    """
    source_v, source_w = chemical_sources(u, params)
    dom = u.domain
    # The sources come from a checked density, so they skip solve_helmholtz's
    # input scan; one that overflowed is caught by the solve's own check.
    v, w = (
        Field(_cosine_solve(f.values, _screened_denominators(dom, kappa), "cosine-transform solve"), dom)
        for f, kappa in ((source_v, params.beta), (source_w, params.delta))
    )
    for name, signal in (("v", v), ("w", w)):
        mn = float(signal.values.min())
        mx = float(signal.values.max())
        if mn < -NEGATIVE_TOL * max(mx, 0.0):
            raise SolverDiverged(f"signal {name} violates the maximum principle: min {mn}")
    return v, w
