"""Screened Poisson solves (-Lap + kappa) phi = f under zero-flux boundaries.

The reflected-ghost five-point Laplacian is exactly diagonal in the type-II
discrete cosine basis, so the solve is direct: forward DCT, divide each mode
by kappa + lambda_x(k) + lambda_y(l), inverse DCT. kappa > 0 keeps every
denominator positive, no zero-mode special case is needed, and the residual
sits at rounding level.

Every transform goes through one pair, _forward and _inverse: the
orthonormal DCT-II and its inverse over the last two axes of a field
(Nx, Ny) or a stack (2, Nx, Ny), written over the given buffer. On a grid
whose axes both have at most _MATMUL_MAX_CELLS cells the pair is two matrix
products with cached cosine matrices, C X C'^T forward and C^T X C'
inverse; at that size scipy's per-call dispatch costs more than the
arithmetic. Larger grids go through scipy.fft.dctn and idctn.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np
from scipy.fft import dctn, idctn

from .errors import NegativeDensity, NonPositiveKappa, SolverDiverged
from .grid import Field, require_finite
from .model import DomainSpec, ModelParams

# Rounding tolerance, relative to the field maximum, below which a negative
# value is attributed to floating point noise rather than a real sign change.
NEGATIVE_TOL = 1e-13

# The longest axis that transforms as two matrix products. OpenBLAS runs
# products of up to about 96 a side on one core, but those of 128 on two,
# which the sweep's two worker processes must not take; at 256^2 scipy is
# faster.
_MATMUL_MAX_CELLS = 64


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


@lru_cache(maxsize=None)
def _dct_matrix(n: int) -> np.ndarray:
    """The orthonormal DCT-II matrix C[k, j] = s_k cos(pi k (2j + 1) / 2n),
    s_0 = sqrt(1/n) and s_k = sqrt(2/n) for k > 0. The integer k (2j + 1) is
    reduced mod 4n first, so every cosine argument lies in [0, 2 pi). Only
    n <= _MATMUL_MAX_CELLS reaches it, which bounds the cache."""
    k = np.arange(n)
    c = np.cos(np.pi / (2 * n) * (np.outer(k, 2 * k + 1) % (4 * n)))
    c *= math.sqrt(2.0 / n)
    c[0] = math.sqrt(1.0 / n)
    c.setflags(write=False)
    return c


def _forward(buf: np.ndarray) -> np.ndarray:
    """The DCT-II over the last two axes of the float64 array `buf`, written
    over it; the result is `buf` itself (with overwrite_x scipy transforms
    it where it lies)."""
    nx, ny = buf.shape[-2:]
    if max(nx, ny) <= _MATMUL_MAX_CELLS:
        np.matmul(_dct_matrix(nx) @ buf, _dct_matrix(ny).T, out=buf)
    else:
        dctn(buf, type=2, norm="ortho", axes=(-2, -1), overwrite_x=True)
    return buf


def _inverse(buf: np.ndarray) -> np.ndarray:
    """The inverse of _forward, written over `buf` in the same way."""
    nx, ny = buf.shape[-2:]
    if max(nx, ny) <= _MATMUL_MAX_CELLS:
        np.matmul(_dct_matrix(nx).T @ buf, _dct_matrix(ny), out=buf)
    else:
        idctn(buf, type=2, norm="ortho", axes=(-2, -1), overwrite_x=True)
    return buf


def solve_helmholtz(source: Field, kappa: float) -> Field:
    """Direct cosine-transform solve of (-Lap + kappa) phi = f.

    Post-conditions (checked in tests, not per call): stencil residual below
    1e-10 * (max|f| + kappa max|phi|), integral identity
    integrate(phi) = integrate(f) / kappa, and mode-wise exactness on the
    shifted cosine eigenvectors.
    """
    denom = _screened_denominators(source.domain, kappa)
    require_finite(source, "helmholtz source")
    coeffs = _forward(source.values.copy())
    coeffs /= denom
    out = _inverse(coeffs)
    if not np.isfinite(out).all():
        raise SolverDiverged("cosine-transform solve produced non-finite values")
    return Field(out, source.domain)


def _implicit_solve(values: np.ndarray, dt: float, dom: DomainSpec) -> tuple[np.ndarray, np.ndarray]:
    """(I - dt Lap)^-1 values, the backward-Euler heat step, and its cosine
    coefficients for the signals. The zero mode has eigenvalue 0, so the mean
    (hence the mass) is kept exactly; every other mode is damped."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    denom = dt * _mode_eigenvalues(dom)
    denom += 1.0
    coeffs = _forward(values.copy())
    coeffs /= denom
    return _inverse(coeffs.copy()), coeffs


def _production(values: np.ndarray, u_min: float, params: ModelParams, out: np.ndarray) -> np.ndarray:
    """alpha u^rho into `out`, with rounding-level dips clamped to zero
    before the power."""
    if u_min < 0.0:
        values = np.maximum(values, 0.0, out=out)
    rho = params.rho
    if rho == 1.0:
        return np.multiply(values, params.alpha, out=out)
    if rho == 0.5:
        np.sqrt(values, out=out)
    else:
        np.power(values, rho, out=out)
    out *= params.alpha
    return out


# A zero mode at most this large bounds every mode of the stack (below).
_ZERO_MODE_LIMIT = sys.float_info.max / 4.0


def _signal_coefficients(values, u_min: float, u_max: float, params: ModelParams, dom: DomainSpec, coeffs=None) -> np.ndarray:
    """The cosine coefficients of v and w, stacked (2, Nx, Ny), for a finite
    density with extrema u_min and u_max.

    Each source is written into its slot of the stack and transformed there.
    Given the cosine coefficients of `values`, w's source gamma u is scaled in
    cosine space; so is alpha u at rho = 1 with no dip to clamp, where one
    forward transform serves both. Exact for unit alpha and gamma.

    The check is O(1): a nonnegative source has |c_k| <= 2 c_0 in 2D, and no
    mode divisor is below its kappa, so a finite zero mode at most float_max/4
    in each slot keeps every coefficient finite (else SolverDiverged). The
    signals themselves are checked when they are read (_signals_from).
    """
    if u_min < -NEGATIVE_TOL * max(u_max, 0.0):
        raise NegativeDensity(f"density min {u_min} below tolerance for max {u_max}")
    stack = np.empty((2, *values.shape))
    v_hat, w_hat = stack
    shared = params.rho == 1.0 and u_min >= 0.0
    if shared and coeffs is None:
        # u's coefficients, in w's slot until v's are taken from them.
        np.copyto(w_hat, values)
        coeffs = _forward(w_hat)
    if shared:
        np.multiply(coeffs, params.alpha, out=v_hat)
    else:
        _forward(_production(values, u_min, params, out=v_hat))
    if coeffs is None:
        _forward(np.multiply(values, params.gamma, out=w_hat))
    else:
        np.multiply(coeffs, params.gamma, out=w_hat)
    v_hat /= _screened_denominators(dom, params.beta)
    w_hat /= _screened_denominators(dom, params.delta)
    if not (abs(v_hat[0, 0]) <= _ZERO_MODE_LIMIT and abs(w_hat[0, 0]) <= _ZERO_MODE_LIMIT):
        raise SolverDiverged("cosine-transform solve produced non-finite values")
    return stack


def _signals_from(coeffs: np.ndarray, names: str = "vw") -> tuple[np.ndarray, tuple[float, ...]]:
    """The signals named by `names` from their stacked cosine coefficients,
    with one inverse transform for the stack, and the maximum of each;
    `coeffs` is left as it is.

    Checked here, where they are read: a NaN or an infinity, or a dip below
    -NEGATIVE_TOL * max (a broken maximum principle), raises SolverDiverged.
    """
    signals = _inverse(coeffs.copy())
    # NaN propagates through min and max and an infinity is an extreme, so
    # one pair per signal carries its finiteness check too.
    extrema = [(name, float(s.min()), float(s.max())) for name, s in zip(names, signals)]
    if not all(math.isfinite(mn) and math.isfinite(mx) for _, mn, mx in extrema):
        raise SolverDiverged("cosine-transform solve produced non-finite values")
    for name, mn, mx in extrema:
        if mn < -NEGATIVE_TOL * max(mx, 0.0):
            raise SolverDiverged(f"signal {name} violates the maximum principle: min {mn}")
    return signals, tuple(mx for _, _, mx in extrema)


def _drift(coeffs: np.ndarray, params: ModelParams, out: np.ndarray | None = None) -> np.ndarray:
    """phi = chi v - xi w from the signals' stacked cosine coefficients, with
    one inverse transform; cells drift up its gradient. phi's coefficients,
    then phi, are built in `out` (a new array when omitted)."""
    v_hat, w_hat = coeffs
    phi_hat = np.multiply(v_hat, params.chi, out=out)
    phi_hat -= np.multiply(w_hat, params.xi)
    return _inverse(phi_hat)


def solve_signals(u: Field, params: ModelParams) -> tuple[Field, Field]:
    """Solve both signal equations for the given density.

    v solves (-Lap + beta) v = alpha u^rho, w solves (-Lap + delta) w = gamma u.
    u must be finite (NonFiniteField); a rounding-level dip, down to
    -NEGATIVE_TOL * max(u), is clamped to zero before the power, and a deeper
    one raises NegativeDensity. Both signals inherit nonnegativity from the
    source up to rounding (discrete maximum principle); a violation beyond
    tolerance means the solver broke its contract and raises. A source that
    overflows fails its solve's finiteness check (SolverDiverged).
    """
    require_finite(u, "density")
    values = u.values
    dom = u.domain
    coeffs = _signal_coefficients(values, float(values.min()), float(values.max()), params, dom)
    (v, w), _ = _signals_from(coeffs)
    return Field(v, dom), Field(w, dom)
