"""Screened Poisson solves (-Lap + kappa) phi = f under zero-flux boundaries.

The reflected-ghost five-point Laplacian is exactly diagonal in the type-II
discrete cosine basis, so the solve is direct: forward DCT, divide each mode
by kappa + lambda_x(k) + lambda_y(l), inverse DCT. kappa > 0 keeps every
denominator positive, no zero-mode special case is needed, and the residual
sits at rounding level.

The step needs only the drift phi = chi v - xi w, which _drift_potential
forms from the density Field alone (checks: its extrema) with one inverse
transform: when beta = delta as the solve of the one source
chi alpha u^rho - xi gamma u (one forward transform), and otherwise from the
coefficients of v and of w in turn (two). Reading v and w (_signals, behind
solve_signals and diagnostics.sample) forms v then w, a transform pair each.

Every transform goes through one pair, _forward and _inverse: the
orthonormal DCT-II and its inverse of one field (Nx, Ny), written over it.
On a grid whose axes both have at most _MATMUL_MAX_CELLS cells the pair is
two matrix products with cached cosine matrices, C X C'^T forward and
C^T X C' inverse; at that size a product costs less than the per-line calls
of an FFT. Larger grids go through numpy's real FFT along each axis, in the
form of Makhoul (A fast cosine transform in one and two dimensions, IEEE
TASSP 28, 1980): the samples reordered (even ones, then odd ones reversed),
one rfft, a twiddle e^{-i pi k / 2N} per mode, and the real DCT read off as
X[k] = Re Z[k], X[N - k] = -Im Z[k]. The inverse runs the same steps
backwards with irfft. Every reusable whole-field buffer of a step or a
sample is a work array that the calling thread keeps per shape
(_workspace), the one work field `scratch` among them, so a warm rfft pair
allocates none and a warm step only what it returns and the drift it reads
(README, Performance). None is held across a call out of the step, so a
callback may step, sample or solve on the same grid.
"""

from __future__ import annotations

import math
import sys
import threading
from functools import lru_cache

import numpy as np
from numpy.fft import irfft, rfft

from .errors import NegativeDensity, NonPositiveKappa, SolverDiverged
from .grid import Field, require_finite
from .model import DomainSpec, ModelParams

# Rounding tolerance, relative to the field maximum, below which a negative
# value is attributed to floating point noise rather than a real sign change.
NEGATIVE_TOL = 1e-13

# The longest axis that transforms as two matrix products. OpenBLAS runs
# products of up to about 96 a side on one core, but those of 128 on two,
# which the sweep's two worker processes must not take; at 256^2 the
# products cost more than the FFT pair (README, Performance).
_MATMUL_MAX_CELLS = 64

# The work arrays one thread keeps (_workspace), by key. One grid takes at
# most five, each one field or less: the transform buffers of a field; the
# denominators of an IMEX step; the face drops of each axis; and `scratch`,
# the one work field that the drift, a sample, a read of the signals and
# run's steady-state change each fill and read in turn.
_WORKSPACE_ARRAYS = 12


@lru_cache(maxsize=32)
def _mode_eigenvalues(dom: DomainSpec) -> tuple[np.ndarray, np.ndarray]:
    """[lambda_x 1] (Nx, 2) and [1 lambda_y]^T (2, Ny), whose matrix product
    is the eigenvalue lambda_x(k) + lambda_y(l) >= 0 of each mode of the
    negated Neumann Laplacian: its products by 1 are exact, so it has the
    bits of the broadcast sum, which allocates numpy's iteration buffers."""
    h = dom.h
    lx, ly = (2.0 * (1.0 - np.cos(np.pi * np.arange(n) / n)) / (h * h) for n in dom.cells)
    left, right = np.stack([lx, np.ones_like(lx)], axis=1), np.stack([np.ones_like(ly), ly])
    left.setflags(write=False)
    right.setflags(write=False)
    return left, right


@lru_cache(maxsize=32)
def _screened_denominators(dom: DomainSpec, kappa: float) -> np.ndarray:
    """kappa + lambda_x(k) + lambda_y(l): the mode divisors of one screened solve.

    The signal solves reuse the same two kappas every step, so the sum is
    formed, and kappa checked (NonPositiveKappa), once per (domain, kappa).
    """
    if not (kappa > 0.0) or not np.isfinite(kappa):
        raise NonPositiveKappa(f"kappa must be > 0, got {kappa}")
    denom = kappa + np.matmul(*_mode_eigenvalues(dom))
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


class _Workspaces(threading.local):
    """The work arrays of one thread, by key, least recently used first."""

    def __init__(self):
        self.arrays: dict = {}


_WORKSPACES = _Workspaces()


def _workspace(key, build):
    """The calling thread's work array(s) under `key`, made by build() on
    first use; past _WORKSPACE_ARRAYS keys the least recently used is
    dropped. Every user writes a work array in full before it reads it, so
    what a call leaves there never reaches another's result, and each thread
    has its own."""
    arrays = _WORKSPACES.arrays
    found = arrays.pop(key, None)
    if found is None:
        found = build()
        if len(arrays) >= _WORKSPACE_ARRAYS:
            del arrays[next(iter(arrays))]
    arrays[key] = found
    return found


def _work_array(name: str, shape: tuple) -> np.ndarray:
    """The calling thread's float64 work array `name` of `shape` (_workspace)."""
    return _workspace((name, shape), lambda: np.empty(shape))


def _fft_buffers(nx: int, ny: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A real (nx, ny) array and one complex block seen as the half spectra
    along each axis, (nx, ny//2 + 1) and (nx//2 + 1, ny): the forward
    transform reads the first before it writes the second, and the inverse
    the other way round."""
    along_y, along_x = (nx, ny // 2 + 1), (nx // 2 + 1, ny)
    block = np.empty(max(math.prod(along_y), math.prod(along_x)), dtype=complex)
    return np.empty((nx, ny)), block[: math.prod(along_y)].reshape(along_y), block[: math.prod(along_x)].reshape(along_x)


@lru_cache(maxsize=32)
def _twiddles(n: int) -> tuple[np.ndarray, np.ndarray]:
    """s_k e^{-i pi k / 2n} and its inverse e^{i pi k / 2n} / s_k for
    k = 0 .. n//2, with the orthonormal scales s_0 = sqrt(1/n) and
    s_k = sqrt(2/n); the angle stays within [0, pi/4]."""
    angle = np.pi / (2 * n) * np.arange(n // 2 + 1)
    scale = np.full(angle.size, math.sqrt(2.0 / n))
    scale[0] = math.sqrt(1.0 / n)
    forward = (np.cos(angle) - 1j * np.sin(angle)) * scale
    inverse = (np.cos(angle) + 1j * np.sin(angle)) / scale
    forward.setflags(write=False)
    inverse.setflags(write=False)
    return forward, inverse


def _forward(buf: np.ndarray) -> np.ndarray:
    """The orthonormal DCT-II of the float64 field `buf`, written over it; the
    result is `buf` itself. Up to the cutoff it is C X C'^T; above it, one
    rfft along each axis. Along an axis of n samples, with m = (n + 1)//2
    even samples, h = n//2 + 1 modes and q = n - h:
    v = (x[0], x[2], ..., x[3], x[1]), Z = twiddle * rfft(v), and
    X[:h] = Re Z, X[h:] = -Im Z[q:0:-1]. The split of the axis 1 spectrum
    is written straight into the reorder of axis 0."""
    nx, ny = buf.shape
    if max(nx, ny) <= _MATMUL_MAX_CELLS:
        return np.matmul(_dct_matrix(nx) @ buf, _dct_matrix(ny).T, out=buf)
    real, along_y, along_x = _workspace(("fft", buf.shape), lambda: _fft_buffers(nx, ny))
    mx, my = (nx + 1) // 2, (ny + 1) // 2
    hx, hy = nx // 2 + 1, ny // 2 + 1
    np.copyto(real[:, :my], buf[:, 0::2])
    np.copyto(real[:, my:], buf[:, 1::2][:, ::-1])
    rfft(real, axis=1, out=along_y)
    along_y *= _twiddles(ny)[0]
    re, im = along_y.real, along_y.imag
    np.copyto(buf[:mx, :hy], re[0::2])
    np.copyto(buf[mx:, :hy], re[1::2][::-1])
    np.negative(im[0::2, ny - hy : 0 : -1], out=buf[:mx, hy:])
    np.negative(im[1::2, ny - hy : 0 : -1][::-1], out=buf[mx:, hy:])
    rfft(buf, axis=0, out=along_x)
    along_x *= _twiddles(nx)[0][:, None]
    np.copyto(buf[:hx], along_x.real)
    np.negative(along_x.imag[nx - hx : 0 : -1], out=buf[hx:])
    return buf


def _inverse(buf: np.ndarray) -> np.ndarray:
    """The inverse of _forward, written over `buf` in the same way: C^T X C'
    up to the cutoff; above it the rfft steps in reverse, per axis
    Z = X[:h] - i (0, X[m:][::-1]), v = irfft(Z / twiddle), and the samples
    put back in order. The axis 0 reorder writes the axis 1 spectrum."""
    nx, ny = buf.shape
    if max(nx, ny) <= _MATMUL_MAX_CELLS:
        return np.matmul(_dct_matrix(nx).T @ buf, _dct_matrix(ny), out=buf)
    real, along_y, along_x = _workspace(("fft", buf.shape), lambda: _fft_buffers(nx, ny))
    mx, my = (nx + 1) // 2, (ny + 1) // 2
    hx, hy = nx // 2 + 1, ny // 2 + 1
    np.copyto(along_x.real, buf[:hx])
    along_x.imag[0] = 0.0
    np.negative(buf[mx:][::-1], out=along_x.imag[1:])
    along_x *= _twiddles(nx)[1][:, None]
    irfft(along_x, n=nx, axis=0, out=real)
    re, im = along_y.real, along_y.imag
    np.copyto(re[0::2], real[:mx, :hy])
    np.copyto(re[1::2], real[mx:, :hy][::-1])
    im[:, 0] = 0.0
    np.negative(real[:mx, my:][:, ::-1], out=im[0::2, 1:])
    np.negative(real[mx:, my:][::-1, ::-1], out=im[1::2, 1:])
    along_y *= _twiddles(ny)[1]
    irfft(along_y, n=ny, axis=1, out=real)
    np.copyto(buf[:, 0::2], real[:, :my])
    np.copyto(buf[:, 1::2], real[:, my:][:, ::-1])
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


def _implicit_solve(values: np.ndarray, dt: float, dom: DomainSpec) -> np.ndarray:
    """(I - dt Lap)^-1 values, the backward-Euler heat step, written over the
    float64 field `values` and returned, as _forward and _inverse do. The zero
    mode has eigenvalue 0, so the mean (hence the mass) is kept exactly;
    every other mode is damped. dt > 0 (checked by stepper.step)."""
    denom = np.matmul(*_mode_eigenvalues(dom), out=_work_array("implicit-denominators", values.shape))
    denom *= dt
    denom += 1.0
    _forward(values)
    values /= denom
    return _inverse(values)


def _production(u: Field, rho: float, coefficient: float, out: np.ndarray) -> np.ndarray:
    """coefficient * u^rho into `out`, with rounding-level dips clamped to
    zero before the power."""
    values = np.maximum(u.values, 0.0, out=out) if u.extrema[0] < 0.0 else u.values
    if rho == 1.0:
        return np.multiply(values, coefficient, out=out)
    if rho == 0.5:
        np.sqrt(values, out=out)
    else:
        np.power(values, rho, out=out)
    out *= coefficient
    return out


# A source bound below which no transform of a step can overflow (below).
_SOURCE_LIMIT = sys.float_info.max / 4.0


def _check_density(u: Field, params: ModelParams) -> None:
    """The checks of a finite density u before its signal sources are
    transformed, in O(1) from its extrema.

    A params.dim other than 2 raises ValueError: the grid is two dimensional.
    A dip below -NEGATIVE_TOL * max raises NegativeDensity. A source f of
    magnitude at most F has orthonormal cosine coefficients of magnitude at
    most 2 sqrt(Nx Ny) F, and no mode divisor is below its kappa, so while
    that bound, over min(1, kappa), stays under float_max/4 for both sources
    (alpha u_max^rho and gamma u_max), no coefficient of v or w is infinite;
    else SolverDiverged. The drift phi = chi v - xi w can still overflow and
    is checked where it is read (stepper._bound).
    """
    if params.dim != 2:
        raise ValueError(f"params.dim must be 2 to solve on a 2D grid, got {params.dim}")
    u_min, u_max = u.extrema
    if u_min < -NEGATIVE_TOL * max(u_max, 0.0):
        raise NegativeDensity(f"density min {u_min} below tolerance for max {u_max}")
    spread = 2.0 * math.sqrt(u.values.size)
    for source, kappa in ((params.alpha * u_max**params.rho, params.beta), (params.gamma * u_max, params.delta)):
        if not (spread * source / min(1.0, kappa) <= _SOURCE_LIMIT):
            raise SolverDiverged(
                f"cosine-transform solve would overflow on the signal sources of density max {u_max}"
            )


def _signal_hat(u: Field, params: ModelParams, name: str, out: np.ndarray) -> np.ndarray:
    """The cosine coefficients of the signal `name`, v or w, of a density
    that passed _check_density, DCT(alpha u^rho)/(beta + lambda) or
    DCT(gamma u)/(delta + lambda), written into `out` and returned."""
    if name == "v":
        _production(u, params.rho, params.alpha, out=out)
    else:
        np.multiply(u.values, params.gamma, out=out)
    _forward(out)
    out /= _screened_denominators(u.domain, params.beta if name == "v" else params.delta)
    return out


def _signals(u: Field, params: ModelParams, out=None) -> tuple[float, float]:
    """The maxima of v and w for a finite density u. v and then w are
    formed, with one forward and one inverse transform each, into the pair
    of float64 fields `out`, or when it is omitted both in turn in the work
    field `scratch`.

    Checked here, where they are read: the density as by _check_density;
    a NaN or an infinity in a signal, or a dip below -NEGATIVE_TOL * max (a
    broken maximum principle), raises SolverDiverged.
    """
    _check_density(u, params)
    # NaN propagates through min and max and an infinity is an extreme, so
    # one pair per signal carries its finiteness check too. That check is
    # defensive: past _check_density, Parseval bounds every partial
    # transform by sqrt(Nx Ny) F / kappa, under float_max/8.
    extrema = []
    for name, signal in zip("vw", out or (_work_array("scratch", u.domain.cells),) * 2):
        _inverse(_signal_hat(u, params, name, signal))
        extrema.append((name, float(signal.min()), float(signal.max())))
    if not all(math.isfinite(mn) and math.isfinite(mx) for _, mn, mx in extrema):
        raise SolverDiverged("cosine-transform solve produced non-finite values")
    for name, mn, mx in extrema:
        if mn < -NEGATIVE_TOL * max(mx, 0.0):
            raise SolverDiverged(f"signal {name} violates the maximum principle: min {mn}")
    return extrema[0][2], extrema[1][2]


def _drift_potential(u: Field, params: ModelParams) -> np.ndarray:
    """phi = chi v - xi w, the drift potential of a finite density u, from
    its cosine coefficients with one inverse transform (checks:
    _check_density).

    phi's coefficients are formed in one of two ways:
    - beta = delta: DCT(chi alpha u^rho - xi gamma u) / (beta + lambda), one forward transform;
    - otherwise chi v_hat - xi w_hat, v_hat formed where phi_hat is and
      w_hat in the work field `scratch`, one forward transform each.
    """
    _check_density(u, params)
    chi, xi = params.chi, params.xi
    scratch = _work_array("scratch", u.domain.cells)
    if params.beta == params.delta:
        # -r + a is exactly a - r: the bits of chi alpha u^rho - xi gamma u.
        phi_hat = np.multiply(u.values, -(xi * params.gamma))
        phi_hat += _production(u, params.rho, chi * params.alpha, out=scratch)
        _forward(phi_hat)
        phi_hat /= _screened_denominators(u.domain, params.beta)
    else:
        phi_hat = _signal_hat(u, params, "v", np.empty(u.domain.cells))
        phi_hat *= chi
        phi_hat -= np.multiply(_signal_hat(u, params, "w", scratch), xi, out=scratch)
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
    dom = u.domain
    v, w = np.empty(dom.cells), np.empty(dom.cells)
    _signals(u, params, out=(v, w))
    return Field(v, dom), Field(w, dom)
