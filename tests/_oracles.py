"""Independent reference implementations used by the test suite.

The constants oracle below re-evaluates every closed-form constant of the
energy inequality in arbitrary precision (mpmath, 60 significant digits),
written directly from the formulas rather than by calling the package, so a
transcription error in either side shows up as a mismatch. Values that
overflow or underflow double precision convert to inf/0.0, matching the
saturating convention of the float implementations.

Also here: a compensated-summation quadrature reference, an elementwise
arbitrary-precision energy reference, checked wrappers of the grid's norm and
gradient kernels, the five-point zero-flux Laplacian stencil and a dense
matrix assembly of the Helmholtz operator built from it for direct-solve
comparisons, the real-space drift chi v - xi w from the two solved signals,
the one helper that hand-makes stepper states from a given u and drift, and
the list-based test family with one estimator per constant that
the streamed single-pass estimator in attrep.bounds must match bit for bit.
"""

import math

import mpmath as mp
import numpy as np

from attrep.elliptic import solve_signals
from attrep.errors import SimulationError
from attrep.grid import Field, _grad_sum, _lp_integral, require_finite
from attrep.stepper import SimState, Status

mp.mp.dps = 60


def o_theta(p, n):
    p = mp.mpf(p)
    n = mp.mpf(n)
    return (p / 2 - mp.mpf(1) / 2) / (p / 2 + 1 / n - mp.mpf(1) / 2)


def o_c1(p, rho, alpha, chi, gamma, xi, volume):
    p, rho = mp.mpf(p), mp.mpf(rho)
    alpha, chi, gamma, xi, volume = map(mp.mpf, (alpha, chi, gamma, xi, volume))
    prefactor = alpha * chi * (p - 1) * (1 - rho) / (p + 1)
    base = (p + 1) * gamma * xi / ((p + rho) * 3 * alpha * chi)
    return prefactor * base ** ((p + rho) / (rho - 1)) * volume


def o_sigma(p, gamma, xi):
    p, gamma, xi = map(mp.mpf, (p, gamma, xi))
    return gamma * xi * (p - 1) / 3


def o_c_hat(p, gamma, xi, delta):
    p, gamma, xi, delta = map(mp.mpf, (p, gamma, xi, delta))
    return xi * delta * (p - 1) / (p + 1) * ((p + 1) * gamma / (3 * p * delta)) ** (-p)


def o_k(p, gamma, c_hat):
    p, gamma, c_hat = map(mp.mpf, (p, gamma, c_hat))
    return (gamma * (p + 1)) ** (p + 1) * c_hat / (mp.mpf(4) ** (p + 1) * p)


def o_eta(p, gamma, xi, delta):
    # sigma = eta/(1 - 2 eta) * K  inverted for eta
    sigma = o_sigma(p, gamma, xi)
    k = o_k(p, gamma, o_c_hat(p, gamma, xi, delta))
    return sigma / (k + 2 * sigma)


def o_c_tilde(p, gamma, xi, delta, c_e):
    p, gamma, xi, delta, c_e = map(mp.mpf, (p, gamma, xi, delta, c_e))
    c_hat = o_c_hat(p, gamma, xi, delta)
    sigma = o_sigma(p, gamma, xi)
    k = o_k(p, gamma, c_hat)
    return (gamma / delta) ** (p + 1) * (c_hat + 2 * sigma / k) * c_e


def o_c_star(p, n, m, c_gn):
    p, m, c_gn = mp.mpf(p), mp.mpf(m), mp.mpf(c_gn)
    theta = o_theta(p, n)
    inner = (2 * (p - 1) / (p * theta * c_gn**2)) ** (theta / (theta - 1))
    return 2 * m**p * c_gn**2 * ((1 - theta) * m**p * inner + 1)


def o_cbar_total(c1, c_tilde, m, p, c_star):
    c1, c_tilde, m, p, c_star = map(mp.mpf, (c1, c_tilde, m, p, c_star))
    cbar = c1 + c_tilde * m ** (p + 1)
    return cbar, c_star + cbar


def o_critical_mass(chi, alpha, xi, gamma):
    chi, alpha, xi, gamma = map(mp.mpf, (chi, alpha, xi, gamma))
    balance = chi * alpha - xi * gamma
    if balance <= 0:
        return None
    return 4 * mp.pi / balance


def assert_close_to_oracle(value, oracle, rtol=1e-12, label=""):
    """Compare a float against an mpf, honoring inf/0 saturation."""
    ref = float(oracle)
    if math.isinf(ref) or ref == 0.0:
        assert value == ref, f"{label}: impl {value} vs oracle {ref}"
        return
    err = abs(value - ref) / abs(ref)
    assert err <= rtol, f"{label}: impl {value} vs oracle {ref} (rel err {err:.3e})"


def fsum_integrate(values, h):
    """Compensated-summation reference for h^2 * sum."""
    return math.fsum(values.ravel().tolist()) * h * h


def mp_energy(values, h, p):
    """Arbitrary-precision integral of |f|^p over the grid."""
    total = mp.mpf(0)
    for v in values.ravel().tolist():
        total += mp.mpf(abs(v)) ** mp.mpf(p)
    return total * mp.mpf(h) ** 2


def real_space_drift(u, params):
    """phi = chi v - xi w, formed in real space from the two signals that
    solve_signals returns for the density u."""
    v, w = solve_signals(u, params)
    return params.chi * v.values - params.xi * w.values


def hand_state(u, phi, params, t=0.0, step=0):
    """A running SimState from a density and a drift potential field, past
    every check of initial_state and step: it carries phi as given (NaN and
    Inf included), as the drift under params."""
    return SimState(u, np.array(phi.values), params, t, step, Status.RUNNING)


class NegativeFieldWithFractionalPower(SimulationError):
    """|f|^p with non-integer p needs a nonnegative field."""


def lp_norm_p(field, p):
    """Integral of |f|^p (no 1/p root), for p >= 1, of a finite field.

    Non-integer p requires a nonnegative field; |f|^p with fractional p and
    negative values would silently leave the reals.
    """
    require_finite(field)
    p = float(p)
    values = field.values
    if p >= 1.0 and not p.is_integer() and values.min() < 0.0:
        raise NegativeFieldWithFractionalPower(f"field has min {values.min()} < 0 with fractional p = {p}")
    return _lp_integral(values, p, field.h)


def grad_energy(field):
    """Integral of |grad f|^2 of a finite field, from face differences.

    Second-order accurate for fields that meet the zero-flux boundary;
    otherwise it under-counts a boundary strip of width h/2.
    """
    require_finite(field)
    return _grad_sum(field.values)


def neumann_laplacian_apply(field):
    """Five-point Laplacian with reflected ghost cells (zero-flux exact)."""
    require_finite(field)
    v = field.values
    h = field.h
    padded = np.pad(v, 1, mode="edge")
    lap = (padded[:-2, 1:-1] + padded[2:, 1:-1] + padded[1:-1, :-2] + padded[1:-1, 2:] - 4.0 * v) / (h * h)
    return Field(lap, field.domain)


def dense_helmholtz_matrix(dom, kappa):
    """(kappa I - Lap_h) assembled column by column from the stencil above."""
    nx, ny = dom.cells
    size = nx * ny
    mat = np.zeros((size, size))
    basis = np.zeros(dom.cells)
    for j in range(size):
        basis.ravel()[j] = 1.0
        lap = neumann_laplacian_apply(Field(basis.copy(), dom))
        mat[:, j] = kappa * basis.ravel() - lap.values.ravel()
        basis.ravel()[j] = 0.0
    return mat


def list_test_family(dom, seed, n_random):
    """Every test-family member built up front, with its sum of squares and
    face-difference gradient sum: the 28 structured members in the order
    attrep.bounds streams them, then n_random seeded smooth random fields.
    With seed 2024 and 24 random fields this is the 52-member family the
    estimators drew before the random members were dropped."""
    x, y = dom.cell_centers()
    lx, ly = dom.lengths
    xn = x[:, None] / lx
    yn = y[None, :] / ly
    fields = [np.ones(dom.cells)]
    for k in range(4):
        for l in range(4):
            if k == 0 and l == 0:
                continue
            fields.append(np.cos(np.pi * k * xn) * np.cos(np.pi * l * yn))
    scale = min(lx, ly)
    centers = [(0.5 * lx, 0.5 * ly), (0.25 * lx, 0.25 * ly), (0.0, 0.0)]
    for cx, cy in centers:
        for width in (0.04, 0.08, 0.16, 0.32):
            r2 = (x[:, None] - cx) ** 2 + (y[None, :] - cy) ** 2
            fields.append(np.exp(-r2 / (2.0 * (width * scale) ** 2)))
    rng = np.random.default_rng(seed)
    modes = 6
    kk = np.pi * np.arange(modes)
    cos_x = np.cos(kk[None, :] * xn[:, :1])
    cos_y = np.cos(kk[None, :] * yn.T[:, :1])
    for _ in range(n_random):
        coeff = rng.standard_normal((modes, modes)) / (1.0 + np.add.outer(np.arange(modes), np.arange(modes)))
        f = cos_x @ coeff @ cos_y.T
        fields.append(f * f)
    members = []
    for f in fields:
        gx = f[1:, :] - f[:-1, :]
        gy = f[:, 1:] - f[:, :-1]
        members.append((f, float((f * f).sum()), float((gx * gx).sum() + (gy * gy).sum())))
    return members


def _list_low_norm(values, h, q):
    total = float(np.power(np.abs(values), q).sum()) * h * h
    return total ** (1.0 / q)


def list_gn_over_family(family, dom, p):
    """Largest GN ratio ||f||_2 / (||grad f||^theta ||f||_{2/p}^{1-theta} + ||f||_{2/p})."""
    theta = (p / 2.0 - 0.5) / (p / 2.0 + 1.0 / 2 - 0.5)
    q = 2.0 / p
    h = dom.h
    best = 0.0
    for values, squares, grad in family:
        l2 = math.sqrt(squares * h * h)
        ge = math.sqrt(grad)
        low = _list_low_norm(values, h, q)
        denom = ge**theta * low ** (1.0 - theta) + low
        if denom > 0.0:
            best = max(best, l2 / denom)
    return best


def list_ehrling_over_family(family, dom, eta, p):
    """Largest (||f||_2^2 (1 - eta) - eta ||grad f||^2) / ||f||_{2/(p+1)}^2."""
    q = 2.0 / (p + 1.0)
    h = dom.h
    best = 0.0
    for values, squares, grad in family:
        l2_sq = squares * h * h
        low = _list_low_norm(values, h, q)
        needed = (l2_sq * (1.0 - eta) - eta * grad) / (low * low)
        best = max(best, needed)
    return best


def random_tuple_stream(seed, count):
    """Seeded stream of valid parameter tuples for the constants pipeline."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield {
            "p": float(rng.uniform(1.05, 6.0)),
            "n": int(rng.integers(2, 6)),
            "rho": float(rng.uniform(0.05, 0.95)),
            "alpha": float(10.0 ** rng.uniform(-2, 2)),
            "gamma": float(10.0 ** rng.uniform(-2, 2)),
            "delta": float(10.0 ** rng.uniform(-2, 2)),
            "chi": float(10.0 ** rng.uniform(-2, 2)),
            "xi": float(10.0 ** rng.uniform(-2, 2)),
            "m": float(10.0 ** rng.uniform(-2, 2)),
            "volume": float(rng.uniform(0.25, 4.0)),
            "c_gn": float(rng.uniform(0.5, 8.0)),
            "c_e": float(rng.uniform(0.2, 8.0)),
        }
