"""Constants of the L^p energy inequality and their numerical estimators.

For sublinear production (rho < 1) the energy E_p(t) = integral(u^p) obeys

    dE_p/dt <= -(4(p-1)/p) * integral(|grad u^{p/2}|^2) + cbar
    E_p(t)  <= max(E_p(0), c_star_total)

where cbar = c1 + c_tilde m^{p+1} absorbs the attraction production term
(Young's inequality, constant c1) and the repulsion coupling (an Ehrling-type
interpolation, constant c_tilde), and c_star_total = c_star + cbar adds the
constant from absorbing integral(u^p) itself through Gagliardo-Nirenberg.

Everything except two inequality constants is closed-form arithmetic in the
coefficients; the Gagliardo-Nirenberg constant and the Ehrling constant have
no closed form on a rectangle and are estimated from below by maximizing the
defining ratios over a fixed family of 28 test fields (the constant, cosine
modes and Gaussian bumps) on the actual grid. Estimated
constants make the final bounds consistency checks, not certificates, and the
provenance flags in a report keep the distinction visible.

Powers with potentially extreme exponents, such as (p+rho)/(rho-1) as rho
approaches 1, are evaluated in log space and saturate to inf/0 instead of
raising overflow.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, EtaOutOfRange, NonFiniteField, RhoNotSublinear
from .grid import _grad_sum, _lp_integral
from .model import DomainSpec, ModelParams, _gaussian, critical_mass

_LOG_MAX = math.log(sys.float_info.max)  # ~709.78


def _require(name: str, value: float, *, above: float = 0.0) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= above:
        raise DomainError(f"{name} must be finite and > {above}, got {value}")
    return value


def _exp(t: float, floor: float = -_LOG_MAX) -> float:
    """exp(t), saturating to inf above _LOG_MAX instead of raising, and to
    0.0 below `floor`."""
    if t > _LOG_MAX:
        return math.inf
    if t < floor:
        return 0.0
    return math.exp(t)


def _pow(base: float, expo: float) -> float:
    """base**expo through exp(expo log base), saturating instead of raising."""
    base = _require("power base", base)
    return _exp(expo * math.log(base))


def interpolation_exponent(p: float, n: int) -> float:
    """theta = (p/2 - 1/2) / (p/2 + 1/n - 1/2), strictly inside (0, 1)."""
    p = _require("p", p, above=1.0)
    n = int(n)
    if n < 2:
        raise DomainError(f"dimension must be >= 2, got {n}")
    return (p / 2.0 - 0.5) / (p / 2.0 + 1.0 / n - 0.5)


def sublinear_production_bound(
    p: float, rho: float, alpha: float, chi: float, gamma: float, xi: float, volume: float
) -> float:
    """c1: the constant Young's inequality leaves from the attraction term.

    Exists only for rho strictly below 1; scales linearly with the domain
    volume; vanishes as chi -> 0 (0.0 at chi = 0) and in the rho -> 1 limit
    whenever the inner base exceeds 1.
    """
    p = _require("p", p, above=1.0)
    rho = float(rho)
    if not (0.0 < rho < 1.0):
        raise RhoNotSublinear(f"c1 requires 0 < rho < 1, got {rho}")
    alpha = _require("alpha", alpha)
    gamma = _require("gamma", gamma)
    xi = _require("xi", xi)
    volume = _require("domain volume", volume)
    if chi == 0.0:
        return 0.0
    chi = _require("chi", chi)

    prefactor = alpha * chi * (p - 1.0) * (1.0 - rho) / (p + 1.0)
    base = ((p + 1.0) * gamma * xi) / ((p + rho) * 3.0 * alpha * chi)
    exponent = (p + rho) / (rho - 1.0)
    return _exp(math.log(prefactor) + exponent * math.log(base) + math.log(volume))


def _c_hat(p: float, gamma: float, xi: float, delta: float) -> float:
    prefactor = xi * delta * (p - 1.0) / (p + 1.0)
    base = (p + 1.0) * gamma / (3.0 * p * delta)
    return prefactor * _pow(base, -p)


def _interpolation_weight_k(p: float, gamma: float, c_hat: float) -> float:
    """K such that the admissible weight solves sigma = eta K / (1 - 2 eta);
    only overflow saturates, as a subnormal K keeps eta below 1/2."""
    log_k = (p + 1.0) * math.log(gamma * (p + 1.0)) + math.log(c_hat) - (p + 1.0) * math.log(4.0) - math.log(p)
    return _exp(log_k, floor=-math.inf)


@dataclass(frozen=True)
class EhrlingSchedule:
    sigma: float
    c_hat: float
    eta: float
    c_tilde: float


def ehrling_schedule(p: float, gamma: float, xi: float, delta: float, c_e_estimate: float) -> EhrlingSchedule:
    """Constants of the repulsion interpolation step.

    sigma = gamma xi (p-1)/3 splits the repulsion coupling; c_hat is the
    Young remainder of the delta w term; eta solves
    sigma = eta/(1 - 2 eta) * K and always lands in (0, 1/2), else
    EtaOutOfRange; c_tilde combines them with the supplied Ehrling constant
    evaluated at that eta:

        c_tilde = (gamma/delta)^{p+1} (c_hat + 2 sigma / K) c_E(eta)
    """
    c_e_estimate = _require("c_E estimate", c_e_estimate)
    p = _require("p", p, above=1.0)
    gamma = _require("gamma", gamma)
    xi = _require("xi", xi)
    delta = _require("delta", delta)
    sigma = gamma * xi * (p - 1.0) / 3.0
    c_hat = _c_hat(p, gamma, xi, delta)
    k = _interpolation_weight_k(p, gamma, c_hat)
    eta = sigma / (k + 2.0 * sigma) if math.isfinite(k) else 0.0
    if not (0.0 < eta < 0.5):
        raise EtaOutOfRange(f"eta = {eta} fell outside (0, 1/2)")
    c_tilde = _pow(gamma / delta, p + 1.0) * (c_hat + 2.0 * sigma / k) * c_e_estimate
    return EhrlingSchedule(sigma=sigma, c_hat=c_hat, eta=eta, c_tilde=c_tilde)


def gn_absorption_constant(p: float, n: int, m: float, cgn_estimate: float) -> float:
    """c_star: the remainder of absorbing E_p through Gagliardo-Nirenberg.

    c_star = 2 m^p C^2 [ (1-theta) m^p (2(p-1)/(p theta C^2))^{theta/(theta-1)} + 1 ]
    """
    m = _require("m", m)
    cgn = _require("C_GN estimate", cgn_estimate)
    theta = interpolation_exponent(p, n)
    inner = _pow(2.0 * (p - 1.0) / (p * theta * cgn * cgn), theta / (theta - 1.0))
    m_p = _pow(m, p)
    return 2.0 * m_p * cgn * cgn * ((1.0 - theta) * m_p * inner + 1.0)


def combine_bounds(c1: float, c_tilde: float, m: float, p: float, c_star: float) -> tuple[float, float]:
    """cbar = c1 + c_tilde m^{p+1} and c_star_total = c_star + cbar."""
    m = _require("m", m)
    cbar = c1 + c_tilde * _pow(m, p + 1.0)
    return cbar, c_star + cbar


# ---------------------------------------------------------------------------
# Numerical estimators for the two constants with no closed form.
# ---------------------------------------------------------------------------


def _test_family(dom: DomainSpec) -> Iterator[tuple[np.ndarray, float, float]]:
    """The constant, 15 cosine modes, then Gaussian bumps of 4 widths at the
    centre, the quarter point and the corner. Definitions depend only on
    physical coordinates, so the family is stable under mesh refinement. Each
    member comes with its sum of squares and its gradient sum
    (grid._grad_sum), which both estimators read.

    Members are built one at a time, so a consumer that drops each before
    asking for the next holds a single grid field of the family."""
    # Squared lengths (the bump widths') stay finite when the area does.
    _require("domain volume", dom.volume)
    x, y = dom.cell_centers()
    lx, ly = dom.lengths
    xn = x[:, None] / lx
    yn = y[None, :] / ly
    yield _member(np.ones(dom.cells))
    for k in range(4):
        for l in range(4):
            if k == 0 and l == 0:
                continue
            yield _member(np.cos(np.pi * k * xn) * np.cos(np.pi * l * yn))
    scale = min(lx, ly)
    centers = [(0.5 * lx, 0.5 * ly), (0.25 * lx, 0.25 * ly), (0.0, 0.0)]
    for center in centers:
        for width in (0.04, 0.08, 0.16, 0.32):
            yield _member(_gaussian(dom, center, width * scale, 1.0))


def _member(f: np.ndarray) -> tuple[np.ndarray, float, float]:
    return f, float((f * f).sum()), _grad_sum(f)


def _family_maxima(dom: DomainSpec, p: float, eta: float | None, gn: bool) -> tuple[float, float]:
    """(C_GN, c_E(eta)) lower estimates from one pass over the test family.

    _test_family is looked up in the module when called, so a wrapped one is
    the one drawn. Each member feeds the Ehrling requirement (when eta is
    given) and then the GN ratio (when gn is set) before the next member is
    drawn; a constant not asked for reads 0.0.

    The constant member gives both ratios a positive finite value on any
    domain whose norms stay in the float range. On one whose lengths are
    too large or too small a norm overflows or a ratio's denominator
    overflows or underflows, and this raises DomainError naming the lengths.
    """
    theta = interpolation_exponent(p, 2)
    h = dom.h
    # The low (quasi-)norms (integral |f|^q)^(1/q), at q = 2/(p+1) and 2/p.
    q_e, q_gn = 2.0 / (p + 1.0), 2.0 / p
    best_gn = best_e = 0.0
    try:
        for values, squares, grad in _test_family(dom):
            if eta is not None:
                low = _lp_integral(values, q_e, h) ** (1.0 / q_e)
                best_e = max(best_e, (squares * h * h * (1.0 - eta) - eta * grad) / (low * low))
            if gn:
                low = _lp_integral(values, q_gn, h) ** (1.0 / q_gn)
                denom = math.sqrt(grad) ** theta * low ** (1.0 - theta) + low
                if denom > 0.0:
                    best_gn = max(best_gn, math.sqrt(squares * h * h) / denom)
    except (OverflowError, ZeroDivisionError, NonFiniteField) as exc:
        raise _out_of_range(dom) from exc
    asked = ([best_gn] if gn else []) + ([best_e] if eta is not None else [])
    if not all(0.0 < best < math.inf for best in asked):
        raise _out_of_range(dom)
    return best_gn, best_e


def _out_of_range(dom: DomainSpec) -> DomainError:
    return DomainError(f"test-family norms leave the float range on a domain of lengths {dom.lengths}")


def estimate_gn_constant(dom: DomainSpec, p: float) -> float:
    """Lower estimate of the best constant C in

        ||f||_2 <= C ( ||grad f||_2^theta ||f||_{2/p}^{1-theta} + ||f||_{2/p} )

    by maximizing the ratio over the test family on this grid. Every field
    gives a valid lower bound.
    """
    p = _require("p", p, above=1.0)
    return _family_maxima(dom, p, None, True)[0]


def estimate_ehrling_constant(dom: DomainSpec, eta: float, p: float) -> float:
    """Least c (over the test family) making

        ||V||_2^2 <= eta ||V||_{W^{1,2}}^2 + c ||V||_{2/(p+1)}^2

    hold, i.e. a lower estimate of the true Ehrling constant c_E(eta). Grows
    monotonically as eta decreases on a fixed family.
    """
    p = _require("p", p, above=1.0)
    eta = float(eta)
    if not (0.0 < eta < 0.5):
        raise EtaOutOfRange(f"estimator defined for eta in (0, 1/2), got {eta}")
    return _family_maxima(dom, p, eta, False)[1]


# ---------------------------------------------------------------------------
# Assembled report.
# ---------------------------------------------------------------------------

_PROVENANCE = {
    "theta": "exact-formula",
    "c1": "exact-formula",
    "sigma": "exact-formula",
    "c_hat": "exact-formula",
    "eta": "exact-formula",
    "c_tilde": "estimated-constant",
    "cbar": "estimated-constant",
    "c_star": "estimated-constant",
    "c_star_total": "estimated-constant",
    "critical_mass": "exact-formula",
}


@dataclass(frozen=True)
class BoundsReport:
    p: float
    n: int
    m: float
    theta: float
    c1: float
    sigma: float
    c_hat: float
    eta: float
    c_tilde: float
    cbar: float
    c_star: float
    c_star_total: float
    critical_mass: float | None
    cgn: float
    ce: float
    provenance: dict

    def to_dict(self) -> dict:
        """The fields in order, with cgn and ce named as the estimates they are."""
        renamed = {"cgn": "cgn_estimate", "ce": "ce_estimate"}
        return {renamed.get(name, name): value for name, value in asdict(self).items()}


def compute_bounds(
    params: ModelParams, m: float, p: float, dom: DomainSpec, cgn: float | None = None, ce: float | None = None
) -> BoundsReport:
    """Assemble every constant of the energy inequality into one report.

    The GN and Ehrling constants are estimated on `dom` unless supplied;
    estimation requires n == 2 since the grid is two dimensional. Both
    estimates maximize over the same test family, streamed once here.
    """
    p = _require("p", p, above=1.0)
    m = _require("m", m)
    n = int(params.dim)

    theta = interpolation_exponent(p, n)
    c1 = sublinear_production_bound(p, params.rho, params.alpha, params.chi, params.gamma, params.xi, dom.volume)
    # The schedule at c_E = 1 gives the eta to estimate c_E at; c_E is c_tilde's
    # last factor, so scaling by it gives the bits of the schedule built with it.
    schedule = ehrling_schedule(p, params.gamma, params.xi, params.delta, 1.0)
    if ce is None and n != 2:
        raise DomainError("Ehrling estimation needs a 2D domain; supply ce for other n")
    if cgn is None and n != 2:
        raise DomainError("GN estimation needs a 2D domain; supply cgn for other n")
    if ce is None or cgn is None:
        est_gn, est_e = _family_maxima(dom, p, schedule.eta if ce is None else None, cgn is None)
        ce = est_e if ce is None else ce
        cgn = est_gn if cgn is None else cgn
    c_tilde = schedule.c_tilde * _require("c_E estimate", ce)
    c_star = gn_absorption_constant(p, n, m, cgn)
    cbar, total = combine_bounds(c1, c_tilde, m, p, c_star)
    crit = critical_mass(params.chi, params.alpha, params.xi, params.gamma)
    return BoundsReport(
        p=p,
        n=n,
        m=m,
        theta=theta,
        c1=c1,
        sigma=schedule.sigma,
        c_hat=schedule.c_hat,
        eta=schedule.eta,
        c_tilde=c_tilde,
        cbar=cbar,
        c_star=c_star,
        c_star_total=total,
        critical_mass=crit,
        cgn=float(cgn),
        ce=float(ce),
        provenance=dict(_PROVENANCE),
    )
