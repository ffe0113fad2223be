"""Model parameters, domain geometry, initial data, and the regime taxonomy.

The evolving quantity is a cell density u coupled to an attracting signal v
and a repelling signal w on a rectangle with zero-flux boundaries:

    u_t = Lap(u) - chi div(u grad v) + xi div(u grad w)
    0   = Lap(v) + alpha u^rho - beta v
    0   = Lap(w) + gamma u - delta w

The production and decay coefficients (alpha, beta, gamma, delta) are
strictly positive and the production exponent rho lies in (0, 1]; rho = 1 is
admitted only so regime experiments can probe the linear-production
dichotomy.  The sensitivities chi and xi may be zero, which switches the
corresponding drift term off entirely; chi = xi = 0 reduces the density
equation to the heat equation and is the basis of a validation check.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    NegativeAmplitude,
    NonPositiveCoefficient,
    RhoOutOfRange,
    ZeroField,
)
from .grid import Field, integrate, read_field_csv

# Relative tolerance on |m - critical_mass| for the knife-edge critical-mass
# classification.
CRITICAL_MASS_RTOL = 1e-9


def _is(kind, value) -> bool:
    """isinstance(value, kind) for a numbers ABC, with bools left out."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _float(value) -> float:
    """A real number as a float, an int beyond the float range as the
    infinity of its sign, which every finiteness check then refuses."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _require_in_range(what: str, value) -> None:
    """Refuse an int beyond the float range by its range, named by `what`,
    before a sign or bound rule would report it with all its digits."""
    if isinstance(value, numbers.Integral) and math.isinf(_float(value)):
        raise ValueError(f"{what} must lie within the float range, got an integer beyond it")


@dataclass(frozen=True)
class ModelParams:
    """Coefficients of the coupled system; `dim` is the space dimension n.

    Construction admits only the admissible set, so every instance is valid:
    finite real alpha, beta, gamma, delta > 0, chi, xi >= 0 and 0 < rho <= 1
    (not bools or strings), and an integer dim >= 2. Simulation supports
    dim == 2 only; the analytic-bounds arithmetic accepts any dim >= 2.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    chi: float
    xi: float
    rho: float
    dim: int = 2

    def __post_init__(self):
        # A real number out of range is reported by its range, before the type check.
        for name in ("alpha", "beta", "gamma", "delta", "chi", "xi", "rho"):
            raw = getattr(self, name)
            if isinstance(raw, numbers.Real):
                value = _float(raw)
                if name == "rho" and not 0.0 < value <= 1.0:
                    raise RhoOutOfRange(value)
                if name in ("chi", "xi") and not 0.0 <= value < math.inf:
                    raise NonPositiveCoefficient(name, value, requirement="nonnegative")
                if name in ("alpha", "beta", "gamma", "delta") and not 0.0 < value < math.inf:
                    raise NonPositiveCoefficient(name, value)
            if not _is(numbers.Real, raw):
                raise NonPositiveCoefficient(name, raw, f"a real number, not a {type(raw).__name__}")
        if isinstance(self.dim, numbers.Real) and self.dim < 2:
            raise NonPositiveCoefficient("dim", self.dim)
        if not _is(numbers.Integral, self.dim):
            raise NonPositiveCoefficient("dim", self.dim, f"an integer, not a {type(self.dim).__name__}")


@dataclass(frozen=True)
class DomainSpec:
    """Axis-aligned rectangle [0, Lx] x [0, Ly] split into square cells.

    The cell size h = lengths[axis] / cells[axis] must be identical on both
    axes; zero-flux boundary handling and the cosine-transform solver both
    rely on that. Lengths are stored as floats and cell counts as ints.
    """

    lengths: tuple[float, float]
    cells: tuple[int, int]

    def __post_init__(self):
        kinds = [_is(numbers.Real, v) for v in self.lengths] + [_is(numbers.Integral, c) for c in self.cells]
        if not all(kinds):
            raise ValueError(f"domain needs real lengths and integer cell counts, got {self.lengths!r}, {self.cells!r}")
        object.__setattr__(self, "lengths", tuple(_float(v) for v in self.lengths))
        object.__setattr__(self, "cells", tuple(int(v) for v in self.cells))
        if len(self.lengths) != 2 or len(self.cells) != 2:
            raise ValueError("domain is two dimensional: need two lengths and two cell counts")
        if any(not math.isfinite(v) or v <= 0 for v in self.lengths):
            raise ValueError(f"domain lengths must be positive, got {self.lengths}")
        if any(not 1 <= _float(c) < math.inf for c in self.cells):
            raise ValueError(f"cell counts must be >= 1 and within the float range, got {self.cells}")
        hx = self.lengths[0] / self.cells[0]
        hy = self.lengths[1] / self.cells[1]
        if abs(hx - hy) > 1e-12 * max(hx, hy):
            raise ValueError(f"cells must be square: hx = {hx}, hy = {hy}")

    @property
    def h(self) -> float:
        return self.lengths[0] / self.cells[0]

    @property
    def volume(self) -> float:
        return self.lengths[0] * self.lengths[1]

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """1D coordinate arrays of the cell centers along x and y."""
        h = self.h
        x = (np.arange(self.cells[0]) + 0.5) * h
        y = (np.arange(self.cells[1]) + 0.5) * h
        return x, y


@dataclass(frozen=True)
class BumpSpec:
    """One Gaussian bump; construction checks it: a pair of finite reals for
    center, real width > 0 and amplitude >= 0 (not bools or strings)."""

    center: tuple[float, float]
    width: float
    amplitude: float

    def __post_init__(self):
        for name in ("width", "amplitude"):
            if not _is(numbers.Real, getattr(self, name)):
                raise ValueError(f"bump {name} must be a real number, got {getattr(self, name)!r}")
            _require_in_range(f"bump {name}", getattr(self, name))
        if not 0.0 <= _float(self.amplitude) < math.inf:
            raise NegativeAmplitude(f"bump amplitude must be >= 0, got {self.amplitude}")
        if not 0.0 < _float(self.width) < math.inf:
            raise ValueError(f"bump width must be positive, got {self.width}")
        pair = isinstance(self.center, tuple) and len(self.center) == 2
        for c in self.center if pair else ():
            _require_in_range("bump center", c)
        if not (pair and all(_is(numbers.Real, c) and math.isfinite(_float(c)) for c in self.center)):
            raise ValueError(f"bump center must be a pair of finite real numbers, got {self.center!r}")


@dataclass(frozen=True)
class InitialData:
    """Builder tag plus shape parameters for the initial density.

    kind is one of "uniform", "gaussian-bump", "multi-bump", "from-file";
    construction checks the mass and the fields that kind reads, no others.
    When `mass` is set the built field is rescaled to that discrete integral.
    """

    kind: str
    amplitude: float = 1.0
    center: tuple[float, float] | None = None
    width: float = 0.1
    bumps: tuple[BumpSpec, ...] = ()
    path: str | None = None
    mass: float | None = None

    def __post_init__(self):
        if self.kind not in _INITIAL_KINDS:
            raise ValueError(f"unknown initial data kind {self.kind!r}")
        reads = _INITIAL_KINDS[self.kind][1]
        for name in ("amplitude", "width", "mass"):
            value = getattr(self, name)
            if name not in reads and (name != "mass" or value is None):
                continue
            if not _is(numbers.Real, value):
                raise ValueError(f"initial data {name} must be a real number, got {value!r}")
            _require_in_range(f"initial data {name}", value)
        if "width" in reads:  # one bump, checked as a BumpSpec; a None center is dom's middle
            BumpSpec(self.center if self.center is not None else (0.0, 0.0), self.width, self.amplitude)
        elif "amplitude" in reads and not 0.0 <= _float(self.amplitude) < math.inf:
            raise NegativeAmplitude(f"uniform level must be >= 0, got {self.amplitude}")
        if "bumps" in reads and not (isinstance(self.bumps, tuple) and self.bumps):
            raise ZeroField("multi-bump initial data needs at least one bump")
        if "bumps" in reads and not all(isinstance(b, BumpSpec) for b in self.bumps):
            raise ValueError(f"multi-bump bumps must be BumpSpecs, got {self.bumps!r}")
        if "path" in reads and not isinstance(self.path, str):
            raise ValueError("from-file initial data needs a path")
        if self.mass is not None and not 0.0 < _float(self.mass) < math.inf:
            raise ZeroField(f"target mass must be positive, got {self.mass}")


def _gaussian(dom: DomainSpec, center, width: float, amplitude: float) -> np.ndarray:
    """A bump of the given width and height about center (None: the middle of dom)."""
    x, y = dom.cell_centers()
    cx, cy = center if center is not None else (dom.lengths[0] / 2, dom.lengths[1] / 2)
    r2 = (x[:, None] - cx) ** 2 + (y[None, :] - cy) ** 2
    values = np.exp(-r2 / (2.0 * width**2))
    values *= amplitude
    return values


def _multi_bump(spec: InitialData, dom: DomainSpec) -> np.ndarray:
    values = np.zeros(dom.cells)
    for bump in spec.bumps:
        values += _gaussian(dom, bump.center, bump.width, bump.amplitude)
    return values


# Each kind of initial data: its builder(spec, dom), and the fields it reads
# besides mass, each True when a config must give it.
_INITIAL_KINDS = {
    "uniform": (lambda spec, dom: np.full(dom.cells, float(spec.amplitude)), {"amplitude": True}),
    "gaussian-bump": (
        lambda spec, dom: _gaussian(dom, spec.center, spec.width, spec.amplitude),
        {"amplitude": False, "center": False, "width": True},
    ),
    "multi-bump": (_multi_bump, {"bumps": True}),
    "from-file": (lambda spec, dom: read_field_csv(spec.path, dom).values, {"path": True}),
}


def build_initial_data(spec: InitialData, dom: DomainSpec):
    """Build the initial density field; returns (field, mass).

    Values are midpoint samples at cell centers, which is the second-order
    cell average. The reported mass is the discrete integral of the result.
    The spec checked itself when built; left here: negative file values, a zero integral.
    """
    field = Field(_INITIAL_KINDS[spec.kind][0](spec, dom), dom)
    if field.extrema[0] < 0:  # only from a file: the other kinds checked their amplitudes
        raise NegativeAmplitude(f"file {spec.path!r} holds negative density values")
    mass = integrate(field)
    if mass <= 0.0:
        raise ZeroField("initial data integrates to zero")
    if spec.mass is not None:
        field = Field(field.values * (float(spec.mass) / mass), dom)
        mass = integrate(field)
    return field, mass


class Regime(enum.Enum):
    """Qualitative behaviour predicted by the coefficient/mass taxonomy."""

    SUBLINEAR_GLOBAL = "SublinearGlobal"
    REPULSION_DOMINANT = "RepulsionDominant"
    SUBCRITICAL_MASS = "SubcriticalMass"
    SUPERCRITICAL_MASS = "SupercriticalMass"
    CRITICAL_MASS = "CriticalMass"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class RegimeResult:
    regime: Regime
    critical_mass: float | None
    # True when the sublinear global-boundedness guarantee covers the point:
    # rho < 1 with repulsion, xi > 0, which the proof's constants need
    # (compute_bounds rejects xi = 0); rho = 1 points fall outside it.
    theorem_applies: bool


def critical_mass(chi: float, alpha: float, xi: float, gamma: float) -> float | None:
    """4 pi / (chi alpha - xi gamma) when attraction wins, else None.

    The coefficients range as in ModelParams (else DomainError). The
    threshold is meaningful for linear production in two dimensions; the
    arithmetic itself needs only the coefficient products.
    """
    chi, alpha, xi, gamma = map(_float, (chi, alpha, xi, gamma))
    if not (all(0.0 <= s < math.inf for s in (chi, xi)) and all(0.0 < c < math.inf for c in (alpha, gamma))):
        raise DomainError(f"need finite chi, xi >= 0 and alpha, gamma > 0, got {chi=}, {alpha=}, {xi=}, {gamma=}")
    balance = chi * alpha - xi * gamma
    if balance <= 0.0:
        return None
    return 4.0 * math.pi / balance


def classify_regime(params: ModelParams, mass: float) -> RegimeResult:
    """Classify (params, mass) into exactly one regime.

    Invariant under jointly rescaling (chi, alpha) and (xi, gamma) while the
    products chi*alpha and xi*gamma are preserved, since only those products
    enter.
    """
    mass = _float(mass)
    if not math.isfinite(mass) or mass <= 0:
        raise ZeroField(f"regime classification needs positive mass, got {mass}")

    if params.rho < 1.0:
        return RegimeResult(Regime.SUBLINEAR_GLOBAL, None, params.xi > 0.0)

    if params.chi * params.alpha < params.xi * params.gamma:
        return RegimeResult(Regime.REPULSION_DOMINANT, None, False)
    crit = critical_mass(params.chi, params.alpha, params.xi, params.gamma)
    if crit is None or params.dim != 2:
        # Exactly balanced attraction and repulsion sits outside the taxonomy.
        return RegimeResult(Regime.INDETERMINATE, None, False)
    if abs(mass - crit) <= CRITICAL_MASS_RTOL * crit:
        return RegimeResult(Regime.CRITICAL_MASS, crit, False)
    if mass < crit:
        return RegimeResult(Regime.SUBCRITICAL_MASS, crit, False)
    return RegimeResult(Regime.SUPERCRITICAL_MASS, crit, False)
