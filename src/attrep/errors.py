"""Exception types shared across the package."""


class SimulationError(Exception):
    """Base class for every error this package raises deliberately."""


class NonPositiveCoefficient(SimulationError):
    def __init__(self, name: str, value: float, requirement: str = "strictly positive"):
        super().__init__(f"coefficient {name!r} must be {requirement}, got {value}")
        self.name = name
        self.value = value


class RhoOutOfRange(SimulationError):
    def __init__(self, value: float):
        super().__init__(
            f"rho must lie in (0, 1], with rho = 1 admitted only for regime "
            f"experiments; got {value}"
        )
        self.value = value


class NegativeAmplitude(SimulationError):
    """Initial data must be nonnegative."""


class ZeroField(SimulationError):
    """Initial data integrates to zero; the dynamics need positive mass."""


class NonFiniteField(SimulationError):
    """A field operation received NaN or Inf values."""


class NonPositiveKappa(SimulationError):
    """The screened solve (-Lap + kappa) requires kappa > 0."""


class SolverDiverged(SimulationError):
    """The elliptic solve failed its own post-conditions."""


class NegativeDensity(SimulationError):
    """Cell density is negative beyond the rounding tolerance."""


class NonFiniteState(SimulationError):
    """The evolved state contains NaN or Inf; treated as blow-up suspicion."""


class InsufficientSamples(SimulationError):
    """At least two diagnostics samples are needed for a rate check."""


class MismatchedP(SimulationError):
    """The requested exponent p was not among the sampled energies."""


class RhoNotSublinear(SimulationError):
    """The production-term constant exists only for rho strictly below 1."""


class EtaOutOfRange(SimulationError):
    """The interpolation weight eta must lie in (0, 1/2)."""


class DomainError(SimulationError):
    """A constant formula was called outside its parameter domain."""


class ConfigError(SimulationError):
    """Experiment configuration is missing or malformed; names the field."""

    def __init__(self, field: str, problem: str):
        super().__init__(f"config field {field!r}: {problem}")
        self.field = field
        self.problem = problem
