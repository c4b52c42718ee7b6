"""Exception hierarchy shared across the package.

Every error raised deliberately by this package derives from SphmaxError,
so callers can distinguish our diagnostics from genuine bugs. DomainError
covers bad mathematical inputs; ConfigError covers bad run configuration;
PrecisionError means a computation could not meet its accuracy contract.
"""


class SphmaxError(Exception):
    """Base class for all package errors."""


class ConfigError(SphmaxError):
    """Invalid or contradictory run configuration (CLI / config file)."""


class DomainError(SphmaxError):
    """Mathematically invalid input to a library function."""


class InvalidScaleError(DomainError):
    """A scale parameter is outside (0, 1], not rational, or below resolution."""


class InvalidWindowError(DomainError):
    """A localization window does not meet the required form."""


class ParameterError(DomainError):
    """Exponents or dimension parameters outside their admissible range."""


class SingularityError(DomainError):
    """Pointwise kernel evaluation requested exactly on a singularity."""


class ConsistencyError(DomainError):
    """Mutually inconsistent dimension data supplied for one set."""


class DegenerateProbeError(DomainError):
    """A probe family cannot be instantiated on the given set or scales."""


class InsufficientDataError(DomainError):
    """Not enough scales or samples to fit the requested quantity."""


class DivergentNormError(DomainError):
    """The requested norm is provably infinite for this profile."""


class PrecisionError(SphmaxError):
    """Adaptive quadrature exhausted its refinement budget short of
    tolerance, or a mean has no finite value in floating point."""
