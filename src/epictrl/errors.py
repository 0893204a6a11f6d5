"""Exception types shared across the package."""


class EpictrlError(Exception):
    """Base class for all package-specific errors."""


class StabilityError(EpictrlError):
    """The step size is too large: a compartment went negative beyond roundoff tolerance, or
    the costates overflowed in the backward pass."""


class ScheduleError(EpictrlError):
    """An impulse time does not coincide with a grid node or lies outside (0, tau)."""


class GridMismatchError(EpictrlError):
    """Two time-gridded objects do not share a common grid."""


class DegenerateParameterError(EpictrlError):
    """A formula denominator (alpha*f, eta, sigma0, sum sigma_i*gamma_i^2) is zero."""


class ExplosionGuardError(EpictrlError):
    """A brute-force enumeration would exceed the candidate-count guard."""


class BoxViolationError(EpictrlError):
    """A perturbed control leaves its admissible box."""


class UnknownPresetError(EpictrlError):
    """Requested disease preset does not exist."""


class ParseError(EpictrlError):
    """A config file failed to parse or validate; message lists every violation."""


class RangeError(EpictrlError):
    """An invalid search range was supplied."""
