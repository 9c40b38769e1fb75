"""Exception hierarchy shared across the package."""


class WavetrigError(Exception):
    """Base class for all errors raised by wavetrig."""


class ConfigurationError(WavetrigError):
    """Invalid user-supplied configuration (geometry, parameters, modes)."""


class ShapeError(WavetrigError):
    """A field does not match the grid it is used with."""


class NumericalError(WavetrigError):
    """A numerical procedure produced invalid values."""


class BlowUpError(NumericalError):
    """The time integration produced non-finite values."""

    def __init__(self, message, step=None, time=None):
        super().__init__(message)
        self.step = step
        self.time = time


class DegenerateInitialDataError(ConfigurationError):
    """Initial data with vanishing Lyapunov value; the trigger threshold
    would be identically zero and force an event at every step."""


class InfeasibleDomainError(WavetrigError):
    """The Poincare constant is >= sqrt(2); no certificate exists."""


class DesignFailureError(WavetrigError):
    """The parameter search exhausted its shrink budget without finding a
    feasible weight interval."""


class PreconditionError(WavetrigError):
    """An operation was called with arguments outside its admissible range."""


class DataFormatError(WavetrigError):
    """A persisted run artifact could not be parsed."""
