"""Exception hierarchy shared across the package.

The ``exit_code`` and stderr ``label`` class attributes are the one place
where the command line's exit codes from 2 up are defined; a subclass
without its own takes its parent's.  Exit 0 and 1 are check verdicts.
"""


class WavetrigError(Exception):
    """Base class for all errors raised by wavetrig."""

    exit_code = 64
    label = "error"


class UsageError(WavetrigError):
    """Bad command-line arguments, or a config file that does not exist."""

    label = "usage error"


class ConfigurationError(WavetrigError):
    """Invalid user-supplied configuration (geometry, parameters, modes) or out-of-range arguments."""

    label = "configuration error"


class ShapeError(WavetrigError):
    """A field does not match the grid it is used with."""


class NumericalError(WavetrigError):
    """A numerical procedure produced invalid values."""

    exit_code = 4
    label = "numerical error"


class BlowUpError(NumericalError):
    """The time integration produced non-finite values."""

    label = "blow-up"

    def __init__(self, message, step=None, time=None):
        super().__init__(message)
        self.step = step
        self.time = time


class DegenerateInitialDataError(ConfigurationError):
    """Initial data with V = 0: the trigger threshold would be zero and fire an event at every step."""

    exit_code = 5
    label = "degenerate initial data"


class InfeasibleDomainError(WavetrigError):
    """The Poincare constant is >= sqrt(2); no certificate exists."""

    exit_code = 2
    label = "infeasible domain"


class DesignFailureError(WavetrigError):
    """The parameter search ran out of its shrink budget before finding a feasible weight interval."""

    exit_code = 3
    label = "design failure"


class DataFormatError(WavetrigError):
    """A data file (certificate, run artifact, initial data) cannot be read or parsed, or is invalid."""

    exit_code = 65
    label = "data format error"


class MissingInputError(WavetrigError, FileNotFoundError):
    """A certificate, run directory or initial-data file does not exist."""

    exit_code = 66


class OutputError(WavetrigError):
    """An output directory or file cannot be created or written."""

    exit_code = 73
    label = "output error"
