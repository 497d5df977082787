"""Exception hierarchy shared across the package; each class carries the
exit code the command line returns for it."""


class StrataError(Exception):
    """Base class for all package errors.  ``position`` is the index of the
    offending record or layer, if any, for a file reader to name its line."""

    exit_code = 2

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class ParameterError(StrataError):
    """A model parameter is outside its admissible range."""


class InvalidConfigurationError(StrataError):
    """A thickness vector violates the configuration invariants."""


class IncompatibleSequenceError(StrataError):
    """An observed facies sequence is not a subsequence of the parent."""

    exit_code = 3


class InfeasibleMoveError(StrataError):
    """A Split/Merge/Displace move cannot be applied to this configuration."""


class NumericError(StrataError):
    """A numerical routine failed (singular matrix, non-convergence, ...)."""

    exit_code = 4


class CapacityError(StrataError):
    """A problem size exceeds a fixed capacity of the numeric kernels."""

    exit_code = 4


class DegenerateRegionError(StrataError):
    """The truncation region has vanishing probability."""

    exit_code = 4


class PlacementError(StrataError):
    """A borehole location cannot be matched to the simulation point set."""


class DatasetError(StrataError):
    """An input file is malformed or inconsistent."""
