"""Exception hierarchy shared across the package."""


class StrataError(Exception):
    """Base class for all package errors."""


class ParameterError(StrataError):
    """A model parameter is outside its admissible range."""


class InvalidConfigurationError(StrataError):
    """A thickness vector violates the configuration invariants."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class IncompatibleSequenceError(StrataError):
    """An observed facies sequence is not a subsequence of the parent."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class InfeasibleMoveError(StrataError):
    """A Split/Merge/Displace move cannot be applied to this configuration."""


class NumericError(StrataError):
    """A numerical routine failed (singular matrix, non-convergence, ...)."""


class CapacityError(StrataError):
    """A problem size exceeds a fixed capacity of the numeric kernels."""


class DegenerateRegionError(StrataError):
    """The truncation region has vanishing probability."""


class PlacementError(StrataError):
    """A borehole location cannot be matched to the simulation point set."""


class DatasetError(StrataError):
    """An input file is malformed or inconsistent."""
