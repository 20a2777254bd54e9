"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid configuration: bad dimensions, empty dataset, bad parameters."""


class NumericalFailureError(RuntimeError):
    """A rollout produced a non-finite state or action."""

    def __init__(self, message, step_index=None):
        super().__init__(message)
        self.step_index = step_index


class InsufficientDataError(ValueError):
    """Dataset too small for the requested K-nearest-neighbor query."""


class InfeasibleCalibrationError(ValueError):
    """The requested quantile index exceeds the calibration sample size."""


class InvariantError(RuntimeError):
    """Internal bookkeeping disagrees with itself; this is a bug, not bad input."""
