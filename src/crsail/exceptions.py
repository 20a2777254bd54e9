"""Exception types shared across the package, and the finiteness check of configs."""

import math
from dataclasses import fields


class ConfigurationError(ValueError):
    """Invalid configuration: bad dimensions, empty dataset, bad parameters."""


class NumericalFailureError(RuntimeError):
    """A rollout produced a non-finite state or action.

    `step_index` is the time step and `episode` the episode's index in its
    rollout call, when the failure has them.
    """

    def __init__(self, message, step_index=None, episode=None):
        super().__init__(message)
        self.step_index = step_index
        self.episode = episode


class InsufficientDataError(ValueError):
    """Dataset too small for the requested K-nearest-neighbor query."""


class InfeasibleCalibrationError(ValueError):
    """The requested quantile index exceeds the calibration sample size."""


class InvariantError(RuntimeError):
    """Internal bookkeeping disagrees with itself; this is a bug, not bad input."""


def require_finite(config) -> None:
    """Reject a NaN or infinite value in any float field of the dataclass `config`.

    A NaN passes every range check (each comparison with it is false), so it
    is caught here, before those checks run.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in ("float", float) and not math.isfinite(value):
            raise ConfigurationError(f"{f.name} must be finite, got {value!r}")
