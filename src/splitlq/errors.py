"""Exception types shared across the package, and the step-count check."""

import numbers

import numpy as np


class DimensionError(ValueError):
    """A matrix or vector does not have the required shape."""


class InputError(ValueError):
    """Input data violates a documented precondition (non-finite entries,
    asymmetry beyond tolerance, indefinite weights, ...)."""


class SingularityError(RuntimeError):
    """A matrix that must be inverted is singular or numerically close to it.

    Carries the time (or step size) at which the solve failed, when known.
    """

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


class MisuseError(TypeError):
    """An operation was called on a problem it does not apply to
    (e.g. the autonomous solver on time-dependent coefficients)."""


class ConfigError(ValueError):
    """A configuration value (scheme coefficients, benchmark preset,
    config file entry) is invalid."""


def check_steps(steps, what="steps"):
    """``steps`` as an int >= 1 (numpy integers, not bools) whose steps + 1 samples
    numpy can index (asked of an empty array, so nothing is allocated); else ConfigError,
    which names the count by the last word of ``what`` (steps, or stages_per_step)."""
    if not (isinstance(steps, numbers.Integral) and not isinstance(steps, bool) and steps >= 1):
        raise ConfigError(f"{what} must be an integer >= 1, got {steps!r}")
    steps = int(steps)
    try:
        np.empty((steps + 1, 0))
    except ValueError as exc:
        raise ConfigError(f"cannot record {steps} {what.split()[-1]}: {exc}") from None
    return steps
