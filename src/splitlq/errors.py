"""Exception types shared across the package, and the step-count check."""

import numbers


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
    """``steps`` as an int >= 1, numpy integers included; else ConfigError."""
    if isinstance(steps, numbers.Integral) and steps >= 1:
        return int(steps)
    raise ConfigError(f"{what} must be an integer >= 1, got {steps!r}")
