"""Exception hierarchy, and the rule that reads every numeric setting.

Two families, mirrored by the CLI exit codes: usage errors (bad input,
bad configuration, violated structural preconditions) and numerical
errors (a computation that started from valid input but left its
certified range).  real and count read each numeric setting (solver
parameters, verifier settings, M, constant data, piece bounds, declared
jumps, family points); anything else is a ConfigurationError naming it.
"""

import numpy as np


class RHBVPError(Exception):
    """Base class for all package errors."""


class UsageError(RHBVPError):
    """Invalid input or configuration; CLI exit code 1."""


class ConfigurationError(UsageError):
    """Malformed or inconsistent configuration (unknown keys, bad N, ...)."""


class DataError(UsageError):
    """Boundary data fails a structural requirement (wrong kind, NaN, ...)."""


class DomainError(UsageError):
    """Point query outside the domain of validity."""


class InvariantViolation(UsageError):
    """A declared structural invariant failed at construction time."""


class NumericalError(RHBVPError):
    """Computation left its certified numerical range; CLI exit code 2."""


class NumericalRangeError(NumericalError):
    """Overflow/underflow or non-finite intermediate despite clamping."""


class RepresentationError(NumericalError):
    """A power series representation failed (non-decaying coefficients)."""


class ConvergenceError(NumericalError):
    """An iteration exceeded its budget without meeting its tolerance."""


class ConvergenceDomainError(NumericalError):
    """Input lies outside the region where the iteration is contractive."""


class PointQueryError(NumericalError):
    """A single-point query (e.g. map inversion) failed to converge."""


def real(value, name: str) -> float:
    """A finite int, float or numpy real, never a bool, as a float; an
    int beyond float range is not finite."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ConfigurationError(f"{name} has the wrong type: {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = np.inf
    if not -np.inf < x < np.inf:
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    return x


def count(value, name: str, least: int, most: int | None = None) -> int:
    """An int or numpy integer, never a bool, of at least least and, when
    most is given, at most most, as an int."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < least):
        raise ConfigurationError(
            f"{name} must be an integer of at least {least}, got {value!r}")
    if most is not None and value > most:
        raise ConfigurationError(
            f"{name} must be at most {most}, got {value!r}")
    return int(value)
