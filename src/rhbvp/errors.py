"""Exception hierarchy.

Two families, mirrored by the CLI exit codes: usage errors (bad input,
bad configuration, violated structural preconditions) and numerical
errors (a computation that started from valid input but left its
certified range).
"""


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
