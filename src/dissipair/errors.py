"""Exception types raised across the package.

Grouped by how the command line maps them to exit codes: configuration
problems, numerical failures, and output failures.
"""


class ShapeMismatchError(ValueError):
    """Operands have incompatible or non-square shapes."""


class NotHermitianError(Exception):
    """Matrix fails the Hermiticity precondition."""


class NoConvergenceError(Exception):
    """Iteration budget exhausted before reaching tolerance."""


class NotPSDError(Exception):
    """Matrix has an eigenvalue below the allowed negative tolerance."""


class BadIndexError(ValueError):
    """Qubit index outside {1, 2}."""


class NegativeRateError(ValueError):
    """A decay or dephasing rate is negative."""


class BadWavelengthError(ValueError):
    """Wavelength must be positive."""


class BadEnergyError(ValueError):
    """Circuit energy must be positive."""


class InvalidStateError(Exception):
    """Density matrix fails basic state checks."""


class StepTooLargeError(Exception):
    """Integrator step too large for the generator's norm."""


class StateInvariantViolatedError(Exception):
    """Evolved state drifted outside trace or positivity tolerance."""


class NotAStateError(Exception):
    """Null vector cannot be turned into a unit-trace Hermitian state."""


class DegenerateSteadyStateError(Exception):
    """The stationary manifold is degenerate, so no single steady state exists."""


class ParseError(ValueError):
    """Config text is malformed; message carries the line number."""


class ValidationError(ValueError):
    """Config value fails validation; message names the field."""


class UnknownPresetError(ValueError):
    """Figure preset id is not registered."""


class IoError(Exception):
    """Output could not be written, or table contains non-finite values."""


CONFIG_ERRORS = (
    ParseError,
    ValidationError,
    UnknownPresetError,
    BadIndexError,
    NegativeRateError,
    BadWavelengthError,
    BadEnergyError,
    ShapeMismatchError,
)

NUMERIC_ERRORS = (
    NotHermitianError,
    NoConvergenceError,
    NotPSDError,
    InvalidStateError,
    StepTooLargeError,
    StateInvariantViolatedError,
    NotAStateError,
    DegenerateSteadyStateError,
)
