"""Exception types raised across the package, one per command-line exit code."""


class ValidationError(ValueError):
    """Bad input, exit code 2: malformed config text, a value out of range, an unknown preset or a wrong shape."""


class NumericalError(Exception):
    """A numerical failure, exit code 3: a step too large, a non-finite or non-Hermitian generator, a state that
    fails its checks, or a steady state that cannot be trusted or is not unique.

    Not a ValueError: the config parser turns a ValueError from a value's converter into a ValidationError.
    """


class IoError(Exception):
    """Output could not be written, or table contains non-finite values (exit code 4)."""
