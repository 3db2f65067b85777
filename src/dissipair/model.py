"""Parameters for a pair of qubits sharing a waveguide.

Basis convention, fixed across the package: two-qubit states are ordered
|ee>, |eg>, |ge>, |gg> with qubit 1 as the left tensor factor, and the
single-qubit basis is (|e>, |g>).  In that ordering the lowering operator
is [[0, 0], [1, 0]] and sigma_z is diag(1, -1); `dynamics._model_basis`
writes the two-qubit operators out in it.

The qubits interact two ways: direct excitation exchange with complex
amplitude J, and emission into a shared one-dimensional channel that
correlates their decay with a phase phi set by how far apart they sit
along the channel.  Individual dephasing enters at rate kappa.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def require_finite(**fields) -> None:
    """Raise ValidationError naming the first field (scalar or array) that is not a number or holds a NaN or inf."""
    for name, value in fields.items():
        try:
            finite = np.isfinite(value)
        except (TypeError, ValueError):  # a string, None, or a ragged sequence
            raise ValidationError(f"{name} must be a number, got {value!r}") from None
        bad = np.asarray(value)[~finite]
        if bad.size:
            raise ValidationError(f"{name} must be finite, got {bad[0]}")


def require_non_negative(**rates) -> None:
    """Raise ValidationError naming the first rate (scalar or array) below zero, and its lowest value."""
    for name, value in rates.items():
        if np.any(np.asarray(value) < 0.0):
            raise ValidationError(f"{name} must be >= 0, got {np.min(value)}")


class _FieldwiseEquality:
    """Equality field by field with np.array_equal, so array fields compare too; only scalar fields hash."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(vars(self).values(), vars(other).values()))

    def __hash__(self):
        if any(isinstance(value, np.ndarray) for value in vars(self).values()):
            raise TypeError(f"{type(self).__name__} with array fields is unhashable: its arrays are mutable")
        return hash(tuple(vars(self).values()))


@dataclass(frozen=True, eq=False)
class Drive(_FieldwiseEquality):
    """Resonant drive on one qubit: target in {1, 2}, amplitude >= 0 (a scalar or an array)."""

    target: int
    amplitude: float

    def __post_init__(self):
        require_finite(amplitude=self.amplitude)
        # The type is checked first: `1.0 in (1, 2)` and `True in (1, 2)` both hold.
        if isinstance(self.target, bool) or not isinstance(self.target, (int, np.integer)) or self.target not in (1, 2):
            raise ValidationError(f"drive target must be 1 or 2, got {self.target}")
        require_non_negative(**{"drive amplitude": self.amplitude})


@dataclass(frozen=True, eq=False)
class ModelParams(_FieldwiseEquality):
    """Rates and phases in units of the exchange coupling.

    phi is stored as given; every operator built from it only ever uses
    exp(1j * phi), so adding 2 pi changes nothing.  Each field (and the
    drive amplitude) may be an array; they broadcast against each other,
    and `liouvillian_from_params` then returns a stack over the broadcast shape.
    """

    J: complex = 1.0
    Gamma: float = 0.0
    phi: float = 0.0
    kappa: float = 0.0
    drive: Drive | None = None

    def __post_init__(self):
        require_finite(J=self.J, Gamma=self.Gamma, phi=self.phi, kappa=self.kappa)
        require_non_negative(Gamma=self.Gamma, kappa=self.kappa)

