"""Operators and parameters for a pair of qubits sharing a waveguide.

Basis convention, fixed across the package: two-qubit states are ordered
|ee>, |eg>, |ge>, |gg> with qubit 1 as the left tensor factor, and the
single-qubit basis is (|e>, |g>).  In that ordering the lowering operator
is [[0, 0], [1, 0]] and sigma_z is diag(1, -1).

The qubits interact two ways: direct excitation exchange with complex
amplitude J, and emission into a shared one-dimensional channel that
correlates their decay with a phase phi set by how far apart they sit
along the channel.  Individual dephasing enters at rate kappa.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadIndexError, NegativeRateError, ValidationError
from .linalg import kron

IDENTITY_2 = np.eye(2, dtype=complex)
LOWER_2 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
RAISE_2 = LOWER_2.conj().T
SIGMA_Z_2 = np.diag([1.0, -1.0]).astype(complex)
SIGMA_Y_2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def require_finite(**fields) -> None:
    """Raise ValidationError naming the first field (scalar or array) with a NaN or inf, and its value."""
    for name, value in fields.items():
        value = np.asarray(value)
        bad = value[~np.isfinite(value)]
        if bad.size:
            raise ValidationError(f"{name} must be finite, got {bad[0]}")


def require_non_negative(**rates) -> None:
    """Raise NegativeRateError naming the first rate (scalar or array) below zero, and its lowest value."""
    for name, value in rates.items():
        if np.any(np.asarray(value) < 0.0):
            raise NegativeRateError(f"{name} must be >= 0, got {np.min(value)}")


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
        if self.target not in (1, 2):
            raise BadIndexError(f"drive target must be 1 or 2, got {self.target}")
        require_non_negative(**{"drive amplitude": self.amplitude})


@dataclass(frozen=True, eq=False)
class ModelParams(_FieldwiseEquality):
    """Rates and phases in units of the exchange coupling.

    phi is stored as given; every operator built from it only ever uses
    exp(1j * phi), so adding 2 pi changes nothing.  Each field (and the
    drive amplitude) may be an array; they broadcast against each other,
    and every builder then returns a stack over the broadcast shape.
    """

    J: complex = 1.0
    Gamma: float = 0.0
    phi: float = 0.0
    kappa: float = 0.0
    drive: Drive | None = None

    def __post_init__(self):
        require_finite(J=self.J, Gamma=self.Gamma, phi=self.phi, kappa=self.kappa)
        require_non_negative(Gamma=self.Gamma, kappa=self.kappa)


def _check_qubit(qubit: int) -> None:
    if qubit not in (1, 2):
        raise BadIndexError(f"qubit index must be 1 or 2, got {qubit}")


def _embed(op: np.ndarray, qubit: int) -> np.ndarray:
    return kron(op, IDENTITY_2) if qubit == 1 else kron(IDENTITY_2, op)


def sigma_minus(qubit: int) -> np.ndarray:
    """Lowering operator of one qubit embedded in the two-qubit space."""
    _check_qubit(qubit)
    return _embed(LOWER_2, qubit)


def sigma_plus(qubit: int) -> np.ndarray:
    """Raising operator of one qubit embedded in the two-qubit space."""
    _check_qubit(qubit)
    return _embed(RAISE_2, qubit)


def sigma_z(qubit: int) -> np.ndarray:
    """Population-inversion operator of one qubit, diag(+1) on excited."""
    _check_qubit(qubit)
    return _embed(SIGMA_Z_2, qubit)


def _column(x, dtype=complex) -> np.ndarray:
    """A scalar or array of coefficients shaped to scale a stack of matrices."""
    return np.asarray(x, dtype=dtype)[..., None, None]


def build_coherent_hamiltonian(J: complex) -> np.ndarray:
    """Excitation-exchange Hamiltonian J s1+ s2- + conj(J) s1- s2+, stacked over an array J."""
    J = _column(J)
    return J * (sigma_plus(1) @ sigma_minus(2)) + J.conj() * (sigma_minus(1) @ sigma_plus(2))


def build_drive_hamiltonian(target: int, amplitude: float) -> np.ndarray:
    """Resonant drive amplitude * (s+ + s-) on the target qubit, stacked over an array amplitude."""
    drive = Drive(target, amplitude)
    return _column(drive.amplitude, float) * (sigma_plus(drive.target) + sigma_minus(drive.target))


def build_hamiltonian(params: ModelParams) -> np.ndarray:
    """Full coherent generator: exchange term plus any drive."""
    h = build_coherent_hamiltonian(params.J)
    if params.drive is not None and np.any(np.asarray(params.drive.amplitude) != 0.0):
        h = h + build_drive_hamiltonian(params.drive.target, params.drive.amplitude)
    return h


def build_jump_operators(params: ModelParams) -> list[np.ndarray]:
    """Collapse operators with rates absorbed into the amplitudes.

    The shared channel contributes a single collective operator
    sqrt(Gamma) * (s1- + exp(1j phi) s2-); dephasing adds sqrt(kappa) * s_z
    per qubit.  Array fields give stacks; a jump is left out only when
    its rate is zero on every cell.  The rates were validated by ModelParams.
    """
    jumps = []
    if np.any(np.asarray(params.Gamma) > 0.0):
        phase = _column(np.exp(1j * np.asarray(params.phi, dtype=float)))
        jumps.append(_column(np.sqrt(params.Gamma), float) * (sigma_minus(1) + phase * sigma_minus(2)))
    if np.any(np.asarray(params.kappa) > 0.0):
        root = _column(np.sqrt(params.kappa), float)
        jumps.append(root * sigma_z(1))
        jumps.append(root * sigma_z(2))
    return jumps
