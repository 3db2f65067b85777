"""Quantities read out from two-qubit states and model parameters.

Includes the excited-state populations, the entanglement of formation
witness (concurrence), the change of basis to the collective states
{|ee>, (|eg>+|ge>)/sqrt2, (|eg>-|ge>)/sqrt2, |gg>}, and the damping-force
bookkeeping that quantifies how one-way the qubit-qubit influence is.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError, NegativeRateError, ShapeMismatchError
from .linalg import kron, psd_sqrt
from .model import SIGMA_Y_2, require_finite, require_non_negative

# Spin-flip kernel sigma_y kron sigma_y; real in the fixed basis.
_FLIP = kron(SIGMA_Y_2, SIGMA_Y_2).real.astype(complex)

# Rows map computational amplitudes onto |ee>, |+>, |->, |gg>.
_SQ2 = 1.0 / math.sqrt(2.0)
COLLECTIVE_TRANSFORM = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, _SQ2, _SQ2, 0.0],
        [0.0, _SQ2, -_SQ2, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ],
    dtype=complex,
)

_STATE_TOL = 1e-6


@dataclass(frozen=True)
class IsolationReport:
    """Damping forces in both directions and their normalized imbalance."""

    F12: float
    F21: float
    delta_F: float


@dataclass(frozen=True)
class CollectivePopulations:
    P_E: float
    P_plus: float
    P_minus: float
    P_G: float


def _require_state(rho, stacked: bool = False) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4) or rho.ndim not in ((2, 3) if stacked else (2,)):
        kind = "4x4 or an (N, 4, 4) stack" if stacked else "4x4"
        raise ShapeMismatchError(f"state must be {kind}, got {rho.shape}")
    defects = np.abs(rho - np.swapaxes(rho.conj(), -1, -2)).max(axis=(-2, -1), initial=0.0)
    drifts = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)
    for values, problem in (
        (defects, "is not Hermitian within tolerance"),
        (drifts, "trace deviates from 1 beyond tolerance"),
    ):
        bad = np.flatnonzero(values > _STATE_TOL)
        if bad.size:
            where = f" at sample {bad[0]}" if rho.ndim == 3 else ""
            raise InvalidStateError(f"state{where} {problem}")
    return rho


def _per_state(x):
    """A float for one state, the array itself for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def populations(rho) -> tuple[float, float]:
    """Excited-state population of each qubit: floats for one state, arrays for an (N, 4, 4) stack."""
    rho = _require_state(rho, stacked=True)
    p1 = (rho[..., 0, 0] + rho[..., 1, 1]).real
    p2 = (rho[..., 0, 0] + rho[..., 2, 2]).real
    return _per_state(p1), _per_state(p2)


def concurrence(rho):
    """Entanglement monotone of a two-qubit mixed state, or of each in a stack.

    The descending quartet r_i are the singular values of
    sqrt(rho) sqrt(rho_tilde), with rho_tilde = (sy kron sy) conj(rho)
    (sy kron sy), and the result is max(0, r1 - r2 - r3 - r4): a float
    for one 4x4 state, an array of length N for an (N, 4, 4) stack.
    """
    rho = _require_state(rho, stacked=True)
    root = psd_sqrt(rho, tol=_STATE_TOL)
    # sqrt(rho_tilde) = F conj(sqrt(rho)) F, and the trailing unitary F does
    # not move singular values.  Taking r_i as singular values rather than
    # square roots of eigenvalues of sqrt(rho) rho_tilde sqrt(rho) keeps
    # their error at O(eps): a square root would lift eigenvalues at
    # roundoff level to ~1e-8 on (near-)separable states.
    r = np.linalg.svd(root @ _FLIP @ root.conj(), compute_uv=False)
    return _per_state(np.maximum(0.0, r[..., 0] - r[..., 1] - r[..., 2] - r[..., 3]))


def to_collective_basis(rho) -> np.ndarray:
    """Rewrite a state, or each of an (N, 4, 4) stack, in the collective basis |ee>, |+>, |->, |gg>."""
    rho = _require_state(rho, stacked=True)
    t = COLLECTIVE_TRANSFORM
    return t @ rho @ t.conj().T


def collective_populations(rho) -> CollectivePopulations:
    """Diagonal in the collective basis: floats for one state, arrays for an (N, 4, 4) stack."""
    t = COLLECTIVE_TRANSFORM
    diag = np.einsum("ki,...ij,kj->...k", t, _require_state(rho, stacked=True), t.conj()).real
    return CollectivePopulations(*(_per_state(diag[..., k]) for k in range(4)))


def damping_forces(J, Gamma, phi) -> IsolationReport:
    """Directional damping forces and their imbalance.

    F12 = |1j J + (Gamma/2) exp(1j phi)| measures how strongly qubit 2
    pushes on qubit 1; F21 mirrors it with conjugated coupling and phase.
    delta_F normalizes the difference to [-1, 1] and is defined as 0 when
    both forces vanish.  The inputs broadcast against each other: scalars
    give a report of floats, arrays a report of arrays of the broadcast
    shape.
    """
    require_finite(J=J, Gamma=Gamma, phi=phi)
    require_non_negative(Gamma=Gamma)
    J, Gamma, phi = np.asarray(J, dtype=complex), np.asarray(Gamma, dtype=float), np.asarray(phi, dtype=float)
    half_e = 0.5 * Gamma * np.exp(1j * phi)
    f12 = np.abs(1j * J + half_e)
    f21 = np.abs(1j * J.conj() + half_e.conj())
    total = f12 + f21
    delta = np.divide(f12 - f21, total, out=np.zeros_like(total), where=total > 0.0)
    if delta.ndim == 0:
        return IsolationReport(F12=float(f12), F21=float(f21), delta_F=float(delta))
    return IsolationReport(F12=f12, F21=f21, delta_F=delta)


def effective_decay_amplitudes(Gamma: float, phi: float) -> tuple[complex, complex, complex, complex]:
    """Collective-basis decay amplitudes, ordered (E->+, +->G, E->-, -->G).

    sqrt(Gamma/2) times (1 + e), (1 + e), (-1 + e), (1 - e) with
    e = exp(1j phi).  A zero amplitude pair marks a dark state: |-> at
    phi = 0, |+> at phi = pi.
    """
    if Gamma < 0.0:
        raise NegativeRateError(f"Gamma must be >= 0, got {Gamma}")
    root = math.sqrt(0.5 * Gamma)
    e = cmath.exp(1j * phi)
    return (
        root * (1.0 + e),
        root * (1.0 + e),
        root * (-1.0 + e),
        root * (1.0 - e),
    )


def isolation_map(J: complex, gamma_values, phi_values) -> np.ndarray:
    """delta_F on a grid: rows follow `gamma_values`, columns `phi_values`."""
    gammas = np.asarray(gamma_values, dtype=float)
    return damping_forces(J, gammas[:, None], np.asarray(phi_values, dtype=float)[None, :]).delta_F
