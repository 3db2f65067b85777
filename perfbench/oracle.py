"""Independent reference physics for the benchmark's correctness checks.

Nothing here calls into dissipair.  The Liouvillian, the steady state,
the concurrence, the isolation ratio and exact trajectories are rebuilt
from their textbook definitions with plain numpy, so a defect in the
package cannot hide inside its own reference.
"""

from __future__ import annotations

import math

import numpy as np

# The package's documented uniqueness threshold on the second-smallest
# singular value of the Liouvillian.
UNIQUE_GAP = 1e-8

_LOWER = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
_EYE2 = np.eye(2, dtype=complex)
_EYE4 = np.eye(4, dtype=complex)
_SM = {1: np.kron(_LOWER, _EYE2), 2: np.kron(_EYE2, _LOWER)}
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)
_SQ2 = 1.0 / math.sqrt(2.0)
# Rows: |ee>, |+>, |->, |gg> in the computational basis |ee>, |eg>, |ge>, |gg>.
_COLLECTIVE = np.array(
    [[1, 0, 0, 0], [0, _SQ2, _SQ2, 0], [0, _SQ2, -_SQ2, 0], [0, 0, 0, 1]], dtype=complex
)
_KETS = {
    "EE": _EYE4[0], "E": _EYE4[0], "EG": _EYE4[1], "GE": _EYE4[2], "GG": _EYE4[3], "G": _EYE4[3],
    "PLUS": _COLLECTIVE[1], "MINUS": _COLLECTIVE[2],
}


def liouvillian(J: float, Gamma: float, phi: float, drive_target: int | None = None,
                drive_amplitude: float = 0.0) -> np.ndarray:
    """Column-stacked generator of exchange J, collective decay Gamma at phase phi, one drive."""
    sm1, sm2 = _SM[1], _SM[2]
    h = J * (sm1.conj().T @ sm2 + sm1 @ sm2.conj().T)
    if drive_target is not None:
        h = h + drive_amplitude * (_SM[drive_target] + _SM[drive_target].conj().T)
    c = math.sqrt(Gamma) * (sm1 + np.exp(1j * phi) * sm2)
    cc = c.conj().T @ c
    return (-1j * (np.kron(_EYE4, h) - np.kron(h.T, _EYE4))
            + np.kron(c.conj(), c) - 0.5 * (np.kron(_EYE4, cc) + np.kron(cc.T, _EYE4)))


def steady_state(gen: np.ndarray) -> np.ndarray | None:
    """Unit-trace null vector of `gen` from its SVD, or None when the null space is degenerate."""
    _, sing, vh = np.linalg.svd(gen)
    if sing[-2] <= UNIQUE_GAP:
        return None
    rho = vh[-1].conj().reshape(4, 4, order="F")
    rho = rho / np.trace(rho)
    return 0.5 * (rho + rho.conj().T)


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence from the non-Hermitian product rho rho_tilde."""
    tilde = _FLIP @ rho.conj() @ _FLIP
    lam = np.sort(np.sqrt(np.clip(np.linalg.eigvals(rho @ tilde).real, 0.0, None)))[::-1]
    return max(0.0, float(lam[0] - lam[1:].sum()))


def delta_f(J: float, Gamma: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Normalized damping-force imbalance (F12 - F21) / (F12 + F21), 0 where both vanish."""
    f12 = np.abs(1j * J + 0.5 * Gamma * np.exp(1j * phi))
    f21 = np.abs(1j * J + 0.5 * Gamma * np.exp(-1j * phi))
    total = f12 + f21
    return np.where(total > 0.0, (f12 - f21) / np.where(total > 0.0, total, 1.0), 0.0)


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by a 30-term Taylor series after scaling ||a|| below 0.1, then squaring."""
    squarings = max(0, math.ceil(math.log2(max(np.abs(a).sum(axis=1).max(), 1e-300) / 0.1)))
    b = a / 2.0 ** squarings
    total = term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, 31):
        term = term @ b / k
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


def trajectory(gen: np.ndarray, initial: str, dt: float, n_steps: int, stride: int) -> np.ndarray:
    """Exact states at steps 0, stride, 2 stride, ..., n_steps (n_steps a multiple of stride)."""
    if n_steps % stride:
        raise ValueError(f"{n_steps} steps are not a multiple of stride {stride}")
    ket = _KETS[initial]
    v = np.outer(ket, ket.conj()).flatten(order="F")
    step = _expm(gen * (dt * stride))
    out = np.empty((n_steps // stride + 1, 16), dtype=complex)
    out[0] = v
    for i in range(1, len(out)):
        v = step @ v
        out[i] = v
    return out.reshape(-1, 4, 4).transpose(0, 2, 1)


def quantities(states: np.ndarray) -> dict[str, np.ndarray]:
    """Qubit populations, collective populations and concurrence of each state."""
    coll = np.einsum("ij,kjl,ml->kim", _COLLECTIVE, states, _COLLECTIVE.conj())
    out = {
        "P1": (states[:, 0, 0] + states[:, 1, 1]).real,
        "P2": (states[:, 0, 0] + states[:, 2, 2]).real,
        "C": np.array([concurrence(rho) for rho in states]),
    }
    for k, name in enumerate(("P_E", "P_plus", "P_minus", "P_G")):
        out[name] = coll[:, k, k].real
    return out
