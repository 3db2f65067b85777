"""Quantities read out from two-qubit states and model parameters.

Includes the excited-state populations, the entanglement of formation
witness (concurrence), the populations of the collective states
{|ee>, (|eg>+|ge>)/sqrt2, (|eg>-|ge>)/sqrt2, |gg>}, and the damping-force
bookkeeping that quantifies how one-way the qubit-qubit influence is.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .dynamics import _OFF_X, _X_BLOCKS, _check_samples, _cholesky, _coordinates, _position, _states
from .errors import NumericalError, ValidationError
from .model import require_finite, require_non_negative

# sigma_y kron sigma_y is the anti-diagonal (-1, 1, 1, -1): X F is X with its columns reversed and signed.
_FLIP_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])

_UPPER_ROWS, _UPPER_COLS = np.triu_indices(4)  # the ten entries i <= j
_PIECE, _POOL = 1024, {}  # the least samples per piece of a split factored batch, and the pool that takes the pieces


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


def _checked_coordinates(rho) -> np.ndarray:
    """Raw coordinates of a checked state's Hermitian part, (16,) for one state and (N, 16) for a stack.

    Non-numeric input, or a Hermiticity defect max |rho_ij - conj rho_ji| over the ten entries i <= j above 1e-6 or
    not finite, raises NumericalError.  The coordinates of rho - (rho - rho')/2 (rho's bits when rho is Hermitian,
    free of the overflow of (rho + rho')/2) then pass `_check_samples`, the trace and eigenvalue check of every block.
    """
    try:
        rho = np.asarray(rho, dtype=complex)
    except (TypeError, ValueError):  # a string, a dict or a ragged sequence
        raise NumericalError(f"state must be a numeric array, got {rho!r:.60}") from None
    if rho.shape[-2:] != (4, 4) or rho.ndim not in (2, 3):
        raise ValidationError(f"state must be 4x4 or an (N, 4, 4) stack, got {rho.shape}")
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, refused just below
        defects = np.abs(rho[..., _UPPER_ROWS, _UPPER_COLS] - rho[..., _UPPER_COLS, _UPPER_ROWS].conj()).max(axis=-1)
    # Written so that a NaN, from any NaN or inf entry, fails too.
    bad = np.flatnonzero(~(defects <= 1e-6))
    if bad.size:
        where = f" at sample {bad[0]}" if rho.ndim == 3 else ""
        problem = "is not Hermitian within tolerance" if np.isfinite(defects.flat[bad[0]]) else "is not finite"
        raise NumericalError(f"state{where} {problem}")
    coords = _coordinates(rho - 0.5 * (rho - rho.conj().swapaxes(-1, -2)))
    _check_samples(coords.reshape(-1, 16), "state")
    return coords


def _per_state(x):
    """A float for one state, the array itself for a stack."""
    return float(x) if np.ndim(x) == 0 else x


# The linear read-outs take raw coordinates y at these positions, so the layout has one owner.
_EE, _EG, _GE, _GG, _RE_EG_GE = (_position(i, j) for i, j in ((0, 0), (1, 1), (2, 2), (3, 3), (1, 2)))


def _qubit_populations(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P1 = rho_00 + rho_11 and P2 = rho_00 + rho_22, read off raw coordinates; + 0.0 turns a -0 into +0."""
    return y[..., _EE] + y[..., _EG] + 0.0, y[..., _EE] + y[..., _GE] + 0.0


def _collective_populations(y: np.ndarray) -> CollectivePopulations:
    """P_E = rho_00, P_plus/minus = (rho_11 + rho_22) / 2 +- Re rho_12 and P_G = rho_33, read off raw coordinates.

    Each + 0.0 turns a -0.0 into +0, so no population prints as -0.
    """
    half, coherence = 0.5 * (y[..., _EG] + y[..., _GE]) + 0.0, y[..., _RE_EG_GE]
    return CollectivePopulations(y[..., _EE] + 0.0, half + coherence, half - coherence, y[..., _GG] + 0.0)


def populations(rho) -> tuple[float, float]:
    """Excited-state population of each qubit: floats for one state, arrays for an (N, 4, 4) stack."""
    p1, p2 = _qubit_populations(_checked_coordinates(rho))
    return _per_state(p1), _per_state(p2)


def _x_route(coords: np.ndarray) -> np.ndarray:
    """Concurrence of each X-shaped sample in closed form.

    With rho clipped to its positive part, C = 2 max(0, |rho_12| - sqrt(rho_00 rho_33), |rho_03| - sqrt(rho_11 rho_22))
    (Yu and Eberly, Quantum Inf. Comput. 7, 459 (2007)), read off the coordinates p, q, Re b, Im b of each block.
    """
    p, q, re, im = coords[:, _X_BLOCKS].transpose(1, 0, 2)
    coherence = np.abs(re + 1j * im)  # numpy's complex modulus; np.hypot differs in the last bit
    half, spread = 0.5 * (p + q), np.hypot(0.5 * (p - q), coherence)
    low, high = half - spread, half + spread
    root = np.sqrt(np.maximum(p * q, 0.0))
    clipped = low < 0.0
    if clipped.any():
        # A clipped block is max(high, 0) times the projector (B - low) / (high - low) on its top eigenvector,
        # whose coherence and diagonal root are both max(high, 0) |b| / (high - low).
        edge = np.divide(np.maximum(high, 0.0) * coherence, high - low, out=np.zeros_like(high), where=high > low)
        coherence, root = np.where(clipped, edge, coherence), np.where(clipped, edge, root)
    # Column 1 of coherence is |rho_12| and column 0 of root is sqrt(rho_00 rho_33); + 0.0 turns a -0 into +0.
    return 2.0 * np.maximum(0.0, (coherence - root[:, ::-1]).max(axis=1)) + 0.0


def _factored_route(coords: np.ndarray) -> np.ndarray:
    """`_factored_piece` on min(cores, N // _PIECE) near-equal pieces, cores being the CPUs this process may use: its
    LAPACK calls release the GIL and give a sample the same bits in any batch.  `result` re-raises a worker's error."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    pieces = min(cores, len(coords) // _PIECE)
    if pieces < 2:
        return _factored_piece(coords)
    if not _POOL:
        from concurrent.futures import ThreadPoolExecutor  # here: at import it costs 7.5 ms of start-up
        _POOL.setdefault("threads", ThreadPoolExecutor(cores - 1))  # one pool, whichever caller thread gets here
        if hasattr(os, "register_at_fork"):  # a forked child's copy of the pool has no threads to run its pieces
            os.register_at_fork(after_in_child=_POOL.clear)
    *rest, last = np.array_split(coords, pieces)
    futures = [_POOL["threads"].submit(_factored_piece, piece) for piece in rest]
    last = _factored_piece(last)  # the calling thread takes the last piece while cores - 1 pool threads take the rest
    return np.concatenate([future.result() for future in futures] + [last])


def _factored_piece(coords: np.ndarray) -> np.ndarray:
    """Concurrence of each sample from a factor C with rho = C C' and one svd, for any state.  C is the factor of
    `_cholesky`, the column Cholesky that also checks the samples, unless it does not complete for a sample (a zero
    pivot, say): that sample alone takes C = V diag(sqrt(max(lam, 0))) from eigh."""
    # Any factor serves: C = sqrt(rho) U, U unitary, so C^T F C is sqrt(rho) F conj(sqrt(rho)) up to unitary factors.
    # Its singular values keep the r_i at O(eps); eigenvalues of sqrt(rho) rho_tilde sqrt(rho) lose ~1e-8 near 0.
    factor, completed = _cholesky(coords)
    if not completed.all():
        values, vectors = np.linalg.eigh(_states(coords[~completed]))
        factor[~completed] = vectors * np.sqrt(np.clip(values, 0.0, None))[..., None, :]
    r = np.linalg.svd((np.swapaxes(factor, -1, -2)[..., ::-1] * _FLIP_SIGNS) @ factor, compute_uv=False)
    return np.maximum(0.0, r[..., 0] - r[..., 1] - r[..., 2] - r[..., 3])


def _concurrence(coords: np.ndarray) -> np.ndarray:
    """Concurrence of each sample of (N, 16) raw coordinates of states that passed `_check_samples`.

    X-shaped samples take `_x_route`, the others `_factored_route`; a route that takes every sample (the closed
    form takes an empty stack) reads the coordinates themselves, and only a mixed stack copies its parts.
    """
    x_shaped = ~coords[:, _OFF_X].any(axis=1)
    if x_shaped.all() or not x_shaped.any():
        return (_x_route if x_shaped.all() else _factored_route)(coords)
    values = np.empty(len(coords))
    values[x_shaped], values[~x_shaped] = _x_route(coords[x_shaped]), _factored_route(coords[~x_shaped])
    return values


def concurrence(rho):
    """Entanglement monotone of a two-qubit mixed state, or of each in a stack.

    The descending quartet r_i are the singular values of
    sqrt(rho) sqrt(rho_tilde), with rho_tilde = (sy kron sy) conj(rho)
    (sy kron sy), and the result is max(0, r1 - r2 - r3 - r4): a float
    for one 4x4 state, an array of length N for an (N, 4, 4) stack.
    The state is checked as the populations' is: an eigenvalue below -1e-6 raises NumericalError
    (exit code 3); higher ones clamp to zero.

    The coordinates of the checked state's Hermitian part go to `_concurrence`, as a trajectory table's checked
    coordinates go directly.  X-shaped states (no coherence between {ee, gg} and {eg, ge}), such as undriven runs'
    samples from named states, take the closed form of `_x_route`; the others a Cholesky factor (or, if it fails
    for that state, an eigh factor) and one svd.
    """
    coords = _checked_coordinates(rho)
    return _per_state(_concurrence(coords.reshape(-1, 16)).reshape(coords.shape[:-1]))


def collective_populations(rho) -> CollectivePopulations:
    """Diagonal in the collective basis: floats for one state, arrays for an (N, 4, 4) stack."""
    pops = _collective_populations(_checked_coordinates(rho))
    return CollectivePopulations(*(_per_state(value) for value in vars(pops).values()))


def damping_forces(J, Gamma, phi) -> IsolationReport:
    """Directional damping forces and their imbalance.

    F12 = |1j J + (Gamma/2) exp(1j phi)| measures how strongly qubit 2
    pushes on qubit 1; F21 mirrors it with conjugated coupling and phase.
    delta_F normalizes the difference to [-1, 1] and is defined as 0 when
    both forces vanish.  A force beyond the float range raises
    ValidationError (exit code 2).  The inputs broadcast against each other:
    scalars give a report of floats, arrays a report of arrays of the
    broadcast shape.
    """
    require_finite(J=J, Gamma=Gamma, phi=phi)
    require_non_negative(Gamma=Gamma)
    J, Gamma, phi = np.asarray(J, dtype=complex), np.asarray(Gamma, dtype=float), np.asarray(phi, dtype=float)
    # J and Gamma are scaled together, exactly, by the power of two that brings the larger of |Re J|, |Im J| and
    # Gamma into [0.5, 1): delta_F does not change, no sum overflows and a subnormal input keeps its bits.
    shift = -np.frexp(np.maximum(np.maximum(np.abs(J.real), np.abs(J.imag)), Gamma))[1]
    half_e = 0.5 * np.ldexp(Gamma, shift) * np.exp(1j * phi)
    iJ = 1j * (np.ldexp(J.real, shift) + 1j * np.ldexp(J.imag, shift))
    f12, f21 = np.abs(half_e + iJ), np.abs(half_e - iJ)  # F21 = |i J* + half_e*|, the modulus of its conjugate
    del half_e, iJ  # a sweep's complex grids go before the quotient's temporaries come
    total = f12 + f21
    delta = np.divide(f12 - f21, total, out=np.zeros_like(total), where=total > 0.0)
    with np.errstate(over="ignore"):  # a force beyond the float range is refused just below
        f12, f21 = np.ldexp(f12, -shift), np.ldexp(f21, -shift)
    require_finite(F12=f12, F21=f21)
    if delta.ndim == 0:
        return IsolationReport(F12=float(f12), F21=float(f21), delta_F=float(delta))
    return IsolationReport(F12=f12, F21=f21, delta_F=delta)
