"""Open-system evolution in Liouville space.

Density matrices are vectorized by stacking columns, so vec(A X B) equals
(B.T kron A) vec(X) and the master equation becomes a single dense
generator acting on a length-16 vector.  The model's generator is linear
in seven real rates, so it is their product with a constant basis of
seven generators, assembled once at import.  Both integrators share one core
that fills the stored samples with powers of a stride matrix, built as a
power of the RK4 one-step matrix for production runs or as a scaled-and-
squared exponential that cross-checks it independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NoConvergenceError,
    NotAStateError,
    NotHermitianError,
    ShapeMismatchError,
    StateInvariantViolatedError,
    StepTooLargeError,
)
from .linalg import DEFAULT_TOL, dagger, kron, matrix_exponential
from .model import ModelParams, build_coherent_hamiltonian, build_drive_hamiltonian, require_finite, sigma_minus, sigma_z

# Hard ceiling on dt * ||L||_inf; above this RK4 accuracy degrades fast.
MAX_STEP_NORM = 0.1
# Relative spectral gap, gap / ||L||_2, at or below which the stationary manifold is degenerate.
GAP_EPS = 1e-9
# Per-sample drift tolerances while integrating.
TRACE_DRIFT_TOL = 1e-6
NEGATIVITY_TOL = 1e-6

_DIM = 4

_PLUS = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)
_MINUS = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)

INITIAL_STATE_NAMES = ("EE", "EG", "GE", "GG", "E", "PLUS", "MINUS", "G")


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization of a matrix, or of each matrix of a stack."""
    x = np.asarray(x, dtype=complex)
    return np.swapaxes(x, -1, -2).reshape(*x.shape[:-2], -1)


def unvec(v: np.ndarray, dim: int = _DIM) -> np.ndarray:
    """Inverse of `vec`, over the last axis."""
    v = np.asarray(v, dtype=complex)
    return np.swapaxes(v.reshape(*v.shape[:-1], dim, dim), -1, -2)


def initial_state(name: str) -> np.ndarray:
    """Named initial projector.

    EE/EG/GE/GG are the computational basis states (E also maps to |ee>,
    G to |gg>); PLUS and MINUS are the symmetric and antisymmetric
    single-excitation superpositions.
    """
    key = str(name).strip()
    basis = {"EE": 0, "E": 0, "EG": 1, "GE": 2, "GG": 3, "G": 3}
    if key in basis:
        rho = np.zeros((_DIM, _DIM), dtype=complex)
        rho[basis[key], basis[key]] = 1.0
        return rho
    if key == "PLUS":
        return np.outer(_PLUS, _PLUS.conj())
    if key == "MINUS":
        return np.outer(_MINUS, _MINUS.conj())
    raise ShapeMismatchError(f"unknown initial state {name!r}, expected one of {INITIAL_STATE_NAMES}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, n dt] with an output stride.

    The integrator always steps by dt; `sample_every` only thins what gets
    stored.  The final step is stored regardless of the stride.
    """

    t_max: float
    dt: float
    sample_every: int = 1

    def __post_init__(self):
        require_finite(t_max=self.t_max, dt=self.dt)
        if self.dt <= 0.0:
            raise ShapeMismatchError(f"dt must be > 0, got {self.dt}")
        if self.t_max <= 0.0:
            raise ShapeMismatchError(f"t_max must be > 0, got {self.t_max}")
        if self.dt > self.t_max:
            raise ShapeMismatchError(f"dt {self.dt} exceeds t_max {self.t_max}")
        if int(self.sample_every) < 1:
            raise ShapeMismatchError(f"sample_every must be >= 1, got {self.sample_every}")

    @property
    def n_steps(self) -> int:
        return max(1, int(math.ceil(self.t_max / self.dt - 1e-9)))

    def sample_steps(self) -> np.ndarray:
        steps = np.arange(0, self.n_steps + 1, int(self.sample_every))
        if steps[-1] != self.n_steps:
            steps = np.append(steps, self.n_steps)
        return steps

    def sample_times(self) -> np.ndarray:
        return self.sample_steps() * self.dt


@dataclass(frozen=True)
class Trajectory:
    """Sampled states along one evolution."""

    times: np.ndarray
    states: np.ndarray


@dataclass(frozen=True)
class SteadyStateResult:
    state: np.ndarray
    spectral_gap: float
    unique: bool


def build_liouvillian(
    hamiltonian: np.ndarray,
    jump_operators: list[np.ndarray] | tuple[np.ndarray, ...] = (),
) -> np.ndarray:
    """Assemble the master-equation generator, or a stack of them.

    L = -1j (I kron H - H.T kron I)
        + sum_k [ conj(L_k) kron L_k
                  - (I kron L_k' L_k + (L_k' L_k).T kron I) / 2 ]

    Parameters
    ----------
    hamiltonian : array_like
        (..., n, n), Hermitian within DEFAULT_TOL.
    jump_operators : sequence of array_like
        Collapse operators with rates absorbed into their amplitudes; each
        (..., n, n) and broadcasting against the Hamiltonian.

    Returns
    -------
    ndarray
        (..., n^2, n^2) over the broadcast leading axes.
    """
    h = np.asarray(hamiltonian, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ShapeMismatchError(f"hamiltonian must be square, got {h.shape}")
    defect = float(np.abs(h - dagger(h)).max())
    if defect > DEFAULT_TOL:
        raise NotHermitianError(f"hamiltonian defect {defect:.3e} exceeds {DEFAULT_TOL:.3e}")
    n = h.shape[-1]
    eye = np.eye(n, dtype=complex)
    gen = -1j * (kron(eye, h) - kron(np.swapaxes(h, -1, -2), eye))
    for op in jump_operators:
        op = np.asarray(op, dtype=complex)
        if op.shape[-2:] != (n, n):
            raise ShapeMismatchError(f"jump operator shape {op.shape} does not match {h.shape}")
        square = dagger(op) @ op
        gen = gen + kron(op.conj(), op)
        gen = gen - 0.5 * kron(eye, square)
        gen = gen - 0.5 * kron(np.swapaxes(square, -1, -2), eye)
    return gen


def _model_basis() -> np.ndarray:
    """The generators that the rates of `liouvillian_from_params` multiply, as (7, 512) real rows per drive target.

    D[s1 + e s2] = P + Re(e) Q + Im(e) R, with P and Q half the sum and half
    the difference of D[s1 + s2] and D[s1 - s2], and R = D[s1 + i s2] - P.
    """
    s1, s2, zero = sigma_minus(1), sigma_minus(2), np.zeros((_DIM, _DIM))
    coherent = build_liouvillian(np.stack([build_coherent_hamiltonian(1.0), build_coherent_hamiltonian(1j),
                                           build_drive_hamiltonian(1, 1.0), build_drive_hamiltonian(2, 1.0)]))
    plus, minus, twisted, dephasing = build_liouvillian(np.zeros((4, _DIM, _DIM)), [
        np.stack([s1 + s2, s1 - s2, s1 + 1j * s2, sigma_z(1)]), np.stack([zero, zero, zero, sigma_z(2)])])
    decay = 0.5 * (plus + minus)
    terms = [[coherent[0], coherent[1], drive, decay, 0.5 * (plus - minus), twisted - decay, dephasing]
             for drive in coherent[2:]]
    # Viewed as real pairs, a real rate scales both parts of an entry in one real product.
    return np.array(terms).reshape(2, 7, -1).view(float)


_MODEL_BASIS = _model_basis()  # indexed by drive target - 1


def liouvillian_from_params(params: ModelParams) -> np.ndarray:
    """Generator for the standard model: exchange, collective decay, dephasing, drive.

    It is the product of the rates (Re J, Im J, Omega, Gamma, Gamma cos phi,
    Gamma sin phi, kappa) with the constant basis of `_model_basis`, the
    same generator `build_liouvillian` assembles from the model's operators.
    Array fields in `params` give a (..., 16, 16) stack over their broadcast shape.
    """
    J, Gamma, phi = np.asarray(params.J, dtype=complex), np.asarray(params.Gamma, dtype=float), params.phi
    target, amplitude = (1, 0.0) if params.drive is None else (params.drive.target, params.drive.amplitude)
    # J.real is float, so the stack is float whatever the other fields hold.
    rates = np.stack(np.broadcast_arrays(J.real, J.imag, amplitude, Gamma, Gamma * np.cos(phi), Gamma * np.sin(phi),
                                         params.kappa), axis=-1)
    # einsum, not `@`: OpenBLAS threads the gemm of a large block, and its spinning workers
    # took 8 ms instead of 0.5 ms for 1024 cells beside one busy process on two cores.
    gen = np.einsum("...k,kj->...j", rates, _MODEL_BASIS[target - 1]).view(complex)
    return gen.reshape(rates.shape[:-1] + (_DIM * _DIM, _DIM * _DIM))


def _check_samples(states: np.ndarray, label: str) -> None:
    # Every stored sample at once: one batched eigvalsh over the (N, 4, 4) stack.
    traces = np.abs(np.einsum("kii->k", states) - 1.0)
    if float(traces.max()) > TRACE_DRIFT_TOL:
        k = int(traces.argmax())
        raise StateInvariantViolatedError(
            f"{label}: trace drift {traces[k]:.3e} at sample {k} exceeds {TRACE_DRIFT_TOL:.1e}"
        )
    sym = 0.5 * (states + np.conj(np.transpose(states, (0, 2, 1))))
    lows = np.linalg.eigvalsh(sym)[:, 0]
    if float(lows.min()) < -NEGATIVITY_TOL:
        k = int(lows.argmin())
        raise StateInvariantViolatedError(
            f"{label}: negativity {lows[k]:.3e} at sample {k} exceeds {NEGATIVITY_TOL:.1e}"
        )


def _single_generator(liouvillian: np.ndarray) -> np.ndarray:
    """The generator, refused when it is a stack: the integrators evolve one model at a time."""
    gen = np.asarray(liouvillian)
    if gen.ndim != 2:
        raise ShapeMismatchError(f"integrators take one generator, got a stack of shape {gen.shape}")
    return gen


def _propagate(rho0, gen: np.ndarray, grid: TimeGrid, stride_matrix, label: str) -> Trajectory:
    """Fill the stored samples with powers of `stride_matrix(span)`, column-stacked over `span` steps.

    Uniform spans S fill blocks of m = isqrt(count) samples: S^m steps each block start to the next,
    and one batched product with S^1..S^m fills every block.  A shorter tail takes one more product.
    """
    n = int(round(math.sqrt(gen.shape[0])))
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (n, n):
        raise ShapeMismatchError(f"initial state shape {rho0.shape}, expected {(n, n)}")
    if float(np.abs(rho0 - rho0.conj().T).max()) > 1e-8 or abs(rho0.trace() - 1.0) > 1e-8:
        raise NotAStateError("initial state must be Hermitian with unit trace")
    steps = grid.sample_steps()
    spans = np.diff(steps).tolist()
    count = len(spans) - (spans[-1] != spans[0])
    # Buffer rows hold rho row-major, so they reshape into C-contiguous
    # states without a copy; `perm` permutes each stride matrix to match.
    order = np.arange(n * n).reshape(n, n).T.ravel()
    perm = np.ix_(order, order)
    m = math.isqrt(count)
    powers = np.empty((m, n * n, n * n), dtype=complex)
    powers[0] = stride_matrix(spans[0])[perm]
    for j in range(1, m):
        np.matmul(powers[j - 1], powers[0], out=powers[j])
    starts = np.empty((-(-count // m), n * n), dtype=complex)
    starts[0] = rho0.ravel()
    for b in range(1, len(starts)):
        np.matmul(powers[-1], starts[b - 1], out=starts[b])
    buf = np.empty((len(steps), n * n), dtype=complex)
    buf[0] = starts[0]
    # Entry (j, :, b) is S^(j+1) applied to block start b, which is sample b*m + j + 1.
    buf[1:count + 1] = np.matmul(powers, starts.T).transpose(2, 0, 1).reshape(-1, n * n)[:count]
    if count < len(spans):
        buf[-1] = stride_matrix(spans[-1])[perm] @ buf[count]
    states = buf.reshape(len(steps), n, n)
    _check_samples(states, label)
    return Trajectory(times=grid.sample_times(), states=states)


def evolve_rk4(rho0, liouvillian: np.ndarray, grid: TimeGrid) -> Trajectory:
    """Fixed-step classical Runge-Kutta propagation.

    On a constant generator one step is exactly v <- P v, with P the degree-4
    Taylor polynomial of dt L, so a sample interval of `span` steps applies P^span.

    Parameters
    ----------
    rho0 : array_like
        Initial density matrix.
    liouvillian : ndarray
        One (n^2, n^2) generator; dt * ||L||_inf must stay at or below 0.1.
    grid : TimeGrid
        Step size and sampling stride.

    Returns
    -------
    Trajectory
        Stored samples, each re-validated for trace and positivity drift.
    """
    gen = _single_generator(liouvillian)
    bound = grid.dt * float(np.abs(gen).sum(axis=1).max())
    if not bound <= MAX_STEP_NORM:  # a NaN bound fails here too
        if not math.isfinite(bound):
            raise StepTooLargeError(f"dt * ||L||_inf is {bound}: the generator is not finite")
        raise StepTooLargeError(f"dt * ||L||_inf = {bound:.3e} exceeds {MAX_STEP_NORM}; shrink dt")
    a = grid.dt * gen
    eye = np.eye(len(gen), dtype=complex)
    step = eye + a @ (eye + a @ (eye + a @ (eye + a / 4.0) / 3.0) / 2.0)
    return _propagate(rho0, gen, grid, lambda span: np.linalg.matrix_power(step, span), f"rk4 dt={grid.dt:g}")


def evolve_expm(rho0, liouvillian: np.ndarray, grid: TimeGrid) -> Trajectory:
    """Propagation by the exact exponential map over each sample interval.

    Independent of the Runge-Kutta route; used to cross-check it.
    """
    gen = _single_generator(liouvillian)
    return _propagate(rho0, gen, grid, lambda span: matrix_exponential(gen * (span * grid.dt)),
                      f"expm dt={grid.dt:g}")


def steady_state(liouvillian: np.ndarray) -> SteadyStateResult:
    """Stationary state from the null space of the generator, or of each in a stack.

    The verdict comes from the singular values of L (those of L' L would
    bury small gaps in roundoff): the state is unique when the second-
    smallest exceeds GAP_EPS ||L||_2, a bound free of units.  A unique
    state solves L with its first row replaced by the trace row vec(I)^T
    and right-hand side e_0; trace preservation makes that row redundant,
    so the system is regular exactly when the state is unique.  Only a
    degenerate cell gets a full SVD; it returns one Hermitized, unit-trace
    element of its manifold, the near-null vector of largest |trace|.  One
    (n^2, n^2) generator gives a float gap and a bool; a stack gives arrays
    over its leading axes and (..., n, n) states.
    """
    gen = np.asarray(liouvillian)
    if not np.isfinite(gen).all():
        raise NoConvergenceError("the generator is not finite")
    sing = np.linalg.svd(gen, compute_uv=False)
    # Descending: sing[..., 0] is ||L||_2 and sing[..., -2] the gap.
    gap, bound = sing[..., -2], GAP_EPS * sing[..., 0]
    unique = gap > bound
    size = gen.shape[-1]
    n = int(round(math.sqrt(size)))
    stack, flags = gen.reshape(-1, size, size), unique.reshape(-1)
    rho = np.empty((len(stack), n, n), dtype=complex)
    bordered = stack[flags]
    bordered[:, 0] = vec(np.eye(n))
    rho[flags] = unvec(np.linalg.solve(bordered, np.eye(size, 1))[..., 0], n)
    if not flags.all():
        _, values, vh = np.linalg.svd(stack[~flags])
        # Ascending singular values; candidate i is the right singular vector of values[:, i].
        values, candidates = values[:, ::-1], unvec(vh[:, ::-1].conj(), n)
        # Of the near-null vectors (always at least the first), take the one of largest |trace|.
        near_null = (values <= bound.reshape(-1)[~flags, None]) | (np.arange(size) == 0)
        traces = np.where(near_null, np.abs(np.trace(candidates, axis1=-2, axis2=-1)), -1.0)
        best = candidates[np.arange(len(candidates)), np.argmax(traces, axis=-1)]
        best_trace = np.trace(best, axis1=-2, axis2=-1)[:, None, None]
        if np.any(np.abs(best_trace) < 1e-9):
            raise NotAStateError("null space holds no unit-trace Hermitian element within tolerance")
        # Dividing by the complex trace first removes the arbitrary phase of the singular vector.
        rho[~flags] = best / best_trace
    rho = (0.5 * (rho + dagger(rho))).reshape(gen.shape[:-2] + (n, n))
    residual = np.linalg.norm(gen @ vec(rho)[..., None], axis=(-2, -1))
    # Written so that a NaN residual counts as too large.
    bad = unique & ~(residual <= 1e-8 * np.abs(gen).max(axis=(-2, -1)))
    if np.any(bad):
        raise NoConvergenceError(f"stationary residual {np.max(residual[bad]):.3e} too large")
    if gap.ndim == 0:
        return SteadyStateResult(state=rho, spectral_gap=float(gap), unique=bool(unique))
    return SteadyStateResult(state=rho, spectral_gap=gap, unique=unique)
