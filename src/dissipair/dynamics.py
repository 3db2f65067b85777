"""Open-system evolution as one real 16x16 generator R_ab = Tr(B_a L(B_b)).

B is the orthonormal Hermitian matrix-unit basis E_ii, (E_ij + E_ji)/sqrt2,
i(E_ji - E_ij)/sqrt2 (i < j): a unitary change from vectorized matrices, so R
keeps their singular values, and real since L preserves Hermiticity.  The
model's R is linear in seven real rates: their product with a constant basis
built at import.  Both integrators fill the stored samples with powers of a
real stride matrix on the raw coordinates (rho_ii, Re rho_ij, Im rho_ij), from
the RK4 step or, as an independent cross-check, the exponential, and place
each state exactly, so it is Hermitian by construction.
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
from .linalg import DEFAULT_TOL, dagger, matrix_exponential
from .model import ModelParams, build_coherent_hamiltonian, build_drive_hamiltonian, require_finite, sigma_minus, sigma_z

# Hard ceiling on dt * ||R||_inf; above this RK4 accuracy degrades fast.
MAX_STEP_NORM = 0.1
# Relative spectral gap, gap / ||R||_2, at or below which the stationary manifold is degenerate.
GAP_EPS = 1e-9
# Per-sample drift tolerances while integrating.
TRACE_DRIFT_TOL = 1e-6
NEGATIVITY_TOL = 1e-6

_DIM, _SIZE = 4, 16
_DIAG, (_ROWS, _COLS) = np.arange(_DIM), np.triu_indices(_DIM, 1)
# Orthonormal coordinates Tr(B_a rho) are the raw ones times _SCALE; the trace row is the same in both.
_SCALE = np.repeat([1.0, math.sqrt(2.0), -math.sqrt(2.0)], [4, 6, 6])
_TRACE_ROW = np.repeat([1.0, 0.0], [4, 12])

_PLUS = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)
_MINUS = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)

INITIAL_STATE_NAMES = ("EE", "EG", "GE", "GG", "E", "PLUS", "MINUS", "G")


def _coordinates(rho: np.ndarray) -> np.ndarray:
    """Raw coordinates (rho_ii, Re rho_ij, Im rho_ij for i < j) of a state, or of each in a stack."""
    return np.concatenate([rho[..., _DIAG, _DIAG].real, rho[..., _ROWS, _COLS].real, rho[..., _ROWS, _COLS].imag], -1)


def _states(coords: np.ndarray) -> np.ndarray:
    """Inverse of `_coordinates`: each entry placed exactly, so every state is Hermitian by construction."""
    rho = np.zeros(coords.shape[:-1] + (_DIM, _DIM), dtype=complex)
    rho.real[..., _DIAG, _DIAG] = coords[..., :4]
    rho.real[..., _ROWS, _COLS] = rho.real[..., _COLS, _ROWS] = coords[..., 4:10]
    # 0 - x, not -x: an exact zero stays +0 and prints as 0, not -0.
    rho.imag[..., _ROWS, _COLS], rho.imag[..., _COLS, _ROWS] = coords[..., 10:], 0.0 - coords[..., 10:]
    return rho


_BASIS = _states(np.eye(_SIZE) / _SCALE)  # B_a: orthonormal coordinates e_a
# The generator on raw coordinates y = x / s is R_ab s_b / s_a; the factors on its diagonal are exactly 1.
_SIMILARITY = _SCALE[None, :] / _SCALE[:, None]


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
    """The real master-equation generator R_ab = Tr(B_a L(B_b)), or a stack of them.

    L(B) = -1j [H, B] + sum_k (L_k B L_k' - {L_k' L_k, B} / 2), from a
    (..., 4, 4) Hamiltonian, Hermitian within DEFAULT_TOL, and collapse
    operators with rates absorbed into their amplitudes, each (..., 4, 4);
    all broadcast to the leading axes of the real (..., 16, 16) result.
    """
    h = np.asarray(hamiltonian, dtype=complex)
    if h.shape[-2:] != (_DIM, _DIM):
        raise ShapeMismatchError(f"hamiltonian must be ({_DIM}, {_DIM}) or a stack of them, got {h.shape}")
    defect = float(np.abs(h - dagger(h)).max())
    if defect > DEFAULT_TOL:
        raise NotHermitianError(f"hamiltonian defect {defect:.3e} exceeds {DEFAULT_TOL:.3e}")
    h = h[..., None, :, :]
    images = -1j * (h @ _BASIS - _BASIS @ h)
    for op in jump_operators:
        op = np.asarray(op, dtype=complex)
        if op.shape[-2:] != (_DIM, _DIM):
            raise ShapeMismatchError(f"jump operator shape {op.shape} does not match {h.shape[-2:]}")
        op = op[..., None, :, :]
        square = dagger(op) @ op
        images = images + op @ _BASIS @ dagger(op) - 0.5 * (square @ _BASIS + _BASIS @ square)
    # Tr(B_a X) = sum_ij (B_a)_ji X_ij, real up to roundoff for a Hermitian H.
    return np.einsum("aji,...bij->...ab", _BASIS, images).real


def _model_basis() -> np.ndarray:
    """The generators that the rates of `liouvillian_from_params` multiply, as (7, 256) rows per drive target.

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
    return np.array(terms).reshape(2, 7, -1)


_MODEL_BASIS = _model_basis()  # indexed by drive target - 1


def liouvillian_from_params(params: ModelParams) -> np.ndarray:
    """Generator for the standard model: exchange, collective decay, dephasing, drive.

    It is the product of the rates (Re J, Im J, Omega, Gamma, Gamma cos phi,
    Gamma sin phi, kappa) with the constant basis of `_model_basis`, the
    same generator `build_liouvillian` assembles from the model's operators.
    Array fields in `params` give a real (..., 16, 16) stack over their broadcast shape.
    """
    J, Gamma, phi = np.asarray(params.J, dtype=complex), np.asarray(params.Gamma, dtype=float), params.phi
    target, amplitude = (1, 0.0) if params.drive is None else (params.drive.target, params.drive.amplitude)
    # J.real is float, so the stack is float whatever the other fields hold.
    rates = np.stack(np.broadcast_arrays(J.real, J.imag, amplitude, Gamma, Gamma * np.cos(phi), Gamma * np.sin(phi),
                                         params.kappa), axis=-1)
    # einsum, not `@`: OpenBLAS threads the gemm of a large block, and its spinning workers
    # took 8 ms instead of 0.5 ms for 1024 cells beside one busy process on two cores.
    gen = np.einsum("...k,kj->...j", rates, _MODEL_BASIS[target - 1])
    return gen.reshape(rates.shape[:-1] + (_SIZE, _SIZE))


def _check_samples(states: np.ndarray, label: str) -> None:
    # Hermitian by construction: the traces are real, and one batched Cholesky of
    # rho + tol I passes exactly when no eigenvalue lies below -tol.
    traces = np.abs(np.einsum("kii->k", states.real) - 1.0)
    if float(traces.max()) > TRACE_DRIFT_TOL:
        k = int(traces.argmax())
        message = f"{label}: trace drift {traces[k]:.3e} at sample {k} exceeds {TRACE_DRIFT_TOL:.1e}"
        raise StateInvariantViolatedError(message)
    try:
        np.linalg.cholesky(states + NEGATIVITY_TOL * np.eye(_DIM))
    except np.linalg.LinAlgError:  # only now name the sample: eigvalsh costs several Choleskys
        lows = np.linalg.eigvalsh(states)[:, 0]
        if float(lows.min()) < -NEGATIVITY_TOL:
            k = int(lows.argmin())
            message = f"{label}: negativity {lows[k]:.3e} at sample {k} exceeds {NEGATIVITY_TOL:.1e}"
            raise StateInvariantViolatedError(message) from None


def _real_generator(liouvillian) -> np.ndarray:
    """The generator as a real array; any non-zero imaginary part raises NotHermitianError (exit code 3)."""
    gen = np.asarray(liouvillian)
    if np.iscomplexobj(gen) and np.any(gen.imag != 0.0):
        raise NotHermitianError("the generator has an imaginary part: it does not preserve Hermiticity")
    return gen.real.astype(float, copy=False)


def _single_generator(liouvillian) -> np.ndarray:
    """The real generator, refused unless it is one (16, 16) matrix: the integrators evolve one model at a time."""
    gen = _real_generator(liouvillian)
    if gen.shape != (_SIZE, _SIZE):
        stack = "a stack of " if gen.ndim > 2 else ""
        raise ShapeMismatchError(f"integrators take one ({_SIZE}, {_SIZE}) generator, got {stack}shape {gen.shape}")
    return gen


def _propagate(rho0, grid: TimeGrid, stride_matrix, label: str) -> Trajectory:
    """Fill the stored samples with powers of `stride_matrix(span)`, the map of raw coordinates over `span` steps.

    Uniform spans S fill blocks of m = isqrt(count) samples: S^m steps each block start to the next,
    and one batched product with S^1..S^m fills every block.  A shorter tail takes one more product.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (_DIM, _DIM):
        raise ShapeMismatchError(f"initial state shape {rho0.shape}, expected {(_DIM, _DIM)}")
    if float(np.abs(rho0 - rho0.conj().T).max()) > 1e-8 or abs(rho0.trace() - 1.0) > 1e-8:
        raise NotAStateError("initial state must be Hermitian with unit trace")
    steps = grid.sample_steps()
    spans = np.diff(steps).tolist()
    count = len(spans) - (spans[-1] != spans[0])
    m = math.isqrt(count)
    powers = np.empty((m, _SIZE, _SIZE))
    powers[0] = stride_matrix(spans[0])
    for j in range(1, m):
        np.matmul(powers[j - 1], powers[0], out=powers[j])
    starts = np.empty((-(-count // m), _SIZE))
    starts[0] = _coordinates(rho0)
    for b in range(1, len(starts)):
        np.matmul(powers[-1], starts[b - 1], out=starts[b])
    coords = np.empty((len(steps), _SIZE))
    coords[0] = starts[0]
    # Entry (j, :, b) is S^(j+1) applied to block start b, which is sample b*m + j + 1.
    coords[1:count + 1] = np.matmul(powers, starts.T).transpose(2, 0, 1).reshape(-1, _SIZE)[:count]
    if count < len(spans):
        coords[-1] = stride_matrix(spans[-1]) @ coords[count]
    states = _states(coords)
    del coords  # freed before the check allocates two more stacks the size of `states`
    _check_samples(states, label)
    return Trajectory(times=grid.sample_times(), states=states)


def evolve_rk4(rho0, liouvillian: np.ndarray, grid: TimeGrid) -> Trajectory:
    """Fixed-step classical Runge-Kutta propagation.

    On a constant generator one step is exactly v <- P v, with P the degree-4
    Taylor polynomial of dt R, so a sample interval of `span` steps applies P^span.
    `liouvillian` is one real (16, 16) generator with dt * ||R||_inf <= 0.1; each
    stored sample, Hermitian by construction, is re-validated for trace and positivity.
    """
    gen = _single_generator(liouvillian)
    bound = grid.dt * float(np.abs(gen).sum(axis=1).max())
    if not bound <= MAX_STEP_NORM:  # a NaN bound fails here too
        if not math.isfinite(bound):
            raise StepTooLargeError(f"dt * ||R||_inf is {bound}: the generator is not finite")
        raise StepTooLargeError(f"dt * ||R||_inf = {bound:.3e} exceeds {MAX_STEP_NORM}; shrink dt")
    a = grid.dt * gen * _SIMILARITY
    eye = np.eye(_SIZE)
    step = eye + a @ (eye + a @ (eye + a @ (eye + a / 4.0) / 3.0) / 2.0)
    return _propagate(rho0, grid, lambda span: np.linalg.matrix_power(step, span), f"rk4 dt={grid.dt:g}")


def evolve_expm(rho0, liouvillian: np.ndarray, grid: TimeGrid) -> Trajectory:
    """Propagation by the exact exponential map over each sample interval, an independent cross-check of RK4."""
    gen = _single_generator(liouvillian) * _SIMILARITY
    return _propagate(rho0, grid, lambda span: matrix_exponential(gen * (span * grid.dt)), f"expm dt={grid.dt:g}")


def steady_state(liouvillian: np.ndarray) -> SteadyStateResult:
    """Stationary state from the null space of the real generator, or of each in a stack.

    The verdict comes from the singular values of R (those of R' R would bury
    small gaps in roundoff): the state is unique when the second-smallest
    exceeds GAP_EPS ||R||_2, a bound free of units.  A unique state solves R
    with its first row, redundant under trace preservation, replaced by the
    trace row (ones on the diagonal coordinates) and right-hand side e_0.  Only
    a degenerate cell gets a full SVD, for its near-null vector of largest
    |trace|.  One (16, 16) generator gives a float gap and a bool; a stack
    gives arrays over its leading axes and (..., 4, 4) states.
    """
    gen = _real_generator(liouvillian)
    if not np.isfinite(gen).all():
        raise NoConvergenceError("the generator is not finite")
    sing = np.linalg.svd(gen, compute_uv=False)
    # Descending: sing[..., 0] is ||R||_2 and sing[..., -2] the gap.
    gap, bound = sing[..., -2], GAP_EPS * sing[..., 0]
    unique = gap > bound
    stack, flags = gen.reshape(-1, _SIZE, _SIZE), unique.reshape(-1)
    coords = np.empty((len(stack), _SIZE))
    bordered = stack[flags]
    bordered[:, 0] = _TRACE_ROW
    coords[flags] = np.linalg.solve(bordered, np.eye(_SIZE, 1))[..., 0]
    if not flags.all():
        _, values, vh = np.linalg.svd(stack[~flags])
        # Ascending singular values; candidate i is the right singular vector of values[:, i].
        values, candidates = values[:, ::-1], vh[:, ::-1]
        # Of the near-null vectors (always at least the first), take the one of largest |trace|.
        near_null = (values <= bound.reshape(-1)[~flags, None]) | (np.arange(_SIZE) == 0)
        traces = candidates @ _TRACE_ROW
        cells = np.arange(len(candidates))
        best = np.argmax(np.where(near_null, np.abs(traces), -1.0), axis=-1)
        if np.any(np.abs(traces[cells, best]) < 1e-9):
            raise NotAStateError("null space holds no unit-trace Hermitian element within tolerance")
        coords[~flags] = candidates[cells, best] / traces[cells, best, None]
    residual = np.linalg.norm((stack @ coords[..., None])[..., 0], axis=-1).reshape(unique.shape)
    # Written so that a NaN residual counts as too large.
    bad = unique & ~(residual <= 1e-8 * np.abs(gen).max(axis=(-2, -1)))
    if np.any(bad):
        raise NoConvergenceError(f"stationary residual {np.max(residual[bad]):.3e} too large")
    rho = _states(coords / _SCALE).reshape(gen.shape[:-2] + (_DIM, _DIM))
    if gap.ndim == 0:
        return SteadyStateResult(state=rho, spectral_gap=float(gap), unique=bool(unique))
    return SteadyStateResult(state=rho, spectral_gap=gap, unique=unique)
