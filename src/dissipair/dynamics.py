"""Open-system evolution as one real 16x16 generator R_ab = Tr(B_a L(B_b)).

B is the orthonormal Hermitian matrix-unit basis E_ii, (E_ij + E_ji)/sqrt2,
i(E_ji - E_ij)/sqrt2 (i < j): a unitary change from vectorized matrices, so R
keeps their singular values, and real since L preserves Hermiticity.  The
model's R is linear in eight real rates: their product with a constant basis
built at import.  The RK4 integrator fills the stored samples with powers of
its real step matrix on the raw coordinates (rho_ii, Re rho_ij, Im rho_ij) and
hands them on in row blocks, a table's runs as one stack, checked in closed
form where a sample is X-shaped and by one Cholesky over the batch elsewhere,
whose factors the concurrence reads.  A state is built from its coordinates by
placing each entry exactly, so it is Hermitian by construction.
"""

from __future__ import annotations

import contextlib
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .model import ModelParams, require_finite

# Hard ceiling on dt * ||R||_inf; above this RK4 accuracy degrades fast.
MAX_STEP_NORM = 0.1
# Relative spectral gap, gap / ||R||_2, at or below which the stationary manifold is degenerate.
GAP_EPS = 1e-9
# Largest entry below which `_steady_coordinates` scales a generator up by a power of two.
_TINY_SCALE = 2.0 ** -600
# Per-sample drift tolerances while integrating.
TRACE_DRIFT_TOL = 1e-6
NEGATIVITY_TOL = 1e-6
MAX_SAMPLES = 10**9  # samples a TimeGrid may store: 1e5 times the largest table of tests and tools, 10 002 rows
MAX_STEPS = 2**62  # steps a TimeGrid may take: a sample's index times the stride (at most n_steps) fits in int64
# Samples per checked row block of a run: a block spans max(2, _RUN_BLOCK_ROWS // m) block starts of m samples.
_RUN_BLOCK_ROWS = 4096

_DIM, _SIZE = 4, 16
_DIAG, (_ROWS, _COLS) = np.arange(_DIM), np.triu_indices(_DIM, 1)
# Orthonormal coordinates Tr(B_a rho) are the raw ones times _SCALE; the trace row is the same in both.
_SCALE = np.repeat([1.0, math.sqrt(2.0), -math.sqrt(2.0)], [4, 6, 6])
_TRACE_ROW = np.repeat([1.0, 0.0], [4, 12])

# The state vector of each named initial state, in |ee>, |eg>, |ge>, |gg>; `initial_state` returns its projector.
_KETS, _ROOT2 = np.eye(_DIM, dtype=complex), math.sqrt(2.0)
_INITIAL_VECTORS = {"EE": _KETS[0], "EG": _KETS[1], "GE": _KETS[2], "GG": _KETS[3], "E": _KETS[0],
                    "PLUS": (_KETS[1] + _KETS[2]) / _ROOT2, "MINUS": (_KETS[1] - _KETS[2]) / _ROOT2, "G": _KETS[3]}
INITIAL_STATE_NAMES = tuple(_INITIAL_VECTORS)


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


def _position(i: int, j: int, imag: bool = False) -> int:
    """Where `_coordinates` puts rho_ii (i == j), Re rho_ij (i < j) or, with `imag`, Im rho_ij, read off the map."""
    unit = np.zeros((_DIM, _DIM), dtype=complex)
    unit[i, j], unit[j, i] = (1j, -1j) if imag else (1.0, 1.0)
    return int(np.flatnonzero(_coordinates(unit))[0])


# Rows p, q, Re b, Im b of the blocks [[p, b], [b*, q]] over {ee, gg} and {eg, ge} (columns) of an X-shaped state,
# and the eight coordinates of the coherences between the blocks: a state is X-shaped exactly when those are zero.
_X_BLOCKS = np.array([[_position(i, i), _position(j, j), _position(i, j), _position(i, j, True)]
                      for i, j in ((0, 3), (1, 2))]).T
_OFF_X = np.array([_position(i, j, imag) for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)) for imag in (False, True)])
_BASIS = _states(np.eye(_SIZE) / _SCALE)  # B_a: orthonormal coordinates e_a
# The generator on raw coordinates y = x / s is R_ab s_b / s_a; the factors on its diagonal are exactly 1.
_SIMILARITY = _SCALE[None, :] / _SCALE[:, None]


def initial_state(name: str) -> np.ndarray:
    """Named initial projector.

    EE/EG/GE/GG are the computational basis states (E also maps to |ee>,
    G to |gg>); PLUS and MINUS are the symmetric and antisymmetric
    single-excitation superpositions.
    """
    vector = _INITIAL_VECTORS.get(str(name).strip())
    if vector is None:
        raise ValidationError(f"unknown initial state {name!r}, expected one of {INITIAL_STATE_NAMES}")
    return np.outer(vector, vector.conj()) + 0.0  # + 0.0 turns MINUS's -0 imaginary parts into +0


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, t_max] in steps of dt, with an output stride.

    t_max must be a whole number of steps, within a relative 1e-9, so the last sample lands on it.  The integrator
    always steps by dt; `sample_every` only thins what gets stored.  The final step is stored regardless of the
    stride, and at most MAX_SAMPLES (1e9) samples are, of at most MAX_STEPS (2**62) steps.  Every rule raises
    ValidationError (exit code 2), before anything is allocated.
    """

    t_max: float
    dt: float
    sample_every: int = 1

    def __post_init__(self):
        require_finite(t_max=self.t_max, dt=self.dt)
        if self.dt <= 0.0:
            raise ValidationError(f"dt must be > 0, got {self.dt}")
        if self.t_max <= 0.0:
            raise ValidationError(f"t_max must be > 0, got {self.t_max}")
        steps = self.t_max / self.dt  # inf when the division overflows
        if not (math.isfinite(steps) and abs(steps - round(steps)) <= 1e-9 * round(steps)):
            raise ValidationError(f"t_max must be a whole multiple of dt, got t_max {self.t_max}, dt {self.dt}")
        if isinstance(self.sample_every, bool) or not isinstance(self.sample_every, (int, np.integer)):
            raise ValidationError(f"sample_every must be an integer, got {self.sample_every!r}")
        if self.sample_every < 1:
            raise ValidationError(f"sample_every must be >= 1, got {self.sample_every}")
        if self.n_samples > MAX_SAMPLES:
            raise ValidationError(f"t_max {self.t_max}, dt {self.dt} and sample_every {self.sample_every} would store "
                                  f"{self.n_samples:.15g} samples, above the ceiling of {MAX_SAMPLES}")
        if self.n_steps > MAX_STEPS:
            raise ValidationError(f"t_max {self.t_max} and dt {self.dt} make {self.n_steps:.15g} steps, above the "
                                  f"ceiling of {MAX_STEPS}")

    @property
    def n_steps(self) -> int:
        return round(self.t_max / self.dt)

    @property
    def n_samples(self) -> int:
        return -(-self.n_steps // self.sample_every) + 1

    @property
    def stride(self) -> int:
        """Steps between stored samples but the last: sample_every, or n_steps if that is fewer."""
        return min(self.sample_every, self.n_steps)

    def sample_steps(self, first: int = 0, stop: int | None = None) -> np.ndarray:
        """Steps of the stored samples first..stop-1, all of them by default."""
        stop = self.n_samples if stop is None else stop
        return np.minimum(np.arange(first, stop) * self.stride, self.n_steps)

    def sample_times(self, first: int = 0, stop: int | None = None) -> np.ndarray:
        return self.sample_steps(first, stop) * self.dt


@dataclass(frozen=True)
class Trajectory:
    """Sampled states along one evolution, kept as their (N, 16) raw coordinates (rho_ii, Re rho_ij, Im rho_ij)."""

    times: np.ndarray
    coords: np.ndarray

    @property
    def states(self) -> np.ndarray:
        """The (N, 4, 4) stack of states, built from `coords` on each access."""
        return _states(self.coords)


@dataclass(frozen=True)
class SteadyStateResult:
    """Stationary state and its uniqueness verdict.

    `spectral_gap` is the second-smallest singular value of the generator R,
    the quantity the verdict compares with GAP_EPS ||R||_2.  It is not the
    relaxation rate -Re lambda_1 of the slowest decaying eigenmode: R is not
    normal, and with the 8/11 drive on qubit 1 at phi = 3 pi/2 the two are
    0.515 and 0.859.
    """

    state: np.ndarray
    spectral_gap: float
    unique: bool


def build_liouvillian(
    hamiltonian: np.ndarray,
    jump_operators: list[np.ndarray] | tuple[np.ndarray, ...] = (),
) -> np.ndarray:
    """The real master-equation generator R_ab = Tr(B_a L(B_b)), or a stack of them.

    L(B) = -1j [H, B] + sum_k (L_k B L_k' - {L_k' L_k, B} / 2), from a
    (..., 4, 4) Hamiltonian, Hermitian within 1e-10, and collapse
    operators with rates absorbed into their amplitudes, each (..., 4, 4);
    all broadcast to the leading axes of the real (..., 16, 16) result.
    """
    h = np.asarray(hamiltonian, dtype=complex)
    if h.shape[-2:] != (_DIM, _DIM):
        raise ValidationError(f"hamiltonian must be ({_DIM}, {_DIM}) or a stack of them, got {h.shape}")
    tol = 1e-10
    defect = float(np.abs(h - h.conj().swapaxes(-1, -2)).max())
    if defect > tol:
        raise NumericalError(f"hamiltonian defect {defect:.3e} exceeds {tol:.3e}")
    h = h[..., None, :, :]
    images = -1j * (h @ _BASIS - _BASIS @ h)
    for op in jump_operators:
        op = np.asarray(op, dtype=complex)
        if op.shape[-2:] != (_DIM, _DIM):
            raise ValidationError(f"jump operator shape {op.shape} does not match {h.shape[-2:]}")
        op = op[..., None, :, :]
        op_dagger = op.conj().swapaxes(-1, -2)
        square = op_dagger @ op
        images = images + op @ _BASIS @ op_dagger - 0.5 * (square @ _BASIS + _BASIS @ square)
    # Tr(B_a X) = sum_ij (B_a)_ji X_ij, real up to roundoff for a Hermitian H.
    return np.einsum("aji,...bij->...ab", _BASIS, images).real


def _model_basis() -> np.ndarray:
    """The (8, 256) generators that the rates of `liouvillian_from_params` multiply, one row per rate.

    D[s1 + e s2] = P + Re(e) Q + Im(e) R, with P and Q half the sum and half
    the difference of D[s1 + s2] and D[s1 - s2], and R = D[s1 + i s2] - P.
    """
    # In |ee>, |eg>, |ge>, |gg>: s1 takes |ee> to |ge> and |eg> to |gg>, s2 takes |ee> to |eg> and |ge> to |gg>,
    # the exchange s1+ s2- takes |ge> to |eg>, and sz1, sz2 are +1 where their qubit is excited.
    s1, s2, hop = np.eye(_DIM, k=-2), np.diag([1.0, 0.0, 1.0], -1), np.diag([0.0, 1.0, 0.0], 1)
    sz1, sz2, zero = np.diag([1.0, 1.0, -1.0, -1.0]), np.diag([1.0, -1.0, 1.0, -1.0]), np.zeros((_DIM, _DIM))
    coherent = build_liouvillian(np.stack([hop + hop.T, 1j * (hop - hop.T), s1 + s1.T, s2 + s2.T]))
    plus, minus, twisted, dephasing = build_liouvillian(np.zeros((4, _DIM, _DIM)), [
        np.stack([s1 + s2, s1 - s2, s1 + 1j * s2, sz1]), np.stack([zero, zero, zero, sz2])])
    decay = 0.5 * (plus + minus)
    return np.array([*coherent, decay, 0.5 * (plus - minus), twisted - decay, dephasing]).reshape(8, -1)


_MODEL_BASIS = _model_basis()


def liouvillian_from_params(params: ModelParams) -> np.ndarray:
    """Generator for the standard model: exchange, collective decay, dephasing, drive.

    It is the product of the rates (Re J, Im J, Omega_1, Omega_2, Gamma, Gamma cos phi, Gamma sin phi, kappa),
    Omega_k the drive amplitude on qubit k, with the constant basis of `_model_basis`, the same generator
    `build_liouvillian` assembles from the model's operators.  Array fields in `params` give a real (..., 16, 16)
    stack over their broadcast shape.
    """
    J, Gamma, phi = np.asarray(params.J, dtype=complex), np.asarray(params.Gamma, dtype=float), params.phi
    target, amplitude = (1, 0.0) if params.drive is None else (params.drive.target, params.drive.amplitude)
    drives = (amplitude, 0.0) if target == 1 else (0.0, amplitude)
    # J.real is float, so the stack is float whatever the other fields hold.
    rates = np.stack(np.broadcast_arrays(J.real, J.imag, *drives, Gamma, Gamma * np.cos(phi), Gamma * np.sin(phi),
                                         params.kappa), axis=-1)
    # einsum, not `@`: OpenBLAS threads the gemm of a large block, and its spinning workers
    # took 8 ms instead of 0.5 ms for 1024 cells beside one busy process on two cores.
    gen = np.einsum("...k,kj->...j", rates, _MODEL_BASIS)
    return gen.reshape(rates.shape[:-1] + (_SIZE, _SIZE))


def _cholesky(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unpivoted Cholesky factor C, C C' = rho, of each state of (N, 16) coordinates, built one column a step over
    the batch, and whether it completed (pivots > 0, entries finite): a failing sample spoils only its own factor."""
    rest = _states(coords).transpose(1, 2, 0).copy()  # (4, 4, N): each entry's samples lie side by side
    factor, completed = np.zeros_like(rest), np.ones(len(coords), dtype=bool)
    with np.errstate(all="ignore"):  # a failing sample's inf and NaN are flagged just below
        for k in range(_DIM):
            pivot = rest[k, k].real  # the imaginary part of the diagonal is roundoff of the updates below
            completed &= pivot > 0.0
            factor[k, k] = root = np.sqrt(pivot)
            factor[k + 1:, k] = column = rest[k + 1:, k] / root
            rest[k + 1:, k + 1:] -= column[:, None] * column[None, :].conj()
    factor = factor.transpose(2, 0, 1)
    return factor, completed & np.isfinite(factor).all(axis=(1, 2))


def _check_samples(coords: np.ndarray, label: str, first: int = 0) -> tuple[np.ndarray, np.ndarray | None]:
    """Refuse a trace drift, a non-finite coordinate or an eigenvalue beyond tolerance in the (N, 16) coordinates
    of samples first, ...: the check of every trajectory block, sweep steady state and public observable's state.

    The trace is the sum of the four diagonal coordinates.  No eigenvalue lies below -tol exactly when, for an
    X-shaped sample, each block [[p, b], [b*, q]] has p + tol >= 0, q + tol >= 0 and (p + tol)(q + tol) >= |b|^2;
    any other passes when its `_cholesky` completes (positive pivots prove rho > 0), else when `eigh`'s lam >= -tol,
    its factor then C = V diag(sqrt(max(lam, 0))).  Each verdict is final, and eigvalsh only names a refused block's
    lowest sample.  Returns the X mask and the others' factors C (C C' = rho), or None when there are none.
    """
    traces = np.abs(coords[:, :4].sum(axis=1) - 1.0)
    # Both comparisons are written so that a NaN fails them too; argmax and argmin name the first NaN.
    if not float(traces.max(initial=0.0)) <= TRACE_DRIFT_TOL:  # an empty block passes
        k = int(traces.argmax())
        message = f"{label}: trace drift {traces[k]:.3e} at sample {first + k} exceeds {TRACE_DRIFT_TOL:.1e}"
        raise NumericalError(message)
    # Off the diagonal a NaN or inf leaves the trace alone, and eigvalsh would not name its sample.
    if not np.isfinite(coords).all():  # one test of the whole block; only a failing one is read row by row
        k = int(np.isfinite(coords).all(axis=1).argmin())
        raise NumericalError(f"{label}: coordinates not finite at sample {first + k}")
    x_shaped, passed, factor = ~coords[:, _OFF_X].any(axis=1), True, None
    rest = coords[~x_shaped] if x_shaped.any() else coords  # a block with no X-shaped sample is factored without a copy
    if x_shaped.any():
        p, q, re, im = (coords if x_shaped.all() else coords[x_shaped])[:, _X_BLOCKS].transpose(1, 0, 2)
        p, q = p + NEGATIVITY_TOL, q + NEGATIVITY_TOL
        passed = bool(np.all((p >= 0.0) & (q >= 0.0) & (p * q >= re * re + im * im)))
    if passed and len(rest):  # an empty factor would still cost tens of µs
        factor, completed = _cholesky(rest)
        if not completed.all():
            values, vectors = np.linalg.eigh(_states(rest[~completed]))
            factor[~completed] = vectors * np.sqrt(np.clip(values, 0.0, None))[..., None, :]
            passed = bool(values[:, 0].min() >= -NEGATIVITY_TOL)
    if not passed:  # only now name the sample: eigvalsh costs several factors
        lows = np.linalg.eigvalsh(_states(coords))[:, 0]
        k = int(lows.argmin())
        message = f"{label}: negativity {lows[k]:.3e} at sample {first + k} exceeds {NEGATIVITY_TOL:.1e}"
        raise NumericalError(message)
    return x_shaped, factor


def _real_generator(liouvillian) -> np.ndarray:
    """The generator as a real array; any non-zero imaginary part raises NumericalError (exit code 3)."""
    gen = np.asarray(liouvillian)
    if np.iscomplexobj(gen) and np.any(gen.imag != 0.0):
        raise NumericalError("the generator has an imaginary part: it does not preserve Hermiticity")
    return gen.real.astype(float, copy=False)


def _rk4_blocks(rho0: np.ndarray, liouvillian: np.ndarray, grid: TimeGrid, read) -> Iterator[tuple[np.ndarray, list]]:
    """Row blocks of k runs on one grid from (k, 4, 4) initial states and real (k, 16, 16) generators: each block's
    times and, run by run, `read(coords, checked)` of that run's (N, 16) rows and their `_check_samples` result; a
    message names a sample by its index in its run.  The first request checks the step bound, then rho0.

    Each run's samples are powers of its stride matrix S = step^stride, the map of raw coordinates over the grid's
    `stride` steps between samples.  Its powers fill blocks of m = isqrt(count) samples: S^m steps each block start
    to the next, and a product of S^1..S^m with max(2, _RUN_BLOCK_ROWS // m) block starts fills each row block, so a
    run holds O(sqrt(count)) coordinates at once and a run of at most 4 096 uniform samples is one block.  A shorter
    tail takes one more product.  Sample b m + j + 1 is always S^(j+1) applied to block start b.  The powers and the
    starts are batched over the runs; a block's product, rows, check and read are made one run at a time, so only one
    run's exist at once, and `np.matmul` gives every run the bits of its product alone.
    """
    with np.errstate(over="ignore"):  # a row sum beyond the float range is refused as not finite just below
        bound = grid.dt * float(np.abs(liouvillian).sum(axis=-1).max())  # the largest run's, or NaN
    if not bound <= MAX_STEP_NORM:  # a NaN bound fails here too
        if not math.isfinite(bound):
            raise NumericalError(f"dt * ||R||_inf is {bound}: the generator is not finite")
        raise NumericalError(f"dt * ||R||_inf = {bound:.3e} exceeds {MAX_STEP_NORM}; shrink dt")
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape[1:] != (_DIM, _DIM):
        raise ValidationError(f"initial state shape {rho0.shape[1:]}, expected {(_DIM, _DIM)}")
    if not np.isfinite(rho0).all():  # before any arithmetic, which would warn on inf - inf
        raise NumericalError("initial state is not finite")
    if max(np.abs(rho0 - rho0.conj().swapaxes(1, 2)).max(), np.abs(rho0.trace(0, 1, 2) - 1.0).max()) > 1e-8:
        raise NumericalError("initial state must be Hermitian with unit trace")
    a = grid.dt * liouvillian * _SIMILARITY
    eye = np.eye(_SIZE)
    step = eye + a @ (eye + a @ (eye + a @ (eye + a / 4.0) / 3.0) / 2.0)
    label, runs = f"rk4 dt={grid.dt:g}", len(rho0)
    count, tail = divmod(grid.n_steps, grid.stride)
    m = math.isqrt(count)
    powers = np.empty((runs, m, _SIZE, _SIZE))
    powers[:, 0] = np.linalg.matrix_power(step, grid.stride)
    for j in range(1, m):
        np.matmul(powers[:, j - 1], powers[:, 0], out=powers[:, j])
    # Column vectors, so that each link of the chain is one matrix-vector product a run.
    starts = np.empty((runs, -(-count // m), _SIZE, 1))
    starts[:, 0, :, 0] = _coordinates(rho0)
    for b in range(1, starts.shape[1]):
        np.matmul(powers[:, -1], starts[:, b - 1], out=starts[:, b])
    # A product over one block start would take BLAS's matrix-vector kernel, whose last digits differ from the matrix
    # kernel's, so every product spans two starts or more and a last lone start is multiplied beside the one before.
    width = max(2, _RUN_BLOCK_ROWS // m)
    for g in range(0, starts.shape[1], width):
        lo, lead = max(min(g, starts.shape[1] - 2), 0), int(g == 0)  # the first block's rows begin with sample 0
        first = g * m + 1 - lead
        end = lead + min(width * m, count - g * m)  # rows up to the last uniform sample of the block
        stop = end + int(tail > 0 and (g + width) * m >= count)  # and the tail's, in the last block

        def read_run(r):
            # Row lead + b m + j is entry (j, :, b) of the product: run r's S^(j+1) applied to its start g + b.
            rows = np.empty((lead + m * min(width, starts.shape[1] - g) + 1, _SIZE))  # room for the tail
            rows[lead:-1].reshape(-1, m, _SIZE)[...] = np.matmul(
                powers[r], starts[r, None, lo:g + width, :, 0].swapaxes(-1, -2))[..., g - lo:].transpose(2, 0, 1)
            rows[:lead] = starts[r, :lead, :, 0]
            if stop > end:
                rows[end] = np.matmul(np.linalg.matrix_power(step[r], tail), rows[end - 1, :, None])[:, 0]
            return read(rows[:stop], _check_samples(rows[:stop], label, first))

        yield grid.sample_times(first, first + stop), list(map(read_run, range(runs)))


def evolve_rk4(rho0, liouvillian: np.ndarray, grid: TimeGrid) -> Trajectory:
    """Fixed-step classical Runge-Kutta propagation: the one run of `_rk4_blocks`, its row blocks joined.

    On a constant generator one step is exactly v <- P v, with P the degree-4 Taylor polynomial of dt R, so a sample
    interval of `span` steps applies P^span.  `liouvillian` is one real (16, 16) generator with dt * ||R||_inf <= 0.1;
    each stored sample, Hermitian by construction, is re-validated for trace and positivity.  A run of one row block,
    every preset's among them, is returned without a copy.

    The step guard reads ||R||_inf of the generator as given, in the orthonormal
    basis.  That norm depends on the basis: on the model's generators
    ||R||_inf / ||L||_inf is 0.92-1.34, with L the column-stacked superoperator.
    dt ||R||_2 would be the basis-free bound, since ||R||_2 = ||L||_2 (the basis
    change is unitary), at one values-only 16x16 SVD per run; the guard keeps the
    row-sum norm, which differs from it by a bounded factor and costs one pass.
    """
    gen = _real_generator(liouvillian)
    if gen.shape != (_SIZE, _SIZE):
        stack = "a stack of " if gen.ndim > 2 else ""
        raise ValidationError(f"the integrator takes one ({_SIZE}, {_SIZE}) generator, got {stack}shape {gen.shape}")
    blocks = [(times, coords) for times, (coords,) in
              _rk4_blocks(np.asarray(rho0)[None], gen[None], grid, lambda coords, _: coords)]
    times, coords = blocks[0] if len(blocks) == 1 else map(np.concatenate, zip(*blocks))
    return Trajectory(times=times, coords=coords)


def _certified(unit: np.ndarray) -> np.ndarray:
    """Cells certified unique: 1 / (4 ||B^-1||_1) > 32 GAP_EPS, with `unit` U = R / max |R_ij| and B = U but for row
    0, the trace row.  sigma_16(B) <= sigma_15(U) for a rank-one B - U (Horn and Johnson, Topics in Matrix Analysis,
    Thm 3.3.16), ||B^-1||_2 <= 4 ||B^-1||_1 and ||U||_2 <= ||U||_F <= 16, free of R's units; 2 covers the rounding."""
    unit[:, 0] = _TRACE_ROW
    with np.errstate(over="ignore"), contextlib.suppress(np.linalg.LinAlgError):  # an exactly singular B certifies none
        inverse = np.linalg.inv(unit)
        return 128.0 * GAP_EPS * np.abs(inverse, out=inverse).sum(axis=-2).max(axis=-1) < 1.0
    return np.zeros(len(unit), dtype=bool)


def _steady_coordinates(liouvillian, certify: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`steady_state`'s path: raw coordinates (..., 16) of each stationary state, the verdicts, and the values-only
    SVD's gaps, one per cell as `steady_state` needs unless `certify` lets the cells `_certified` passes skip it."""
    gen = _real_generator(liouvillian)
    if not np.isfinite(gen).all():
        raise NumericalError("the generator is not finite")
    stack = gen.reshape(-1, _SIZE, _SIZE)
    scale = np.abs(stack).max(axis=(-2, -1), keepdims=True)
    # The state does not depend on R's scale, but LAPACK loses a subnormal R: below _TINY_SCALE, R is solved scaled
    # up by the exact power of two that brings max |R_ij| into [0.5, 1), and its gap is scaled back.
    shift = np.where((scale > 0.0) & (scale < _TINY_SCALE), -np.frexp(scale)[1], 0)
    if shift.any():  # every other generator keeps its bits
        stack, scale = np.ldexp(stack, shift), np.ldexp(scale, shift)
    scale[scale == 0.0] = 1.0  # R / scale is R / max |R_ij|, or a zero R itself: free of units, and no norm overflows
    unique = _certified(stack / scale) if certify else np.zeros(len(stack), dtype=bool)
    shift = shift[~unique, 0, 0]  # of the cells that take the SVD
    rest = stack[~unique] if unique.any() else stack  # no copy when every cell takes the SVD
    sing = np.linalg.svd(rest, compute_uv=False) if len(rest) else np.empty((0, _SIZE))
    gap, bound = sing[:, -2], GAP_EPS * sing[:, 0]  # descending: sing[:, 0] is ||R||_2
    unique[~unique] = gap > bound
    bordered = stack[unique]
    bordered[:, 0] = _TRACE_ROW
    coords = np.empty((len(stack), _SIZE))
    coords[unique] = np.linalg.solve(bordered, np.eye(_SIZE, 1))[..., 0]
    if not unique.all():
        _, values, vh = np.linalg.svd(stack[~unique])
        # Ascending singular values; candidate i is the right singular vector of values[:, i].
        values, candidates = values[:, ::-1], vh[:, ::-1]
        # Of the near-null vectors (always at least the first), take the one of largest |trace|.
        near_null = (values <= bound[gap <= bound, None]) | (np.arange(_SIZE) == 0)
        traces = candidates @ _TRACE_ROW
        best = np.arange(len(candidates)), np.argmax(np.where(near_null, np.abs(traces), -1.0), axis=-1)
        if np.any(np.abs(traces[best]) < 1e-9):
            raise NumericalError("null space holds no unit-trace Hermitian element within tolerance")
        coords[~unique] = candidates[best] / traces[best][:, None]
    residual = np.linalg.norm((stack / scale @ coords[..., None])[..., 0], axis=-1)
    bad = unique & ~(residual <= 1e-8)  # written so that a NaN residual counts as too large
    if np.any(bad):
        raise NumericalError(f"stationary residual {np.max(residual[bad]):.3e} too large")
    return (coords / _SCALE).reshape(gen.shape[:-1]), unique.reshape(gen.shape[:-2]), np.ldexp(gap, -shift)


def steady_state(liouvillian: np.ndarray) -> SteadyStateResult:
    """Stationary state from the null space of the real generator, or of each in a stack.

    The verdict comes from the singular values of R (those of R' R would bury small gaps in roundoff): the state is
    unique when the second-smallest exceeds GAP_EPS ||R||_2, a bound free of units.  A unique state solves R with its
    first row, redundant under trace preservation, replaced by the trace row (ones on the diagonal coordinates) and
    right-hand side e_0.  Only a degenerate cell gets a full SVD, for its near-null vector of largest |trace|.  One
    (16, 16) generator gives a float gap and a bool; a stack gives arrays over its leading axes and (..., 4, 4)
    states.  A steady_concurrence sweep takes the same path, but a cell that the inverse of its bordered matrix
    certifies unique skips the SVD there (`_steady_coordinates`): the same verdicts and state bits, and no gap.
    """
    coords, unique, gap = _steady_coordinates(liouvillian)
    gap, unique = (float(gap[0]), bool(unique)) if unique.ndim == 0 else (gap.reshape(unique.shape), unique)
    return SteadyStateResult(state=_states(coords), spectral_gap=gap, unique=unique)
