import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dissipair import dynamics, model
from dissipair.dynamics import (
    INITIAL_STATE_NAMES,
    Liouvillian,
    TimeGrid,
    build_liouvillian,
    evolve_expm,
    evolve_rk4,
    initial_state,
    liouvillian_from_params,
    steady_state,
    unvec,
    validate_density_matrix,
    vec,
)
from dissipair.errors import (
    CONFIG_ERRORS,
    NotAStateError,
    NotHermitianError,
    ShapeMismatchError,
    StateInvariantViolatedError,
    StepTooLargeError,
    ValidationError,
)

from oracles import five_point_derivative, random_density_matrix

ISO = model.ModelParams(J=1.0, Gamma=2.0, phi=1.5 * math.pi)


def _dissipator(op, rho):
    square = op.conj().T @ op
    return op @ rho @ op.conj().T - 0.5 * (square @ rho + rho @ square)


# ---- vectorization ----


def test_vec_unvec_roundtrip():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    np.testing.assert_array_equal(unvec(vec(x)), x)
    # column stacking: first four slots hold the first column
    np.testing.assert_array_equal(vec(x)[:4], x[:, 0])


def test_vec_sandwich_identity():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a, x, b = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(3))
        lhs = vec(a @ x @ b)
        rhs = np.kron(b.T, a) @ vec(x)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


# ---- Liouvillian assembly ----


def test_zero_generator():
    gen = build_liouvillian(np.zeros((4, 4)), [])
    np.testing.assert_array_equal(gen.matrix, np.zeros((16, 16)))


def test_generator_matches_direct_master_equation():
    rng = np.random.default_rng(13)
    params = model.ModelParams(J=0.9, Gamma=1.7, phi=0.6, kappa=0.2,
                               drive=model.Drive(target=1, amplitude=0.4))
    h = model.build_hamiltonian(params)
    jumps = model.build_jump_operators(params)
    gen = build_liouvillian(h, jumps).matrix
    for _ in range(10):
        rho = random_density_matrix(rng)
        direct = -1j * (h @ rho - rho @ h)
        for op in jumps:
            direct = direct + _dissipator(op, rho)
        assert np.abs(unvec(gen @ vec(rho)) - direct).max() <= 1e-12


def test_generator_preserves_trace_row():
    probes = (
        ISO,
        model.ModelParams(J=1.0, Gamma=2.0, phi=0.0, kappa=0.3),
        model.ModelParams(J=1.0, Gamma=2.0, phi=1.5 * math.pi, drive=model.Drive(1, 8.0 / 11.0)),
    )
    for params in probes:
        gen = liouvillian_from_params(params).matrix
        row = vec(np.eye(4)).conj() @ gen
        assert np.abs(row).max() <= 1e-12


def test_generator_rejects_bad_inputs():
    with pytest.raises(NotHermitianError):
        build_liouvillian(model.sigma_minus(1), [])
    with pytest.raises(ShapeMismatchError):
        build_liouvillian(np.zeros((4, 4)), [np.zeros((2, 2))])
    with pytest.raises(ShapeMismatchError):
        build_liouvillian(np.zeros((4, 3)), [])


# ---- initial states ----


def test_initial_state_projectors():
    for name, index in (("EE", 0), ("E", 0), ("EG", 1), ("GE", 2), ("GG", 3), ("G", 3)):
        rho = initial_state(name)
        assert rho[index, index] == 1.0
        assert np.count_nonzero(rho) == 1
    plus = initial_state("PLUS")
    np.testing.assert_allclose(plus[1:3, 1:3], 0.5 * np.ones((2, 2)), atol=1e-15)
    minus = initial_state("MINUS")
    np.testing.assert_allclose(minus[1:3, 1:3], 0.5 * np.array([[1, -1], [-1, 1]]), atol=1e-15)
    with pytest.raises(ShapeMismatchError):
        initial_state("XX")


# ---- time grid ----


def test_time_grid_steps():
    grid = TimeGrid(t_max=5.0, dt=0.002)
    assert grid.n_steps == 2500
    steps = grid.sample_steps()
    assert steps[0] == 0 and steps[-1] == 2500 and len(steps) == 2501
    strided = TimeGrid(t_max=5.0, dt=0.002, sample_every=7)
    assert strided.sample_steps()[-1] == 2500
    assert strided.sample_steps()[-2] == 2499 - (2499 % 7)


def test_time_grid_validation():
    with pytest.raises(ShapeMismatchError):
        TimeGrid(t_max=0.0, dt=0.1)
    with pytest.raises(ShapeMismatchError):
        TimeGrid(t_max=1.0, dt=0.0)
    with pytest.raises(ShapeMismatchError):
        TimeGrid(t_max=1.0, dt=2.0)
    with pytest.raises(ShapeMismatchError):
        TimeGrid(t_max=1.0, dt=0.1, sample_every=0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="^t_max must be finite"):
            TimeGrid(t_max=bad, dt=0.1)
        with pytest.raises(ValidationError, match="^dt must be finite"):
            TimeGrid(t_max=1.0, dt=bad)


# ---- integrators ----


def test_rk4_constant_under_zero_generator():
    gen = Liouvillian(matrix=np.zeros((16, 16), dtype=complex))
    rho0 = initial_state("PLUS")
    traj = evolve_rk4(rho0, gen, TimeGrid(1.0, 0.01))
    assert np.abs(traj.states - rho0).max() == 0.0
    assert traj.provenance.startswith("rk4")


def test_rk4_analytic_decay_point():
    # complete isolation from |eg>: qubit 1 sees plain exponential decay
    gen = liouvillian_from_params(ISO)
    traj = evolve_rk4(initial_state("EG"), gen, TimeGrid(0.5, 0.002))
    p1 = (traj.states[-1, 0, 0] + traj.states[-1, 1, 1]).real
    assert abs(p1 - math.exp(-1.0)) <= 1e-9


def test_rk4_step_guard():
    gen = liouvillian_from_params(ISO)
    with pytest.raises(StepTooLargeError):
        evolve_rk4(initial_state("EG"), gen, TimeGrid(5.0, 0.5))
    # A NaN norm compares False against any bound; the guard must still fire.
    matrix = liouvillian_from_params(ISO).matrix.copy()
    matrix[3, 5] = math.nan
    with pytest.raises(StepTooLargeError, match="not finite"):
        evolve_rk4(initial_state("EG"), Liouvillian(matrix=matrix), TimeGrid(1.0, 0.002))


def test_rk4_rejects_bad_initial_state():
    gen = liouvillian_from_params(ISO)
    with pytest.raises(ShapeMismatchError):
        evolve_rk4(np.eye(2), gen, TimeGrid(1.0, 0.002))
    with pytest.raises(NotAStateError):
        evolve_rk4(2.0 * initial_state("EG"), gen, TimeGrid(1.0, 0.002))


def test_integrators_reject_a_stacked_generator():
    gen = liouvillian_from_params(model.ModelParams(J=1.0, Gamma=np.array([1.0, 2.0])))
    assert gen.matrix.shape == (2, 16, 16)
    assert ShapeMismatchError in CONFIG_ERRORS  # the command line exits 2 on it
    for evolve in (evolve_rk4, evolve_expm):
        with pytest.raises(ShapeMismatchError, match=r"stack of shape \(2, 16, 16\)"):
            evolve(initial_state("EG"), gen, TimeGrid(1.0, 0.002))


def test_rk4_flags_trace_drift():
    # a generator that shrinks everything is not trace preserving
    gen = Liouvillian(matrix=-np.eye(16, dtype=complex))
    with pytest.raises(StateInvariantViolatedError):
        evolve_rk4(initial_state("GG"), gen, TimeGrid(0.1, 0.01))


def _rk4_stepwise(rho0, gen, grid):
    # Reference: four matvecs per step, sampled on the grid's stored steps.
    dt = grid.dt
    wanted = set(grid.sample_steps().tolist())
    v = vec(rho0)
    out = []
    for k in range(grid.n_steps + 1):
        if k in wanted:
            out.append(unvec(v))
        k1 = gen @ v
        k2 = gen @ (v + (0.5 * dt) * k1)
        k3 = gen @ (v + (0.5 * dt) * k2)
        k4 = gen @ (v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.array(out)


_EDGE_MODEL = dict(J=1.0, Gamma=2.0, phi=1.5 * math.pi, kappa=0.1, drive=(1, 0.7), initial="EG", step_fraction=1.0)


@settings(max_examples=40, deadline=None)
@given(
    J=st.complex_numbers(max_magnitude=2.0),
    Gamma=st.floats(0.0, 3.0),
    phi=st.floats(0.0, 2.0 * math.pi),
    kappa=st.floats(0.0, 0.5),
    drive=st.none() | st.tuples(st.sampled_from([1, 2]), st.floats(0.0, 1.5)),
    initial=st.sampled_from(INITIAL_STATE_NAMES),
    step_fraction=st.floats(0.05, 1.0),
    n_steps=st.integers(1, 400),
    sample_every=st.sampled_from([1, 7, 10, 50]),
)
# The propagator fills uniform samples in blocks of isqrt(count) and steps a
# shorter tail span on its own: pin sample counts at 1, at a perfect square
# and one past it, each with and without a tail.
@example(**_EDGE_MODEL, n_steps=3, sample_every=7)  # one sample, span shorter than the stride
@example(**_EDGE_MODEL, n_steps=7, sample_every=7)  # one sample, no tail
@example(**_EDGE_MODEL, n_steps=9, sample_every=7)  # one sample, then a tail
@example(**_EDGE_MODEL, n_steps=16, sample_every=1)  # 16 samples, no tail
@example(**_EDGE_MODEL, n_steps=115, sample_every=7)  # 16 samples, then a tail
@example(**_EDGE_MODEL, n_steps=170, sample_every=10)  # 17 samples, no tail
@example(**_EDGE_MODEL, n_steps=122, sample_every=7)  # 17 samples, then a tail
def test_rk4_propagator_matches_stepwise_rk4(J, Gamma, phi, kappa, drive, initial,
                                             step_fraction, n_steps, sample_every):
    params = model.ModelParams(J=J, Gamma=Gamma, phi=phi, kappa=kappa,
                               drive=None if drive is None else model.Drive(*drive))
    gen = liouvillian_from_params(params)
    norm = float(np.abs(gen.matrix).sum(axis=1).max())
    assume(norm > 0.0)
    dt = step_fraction * dynamics.MAX_STEP_NORM / norm
    grid = TimeGrid(n_steps * dt, dt, sample_every)
    assert grid.n_steps == n_steps
    rho0 = initial_state(initial)
    traj = evolve_rk4(rho0, gen, grid)
    reference = _rk4_stepwise(rho0, gen.matrix, grid)
    assert traj.states.shape == reference.shape
    assert traj.states.flags.c_contiguous
    assert traj.times[-1] == n_steps * dt
    assert np.abs(traj.states - reference).max() <= 1e-10


def test_expm_constant_under_zero_generator():
    gen = Liouvillian(matrix=np.zeros((16, 16), dtype=complex))
    rho0 = initial_state("GE")
    traj = evolve_expm(rho0, gen, TimeGrid(1.0, 0.01))
    assert np.abs(traj.states - rho0).max() == 0.0


def test_expm_exact_single_qubit_damping():
    gamma = 1.3
    jump = math.sqrt(gamma) * model.sigma_minus(1)
    gen = build_liouvillian(np.zeros((4, 4)), [jump])
    traj = evolve_expm(initial_state("EG"), gen, TimeGrid(2.0, 0.01, sample_every=20))
    p1 = (traj.states[:, 0, 0] + traj.states[:, 1, 1]).real
    np.testing.assert_allclose(p1, np.exp(-gamma * traj.times), atol=1e-12)


def test_integrator_agreement_generic_parameters():
    params = model.ModelParams(J=1.0, Gamma=1.1, phi=0.9, kappa=0.05,
                               drive=model.Drive(target=2, amplitude=0.3))
    gen = liouvillian_from_params(params)
    grid = TimeGrid(3.0, 0.002, sample_every=50)
    a = evolve_rk4(initial_state("PLUS"), gen, grid)
    b = evolve_expm(initial_state("PLUS"), gen, grid)
    assert np.abs(a.states - b.states).max() <= 1e-8


def test_spin_expectation_consistency():
    """The qubit-1 coherence obeys its adjoint equation of motion.

    d<s1->/dt = -(Gamma/2 + 2 kappa)<s1-> + (1j J + (Gamma/2) e^{i phi})<s1z s2->,
    with the dephasing term present because kappa > 0 here.
    """
    params = model.ModelParams(J=1.0, Gamma=1.3, phi=0.7, kappa=0.1)
    gen = liouvillian_from_params(params)
    grid = TimeGrid(4.0, 0.002)
    traj = evolve_rk4(initial_state("PLUS"), gen, grid)
    s1m = model.sigma_minus(1)
    s1z_s2m = model.sigma_z(1) @ model.sigma_minus(2)
    e1 = np.einsum("kij,ji->k", traj.states, s1m)
    ez2 = np.einsum("kij,ji->k", traj.states, s1z_s2m)
    lhs = five_point_derivative(e1, grid.dt)
    coupling = 1j * params.J + 0.5 * params.Gamma * cmath.exp(1j * params.phi)
    rhs = -(0.5 * params.Gamma + 2.0 * params.kappa) * e1 + coupling * ez2
    assert np.abs(lhs - rhs[2:-2]).max() <= 1e-5


# ---- steady states ----


def test_steady_state_unique_ground_state():
    result = steady_state(liouvillian_from_params(ISO))
    assert result.unique
    assert result.spectral_gap > 1e-8
    np.testing.assert_allclose(result.state, initial_state("GG"), atol=1e-10)


def test_steady_state_degenerate_at_zero_phase():
    result = steady_state(liouvillian_from_params(model.ModelParams(J=1.0, Gamma=2.0, phi=0.0)))
    assert not result.unique
    assert result.spectral_gap <= 1e-8
    assert abs(result.state.trace() - 1.0) <= 1e-9


def test_steady_state_gap_resolved_near_zero_phase():
    # At phi = 1e-5 the true gap is ~6e-11; from the spectrum of L'L it
    # would read ~2e-8 and pass for unique.
    gen = liouvillian_from_params(model.ModelParams(J=1.0, Gamma=2.0, phi=1e-5))
    result = steady_state(gen)
    assert not result.unique
    expected = np.sort(np.linalg.svd(gen.matrix, compute_uv=False))[1]
    assert abs(result.spectral_gap - expected) <= 1e-12


def test_steady_state_driven_matches_long_time_limit():
    params = model.ModelParams(J=1.0, Gamma=2.0, phi=1.5 * math.pi,
                               drive=model.Drive(target=1, amplitude=8.0 / 11.0))
    gen = liouvillian_from_params(params)
    result = steady_state(gen)
    assert result.unique
    traj = evolve_rk4(initial_state("GG"), gen, TimeGrid(50.0, 0.002, sample_every=250))
    assert np.abs(traj.states[-1] - result.state).max() <= 1e-6
    assert np.linalg.norm(gen.matrix @ vec(result.state)) <= 1e-9


_CELL = st.tuples(
    st.complex_numbers(max_magnitude=2.0),
    st.just(0.0) | st.floats(0.0, 3.0),
    st.sampled_from([0.0, math.pi]) | st.floats(0.0, 2.0 * math.pi),
    st.just(0.0) | st.floats(0.0, 0.5),
    st.just(0.0) | st.floats(0.0, 1.5),
)


@settings(max_examples=60, deadline=None)
@given(cells=st.lists(_CELL, min_size=1, max_size=6), target=st.sampled_from([1, 2]))
def test_stacked_model_matches_per_cell_builds(cells, target):
    J, Gamma, phi, kappa, amplitude = (np.array(column) for column in zip(*cells))
    stacked = liouvillian_from_params(model.ModelParams(J=J, Gamma=Gamma, phi=phi, kappa=kappa,
                                                        drive=model.Drive(target, amplitude)))
    singles = [liouvillian_from_params(model.ModelParams(j, g, p, k, drive=model.Drive(target, w)))
               for j, g, p, k, w in cells]
    np.testing.assert_array_equal(stacked.matrix, [single.matrix for single in singles])
    result = steady_state(stacked)
    assert result.state.shape == (len(cells), 4, 4)
    for k, single in enumerate(singles):
        one = steady_state(single)
        assert type(one.unique) is bool and type(one.spectral_gap) is float
        assert result.unique[k] == one.unique
        assert abs(result.spectral_gap[k] - one.spectral_gap) <= 1e-12
        if one.unique:
            assert np.abs(result.state[k] - one.state).max() <= 1e-10


# ---- dark states ----


def test_dark_states_stay_put():
    cases = (("MINUS", 0.0), ("PLUS", math.pi))
    for name, phi in cases:
        gen = liouvillian_from_params(model.ModelParams(J=1.0, Gamma=2.0, phi=phi))
        rho0 = initial_state(name)
        traj = evolve_rk4(rho0, gen, TimeGrid(5.0, 0.002, sample_every=100))
        assert np.abs(traj.states - rho0).max() <= 1e-8


# ---- diagnostics ----


def test_validate_density_matrix():
    clean = validate_density_matrix(np.eye(4) / 4.0)
    assert clean.hermiticity_defect == 0.0
    assert clean.trace_defect == 0.0
    assert abs(clean.min_eigenvalue - 0.25) <= 1e-12

    pure = validate_density_matrix(initial_state("EG"))
    assert pure.trace_defect <= 1e-15
    assert abs(pure.min_eigenvalue) <= 1e-12

    inflated = validate_density_matrix((1.0 + 1e-3) * np.eye(4) / 4.0)
    assert abs(inflated.trace_defect - 1e-3) <= 1e-12
