import cmath
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dissipair import dynamics, model
from dissipair.dynamics import (
    INITIAL_STATE_NAMES,
    TimeGrid,
    build_liouvillian,
    evolve_rk4,
    initial_state,
    liouvillian_from_params,
    steady_state,
)
from dissipair.errors import NumericalError, ValidationError

from oracles import (
    HERMITIAN_BASIS,
    S1,
    S2,
    SZ1,
    column_stacked,
    exponential_trajectory,
    five_point_derivative,
    generator_of,
    hermitian_coordinates,
    master_equation,
    model_operators,
    random_density_matrix,
    random_unitary,
)

ISO = model.ModelParams(J=1.0, Gamma=2.0, phi=1.5 * math.pi)


def _matrix(x):
    return np.einsum("...a,aij->...ij", x, HERMITIAN_BASIS)


# ---- the Hermitian basis ----


def test_state_coordinates_roundtrip():
    rng = np.random.default_rng(2)
    assert np.abs(np.einsum("aij,bji->ab", HERMITIAN_BASIS, HERMITIAN_BASIS) - np.eye(16)).max() <= 1e-15
    np.testing.assert_array_equal(dynamics._BASIS, HERMITIAN_BASIS)
    mixed = np.array([random_density_matrix(rng) for _ in range(5)])
    stack = np.concatenate([0.5 * (mixed + mixed.conj().swapaxes(1, 2)), [initial_state(n) for n in INITIAL_STATE_NAMES]])
    raw = dynamics._coordinates(stack)
    assert raw.dtype == float and raw.shape == (len(stack), 16)
    # Exact both ways: entries are placed, not computed.
    np.testing.assert_array_equal(dynamics._states(raw), stack)
    assert np.abs(raw * dynamics._SCALE - hermitian_coordinates(stack)).max() <= 1e-15


def test_generator_is_the_column_stacked_form_in_the_hermitian_basis():
    rng = np.random.default_rng(7)
    columns = np.array([b.T.ravel() for b in HERMITIAN_BASIS]).T  # vec(B_a), a unitary change of basis
    assert np.abs(columns.conj().T @ columns - np.eye(16)).max() <= 1e-15
    for _ in range(10):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = g + g.conj().T
        jumps = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(2)]
        stacked = column_stacked(h, jumps)
        gen = build_liouvillian(h, jumps)
        scale = np.abs(stacked).max()
        assert gen.dtype == float
        assert np.abs(gen - columns.conj().T @ stacked @ columns).max() <= 1e-14 * scale
        np.testing.assert_allclose(np.linalg.svd(gen, compute_uv=False),
                                   np.linalg.svd(stacked, compute_uv=False), rtol=0.0, atol=1e-13 * scale)


# ---- Liouvillian assembly ----


def test_zero_generator():
    gen = build_liouvillian(np.zeros((4, 4)), [])
    np.testing.assert_array_equal(gen, np.zeros((16, 16)))


def test_generator_matches_direct_master_equation():
    rng = np.random.default_rng(13)
    gen = build_liouvillian(*model_operators(0.9, 1.7, 0.6, kappa=0.2, amplitude=0.4, target=1))
    direct = master_equation(0.9, 1.7, 0.6, kappa=0.2, amplitude=0.4, target=1)
    expected = generator_of(direct)
    assert np.abs(expected.imag).max() <= 1e-15
    assert np.abs(gen - expected.real).max() <= 1e-12
    for _ in range(10):
        rho = random_density_matrix(rng)
        assert np.abs(_matrix(gen @ hermitian_coordinates(rho)) - direct(rho)).max() <= 1e-12


def test_generator_preserves_trace_row():
    probes = (
        ISO,
        model.ModelParams(J=1.0, Gamma=2.0, phi=0.0, kappa=0.3),
        model.ModelParams(J=1.0, Gamma=2.0, phi=1.5 * math.pi, drive=model.Drive(1, 8.0 / 11.0)),
    )
    for params in probes:
        gen = liouvillian_from_params(params)
        row = hermitian_coordinates(np.eye(4)) @ gen
        assert np.abs(row).max() <= 1e-12


def test_generator_rejects_bad_inputs():
    with pytest.raises(NumericalError, match="^hamiltonian defect"):
        build_liouvillian(S1, [])
    with pytest.raises(ValidationError, match="^jump operator shape"):
        build_liouvillian(np.zeros((4, 4)), [np.zeros((2, 2))])
    with pytest.raises(ValidationError, match="^hamiltonian must be"):
        build_liouvillian(np.zeros((4, 3)), [])


_RATES = st.tuples(
    st.complex_numbers(max_magnitude=50.0),
    st.just(0.0) | st.floats(0.0, 50.0),
    st.sampled_from([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi]) | st.floats(-10.0, 10.0),
    st.floats(0.0, 50.0),
    st.just(0.0) | st.floats(0.0, 50.0),
    st.sampled_from([1, 2]),
)


@settings(max_examples=80, deadline=None)
@given(rates=_RATES)
def test_rate_basis_generator_matches_master_equation(rates):
    J, Gamma, phi, kappa, amplitude, target = rates
    params = model.ModelParams(J, Gamma, phi, kappa, model.Drive(target, amplitude))
    gen = liouvillian_from_params(params)
    direct = master_equation(J, Gamma, phi, kappa, amplitude, target)
    scale = 1.0 + max(abs(J), Gamma, kappa, amplitude)
    assert np.abs(gen - generator_of(direct).real).max() <= 1e-12 * scale
    rng = np.random.default_rng(41)
    for _ in range(3):
        rho = random_density_matrix(rng)
        assert np.abs(_matrix(gen @ hermitian_coordinates(rho)) - direct(rho)).max() <= 1e-12 * scale
    built = build_liouvillian(*model_operators(J, Gamma, phi, kappa, amplitude, target))
    assert np.abs(gen - built).max() <= 1e-14 * np.abs(gen).max()


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
    with pytest.raises(ValidationError, match="^unknown initial state"):
        initial_state("XX")


def test_initial_state_names_are_in_table_order():
    assert INITIAL_STATE_NAMES == ("EE", "EG", "GE", "GG", "E", "PLUS", "MINUS", "G")
    message = "unknown initial state 'XX', expected one of ('EE', 'EG', 'GE', 'GG', 'E', 'PLUS', 'MINUS', 'G')"
    with pytest.raises(ValidationError) as caught:
        initial_state("XX")
    assert str(caught.value) == message
    # Each call returns a fresh projector: changing one leaves the next call's alone.
    for name in INITIAL_STATE_NAMES:
        rho, first = initial_state(f" {name} "), initial_state(name).copy()
        np.testing.assert_array_equal(rho, first)
        rho[:] = 7.0
        np.testing.assert_array_equal(initial_state(name), first)


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
    with pytest.raises(ValidationError, match="^t_max must be > 0"):
        TimeGrid(t_max=0.0, dt=0.1)
    with pytest.raises(ValidationError, match="^dt must be > 0"):
        TimeGrid(t_max=1.0, dt=0.0)
    with pytest.raises(ValidationError, match="^t_max must be a whole multiple of dt"):
        TimeGrid(t_max=1.0, dt=2.0)
    with pytest.raises(ValidationError, match="^sample_every must be >= 1"):
        TimeGrid(t_max=1.0, dt=0.1, sample_every=0)
    # A fractional stride used to be truncated: 2.5 stored every second step.
    for bad in (2.5, 2.0, math.nan, True):
        with pytest.raises(ValidationError, match=rf"^sample_every must be an integer, got {bad!r}$"):
            TimeGrid(t_max=1.0, dt=0.1, sample_every=bad)
    assert TimeGrid(t_max=1.0, dt=0.1, sample_every=np.int64(3)).sample_steps().tolist() == [0, 3, 6, 9, 10]
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="^t_max must be finite"):
            TimeGrid(t_max=bad, dt=0.1)
        with pytest.raises(ValidationError, match="^dt must be finite"):
            TimeGrid(t_max=1.0, dt=bad)


def test_time_grid_ends_on_t_max():
    # 1 / 0.007 is 142.86 steps: the grid used to round up and store a last row at t = 1.001.
    for t_max, dt in ((1.0, 0.007), (5.0, 0.003), (1e308, 1e-10)):
        with pytest.raises(ValidationError, match="^t_max must be a whole multiple of dt"):
            TimeGrid(t_max, dt)
    # Whole multiples pass within a relative 1e-9, and the last sample lands on t_max.
    for t_max, dt, steps in ((5.0, 0.002, 2500), (0.3, 0.1, 3), (50.0, 0.002, 25000), (1e6, 1e-3, 10 ** 9),
                             (1.0 + 5e-10, 1.0, 1), (0.3 * (1.0 - 1e-10), 0.1, 3)):
        grid = TimeGrid(t_max, dt, sample_every=7)
        assert grid.n_steps == steps
        assert abs(grid.n_steps * dt - t_max) <= 1e-9 * t_max
    assert TimeGrid(0.3, 0.1).sample_times()[-1] == 3 * 0.1


# ---- integrators ----


def test_rk4_constant_under_zero_generator():
    gen = np.zeros((16, 16), dtype=complex)
    rho0 = initial_state("PLUS")
    traj = evolve_rk4(rho0, gen, TimeGrid(1.0, 0.01))
    assert np.abs(traj.states - rho0).max() == 0.0


def test_rk4_analytic_decay_point():
    # complete isolation from |eg>: qubit 1 sees plain exponential decay
    gen = liouvillian_from_params(ISO)
    traj = evolve_rk4(initial_state("EG"), gen, TimeGrid(0.5, 0.002))
    p1 = (traj.states[-1, 0, 0] + traj.states[-1, 1, 1]).real
    assert abs(p1 - math.exp(-1.0)) <= 1e-9


def test_rk4_step_guard():
    gen = liouvillian_from_params(ISO)
    with pytest.raises(NumericalError, match=r"^dt \* \|\|R\|\|_inf = "):
        evolve_rk4(initial_state("EG"), gen, TimeGrid(5.0, 0.5))
    # A NaN norm compares False against any bound; the guard must still fire.
    broken = gen.copy()
    broken[3, 5] = math.nan
    with pytest.raises(NumericalError, match="not finite"):
        evolve_rk4(initial_state("EG"), broken, TimeGrid(1.0, 0.002))


def test_rk4_rejects_bad_initial_state():
    gen = liouvillian_from_params(ISO)
    with pytest.raises(ValidationError, match="^initial state shape"):
        evolve_rk4(np.eye(2), gen, TimeGrid(1.0, 0.002))
    with pytest.raises(NumericalError, match="^initial state must be Hermitian with unit trace"):
        evolve_rk4(2.0 * initial_state("EG"), gen, TimeGrid(1.0, 0.002))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_states_are_refused(value):
    gen = liouvillian_from_params(ISO)
    for rho0 in (np.full((4, 4), value), np.diag([value, 0.0, 0.0, 1.0])):
        with pytest.raises(NumericalError, match="^initial state is not finite$"):
            evolve_rk4(rho0, gen, TimeGrid(1.0, 0.002))
    # Every comparison against a bound fails on a NaN, so the check must be written to refuse it.
    with pytest.raises(NumericalError, match=r"^probe: trace drift (nan|inf) at sample 5 exceeds"):
        dynamics._check_samples(np.full((3, 16), value), "probe", 5)
    # Off the diagonal the trace stays finite: sample 6 of |eg> samples, with Re rho_12 not finite.
    coords = np.tile(dynamics._coordinates(initial_state("EG")), (3, 1))
    coords[1:, 7] = value
    with pytest.raises(NumericalError, match="^probe: coordinates not finite at sample 6$"):
        dynamics._check_samples(coords, "probe", 5)


def test_integrators_reject_a_stacked_generator():
    gen = liouvillian_from_params(model.ModelParams(J=1.0, Gamma=np.array([1.0, 2.0])))
    assert gen.shape == (2, 16, 16)
    with pytest.raises(ValidationError, match=r"stack of shape \(2, 16, 16\)"):
        evolve_rk4(initial_state("EG"), gen, TimeGrid(1.0, 0.002))


def test_rk4_flags_trace_drift():
    # a generator that shrinks everything is not trace preserving
    gen = -np.eye(16, dtype=complex)
    with pytest.raises(NumericalError, match="^rk4 dt=0.01: trace drift"):
        evolve_rk4(initial_state("GG"), gen, TimeGrid(0.1, 0.01))


def test_integrators_flag_negativity():
    # Minus a decay dissipator preserves the trace but pumps |gg> into |eg>: P_gg = 1 - e^t < 0.
    gen = -build_liouvillian(np.zeros((4, 4)), [S1])
    assert np.abs(hermitian_coordinates(np.eye(4)) @ gen).max() <= 1e-15
    with pytest.raises(NumericalError,
                       match=r"^rk4 dt=0.01: negativity -1\.052e-01 at sample 10 exceeds 1\.0e-06$"):
        evolve_rk4(initial_state("EG"), gen, TimeGrid(0.1, 0.01))


def test_negativity_check_spares_samples_within_tolerance():
    rng = np.random.default_rng(11)
    tol = dynamics.NEGATIVITY_TOL

    def rotated(lowest):
        return _rotated_state(rng, lowest)

    within = np.array([initial_state("PLUS"), rotated(-0.5 * tol)])
    assert np.linalg.eigvalsh(within)[1, 0] < -0.4 * tol
    dynamics._check_samples(dynamics._coordinates(within), "probe")
    beyond = np.array([initial_state("PLUS"), rotated(-0.5 * tol), rotated(-1.5 * tol), rotated(0.0)])
    with pytest.raises(NumericalError, match=r"^probe: negativity -1\.500e-06 at sample 2 exceeds"):
        dynamics._check_samples(dynamics._coordinates(beyond), "probe")
    # X-shaped samples, which the closed form takes: a diagonal state and a turned {eg, ge} block.
    x_within = np.array([np.diag([0.5, 0.3, 0.2 + 0.5 * tol, -0.5 * tol]), _x_shaped_state(-0.5 * tol)])
    assert np.linalg.eigvalsh(x_within)[:, 0] == pytest.approx([-0.5 * tol] * 2, abs=1e-15)
    assert np.all(x_within[1, [0, 0, 1, 2, 1, 2, 3, 3], [1, 2, 3, 3, 0, 0, 1, 2]] == 0.0) and x_within[1, 1, 2] != 0.0
    dynamics._check_samples(dynamics._coordinates(x_within), "probe")
    x_beyond = np.array([initial_state("PLUS"), *x_within, _x_shaped_state(-1.5 * tol)])
    with pytest.raises(NumericalError, match=r"^probe: negativity -1\.500e-06 at sample 8 exceeds"):
        dynamics._check_samples(dynamics._coordinates(x_beyond), "probe", 5)


def _rotated_state(rng, lowest):
    # Eigenvalues 0.6, 0.4 - lowest, 0 and lowest, in a Haar-random basis: no coherence is zero.
    u = random_unitary(rng, 4)
    rho = u @ np.diag([0.6, 0.4 - lowest, 0.0, lowest]) @ u.conj().T
    return 0.5 * (rho + rho.conj().T)


def _x_shaped_state(lowest):
    # |ee><ee| / 2 beside an {eg, ge} block of eigenvalues 0.5 - lowest and lowest, turned by a generic rotation.
    return _x_blocks(((0.5, 0.0), (0.5 - lowest, lowest)), (0.0, 0.7), (0.0, 0.9))


def _x_blocks(pairs, angles, phases):
    """The X-shaped state whose blocks over {ee, gg} and {eg, ge} have the eigenvalue pairs `pairs`, turned
    by the angles and phases given: block (top, low) is U diag(top, low) U' with U = [[c, -s e^(i chi)],
    [s e^(-i chi), c]]."""
    rho = np.zeros((4, 4), dtype=complex)
    for (i, j), (top, low), theta, chi in zip(((0, 3), (1, 2)), pairs, angles, phases):
        c, s = math.cos(theta), math.sin(theta)
        rho[i, i], rho[j, j] = c * c * top + s * s * low, s * s * top + c * c * low
        rho[i, j] = c * s * (top - low) * cmath.exp(1j * chi)
        rho[j, i] = rho[i, j].conjugate()
    return rho


_TOL = dynamics.NEGATIVITY_TOL
_X_SAMPLE = st.tuples(
    # The lowest eigenvalue, over [-3 tol, 3 tol] and closely around -tol.
    st.one_of(st.floats(-3.0 * _TOL, 3.0 * _TOL), st.floats(-_TOL - 1e-9, -_TOL + 1e-9)),
    st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).filter(lambda w: sum(w) > 0.0),
    st.permutations(range(4)),
    st.tuples(st.floats(0.0, math.pi), st.floats(0.0, math.pi)),
    st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_X_SAMPLE, min_size=1, max_size=6))
def test_negativity_verdict_of_x_shaped_samples(draws):
    states = []
    for lowest, weights, order, angles, phases in draws:
        # The other three eigenvalues lie above the lowest and bring the trace to 1.
        values = np.array([lowest, *(lowest + (1.0 - 4.0 * lowest) * np.array(weights) / sum(weights))])
        states.append(_x_blocks(values[list(order)].reshape(2, 2), angles, phases))
    coords = dynamics._coordinates(np.array(states))
    lows = np.linalg.eigvalsh(dynamics._states(coords))[:, 0]
    assume(np.all(np.abs(lows + _TOL) > 1e-12))
    valid = lows >= -_TOL
    with mock.patch.object(dynamics, "_cholesky", side_effect=AssertionError("Cholesky reached")), \
            mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as named:
        for k, ok in enumerate(valid):
            named.reset_mock()
            if ok:
                dynamics._check_samples(coords[k:k + 1], "probe", k)
            else:
                with pytest.raises(NumericalError, match=f"^probe: negativity .* at sample {k} exceeds"):
                    dynamics._check_samples(coords[k:k + 1], "probe", k)
            # eigvalsh only names a sample that the closed form has refused.
            assert named.called == (not ok)


def test_negativity_check_names_the_sample_in_a_mixed_block():
    # Sample 0 is X-shaped, as a driven run's initial state is; the others are not.  The closed form takes
    # sample 0 and Cholesky the rest; either way a bad sample is named by its index in the whole run.
    rng = np.random.default_rng(12)
    driven = [_rotated_state(rng, lowest) for lowest in (0.0, -0.5 * _TOL, 0.01, -1.5 * _TOL)]
    assert all(np.all(rho[[0, 0, 1, 2], [1, 2, 3, 3]] != 0.0) for rho in driven)
    gg, bad_gg = np.diag([0.0, 0.0, 0.0, 1.0]), np.diag([0.0, 0.0, 1.0 + 1.5 * _TOL, -1.5 * _TOL])
    with mock.patch.object(dynamics, "_cholesky", wraps=dynamics._cholesky) as factored:
        dynamics._check_samples(dynamics._coordinates(np.array([gg, *driven[:3]])), "probe", 100)
        assert factored.call_args.args[0].shape == (3, 16)  # only the driven samples are factored
        for states, k, reached in (([bad_gg, *driven[:3]], 100, False), ([gg, *driven[1:]], 103, True)):
            factored.reset_mock()
            with pytest.raises(NumericalError, match=rf"^probe: negativity -1\.500e-06 at sample {k} "):
                dynamics._check_samples(dynamics._coordinates(np.array(states)), "probe", 100)
            assert factored.called == reached


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lows=st.lists(st.sampled_from([-1e-3, -1e-6, -1e-11, 0.0, 1e-11, 1e-6, 0.1]),
                                                      min_size=1, max_size=8))
def test_column_cholesky_agrees_with_eigvalsh(seed, lows):
    # One batch of states, each of eigenvalues lowest, 0.6 and the rest of the trace in a Haar-random basis: the
    # factor completes exactly where the lowest eigenvalue is positive, away from 0, and then reproduces the state.
    rng = np.random.default_rng(seed)
    states = []
    for lowest in lows:
        u, rest = random_unitary(rng, 4), rng.uniform(0.0, 0.4 - lowest)
        states.append(u @ np.diag([lowest, 0.6, rest, 0.4 - lowest - rest]) @ u.conj().T)
    coords = dynamics._coordinates(np.array(states))
    rho = dynamics._states(coords)
    factor, completed = dynamics._cholesky(coords)
    assert factor.shape == (len(lows), 4, 4) and completed.shape == (len(lows),)
    smallest = np.linalg.eigvalsh(rho)[:, 0]
    decided = np.abs(smallest) >= 1e-12
    np.testing.assert_array_equal(completed[decided], smallest[decided] > 0.0)
    assert np.abs(factor[completed] @ factor[completed].conj().swapaxes(-1, -2) - rho[completed]).max(initial=0.0) \
        <= 1e-14


def test_integrators_refuse_a_generator_with_an_imaginary_part():
    gen = liouvillian_from_params(ISO).astype(complex)
    # An imaginary part that is exactly zero is not refused.
    np.testing.assert_array_equal(evolve_rk4(initial_state("EG"), gen, TimeGrid(0.1, 0.002)).states,
                                  evolve_rk4(initial_state("EG"), gen.real, TimeGrid(0.1, 0.002)).states)
    gen[4, 10] += 1e-300j
    for refuse in (lambda g: evolve_rk4(initial_state("EG"), g, TimeGrid(0.1, 0.002)),
                   steady_state, lambda g: steady_state(np.array([g.real, g]))):
        with pytest.raises(NumericalError, match="imaginary part"):
            refuse(gen)


def _rk4_stepwise(rho0, rhs, grid):
    # Reference: four evaluations of the master equation on 4x4 rho per step, sampled on the grid's stored steps.
    dt = grid.dt
    wanted = set(grid.sample_steps().tolist())
    rho = rho0
    out = []
    for k in range(grid.n_steps + 1):
        if k in wanted:
            out.append(rho)
        k1 = rhs(rho)
        k2 = rhs(rho + (0.5 * dt) * k1)
        k3 = rhs(rho + (0.5 * dt) * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
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
    norm = float(np.abs(gen).sum(axis=1).max())
    assume(norm > 0.0)
    dt = step_fraction * dynamics.MAX_STEP_NORM / norm
    grid = TimeGrid(n_steps * dt, dt, sample_every)
    assert grid.n_steps == n_steps
    rho0 = initial_state(initial)
    traj = evolve_rk4(rho0, gen, grid)
    target, amplitude = drive or (1, 0.0)
    stacked = column_stacked(*model_operators(J, Gamma, phi, kappa, amplitude, target))
    reference = _rk4_stepwise(rho0, lambda rho: (stacked @ rho.T.ravel()).reshape(4, 4).T, grid)
    assert traj.states.shape == reference.shape
    assert traj.states.flags.c_contiguous
    assert traj.times[-1] == n_steps * dt
    assert np.abs(traj.states - reference).max() <= 1e-10


@settings(max_examples=40, deadline=None)
@given(J=st.complex_numbers(max_magnitude=2.0), Gamma=st.floats(0.0, 3.0), phi=st.floats(0.0, 2.0 * math.pi),
       kappa=st.floats(0.0, 0.5), amplitude=st.floats(0.0, 1.5), target=st.sampled_from([1, 2]),
       initial=st.sampled_from(INITIAL_STATE_NAMES) | st.integers(0, 2 ** 16))
def test_rk4_states_are_hermitian_with_unit_trace(J, Gamma, phi, kappa, amplitude, target, initial):
    if isinstance(initial, str):
        rho0 = initial_state(initial)
    else:
        rho0 = random_density_matrix(np.random.default_rng(initial))
        rho0 = 0.5 * (rho0 + rho0.conj().T)
    gen = liouvillian_from_params(model.ModelParams(J, Gamma, phi, kappa, model.Drive(target, amplitude)))
    dt = 0.1 * dynamics.MAX_STEP_NORM / max(1.0, float(np.abs(gen).sum(axis=1).max()))
    states = evolve_rk4(rho0, gen, TimeGrid(2500 * dt, dt, sample_every=3)).states
    np.testing.assert_array_equal(states, states.conj().swapaxes(1, 2))
    assert np.abs(np.trace(states, axis1=1, axis2=2) - 1.0).max() <= 1e-12
    short = TimeGrid(40 * dt, dt)
    reference = _rk4_stepwise(rho0, master_equation(J, Gamma, phi, kappa, amplitude, target), short)
    assert np.abs(evolve_rk4(rho0, gen, short).states - reference).max() <= 1e-10


def test_expm_exact_single_qubit_damping():
    # The oracle behind criterion 7, checked against a closed form first: P1(t) = exp(-gamma t) from |eg>,
    # over uniform intervals of 20 steps and a shorter last one of 7.
    gamma, dt = 1.3, 0.01
    steps = np.append(np.arange(0, 201, 20), 207)
    states = exponential_trajectory(np.zeros((4, 4)), [math.sqrt(gamma) * S1], initial_state("EG"), steps, dt)
    assert states.shape == (len(steps), 4, 4)
    np.testing.assert_allclose((states[:, 0, 0] + states[:, 1, 1]).real, np.exp(-gamma * steps * dt),
                               rtol=0.0, atol=1e-12)


def test_integrator_agreement_generic_parameters():
    params = model.ModelParams(J=1.0, Gamma=1.1, phi=0.9, kappa=0.05,
                               drive=model.Drive(target=2, amplitude=0.3))
    gen = liouvillian_from_params(params)
    grid = TimeGrid(3.0, 0.002, sample_every=50)
    a = evolve_rk4(initial_state("PLUS"), gen, grid)
    b = exponential_trajectory(*model_operators(1.0, 1.1, 0.9, 0.05, 0.3, 2), initial_state("PLUS"),
                               grid.sample_steps(), grid.dt)
    assert np.abs(a.states - b).max() <= 1e-8


def test_spin_expectation_consistency():
    """The qubit-1 coherence obeys its adjoint equation of motion.

    d<s1->/dt = -(Gamma/2 + 2 kappa)<s1-> + (1j J + (Gamma/2) e^{i phi})<s1z s2->,
    with the dephasing term present because kappa > 0 here.
    """
    params = model.ModelParams(J=1.0, Gamma=1.3, phi=0.7, kappa=0.1)
    gen = liouvillian_from_params(params)
    grid = TimeGrid(4.0, 0.002)
    traj = evolve_rk4(initial_state("PLUS"), gen, grid)
    e1 = np.einsum("kij,ji->k", traj.states, S1)
    ez2 = np.einsum("kij,ji->k", traj.states, SZ1 @ S2)
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
    expected = np.sort(np.linalg.svd(gen, compute_uv=False))[1]
    assert abs(result.spectral_gap - expected) <= 1e-12


def test_steady_state_driven_matches_long_time_limit():
    params = model.ModelParams(J=1.0, Gamma=2.0, phi=1.5 * math.pi,
                               drive=model.Drive(target=1, amplitude=8.0 / 11.0))
    gen = liouvillian_from_params(params)
    result = steady_state(gen)
    assert result.unique
    traj = evolve_rk4(initial_state("GG"), gen, TimeGrid(50.0, 0.002, sample_every=250))
    assert np.abs(traj.states[-1] - result.state).max() <= 1e-6
    assert np.linalg.norm(gen @ hermitian_coordinates(result.state)) <= 1e-9


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
    np.testing.assert_array_equal(stacked, singles)
    result = steady_state(stacked)
    assert result.state.shape == (len(cells), 4, 4)
    for k, single in enumerate(singles):
        one = steady_state(single)
        assert type(one.unique) is bool and type(one.spectral_gap) is float
        assert result.unique[k] == one.unique
        assert abs(result.spectral_gap[k] - one.spectral_gap) <= 1e-12
        if one.unique:
            assert np.abs(result.state[k] - one.state).max() <= 1e-10


_UNIT_CELL = st.tuples(
    st.just(0.0) | st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0),
    st.just(0.0) | st.floats(0.1, 3.0),
    st.sampled_from([0.0, math.pi]) | st.floats(0.0, 2.0 * math.pi),
    st.just(0.0) | st.floats(0.01, 0.5),
    st.just(0.0) | st.floats(0.1, 1.5),
)


@settings(max_examples=60, deadline=None)
@given(cell=_UNIT_CELL, exponent=st.floats(-9.0, 9.0))
def test_steady_state_verdict_is_free_of_units(cell, exponent):
    J, Gamma, phi, kappa, amplitude = cell
    c = 10.0 ** exponent
    one = steady_state(liouvillian_from_params(model.ModelParams(J, Gamma, phi, kappa, model.Drive(1, amplitude))))
    scaled = steady_state(liouvillian_from_params(
        model.ModelParams(c * J, c * Gamma, phi, c * kappa, model.Drive(1, c * amplitude))))
    assert scaled.unique == one.unique


@settings(max_examples=40, deadline=None)
@given(J=st.floats(0.1, 2.0) | st.floats(-2.0, -0.1), Gamma=st.floats(0.1, 3.0), k=st.integers(-2, 3),
       exponent=st.floats(-9.0, 9.0))
def test_undriven_dark_phase_is_degenerate_at_every_scale(J, Gamma, k, exponent):
    c = 10.0 ** exponent
    result = steady_state(liouvillian_from_params(model.ModelParams(J=c * J, Gamma=c * Gamma, phi=k * math.pi)))
    assert not result.unique
    assert abs(result.state.trace() - 1.0) <= 1e-9


_DRIVEN = st.tuples(st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0), st.floats(0.1, 3.0),
                    st.floats(0.0, 2.0 * math.pi), st.just(0.0) | st.floats(0.01, 0.5), st.floats(0.2, 1.5))
_DARK = st.tuples(st.floats(0.1, 2.0), st.floats(0.1, 3.0), st.integers(-2, 3).map(lambda k: k * math.pi),
                  st.just(0.0), st.just(0.0))
# Gap / ||L||_2 within a factor 10 above GAP_EPS: a small phase off the dark line, or a weak drive on it.
_NEAR_BOUND = (st.floats(1.2e-4, 3.4e-4).map(lambda phi: (1.0, 2.0, phi, 0.0, 0.0))
               | st.floats(1.4e-4, 3.8e-4).map(lambda w: (1.0, 2.0, 0.0, 0.0, w)))


@settings(max_examples=40, deadline=None)
@given(cells=st.lists(st.tuples(st.just("driven"), _DRIVEN) | st.tuples(st.just("dark"), _DARK)
                      | st.tuples(st.just("near"), _NEAR_BOUND), min_size=1, max_size=8))
def test_steady_state_matches_svd_null_vector(cells):
    gens = np.array([liouvillian_from_params(model.ModelParams(j, g, p, k, model.Drive(1, w)))
                     for _, (j, g, p, k, w) in cells])
    before = gens.copy()
    result = steady_state(gens)
    np.testing.assert_array_equal(gens, before)
    for (kind, (j, g, p, k, w)), gen, rho, unique in zip(cells, gens, result.state, result.unique):
        sing = np.linalg.svd(gen, compute_uv=False)
        ratio = sing[-2] / sing[0]
        assert unique == (ratio > dynamics.GAP_EPS)
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        if kind == "dark":
            assert not unique
        if kind == "near":
            assert dynamics.GAP_EPS < ratio < 10.0 * dynamics.GAP_EPS and unique
        if unique:
            # The null vector of the test's own column-stacked form: near the bound, that of the
            # real R is only good to ~1e-8 (against a 30-digit reference; the state to ~6e-16).
            vh = np.linalg.svd(column_stacked(*model_operators(j, g, p, k, w)))[2]
            null = vh[-1].conj().reshape(4, 4).T
            null = null / np.trace(null)
            assert np.abs(rho - 0.5 * (null + null.conj().T)).max() <= 1e-10


def test_steady_state_takes_singular_vectors_only_on_degenerate_cells(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        calls.append((kwargs.get("compute_uv", args[1] if len(args) > 1 else True), np.shape(a)[:-2]))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    driven = model.ModelParams(J=1.0, Gamma=2.0, phi=np.linspace(0.0, 2.0 * math.pi, 9), drive=model.Drive(1, 1.0))
    assert steady_state(liouvillian_from_params(driven)).unique.all()
    assert calls == [(False, (9,))]
    calls.clear()
    mixed = model.ModelParams(J=1.0, Gamma=2.0, phi=np.array([0.0, 1.0, math.pi]))
    assert steady_state(liouvillian_from_params(mixed)).unique.tolist() == [False, True, False]
    assert calls == [(False, (3,)), (True, (2,))]


# Cells (J, Gamma, phi, kappa, drive target, amplitude) for the sweep's certificate: driven on either qubit,
# undriven, dephased, and near degenerate (a weak drive at phi near pi, or J near 0).
_PHASES = st.floats(0.0, 2.0 * math.pi) | st.integers(-2, 3).map(lambda k: k * math.pi)
_CERTIFY_CELLS = (
    st.tuples(st.floats(-2.0, 2.0), st.floats(0.1, 3.0), _PHASES, st.just(0.0), st.sampled_from([1, 2]),
              st.floats(0.05, 2.0))
    | st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 3.0), _PHASES, st.just(0.0), st.just(1), st.just(0.0))
    | st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 3.0), _PHASES, st.floats(0.01, 1.0), st.sampled_from([1, 2]),
                st.just(0.0) | st.floats(0.05, 2.0))
    | st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 3.0), st.floats(math.pi - 1e-3, math.pi + 1e-3), st.just(0.0),
                st.sampled_from([1, 2]), st.floats(0.0, 1e-3))
    | st.tuples(st.floats(-1e-3, 1e-3), st.floats(0.5, 3.0), _PHASES, st.just(0.0) | st.floats(0.0, 1e-3),
                st.sampled_from([1, 2]), st.just(0.0) | st.floats(0.0, 1e-3))
)
# The 201 x 201 map's three degenerate cells, undriven at phi = 0, pi and 2 pi, beside the same cells weakly driven.
_MAP_CELLS = [(1.0, 2.0, phi, 0.0, 1, w) for w in (0.0, 0.01) for phi in np.linspace(0.0, 2.0 * math.pi, 201)[::100]]


@settings(max_examples=80, deadline=None)
@given(cells=st.lists(_CERTIFY_CELLS, min_size=1, max_size=12), scale=st.sampled_from([1.0, 1e-170, 1e-300]))
@example(cells=_MAP_CELLS, scale=1.0)
@example(cells=_MAP_CELLS, scale=1e-170)  # ||R||_F of these underflows when the squares are not rescaled
def test_sweep_certificate_agrees_with_the_svd_verdict(cells, scale):
    # Every rate times `scale`: the verdicts are free of units, so tiny rates change none of them.
    gens = np.array([liouvillian_from_params(model.ModelParams(j * scale, g * scale, p, k * scale,
                                                               model.Drive(t, w * scale)))
                     for j, g, p, k, t, w in cells])
    taken, svd = [], np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        taken.extend(np.reshape(a, (-1, 16, 16)))
        return svd(a, *args, **kwargs)

    with mock.patch.object(np.linalg, "svd", recording_svd):
        coords, unique, _ = dynamics._steady_coordinates(gens, certify=True)
    # A generator below 2^-600 reaches the SVD scaled by a power of two, so each side is compared at unit scale.
    def unit(gen):
        return np.ldexp(gen, -np.frexp(np.abs(gen).max())[1])

    certified = np.array([not any(np.array_equal(unit(gen), unit(seen)) for seen in taken) for gen in gens])
    result = steady_state(gens)
    # No cell the bound certifies is degenerate by the SVD; every verdict and every state bit is the public one's.
    assert result.unique[certified].all()
    np.testing.assert_array_equal(unique, result.unique)
    np.testing.assert_array_equal(dynamics._states(coords), result.state)
    if cells is _MAP_CELLS:
        assert certified.tolist() == result.unique.tolist() == [False] * 3 + [True] * 3


@pytest.mark.parametrize("params", [
    model.ModelParams(J=1.0, Gamma=2.0, phi=1.5 * math.pi, drive=model.Drive(1, 8.0 / 11.0)),
    ISO,
    model.ModelParams(J=0.3 - 0.8j, Gamma=1.1, phi=2.0, kappa=0.2, drive=model.Drive(2, 1.4)),
], ids=["4a", "iso", "dephased"])
def test_steady_state_at_subnormal_rates(params):
    # R times 2^-1030 is subnormal, which LAPACK alone loses; the state ignores the scale and the gap scales with it.
    tiny = np.ldexp(liouvillian_from_params(params), -1030)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        small, back = steady_state(tiny), steady_state(np.ldexp(tiny, 1030))
    assert small.unique and back.unique
    assert np.abs(small.state - back.state).max() <= 1e-12
    assert abs(np.ldexp(small.spectral_gap, 1030) - back.spectral_gap) <= 1e-9 * back.spectral_gap


def test_steady_state_refuses_a_non_finite_generator(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("svd reached with a non-finite generator")

    gens = np.array([liouvillian_from_params(ISO)] * 3)
    gens[1, 2, 3] = np.nan
    gens[2, 0, 0] = np.inf
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for bad in (gens, gens[1], gens[2]):
        with pytest.raises(NumericalError, match="the generator is not finite"):
            steady_state(bad)


# ---- dark states ----


def test_dark_states_stay_put():
    cases = (("MINUS", 0.0), ("PLUS", math.pi))
    for name, phi in cases:
        gen = liouvillian_from_params(model.ModelParams(J=1.0, Gamma=2.0, phi=phi))
        rho0 = initial_state(name)
        traj = evolve_rk4(rho0, gen, TimeGrid(5.0, 0.002, sample_every=100))
        assert np.abs(traj.states - rho0).max() <= 1e-8
