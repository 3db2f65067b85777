import cmath
import itertools
import math
import os
import subprocess
import sys
import threading
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import dissipair
from dissipair import dynamics, model, observables
from dissipair.dynamics import _coordinates, _states, initial_state, liouvillian_from_params, steady_state
from dissipair.errors import NumericalError, ValidationError
from dissipair.observables import collective_populations, concurrence, damping_forces, populations

from oracles import (
    FLIP,
    collective_transition_rates,
    concurrence_charpoly,
    concurrence_mp,
    concurrence_pure,
    populations_full_matrix,
    random_density_matrix,
    random_pure_state,
    random_unitary,
    state_defects_full_matrix,
    werner_state,
)


# ---- populations ----


def test_populations_basis_states():
    assert populations(initial_state("EG")) == (1.0, 0.0)
    assert populations(initial_state("GG")) == (0.0, 0.0)
    p1, p2 = populations(initial_state("PLUS"))
    assert abs(p1 - 0.5) <= 1e-15 and abs(p2 - 0.5) <= 1e-15


def test_populations_rejects_invalid_states():
    with pytest.raises(NumericalError, match="^state: trace drift 7.000e"):
        populations(2.0 * np.eye(4))
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 1e-3
    with pytest.raises(NumericalError, match="^state is not Hermitian within tolerance"):
        populations(bad)
    with pytest.raises(ValidationError, match="^state must be 4x4"):
        populations(np.eye(2))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.sampled_from([None, 1, 9]), rank=st.integers(1, 4))
def test_linear_readouts_match_full_matrix_formulas(seed, size, rank):
    # Read off the raw coordinates, the six populations agree with the formulas over the whole matrix.
    rng = np.random.default_rng(seed)
    states = np.array([random_density_matrix(rng, rank=rank) for _ in range(size or 1)])
    states = 0.5 * (states + states.conj().swapaxes(-1, -2))
    rho = states if size else states[0]
    pops = collective_populations(rho)
    got = np.array([*populations(rho), pops.P_E, pops.P_plus, pops.P_minus, pops.P_G])
    expected = np.array(populations_full_matrix(rho))
    assert got.shape == expected.shape
    assert np.abs(got - expected).max() <= 1e-15 * np.abs(rho).max()


def test_population_observables_take_stacks():
    rng = np.random.default_rng(127)
    states = np.array([random_density_matrix(rng) for _ in range(5)])
    p1, p2 = populations(states)
    pops = collective_populations(states)
    assert p1.shape == p2.shape == pops.P_E.shape == (5,)
    for k, rho in enumerate(states):
        assert (p1[k], p2[k]) == populations(rho)
        one = collective_populations(rho)
        assert (pops.P_E[k], pops.P_plus[k], pops.P_minus[k], pops.P_G[k]) == (
            one.P_E, one.P_plus, one.P_minus, one.P_G)
    assert type(one.P_E) is float
    empty = np.empty((0, 4, 4))
    for values in (populations(empty), vars(collective_populations(empty)).values(), [concurrence(empty)]):
        for value in values:
            assert value.shape == (0,) and value.dtype == float
    states[3] *= 2.0
    for observable in (populations, collective_populations):
        with pytest.raises(NumericalError, match="^state: trace drift .* at sample 3 exceeds"):
            observable(states)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_observables_reject_non_finite_states(value):
    single = initial_state("PLUS")
    single[1, 2] = single[2, 1] = value
    diagonal = initial_state("EG")
    diagonal[1, 1] = value
    stack = np.array([initial_state("GG")] * 3)
    stack[2, 0, 0] = value
    for observable in (populations, collective_populations, concurrence):
        for rho, where in ((single, "state is"), (diagonal, "state is"), (stack, "state at sample 2 is")):
            with pytest.raises(NumericalError, match=f"{where} not finite"):
                observable(rho)


@pytest.mark.parametrize("rho", ["abc", [[1, 2], [3]], [[0.25, "x"]] * 4, {"rho": 1}],
                         ids=["string", "ragged", "text entry", "dict"])
def test_observables_refuse_non_numeric_input(rho):
    # numpy's own ValueError or TypeError from the conversion does not get out: a state that is no array is invalid.
    for observable in (populations, collective_populations, concurrence):
        with pytest.raises(NumericalError, match="^state must be a numeric array, got "):
            observable(rho)


def _full_matrix_refusal(rho):
    """The message of the full-matrix check's refusal of `rho`, or None: the first sample whose defect fails, NaN or
    inf as not finite, then the sample of largest trace drift."""
    defects, drifts = state_defects_full_matrix(rho)
    bad = np.flatnonzero(~(defects <= 1e-6))
    if bad.size:
        where = f" at sample {bad[0]}" if rho.ndim == 3 else ""
        problem = "is not Hermitian within tolerance" if np.isfinite(defects.flat[bad[0]]) else "is not finite"
        return f"state{where} {problem}"
    drifts = drifts.reshape(-1)
    if drifts.size and not drifts.max() <= 1e-6:
        k = int(drifts.argmax())
        return f"state: trace drift {drifts[k]:.3e} at sample {k} exceeds 1.0e-06"
    return None


# A planted change: sample, row, column, real or imaginary part, and the amount added there.
_PLANTS = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 3), st.booleans(),
                             st.sampled_from([1e-7, 5e-7, 1e-6, 3e-6, 1e-3, -2e-6, math.nan, math.inf, -math.inf])),
                   max_size=4)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 6), single=st.booleans(), plants=_PLANTS)
def test_state_check_matches_full_matrix(seed, size, single, plants):
    # The ten-entry Hermiticity test and the trace of the coordinates give the full-matrix numbers exactly, so the
    # same refusal and sample index.
    rng = np.random.default_rng(seed)
    rho = np.array([random_density_matrix(rng) for _ in range(size)]).reshape(size, 4, 4)
    for k, i, j, imaginary, amount in plants:
        if k < size:
            with np.errstate(invalid="ignore"):  # inf + -inf planted twice is NaN
                (rho.imag if imaginary else rho.real)[k, i, j] += amount
    if single:
        rho = rho[0] if size else random_density_matrix(rng)
    expected = _full_matrix_refusal(rho)
    if expected is not None:
        with pytest.raises(NumericalError) as info:
            observables._checked_coordinates(rho)
        assert str(info.value) == expected
        return
    # Past both, the coordinates of the Hermitian part are refused exactly when an eigenvalue is below -1e-6.
    hermitian = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
    lowest = np.linalg.eigvalsh(hermitian).min(initial=0.0)
    try:
        coords, _ = observables._checked_coordinates(rho)
    except NumericalError as error:
        assert " negativity " in str(error) and lowest < -1e-6 + 1e-12
    else:
        assert lowest >= -1e-6 - 1e-12
        np.testing.assert_allclose(coords, _coordinates(hermitian), rtol=0.0, atol=4e-16)


# ---- concurrence ----


def test_concurrence_maximally_entangled():
    assert abs(concurrence(initial_state("PLUS")) - 1.0) <= 1e-10
    assert abs(concurrence(initial_state("MINUS")) - 1.0) <= 1e-10


def test_concurrence_separable():
    assert concurrence(initial_state("EG")) == 0.0
    assert concurrence(np.eye(4) / 4.0) == 0.0


def test_concurrence_werner_family():
    # closed form: max(0, (3p - 1)/2)
    assert abs(concurrence(werner_state(0.9)) - 0.85) <= 1e-9
    assert abs(concurrence_charpoly(werner_state(0.9)) - 0.85) <= 1e-6
    assert concurrence(werner_state(1.0 / 3.0)) <= 1e-8
    assert concurrence(werner_state(0.2)) == 0.0


def test_concurrence_matches_charpoly_oracle():
    # full-rank states keep the quartic's roots simple, where np.roots is
    # trustworthy; pure states are covered by the closed form below
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        rho = random_density_matrix(rng)
        worst = max(worst, abs(concurrence(rho) - concurrence_charpoly(rho)))
    assert worst <= 1e-8


def test_concurrence_pure_state_formula():
    rng = np.random.default_rng(103)
    for _ in range(100):
        psi = random_pure_state(rng)
        rho = np.outer(psi, psi.conj())
        assert abs(concurrence(rho) - concurrence_pure(psi)) <= 1e-7


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(107)
    for _ in range(50):
        rho = random_density_matrix(rng)
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = u @ rho @ u.conj().T
        assert abs(concurrence(rotated) - concurrence(rho)) <= 1e-8


def _state_with_spectrum(seed, spectrum):
    frame = random_unitary(np.random.default_rng(seed), 4)
    rho = (frame * np.asarray(spectrum)) @ frame.conj().T
    return 0.5 * (rho + rho.conj().T)


# The blocks {ee, gg} and {eg, ge} of an X-shaped state, and the entries between them.
_OUTER, _INNER = [0, 3], [1, 2]
_OFF_X = np.ones((4, 4), dtype=bool)
_OFF_X[np.ix_(_OUTER, _OUTER)] = _OFF_X[np.ix_(_INNER, _INNER)] = False


def _x_state_with_spectrum(seed, spectrum):
    # Eigenvalues 0 and 3 go to the block {ee, gg}, 1 and 2 to {eg, ge}, each in a random frame.
    rng = np.random.default_rng(seed)
    rho = np.zeros((4, 4), dtype=complex)
    for block, pair in ((_OUTER, [0, 3]), (_INNER, [1, 2])):
        frame = random_unitary(rng, 2)
        rho[np.ix_(block, block)] = (frame * np.asarray(spectrum)[pair]) @ frame.conj().T
    return 0.5 * (rho + rho.conj().T)


def test_concurrence_rejects_negative_eigenvalue():
    # Every public observable refuses the same states through one check, X-shaped or not; the populations of
    # diag(1.5, 0, 0, -0.5) would read P1 = 1.5.
    states = [build(113, [0.6, 0.401, 0.0, -1e-3]) for build in (_state_with_spectrum, _x_state_with_spectrum)]
    for observable in (populations, collective_populations, concurrence):
        for rho in states:
            with pytest.raises(NumericalError,
                               match=r"^state: negativity -1\.000e-03 at sample 0 exceeds 1\.0e-06$"):
                observable(rho)
        with pytest.raises(NumericalError,
                           match=r"^state: negativity -5\.000e-01 at sample 0 exceeds 1\.0e-06$"):
            observable(np.diag([1.5, 0.0, 0.0, -0.5]))


def test_concurrence_refuses_entries_near_the_float_limit():
    # A unit-trace state with diagonal +-1e308 is refused by its eigenvalue on both routes: the Hermitian part is
    # formed without overflow, so no NaN reaches the closed form and no inf reaches eigh.
    x_shaped = np.diag([1e308, -1e308, 0.5, 0.5]).astype(complex)
    general = x_shaped.copy()
    general[0, 1] = general[1, 0] = 0.1
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for rho in (x_shaped, general):
            with pytest.raises(NumericalError,
                               match=r"^state: negativity -1\.000e\+308 at sample 0 exceeds 1\.0e-06$"):
                concurrence(rho)


def test_concurrence_clamps_roundoff_negative_eigenvalue():
    for build in (_state_with_spectrum, _x_state_with_spectrum):
        value = concurrence(build(127, [0.6, 0.4 + 1e-12, 0.0, -1e-12]))
        assert math.isfinite(value)
        assert abs(value - concurrence(build(127, [0.6, 0.4 + 1e-12, 0.0, 0.0]))) <= 1e-9


def _eigh_route(coords):
    """The factored concurrence with the eigh factor C = V diag(sqrt(max(lam, 0))) for every sample: the factor
    of the per-sample fallback, and of every sample before the Cholesky factor."""
    values, vectors = np.linalg.eigh(_states(coords))
    factor = vectors * np.sqrt(np.clip(values, 0.0, None))[..., None, :]
    flipped = np.swapaxes(factor, -1, -2)[..., ::-1] * np.array([-1.0, 1.0, 1.0, -1.0])  # C^T (sy kron sy)
    r = np.linalg.svd(flipped @ factor, compute_uv=False)
    return np.maximum(0.0, r[..., 0] - r[..., 1] - r[..., 2] - r[..., 3])


# Spectra of non-X states: full rank, ranks 1-3, and near-pure states whose three small eigenvalues span 1e-15 to 1.
_WEIGHTS = st.floats(0.01, 1.0)
_SPECTRA = st.one_of(
    st.lists(_WEIGHTS, min_size=4, max_size=4),
    st.integers(1, 3).flatmap(lambda rank: st.lists(_WEIGHTS, min_size=rank, max_size=rank)
                              .map(lambda weights: weights + [0.0] * (4 - len(weights)))),
    st.lists(st.floats(-15.0, 0.0), min_size=3, max_size=3).map(lambda logs: [1.0] + [10.0 ** x for x in logs]),
)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), spectrum=_SPECTRA)
@example(seed=1, spectrum=[1.0, 1e-15, 1e-15, 1e-15])
@example(seed=2, spectrum=[1.0, 0.0, 0.0, 0.0])
def test_factored_concurrence_matches_a_50_digit_wootters_value(seed, spectrum):
    # A sample whose Cholesky factor completes is within 1e-12 of the 50-digit value (measured: 1.4e-15 at most
    # over 2 000 draws of these kinds).  A fallback sample takes the eigh factor, which is held to 1e-10: on
    # near-pure cells of the steady map it errs by up to 4.9e-11 (4.2e-15 at most over the same draws).
    rho = _state_with_spectrum(seed, np.array(spectrum) / sum(spectrum))
    assert rho[_OFF_X].any()
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
        value = concurrence(rho)
    assert abs(value - concurrence_mp(rho)) <= (1e-10 if eigh.called else 1e-12)


def test_the_steady_map_cell_that_moved_most_is_closer_to_the_50_digit_value():
    # The 201 x 201 steady map of tools/compare_presets.py (J = 1, Gamma = 2, the drive on qubit 1) moved most at
    # drive amplitude 0.01 and phi = 68 (2 pi / 200), row 269: 3.80626541048862e-05 with the eigh factor,
    # 3.80626051869453e-05 with the Cholesky factor.  The new value is the one within roundoff of mpmath.
    phi, amplitude = np.linspace(0.0, 2.0 * np.pi, 201)[68], np.linspace(0.0, 2.0, 201)[1]
    state = steady_state(liouvillian_from_params(model.ModelParams(1.0, 2.0, phi, 0.0, model.Drive(1, amplitude))))
    coords = _coordinates(state.state)[None]
    new, old = concurrence(state.state), _eigh_route(coords)[0]
    assert (f"{new:.15g}", f"{old:.15g}") == ("3.80626051869453e-05", "3.80626541048862e-05")
    exact = concurrence_mp(state.state)
    assert abs(new - exact) <= 1e-18 < 4e-11 <= abs(old - exact)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), products=st.lists(st.booleans(), min_size=2, max_size=12))
def test_cholesky_failures_fall_back_per_sample(seed, products):
    # Exact product states |g><g| (x) rho2 (first pivot 0) mixed with full-rank states in one batch: each sample
    # has the bits it has alone, eigh is called on the product states only, and they get the eigh route's bits.
    rng = np.random.default_rng(seed)
    rho2 = [random_density_matrix(rng, 2) for _ in products]
    stack = np.array([np.kron(np.diag([0.0, 1.0]), one) if product else random_density_matrix(rng)
                      for one, product in zip(rho2, products)])
    coords, fallen = _coordinates(stack), np.array(products)
    assert stack[:, _OFF_X].any(axis=1).all()
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
        batched = observables._factored_piece(_factors(coords))
    assert [len(call.args[0]) for call in eigh.call_args_list] == ([int(fallen.sum())] if fallen.any() else [])
    np.testing.assert_array_equal(batched, np.concatenate([observables._factored_piece(_factors(c[None]))
                                                           for c in coords]))
    np.testing.assert_array_equal(batched[fallen], _eigh_route(coords[fallen]))


def test_rank_deficient_batches_agree_with_the_eigh_factor():
    # A rank-deficient state ends its Cholesky factor on pivots of roundoff size, positive in some samples.  The
    # factor's diagonal must be the real root of each pivot: the imaginary part of the trailing diagonal is
    # roundoff of the updates (c conj(c) has a nonzero imaginary part where numpy fuses multiply and add), and a
    # diagonal taken as the complex entry over that root put errors up to 1e-3 on about 2 in 1 000 rank-2 samples.
    rng = np.random.default_rng(137)
    for rank in (1, 2, 3):
        coords = _random_coordinates(rng, 2000, rank)
        np.testing.assert_allclose(observables._factored_piece(_factors(coords)), _eigh_route(coords), rtol=0.0,
                                   atol=1e-12)


@pytest.mark.parametrize("diagonal", [0.0, 5e-324, 1e-300])
@pytest.mark.parametrize("coherence", [1e-6, 5e-4])
@pytest.mark.parametrize("level", [0, 1, 3])
def test_a_tiny_diagonal_beside_a_coherence_falls_back_without_a_warning(level, coherence, diagonal):
    # The state passes the state check (its lowest eigenvalue is about -coherence^2 / 0.5 >= -1e-6), but the
    # Cholesky column coherence / sqrt(diagonal) is infinite or overflows when squared: the sample takes the eigh
    # factor, with a finite concurrence and no RuntimeWarning, which pytest turns into an error.
    rho = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    rho[level, level] = diagonal
    partner = 2 if level == 3 else 1 - level  # (0, 1), (1, 0) and (3, 2) sit between the X blocks
    rho[level, partner], rho[partner, level] = coherence * 1j, -coherence * 1j
    rho[partner, partner] += 0.25 - diagonal
    with warnings.catch_warnings(), mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
        warnings.simplefilter("error", RuntimeWarning)
        value = concurrence(rho)
    assert eigh.called and math.isfinite(value)
    assert value == _eigh_route(_coordinates(rho)[None])[0]


def _random_x_state(rng, ranks):
    rho = np.zeros((4, 4), dtype=complex)
    for block, rank in zip((_OUTER, _INNER), ranks):
        g = rng.standard_normal((2, rank)) + 1j * rng.standard_normal((2, rank))
        rho[np.ix_(block, block)] = g @ g.conj().T
    return rho / np.trace(rho).real


_BELL_EE_GG = np.zeros((4, 4))
_BELL_EE_GG[np.ix_(_OUTER, _OUTER)] = 0.5  # (|ee> + |gg>) / sqrt2, the pure state with rho_03 != 0


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       ranks=st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any),
       named=st.sampled_from([None, None, None, "EE", "EG", "GE", "GG", "PLUS", "MINUS", "BELL_EE_GG"]))
def test_x_states_match_their_local_unitary_rotations(seed, ranks, named):
    # An X-shaped state takes the closed form; its rotation (u kron v) rho (u kron v)' is not X-shaped and takes
    # the factored route.  Concurrence is invariant under local unitaries, so the two routes must agree.
    rng = np.random.default_rng(seed)
    if named is None:
        rho = _random_x_state(rng, ranks)
    else:
        rho = _BELL_EE_GG if named == "BELL_EE_GG" else initial_state(named)
    u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
    rotated = u @ rho @ u.conj().T
    assert not rho[_OFF_X].any() and rotated[_OFF_X].any()
    assert abs(concurrence(rho) - concurrence(rotated)) <= 1e-12


def test_mixed_stack_routes_each_sample_and_matches_single_calls():
    rng = np.random.default_rng(131)
    x_states = [_random_x_state(rng, (2, 1)), initial_state("PLUS"), _random_x_state(rng, (1, 2))]
    others = [random_density_matrix(rng, rank=rank) for rank in (4, 2, 1)]
    stack = np.array([x_states[0], others[0], others[1], x_states[1], others[2], x_states[2]])
    with mock.patch.object(observables, "_x_route", wraps=observables._x_route) as x_route, \
            mock.patch.object(observables, "_factored_route", wraps=observables._factored_route) as factored:
        batched = concurrence(stack)
        assert [len(call.args[0]) for call in x_route.call_args_list] == [3]
        assert [len(call.args[0]) for call in factored.call_args_list] == [3]
        np.testing.assert_array_equal(batched, [concurrence(rho) for rho in stack])
        # A route that takes every sample is handed the coordinates, or the check's factors, themselves.
        for single_route in (np.array(x_states), np.array(others)):
            x_route.reset_mock()
            factored.reset_mock()
            coords = _coordinates(single_route)
            checked = dynamics._check_samples(coords, "probe")
            observables._concurrence(coords, checked)
            (call,) = x_route.call_args_list + factored.call_args_list
            assert call.args[0] is (coords if checked[1] is None else checked[1])


def _random_coordinates(rng, n, rank):
    """Raw coordinates of n Ginibre states of the given rank, none of them X-shaped."""
    g = rng.standard_normal((n, 4, rank)) + 1j * rng.standard_normal((n, 4, rank))
    rho = g @ g.conj().swapaxes(-1, -2)
    return _coordinates(rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None])


def _factors(coords):
    """The factors C, C C' = rho, that the sample check builds for coordinates none of which is X-shaped."""
    x_shaped, factor = dynamics._check_samples(coords, "probe")
    assert not x_shaped.any()
    return factor


@pytest.fixture
def four_cores(monkeypatch):
    """The process may use four CPUs and has a pool of its own, so the factored route splits on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(observables, "_POOL", {})
    yield
    for pool in observables._POOL.values():
        pool.shutdown()


@settings(max_examples=2, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2000, 5000), rank=st.sampled_from([1, 2, 4]))
@example(seed=1, n=2047, rank=1)  # one piece
@example(seed=2, n=3072, rank=2)  # three pieces
@example(seed=3, n=5000, rank=4)  # four pieces
def test_split_factored_route_matches_its_pieces_and_single_states(four_cores, seed, n, rank):
    # min(cores, N // 1024) pieces go to the pool and the calling thread: the joined result has the bits of each
    # piece computed alone and of each state's own concurrence.
    coords = _random_coordinates(np.random.default_rng(seed), n, rank)
    factor = _factors(coords)
    pieces = np.array_split(factor, max(1, min(4, n // 1024)))
    with mock.patch.object(observables, "_factored_piece", wraps=observables._factored_piece) as piece:
        got = observables._factored_route(factor)
    assert piece.call_count == len(pieces)
    np.testing.assert_array_equal(got, np.concatenate([observables._factored_piece(part) for part in pieces]))
    np.testing.assert_array_equal(got, [concurrence(rho) for rho in _states(coords)])


def test_a_workers_linalg_error_reaches_the_caller(four_cores, monkeypatch, tmp_path):
    # svd, which every piece calls, fails on the pieces that pool threads take: the error is raised in the calling
    # thread, and the CLI, whose driven figure's 2 500-sample blocks split, exits 3 (numeric) without writing the
    # table.
    svd = np.linalg.svd

    def failing_off_the_main_thread(a, *args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing_off_the_main_thread)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        observables._factored_route(_factors(_random_coordinates(np.random.default_rng(7), 4096, 4)))
    from dissipair.cli import main
    assert main(["figure", "4a", "--out", str(tmp_path)]) == 3
    assert not list(tmp_path.iterdir())


def test_caller_threads_split_at_once(four_cores):
    # More caller threads than pool threads split at once, with thread switches forced often: every caller gets
    # the values of its own samples.
    factors = [_factors(_random_coordinates(np.random.default_rng(seed), 2048 + 512 * seed, 4)) for seed in range(6)]
    expected = [observables._factored_piece(f) for f in factors]
    got = [None] * len(factors)

    def call(k):
        got[k] = observables._factored_route(factors[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(k,)) for k in range(len(factors))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k in range(len(factors)):
        np.testing.assert_array_equal(got[k], expected[k])


_FORKED_SPLIT = """
import os, sys, time
import numpy as np
os.sched_getaffinity = lambda pid: {0, 1}
from dissipair import observables
factor = np.tile(0.5 * np.eye(4, dtype=complex), (4096, 1, 1))  # the factor of I / 4
first = observables._factored_route(factor)  # builds the pool
pid = os.fork()
if pid == 0:
    os._exit(0 if np.array_equal(observables._factored_route(factor), first) else 1)
deadline = time.monotonic() + 60.0
while time.monotonic() < deadline:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        sys.exit(os.waitstatus_to_exitcode(status))
    time.sleep(0.01)
os.kill(pid, 9)
os.waitpid(pid, 0)
sys.exit("the forked child's split did not finish within 60 s")
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_splits_with_a_pool_of_its_own():
    # The child's copy of the parent's pool has no worker threads: without the reset at fork its first split
    # would wait for ever on the piece it submitted.
    src = os.path.dirname(os.path.dirname(os.path.abspath(dissipair.__file__)))
    done = subprocess.run([sys.executable, "-c", _FORKED_SPLIT], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), x_shaped=st.integers(0, 6), general=st.integers(0, 6),
       rank=st.sampled_from([4, 2, 1]))
def test_concurrence_of_coordinates_is_the_public_concurrence(seed, x_shaped, general, rank):
    # States built from coordinates, as a trajectory table holds them, are Hermitian by construction: the private
    # function on their coordinates gives the public function's bits, for X-shaped, general and mixed stacks.
    rng = np.random.default_rng(seed)
    stack = [_random_x_state(rng, (rng.integers(0, 3), rng.integers(1, 3))) for _ in range(x_shaped)]
    stack += [random_density_matrix(rng, rank=rank) for _ in range(general)]
    stack = _states(_coordinates(np.array(stack).reshape(-1, 4, 4)[rng.permutation(len(stack))]))
    coords = _coordinates(stack)
    got = observables._concurrence(coords, dynamics._check_samples(coords, "state"))
    assert got.dtype == float and got.shape == (len(stack),)
    np.testing.assert_array_equal(got, concurrence(stack))
    np.testing.assert_array_equal(got, [concurrence(rho) for rho in stack])


def _concurrence_rank2(rho):
    # rho rho_tilde has two zero eigenvalues here, which np.roots resolves
    # only to ~5e-4 in the concurrence; the nonzero pair follows from two
    # power traces.
    m = rho @ FLIP @ rho.conj() @ FLIP
    t1 = np.trace(m).real
    t2 = np.trace(m @ m).real
    split = math.sqrt(max(2.0 * t2 - t1 * t1, 0.0))
    return max(0.0, math.sqrt(0.5 * (t1 + split)) - math.sqrt(max(0.5 * (t1 - split), 0.0)))


def _concurrence_rank1(rho):
    column = rho[:, np.argmax(np.linalg.norm(rho, axis=0))]
    return concurrence_pure(column / np.linalg.norm(column))


# Independent reference for each Ginibre rank; the quartic's repeated zero
# roots keep concurrence_charpoly to full-rank states at this tolerance.
_REFERENCE_BY_RANK = {4: concurrence_charpoly, 2: _concurrence_rank2, 1: _concurrence_rank1}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 12), rank=st.sampled_from([4, 2, 1]))
def test_concurrence_stack_matches_scalar_and_oracle(seed, size, rank):
    rng = np.random.default_rng(seed)
    stack = np.array([random_density_matrix(rng, rank=rank) for _ in range(size)])
    batched = concurrence(stack)
    assert batched.shape == (size,)
    reference = _REFERENCE_BY_RANK[rank]
    for rho, value in zip(stack, batched):
        single = concurrence(rho)
        assert isinstance(single, float)
        assert abs(value - single) <= 1e-12
        assert abs(value - reference(rho)) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 12), data=st.data(),
       defect=st.sampled_from(["non_hermitian", "trace"]))
def test_concurrence_stack_rejects_one_invalid_sample(seed, size, data, defect):
    rng = np.random.default_rng(seed)
    stack = np.array([random_density_matrix(rng) for _ in range(size)])
    k = data.draw(st.integers(0, size - 1))
    if defect == "non_hermitian":
        stack[k, 0, 1] += 1e-3
    else:
        stack[k] *= 1.01
    with pytest.raises(NumericalError, match=f"sample {k} "):
        concurrence(stack)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 12))
def test_concurrence_vanishes_on_product_states(seed, size):
    # Square roots of eigenvalues at roundoff level would read ~1e-8 here.
    rng = np.random.default_rng(seed)
    pure = []
    for _ in range(size):
        psi = np.kron(random_pure_state(rng, 2), random_pure_state(rng, 2))
        pure.append(np.outer(psi, psi.conj()))
    mixed = [np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2)) for _ in range(size)]
    assert np.all(concurrence(np.array(pure + mixed)) <= 1e-12)


# ---- collective basis ----


def test_collective_populations_examples():
    pops = collective_populations(initial_state("GG"))
    assert (pops.P_E, pops.P_plus, pops.P_minus, pops.P_G) == (0.0, 0.0, 0.0, 1.0)
    pops = collective_populations(initial_state("EG"))
    assert abs(pops.P_plus - 0.5) <= 1e-15 and abs(pops.P_minus - 0.5) <= 1e-15


def test_collective_populations_sum_rule():
    rng = np.random.default_rng(113)
    for _ in range(50):
        pops = collective_populations(random_density_matrix(rng))
        total = pops.P_E + pops.P_plus + pops.P_minus + pops.P_G
        assert abs(total - 1.0) <= 1e-9


# ---- damping forces ----


def test_damping_forces_extremes():
    iso = damping_forces(1.0, 2.0, 1.5 * math.pi)
    assert iso.F12 <= 1e-15
    assert abs(iso.F21 - 2.0) <= 1e-15
    assert abs(iso.delta_F + 1.0) <= 1e-15

    rev = damping_forces(1.0, 2.0, 0.5 * math.pi)
    assert abs(rev.delta_F - 1.0) <= 1e-15


def test_damping_forces_reciprocal_cases():
    off = damping_forces(1.0, 0.0, 2.3)
    assert off.F12 == off.F21 == 1.0 and off.delta_F == 0.0
    assert abs(damping_forces(1.0, 2.0, math.pi).delta_F) <= 1e-15
    assert damping_forces(0.0, 0.0, 1.0).delta_F == 0.0


def _delta_F_cmath(J, Gamma, phi):
    # Scalar transcription of the closed form, one cell at a time.
    half = 0.5 * Gamma
    f12 = abs(1j * J + half * cmath.exp(1j * phi))
    f21 = abs(1j * J.conjugate() + half * cmath.exp(-1j * phi))
    total = f12 + f21
    return (f12 - f21) / total if total > 0.0 else 0.0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
            st.floats(0.0, 10.0),
            st.floats(-7.0, 7.0),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_damping_forces_broadcast_properties(cells):
    cells = cells + [(0j, 0.0, cells[0][2])]  # both forces vanish here
    J, Gamma, phi = (np.array(column) for column in zip(*cells))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = damping_forces(J, Gamma, phi)
        mirrored = damping_forces(J.conj(), Gamma, -phi)
        real = damping_forces(J.real, Gamma, phi)
        real_reversed = damping_forces(J.real, Gamma, -phi)
    assert report.delta_F.shape == (len(cells),)
    for k, (j, g, p) in enumerate(cells):
        one = damping_forces(j, g, p)
        for got, want in ((report.F12[k], one.F12), (report.F21[k], one.F21), (report.delta_F[k], one.delta_F)):
            assert abs(got - want) <= 1e-14 * max(1.0, abs(want))
        assert abs(report.delta_F[k] - _delta_F_cmath(j, g, p)) <= 1e-12
    assert report.delta_F[-1] == 0.0
    assert np.all(np.abs(report.delta_F) <= 1.0)
    # Swapping the directions conjugates J and reverses phi; for real J this
    # is delta_F(-phi) = -delta_F(phi).
    np.testing.assert_allclose(mirrored.delta_F, -report.delta_F, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(real_reversed.delta_F, -real.delta_F, rtol=0.0, atol=1e-12)


def test_damping_forces_near_the_float_limit():
    # F12 + F21 overflows here though both forces are finite; delta_F at 50 digits, from mpmath.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = damping_forces(1e308, 1e308, 1.0)
        # A force beyond the float range is refused, in a scalar cell or an array of them.
        for J, phi, named in ((1.7e308, 0.5 * math.pi, "F12"), (1.7e308, -0.5 * math.pi, "F21"),
                              (np.array([1.0, 1.7e308]), 0.5 * math.pi, "F12")):
            with pytest.raises(ValidationError, match=f"^{named} must be finite, got inf$"):
                damping_forces(J, 1e308, phi)
    exact = 0.38699851394797150797503242241770653106580498329435
    assert math.isinf(report.F12 + report.F21)
    assert abs(report.delta_F - exact) <= 2.0 * math.ulp(exact)


def test_damping_forces_at_subnormal_scale():
    # J and Gamma are scaled together before the forces are formed, so a subnormal cell keeps its bits;
    # delta_F at 50 digits, from mpmath, on the same float inputs.
    rng = np.random.default_rng(151)
    J, Gamma = 10.0 ** rng.uniform(-323.0, -300.0, (2, 300))
    phi = rng.uniform(0.0, 2.0 * math.pi, 300)
    report = damping_forces(J, Gamma, phi)
    with mpmath.workdps(50):
        for k in range(len(phi)):
            half_e = mpmath.mpf(Gamma[k]) / 2 * mpmath.expj(mpmath.mpf(phi[k]))
            f12, f21 = (abs(1j * mpmath.mpf(J[k]) + h) for h in (half_e, mpmath.conj(half_e)))
            assert abs(report.delta_F[k] - float((f12 - f21) / (f12 + f21))) <= 2.0 * np.finfo(float).eps
            assert abs(report.F12[k] - float(f12)) <= 4.0 * np.finfo(float).eps * float(f12) + math.ulp(0.0)


def test_damping_forces_complex_coupling_isolation():
    # J = i (Gamma/2) e^{i phi} silences the force on qubit 1 at any phase
    rng = np.random.default_rng(131)
    for _ in range(20):
        g = rng.uniform(0.5, 4.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        j = 1j * 0.5 * g * cmath.exp(1j * phi)
        report = damping_forces(j, g, phi)
        assert report.F12 <= 1e-15
        assert abs(report.delta_F + 1.0) <= 1e-15


def test_damping_forces_rejects_negative_rate():
    with pytest.raises(ValidationError, match="^Gamma must be >= 0"):
        damping_forces(1.0, -2.0, 0.0)
    with pytest.raises(ValidationError, match="got -3.0"):
        damping_forces(1.0, np.array([1.0, -2.0, -3.0]), 0.0)
    with pytest.raises(ValidationError, match="^phi must be finite, got inf"):
        damping_forces(1.0, 2.0, np.array([[0.0, np.inf], [np.nan, 1.0]]))


# ---- collective decay rates ----


def test_collective_decay_rates_of_the_generator():
    # Rates |ee> -> |+>, |+> -> |gg>, |ee> -> |->, |-> -> |gg> are Gamma |1 + e|^2 / 2 twice, then
    # Gamma |1 - e|^2 / 2 twice, e = exp(i phi): |-> is dark at phi = 0, |+> at pi, and all four balance at 3 pi/2.
    for Gamma, phi in itertools.product((0.7, 2.0, 5e5), (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi, 1.0)):
        rates = collective_transition_rates(
            liouvillian_from_params(model.ModelParams(J=1.0, Gamma=Gamma, phi=phi, kappa=0.3)))
        e = cmath.exp(1j * phi)
        expected = 2 * [0.5 * Gamma * abs(1.0 + e) ** 2] + 2 * [0.5 * Gamma * abs(1.0 - e) ** 2]
        assert np.abs(np.subtract(rates, expected)).max() <= 1e-12 * Gamma


def _decay_amplitude_moduli(Gamma, phi):
    # Moduli of the amplitudes of |ee> -> |+>, |+> -> |gg>, |ee> -> |->, |-> -> |gg>, read off the generator.
    rates = collective_transition_rates(
        liouvillian_from_params(model.ModelParams(J=1.0, Gamma=Gamma, phi=phi, kappa=0.3)))
    return np.sqrt(np.maximum(rates, 0.0))


def test_decay_amplitudes_dark_phases():
    e_plus, plus_g, e_minus, minus_g = _decay_amplitude_moduli(2.0, 0.0)
    assert e_minus <= 1e-6 and minus_g <= 1e-6
    assert abs(e_plus - 2.0) <= 1e-12 and abs(plus_g - 2.0) <= 1e-12

    e_plus, plus_g, e_minus, minus_g = _decay_amplitude_moduli(2.0, math.pi)
    assert e_plus <= 1e-6 and plus_g <= 1e-6
    assert abs(e_minus - 2.0) <= 1e-12 and abs(minus_g - 2.0) <= 1e-12


def test_decay_amplitudes_balanced_phase():
    for amp in _decay_amplitude_moduli(2.0, 1.5 * math.pi):
        assert abs(amp - math.sqrt(2.0)) <= 1e-12
