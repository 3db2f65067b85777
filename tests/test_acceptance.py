"""Acceptance gate: every stated requirement at its stated tolerance.

Each test prints one ``ACCEPTANCE <n> PASS/FAIL - <label>`` line (shown
under ``pytest -s``) before asserting.  Trajectories are integrated once
and shared between criteria through a module cache, which keeps the whole
gate well under a minute.
"""

import cmath
import math
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dissipair import model
from dissipair.dynamics import (
    TimeGrid,
    evolve_expm,
    evolve_rk4,
    initial_state,
    liouvillian_from_params,
    steady_state,
)
from dissipair.experiments import figure_trajectory_runs, run_figure
from dissipair.observables import concurrence, damping_forces

from oracles import (
    collective_transition_rates,
    concurrence_charpoly,
    five_point_derivative,
    hermitian_coordinates,
    lindblad,
    random_density_matrix,
)

ISO = model.ModelParams(J=1.0, Gamma=2.0, phi=1.5 * math.pi)
ALIGNED = model.ModelParams(J=1.0, Gamma=2.0, phi=0.0)
OPPOSED = model.ModelParams(J=1.0, Gamma=2.0, phi=math.pi)
DRIVE_Q1 = model.ModelParams(J=1.0, Gamma=2.0, phi=1.5 * math.pi,
                             drive=model.Drive(target=1, amplitude=8.0 / 11.0))
DRIVE_Q2 = model.ModelParams(J=1.0, Gamma=2.0, phi=1.5 * math.pi,
                             drive=model.Drive(target=2, amplitude=8.0 / 11.0))
SHORT = TimeGrid(5.0, 0.002)
LONG = TimeGrid(50.0, 0.002, sample_every=10)

_GENERATORS = {}
_TRAJECTORIES = {}


def _generator(params):
    if params not in _GENERATORS:
        _GENERATORS[params] = liouvillian_from_params(params)
    return _GENERATORS[params]


def _trajectory(params, initial, grid, method="rk4"):
    key = (params, initial, grid, method)
    if key not in _TRAJECTORIES:
        integrate = evolve_rk4 if method == "rk4" else evolve_expm
        _TRAJECTORIES[key] = integrate(initial_state(initial), _generator(params), grid)
    return _TRAJECTORIES[key]


def _preset_runs():
    """Every distinct integration behind the trajectory presets."""
    seen = {}
    for runs in figure_trajectory_runs().values():
        for run in runs:
            seen[(run.params, run.initial, run.grid)] = run
    return list(seen.values())


def _p1(states):
    return (states[:, 0, 0] + states[:, 1, 1]).real


def _concurrences(states):
    return np.array([concurrence(rho) for rho in states])


def _report(num, label, ok):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_1_isolation_extremes():
    defects = [
        abs(damping_forces(1.0, 2.0, 1.5 * math.pi).delta_F + 1.0),
        abs(damping_forces(1.0, 2.0, 0.5 * math.pi).delta_F - 1.0),
    ]
    defects += [abs(damping_forces(1.0, 2.0, n * math.pi).delta_F) for n in (0, 1, 2)]
    # The paper's geometry: a separation d = (4n + 3) lambda0 / 4 gives phi = 2 pi d / lambda0 = 3 pi/2 mod 2 pi.
    wavelength = 0.3
    for n in range(4):
        phi = 2.0 * math.pi * ((4 * n + 3) * wavelength / 4.0) / wavelength
        defects += [abs(phi % (2.0 * math.pi) - 1.5 * math.pi), abs(damping_forces(1.0, 2.0, phi).delta_F + 1.0)]
    _report(1, "isolation ratio hits -1 at (4n+3)/4-wavelength separations, +1, and vanishes at multiples of pi",
            max(defects) <= 1e-12)


def test_criterion_2_analytic_decay():
    traj = _trajectory(ISO, "EG", SHORT)
    deviation = np.abs(_p1(traj.states) - np.exp(-2.0 * traj.times)).max()
    _report(2, f"P1 follows exp(-Gamma t) to {deviation:.2e}", deviation <= 1e-7)


def test_criterion_3_full_isolation():
    traj = _trajectory(ISO, "GE", SHORT)
    leak = _p1(traj.states).max()
    _report(3, f"qubit 1 stays unexcited (max P1 = {leak:.2e})", leak <= 1e-8)


def test_criterion_4_one_way_entanglement():
    quiet = _concurrences(_trajectory(ISO, "GE", SHORT).states).max()
    peak = _concurrences(_trajectory(ISO, "EG", SHORT).states).max()
    mismatch = np.abs(
        _concurrences(_trajectory(ALIGNED, "EG", SHORT).states)
        - _concurrences(_trajectory(ALIGNED, "GE", SHORT).states)
    ).max()
    ok = quiet <= 1e-9 and peak > 0.1 and mismatch <= 1e-9
    _report(4, f"entanglement is one-way (peak {peak:.3f}, quiet {quiet:.1e}, reciprocal gap {mismatch:.1e})", ok)


def test_criterion_5_dark_states():
    drift_minus = np.abs(_trajectory(ALIGNED, "MINUS", SHORT).states - initial_state("MINUS")).max()
    drift_plus = np.abs(_trajectory(OPPOSED, "PLUS", SHORT).states - initial_state("PLUS")).max()
    # At 3 pi/2 the simulated generator decays |ee> -> |+-> and |+-> -> |gg> all at the rate Gamma.
    balance = max(abs(rate - ISO.Gamma) for rate in collective_transition_rates(_generator(ISO))) / ISO.Gamma
    ok = drift_minus <= 1e-8 and drift_plus <= 1e-8 and balance <= 1e-12
    _report(5, f"dark states hold (drift {max(drift_minus, drift_plus):.1e}, decay-rate spread {balance:.1e})", ok)


def test_criterion_6_driven_steady_state():
    result = steady_state(_generator(DRIVE_Q1))
    reference = concurrence(result.state)
    finals = [
        _concurrences(_trajectory(DRIVE_Q1, name, LONG).states[-1:])[0]
        for name in ("E", "PLUS", "MINUS", "G")
    ]
    spread = max(finals) - min(finals)
    offset = max(abs(c - reference) for c in finals)
    dead = max(
        _concurrences(_trajectory(DRIVE_Q2, name, LONG).states[-1:])[0]
        for name in ("E", "PLUS", "MINUS", "G")
    )
    ok = result.unique and spread <= 1e-6 and offset <= 1e-6 and dead <= 1e-6
    _report(
        6,
        f"drive on Q1 pins C = {reference:.6f} from every start (spread {spread:.1e}); on Q2 it dies ({dead:.1e})",
        ok,
    )


def test_criterion_7_oracle_equivalence():
    worst_prop = 0.0
    for run in _preset_runs():
        a = _trajectory(run.params, run.initial, run.grid, "rk4")
        b = _trajectory(run.params, run.initial, run.grid, "expm")
        worst_prop = max(worst_prop, float(np.abs(a.states - b.states).max()))
    rng = np.random.default_rng(7001)
    worst_conc = 0.0
    for _ in range(1000):
        rho = random_density_matrix(rng)
        worst_conc = max(worst_conc, abs(concurrence(rho) - concurrence_charpoly(rho)))
    ok = worst_prop <= 1e-8 and worst_conc <= 1e-8
    _report(7, f"integrators agree to {worst_prop:.1e}; concurrence routes to {worst_conc:.1e}", ok)


def test_criterion_8_state_invariants():
    worst_trace = worst_herm = worst_fd = 0.0
    lowest = 1.0
    for run in _preset_runs():
        traj = _trajectory(run.params, run.initial, run.grid, "rk4")
        states = traj.states
        worst_trace = max(worst_trace, float(np.abs(np.einsum("kii->k", states) - 1.0).max()))
        worst_herm = max(worst_herm, float(np.abs(states - np.conj(np.transpose(states, (0, 2, 1)))).max()))
        sym = 0.5 * (states + np.conj(np.transpose(states, (0, 2, 1))))
        lowest = min(lowest, float(np.linalg.eigvalsh(sym)[:, 0].min()))
        worst_fd = max(worst_fd, _coherence_equation_defect(run.params, traj))
    ok = worst_trace <= 1e-8 and worst_herm <= 1e-8 and lowest >= -1e-6 and worst_fd <= 1e-5
    _report(
        8,
        f"trace {worst_trace:.1e}, hermiticity {worst_herm:.1e}, negativity {lowest:.1e}, "
        f"coherence equation {worst_fd:.1e}",
        ok,
    )


def _coherence_equation_defect(params, traj):
    """Residual of the qubit-1 coherence equation of motion along a run.

    d<s1->/dt = -(Gamma/2)<s1-> + (1j J + (Gamma/2) e^{i phi})<s1z s2->,
    plus 1j Omega <s1z> when the drive acts on qubit 1.
    """
    spacing = float(traj.times[1] - traj.times[0])
    assert np.abs(np.diff(traj.times) - spacing).max() <= 1e-9
    e1 = np.einsum("kij,ji->k", traj.states, model.sigma_minus(1))
    ez2 = np.einsum("kij,ji->k", traj.states, model.sigma_z(1) @ model.sigma_minus(2))
    coupling = 1j * complex(params.J) + 0.5 * params.Gamma * cmath.exp(1j * params.phi)
    rhs = -0.5 * params.Gamma * e1 + coupling * ez2
    if params.drive is not None and params.drive.target == 1:
        z1 = np.einsum("kij,ji->k", traj.states, model.sigma_z(1))
        rhs = rhs + 1j * params.drive.amplitude * z1
    lhs = five_point_derivative(e1, spacing)
    return float(np.abs(lhs - rhs[2:-2]).max())


def test_criterion_9_deterministic_output(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    first.mkdir()
    second.mkdir()
    a = Path(run_figure("2a", str(first))).read_bytes()
    b = Path(run_figure("2a", str(second))).read_bytes()
    _report(9, "repeated figure 2a runs are byte-identical", a == b)


# One qubit, basis (|e>, |g>): the orthonormal Hermitian basis I, sx, sy, sz over sqrt2, and its lowering operator.
_PAULI = np.array([np.eye(2), [[0.0, 1.0], [1.0, 0.0]], [[0.0, -1.0j], [1.0j, 0.0]], np.diag([1.0, -1.0])])
_PAULI = _PAULI / math.sqrt(2.0)
_LOWER = np.array([[0.0, 0.0], [1.0, 0.0]])
# Columns: orthonormal coordinates of qubit 1's operators b kron I / sqrt2, spanning a 4-dimensional subspace,
# and of qubit 2's operators I kron b / sqrt2.
_QUBIT1 = hermitian_coordinates(np.array([np.kron(b, np.eye(2)) for b in _PAULI]) / math.sqrt(2.0)).T
_QUBIT2 = hermitian_coordinates(np.array([np.kron(np.eye(2), b) for b in _PAULI]) / math.sqrt(2.0)).T


def _cascade_defects(J, Gamma, phi, kappa, drive, qubit=1):
    """Closure of one qubit's operators under R^T, and their distance from that qubit's own generator, over max|R|.

    Lq is one qubit with decay Gamma, dephasing kappa and the drive if it acts on qubit q.  For qubit 1,
    Tr_2(L rho) = L1(Tr_2 rho) for every rho exactly when R^T Q = Q R1^T, with Q the columns of _QUBIT1;
    likewise for qubit 2 with _QUBIT2.
    """
    gen = liouvillian_from_params(model.ModelParams(J=J, Gamma=Gamma, phi=phi, kappa=kappa, drive=drive))
    omega = drive.amplitude if drive is not None and drive.target == qubit else 0.0
    rhs = lindblad(omega * math.sqrt(2.0) * _PAULI[1], [math.sqrt(Gamma) * _LOWER, math.sqrt(kappa * 2.0) * _PAULI[3]])
    gen_q = np.einsum("aji,bij->ab", _PAULI, rhs(_PAULI)).real
    ops = _QUBIT1 if qubit == 1 else _QUBIT2
    heisenberg = gen.T @ ops
    scale = np.abs(gen).max()
    closure = np.abs(heisenberg - ops @ (ops.T @ heisenberg)).max() / scale
    return closure, np.abs(heisenberg - ops @ gen_q.T).max() / scale


def test_criterion_10_exact_headline_claims():
    # Cascaded closure: at Gamma = 2|J| and e^{i phi} = -2iJ/Gamma qubit 1 evolves on its own, whatever qubit 2 does.
    # Swapping the qubits maps (J, phi) to (J*, -phi), so at e^{i phi} = +2iJ/Gamma qubit 2 evolves on its own.
    worst, control = [0.0, 0.0], [math.inf, math.inf]

    @settings(max_examples=150, deadline=None)
    @given(exponent=st.floats(-6.0, 6.0), theta=st.floats(-math.pi, math.pi), kappa=st.floats(0.0, 2.0),
           target=st.sampled_from([None, 1, 2]), amplitude=st.floats(0.0, 2.0))
    def closure(exponent, theta, kappa, target, amplitude):
        c = 10.0 ** exponent
        drive = None if target is None else model.Drive(target, amplitude * c)
        J = c * cmath.exp(1j * theta)
        worst[0] = max(worst[0], *_cascade_defects(J, 2.0 * c, theta - 0.5 * math.pi, kappa * c, drive))
        worst[1] = max(worst[1], *_cascade_defects(J, 2.0 * c, theta + 0.5 * math.pi, kappa * c, drive, qubit=2))
        # Negative control: at the reciprocal phase theta + pi (pi for real J) each qubit acts back on the other.
        for q in (1, 2):
            control[q - 1] = min(control[q - 1],
                                 _cascade_defects(J, 2.0 * c, theta + math.pi, kappa * c, drive, qubit=q)[0])

    closure()
    # Mollow: driven at rate Omega, qubit 1 settles where P1 = 4 Omega^2 / (Gamma^2 + 8 Omega^2), with Bloch vector
    # (0, 4 Omega Gamma, -Gamma^2) / (Gamma^2 + 8 Omega^2); driving qubit 2 leaves it in |g>.
    omega = np.append(np.linspace(0.05, 2.0, 40), 8.0 / 11.0)
    bloch_ops = np.array([np.kron(b, np.eye(2)) for b in _PAULI[1:]]) * math.sqrt(2.0)
    mollow = 0.0
    for J, Gamma, phi in ((1.0, 2.0, 1.5 * math.pi), (1.3 * cmath.exp(0.7j), 2.6, 0.7 - 0.5 * math.pi)):
        for target in (1, 2):
            params = model.ModelParams(J=J, Gamma=Gamma, phi=phi, drive=model.Drive(target, omega))
            result = steady_state(liouvillian_from_params(params))
            assert result.unique.all()
            p1 = _p1(result.state)
            bloch = np.einsum("kij,bji->kb", result.state, bloch_ops).real
            if target == 1:
                denominator = Gamma ** 2 + 8.0 * omega ** 2
                expected_p1 = 4.0 * omega ** 2 / denominator
                expected = np.stack([np.zeros_like(omega), 4.0 * omega * Gamma, np.full_like(omega, -Gamma ** 2)], -1)
                expected /= denominator[:, None]
            else:
                expected_p1, expected = 0.0, np.array([0.0, 0.0, -1.0])
            mollow = max(mollow, float(np.abs(p1 - expected_p1).max()), float(np.abs(bloch - expected).max()))
    ok = max(worst) <= 1e-13 and min(control) > 1e-2 and mollow <= 1e-12
    _report(10, f"qubit 1 closes under the cascade to {worst[0]:.1e} of max|R| and its mirror qubit 2 to "
                f"{worst[1]:.1e} (at the reciprocal phase: {control[0]:.2f}, {control[1]:.2f}); "
                f"Mollow steady state to {mollow:.1e}", ok)
