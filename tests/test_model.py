import math

import numpy as np
import pytest

from dissipair import linalg, model
from dissipair.errors import BadIndexError, NegativeRateError, ValidationError

GG = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)


# ---- single-qubit embeddings ----


def test_sigma_minus_entries():
    s1 = model.sigma_minus(1)
    assert s1[2, 0] == 1.0 and s1[3, 1] == 1.0
    assert np.count_nonzero(s1) == 2
    s2 = model.sigma_minus(2)
    assert s2[1, 0] == 1.0 and s2[3, 2] == 1.0
    assert np.count_nonzero(s2) == 2


def test_sigma_plus_is_dagger_of_minus():
    for q in (1, 2):
        np.testing.assert_array_equal(model.sigma_plus(q), linalg.dagger(model.sigma_minus(q)))


def test_sigma_z_entries():
    np.testing.assert_array_equal(np.diagonal(model.sigma_z(1)), [1.0, 1.0, -1.0, -1.0])
    np.testing.assert_array_equal(np.diagonal(model.sigma_z(2)), [1.0, -1.0, 1.0, -1.0])


def test_number_operator_of_qubit_1():
    n1 = linalg.dagger(model.sigma_minus(1)) @ model.sigma_minus(1)
    np.testing.assert_array_equal(n1, np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex))


def test_bad_qubit_index():
    for q in (0, 3, -1):
        with pytest.raises(BadIndexError):
            model.sigma_minus(q)
        with pytest.raises(BadIndexError):
            model.sigma_z(q)


# ---- Hamiltonians ----


def test_coherent_hamiltonian_zero_coupling():
    np.testing.assert_array_equal(model.build_coherent_hamiltonian(0.0), np.zeros((4, 4)))


def test_coherent_hamiltonian_unit_coupling():
    h = model.build_coherent_hamiltonian(1.0)
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 2] = expected[2, 1] = 1.0
    np.testing.assert_array_equal(h, expected)


def test_coherent_hamiltonian_hermitian_for_complex_coupling():
    rng = np.random.default_rng(3)
    for _ in range(10):
        j = complex(rng.standard_normal(), rng.standard_normal())
        h = model.build_coherent_hamiltonian(j)
        assert np.abs(h - h.conj().T).max() <= 1e-14


def test_coherent_hamiltonian_spectrum():
    # real J splits the single-excitation doublet into |+-> at energies +-J
    j = 0.8
    values, vectors = np.linalg.eigh(model.build_coherent_hamiltonian(j))
    np.testing.assert_allclose(values, [-j, 0.0, 0.0, j], atol=1e-14)
    plus = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
    minus = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    assert abs(abs(np.vdot(vectors[:, 3], plus)) - 1.0) <= 1e-12
    assert abs(abs(np.vdot(vectors[:, 0], minus)) - 1.0) <= 1e-12


def test_drive_hamiltonian():
    np.testing.assert_array_equal(model.build_drive_hamiltonian(1, 0.0), np.zeros((4, 4)))
    h = model.build_drive_hamiltonian(1, 8.0 / 11.0)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    np.testing.assert_allclose(h, (8.0 / 11.0) * linalg.kron(sx, np.eye(2)), atol=1e-15)
    assert h.trace() == 0.0
    assert np.abs(h - h.conj().T).max() <= 1e-14
    with pytest.raises(BadIndexError):
        model.build_drive_hamiltonian(3, 0.1)
    with pytest.raises(NegativeRateError):
        model.build_drive_hamiltonian(1, -0.1)


def test_build_hamiltonian_combines_terms():
    params = model.ModelParams(J=1.0, drive=model.Drive(target=2, amplitude=0.5))
    h = model.build_hamiltonian(params)
    expected = model.build_coherent_hamiltonian(1.0) + model.build_drive_hamiltonian(2, 0.5)
    np.testing.assert_array_equal(h, expected)


# ---- jump operators ----


def test_jump_operators_empty_when_rates_vanish():
    assert model.build_jump_operators(model.ModelParams(J=1.0)) == []


def test_collective_jump_at_isolation_phase():
    params = model.ModelParams(J=1.0, Gamma=2.0, phi=1.5 * math.pi)
    jumps = model.build_jump_operators(params)
    assert len(jumps) == 1
    expected = math.sqrt(2.0) * (model.sigma_minus(1) - 1j * model.sigma_minus(2))
    assert np.abs(jumps[0] - expected).max() <= 1e-15


def test_collective_jump_superradiant_phase():
    jumps = model.build_jump_operators(model.ModelParams(J=1.0, Gamma=1.0, phi=0.0))
    np.testing.assert_allclose(jumps[0], model.sigma_minus(1) + model.sigma_minus(2), atol=1e-15)


def test_dephasing_jumps_included():
    params = model.ModelParams(J=1.0, Gamma=1.0, phi=0.3, kappa=0.25)
    jumps = model.build_jump_operators(params)
    assert len(jumps) == 3
    np.testing.assert_allclose(jumps[1], 0.5 * model.sigma_z(1), atol=1e-15)
    np.testing.assert_allclose(jumps[2], 0.5 * model.sigma_z(2), atol=1e-15)


def test_negative_rates_rejected():
    with pytest.raises(NegativeRateError):
        model.ModelParams(J=1.0, Gamma=-1.0)
    with pytest.raises(NegativeRateError):
        model.ModelParams(J=1.0, kappa=-0.5)


@pytest.mark.parametrize("field", ["J", "Gamma", "phi", "kappa"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected(field, value):
    # NaN slips through every `< 0` check, so it needs its own test.
    with pytest.raises(ValidationError, match=f"^{field} must be finite"):
        model.ModelParams(**{field: value})
    with pytest.raises(ValidationError, match="^amplitude must be finite"):
        model.Drive(target=1, amplitude=value)


def test_array_fields_give_stacks():
    phi = np.array([0.0, 0.7, math.pi])
    params = model.ModelParams(J=1.0, Gamma=np.array([[0.0], [2.0]]), phi=phi,
                               drive=model.Drive(target=1, amplitude=np.array([0.0, 0.5, 1.0])))
    h = model.build_hamiltonian(params)
    assert h.shape == (3, 4, 4)
    np.testing.assert_array_equal(h[1], model.build_hamiltonian(model.ModelParams(J=1.0, drive=model.Drive(1, 0.5))))
    (jump,) = model.build_jump_operators(params)
    assert jump.shape == (2, 3, 4, 4)
    assert np.abs(jump[0]).max() == 0.0
    np.testing.assert_array_equal(jump[1, 1], model.build_jump_operators(model.ModelParams(Gamma=2.0, phi=0.7))[0])
    # A jump is left out only when its rate vanishes on every cell.
    assert model.build_jump_operators(model.ModelParams(Gamma=np.zeros(3), kappa=np.zeros(3))) == []


def test_array_fields_validated_per_cell():
    with pytest.raises(NegativeRateError, match="^Gamma must be >= 0, got -1.0$"):
        model.ModelParams(Gamma=np.array([1.0, -1.0]))
    with pytest.raises(NegativeRateError, match="^kappa must be >= 0"):
        model.ModelParams(kappa=np.array([[0.0], [-0.5]]))
    with pytest.raises(NegativeRateError, match="^drive amplitude must be >= 0"):
        model.Drive(target=2, amplitude=np.array([0.5, -0.1]))
    with pytest.raises(ValidationError, match="^phi must be finite, got nan"):
        model.ModelParams(phi=np.array([0.0, math.nan]))


def test_params_with_array_fields_compare_field_by_field():
    def stacked(gamma=(1.0, 2.0), amplitude=(0.5, 1.0), target=1):
        return model.ModelParams(J=1.0, Gamma=np.array(gamma), drive=model.Drive(target, np.array(amplitude)))

    assert stacked() == stacked() and not stacked() != stacked()
    assert stacked() != stacked(gamma=(1.0, 3.0))
    assert stacked() != stacked(gamma=(1.0, 2.0, 2.0))
    assert stacked() != stacked(amplitude=(0.5, 1.5))
    assert stacked() != stacked(target=2)
    assert stacked() != model.ModelParams(J=1.0, Gamma=np.array([1.0, 2.0]))
    assert model.ModelParams(Gamma=np.array([1.0, 2.0])) != (1.0, 2.0)
    for params in (stacked(), model.ModelParams(Gamma=np.array(2.0)), model.Drive(1, np.array([0.5]))):
        with pytest.raises(TypeError, match="with array fields is unhashable"):
            hash(params)


def test_scalar_params_hash_consistently_with_equality():
    a = model.ModelParams(J=1.0, Gamma=2.0, phi=0.5, drive=model.Drive(1, 0.25))
    b = model.ModelParams(J=1, Gamma=np.float64(2.0), phi=0.5, drive=model.Drive(1, 0.25))
    assert a == b and hash(a) == hash(b)
    assert {a: "cached"}[b] == "cached"
    assert a != model.ModelParams(J=1.0, Gamma=2.0, phi=0.5, drive=model.Drive(2, 0.25))
    assert a != model.ModelParams(J=1.0, Gamma=2.0, phi=0.5)
    assert len({a, b, model.ModelParams(J=1.0, Gamma=2.0, phi=0.5)}) == 2


def _jump_coefficients(jump):
    # Hilbert-Schmidt projections of a collective jump onto sigma_minus(1) and sigma_minus(2).
    return [np.vdot(model.sigma_minus(q), jump) / np.vdot(model.sigma_minus(q), model.sigma_minus(q)) for q in (1, 2)]


def test_phase_from_separation():
    lam = 1.0
    # phi = 2 pi d / lambda0: d = 0, lambda0/2 and 3 lambda0/4 give jumps s1 + s2, s1 - s2 and s1 - i s2.
    for separation, expected in ((0.0, 1.0), (0.5 * lam, -1.0), (0.75 * lam, -1j)):
        phi = 2.0 * math.pi * separation / lam
        jump = model.build_jump_operators(model.ModelParams(J=1.0, Gamma=1.0, phi=phi))[0]
        assert np.abs(jump - (model.sigma_minus(1) + expected * model.sigma_minus(2))).max() <= 2e-15


def test_collective_decay_phase_matches_geometry():
    separation, wavelength = 0.3, 1.1
    phi = 2.0 * math.pi * separation / wavelength
    jump = model.build_jump_operators(model.ModelParams(J=1.0, Gamma=2.0, phi=phi))[0]
    c1, c2 = _jump_coefficients(jump)
    assert abs(abs(c1) - math.sqrt(2.0)) <= 1e-12 and abs(abs(c2) - math.sqrt(2.0)) <= 1e-12
    assert abs(np.angle(c2 / c1) % (2.0 * math.pi) - phi % (2.0 * math.pi)) <= 1e-12


def test_collective_jump_annihilates_ground_state():
    for phi in (0.0, 0.7, math.pi, 1.5 * math.pi):
        jumps = model.build_jump_operators(model.ModelParams(J=1.0, Gamma=2.0, phi=phi))
        assert np.abs(jumps[0] @ GG).max() == 0.0


def test_jump_operators_phase_periodicity():
    for phi in (0.0, 0.3, 2.1, 4.9):
        a = model.build_jump_operators(model.ModelParams(J=1.0, Gamma=2.0, phi=phi))[0]
        b = model.build_jump_operators(model.ModelParams(J=1.0, Gamma=2.0, phi=phi + 2.0 * math.pi))[0]
        assert np.abs(a - b).max() <= 1e-15
