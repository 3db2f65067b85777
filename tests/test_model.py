import cmath
import math

import numpy as np
import pytest

from dissipair import model
from dissipair.dynamics import TimeGrid, liouvillian_from_params
from dissipair.errors import BadIndexError, NegativeRateError, ValidationError
from dissipair.experiments import AxisSpec

from oracles import S1, S2, SZ1, SZ2, generator_of, hermitian_coordinates, lindblad, model_operators


def _generator(J=1.0, Gamma=0.0, phi=0.0, kappa=0.0):
    return liouvillian_from_params(model.ModelParams(J=J, Gamma=Gamma, phi=phi, kappa=kappa))


def _generator_with(J, jumps):
    """The test-side generator of exchange J with the given collapse operators."""
    h, _ = model_operators(J, 0.0, 0.0)
    return generator_of(lindblad(h, jumps)).real


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
        np.testing.assert_array_equal(model.sigma_plus(q), model.sigma_minus(q).conj().T)


def test_sigma_z_entries():
    np.testing.assert_array_equal(np.diagonal(model.sigma_z(1)), [1.0, 1.0, -1.0, -1.0])
    np.testing.assert_array_equal(np.diagonal(model.sigma_z(2)), [1.0, -1.0, 1.0, -1.0])


def test_number_operator_of_qubit_1():
    n1 = model.sigma_minus(1).conj().T @ model.sigma_minus(1)
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
    np.testing.assert_allclose(h, (8.0 / 11.0) * np.kron(sx, np.eye(2)), atol=1e-15)
    assert h.trace() == 0.0
    assert np.abs(h - h.conj().T).max() <= 1e-14
    with pytest.raises(BadIndexError):
        model.build_drive_hamiltonian(3, 0.1)
    with pytest.raises(NegativeRateError):
        model.build_drive_hamiltonian(1, -0.1)


# ---- collective decay and dephasing, read through the generator ----


def test_collective_jump_at_isolation_phase():
    expected = _generator_with(1.0, [math.sqrt(2.0) * (S1 - 1j * S2)])
    assert np.abs(_generator(Gamma=2.0, phi=1.5 * math.pi) - expected).max() <= 1e-14


def test_collective_jump_superradiant_phase():
    assert np.abs(_generator(Gamma=1.0, phi=0.0) - _generator_with(1.0, [S1 + S2])).max() <= 1e-14


def test_dephasing_jumps_included():
    expected = _generator_with(1.0, [S1 + cmath.exp(0.3j) * S2, 0.5 * SZ1, 0.5 * SZ2])
    assert np.abs(_generator(Gamma=1.0, phi=0.3, kappa=0.25) - expected).max() <= 1e-14


def test_negative_rates_rejected():
    with pytest.raises(NegativeRateError):
        model.ModelParams(J=1.0, Gamma=-1.0)
    with pytest.raises(NegativeRateError):
        model.ModelParams(J=1.0, kappa=-0.5)


@pytest.mark.parametrize("target", [1.0, np.float64(2.0), True], ids=["float", "float64", "bool"])
def test_drive_target_must_be_an_integer(target):
    # Each compares equal to 1 or 2, so a membership test alone lets it through.
    with pytest.raises(BadIndexError, match="^drive target must be 1 or 2"):
        model.Drive(target=target, amplitude=0.5)
    assert model.Drive(target=np.int64(2), amplitude=0.5).target == 2


@pytest.mark.parametrize("field", ["J", "Gamma", "phi", "kappa"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected(field, value):
    # NaN slips through every `< 0` check, so it needs its own test.
    with pytest.raises(ValidationError, match=f"^{field} must be finite"):
        model.ModelParams(**{field: value})
    with pytest.raises(ValidationError, match="^amplitude must be finite"):
        model.Drive(target=1, amplitude=value)


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


def test_phase_from_separation():
    lam = 1.0
    # phi = 2 pi d / lambda0: d = 0, lambda0/2 and 3 lambda0/4 give jumps s1 + s2, s1 - s2 and s1 - i s2.
    for separation, factor in ((0.0, 1.0), (0.5 * lam, -1.0), (0.75 * lam, -1j)):
        phi = 2.0 * math.pi * separation / lam
        expected = _generator_with(1.0, [S1 + factor * S2])
        assert np.abs(_generator(Gamma=1.0, phi=phi) - expected).max() <= 2e-15


def test_collective_decay_phase_matches_geometry():
    separation, wavelength = 0.3, 1.1
    phi = 2.0 * math.pi * separation / wavelength
    expected = _generator_with(1.0, [math.sqrt(2.0) * (S1 + cmath.exp(1j * phi) * S2)])
    assert np.abs(_generator(Gamma=2.0, phi=phi) - expected).max() <= 1e-14


def test_collective_jump_annihilates_ground_state():
    ground = hermitian_coordinates(np.diag([0.0, 0.0, 0.0, 1.0]))
    for phi in (0.0, 0.7, math.pi, 1.5 * math.pi):
        assert np.abs(_generator(Gamma=2.0, phi=phi) @ ground).max() == 0.0


def test_jump_operators_phase_periodicity():
    for phi in (0.0, 0.3, 2.1, 4.9):
        a = _generator(Gamma=2.0, phi=phi)
        b = _generator(Gamma=2.0, phi=phi + 2.0 * math.pi)
        assert np.abs(a - b).max() <= 1e-14


@pytest.mark.parametrize("build", [
    lambda: model.ModelParams(J="1"),
    lambda: model.ModelParams(Gamma=None),
    lambda: AxisSpec("phi", "0", "1", 3),
    lambda: TimeGrid("1", 0.1),
], ids=["J-string", "Gamma-None", "axis-strings", "t_max-string"])
def test_a_value_that_is_not_a_number_is_a_validation_error(build):
    with pytest.raises(ValidationError, match="must be a number, got"):
        build()
