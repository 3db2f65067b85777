import cmath
import math

import numpy as np
import pytest

from dissipair import model, observables
from dissipair.dynamics import TimeGrid, liouvillian_from_params
from dissipair.errors import ValidationError
from dissipair.experiments import AxisSpec

from oracles import (
    S1,
    S2,
    SZ1,
    SZ2,
    generator_of,
    hermitian_coordinates,
    lindblad,
    model_operators,
    random_density_matrix,
)


def _generator(J=1.0, Gamma=0.0, phi=0.0, kappa=0.0):
    return liouvillian_from_params(model.ModelParams(J=J, Gamma=Gamma, phi=phi, kappa=kappa))


def _generator_with(J, jumps):
    """The test-side generator of exchange J with the given collapse operators."""
    h, _ = model_operators(J, 0.0, 0.0)
    return generator_of(lindblad(h, jumps)).real


# ---- the reference operators' basis convention ----


def test_sigma_minus_entries():
    # The oracles' lowering operators, in the convention `dynamics._model_basis` writes its own out in.
    assert S1[2, 0] == 1.0 and S1[3, 1] == 1.0
    assert np.count_nonzero(S1) == 2
    assert S2[1, 0] == 1.0 and S2[3, 2] == 1.0
    assert np.count_nonzero(S2) == 2


def test_sigma_z_entries():
    np.testing.assert_array_equal(np.diagonal(SZ1), [1.0, 1.0, -1.0, -1.0])
    np.testing.assert_array_equal(np.diagonal(SZ2), [1.0, -1.0, 1.0, -1.0])


def test_number_operator_of_qubit_1():
    n1 = S1.T @ S1
    np.testing.assert_array_equal(n1, np.diag([1.0, 1.0, 0.0, 0.0]))
    rng = np.random.default_rng(5)
    for _ in range(5):
        rho = random_density_matrix(rng)
        assert abs(observables.populations(rho)[0] - np.trace(n1 @ rho).real) <= 1e-15


def test_bad_qubit_index():
    for q in (0, 3, -1):
        with pytest.raises(ValidationError, match=f"^drive target must be 1 or 2, got {q}$"):
            model.Drive(target=q, amplitude=0.5)


# ---- Hamiltonians, read through the generator ----


def _coherent(J, drive=None):
    return liouvillian_from_params(model.ModelParams(J=J, drive=drive))


def test_coherent_hamiltonian_zero_coupling():
    np.testing.assert_array_equal(_coherent(0.0), np.zeros((16, 16)))


def test_coherent_hamiltonian_unit_coupling():
    assert np.abs(_coherent(1.0) - generator_of(lindblad(S1.T @ S2 + S1 @ S2.T, []))).max() <= 1e-15


def test_coherent_hamiltonian_hermitian_for_complex_coupling():
    # A real generator keeps rho Hermitian; a complex J enters through its real and imaginary parts.
    rng = np.random.default_rng(3)
    for _ in range(10):
        j = complex(rng.standard_normal(), rng.standard_normal())
        assert np.abs(_coherent(j) - _generator_with(j, [])).max() <= 1e-14


def test_coherent_hamiltonian_spectrum():
    # Real J splits the single-excitation doublet into energies -J, 0, 0, J, so -i[H, .] has the eigenvalues
    # -i (E_a - E_b): 0 six times, -+iJ four times each and -+2iJ once each.
    j = 0.8
    values = np.sort(np.linalg.eigvals(_coherent(j)).imag)
    expected = np.repeat([-2.0 * j, -j, 0.0, j, 2.0 * j], [1, 4, 6, 4, 1])
    np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-14)


def test_drive_hamiltonian():
    np.testing.assert_array_equal(_coherent(0.0, model.Drive(1, 0.0)), np.zeros((16, 16)))
    for target, lower in ((1, S1), (2, S2)):
        expected = generator_of(lindblad((8.0 / 11.0) * (lower + lower.T), []))
        assert np.abs(_coherent(0.0, model.Drive(target, 8.0 / 11.0)) - expected).max() <= 1e-15
    with pytest.raises(ValidationError, match="^drive target must be 1 or 2, got 3$"):
        model.Drive(3, 0.1)
    with pytest.raises(ValidationError, match="^drive amplitude must be >= 0, got -0.1$"):
        model.Drive(1, -0.1)


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
    with pytest.raises(ValidationError, match="^Gamma must be >= 0"):
        model.ModelParams(J=1.0, Gamma=-1.0)
    with pytest.raises(ValidationError, match="^kappa must be >= 0"):
        model.ModelParams(J=1.0, kappa=-0.5)


@pytest.mark.parametrize("target", [1.0, np.float64(2.0), True], ids=["float", "float64", "bool"])
def test_drive_target_must_be_an_integer(target):
    # Each compares equal to 1 or 2, so a membership test alone lets it through.
    with pytest.raises(ValidationError, match="^drive target must be 1 or 2"):
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
    with pytest.raises(ValidationError, match="^Gamma must be >= 0, got -1.0$"):
        model.ModelParams(Gamma=np.array([1.0, -1.0]))
    with pytest.raises(ValidationError, match="^kappa must be >= 0"):
        model.ModelParams(kappa=np.array([[0.0], [-0.5]]))
    with pytest.raises(ValidationError, match="^drive amplitude must be >= 0"):
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
