import math

import numpy as np
import pytest
import scipy.linalg

from dissipair import linalg
from dissipair.errors import ShapeMismatchError

from oracles import random_unitary

I2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
LOWER = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def _random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


# ---- dagger ----


def test_dagger():
    np.testing.assert_array_equal(linalg.dagger(LOWER), LOWER.T.conj())
    np.testing.assert_array_equal(linalg.dagger(1j * I2), -1j * I2)
    rng = np.random.default_rng(5)
    a = _random_complex(rng, 3, 5)
    np.testing.assert_array_equal(linalg.dagger(linalg.dagger(a)), a)
    stack = rng.standard_normal((2, 3, 5)) + 1j * rng.standard_normal((2, 3, 5))
    np.testing.assert_array_equal(linalg.dagger(stack), [m.conj().T for m in stack])


# ---- matrix_exponential ----


def test_expm_zero():
    np.testing.assert_array_equal(linalg.matrix_exponential(np.zeros((3, 3))), np.eye(3))


def test_expm_diagonal():
    out = linalg.matrix_exponential(np.diag([-1.0, -2.0]))
    np.testing.assert_allclose(out, np.diag([math.exp(-1.0), math.exp(-2.0)]), rtol=1e-13)


def test_expm_pauli_rotation():
    out = linalg.matrix_exponential(0.5j * math.pi * SX)
    np.testing.assert_allclose(out, 1j * SX, atol=1e-13)


def test_expm_inverse_pair():
    rng = np.random.default_rng(31)
    for _ in range(10):
        a = _random_complex(rng, 6, 6)
        a *= 10.0 / np.linalg.norm(a)
        left = linalg.matrix_exponential(a) @ linalg.matrix_exponential(-a)
        assert np.linalg.norm(left - np.eye(6)) <= 1e-9


def test_expm_matches_scipy():
    rng = np.random.default_rng(37)
    for _ in range(5):
        a = _random_complex(rng, 16, 16)
        mine = linalg.matrix_exponential(a)
        ref = scipy.linalg.expm(a)
        assert np.abs(mine - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())


def test_expm_rejects_bad_shapes():
    for bad in (np.ones((2, 3)), np.ones((2, 2, 2)), np.array([[np.nan, 0.0], [0.0, 1.0]])):
        with pytest.raises(ShapeMismatchError):
            linalg.matrix_exponential(bad)
