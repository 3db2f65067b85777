"""Dense complex linear algebra sized for small operator spaces.

Everything here targets the 4x4 density matrices and 16x16 superoperators
used elsewhere in the package.  Hermitian eigenproblems go to numpy's
LAPACK driver (`np.linalg.eigh`) over whole stacks in one call; the
concurrence factors each state from this one eigensystem.  The matrix
exponential uses scaling and squaring with a truncated series, which
keeps the run-time dependencies at numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NoConvergenceError,
    NotHermitianError,
    ShapeMismatchError,
)

DEFAULT_TOL = 1e-10

_MAX_SERIES_TERMS = 64


def _as_square(a, name: str = "matrix", stacked: bool = False) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    ndims = (2, 3) if stacked else (2,)
    if a.ndim not in ndims or a.shape[-1] != a.shape[-2]:
        kind = "square or a stack of square matrices" if stacked else "square"
        raise ShapeMismatchError(f"{name} must be {kind}, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ShapeMismatchError(f"{name} contains non-finite entries")
    return a


def kron(a, b) -> np.ndarray:
    """Kronecker product with the left factor owning the slow index, per matrix over leading axes.

    One broadcast multiply, the same one `np.kron` makes, so a stack gives
    bitwise the products of its per-matrix calls.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


def dagger(a) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(np.asarray(a, dtype=complex).conj(), -1, -2)


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues in ascending order with eigenvectors as matching columns."""

    values: np.ndarray
    vectors: np.ndarray


def hermitian_eigensystem(a, tol: float = DEFAULT_TOL) -> EigenSystem:
    """Diagonalize a Hermitian matrix, or each matrix of an (N, n, n) stack.

    Parameters
    ----------
    a : array_like
        Square Hermitian matrix or stack of them; entrywise deviation from
        the conjugate transpose must not exceed `tol`.
    tol : float
        Hermiticity tolerance.

    Returns
    -------
    EigenSystem
        Real eigenvalues ascending along the last axis, orthonormal
        eigenvector columns, with the stack axis leading when present.
    """
    a = _as_square(a, stacked=True)
    herm = np.swapaxes(a.conj(), -1, -2)
    defect = float(np.abs(a - herm).max()) if a.size else 0.0
    if defect > tol:
        raise NotHermitianError(f"Hermiticity defect {defect:.3e} exceeds tol {tol:.3e}")
    values, vectors = np.linalg.eigh(0.5 * (a + herm))
    return EigenSystem(values, vectors)


def matrix_exponential(a) -> np.ndarray:
    """exp(a) by scaling and squaring around a truncated power series.

    The argument is halved until its max-row-sum norm drops to 0.5, the
    series is summed until a term's norm falls to 1e-16 of max(1, norm of
    the sum), and the result is squared back up.
    """
    a = _as_square(a)
    n = a.shape[0]
    norm = float(np.abs(a).sum(axis=1).max()) if n else 0.0
    squarings = 0
    if norm > 0.5:
        squarings = int(math.ceil(math.log2(norm / 0.5)))
    b = a / (2.0 ** squarings)
    total = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, _MAX_SERIES_TERMS + 1):
        term = term @ b / k
        total = total + term
        if float(np.abs(term).sum(axis=1).max()) <= 1e-16 * max(1.0, float(np.abs(total).sum(axis=1).max())):
            break
    else:
        raise NoConvergenceError("series for matrix exponential did not settle")
    for _ in range(squarings):
        total = total @ total
    return total
