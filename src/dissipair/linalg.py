"""Dense linear algebra sized for small operator spaces.

Everything here targets the 4x4 density matrices and 16x16 superoperators
used elsewhere in the package: conjugate transposes over stacks, and a
matrix exponential by scaling and squaring with a truncated series, which
keeps the run-time dependencies at numpy alone.
Eigen- and singular-value problems go straight to numpy's LAPACK routines.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoConvergenceError, ShapeMismatchError

DEFAULT_TOL = 1e-10

_MAX_SERIES_TERMS = 64


def dagger(a) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(np.asarray(a, dtype=complex).conj(), -1, -2)


def matrix_exponential(a) -> np.ndarray:
    """exp(a) by scaling and squaring around a truncated power series.

    The argument is halved until its max-row-sum norm drops to 0.5, the
    series is summed until a term's norm falls to 1e-16 of max(1, norm of
    the sum), and the result is squared back up.  A real matrix gives a real result.
    """
    a = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatchError(f"matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ShapeMismatchError("matrix contains non-finite entries")
    n = a.shape[0]
    norm = float(np.abs(a).sum(axis=1).max()) if n else 0.0
    squarings = 0
    if norm > 0.5:
        squarings = int(math.ceil(math.log2(norm / 0.5)))
    b = a / (2.0 ** squarings)
    total = np.eye(n, dtype=a.dtype)
    term = np.eye(n, dtype=a.dtype)
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
