"""Independent reference routines used only by the test suite.

Everything here is deliberately written by a different route than the
library code it checks: characteristic-polynomial root finding instead
of eigensolvers, closed-form state families and scipy's exponential of
the column-stacked generator instead of the RK4 integrator, and the master
equation term by term on 4x4 matrices instead of a rate basis.
"""

import cmath
import math

import mpmath
import numpy as np
import scipy.linalg

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
FLIP = np.kron(SIGMA_Y, SIGMA_Y)

# Qubit 1 is the left tensor factor of |ee>, |eg>, |ge>, |gg>; each qubit's basis is (|e>, |g>).
_LOWER, _SIGMA_Z, _EYE = np.array([[0.0, 0.0], [1.0, 0.0]]), np.diag([1.0, -1.0]), np.eye(2)
S1, S2 = np.kron(_LOWER, _EYE), np.kron(_EYE, _LOWER)
SZ1, SZ2 = np.kron(_SIGMA_Z, _EYE), np.kron(_EYE, _SIGMA_Z)


def model_operators(J, Gamma, phi, kappa=0.0, amplitude=0.0, target=1):
    """The model's Hamiltonian and its collapse operators, rates absorbed, written out term by term."""
    driven = S1 if target == 1 else S2
    h = J * S1.T @ S2 + np.conj(J) * S1 @ S2.T + amplitude * (driven + driven.T)
    jumps = [math.sqrt(Gamma) * (S1 + cmath.exp(1j * phi) * S2), math.sqrt(kappa) * SZ1, math.sqrt(kappa) * SZ2]
    return h, jumps


def lindblad(h, jumps):
    """The right-hand side -i[H, rho] + sum_k D[L_k] rho on a 4x4 rho, or on each of a stack."""

    def dissipator(op, rho):
        square = op.conj().T @ op
        return op @ rho @ op.conj().T - 0.5 * (square @ rho + rho @ square)

    def rhs(rho):
        return -1j * (h @ rho - rho @ h) + sum(dissipator(op, rho) for op in jumps)

    return rhs


def master_equation(J, Gamma, phi, kappa=0.0, amplitude=0.0, target=1):
    """The model's right-hand side on a 4x4 rho, or on each of a stack."""
    return lindblad(*model_operators(J, Gamma, phi, kappa, amplitude, target))


def column_stacked(h, jumps):
    """The complex generator on column-stacked rho, from vec(A X B) = (B.T kron A) vec(X)."""
    eye = np.eye(4)
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for op in jumps:
        square = op.conj().T @ op
        gen = gen + np.kron(op.conj(), op) - 0.5 * (np.kron(eye, square) + np.kron(square.T, eye))
    return gen


def exponential_trajectory(h, jumps, rho0, steps, dt):
    """The states exp(s dt L) rho0 at the increasing integer steps s, from 0, with L = column_stacked(h, jumps).

    vec(rho0) goes over each sample interval by scipy's expm of L times the interval.  The samples one
    interval apart from the first are filled by doubling: with E the map over one interval, samples 0..n-1
    give samples n..2n-1 through E^n, so a run takes one expm and log2(count) batched products.  A sample
    after a different interval, such as a shorter last one, takes one more expm.  A (k, 4, 4) stack of
    initial states gives a (k, N, 4, 4) stack of runs that share those products.
    """
    steps = np.asarray(steps)
    gen = column_stacked(h, jumps)
    rho0 = np.asarray(rho0, dtype=complex)
    vecs = rho0.swapaxes(-1, -2).reshape(rho0.shape[:-2] + (1, 16))
    if len(steps) > 1:
        span = steps[1] - steps[0]
        count = 1 + int(np.argmin(np.append(np.diff(steps) == span, False)))  # samples of the uniform run
        power = scipy.linalg.expm(gen * (span * dt))
        # einsum, not `@`: a threaded BLAS product of a few hundred rows can wait milliseconds for its workers.
        while vecs.shape[-2] < count:
            vecs = np.concatenate([vecs, np.einsum("kj,...nj->...nk", power, vecs)], axis=-2)
            power = np.einsum("ij,jk->ik", power, power)
        vecs = vecs[..., :count, :]
        for interval in np.diff(steps[count - 1:]):
            last = np.einsum("kj,...nj->...nk", scipy.linalg.expm(gen * (interval * dt)), vecs[..., -1:, :])
            vecs = np.concatenate([vecs, last], axis=-2)
    return vecs.reshape(vecs.shape[:-1] + (4, 4)).swapaxes(-1, -2)


def _hermitian_basis():
    """E_ii, then (E_ij + E_ji)/sqrt2, then i(E_ji - E_ij)/sqrt2 over the pairs i < j in row order."""
    units = np.eye(16, dtype=complex).reshape(16, 4, 4)  # units[4 * i + j] is E_ij
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    return np.array([units[5 * i] for i in range(4)]
                    + [(units[4 * i + j] + units[4 * j + i]) / math.sqrt(2.0) for i, j in pairs]
                    + [1j * (units[4 * j + i] - units[4 * i + j]) / math.sqrt(2.0) for i, j in pairs])


HERMITIAN_BASIS = _hermitian_basis()


def hermitian_coordinates(rho):
    """Orthonormal coordinates Tr(B_a rho) of a Hermitian matrix, or of each in a stack."""
    return np.einsum("aji,...ij->...a", HERMITIAN_BASIS, rho).real


def generator_of(rhs):
    """R_ab = Tr(B_a L(B_b)) of a map given on (stacks of) 4x4 matrices; complex, real up to roundoff."""
    return np.einsum("aji,bij->ab", HERMITIAN_BASIS, rhs(HERMITIAN_BASIS))


def collective_transition_rates(gen):
    """Rates |ee> -> |+>, |+> -> |gg>, |ee> -> |->, |-> -> |gg> read off a real generator R as Tr(P_to L(P_from)).

    Tr(A B) of two Hermitian matrices is the dot product of their orthonormal coordinates.
    """
    ee, plus, minus, gg = hermitian_coordinates(np.array([np.outer(v, v) for v in (
        [1.0, 0.0, 0.0, 0.0], np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0),
        np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0), [0.0, 0.0, 0.0, 1.0])]))
    return tuple(float(to @ gen @ start) for start, to in ((ee, plus), (plus, gg), (ee, minus), (minus, gg)))


def random_density_matrix(rng, dim=4, rank=None):
    """Ginibre-ensemble random state, optionally rank deficient."""
    if rank is None:
        rank = dim
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    # make decomposition unique so the distribution is Haar
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_pure_state(rng, dim=4):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def concurrence_charpoly(rho):
    """Wootters concurrence via the quartic characteristic polynomial.

    The eigenvalues of rho @ rho_tilde are the squares of the numbers
    entering the concurrence formula.  Instead of diagonalizing we form
    the characteristic polynomial from power traces (Newton identities)
    and call np.roots, which shares no code with the library route.
    """
    rho_tilde = FLIP @ rho.conj() @ FLIP
    m = rho @ rho_tilde
    p1 = np.trace(m)
    p2 = np.trace(m @ m)
    p3 = np.trace(m @ m @ m)
    p4 = np.trace(m @ m @ m @ m)
    e1 = p1
    e2 = (e1 * p1 - p2) / 2.0
    e3 = (e2 * p1 - e1 * p2 + p3) / 3.0
    e4 = (e3 * p1 - e2 * p2 + e1 * p3 - p4) / 4.0
    roots = np.roots([1.0, -e1, e2, -e3, e4])
    # eigenvalues are real and nonnegative up to roundoff
    lam = np.clip(roots.real, 0.0, None)
    r = np.sort(np.sqrt(lam))[::-1]
    return max(0.0, r[0] - r[1] - r[2] - r[3])


def concurrence_mp(rho, dps=50):
    """Wootters concurrence of the float matrix rho, clipped to its positive part, at `dps` digits.

    mpmath diagonalizes rho, forms S = sqrt(rho) and reads the r_i as the square roots of the eigenvalues of the
    Hermitian S rho_tilde S, sorted descending: the textbook route, with no factor and no svd.
    """
    with mpmath.workdps(dps):
        exact = mpmath.matrix([[mpmath.mpc(complex(x).real, complex(x).imag) for x in row] for row in rho])
        values, vectors = mpmath.eighe(exact)
        clipped = [max(value, 0) for value in values]
        positive = vectors * mpmath.diag(clipped) * vectors.H
        root = vectors * mpmath.diag([mpmath.sqrt(value) for value in clipped]) * vectors.H
        flip = mpmath.matrix(FLIP.real.tolist())
        product = root * (flip * positive.apply(mpmath.conj) * flip) * root
        values = mpmath.eighe((product + product.H) / 2, eigvals_only=True)
        r = sorted((mpmath.sqrt(max(mpmath.re(value), 0)) for value in values), reverse=True)
        return float(max(0, r[0] - r[1] - r[2] - r[3]))


def concurrence_pure(psi):
    """For |psi> = a|ee> + b|eg> + c|ge> + d|gg>, C = 2|ad - bc|."""
    a, b, c, d = psi
    return 2.0 * abs(a * d - b * c)


def five_point_derivative(values, spacing):
    """4th-order central difference; output aligns with values[2:-2]."""
    f = np.asarray(values)
    return (-f[4:] + 8.0 * f[3:-1] - 8.0 * f[1:-3] + f[:-4]) / (12.0 * spacing)


def werner_state(p):
    """p |Phi+><Phi+| + (1-p) I/4, concurrence max(0, (3p-1)/2)."""
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1.0 / np.sqrt(2.0)
    return p * np.outer(phi, phi.conj()) + (1.0 - p) * np.eye(4) / 4.0


def state_defects_full_matrix(rho):
    """Hermiticity defect max |rho - rho'| over all sixteen entries and trace drift |Re Tr rho - 1|, that of the
    Hermitian part (rho + rho')/2, or each in a stack.  The diagonal is summed in index order, as the sample check
    sums it: np.trace of a stack pairs the terms and can round differently at the tolerance."""
    with np.errstate(invalid="ignore"):
        defects = np.abs(rho - rho.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    diagonal = np.diagonal(rho, axis1=-2, axis2=-1).real
    return defects, np.abs(sum(diagonal[..., i] for i in range(4)) - 1.0)


# Rows map computational amplitudes onto |ee>, |+>, |->, |gg>.
COLLECTIVE_TRANSFORM = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.0, 1.0, -1.0, 0.0],
                                 [0.0, 0.0, 0.0, 1.0]]) / np.array([[1.0], [math.sqrt(2.0)], [math.sqrt(2.0)], [1.0]])
EXCITED_1, EXCITED_2 = S1.T @ S1, S2.T @ S2


def populations_full_matrix(rho):
    """P1, P2, P_E, P_plus, P_minus, P_G of a state, or of each in a stack, from all sixteen entries of rho.

    The qubit populations are Tr(rho n_q); the collective ones are <k| rho |k> through the transform.
    """
    qubits = [np.einsum("...ij,ji->...", rho, n).real for n in (EXCITED_1, EXCITED_2)]
    t = COLLECTIVE_TRANSFORM
    collective = np.einsum("ki,...ij,kj->...k", t, rho, t.conj()).real
    return (*qubits, *np.moveaxis(collective, -1, 0))
