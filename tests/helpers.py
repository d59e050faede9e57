"""Shared fixture builders for the test suite."""
import numpy as np

import structnorm as sn


def random_problem(rng):
    """Random pivot entries (a_ii, a_ij, a_ji, a_jj)."""
    v = rng.standard_normal(8)
    return (complex(v[0], v[1]), complex(v[2], v[3]),
            complex(v[4], v[5]), complex(v[6], v[7]))


def random_structured_unitary(family, n, rotations=60, seed=0):
    """Product of random structure-preserving rotations; unitary by construction."""
    rng = np.random.default_rng(seed)
    positions = sn.pivot_set(family, n)
    product = []
    for _ in range(rotations):
        kind, i, j = positions[rng.integers(len(positions))]
        product += sn.planes(kind, i, j, *sn.random_angles(kind, rng), n)
    return sn.apply_right(np.eye(2 * n, dtype=np.complex128), product)


def dense_similarity(a, kind, i, j, phi, alpha):
    """Oracle: explicit R^H A R via the full rotation matrix."""
    r = sn.build_rotation(kind, i, j, phi, alpha, a.shape[0])
    return r.conj().T @ a @ r


def submatrix_oracle_g(entries, phi, alpha):
    """Oracle for eval_g: the explicit 2x2 triple product."""
    g = np.array([[np.cos(phi), -np.exp(1j * alpha) * np.sin(phi)],
                  [np.exp(-1j * alpha) * np.sin(phi), np.cos(phi)]])
    a_ii, a_ij, a_ji, a_jj = entries
    sub = np.array([[a_ii, a_ij], [a_ji, a_jj]])
    out = g.conj().T @ sub @ g
    return float(abs(out[0, 0]) ** 2 + abs(out[1, 1]) ** 2)


def w_map(n):
    """The monomial W with W^H (iJ) W = F: it sends perplectic index k to
    symplectic index k, and 2n-1-k to n+k with phase -i (0-based, k < n).

    W A W^H maps per-Hermitian A to skew-Hamiltonian and perskew-Hermitian
    A to Hamiltonian, and W Q W^H maps unitary perplectic Q to unitary
    symplectic.
    """
    w = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    for k in range(n):
        w[k, k] = 1.0
        w[n + k, 2 * n - 1 - k] = -1j
    return w
