"""Shared fixture builders for the test suite."""
import numpy as np

import structnorm as sn


def random_problem(rng, fixed_alpha=None):
    v = rng.standard_normal(8)
    return sn.AngleProblem(complex(v[0], v[1]), complex(v[2], v[3]),
                           complex(v[4], v[5]), complex(v[6], v[7]),
                           fixed_alpha=fixed_alpha)


def random_structured_unitary(family, n, rotations=60, seed=0):
    """Product of random structure-preserving rotations; unitary by construction."""
    rng = np.random.default_rng(seed)
    positions = sn.pivot_set(family, n)
    specs = [sn.random_spec(*positions[rng.integers(len(positions))], rng)
             for _ in range(rotations)]
    return sn.apply_right(np.eye(2 * n, dtype=np.complex128),
                          *(sn.planes(spec, n) for spec in specs))


def dense_similarity(a, spec):
    """Oracle: explicit R^H A R via the full rotation matrix."""
    r = sn.build_rotation(spec, a.shape[0])
    return r.conj().T @ a @ r


def submatrix_oracle_g(problem, phi, alpha):
    """Oracle for eval_g: the explicit 2x2 triple product."""
    g = np.array([[np.cos(phi), -np.exp(1j * alpha) * np.sin(phi)],
                  [np.exp(-1j * alpha) * np.sin(phi), np.cos(phi)]])
    sub = np.array([[problem.a_ii, problem.a_ij],
                    [problem.a_ji, problem.a_jj]])
    out = g.conj().T @ sub @ g
    return float(abs(out[0, 0]) ** 2 + abs(out[1, 1]) ** 2)
