import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structnorm as sn
from structnorm.angles import _parts

from helpers import random_problem, submatrix_oracle_g
from test_per_pivot_references import _invariants


def test_eval_g_diagonal_identity():
    pr = (3 + 4j, 0j, 0j, 1 - 2j)
    assert sn.eval_g(pr, 0.0, 0.0) == pytest.approx(25 + 5, rel=1e-15)


def test_eval_g_swap_matrix():
    pr = (0j, 1 + 0j, 1 + 0j, 0j)
    assert sn.eval_g(pr, math.pi / 4, 0.0) == pytest.approx(2.0, rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_eval_g_matches_triple_product_oracle(seed):
    rng = np.random.default_rng(seed)
    pr = random_problem(rng)
    phi = (rng.random() - 0.5) * math.pi / 2
    alpha = (rng.random() - 0.5) * math.pi
    got = sn.eval_g(pr, phi, alpha)
    want = submatrix_oracle_g(pr, phi, alpha)
    assert abs(got - want) <= 1e-13 * (1 + abs(want))


def test_eval_g_broadcasts():
    pr = (1 + 1j, 0.5j, -0.25 + 0j, 2 - 1j)
    phis = np.linspace(-0.7, 0.7, 5)
    alphas = np.linspace(-1.5, 1.5, 7)
    grid = sn.eval_g(pr, phis[:, None], alphas[None, :])
    assert grid.shape == (5, 7)
    for a in range(5):
        for b in range(7):
            assert grid[a, b] == pytest.approx(
                sn.eval_g(pr, float(phis[a]), float(alphas[b])), rel=1e-14)


def _k_matrix(pr):
    s1, s2, s3, p, q = _invariants(_parts(pr))
    return np.array([[2 * (s3 + 2 * p), 4 * q, 2 * s1],
                     [4 * q, 2 * (s3 - 2 * p), 2 * s2],
                     [2 * s1, 2 * s2, 0.0]])


def test_solve_angles_gain_is_top_eigenvalue_of_k():
    rng = np.random.default_rng(23)
    for _ in range(500):
        pr = random_problem(rng)
        want = np.linalg.eigvalsh(_k_matrix(pr)).max()
        assert 4 * sn.solve_angles(pr).gain == pytest.approx(want, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000),
       log_ratio=st.floats(min_value=-12.0, max_value=0.0))
def test_solve_angles_gains_all_offdiagonal_weight_of_normal_blocks(
        seed, log_ratio):
    # b = (delta / conj(delta)) conj(c) makes the block normal, so a single
    # rotation diagonalizes it and the best gain is |b|^2 + |c|^2, also when
    # the off-diagonals are tiny next to the gap delta = a_ii - a_jj
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(6)
    a_ii, a_jj, c = complex(v[0], v[1]), complex(v[2], v[3]), complex(v[4], v[5])
    delta = a_ii - a_jj
    c *= abs(delta) / abs(c) * 10.0 ** log_ratio
    b = delta / delta.conjugate() * c.conjugate()
    sol = sn.solve_angles((a_ii, b, c, a_jj))
    assert sol.gain == pytest.approx(abs(b) ** 2 + abs(c) ** 2, rel=1e-12)


def test_solve_angles_diagonal_prefers_identity():
    pr = (2 + 1j, 0j, 0j, 1 + 0j)
    sol = sn.solve_angles(pr)
    assert sol.phi == 0.0
    assert sol.case == "trivial"
    assert sol.g_value == pytest.approx(6.0, rel=1e-15)


def test_solve_angles_swap_matrix():
    sol = sn.solve_angles((0j, 1 + 0j, 1 + 0j, 0j))
    assert sol.g_value == pytest.approx(2.0, rel=1e-13)
    assert abs(sol.phi) == pytest.approx(math.pi / 4, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_solve_angles_never_worse_than_identity(seed):
    rng = np.random.default_rng(seed)
    pr = random_problem(rng)
    sol = sn.solve_angles(pr)
    g0 = sn.eval_g(pr, 0.0, 0.0)
    assert sol.g_value >= g0 - 4e-16 * (1 + g0)


def test_solve_angles_beats_grid_oracle():
    rng = np.random.default_rng(11)
    for _ in range(300):
        pr = random_problem(rng)
        sol = sn.solve_angles(pr)
        _, _, g_grid = sn.grid_oracle(pr, 401)
        assert sol.g_value >= g_grid - 1e-6 * (1 + g_grid)


# the forced alphas of the single embeddings, and others
@pytest.mark.parametrize("fixed", [0.0, -math.pi / 2, math.pi / 4,
                                   -math.pi / 4, math.pi / 3])
def test_fixed_alpha_beats_grid_oracle(fixed):
    rng = np.random.default_rng(13)
    for _ in range(300):
        pr = random_problem(rng)
        sol = sn.solve_angles_fixed_alpha(pr, fixed)
        assert sol.alpha == fixed
        _, _, g_grid = sn.grid_oracle(pr, 401, fixed)
        assert sol.g_value >= g_grid - 1e-6 * (1 + g_grid)


def test_fixed_alpha_zero_offdiagonal_prefers_identity():
    pr = (1 + 2j, 0j, 0j, -3 + 1j)
    sol = sn.solve_angles_fixed_alpha(pr, 0.0)
    assert sol.phi == 0.0


def test_the_two_solver_names_share_one_signature():
    # solve_angles_fixed_alpha is solve_angles under a second name: each
    # takes (entries, alpha=None), a free solve without alpha and a solve over
    # phi alone with it
    assert sn.solve_angles_fixed_alpha is sn.solve_angles
    rng = np.random.default_rng(7)
    for _ in range(50):
        pr = random_problem(rng)
        free = sn.solve_angles_fixed_alpha(pr)
        assert free == sn.solve_angles(pr)
        assert free.case in ("cubic", "trivial")
        fixed = sn.solve_angles(pr, -math.pi / 2)
        assert fixed == sn.solve_angles_fixed_alpha(pr, -math.pi / 2)
        assert fixed.alpha == -math.pi / 2
        assert fixed.case in ("fixed_1d", "trivial")


def test_fixed_alpha_examples_match_1d_grid():
    pr = (1 + 0j, 2 + 0j, 2 + 0j, -1 + 0j)
    sol = sn.solve_angles_fixed_alpha(pr, 0.0)
    _, _, g_grid = sn.grid_oracle(pr, 40_001, 0.0)
    assert sol.g_value >= g_grid - 1e-8 * (1 + g_grid)

    z = 0.7j
    pr = (z, z, z, z)
    sol = sn.solve_angles_fixed_alpha(pr, -math.pi / 2)
    _, _, g_grid = sn.grid_oracle(pr, 40_001, -math.pi / 2)
    assert sol.g_value >= g_grid - 1e-8 * (1 + g_grid)


def test_solver_stationary_at_interior_optima():
    rng = np.random.default_rng(17)
    h = 1e-5
    checked = 0
    for _ in range(200):
        pr = random_problem(rng)
        sol = sn.solve_angles(pr)
        interior = (abs(sol.phi) < math.pi / 4 - 1e-3
                    and abs(sol.alpha) < math.pi / 2 - 1e-3
                    and sol.phi != 0.0)
        if not interior:
            continue
        checked += 1
        dphi = (sn.eval_g(pr, sol.phi + h, sol.alpha)
                - sn.eval_g(pr, sol.phi - h, sol.alpha)) / (2 * h)
        dalpha = (sn.eval_g(pr, sol.phi, sol.alpha + h)
                  - sn.eval_g(pr, sol.phi, sol.alpha - h)) / (2 * h)
        assert abs(dphi) <= 1e-6 * (1 + sol.g_value)
        assert abs(dalpha) <= 1e-6 * (1 + sol.g_value)
    assert checked > 50


def test_grid_oracle_refinement_is_monotone():
    rng = np.random.default_rng(19)
    pr = random_problem(rng)
    _, _, g401 = sn.grid_oracle(pr, 401)
    _, _, g801 = sn.grid_oracle(pr, 801)  # 801 = 2*401 - 1, nested lattice
    assert g801 >= g401


def test_grid_oracle_identity_submatrix():
    pr = (1 + 0j, 0j, 0j, 1 + 0j)
    phi, alpha, g = sn.grid_oracle(pr, 41)
    assert g == pytest.approx(2.0, rel=1e-15)


def test_grid_oracle_rejects_tiny_grid():
    with pytest.raises(ValueError):
        sn.grid_oracle((0j, 0j, 0j, 0j), 2)


def test_near_symmetric_pivot_recovers_small_rotation():
    # nearly symmetric off-diagonal entries make the alpha equation
    # degenerate; the phi recovery must survive that
    pr = (-1.07 - 3.82j,
          0.009 + 0.015j,
          0.009 + 0.015j,
          0.72 - 0.85j)
    sol = sn.solve_angles(pr)
    g0 = sn.eval_g(pr, 0.0, 0.0)
    _, _, g_grid = sn.grid_oracle(pr, 2001)
    assert sol.g_value > g0
    assert sol.g_value >= g_grid - 1e-9 * (1 + g_grid)
