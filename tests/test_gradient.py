import math

import numpy as np
import pytest

import structnorm as sn

from helpers import random_structured_unitary

TAGS = list(sn.StructureTag)


def _f_tilde(a, z):
    d = np.diagonal(z.conj().T @ a @ z)
    return float(np.real(np.vdot(d, d)))


def _tangent_residual(x, family):
    n = x.shape[0] // 2
    if family == sn.SYMPLECTIC:
        s = sn.make_J(n)
        return np.linalg.norm((s @ x) - (s @ x).conj().T)  # Hamiltonian
    s = sn.make_F(2 * n)
    return np.linalg.norm((s @ x) + (s @ x).conj().T)  # perskew-Hermitian


@pytest.mark.parametrize("tag", TAGS)
def test_gradient_factor_structure(tag):
    n = 6
    a = sn.gen_structured(tag, n, 31)
    z = random_structured_unitary(tag.family, n, seed=32)
    res = sn.grad_f(a, z, tag.family)
    scale = max(1.0, np.linalg.norm(res.x))
    assert np.linalg.norm(res.x + res.x.conj().T) <= 1e-13 * scale
    assert np.linalg.norm(np.diagonal(res.x)) <= 1e-13 * scale
    assert _tangent_residual(res.x, tag.family) <= 1e-13 * scale
    np.testing.assert_allclose(res.grad, z @ res.x, atol=1e-14 * scale)
    assert res.grad_norm == pytest.approx(np.linalg.norm(res.x), rel=1e-14)


@pytest.mark.parametrize("tag", TAGS)
def test_diag_y_is_real(tag):
    n = 5
    a = sn.gen_structured(tag, n, 33)
    z = random_structured_unitary(tag.family, n, seed=34)
    res = sn.grad_f(a, z, tag.family)
    dy = np.diagonal(res.y)
    assert np.linalg.norm(dy.imag) <= 1e-12 * max(1.0, np.linalg.norm(dy))


@pytest.mark.parametrize("family", [sn.SYMPLECTIC, sn.PERPLECTIC])
def test_projection_idempotent_and_orthogonal(family):
    rng = np.random.default_rng(35)
    for _ in range(20):
        y = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        x = sn.project_tangent(y, family)
        again = sn.project_tangent(x, family)
        assert np.linalg.norm(again - x) <= 1e-14 * max(1.0, np.linalg.norm(x))
        # residual orthogonal to random tangent directions
        s = sn.project_tangent(
            rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10)),
            family)
        inner = np.real(np.trace((y - x).conj().T @ s))
        assert abs(inner) <= 1e-12 * max(1.0, np.linalg.norm(y) * np.linalg.norm(s))


@pytest.mark.parametrize("tag", TAGS)
def test_directional_finite_difference(tag):
    family = tag.family
    n = 5
    rng = np.random.default_rng(36)
    for trial in range(25):
        a = sn.gen_structured(tag, n, 300 + trial)
        z = random_structured_unitary(family, n, seed=400 + trial)
        res = sn.grad_f(a, z, family)
        y = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
        direction = sn.project_tangent(y, family)
        t = z @ direction
        h = 1e-6
        fd = (_f_tilde(a, z + h * t) - _f_tilde(a, z - h * t)) / (2 * h)
        ip = float(np.real(np.trace(res.x.conj().T @ direction)))
        assert abs(fd - ip) <= 1e-5 * max(abs(ip), abs(fd))


@pytest.mark.parametrize("tag", TAGS)
def test_gradient_vanishes_at_diagonalizer(tag):
    a, u, _ = sn.gen_normal_structured(tag, 5, 37, n_rot=60)
    res = sn.grad_f(a, u, tag.family)
    assert res.grad_norm <= 1e-10 * np.linalg.norm(a) ** 2


def test_grad_f_rejects_non_unitary():
    a = sn.gen_structured(sn.StructureTag.HAMILTONIAN, 3, 38)
    with pytest.raises(ValueError):
        sn.grad_f(a, 2 * np.eye(6), sn.SYMPLECTIC)


def test_grad_f_rejects_wrong_family():
    a = sn.gen_structured(sn.StructureTag.HAMILTONIAN, 3, 39)
    z = random_structured_unitary(sn.PERPLECTIC, 3, seed=40)
    with pytest.raises(ValueError):
        sn.grad_f(a, z, sn.SYMPLECTIC)


def test_tangent_gradient_matches_grad_f():
    tag = sn.StructureTag.PER_HERMITIAN
    a = sn.gen_structured(tag, 4, 41)
    z = random_structured_unitary(tag.family, 4, seed=42)
    res = sn.grad_f(a, z, tag.family)
    x, gn = sn.tangent_gradient(z.conj().T @ a @ z, tag.family)
    # grad_f builds X from the same expressions, so the two agree bit for bit
    assert x.tobytes() == res.x.tobytes()
    assert gn == res.grad_norm


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("k", [-400, -201, -199, 199, 201, 400])
def test_tangent_gradient_is_quadratic_bit_for_bit(tag, k):
    # X and ||X||_F at M 2^k are 2^(2k) times those at M, inside and outside
    # the window of _normalized
    m = sn.gen_structured(tag, 3, 7)
    x, grad_norm = sn.tangent_gradient(m, tag.family)
    x_k, grad_norm_k = sn.tangent_gradient(np.ldexp(m.view(float), k).view(complex),
                                           tag.family)
    assert grad_norm > 0.1
    assert x_k.tobytes() == np.ldexp(x.view(float), 2 * k).view(complex).tobytes()
    assert grad_norm_k == math.ldexp(grad_norm, 2 * k)


def test_pivot_gain_zero_gradient():
    x = np.zeros((8, 8), dtype=complex)
    for kind, i, j in sn.pivot_set(sn.SYMPLECTIC, 4):
        assert sn.pivot_gain(x, kind, i, j) == 0.0


def test_pivot_gain_double_rotation_value():
    # gain = 4 |x| at the pivot entry: |3+4i| = 5 -> 20
    n = 4
    x = np.zeros((8, 8), dtype=complex)
    x[0, 1] = 3 + 4j
    x[1, 0] = -(3 - 4j)
    x[n, n + 1] = 3 + 4j
    x[n + 1, n] = -(3 - 4j)
    assert (sn.pivot_gain(x, sn.RotationKind.SYMP_DIRECT_SUM, 1, 2)
            == pytest.approx(20.0, rel=1e-15))


def test_pivot_gain_single_rotation_value():
    n = 3
    x = np.zeros((6, 6), dtype=complex)
    x[0, n] = 2.5  # symplectic single pivots carry real entries of X
    x[n, 0] = -2.5
    assert (sn.pivot_gain(x, sn.RotationKind.SYMP_SINGLE, 1, n + 1)
            == pytest.approx(5.0, rel=1e-15))


@pytest.mark.parametrize("tag", TAGS)
def test_pivot_gain_formula_against_trace_oracle(tag):
    # |Re tr(X^H dR)| computed from the dense derivative of build_rotation
    family = tag.family
    n = 4
    a = sn.gen_structured(tag, n, 43)
    z = random_structured_unitary(family, n, seed=44)
    x, _ = sn.tangent_gradient(z.conj().T @ a @ z, family)
    h = 1e-7
    for kind, i, j in sn.pivot_set(family, n):
        x_piv = complex(x[i - 1, j - 1])
        alpha = kind.fixed_alpha
        if alpha is None:
            alpha = math.atan2(x_piv.imag, x_piv.real) if x_piv != 0 else 0.0
        rp = sn.build_rotation(kind, i, j, h, alpha, 2 * n)
        rm = sn.build_rotation(kind, i, j, -h, alpha, 2 * n)
        rdot = (rp - rm) / (2 * h)
        want = abs(float(np.real(np.trace(x.conj().T @ rdot))))
        got = sn.pivot_gain(x, kind, i, j)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("tag", TAGS)
def test_pivot_condition_lower_bound(tag):
    family = tag.family
    n = 5
    for trial in range(25):
        a = sn.gen_structured(tag, n, 500 + trial)
        z = random_structured_unitary(family, n, seed=600 + trial)
        x, grad_norm = sn.tangent_gradient(z.conj().T @ a @ z, family)
        best = max(sn.pivot_gain(x, kind, i, j)
                   for kind, i, j in sn.pivot_set(family, n))
        assert best >= sn.eta(n) * grad_norm - 1e-12


def test_eta_value():
    assert sn.eta(5) == pytest.approx(2 / math.sqrt(90), rel=1e-15)
    assert sn.eta(1) == pytest.approx(2 / math.sqrt(2), rel=1e-15)


def test_should_skip_contract():
    # zero gradient: condition holds for any rotation, never skip
    assert not sn.should_skip(0.0, 0.0, 4)
    # boundary: gain == eta * grad_norm is kept
    assert not sn.should_skip(sn.eta(4) * 1.0, 1.0, 4)
    # n=5: eta ~ 0.2108, gain 0.1 is below
    assert sn.should_skip(0.1, 1.0, 5)
