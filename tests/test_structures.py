import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structnorm as sn
from structnorm.structures import _flip_conj

TAGS = list(sn.StructureTag)


def test_make_j_smallest():
    np.testing.assert_array_equal(sn.make_J(1), np.array([[0, 1], [-1, 0]]))


def test_make_j_identities():
    j = sn.make_J(3)
    np.testing.assert_array_equal(j @ j, -np.eye(6))
    j4 = sn.make_J(4)
    np.testing.assert_array_equal(j4.conj().T, -j4)


def test_make_f_smallest():
    np.testing.assert_array_equal(sn.make_F(2), np.array([[0, 1], [1, 0]]))


def test_make_f_identities():
    f = sn.make_F(5)
    np.testing.assert_array_equal(f @ f, np.eye(5))
    f3 = sn.make_F(3)
    np.testing.assert_array_equal(f3.conj().T, f3)


def test_check_structure_known_cases():
    # J J = -I is Hermitian, so J itself is Hamiltonian
    assert sn.check_structure(sn.make_J(3), sn.StructureTag.HAMILTONIAN) == 0.0
    # (J I)^H = -J, so the identity is skew-Hamiltonian
    assert sn.check_structure(np.eye(6), sn.StructureTag.SKEW_HAMILTONIAN) == 0.0


@pytest.mark.parametrize("tag", TAGS)
def test_check_structure_is_scale_invariant_past_norm_overflow(tag):
    # ||A||_F overflows from entries of about 2^512 on; the residual of A
    # scaled by a power of two must still be the unscaled one, not nan
    broken = sn.gen_structured(tag, 2, 5)
    broken[0, 1] += 1.0
    for a in (sn.gen_structured(tag, 2, 5), broken):
        want = sn.check_structure(a, tag)
        for k in (0, 520, 600, 1000):
            assert sn.check_structure(a * 2.0 ** k, tag) == want
    assert sn.check_structure(broken * 2.0 ** 600, tag) > 0.1


def test_check_structure_rejects_nonsquare():
    with pytest.raises(ValueError):
        sn.check_structure(np.zeros((2, 3)), sn.StructureTag.HAMILTONIAN)


def test_check_structure_rejects_odd_dimension():
    with pytest.raises(ValueError):
        sn.check_structure(np.zeros((3, 3)), sn.StructureTag.HAMILTONIAN)


@pytest.mark.parametrize("tag", TAGS)
def test_gen_structured_residual(tag):
    a = sn.gen_structured(tag, 7, 123)
    assert sn.check_structure(a, tag) <= 1e-14


def test_gen_structured_hamiltonian_blocks():
    n = 25
    a = sn.gen_structured(sn.StructureTag.HAMILTONIAN, n, 42)
    assert a.shape == (50, 50)
    np.testing.assert_allclose(a[n:, n:], -a[:n, :n].conj().T, atol=0)
    h12 = a[:n, n:]
    np.testing.assert_allclose(h12, h12.conj().T, atol=0)


def test_gen_structured_per_hermitian_antidiagonal_real():
    n = 2
    a = sn.gen_structured(sn.StructureTag.PER_HERMITIAN, n, 7)
    for blk in (a[:n, n:], a[n:, :n]):
        anti = np.diagonal(blk[::-1, :])
        np.testing.assert_allclose(anti.imag, 0.0, atol=0)


def test_gen_structured_perskew_antidiagonal_imaginary():
    n = 3
    a = sn.gen_structured(sn.StructureTag.PERSKEW_HERMITIAN, n, 7)
    for blk in (a[:n, n:], a[n:, :n]):
        anti = np.diagonal(blk[::-1, :])
        np.testing.assert_allclose(anti.real, 0.0, atol=0)


@pytest.mark.parametrize("tag", TAGS)
def test_gen_structured_deterministic(tag):
    a = sn.gen_structured(tag, 4, 99)
    b = sn.gen_structured(tag, 4, 99)
    np.testing.assert_array_equal(a, b)


def test_hamiltonian_times_i_is_skew_hamiltonian():
    a = sn.gen_structured(sn.StructureTag.HAMILTONIAN, 5, 0)
    assert sn.check_structure(1j * a, sn.StructureTag.SKEW_HAMILTONIAN) <= 1e-15
    w = sn.gen_structured(sn.StructureTag.SKEW_HAMILTONIAN, 5, 1)
    assert sn.check_structure(1j * w, sn.StructureTag.HAMILTONIAN) <= 1e-15


def test_norm_helpers_identity_and_j():
    assert sn.diag_norm_sq(np.eye(4)) == 4.0
    assert sn.offdiag_norm_sq(np.eye(4)) == 0.0
    j = sn.make_J(2)
    assert sn.diag_norm_sq(j) == 0.0
    assert sn.offdiag_norm_sq(j) == 4.0


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_pythagoras_identity(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    total = sn.frob_norm(a) ** 2
    assert abs(sn.diag_norm_sq(a) + sn.offdiag_norm_sq(a) - total) <= 1e-13 * total


@pytest.mark.parametrize("tag", TAGS)
def test_structured_diagonal_forms(tag):
    d0 = np.array([1 + 2j, -3 + 0.5j])
    d = sn.structured_diagonal(tag, d0)
    assert sn.check_structure(d, tag) <= 1e-15
    tail = np.diagonal(d)[2:]
    if tag is sn.StructureTag.HAMILTONIAN:
        np.testing.assert_array_equal(tail, -d0.conj())
    elif tag is sn.StructureTag.SKEW_HAMILTONIAN:
        np.testing.assert_array_equal(tail, d0.conj())
    elif tag is sn.StructureTag.PER_HERMITIAN:
        np.testing.assert_array_equal(tail, d0.conj()[::-1])
    else:
        np.testing.assert_array_equal(tail, -d0.conj()[::-1])


@pytest.mark.parametrize("tag", TAGS)
def test_gen_normal_structured(tag):
    a, u, d = sn.gen_normal_structured(tag, 5, 11, n_rot=40)
    na = np.linalg.norm(a)
    assert sn.check_structure(a, tag) <= 1e-12
    comm = a @ a.conj().T - a.conj().T @ a
    assert np.linalg.norm(comm) <= 1e-10 * na ** 2
    # factors reproduce the matrix and U is unitary
    np.testing.assert_allclose(u @ d @ u.conj().T, a, atol=1e-12 * na)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(10), atol=1e-13)


def _gen_normal_one_rotation_at_a_time(tag, n, seed):
    # gen_normal_structured with one apply_right call per rotation; the
    # batched call must give the same bits
    rng = np.random.default_rng(seed)
    re = rng.choice([-1.0, 1.0], n) * (0.5 + np.abs(rng.standard_normal(n)))
    im = rng.choice([-1.0, 1.0], n) * (0.5 + np.abs(rng.standard_normal(n)))
    d = sn.structured_diagonal(tag, re + 1j * im)
    u = np.eye(2 * n, dtype=np.complex128)
    positions = sn.pivot_set(tag.family, n)
    for _ in range(4 * n * n):
        kind, i, j = positions[rng.integers(len(positions))]
        sn.apply_right(u, sn.planes(sn.random_spec(kind, i, j, rng), n))
    return u @ d @ u.conj().T, u, d


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_gen_normal_structured_bitwise_equals_one_rotation_at_a_time(tag, n):
    for seed in (0, 7, 90001):
        got = sn.gen_normal_structured(tag, n, seed)
        want = _gen_normal_one_rotation_at_a_time(tag, n, seed)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


def test_gen_normal_structured_deterministic():
    a1, _, _ = sn.gen_normal_structured(sn.StructureTag.HAMILTONIAN, 3, 5)
    a2, _, _ = sn.gen_normal_structured(sn.StructureTag.HAMILTONIAN, 3, 5)
    np.testing.assert_array_equal(a1, a2)


def test_flip_conj_matches_explicit():
    rng = np.random.default_rng(2)
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    f = sn.make_F(4)
    np.testing.assert_allclose(_flip_conj(b), f @ b.conj().T @ f, atol=0)
