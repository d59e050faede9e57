import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structnorm as sn
from structnorm import _kernels
from structnorm.rotations import check_pivot

from helpers import dense_similarity, random_structured_unitary

ALL_KINDS = list(sn.RotationKind)


def _all_specs(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for family in (sn.SYMPLECTIC, sn.PERPLECTIC):
        for kind, i, j in sn.pivot_set(family, n):
            out.append(sn.random_spec(kind, i, j, rng))
    return out


def test_symp_single_quarter_turn():
    spec = sn.RotationSpec(sn.RotationKind.SYMP_SINGLE, 1, 2, math.pi / 2)
    r = sn.build_rotation(spec, 2)
    np.testing.assert_allclose(r, np.array([[0, -1], [1, 0]]), atol=1e-16)


def test_perp_single_eighth_turn():
    spec = sn.RotationSpec(sn.RotationKind.PERP_SINGLE, 1, 2, math.pi / 4)
    r = sn.build_rotation(spec, 2)
    h = math.sqrt(2) / 2
    np.testing.assert_allclose(r, np.array([[h, 1j * h], [1j * h, h]]), atol=1e-15)


@pytest.mark.parametrize("spec", _all_specs(3, 0))
def test_zero_phi_is_identity(spec):
    z = sn.RotationSpec(spec.kind, spec.i, spec.j, 0.0, spec.alpha)
    np.testing.assert_array_equal(sn.build_rotation(z, 6), np.eye(6))


@pytest.mark.parametrize("spec", _all_specs(4, 1))
def test_rotation_unitary_and_structure_preserving(spec):
    r = sn.build_rotation(spec, 8)
    assert np.linalg.norm(r.conj().T @ r - np.eye(8)) <= 1e-14 * 8
    assert sn.is_structure_preserving(spec, 8) <= 1e-14 * 8


def test_build_rotation_rejects_bad_pivot():
    with pytest.raises(ValueError):
        sn.build_rotation(sn.RotationSpec(sn.RotationKind.SYMP_SINGLE, 1, 2, 0.1), 8)
    with pytest.raises(ValueError):
        sn.build_rotation(
            sn.RotationSpec(sn.RotationKind.SYMP_CONCENTRIC, 1, 4, 0.1), 8)
    with pytest.raises(ValueError):
        sn.build_rotation(
            sn.RotationSpec(sn.RotationKind.PERP_INTERLEAVED, 2, 7, 0.1), 8)


@pytest.mark.parametrize("spec", _all_specs(4, 2))
def test_apply_similarity_matches_dense_product(spec):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    expected = dense_similarity(a, spec)
    got = sn.apply_similarity(a.copy(), sn.planes(spec, 4))
    assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(a)


def test_apply_similarity_phi_zero_is_noop():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    spec = sn.RotationSpec(sn.RotationKind.SYMP_DIRECT_SUM, 1, 2, 0.0, 0.7)
    np.testing.assert_array_equal(
        sn.apply_similarity(a.copy(), sn.planes(spec, 3)), a)


def test_apply_similarity_rejects_nonsquare():
    spec = sn.RotationSpec(sn.RotationKind.SYMP_SINGLE, 1, 3, 0.1)
    with pytest.raises(ValueError):
        sn.apply_similarity(np.zeros((4, 6), dtype=complex), sn.planes(spec, 2))


@pytest.mark.parametrize("tag,kinds", [
    (sn.StructureTag.HAMILTONIAN,
     (sn.RotationKind.SYMP_SINGLE, sn.RotationKind.SYMP_DIRECT_SUM,
      sn.RotationKind.SYMP_CONCENTRIC)),
    (sn.StructureTag.SKEW_HAMILTONIAN,
     (sn.RotationKind.SYMP_DIRECT_SUM,)),
    (sn.StructureTag.PER_HERMITIAN,
     (sn.RotationKind.PERP_SINGLE, sn.RotationKind.PERP_DIRECT_SUM,
      sn.RotationKind.PERP_INTERLEAVED)),
    (sn.StructureTag.PERSKEW_HERMITIAN,
     (sn.RotationKind.PERP_DIRECT_SUM,)),
])
def test_similarity_preserves_structure(tag, kinds):
    rng = np.random.default_rng(5)
    n = 4
    a = sn.gen_structured(tag, n, 17)
    na = np.linalg.norm(a)
    for kind, i, j in sn.pivot_set(tag.family, n):
        if kind not in kinds:
            continue
        spec = sn.random_spec(kind, i, j, rng)
        sn.apply_similarity(a, sn.planes(spec, n))
        assert sn.check_structure(a, tag) <= 1e-13
    assert abs(np.linalg.norm(a) - na) <= 1e-13 * na


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_similarity_preserves_frobenius_norm(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    na = np.linalg.norm(a)
    for spec in _all_specs(4, seed):
        sn.apply_similarity(a, sn.planes(spec, 4))
    assert abs(np.linalg.norm(a) - na) <= 1e-13 * na


def test_apply_right_accumulates_product():
    rng = np.random.default_rng(6)
    z = np.eye(8, dtype=np.complex128)
    specs = _all_specs(4, 7)
    expected = np.eye(8, dtype=np.complex128)
    for spec in specs:
        expected = expected @ sn.build_rotation(spec, 8)
        sn.apply_right(z, sn.planes(spec, 4))
    np.testing.assert_allclose(z, expected, atol=1e-13)


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from([sn.SYMPLECTIC, sn.PERPLECTIC]),
       n=st.integers(min_value=1, max_value=6), data=st.data())
def test_apply_right_batch_is_bitwise_one_at_a_time(family, n, data):
    # any run of rotations of the family's three kinds: repeated pivots,
    # pivots sharing a column, angles over twice the solver's phi domain
    positions = sn.pivot_set(family, n)
    angle = st.floats(min_value=-math.pi / 2, max_value=math.pi / 2)
    picks = data.draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=len(positions) - 1),
                  angle, angle), max_size=80))
    specs = [sn.RotationSpec(*positions[k], phi, alpha)
             for k, phi, alpha in picks]
    seed = data.draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    dim = 2 * n
    z0 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    want = z0.copy()  # one scalar column pass per plane, in order
    for spec in specs:
        c = math.cos(spec.phi)
        for p, q, _, s in sn.planes(spec, n):
            _kernels.rotate_cols(want, p, q, c, s)
    rotations = [sn.planes(spec, n) for spec in specs]
    one_at_a_time = z0.copy()
    for rotation in rotations:
        sn.apply_right(one_at_a_time, rotation)
    got = z0.copy()
    assert sn.apply_right(got, *rotations) is got
    assert got.tobytes() == want.tobytes()
    assert one_at_a_time.tobytes() == want.tobytes()


def test_double_rotation_diagonal_mirroring():
    n = 4
    a = sn.gen_structured(sn.StructureTag.HAMILTONIAN, n, 23)
    rng = np.random.default_rng(8)
    for kind, i, j in sn.pivot_set(sn.SYMPLECTIC, n):
        sn.apply_similarity(a, sn.planes(sn.random_spec(kind, i, j, rng), n))
        for k in range(n):
            assert abs(abs(a[n + k, n + k].real) - abs(a[k, k].real)) <= 1e-12
            assert abs(abs(a[n + k, n + k].imag) - abs(a[k, k].imag)) <= 1e-12


def test_pivot_set_symplectic_n2_o1():
    got = [(k, i, j) for k, i, j in sn.pivot_set(sn.SYMPLECTIC, 2, "O1")]
    assert got == [
        (sn.RotationKind.SYMP_DIRECT_SUM, 1, 2),
        (sn.RotationKind.SYMP_SINGLE, 1, 3),
        (sn.RotationKind.SYMP_SINGLE, 2, 4),
        (sn.RotationKind.SYMP_CONCENTRIC, 1, 4),
    ]


def test_pivot_set_perplectic_n2_o1():
    got = [(k, i, j) for k, i, j in sn.pivot_set(sn.PERPLECTIC, 2, "O1")]
    assert got == [
        (sn.RotationKind.PERP_DIRECT_SUM, 1, 2),
        (sn.RotationKind.PERP_SINGLE, 1, 4),
        (sn.RotationKind.PERP_SINGLE, 2, 3),
        (sn.RotationKind.PERP_INTERLEAVED, 1, 3),
    ]


def test_pivot_set_o2_walks_rows_right_to_left():
    got = sn.pivot_set(sn.SYMPLECTIC, 3, "O2")
    by_row = {}
    for _, i, j in got:
        by_row.setdefault(i, []).append(j)
    for js in by_row.values():
        assert js == sorted(js, reverse=True)


@pytest.mark.parametrize("family", [sn.SYMPLECTIC, sn.PERPLECTIC])
@pytest.mark.parametrize("ordering", ["O1", "O2"])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_pivot_set_size_and_uniqueness(family, ordering, n):
    got = sn.pivot_set(family, n, ordering)
    assert len(got) == n * n
    assert len(set(got)) == n * n
    for kind, i, j in got:
        check_pivot(kind, i, j, n)


@pytest.mark.parametrize("family", [sn.SYMPLECTIC, sn.PERPLECTIC])
def test_pivot_set_covers_upper_triangle_with_mirrors(family):
    n = 4
    covered = []
    for kind, i, j in sn.pivot_set(family, n):
        spec = sn.RotationSpec(kind, i, j, 0.1, 0.2)
        covered.extend((p, q) for p, q, _, _ in sn.planes(spec, n))
    expected = {(p, q) for p in range(2 * n) for q in range(p + 1, 2 * n)}
    assert set(covered) == expected
    assert len(covered) == len(expected)  # each position exactly once


def test_same_orderings_same_positions():
    o1 = set(sn.pivot_set(sn.SYMPLECTIC, 4, "O1"))
    o2 = set(sn.pivot_set(sn.SYMPLECTIC, 4, "O2"))
    assert o1 == o2


def test_random_structured_unitary_helper():
    for family in (sn.SYMPLECTIC, sn.PERPLECTIC):
        z = random_structured_unitary(family, 3, seed=9)
        assert np.linalg.norm(z.conj().T @ z - np.eye(6)) <= 1e-12
        s = sn.make_J(3) if family == sn.SYMPLECTIC else sn.make_F(6)
        assert np.linalg.norm(z.conj().T @ s @ z - s) <= 1e-12
