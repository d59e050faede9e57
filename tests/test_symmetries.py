"""Symmetries of the problem: maps between inputs that keep the distance.

* Phase: iA swaps Hamiltonian with skew-Hamiltonian and per-Hermitian with
  perskew-Hermitian, and leaves every |entry| as it was.
* Shift: A + cI stays in its class for real c (skew-Hamiltonian,
  per-Hermitian) or imaginary c (Hamiltonian, perskew-Hermitian), and moves
  the objective by a constant, since the trace is invariant.
* W (``helpers.w_map``): W A W^H carries the perplectic problem to the
  symplectic one.

Phase and shift leave every pivot's angle problem as it was, so the two
solves take the same rotations up to rounding and must agree in distance.
W reorders the pivots, so the two solves may reach different stationary
points; what must hold is that W carries a perplectic solution to a
symplectic one of the same distance and gradient norm.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structnorm as sn
from helpers import w_map

T = sn.StructureTag
TAGS = list(T)
PHASE_PARTNER = {T.HAMILTONIAN: T.SKEW_HAMILTONIAN,
                 T.SKEW_HAMILTONIAN: T.HAMILTONIAN,
                 T.PER_HERMITIAN: T.PERSKEW_HERMITIAN,
                 T.PERSKEW_HERMITIAN: T.PER_HERMITIAN}
SHIFT_UNIT = {T.HAMILTONIAN: 1j, T.SKEW_HAMILTONIAN: 1.0,
              T.PER_HERMITIAN: 1.0, T.PERSKEW_HERMITIAN: 1j}
W_PARTNER = {T.PER_HERMITIAN: T.SKEW_HAMILTONIAN,
             T.PERSKEW_HERMITIAN: T.HAMILTONIAN}
CONFIG = sn.SolverConfig(max_sweeps=60, trace=False)

small = dict(n=st.integers(min_value=1, max_value=3),
             seed=st.integers(min_value=0, max_value=10_000))


@settings(max_examples=40, deadline=None)
@given(tag=st.sampled_from(TAGS), **small)
def test_phase_swaps_the_classes_and_keeps_the_distance(tag, n, seed):
    a = sn.gen_structured(tag, n, seed)
    partner = PHASE_PARTNER[tag]
    assert sn.check_structure(1j * a, partner) == 0.0
    d = sn.solve(a, tag, CONFIG).distance
    d_phase = sn.solve(1j * a, partner, CONFIG).distance
    assert abs(d - d_phase) <= 1e-12 * np.linalg.norm(a)


@settings(max_examples=40, deadline=None)
@given(tag=st.sampled_from(TAGS),
       c=st.floats(min_value=-4.0, max_value=4.0), **small)
def test_shift_keeps_the_class_and_the_distance(tag, c, n, seed):
    a = sn.gen_structured(tag, n, seed)
    shifted = a + c * SHIFT_UNIT[tag] * np.eye(2 * n)
    assert sn.check_structure(shifted, tag) <= 1e-15
    d = sn.solve(a, tag, CONFIG).distance
    d_shift = sn.solve(shifted, tag, CONFIG).distance
    assert abs(d - d_shift) <= 1e-12 * np.linalg.norm(a)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_w_sends_ij_to_f(n):
    w = w_map(n)
    np.testing.assert_array_equal(w.conj().T @ w, np.eye(2 * n))
    np.testing.assert_array_equal(w.conj().T @ (1j * sn.make_J(n)) @ w,
                                  sn.make_F(2 * n))


@settings(max_examples=30, deadline=None)
@given(tag=st.sampled_from(list(W_PARTNER)), **small)
def test_w_carries_a_perplectic_solve_to_a_symplectic_one(tag, n, seed):
    a = sn.gen_structured(tag, n, seed)
    w, partner = w_map(n), W_PARTNER[tag]
    b = w @ a @ w.conj().T
    assert sn.check_structure(b, partner) == 0.0
    res = sn.solve(a, tag, CONFIG)
    na = np.linalg.norm(a)
    # W Z W^H is unitary symplectic, and W X W^H a normal matrix of the
    # partner class at the same distance from B
    z, x = w @ res.z @ w.conj().T, w @ res.x @ w.conj().T
    j = sn.make_J(n)
    assert np.linalg.norm(z.conj().T @ j @ z - j) <= 1e-12 * n
    assert sn.check_structure(x, partner) <= 1e-10
    assert abs(sn.distance_to(b, x) - res.distance) <= 1e-12 * na
    # the mapped iterate is as stationary for B as the iterate is for A
    _, grad_norm = sn.tangent_gradient(w @ res.iterate @ w.conj().T,
                                       sn.SYMPLECTIC)
    assert abs(grad_norm - res.grad_norm) <= 1e-12 * na ** 2
