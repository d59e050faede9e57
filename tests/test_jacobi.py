import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import structnorm as sn
from structnorm import _kernels, _sweep, jacobi

TAGS = list(sn.StructureTag)


def test_distance_to_basic():
    a = np.arange(4.0).reshape(2, 2) + 0j
    assert sn.distance_to(a, a) == 0.0
    e = np.full((2, 2), 0.5 + 0.5j)
    assert sn.distance_to(a, a + e) == pytest.approx(np.linalg.norm(e), rel=1e-14)
    with pytest.raises(ValueError):
        sn.distance_to(a, np.zeros((3, 3)))
    # beyond the largest double: inf, and no overflow warning
    big = np.full((2, 2), 1e308 + 0j)
    assert sn.distance_to(big, -big) == math.inf


def test_config_validation():
    # a non-finite tol makes the stop tol * ||A||^2 nan (inf * 0 for the zero
    # matrix), which no sweep gain is at or below; a value that is not a
    # real number is a ValueError too, not a TypeError from numpy, and a bool
    # is a number, but no tolerance
    for tol in (0.0, float("nan"), float("inf"), -1e-3, True, False, "1e-10",
                None, 1e-3j):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            sn.SolverConfig(tol=tol)
    for tol in (1, 1e-300, np.float64(1e-3), np.float32(0.5), np.int64(2)):
        assert sn.SolverConfig(tol=tol).tol == tol
    # rejected here, not at the first sweep (TypeError from range(), or
    # pivot_set's unknown ordering); a bool is an Integral, but no count
    for max_sweeps in (0, 2.5, 3.0, "3", True, False):
        with pytest.raises(ValueError, match="max_sweeps"):
            sn.SolverConfig(max_sweeps=max_sweeps)
    for ordering in ("O3", "", "O1 ", None, 1):
        with pytest.raises(ValueError, match="unknown ordering"):
            sn.SolverConfig(ordering=ordering)
    for ordering in ("O1", "O2", "o1", "o2"):
        config = sn.SolverConfig(ordering=ordering, max_sweeps=np.int64(1))
        assert sn.pivot_set(sn.SYMPLECTIC, 2, config.ordering)
        assert len(list(sn.iterate(np.zeros((4, 4)), sn.StructureTag.HAMILTONIAN,
                                   config))) == 1
    # the flags are read for their truth, so the string "false" would turn
    # the trace on
    for name in ("skip_rule", "trace"):
        for flag in ("false", "", 0, 1, None, np.int64(1), 1.0):
            with pytest.raises(ValueError, match=f"{name} must be a bool"):
                sn.SolverConfig(**{name: flag})
        for flag in (True, False, np.True_, np.False_):
            assert getattr(sn.SolverConfig(**{name: flag}), name) is flag


def test_config_fields_cannot_be_assigned():
    # an assignment would skip every check above: trace = "false" would turn
    # the trace on, and max_sweeps = 2.5 would fail in range()
    config = sn.SolverConfig(max_sweeps=1)
    for name, value in (("trace", "false"), ("max_sweeps", 2.5)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, name, value)
    assert (config.trace, config.max_sweeps) == (True, 1)


def test_iterate_rejects_what_solve_rejects_when_called():
    # an odd dimension would sweep only the leading even block
    config = sn.SolverConfig()
    tag = sn.StructureTag.HAMILTONIAN
    with pytest.raises(ValueError, match="even dimension required"):
        sn.iterate(np.ones((3, 3)), tag, config)
    with pytest.raises(ValueError, match="matrix must be square"):
        sn.iterate(np.ones((2, 4)), tag, config)
    # the empty matrix is named at the call, not by the first sweep's
    # pivot set
    for call in (sn.iterate, sn.solve):
        with pytest.raises(ValueError, match=r"^matrix must not be empty \(0x0\)$"):
            call(np.zeros((0, 0)), tag, config)
    # a bad input is named as such, not blamed on the first pivot it reaches
    a = sn.gen_structured(tag, 3, 1)
    a[0, 2] = np.nan
    with pytest.raises(sn.NonFiniteError,
                       match="^input matrix has non-finite entries$"):
        sn.iterate(a, tag, config)
    # finite entries whose squared norm overflows (the angle solve's
    # OverflowError otherwise)
    big = sn.gen_structured(tag, 3, 6775) * 2.0 ** 516
    assert np.isfinite(big).all()
    with pytest.raises(sn.NonFiniteError,
                       match="^the squared Frobenius norm of the input overflows$"):
        sn.iterate(big, tag, config)


def test_solve_checks_shape_finite_structure_then_norm_range():
    # each input fails two checks; the earlier check in the order names it
    tag = sn.StructureTag.HAMILTONIAN
    rng = np.random.default_rng(2)
    unstructured = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    with pytest.raises(ValueError, match="matrix must be square"):
        sn.solve(np.full((2, 4), np.nan), tag)
    with pytest.raises(ValueError, match="even dimension required"):
        sn.solve(np.full((3, 3), np.nan), tag)
    bad = unstructured.copy()
    bad[0, 0] = np.inf
    with pytest.raises(sn.NonFiniteError, match="non-finite entries"):
        sn.solve(bad, tag)
    with pytest.raises(sn.StructureError, match="input is not hamiltonian"):
        sn.solve(unstructured * 2.0 ** 520, tag)


@pytest.mark.parametrize("tag", TAGS)
def test_iterate_yields_one_state_per_sweep(tag):
    a = sn.gen_structured(tag, 3, 11)
    a0 = a.copy()
    sweeps = [state.sweep for state in
              sn.iterate(a, tag, sn.SolverConfig(max_sweeps=4))]
    assert sweeps == [1, 2, 3, 4]
    np.testing.assert_array_equal(a, a0)  # the sweeps rotate a copy


@pytest.mark.parametrize("tag", TAGS)
def test_solve_ends_on_the_state_iterate_yields(tag):
    a, _, _ = sn.gen_normal_structured(tag, 3, 12)
    config = sn.SolverConfig(tol=1e-16)
    res = sn.solve(a, tag, config)
    assert res.converged and res.sweeps < config.max_sweeps
    for state in sn.iterate(a, tag, config):
        if state.sweep == res.sweeps:
            break
    assert res.z.tobytes() == state.z.tobytes()
    assert res.iterate.tobytes() == state.a.tobytes()


def test_solve_rejects_bad_structure():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    with pytest.raises(sn.StructureError):
        sn.solve(a, sn.StructureTag.HAMILTONIAN)


def test_solve_rejects_odd_dimension():
    with pytest.raises(ValueError):
        sn.solve(np.zeros((3, 3), dtype=complex), sn.StructureTag.PER_HERMITIAN)


def test_solve_rejects_non_finite():
    a = sn.gen_structured(sn.StructureTag.HAMILTONIAN, 2, 1)
    a[0, 1] = np.nan
    with pytest.raises((sn.NonFiniteError, sn.StructureError)):
        sn.solve(a, sn.StructureTag.HAMILTONIAN)


POISONS = [np.nan, np.inf, complex(0, -np.inf)]


@pytest.mark.parametrize("poison", POISONS, ids=str)
@pytest.mark.parametrize("sweep", [1, 2])
@pytest.mark.parametrize("skip_rule", [True, False])
@pytest.mark.parametrize("trace", [True, False])
@pytest.mark.parametrize("plane", [0, -1])
def test_non_finite_iterate_names_its_sweep(monkeypatch, plane, trace,
                                            skip_rule, sweep, poison):
    # a non-finite entry written into a touched row (of the first plane, or
    # of the mirror plane of a double rotation) of the first rotation of a
    # sweep is found as that sweep ends, with the trace on or off
    tag = sn.StructureTag.PER_HERMITIAN
    states = sn.iterate(sn.gen_structured(tag, 3, 4), tag, sn.SolverConfig(
        trace=trace, skip_rule=skip_rule))
    for _ in range(sweep - 1):
        next(states)
    original = jacobi.apply_similarity
    first = []

    def poisoned(m, rotation):
        original(m, rotation)
        if not first:
            first.append(rotation)
            m[rotation[plane][1], 0] = poison
        return m

    monkeypatch.setattr(jacobi, "apply_similarity", poisoned)
    with pytest.raises(sn.NonFiniteError) as info:
        next(states)
    assert first
    assert str(info.value) == f"non-finite entries at sweep {sweep}"


@pytest.mark.parametrize("poison", POISONS, ids=str)
@pytest.mark.parametrize("trace", [True, False])
@pytest.mark.parametrize("tag", TAGS)
def test_sweep_that_raises_still_brings_z_up_to_date(monkeypatch, tag, trace,
                                                     poison):
    # a non-finite iterate is found as the sweep ends, so a poisoned sweep
    # runs to its end and raises; Z must then equal, bit for bit, every
    # rotation the sweep applied, taken one at a time
    n = 3
    states = sn.iterate(sn.gen_structured(tag, n, 5), tag,
                        sn.SolverConfig(trace=trace))
    state = next(states)
    want = state.z.copy()
    original = jacobi.apply_similarity
    applied = []

    def poisoned(m, rotation):
        original(m, rotation)
        applied.append(rotation)
        if len(applied) == 5:
            m[rotation[0][0], 0] = poison
        return m

    monkeypatch.setattr(jacobi, "apply_similarity", poisoned)
    with pytest.raises(sn.NonFiniteError):
        next(states)
    assert state.step == 2 * len(sn.pivot_set(tag.family, n))
    assert len(applied) >= 5
    for rotation in applied:
        sn.apply_right(want, rotation)
    assert state.z.tobytes() == want.tobytes()


@pytest.mark.parametrize("poison", [None, np.nan])
@pytest.mark.parametrize("trace", [True, False])
@pytest.mark.parametrize("squares", [None, np.inf, np.nan])
def test_sums_that_are_not_finite_fall_back_to_the_entrywise_check(
        monkeypatch, squares, trace, poison):
    # a sum of squares that is not finite (np.vdot patched to ``squares``)
    # sends the iterate on to the entrywise check, once per sweep, and a
    # finite sum skips it; a finite iterate goes on and computes the same
    # bits, and a non-finite entry raises
    tag = sn.StructureTag.PER_HERMITIAN
    a = sn.gen_structured(tag, 3, 6)
    config = sn.SolverConfig(max_sweeps=3, trace=trace)
    want = [(s.a.tobytes(), s.z.tobytes(), s.sweep_gain)
            for s in sn.iterate(a, tag, config)]
    states = sn.iterate(a, tag, config)  # checks the input, unpatched
    checked = []
    isfinite = np.isfinite

    def counted(x):
        checked.append(np.shape(x))
        return isfinite(x)

    if squares is not None:
        monkeypatch.setattr(np, "vdot", lambda x, y: complex(squares, 0.0))
    monkeypatch.setattr(np, "isfinite", counted)
    if poison is not None:
        original = jacobi.apply_similarity

        def poisoned(m, rotation):
            m[rotation[0][0], 0] = poison
            return original(m, rotation)

        monkeypatch.setattr(jacobi, "apply_similarity", poisoned)
        with pytest.raises(sn.NonFiniteError,
                           match="^non-finite entries at sweep 1$"):
            next(states)
        assert checked == [a.shape]
        return
    got = [(s.a.tobytes(), s.z.tobytes(), s.sweep_gain) for s in states]
    monkeypatch.undo()
    assert got == want
    assert checked == ([] if squares is None else [a.shape] * len(want))


@settings(max_examples=40, deadline=None)
@given(tag=st.sampled_from(TAGS), n=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=10_000),
       ordering=st.sampled_from(["O1", "O2"]), skip_rule=st.booleans())
def test_the_trace_does_not_change_the_computation(tag, n, seed, ordering,
                                                   skip_rule):
    # the trace takes two weights after each pivot and touches nothing
    # else; every sweep must still compute the same bits
    a = sn.gen_structured(tag, n, seed)
    on, off = (sn.iterate(a, tag, sn.SolverConfig(
        ordering=ordering, skip_rule=skip_rule, max_sweeps=4, trace=trace))
        for trace in (True, False))
    for traced, plain in zip(on, off):
        assert traced.sweep == plain.sweep
        assert traced.a.tobytes() == plain.a.tobytes()
        assert traced.z.tobytes() == plain.z.tobytes()
        assert traced.sweep_gain == plain.sweep_gain
        assert len(traced.trace) == traced.step and plain.trace == []


@settings(max_examples=30, deadline=None)
@given(tag=st.sampled_from(TAGS), n=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=0, max_value=10_000),
       k=st.integers(min_value=-545, max_value=525), skip_rule=st.booleans())
def test_solve_is_invariant_under_power_of_two_scaling(tag, n, seed, k,
                                                        skip_rule):
    # accepted exactly when log2 ||A 2^k||_F^2 lies in [-1022, 1024)
    a = sn.gen_structured(tag, n, seed)
    config = sn.SolverConfig(skip_rule=skip_rule)
    base = sn.solve(a, tag, config)
    norm_sq = float(np.vdot(a, a).real)
    if not -1022 <= math.log2(norm_sq) + 2 * k < 1024:
        with pytest.raises(sn.NonFiniteError, match="squared Frobenius norm"):
            sn.solve(a * 2.0 ** k, tag, config)
        return
    scaled = sn.solve(a * 2.0 ** k, tag, config)
    np.testing.assert_allclose(scaled.z, base.z, rtol=0, atol=1e-10)
    assert scaled.distance == pytest.approx(2.0 ** k * base.distance, rel=1e-10)
    # the gradient is quadratic in A, and not bitwise invariant
    assert math.isfinite(scaled.grad_norm)
    assert abs(scaled.grad_norm - math.ldexp(base.grad_norm, 2 * k)) <= (
        1e-12 * math.ldexp(norm_sq, 2 * k))


def test_solve_rejects_input_whose_squared_norm_overflows():
    # ||A||_F^2 of this fixture is 45.6: times 2^509 it stays below 2^1024,
    # times 2^510 it overflows, which the angle solve cannot survive
    tag = sn.StructureTag.HAMILTONIAN
    a = sn.gen_structured(tag, 3, 0)
    base = sn.solve(a, tag)
    scaled = sn.solve(a * 2.0 ** 509, tag)
    assert scaled.distance == 2.0 ** 509 * base.distance
    with pytest.raises(sn.NonFiniteError, match="norm of the input overflows"):
        sn.solve(a * 2.0 ** 510, tag)
    # finite entries whose vdot is nan + nan j, not inf
    big = sn.gen_structured(tag, 3, 6775) * 2.0 ** 516
    assert np.isfinite(big).all()
    with pytest.raises(sn.NonFiniteError, match="norm of the input overflows"):
        sn.solve(big, tag)
    # times 2^-540 the squared norm is 0.0 (the zero matrix stays accepted)
    with pytest.raises(sn.NonFiniteError, match="norm of the input underflows"):
        sn.solve(a * 2.0 ** -540, tag)


@pytest.mark.parametrize("case", ["diagonal", "zero", "n=1"])
@pytest.mark.parametrize("tag", TAGS, ids=lambda tag: tag.value)
def test_structured_diagonal_input_needs_no_rotations(tag, case):
    if case == "diagonal":
        a = sn.structured_diagonal(tag, np.array([1 + 2j, 3 - 1j, -2 + 0.5j]))
    elif case == "zero":
        a = np.zeros((4, 4), dtype=complex)
    else:
        a = sn.structured_diagonal(tag, np.array([1.5 - 0.5j]))
    res = sn.solve(a, tag)
    assert res.sweeps == 1 and res.converged
    assert sum(not r.skipped for r in res.trace) == 0
    assert res.distance == 0.0
    np.testing.assert_array_equal(res.z, np.eye(a.shape[0]))
    np.testing.assert_array_equal(res.x, a)


@pytest.mark.parametrize("tag", TAGS)
def test_solve_normal_fixture_reaches_diagonal(tag):
    a, _, _ = sn.gen_normal_structured(tag, 6, 71)
    na = np.linalg.norm(a)
    res = sn.solve(a, tag, sn.SolverConfig(tol=1e-16, max_sweeps=20))
    assert res.distance <= 1e-8 * na
    assert res.offdiag_norm_sq <= 1e-16 * na ** 2
    assert res.sweeps <= 20


def test_solve_resolves_gains_below_one_ulp_of_the_diagonal_weight():
    # the last sweeps of this n = 16 fixture gain less than one ulp of the
    # diagonal weight; stopping on the rounded difference of diag_norm_sq
    # ends it at distance 1.05e-8 ||A||
    tag = sn.StructureTag.PER_HERMITIAN
    a, _, _ = sn.gen_normal_structured(tag, 16, 1760389630)
    res = sn.solve(a, tag, sn.SolverConfig(tol=1e-16, trace=False))
    assert res.converged
    assert res.distance <= 1e-8 * np.linalg.norm(a)


@settings(max_examples=60, deadline=None)
@given(tag=st.sampled_from(TAGS), n=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=0, max_value=10_000))
def test_solution_is_a_fixed_point(tag, n, seed):
    config = sn.SolverConfig(trace=False)
    x = sn.solve(sn.gen_structured(tag, n, seed), tag, config).x
    assert sn.solve(x, tag, config).distance <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("tag", TAGS)
def test_solve_invariants_on_generic_fixture(tag):
    a = sn.gen_structured(tag, 5, 72)
    na_sq = np.linalg.norm(a) ** 2
    res = sn.solve(a, tag, sn.SolverConfig(max_sweeps=12))

    # per-step monotonicity of the diagonal weight
    ds = [r.diag_norm_sq for r in res.trace]
    for k in range(len(ds) - 1):
        assert ds[k + 1] >= ds[k] - 1e-12 * na_sq

    # Pythagoras along the trace
    for r in res.trace:
        assert abs(r.diag_norm_sq + r.offdiag_norm_sq - na_sq) <= 1e-12 * na_sq

    # iterate consistency; Z unitary and family-preserving
    recomputed = res.z.conj().T @ a @ res.z
    assert np.linalg.norm(recomputed - res.iterate) <= 1e-10 * np.linalg.norm(a)
    assert np.linalg.norm(res.z.conj().T @ res.z - np.eye(a.shape[0])) <= 1e-12 * a.shape[0]
    s = sn.make_J(5) if tag.family == sn.SYMPLECTIC else sn.make_F(10)
    assert np.linalg.norm(res.z.conj().T @ s @ res.z - s) <= 1e-12 * a.shape[0]

    # nearest-normal assembly identities
    np.testing.assert_allclose(
        res.x, (res.z @ res.d) @ res.z.conj().T, atol=1e-12 * np.linalg.norm(res.x))
    np.testing.assert_array_equal(np.diagonal(res.d), np.diagonal(res.iterate))
    assert sn.check_structure(res.x, tag) <= 1e-10
    comm = res.x @ res.x.conj().T - res.x.conj().T @ res.x
    assert np.linalg.norm(comm) <= 1e-10 * np.linalg.norm(res.x) ** 2
    assert abs(res.distance ** 2 - res.offdiag_norm_sq) <= 1e-10 * res.offdiag_norm_sq


@pytest.mark.parametrize("tag", TAGS)
def test_sweep_preserves_structure_and_norm(tag):
    a = sn.gen_structured(tag, 5, 73)
    na = np.linalg.norm(a)
    for state in sn.iterate(a, tag, sn.SolverConfig(max_sweeps=6)):
        assert sn.check_structure(state.a, tag) <= 1e-12
        assert abs(np.linalg.norm(state.a) - na) <= 1e-12 * na


def test_sweep_on_diagonal_input_is_noop():
    d = sn.structured_diagonal(sn.StructureTag.PER_HERMITIAN,
                               np.array([2 + 1j, -1 + 3j]))
    state = next(sn.iterate(d, sn.StructureTag.PER_HERMITIAN,
                            sn.SolverConfig()))
    np.testing.assert_array_equal(state.a, d)
    assert state.sweep == 1
    assert state.step == 4


def test_orderings_agree_on_diagonalizable_fixture():
    a, _, _ = sn.gen_normal_structured(sn.StructureTag.HAMILTONIAN, 6, 74)
    na_sq = np.linalg.norm(a) ** 2
    cfg = lambda o: sn.SolverConfig(ordering=o, tol=1e-16, max_sweeps=20)
    r1 = sn.solve(a, sn.StructureTag.HAMILTONIAN, cfg("O1"))
    r2 = sn.solve(a, sn.StructureTag.HAMILTONIAN, cfg("O2"))
    assert abs(r1.diag_norm_sq - r2.diag_norm_sq) <= 1e-8 * na_sq


def test_skip_rule_run():
    tag = sn.StructureTag.HAMILTONIAN
    a, _, _ = sn.gen_normal_structured(tag, 5, 75)
    na = np.linalg.norm(a)
    res = sn.solve(a, tag, sn.SolverConfig(skip_rule=True, tol=1e-16,
                                           max_sweeps=30))
    assert any(r.skipped for r in res.trace)
    ds = [r.diag_norm_sq for r in res.trace]
    for k in range(len(ds) - 1):
        assert ds[k + 1] >= ds[k] - 1e-12 * na ** 2
    # stationarity at convergence on the diagonalizable fixture class
    assert res.converged
    assert res.grad_norm <= 1e-6 * na ** 2


@pytest.mark.parametrize("skip_rule", [True, False])
def test_trace_weights_equal_a_fresh_recompute(monkeypatch, skip_rule):
    # skipped pivots reuse the weight pair of the record before them; it
    # must be bitwise the pair of the iterate at that step.  The skip-rule
    # run has eta skips, the other (tol 1e-16) PHI_SKIP skips.
    record = jacobi._record
    skipped = []

    def checked(state, *args):
        weights = record(state, *args)
        r = state.trace[-1]
        assert (r.diag_norm_sq, r.offdiag_norm_sq) == (
            sn.diag_norm_sq(state.a), sn.offdiag_norm_sq(state.a))
        skipped.append(r.skipped)
        return weights

    monkeypatch.setattr(jacobi, "_record", checked)
    tag = sn.StructureTag.HAMILTONIAN
    a, _, _ = sn.gen_normal_structured(tag, 5, 75)
    res = sn.solve(a, tag, sn.SolverConfig(skip_rule=skip_rule, tol=1e-16,
                                           max_sweeps=30))
    assert len(skipped) == len(res.trace)
    assert sum(skipped) > 0


@settings(max_examples=60, deadline=None)
@given(tag=st.sampled_from(TAGS), n=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=10_000),
       ordering=st.sampled_from(["O1", "O2"]), skip_rule=st.booleans(),
       eta=st.lists(st.booleans(), min_size=1, max_size=7),
       tiny=st.lists(st.booleans(), min_size=1, max_size=7))
def test_each_pivot_visit_takes_one_path_to_one_record(tag, n, seed, ordering,
                                                        skip_rule, eta, tiny):
    # A visit is skipped by the eta rule unsolved, or solved and then
    # skipped by PHI_SKIP, or solved and applied.  The stubs pick the path:
    # the eta decisions cycle through ``eta``, and where ``tiny`` says so the
    # solved phi is cut below PHI_SKIP.
    eta, tiny = itertools.cycle(eta), itertools.cycle(tiny)
    visits = []  # per visit: [eta decision, solver name, solution, planes args]

    def should_skip(gain, grad_norm, half_dim):
        assert skip_rule
        visits.append([next(eta), None, None, []])
        return visits[-1][0]

    def spied(name, solve):
        def solved(*args):
            sol = solve(*args)
            if next(tiny):
                sol = sol._replace(phi=math.copysign(0.5 * jacobi.PHI_SKIP, sol.phi))
            if not skip_rule:
                visits.append([False, None, None, []])
            assert visits[-1][0] is False and visits[-1][1] is None
            visits[-1][1:3] = name, sol
            return sol
        return solved

    def planes(*args):
        visits[-1][3].append(args)
        return real_planes(*args)

    real_planes = jacobi.planes
    a = sn.gen_structured(tag, n, seed)
    config = sn.SolverConfig(ordering=ordering, skip_rule=skip_rule,
                             max_sweeps=3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jacobi, "should_skip", should_skip)
        for name in ("solve_angles", "solve_angles_fixed_alpha"):
            mp.setattr(jacobi, name, spied(name, getattr(jacobi, name)))
        mp.setattr(jacobi, "planes", planes)
        for state in sn.iterate(a, tag, config):
            pass
    assert len(state.trace) == len(visits) == state.step == 3 * n * n
    for r, (eta_skipped, name, sol, planes_args) in zip(state.trace, visits):
        if eta_skipped:
            assert sol is None
            assert (r.phi.hex(), r.alpha.hex(), r.skipped) == (
                "0x0.0p+0", "0x0.0p+0", True)
        else:
            single = sn.RotationKind(r.kind).fixed_alpha is not None
            assert name == ("solve_angles_fixed_alpha" if single
                            else "solve_angles")
            assert (r.phi.hex(), r.alpha.hex()) == (sol.phi.hex(),
                                                    sol.alpha.hex())
            assert r.skipped == (abs(sol.phi) < jacobi.PHI_SKIP)
        assert planes_args == ([] if r.skipped else [
            (sn.RotationKind(r.kind), r.i, r.j, r.phi, r.alpha, n)])


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP open item 3: the eta rule compares each pivot's gain, taken "
    "from the iterate at the start of the sweep, with eta*||X||; this run "
    "stops at 50 sweeps with grad_norm 5.2e-6, where the run without the "
    "rule converges in 30"))
def test_skip_rule_run_converges_where_the_plain_run_does():
    tag = sn.StructureTag.HAMILTONIAN
    res = sn.solve(sn.gen_structured(tag, 2, 0), tag,
                   sn.SolverConfig(skip_rule=True))
    assert res.converged


@pytest.mark.parametrize("skip_rule", [True, False])
def test_planes_run_once_per_applied_pivot(monkeypatch, skip_rule):
    # one plane list per applied pivot feeds the similarity and the Z
    # layers; skipped pivots make none
    planes = jacobi.planes
    calls = []

    def counted(kind, i, j, phi, alpha, n):
        calls.append((kind.value, i, j, phi, alpha))
        return planes(kind, i, j, phi, alpha, n)

    monkeypatch.setattr(jacobi, "planes", counted)
    tag = sn.StructureTag.HAMILTONIAN
    a, _, _ = sn.gen_normal_structured(tag, 5, 75)
    res = sn.solve(a, tag, sn.SolverConfig(skip_rule=skip_rule, tol=1e-16,
                                           max_sweeps=30))
    assert any(r.skipped for r in res.trace)
    assert calls == [(r.kind, r.i, r.j, r.phi, r.alpha)
                     for r in res.trace if not r.skipped]


def test_trace_layout():
    tag = sn.StructureTag.SKEW_HAMILTONIAN
    a = sn.gen_structured(tag, 3, 76)
    res = sn.solve(a, tag, sn.SolverConfig(max_sweeps=3))
    per_sweep = 3 * 3
    assert len(res.trace) == res.sweeps * per_sweep
    for idx, r in enumerate(res.trace):
        assert r.step == idx + 1
        assert r.sweep == idx // per_sweep + 1


def test_trace_disabled():
    tag = sn.StructureTag.SKEW_HAMILTONIAN
    a = sn.gen_structured(tag, 3, 77)
    res = sn.solve(a, tag, sn.SolverConfig(max_sweeps=3, trace=False))
    assert res.trace == []


def test_first_sweep_dominates_on_random_hamiltonian():
    # 50x50 random Hamiltonian: the first sweep does the bulk of the work
    # (measured ~0.63 of the limit diagonal weight for this fixture) and the
    # iterate is already entrywise diagonally dominant afterwards
    a = sn.gen_structured(sn.StructureTag.HAMILTONIAN, 25, 78)
    res = sn.solve(a, sn.StructureTag.HAMILTONIAN,
                   sn.SolverConfig(max_sweeps=20))
    per_sweep = 25 * 25
    first = res.trace[per_sweep - 1]
    assert first.offdiag_norm_sq < res.trace[0].offdiag_norm_sq
    assert first.diag_norm_sq >= 0.6 * res.diag_norm_sq
    mean_diag_mass = first.diag_norm_sq / 50
    mean_off_mass = first.offdiag_norm_sq / (50 * 49)
    assert mean_diag_mass > 10 * mean_off_mass


def test_a_tag_that_is_not_a_structure_tag_is_rejected_at_the_call():
    a = sn.gen_structured(sn.StructureTag.HAMILTONIAN, 2, 0)
    message = r"^tag must be a StructureTag, not str 'hamiltonian' "
    with pytest.raises(TypeError, match=message):
        sn.solve(a, "hamiltonian")
    with pytest.raises(TypeError, match=message):
        sn.iterate(a, "hamiltonian", sn.SolverConfig())  # before the first next()


def test_a_config_that_is_not_a_solver_config_is_rejected_at_the_call():
    a = sn.gen_structured(sn.StructureTag.HAMILTONIAN, 2, 0)
    tag = sn.StructureTag.HAMILTONIAN
    with pytest.raises(TypeError, match=r"^config must be a SolverConfig, not "
                                        r"dict \{'tol': 0\.001\}$"):
        sn.solve(a, tag, {"tol": 1e-3})
    with pytest.raises(TypeError, match="^config must be a SolverConfig, not "
                                        "NoneType None$"):
        sn.iterate(a, tag, None)  # before the first next()
    assert sn.solve(a, tag, None).converged  # None is the defaults to solve


# --- the compiled sweep (``_sweep``) and the Python body ---------------------

@pytest.fixture(scope="module")
def compiled():
    """Skip unless the compiled sweep loads here (it needs gcc and zrot)."""
    tag = sn.StructureTag.HAMILTONIAN
    next(sn.iterate(sn.gen_structured(tag, 1, 0), tag,
                    sn.SolverConfig(trace=False)))
    if _sweep.lib is None:
        pytest.skip("the compiled sweep cannot be built here")


def _count_python_sweeps(mp):
    """A list that gains the sweep number of each sweep the Python body runs."""
    body, ran = jacobi._python_sweep, []

    def counted(state, *args):
        ran.append(state.sweep + 1)
        return body(state, *args)

    mp.setattr(jacobi, "_python_sweep", counted)
    return ran


def _records(trace):
    """The trace records as the repr of each field, which tells every bit of
    a float apart, -0.0 from 0.0 and a bool from a float."""
    return [tuple(map(repr, record)) for record in trace]


def _sweeps(a, tag, config):
    """(a, z, sweep_gain, step, trace records) after each sweep of
    ``iterate``, and the sweeps the Python body ran."""
    with pytest.MonkeyPatch.context() as mp:
        ran = _count_python_sweeps(mp)
        states = [(s.a.tobytes(), s.z.tobytes(), s.sweep_gain, s.step,
                   _records(s.trace)) for s in sn.iterate(a, tag, config)]
    return states, ran


INPUTS = {
    "generic": lambda tag, n, seed: sn.gen_structured(tag, n, seed),
    "normal": lambda tag, n, seed: sn.gen_normal_structured(tag, n, seed)[0],
    # equal leading diagonal entries: pivots with pc = qc = 0
    "diagonal": lambda tag, n, seed: sn.structured_diagonal(
        tag, np.full(n, complex(seed % 7 - 3, seed % 5 - 2))),
}


def _scaled_into(a, top):
    """``a`` times the power of two that puts ||A||_F^2 in [2^(top - 1),
    2^top), or None where no power of two does (its square moves the
    exponent by an even step) or ``a`` is zero."""
    norm_sq = np.vdot(a, a).real
    e = math.frexp(norm_sq)[1]  # norm_sq in [2^(e - 1), 2^e)
    if norm_sq == 0.0 or (top - e) % 2:
        return None
    return a * 2.0 ** ((top - e) // 2)


@settings(max_examples=100, deadline=None)
@given(tag=st.sampled_from(TAGS), n=st.integers(min_value=1, max_value=8),
       seed=st.integers(min_value=0, max_value=10_000),
       ordering=st.sampled_from(["O1", "O2"]), form=st.sampled_from(list(INPUTS)),
       k=st.sampled_from([0, -300, 300, "top"]), trace=st.booleans())
def test_the_compiled_sweep_is_bitwise_the_python_sweep(compiled, tag, n, seed,
                                                        ordering, form, k, trace):
    # normal inputs converge within the 6 sweeps, so the PHI_SKIP and
    # trivial paths are taken too; with the trace on, every record of the
    # two paths is equal too.  "top" puts ||A||_F^2 in [2^1022, 2^1023),
    # the top binade the C serves, where every angle solve rescales.
    a = INPUTS[form](tag, n, seed)
    a = _scaled_into(a, 1023) if k == "top" else a * 2.0 ** k
    assume(a is not None)
    config = sn.SolverConfig(ordering=ordering, max_sweeps=6, trace=trace)
    got, ran = _sweeps(a, tag, config)
    assert all((records != []) == trace for *_, records in got)
    assert ran == []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_sweep, "lib", None)
        want, ran = _sweeps(a, tag, config)
    assert ran == [1, 2, 3, 4, 5, 6]
    assert got == want


@pytest.mark.parametrize("trace", [False, True])
def test_an_iterate_with_squared_norm_from_2_1023_runs_the_python_body(
        compiled, trace):
    # the C serves only ||A||_F^2 < 2^1023, below which no angle solve can
    # overflow; an accepted input above it runs every sweep in Python
    tag = sn.StructureTag.HAMILTONIAN
    a = _scaled_into(sn.gen_structured(tag, 3, 0), 1024)
    assert math.frexp(np.vdot(a, a).real)[1] == 1024  # in [2^1023, 2^1024)
    config = sn.SolverConfig(max_sweeps=6, trace=trace)
    got, ran = _sweeps(a, tag, config)
    assert ran == [1, 2, 3, 4, 5, 6]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_sweep, "lib", None)
        want, _ = _sweeps(a, tag, config)
    assert got == want


WEIGHTS = ("diag_norm_sq", "offdiag_norm_sq", "_record")  # called with the trace on
GUARDED = ([(jacobi, name) for name in (
    "solve_angles", "solve_angles_fixed_alpha", "planes",
    "apply_similarity", "apply_right", *WEIGHTS)]
    + [(_kernels, name) for name in ("plane_similarity", "rotate_cols", "_zrot")])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("module, name", GUARDED + [(_sweep, "lib")],
                         ids=lambda v: getattr(v, "__name__", v))
def test_a_replaced_binding_runs_the_python_body(compiled, module, name, trace):
    # the stand-in is the library's function, counted: the Python body then
    # computes the same bits, and the C path would call none of them
    tag = sn.StructureTag.PER_HERMITIAN
    a = sn.gen_structured(tag, 3, 8)
    config = sn.SolverConfig(max_sweeps=3, trace=trace)
    want, ran = _sweeps(a, tag, config)
    assert ran == []
    original, calls = getattr(module, name), []

    def stand_in(*args):
        calls.append(args)
        return original(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, name, None if name == "lib" else stand_in)
        got, ran = _sweeps(a, tag, config)
    assert ran == [1, 2, 3]
    assert got == want
    assert (calls == []) == (name == "lib" or not trace and name in WEIGHTS)


def test_the_guarded_bindings_are_the_ones_own_lists():
    assert [(names, name) for names, name, _ in jacobi._OWN] == [
        (vars(module), name) for module, name in GUARDED]


def test_a_replaced_pivot_set_is_called_once_and_feeds_both_sweeps(
        compiled, monkeypatch):
    # the stand-in lays out the O2 list under an O1 config: both sweeps walk
    # the list that iterate laid out, so both end as an O2 run does
    tag = sn.StructureTag.SKEW_HAMILTONIAN
    a = sn.gen_structured(tag, 4, 11)
    config = sn.SolverConfig(max_sweeps=3, trace=False)
    want, ran = _sweeps(a, tag, dataclasses.replace(config, ordering="O2"))
    assert ran == [] and _sweeps(a, tag, config)[0] != want  # O1 ends elsewhere
    calls = []

    def o2_pivot_set(family, n, ordering):
        calls.append((family, n, ordering))
        return sn.pivot_set(family, n, "O2")

    monkeypatch.setattr(jacobi, "pivot_set", o2_pivot_set)
    got, ran = _sweeps(a, tag, config)
    assert ran == [] and got == want
    assert calls == [(tag.family, 4, "O1")]
    monkeypatch.setattr(_sweep, "lib", None)
    got, ran = _sweeps(a, tag, config)
    assert ran == [1, 2, 3] and got == want
    assert len(calls) == 2


def test_pivots_replaced_between_sweeps_end_alike_on_both_paths(compiled):
    # the compiled sweep codes the replaced pivots again, so it walks the
    # same O2 pivots as the Python body from sweep 2 on
    tag = sn.StructureTag.HAMILTONIAN
    a = sn.gen_structured(tag, 3, 15)
    results = []
    for lib in (_sweep.lib, None):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_sweep, "lib", lib)
            states = sn.iterate(a, tag, sn.SolverConfig(max_sweeps=3,
                                                        trace=False))
            state = next(states)
            state.pivots = sn.pivot_set(tag.family, 3, "O2")
            for state in states:
                pass
        results.append((state.a.tobytes(), state.z.tobytes(),
                        state.sweep_gain, state.step))
    assert results[0] == results[1]


def test_iterate_lays_out_the_pivots_as_a_tuple():
    tag = sn.StructureTag.PER_HERMITIAN
    state = next(sn.iterate(sn.gen_structured(tag, 2, 0), tag,
                            sn.SolverConfig(max_sweeps=1)))
    assert state.pivots == tuple(sn.pivot_set(tag.family, 2))


@pytest.mark.parametrize("edit", ["short", "off the set"])
def test_a_pivot_list_the_codes_refuse_runs_the_python_body(compiled,
                                                           monkeypatch, edit):
    # the C takes only n^2 pivots, each a pivot of its kind at the solve's n,
    # so it never indexes past A, whatever a replaced pivot_set lays out
    tag = sn.StructureTag.HAMILTONIAN
    listed = sn.pivot_set(tag.family, 3)
    kind, i, _ = listed[-1]
    pivots = listed[:-1] + ([] if edit == "short" else [(kind, i, 99)])
    monkeypatch.setattr(jacobi, "pivot_set", lambda *args: pivots)
    ran = _count_python_sweeps(monkeypatch)
    states = sn.iterate(sn.gen_structured(tag, 3, 14), tag,
                        sn.SolverConfig(max_sweeps=2, trace=False))
    if edit == "short":
        assert [state.step for state in states] == [8, 16]
        assert ran == [1, 2]
    else:
        with pytest.raises(IndexError):
            next(states)
        assert ran == [1]


def _resized_run(swap):
    """The step, A, Z and sweep gain after an iterate whose A and Z are
    replaced by a copy of ``swap`` and I after its first sweep, or the
    exception it raised, named with its message."""
    tag = sn.StructureTag.PER_HERMITIAN
    states = sn.iterate(sn.gen_structured(tag, 3, 12), tag,
                        sn.SolverConfig(max_sweeps=3, trace=False))
    state = next(states)
    state.a = np.array(swap, dtype=np.complex128)
    state.z = np.eye(len(swap), dtype=np.complex128)
    try:
        for state in states:
            pass
    except Exception as exc:  # whichever it is, both paths must raise it
        return type(exc), str(exc)
    return state.step, state.a.tobytes(), state.z.tobytes(), state.sweep_gain


@pytest.mark.parametrize("n", [2, 4])
def test_an_iterate_resized_between_sweeps_ends_alike_on_both_paths(
        compiled, monkeypatch, n):
    # the pivot list is laid out for n = 3: the C never takes a pair of
    # another size, whose A it would index past (n = 2) or sweep in part
    swap = sn.gen_structured(sn.StructureTag.PER_HERMITIAN, n, 13)
    ran = _count_python_sweeps(monkeypatch)
    got = _resized_run(swap)
    assert ran == [2]  # the pair of another size went to Python
    monkeypatch.setattr(_sweep, "lib", None)
    assert _resized_run(swap) == got


def test_a_fortran_ordered_iterate_runs_the_python_body(compiled, monkeypatch):
    tag = sn.StructureTag.SKEW_HAMILTONIAN
    a = sn.gen_structured(tag, 3, 9)
    ran = _count_python_sweeps(monkeypatch)
    results = []
    for lib in (_sweep.lib, None):
        monkeypatch.setattr(_sweep, "lib", lib)
        states = sn.iterate(a, tag, sn.SolverConfig(max_sweeps=2, trace=False))
        state = next(states)
        state.a = np.asfortranarray(state.a)
        next(states)
        results.append((state.a.tobytes(), state.z.tobytes(),
                        state.sweep_gain, state.step))
    assert ran == [2, 1, 2]
    assert results[0] == results[1]


@pytest.mark.parametrize("which", ["a", "z"])
def test_a_read_only_array_runs_the_python_body(compiled, monkeypatch, which):
    # the Python body's numpy kernel refuses to write it, and the C is never
    # handed it
    tag = sn.StructureTag.HAMILTONIAN
    ran = _count_python_sweeps(monkeypatch)
    states = sn.iterate(sn.gen_structured(tag, 3, 10), tag,
                        sn.SolverConfig(trace=False))
    state = next(states)
    getattr(state, which).flags.writeable = False
    with pytest.raises(ValueError, match="read-only"):
        next(states)
    assert ran == [2]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("r, c, visit", [(0, 1, 1), (2, 3, 2), (0, 2, 1)])
def test_an_angle_solve_that_overflows_raises_as_the_python_body_does(
        compiled, monkeypatch, r, c, visit, trace):
    # entries near the largest double, written into the iterate between
    # sweeps, make a pivot's gain overflow.  ||A||_F^2 is then above 2^1023,
    # so the C refuses that sweep and the Python body runs it: both runs
    # stop at that visit with the same error, step, iterate, Z and records,
    # none for that visit (at visit 1, none for its sweep)
    tag = sn.StructureTag.HAMILTONIAN
    ran = _count_python_sweeps(monkeypatch)
    results = []
    for lib in (_sweep.lib, None):
        monkeypatch.setattr(_sweep, "lib", lib)
        states = sn.iterate(sn.gen_structured(tag, 2, 3), tag,
                            sn.SolverConfig(trace=trace))
        state = next(states)
        state.a[r, r] = state.a[c, c] = 1e308
        state.a[r, c] = state.a[c, r] = 1e308j
        with pytest.raises(OverflowError, match="^math range error$"):
            next(states)
        assert state.step == 4 + visit and state.sweep == 1
        assert len(state.trace) == (3 + visit if trace else 0)
        results.append((state.step, state.a.tobytes(), state.z.tobytes(),
                        _records(state.trace)))
    assert ran == [2, 1, 2]
    assert results[0] == results[1]
