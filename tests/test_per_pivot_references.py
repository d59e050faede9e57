"""The per-pivot helpers must give the bits of their reference versions.

The references below are the plain forms: the kind properties, the pivot
test and the plane layout as if-chains, the pivot gain in numpy scalar
arithmetic, the trace weights through ``np.fill_diagonal`` and ``np.real``,
and the angle solvers as a chain of helper calls.  The helpers read one
per-kind table, Python scalars and fewer numpy calls, and each angle solve
is one straight-line body; every result must stay bitwise the same, and
every invalid position must raise the same error.
"""
import math

import numpy as np
import pytest

import structnorm as sn
from structnorm import angles, gradient, rotations, structures
from structnorm.angles import AngleSolution, _parts

K = sn.RotationKind
ALL_KINDS = list(K)


def _ref_family(kind):
    if kind in (K.SYMP_SINGLE, K.SYMP_DIRECT_SUM, K.SYMP_CONCENTRIC):
        return sn.SYMPLECTIC
    return sn.PERPLECTIC


def _ref_fixed_alpha(kind):
    if kind is K.SYMP_SINGLE:
        return 0.0
    if kind is K.PERP_SINGLE:
        return -math.pi / 2
    return None


def _ref_check_pivot(kind, i, j, n):
    ok = False
    if kind is K.SYMP_SINGLE:
        ok = 1 <= i <= n and j == n + i
    elif kind is K.SYMP_DIRECT_SUM or kind is K.PERP_DIRECT_SUM:
        ok = 1 <= i < j <= n
    elif kind is K.SYMP_CONCENTRIC:
        ok = 1 <= i and n + i < j <= 2 * n
    elif kind is K.PERP_SINGLE:
        ok = 1 <= i <= n and j == 2 * n - i + 1
    elif kind is K.PERP_INTERLEAVED:
        ok = 1 <= i and n + 1 <= j <= 2 * n - i
    if not ok:
        raise ValueError(
            f"pivot ({i}, {j}) is outside the pivot set of {kind.value} for n={n}"
        )


def _ref_planes(kind, i, j, phi, free_alpha, n):
    _ref_check_pivot(kind, i, j, n)
    alpha = _ref_fixed_alpha(kind)
    if alpha is None:
        alpha = free_alpha
    c = math.cos(phi)
    s = complex(math.cos(alpha), math.sin(alpha)) * math.sin(phi)
    if kind is K.SYMP_SINGLE or kind is K.PERP_SINGLE:
        return [(i - 1, j - 1, c, s)]
    if kind is K.SYMP_DIRECT_SUM:
        return [(i - 1, j - 1, c, s), (n + i - 1, n + j - 1, c, s)]
    if kind is K.SYMP_CONCENTRIC:
        return [(i - 1, j - 1, c, s), (j - n - 1, n + i - 1, c, s.conjugate())]
    return [(i - 1, j - 1, c, s), (2 * n - j, 2 * n - i, c, -s.conjugate())]


def _ref_pivot_gain(x, kind, i, j):
    n = x.shape[0] // 2
    _ref_check_pivot(kind, i, j, n)
    x_piv = complex(x[i - 1, j - 1])
    alpha = _ref_fixed_alpha(kind)
    if alpha is None:
        alpha = math.atan2(x_piv.imag, x_piv.real) if x_piv != 0 else 0.0
    total = 0.0
    for p, q, _, ds in _ref_planes(kind, i, j, math.pi / 2, alpha, n):
        total += (np.conj(x[p, q]) * (-ds) + np.conj(x[q, p]) * np.conj(ds)).real
    return abs(float(total))


def _ref_diag_norm_sq(a):
    d = np.diagonal(a)
    return float(np.real(np.vdot(d, d)))


def _ref_offdiag_norm_sq(a):
    b = np.array(a, dtype=np.complex128)
    np.fill_diagonal(b, 0.0)
    return float(np.real(np.vdot(b, b)))


def _bits(value):
    """Hashable bits of a float, a complex or a list of planes; -0.0 != 0.0."""
    if isinstance(value, list):
        return [(p, q, _bits(c), _bits(s)) for p, q, c, s in value]
    if isinstance(value, complex):
        return (value.real.hex(), value.imag.hex())
    assert type(value) is float
    return value.hex()


def _box(n):
    """Every (i, j) in a box around the pivot sets at half-dimension n."""
    return [(i, j) for i in range(-1, 2 * n + 3) for j in range(-1, 2 * n + 3)]


def _raises_same(ref, new):
    with pytest.raises(ValueError) as want:
        ref()
    with pytest.raises(ValueError) as got:
        new()
    assert str(got.value) == str(want.value)


class _Unreadable(np.ndarray):
    """An X whose shape may be read but none of its entries."""

    def item(self, *args):
        raise AssertionError("X was read")

    def __getitem__(self, key):
        raise AssertionError("X was read")


def _layouts(x):
    """X as C-order, F-order, a strided view with a negative step, and real."""
    m = x.shape[0]
    big = np.zeros((2 * m, 2 * m), dtype=x.dtype)
    big[1::2, ::-2] = x
    return {"C": x, "F": np.asfortranarray(x), "sliced": big[1::2, ::-2],
            "real": x.real.copy()}


def _random_x(n, seed):
    """Generic entries at mixed scales, with +0, -0 and zero pivot entries."""
    rng = np.random.default_rng(seed)
    m = 2 * n
    x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    x *= np.where(rng.random((m, m)) < 0.5,
                  2.0 ** rng.integers(-500, 500, (m, m)), 1.0)
    x[rng.random((m, m)) < 0.15] = 0.0
    x[rng.random((m, m)) < 0.1] = complex(-0.0, -0.0)
    return x


def test_kind_table_matches_if_chains():
    for kind in ALL_KINDS:
        assert kind.family == _ref_family(kind)
        want = _ref_fixed_alpha(kind)
        got = kind.fixed_alpha
        assert (got is None) == (want is None)
        if want is not None:
            assert _bits(got) == _bits(want)


@pytest.mark.parametrize("n", range(1, 7))
def test_check_pivot_and_planes_match_if_chains(n):
    rng = np.random.default_rng(n)
    angles = [(0.0, 0.0), (math.pi / 2, 0.0), (-0.0, -0.0)] + [
        tuple(rng.uniform(-math.pi, math.pi, 2)) for _ in range(3)]
    for kind in ALL_KINDS:
        for i, j in _box(n):
            try:
                _ref_check_pivot(kind, i, j, n)
            except ValueError:
                _raises_same(lambda: _ref_check_pivot(kind, i, j, n),
                             lambda: rotations.check_pivot(kind, i, j, n))
                spec = kind, i, j, 0.3, 0.2
                _raises_same(lambda: _ref_planes(*spec, n),
                             lambda: rotations.planes(*spec, n))
                continue
            rotations.check_pivot(kind, i, j, n)
            for phi, alpha in angles:
                spec = kind, i, j, phi, alpha
                assert (_bits(rotations.planes(*spec, n))
                        == _bits(_ref_planes(*spec, n)))


@pytest.mark.parametrize("n", range(1, 7))
def test_pivot_gain_matches_numpy_scalar_reference(n):
    m = 2 * n
    a = sn.gen_structured(sn.StructureTag.HAMILTONIAN, n, n)
    fixtures = [_random_x(n, n), sn.tangent_gradient(a, sn.SYMPLECTIC)[0],
                sn.tangent_gradient(a, sn.PERPLECTIC)[0]]
    unreadable = np.zeros((m, m), dtype=complex).view(_Unreadable)
    for kind in ALL_KINDS:
        for i, j in _box(n):
            pivot = kind, i, j
            try:
                _ref_check_pivot(kind, i, j, n)
            except ValueError:
                # the same error, raised before any entry of X is read
                _raises_same(lambda: _ref_pivot_gain(unreadable, *pivot),
                             lambda: gradient.pivot_gain(unreadable, *pivot))
                continue
            for x in fixtures:
                for layout, xl in _layouts(x).items():
                    got = gradient.pivot_gain(xl, *pivot)
                    assert _bits(got) == _bits(_ref_pivot_gain(xl, *pivot)), (
                        kind, i, j, layout)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 12, 33])
def test_trace_weights_match_fill_diagonal_reference(m):
    rng = np.random.default_rng(m)
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    # entries of one scale, where the summation order shows in the bits, and
    # of mixed scales
    for a in (a, a * 2.0 ** rng.integers(-300, 300, (m, m))):
        for layout, al in _layouts(a).items():
            for new, ref in ((structures.diag_norm_sq, _ref_diag_norm_sq),
                             (structures.offdiag_norm_sq, _ref_offdiag_norm_sq)):
                before = al.copy()
                assert _bits(new(al)) == _bits(ref(al)), (new.__name__, layout)
                assert al.tobytes() == before.tobytes()  # input not written
    for new in (structures.diag_norm_sq, structures.offdiag_norm_sq):
        with pytest.raises(ValueError, match="square"):
            new(np.zeros((m, m + 1)))


# The pivot loops and the two 4-way generator chains as they were before
# pivot_set enumerated the kind table and the generators read (family, sign).

def _ref_pivot_set(family, n, ordering="O1"):
    if n < 1:
        raise ValueError("n must be >= 1")
    if family == sn.SYMPLECTIC:
        single, direct, other = K.SYMP_SINGLE, K.SYMP_DIRECT_SUM, K.SYMP_CONCENTRIC
        single_j = lambda i: n + i
        other_js = lambda i: range(n + i + 1, 2 * n + 1)
    elif family == sn.PERPLECTIC:
        single, direct, other = K.PERP_SINGLE, K.PERP_DIRECT_SUM, K.PERP_INTERLEAVED
        single_j = lambda i: 2 * n - i + 1
        other_js = lambda i: range(n + 1, 2 * n - i + 1)
    else:
        raise ValueError(f"unknown family: {family!r}")

    out = []
    if ordering.upper() == "O1":
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                out.append((direct, i, j))
        for i in range(1, n + 1):
            out.append((single, i, single_j(i)))
        for i in range(1, n):
            for j in other_js(i):
                out.append((other, i, j))
    elif ordering.upper() == "O2":
        for i in range(1, n + 1):
            row = []
            for j in other_js(i):
                row.append((other, i, j))
            row.append((single, i, single_j(i)))
            for j in range(i + 1, n + 1):
                row.append((direct, i, j))
            out.extend(sorted(row, key=lambda t: -t[2]))
    else:
        raise ValueError(f"unknown ordering: {ordering!r}")
    return out


def _ref_flip_conj(b):
    return b.conj().T[::-1, ::-1]


def _ref_gen_structured(tag, n, seed):
    rng = np.random.default_rng(seed)
    a11 = structures._random_complex(rng, n)
    g12 = structures._random_complex(rng, n)
    g21 = structures._random_complex(rng, n)
    a = np.empty((2 * n, 2 * n), dtype=np.complex128)
    a[:n, :n] = a11
    if tag is sn.StructureTag.HAMILTONIAN:
        a[:n, n:] = (g12 + g12.conj().T) / 2
        a[n:, :n] = (g21 + g21.conj().T) / 2
        a[n:, n:] = -a11.conj().T
    elif tag is sn.StructureTag.SKEW_HAMILTONIAN:
        a[:n, n:] = (g12 - g12.conj().T) / 2
        a[n:, :n] = (g21 - g21.conj().T) / 2
        a[n:, n:] = a11.conj().T
    elif tag is sn.StructureTag.PER_HERMITIAN:
        a[:n, n:] = (g12 + _ref_flip_conj(g12)) / 2
        a[n:, :n] = (g21 + _ref_flip_conj(g21)) / 2
        a[n:, n:] = _ref_flip_conj(a11)
    else:
        a[:n, n:] = (g12 - _ref_flip_conj(g12)) / 2
        a[n:, :n] = (g21 - _ref_flip_conj(g21)) / 2
        a[n:, n:] = -_ref_flip_conj(a11)
    return a


def _ref_structured_diagonal(tag, d0):
    d0 = np.asarray(d0, dtype=np.complex128)
    if tag is sn.StructureTag.HAMILTONIAN:
        tail = -d0.conj()
    elif tag is sn.StructureTag.SKEW_HAMILTONIAN:
        tail = d0.conj()
    elif tag is sn.StructureTag.PER_HERMITIAN:
        tail = d0.conj()[::-1]
    else:
        tail = -d0.conj()[::-1]
    return np.diag(np.concatenate([d0, tail]))


def _ref_gen_normal_structured(tag, n, seed):
    rng = np.random.default_rng(seed)
    re = rng.choice([-1.0, 1.0], n) * (0.5 + np.abs(rng.standard_normal(n)))
    im = rng.choice([-1.0, 1.0], n) * (0.5 + np.abs(rng.standard_normal(n)))
    d = _ref_structured_diagonal(tag, re + 1j * im)
    positions = _ref_pivot_set(tag.family, n)
    specs = []
    for _ in range(4 * n * n):
        kind, i, j = positions[rng.integers(len(positions))]
        specs.append((kind, i, j, *rotations.random_angles(kind, rng)))
    u = rotations.apply_right(np.eye(2 * n, dtype=np.complex128),
                              [pl for spec in specs for pl in rotations.planes(*spec, n)])
    return u @ d @ u.conj().T, u, d


def _same_bits(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


@pytest.mark.parametrize("family", [sn.SYMPLECTIC, sn.PERPLECTIC])
@pytest.mark.parametrize("ordering", ["O1", "O2", "o2"])
def test_pivot_set_matches_pivot_loops(family, ordering):
    for n in range(1, 13):
        got = sn.pivot_set(family, n, ordering)
        assert got == _ref_pivot_set(family, n, ordering)
        assert all(type(i) is int and type(j) is int for _, i, j in got)


def test_pivot_set_raises_as_the_pivot_loops():
    for args in ((sn.SYMPLECTIC, 0), ("unitary", 2), ("unitary", 2, "O3"),
                 (sn.PERPLECTIC, 2, "O3"), (sn.PERPLECTIC, 2, "")):
        _raises_same(lambda: _ref_pivot_set(*args), lambda: sn.pivot_set(*args))


@pytest.mark.parametrize("family", [sn.SYMPLECTIC, sn.PERPLECTIC])
@pytest.mark.parametrize("n", range(1, 7))
def test_pivot_set_lists_exactly_the_accepted_pivots_once(family, n):
    accepted = []
    for kind in ALL_KINDS:
        if kind.family != family:
            continue
        for i, j in _box(n):
            try:
                rotations.check_pivot(kind, i, j, n)
            except ValueError:
                continue
            accepted.append((kind, i, j))
    listed = sn.pivot_set(family, n)
    assert len(listed) == len(set(listed)) == n * n
    assert set(listed) == set(accepted)
    assert len(accepted) == n * n


@pytest.mark.parametrize("tag", list(sn.StructureTag))
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_generators_match_the_four_way_chains(tag, n):
    for seed in range(5):
        assert _same_bits(sn.gen_structured(tag, n, seed),
                          _ref_gen_structured(tag, n, seed))
        for got, want in zip(sn.gen_normal_structured(tag, n, seed),
                             _ref_gen_normal_structured(tag, n, seed)):
            assert _same_bits(got, want)


@pytest.mark.parametrize("tag", list(sn.StructureTag))
def test_structured_diagonal_matches_the_four_way_chain(tag):
    # every sign of zero in each part, next to nonzero parts
    parts = [0.0, -0.0, 1.5, -2.25]
    d0 = np.array([complex(re, im) for re in parts for im in parts])
    assert any(math.copysign(1.0, z.imag) < 0 and z.imag == 0 for z in d0)
    for d in (d0, d0[:1], d0[::-1], d0.real, np.array([-0.0]), np.zeros(0)):
        assert _same_bits(sn.structured_diagonal(tag, d),
                          _ref_structured_diagonal(tag, d))


# The angle solvers as a chain of helpers, as they were before each became
# one straight-line body.

_SCALE_LO, _SCALE_HI = 2.0 ** -32, 2.0 ** 32


def _invariants(parts):
    """The five entry combinations the stationarity conditions are built from."""
    x_ii, y_ii, x_jj, y_jj, x_ij, y_ij, x_ji, y_ji = parts
    s1 = (x_ij + x_ji) * (x_ii - x_jj) + (y_ij + y_ji) * (y_ii - y_jj)
    s2 = (x_ii - x_jj) * (y_ij - y_ji) + (x_ji - x_ij) * (y_ii - y_jj)
    s3 = (x_ij * x_ij + x_ji * x_ji + y_ij * y_ij + y_ji * y_ji
          - (x_ii - x_jj) ** 2 - (y_ii - y_jj) ** 2)
    p = x_ij * x_ji + y_ij * y_ji
    q = x_ji * y_ij - x_ij * y_ji
    return s1, s2, s3, p, q


def _phi_slope_coeffs(s1, s2, s3, p, q, alpha):
    """(pc, qc) with d g / d phi = pc cos(4 phi) + qc sin(4 phi) at fixed alpha."""
    return (2.0 * (s1 * math.cos(alpha) + s2 * math.sin(alpha)),
            s3 + 2.0 * (p * math.cos(2 * alpha) + q * math.sin(2 * alpha)))


def _gain(pc, qc, phi):
    """Exact gain g(phi, alpha) - g(0, 0), stable for tiny phi.

    Integrating the phi-derivative gives g(phi, alpha) - g(0, alpha) =
    (pc sin(4 phi) + qc (1 - cos(4 phi))) / 4, and g(0, alpha) = g(0, 0)
    because phi = 0 is the identity rotation.  Evaluating the gain this way
    keeps full relative accuracy when the gain is far below 1 ulp of g, which
    is what drives the final sweeps of the Jacobi iteration; subtracting two
    direct evaluations of g would drown the gain in rounding noise.
    """
    s2p = math.sin(2 * phi)
    return (pc * math.sin(4 * phi) + qc * 2.0 * s2p * s2p) / 4.0


def _top_eigenvalue(s1, s2, s3, p, q):
    """F = lambda_max(K), by Newton's method on det(xI - K) from above.

    All roots are real, so from an upper bound the iterates fall
    monotonically onto the largest root; the first one that fails to fall
    ends the loop.
    """
    t = s1 * s1 + s2 * s2
    c2 = -4.0 * s3
    c1 = 4.0 * s3 * s3 - 4.0 * t - 16.0 * (p * p + q * q)
    c0 = 8.0 * s3 * t - 16.0 * p * (s1 * s1 - s2 * s2) - 32.0 * q * s1 * s2
    # Gershgorin: no eigenvalue exceeds a row's diagonal plus its off-diagonals
    x = max(2.0 * (s3 + 2.0 * p + abs(s1)) + 4.0 * abs(q),
            2.0 * (s3 - 2.0 * p + abs(s2)) + 4.0 * abs(q),
            2.0 * (abs(s1) + abs(s2)))
    while True:
        df = (3.0 * x + 2.0 * c2) * x + c1
        if not df > 0.0:  # at a multiple root
            return x
        nxt = x - (((x + c2) * x + c1) * x + c0) / df
        if not nxt < x:
            return x
        x = nxt


def _rescaled(entries) -> tuple[tuple[float, ...], int]:
    """The pivot's 8 real parts times 2**-e, and e; e != 0 only at extreme scales.

    det(xI - K) has coefficients of degree 6 in the entries, so they overflow
    or underflow far inside the float range.  When the largest real or
    imaginary part lies outside [2**-32, 2**32], the entries are divided by
    the power of two that brings it into [0.5, 1), which is exact and leaves
    the angles unchanged.  Pivots inside that range are left as they are:
    ``**`` is libm ``pow``, which is not exactly homogeneous, so rescaling
    every pivot would move the last bits of ordinary solutions.
    """
    parts = _parts(entries)
    big = max(map(abs, parts))
    if _SCALE_LO <= big <= _SCALE_HI:
        return parts, 0
    e = math.frexp(big)[1]
    return tuple(math.ldexp(x, -e) for x in parts), e


def _best_phi(parts, scale_exp: int, inv, alpha: float,
              case: str) -> AngleSolution:
    """The best rotation at alpha, or the identity when it gains nothing.

    g_value and gain are scaled back by 4**scale_exp to the caller's entries.
    """
    pc, qc = _phi_slope_coeffs(*inv, alpha)
    phi = 0.25 * math.atan2(pc, -qc)
    gain = _gain(pc, qc, phi)
    if not gain > 0.0:  # pc = qc = 0 gives atan2(0.0, -0.0) = pi
        phi, gain, case = 0.0, 0.0, "trivial"
    x_ii, y_ii, x_jj, y_jj = parts[:4]
    g0 = x_ii ** 2 + y_ii ** 2 + x_jj ** 2 + y_jj ** 2
    return AngleSolution(phi, alpha, math.ldexp(g0 + gain, 2 * scale_exp),
                         math.ldexp(gain, 2 * scale_exp), case)


def _ref_solve_angles(entries) -> AngleSolution:
    """Maximize g over both angles (double embeddings)."""
    parts, scale_exp = _rescaled(entries)
    inv = _invariants(parts)
    s1, s2, s3, p, q = inv
    f = _top_eigenvalue(*inv)
    # eliminating y3 from (K - F I) y = 0 leaves a 2x2 system in (y1, y2)
    # whose null vector lies at this polar angle
    alpha = 0.5 * math.atan2(4.0 * f * q + 4.0 * s1 * s2,
                             4.0 * f * p + 2.0 * (s1 * s1 - s2 * s2))
    return _best_phi(parts, scale_exp, inv, alpha, "cubic")


def _ref_solve_angles_fixed_alpha(entries, alpha: float) -> AngleSolution:
    """Maximize g over phi alone, at the given alpha (single embeddings)."""
    parts, scale_exp = _rescaled(entries)
    return _best_phi(parts, scale_exp, _invariants(parts), alpha, "fixed_1d")


def _random_pivots(rng, count, scale_exp):
    for _ in range(count):
        v = rng.standard_normal(8) * 2.0 ** scale_exp
        yield tuple(complex(v[k], v[k + 1]) for k in range(0, 8, 2))


def _angle_pivots():
    """Pivots on both sides of the rescale window, with exact zeros, real
    entries only and equal diagonals."""
    rng = np.random.default_rng(2024)
    for k in (-600, -40, -33, -32, 0, 32, 33, 40, 600):
        yield from _random_pivots(rng, 400, k)
    for entries in _random_pivots(rng, 400, 0):
        mask = rng.random(4) < 0.5
        yield tuple(0j if zero else z for zero, z in zip(mask, entries))
        yield tuple(complex(z.real) for z in entries)
        yield entries[0], entries[1], entries[2], entries[0]  # equal diagonals
        yield entries[0], entries[1], entries[1], entries[0]
        yield entries[0], entries[1], -entries[1].conjugate(), entries[0]
    yield 0j, 0j, 0j, 0j
    yield complex(-0.0, -0.0), 0j, complex(-0.0, 0.0), 0j
    for big in (_SCALE_LO, _SCALE_HI):  # the window's edges, and one ulp out
        for edge in (big, math.nextafter(big, 0.0), math.nextafter(big, 1.0)):
            yield complex(edge, 0.25 * edge), 0.5j * edge, 0.125 * edge + 0j, 0j


def _outcome(solver, *args):
    """The solution's bits, or the error it raised: at 2**600 the weights
    overflow."""
    try:
        sol = solver(*args)
    except OverflowError as exc:
        return "raises", str(exc)
    return tuple(_bits(v) if isinstance(v, float) else v for v in sol)


def test_angle_solvers_match_the_helper_chain():
    count = 0
    outcomes = set()
    for entries in _angle_pivots():
        count += 1
        for got, want in [
                (_outcome(angles.solve_angles, entries),
                 _outcome(_ref_solve_angles, entries))] + [
                (_outcome(angles.solve_angles_fixed_alpha, entries, alpha),
                 _outcome(_ref_solve_angles_fixed_alpha, entries, alpha))
                for alpha in (0.0, -math.pi / 2)]:
            assert got == want, entries
            outcomes.add(got[-1])
    assert count >= 5000
    assert {"trivial", "cubic", "fixed_1d"} < outcomes  # and an overflow
