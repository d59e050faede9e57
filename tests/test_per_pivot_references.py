"""The per-pivot helpers must give the bits of their reference versions.

The references below are the plain forms: the kind properties, the pivot
test and the plane layout as if-chains, the pivot gain in numpy scalar
arithmetic, and the trace weights through ``np.fill_diagonal`` and
``np.real``.  The helpers read one per-kind table, Python scalars and fewer
numpy calls; every result must stay bitwise the same, and every invalid
position must raise the same error.
"""
import math

import numpy as np
import pytest

import structnorm as sn
from structnorm import gradient, rotations, structures

K = sn.RotationKind
ALL_KINDS = list(K)


def _ref_family(kind):
    if kind in (K.SYMP_SINGLE, K.SYMP_DIRECT_SUM, K.SYMP_CONCENTRIC):
        return sn.SYMPLECTIC
    return sn.PERPLECTIC


def _ref_is_single(kind):
    return kind in (K.SYMP_SINGLE, K.PERP_SINGLE)


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


def _ref_planes(spec, n):
    kind, i, j = spec.kind, spec.i, spec.j
    _ref_check_pivot(kind, i, j, n)
    alpha = _ref_fixed_alpha(kind)
    if alpha is None:
        alpha = spec.alpha
    s = complex(math.cos(alpha), math.sin(alpha)) * math.sin(spec.phi)
    if kind is K.SYMP_SINGLE or kind is K.PERP_SINGLE:
        return [(i - 1, j - 1, s)]
    if kind is K.SYMP_DIRECT_SUM:
        return [(i - 1, j - 1, s), (n + i - 1, n + j - 1, s)]
    if kind is K.SYMP_CONCENTRIC:
        return [(i - 1, j - 1, s), (j - n - 1, n + i - 1, s.conjugate())]
    return [(i - 1, j - 1, s), (2 * n - j, 2 * n - i, -s.conjugate())]


def _ref_pivot_gain(x, spec):
    n = x.shape[0] // 2
    kind, i, j = spec.kind, spec.i, spec.j
    _ref_check_pivot(kind, i, j, n)
    x_piv = complex(x[i - 1, j - 1])
    alpha = _ref_fixed_alpha(kind)
    if alpha is None:
        alpha = math.atan2(x_piv.imag, x_piv.real) if x_piv != 0 else 0.0
    total = 0.0
    for p, q, ds in _ref_planes(sn.RotationSpec(kind, i, j, math.pi / 2, alpha), n):
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
        return [(p, q, _bits(s)) for p, q, s in value]
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
        assert kind.is_single is _ref_is_single(kind)
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
                spec = sn.RotationSpec(kind, i, j, 0.3, 0.2)
                _raises_same(lambda: _ref_planes(spec, n),
                             lambda: rotations.planes(spec, n))
                continue
            rotations.check_pivot(kind, i, j, n)
            for phi, alpha in angles:
                spec = sn.RotationSpec(kind, i, j, phi, alpha)
                assert (_bits(rotations.planes(spec, n))
                        == _bits(_ref_planes(spec, n)))


@pytest.mark.parametrize("n", range(1, 7))
def test_pivot_gain_matches_numpy_scalar_reference(n):
    m = 2 * n
    a = sn.gen_structured(sn.StructureTag.HAMILTONIAN, n, n)
    fixtures = [_random_x(n, n), sn.tangent_gradient(a, sn.SYMPLECTIC)[0],
                sn.tangent_gradient(a, sn.PERPLECTIC)[0]]
    unreadable = np.zeros((m, m), dtype=complex).view(_Unreadable)
    for kind in ALL_KINDS:
        for i, j in _box(n):
            spec = sn.RotationSpec(kind, i, j, 0.0)
            try:
                _ref_check_pivot(kind, i, j, n)
            except ValueError:
                # the same error, raised before any entry of X is read
                _raises_same(lambda: _ref_pivot_gain(unreadable, spec),
                             lambda: gradient.pivot_gain(unreadable, spec))
                continue
            for x in fixtures:
                for layout, xl in _layouts(x).items():
                    got = gradient.pivot_gain(xl, spec)
                    assert _bits(got) == _bits(_ref_pivot_gain(xl, spec)), (
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
