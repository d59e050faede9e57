"""Structure-preserving rotations built from embedded Givens blocks.

Each rotation embeds one or two copies of the 2x2 Givens block

    G = [[c, -s], [conj(s), c]],   c = cos(phi),  s = exp(i*alpha)*sin(phi)

into the identity.  Three embeddings are symplectic (preserve Hamiltonian and
skew-Hamiltonian structure) and three are perplectic (preserve per-Hermitian
and perskew-Hermitian structure).  Single embeddings have a forced alpha:
0 for the symplectic one, -pi/2 for the perplectic one.

Pivot indices (i, j) are 1-based plane labels, matching the usual Jacobi
pivot notation; they are translated to 0-based array indices internally.
A full cyclic sweep visits the n^2 positions returned by :func:`pivot_set`.

What each kind is (family, single or double embedding, forced alpha, the
test in_set(i, j, n) of its pivots, and the layout(i, j, n, s) of its planes)
is stated once, in the per-kind table ``_KINDS``, built at import.  The kind
properties, :func:`check_pivot` and :func:`planes` read it.  It holds nothing
per pivot position: a one-shot solve would not reuse such a cache.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _kernels
from .structures import PERPLECTIC, SYMPLECTIC, make_F, make_J


class RotationKind(Enum):
    SYMP_SINGLE = "symp-single"
    SYMP_DIRECT_SUM = "symp-direct-sum"
    SYMP_CONCENTRIC = "symp-concentric"
    PERP_SINGLE = "perp-single"
    PERP_DIRECT_SUM = "perp-direct-sum"
    PERP_INTERLEAVED = "perp-interleaved"

    @property
    def family(self) -> str:
        return _KINDS[self].family

    @property
    def is_single(self) -> bool:
        return _KINDS[self].single

    @property
    def fixed_alpha(self) -> float | None:
        """Forced alpha for single embeddings, None for double ones."""
        return _KINDS[self].fixed_alpha


_Kind = namedtuple("_Kind", "family single fixed_alpha in_set layout")
_KINDS = {
    RotationKind.SYMP_SINGLE: _Kind(
        SYMPLECTIC, True, 0.0, lambda i, j, n: 1 <= i <= n and j == n + i,
        lambda i, j, n, s: [(i - 1, j - 1, s)]),
    RotationKind.SYMP_DIRECT_SUM: _Kind(
        SYMPLECTIC, False, None, lambda i, j, n: 1 <= i < j <= n,
        lambda i, j, n, s: [(i - 1, j - 1, s), (n + i - 1, n + j - 1, s)]),
    RotationKind.SYMP_CONCENTRIC: _Kind(
        SYMPLECTIC, False, None, lambda i, j, n: 1 <= i and n + i < j <= 2 * n,
        lambda i, j, n, s: [(i - 1, j - 1, s), (j - n - 1, n + i - 1, s.conjugate())]),
    RotationKind.PERP_SINGLE: _Kind(
        PERPLECTIC, True, -math.pi / 2, lambda i, j, n: 1 <= i <= n and j == 2 * n - i + 1,
        lambda i, j, n, s: [(i - 1, j - 1, s)]),
    # perplectic doubles mirror into the flipped plane with -conj(s)
    RotationKind.PERP_DIRECT_SUM: _Kind(
        PERPLECTIC, False, None, lambda i, j, n: 1 <= i < j <= n,
        lambda i, j, n, s: [(i - 1, j - 1, s), (2 * n - j, 2 * n - i, -s.conjugate())]),
    RotationKind.PERP_INTERLEAVED: _Kind(
        PERPLECTIC, False, None, lambda i, j, n: 1 <= i and n + 1 <= j <= 2 * n - i,
        lambda i, j, n, s: [(i - 1, j - 1, s), (2 * n - j, 2 * n - i, -s.conjugate())]),
}


@dataclass(frozen=True)
class RotationSpec:
    """One rotation R(i, j, phi, alpha); (i, j) must lie in the kind's pivot set."""

    kind: RotationKind
    i: int
    j: int
    phi: float
    alpha: float = 0.0


def check_pivot(kind: RotationKind, i: int, j: int, n: int) -> _Kind:
    """The kind's table row; ValueError unless (i, j) is its pivot at half-dimension n."""
    kind_row = _KINDS[kind]
    if not kind_row.in_set(i, j, n):
        raise ValueError(
            f"pivot ({i}, {j}) is outside the pivot set of {kind.value} for n={n}"
        )
    return kind_row


def planes(spec: RotationSpec, n: int) -> list[tuple[int, int, complex]]:
    """Embedded Givens planes as (p, q, s) with 0-based p < q.

    Each plane carries the block [[c, -s], [conj(s), c]] at rows/columns
    (p, q); c = cos(phi) is shared by all planes of the rotation.
    """
    i, j = spec.i, spec.j
    kind_row = check_pivot(spec.kind, i, j, n)
    alpha = kind_row.fixed_alpha
    if alpha is None:
        alpha = spec.alpha
    s = complex(math.cos(alpha), math.sin(alpha)) * math.sin(spec.phi)
    return kind_row.layout(i, j, n, s)


def mirror_index(family: str, k: int, n: int) -> int:
    """The 0-based index that J (symplectic) or F (perplectic) pairs with k.

    The second plane of a double rotation lies on the mirrors of the first
    plane's indices; a single rotation's plane is its own mirror.
    """
    if family == SYMPLECTIC:
        return (k + n) % (2 * n)
    return 2 * n - 1 - k


def _half_dim(dim: int) -> int:
    if dim < 2 or dim % 2 != 0:
        raise ValueError("rotations need an even dimension >= 2")
    return dim // 2


def build_rotation(spec: RotationSpec, dim: int) -> np.ndarray:
    """Explicit dim x dim rotation matrix."""
    n = _half_dim(dim)
    r = np.eye(dim, dtype=np.complex128)
    c = math.cos(spec.phi)
    for p, q, s in planes(spec, n):
        r[p, p] = c
        r[p, q] = -s
        r[q, p] = np.conj(s)
        r[q, q] = c
    return r


def apply_similarity(a: np.ndarray, spec: RotationSpec) -> np.ndarray:
    """In-place update A <- R^H A R, touching only the embedded rows/columns."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = _half_dim(a.shape[0])
    c = math.cos(spec.phi)
    for p, q, s in planes(spec, n):
        _kernels.plane_similarity(a, p, q, c, s)
    return a


def apply_right(z: np.ndarray, *specs: RotationSpec) -> np.ndarray:
    """In-place update Z <- Z R_1 R_2 ... R_k (column mixing only).

    Planes on disjoint columns commute exactly, so each plane is put one
    layer after the last plane that shares a column with it, and each layer
    is one column pass.  Every column then meets the same planes in the same
    order as when the rotations are applied one at a time, and Z is bitwise
    the same.
    """
    if z.ndim != 2 or z.shape[0] != z.shape[1]:
        raise ValueError("matrix must be square")
    n = _half_dim(z.shape[0])
    depth = [0] * (2 * n)  # layers so far that touch each column
    layers: list[list[tuple[int, int, float, complex]]] = []
    for spec in specs:
        c = math.cos(spec.phi)
        for p, q, s in planes(spec, n):
            k = max(depth[p], depth[q])
            depth[p] = depth[q] = k + 1
            if k == len(layers):
                layers.append([])
            layers[k].append((p, q, c, s))
    for layer in layers:
        _kernels.rotate_cols(z, *map(np.array, zip(*layer)))
    return z


def is_structure_preserving(spec: RotationSpec, dim: int) -> float:
    """Residual ||R^H S R - S||_F with S = J (symplectic) or S = F (perplectic)."""
    n = _half_dim(dim)
    r = build_rotation(spec, dim)
    s = make_J(n) if spec.kind.family == SYMPLECTIC else make_F(dim)
    return float(np.linalg.norm(r.conj().T @ s @ r - s))


def pivot_set(
    family: str, n: int, ordering: str = "O1"
) -> list[tuple[RotationKind, int, int]]:
    """The n^2 cyclic pivot positions of one sweep, in O1 or O2 order.

    O1 lists the double direct-sum positions row-wise, then the single
    positions, then the remaining double positions row-wise.  O2 walks each
    row right to left over the same positions.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if family == SYMPLECTIC:
        single, direct, other = (RotationKind.SYMP_SINGLE,
                                 RotationKind.SYMP_DIRECT_SUM,
                                 RotationKind.SYMP_CONCENTRIC)
        single_j = lambda i: n + i
        other_js = lambda i: range(n + i + 1, 2 * n + 1)
    elif family == PERPLECTIC:
        single, direct, other = (RotationKind.PERP_SINGLE,
                                 RotationKind.PERP_DIRECT_SUM,
                                 RotationKind.PERP_INTERLEAVED)
        single_j = lambda i: 2 * n - i + 1
        other_js = lambda i: range(n + 1, 2 * n - i + 1)
    else:
        raise ValueError(f"unknown family: {family!r}")

    out: list[tuple[RotationKind, int, int]] = []
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
            row: list[tuple[RotationKind, int, int]] = []
            for j in other_js(i):
                row.append((other, i, j))
            row.append((single, i, single_j(i)))
            for j in range(i + 1, n + 1):
                row.append((direct, i, j))
            # right to left within the row
            out.extend(sorted(row, key=lambda t: -t[2]))
    else:
        raise ValueError(f"unknown ordering: {ordering!r}")
    if len(out) != n * n:
        raise AssertionError("pivot set size must be n^2")
    return out


def random_spec(
    kind: RotationKind, i: int, j: int, rng: np.random.Generator
) -> RotationSpec:
    """Random angles in the solver domain: phi in (-pi/4, pi/4], alpha in (-pi/2, pi/2]."""
    phi = (0.5 - rng.random()) * (math.pi / 2)
    alpha = kind.fixed_alpha
    if alpha is None:
        alpha = (0.5 - rng.random()) * math.pi
    return RotationSpec(kind, i, j, phi, alpha)
