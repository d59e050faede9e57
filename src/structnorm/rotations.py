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

What each kind is (its family; its forced alpha, None for a double
embedding; the bounds cols(i, n) of its pivot columns in each row i; and the
layout(i, j, n, c, s) of its planes) is stated once, in the per-kind table
``_KINDS``, built at import.  The kind properties, :func:`pivot_set`,
:func:`check_pivot` and :func:`planes` read it.  It holds nothing per pivot
position: a one-shot solve would not reuse such a cache.

A rotation is (kind, i, j, phi, alpha) until ``planes(kind, i, j, phi,
alpha, n)`` lays it out as its plane list: one 0-based (p, q, c, s) per
embedded block; a product of rotations is the concatenation of their lists.
:func:`planes` alone checks the pivot, forces a single kind's alpha,
evaluates the trig and lays out the planes; :func:`apply_similarity` and
:func:`apply_right` hand the lists to the kernels as they are.
"""
from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from operator import index, itemgetter

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

    # members are singletons; Enum's own hash runs Python code per lookup
    __hash__ = object.__hash__

    @property
    def family(self) -> str:
        return _KINDS[self].family

    @property
    def fixed_alpha(self) -> float | None:
        """Forced alpha for single embeddings, None for double ones."""
        return _KINDS[self].fixed_alpha


_Kind = namedtuple("_Kind", "family fixed_alpha cols layout")
# the layouts two kinds share; perplectic doubles mirror into the flipped
# plane with -conj(s)
_single = lambda i, j, n, c, s: [(i - 1, j - 1, c, s)]
_perp_double = lambda i, j, n, c, s: [(i - 1, j - 1, c, s), (2 * n - j, 2 * n - i, c, -s.conjugate())]
# cols(i, n) bounds the pivot columns lo <= j < hi of row i, 1 <= i <= n.
# Each family's rows are in O1 order: direct sum, single, the other double.
_KINDS = {
    RotationKind.SYMP_DIRECT_SUM: _Kind(
        SYMPLECTIC, None, lambda i, n: (i + 1, n + 1),
        lambda i, j, n, c, s: [(i - 1, j - 1, c, s), (n + i - 1, n + j - 1, c, s)]),
    RotationKind.SYMP_SINGLE: _Kind(
        SYMPLECTIC, 0.0, lambda i, n: (n + i, n + i + 1), _single),
    RotationKind.SYMP_CONCENTRIC: _Kind(
        SYMPLECTIC, None, lambda i, n: (n + i + 1, 2 * n + 1),
        lambda i, j, n, c, s: [(i - 1, j - 1, c, s), (j - n - 1, n + i - 1, c, s.conjugate())]),
    RotationKind.PERP_DIRECT_SUM: _Kind(
        PERPLECTIC, None, lambda i, n: (i + 1, n + 1), _perp_double),
    RotationKind.PERP_SINGLE: _Kind(
        PERPLECTIC, -math.pi / 2, lambda i, n: (2 * n - i + 1, 2 * n - i + 2),
        _single),
    RotationKind.PERP_INTERLEAVED: _Kind(
        PERPLECTIC, None, lambda i, n: (n + 1, 2 * n - i + 1), _perp_double),
}


def check_pivot(kind: RotationKind, i: int, j: int, n: int) -> _Kind:
    """The kind's table row; ValueError unless (i, j) is its pivot at half-dimension n."""
    kind_row = _KINDS[kind]
    try:
        lo, hi = kind_row.cols(index(i), n)
        if 1 <= i <= n and lo <= index(j) < hi:
            return kind_row
    except TypeError:  # i or j is not an integer, like 2.0 (numpy integers pass)
        pass
    raise ValueError(
        f"pivot ({i}, {j}) is outside the pivot set of {kind.value} for n={n}"
    )


def planes(kind: RotationKind, i: int, j: int, phi: float, alpha: float,
           n: int) -> list[tuple[int, int, float, complex]]:
    """Plane list of R(i, j, phi, alpha): Givens planes (p, q, c, s), 0-based p < q.

    Each plane carries the block [[c, -s], [conj(s), c]] at rows/columns
    (p, q); c = cos(phi) is the same in all planes of the rotation.  A single
    kind's forced alpha replaces ``alpha``.
    """
    kind_row = check_pivot(kind, i, j, n)
    if kind_row.fixed_alpha is not None:
        alpha = kind_row.fixed_alpha
    s = complex(math.cos(alpha), math.sin(alpha)) * math.sin(phi)
    return kind_row.layout(i, j, n, math.cos(phi), s)


def _half_dim(dim: int) -> int:
    if dim < 2 or dim % 2 != 0:
        raise ValueError("rotations need an even dimension >= 2")
    return dim // 2


def build_rotation(kind: RotationKind, i: int, j: int, phi: float, alpha: float,
                   dim: int) -> np.ndarray:
    """Explicit dim x dim matrix of R(i, j, phi, alpha)."""
    n = _half_dim(dim)
    r = np.eye(dim, dtype=np.complex128)
    for p, q, c, s in planes(kind, i, j, phi, alpha, n):
        r[p, p] = c
        r[p, q] = -s
        r[q, p] = np.conj(s)
        r[q, q] = c
    return r


def apply_similarity(a: np.ndarray, rotation: list) -> np.ndarray:
    """In-place update A <- R^H A R for the plane list R, on its rows/columns."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    _kernels.plane_similarity(a, rotation)
    return a


def apply_right(z: np.ndarray, rotation: list) -> np.ndarray:
    """In-place update Z <- Z R for the plane list R (columns only).

    The planes go to one ``rotate_cols`` call, in order.  For a product
    R_1 R_2 ... R_k, pass the concatenation of their lists: Z is then bitwise
    the same as when the rotations are applied one at a time.
    """
    if z.ndim != 2 or z.shape[0] != z.shape[1]:
        raise ValueError("matrix must be square")
    if rotation:
        _kernels.rotate_cols(z, rotation)
    return z


def is_structure_preserving(kind: RotationKind, i: int, j: int, phi: float,
                            alpha: float, dim: int) -> float:
    """Residual ||R^H S R - S||_F with S = J (symplectic) or S = F (perplectic)."""
    n = _half_dim(dim)
    r = build_rotation(kind, i, j, phi, alpha, dim)
    s = make_J(n) if kind.family == SYMPLECTIC else make_F(dim)
    return float(np.linalg.norm(r.conj().T @ s @ r - s))


# each ordering lists a family's positions from its (kind, cols) pairs
_ORDERINGS = {
    "O1": lambda kinds, n: [(kind, i, j) for kind, cols in kinds
                            for i in range(1, n + 1) for j in range(*cols(i, n))],
    "O2": lambda kinds, n: [pos for i in range(1, n + 1) for pos in sorted(
        [(kind, i, j) for kind, cols in kinds for j in range(*cols(i, n))],
        key=itemgetter(2), reverse=True)],
}


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
    kinds = [(kind, row.cols) for kind, row in _KINDS.items() if row.family == family]
    if not kinds:
        raise ValueError(f"unknown family: {family!r}")
    if str(ordering).upper() not in _ORDERINGS:
        raise ValueError(f"unknown ordering: {ordering!r}")
    out = _ORDERINGS[str(ordering).upper()](kinds, n)
    if len(out) != n * n:
        raise AssertionError("pivot set size must be n^2")
    return out


def random_angles(kind: RotationKind, rng: np.random.Generator) -> tuple[float, float]:
    """Random angles in the solver domain: phi in (-pi/4, pi/4], free alpha in (-pi/2, pi/2]."""
    phi = (0.5 - rng.random()) * (math.pi / 2)
    alpha = kind.fixed_alpha
    if alpha is None:
        alpha = (0.5 - rng.random()) * math.pi
    return phi, alpha
