"""Plane rotation kernels, vectorized with numpy.

A plane rotation by the 2x2 Givens block

    G = [[c, -s], [conj(s), c]],   c = cos(phi),  s = exp(i*alpha)*sin(phi),

applied as a similarity G^H A G touches two rows and two columns of A.  The
similarity runs once per applied pivot inside the Jacobi sweep; the column
pass that accumulates Z runs once per layer of disjoint planes, when the
sweep ends (also when it ends in an error).

``rotations`` reads ``plane_similarity`` and ``rotate_cols`` as module
attributes at call time; ``plane_similarity`` reaches its column pass through
``_rotate_cols``, so the attribute ``rotate_cols`` is only called for Z.
"""
from __future__ import annotations

BACKEND = "numpy"


# Each new row or column is built in place as c*x_p + s*x_q (and its mate),
# with the scalar on the left: the same operands in the same order as the
# one-line expression, so the result is bitwise the same.

def rotate_rows(a, p, q, c, s):
    xp, xq = a[p], a[q]
    rp = c * xp
    rp += s * xq
    rq = -s.conjugate() * xp
    rq += c * xq
    xp[...] = rp
    xq[...] = rq


def _rotate_cols(a, p, q, c, s):
    # p, q, c, s are scalars for one plane, or equal-length arrays for planes
    # on pairwise disjoint columns, which then rotate at once: column k of
    # the gathered block pairs with c[k] and s[k]
    xp, xq = a[:, p], a[:, q]
    rp = c * xp
    rp += s.conjugate() * xq
    rq = -s * xp
    rq += c * xq
    a[:, p] = rp
    a[:, q] = rq


rotate_cols = _rotate_cols


def plane_similarity(a, p, q, c, s):
    rotate_rows(a, p, q, c, s)
    _rotate_cols(a, p, q, c, s)
