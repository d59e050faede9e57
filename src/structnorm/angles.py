"""Optimal rotation angles for one pivot.

Given the 2x2 pivot submatrix [[a_ii, a_ij], [a_ji, a_jj]], find the angles
(phi, alpha) of the Givens block that maximize the post-rotation diagonal
weight

    g(phi, alpha) = |a'_ii|^2 + |a'_jj|^2,

over phi in (-pi/4, pi/4] and alpha in (-pi/2, pi/2].  Stationary points fall
into four families: the identity, phi = pi/4 (alpha from a tangent equation),
alpha = pi/2 (phi from a tangent equation), and interior points where
tan(alpha) solves a real cubic.  Rather than classifying which family applies,
the solver pools candidates from every family and returns the argmax of g,
so the result is never worse than the identity rotation.

The cubic coefficients below were obtained by expanding the combined
stationarity condition symbolically and reducing with cos^2 + sin^2 = 1; the
expansion is validated in the test suite both against direct numerical
evaluation of the unexpanded condition and against a grid search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

_QUARTER_PI = math.pi / 4
_HALF_PI = math.pi / 2
_EIGHTH_PI = math.pi / 8
_DOMAIN_EPS = 1e-12
# open-closed angle domains, widened by _DOMAIN_EPS
_PHI_LO, _PHI_HI = -_QUARTER_PI - _DOMAIN_EPS, _QUARTER_PI + _DOMAIN_EPS
_ALPHA_LO, _ALPHA_HI = -_HALF_PI - _DOMAIN_EPS, _HALF_PI + _DOMAIN_EPS
# pivots whose largest part lies in this range are solved unscaled
_SCALE_LO, _SCALE_HI = 2.0 ** -32, 2.0 ** 32


class DegenerateCubicError(ValueError):
    """All cubic coefficients vanish; every alpha is stationary."""


@dataclass(frozen=True)
class AngleProblem:
    """Pivot submatrix entries; fixed_alpha pins alpha for single embeddings."""

    a_ii: complex
    a_ij: complex
    a_ji: complex
    a_jj: complex
    fixed_alpha: float | None = None

    @classmethod
    def from_matrix(cls, a: np.ndarray, i: int, j: int,
                    fixed_alpha: float | None = None) -> "AngleProblem":
        """Extract the pivot submatrix at 1-based plane labels (i, j)."""
        p, q = i - 1, j - 1
        return cls(a.item(p, p), a.item(p, q), a.item(q, p), a.item(q, q),
                   fixed_alpha)


@dataclass(frozen=True)
class AngleSolution:
    phi: float
    alpha: float
    g_value: float
    case: str  # trivial | phi_quarter | alpha_half | cubic | fixed_1d


@dataclass(frozen=True)
class CubicCoefficients:
    """Real cubic c3*tau^3 + c2*tau^2 + c1*tau + c0 in tau = tan(alpha).

    Also carries the invariants (s1, s2, s3, p, q) it was built from.
    """

    c3: float
    c2: float
    c1: float
    c0: float
    s1: float
    s2: float
    s3: float
    p: float
    q: float

    @property
    def is_degenerate(self) -> bool:
        return self.c3 == 0.0 and self.c2 == 0.0 and self.c1 == 0.0 and self.c0 == 0.0


def _parts(problem: AngleProblem):
    return (problem.a_ii.real, problem.a_ii.imag,
            problem.a_jj.real, problem.a_jj.imag,
            problem.a_ij.real, problem.a_ij.imag,
            problem.a_ji.real, problem.a_ji.imag)


def _invariants(problem: AngleProblem):
    """The five entry combinations the stationarity conditions are built from."""
    x_ii, y_ii, x_jj, y_jj, x_ij, y_ij, x_ji, y_ji = _parts(problem)
    s1 = (x_ij + x_ji) * (x_ii - x_jj) + (y_ij + y_ji) * (y_ii - y_jj)
    s2 = (x_ii - x_jj) * (y_ij - y_ji) + (x_ji - x_ij) * (y_ii - y_jj)
    s3 = (x_ij * x_ij + x_ji * x_ji + y_ij * y_ij + y_ji * y_ji
          - (x_ii - x_jj) ** 2 - (y_ii - y_jj) ** 2)
    p = x_ij * x_ji + y_ij * y_ji
    q = x_ji * y_ij - x_ij * y_ji
    return s1, s2, s3, p, q


def _g_formula(parts, phi, alpha, m):
    x_ii, y_ii, x_jj, y_jj, x_ij, y_ij, x_ji, y_ji = parts
    cph = m.cos(phi)
    sph = m.sin(phi)
    ca = m.cos(alpha)
    sa = m.sin(alpha)
    u = (x_ij + x_ji) * ca + (y_ij - y_ji) * sa
    v = (y_ij + y_ji) * ca + (x_ji - x_ij) * sa
    c2 = cph * cph
    s2 = sph * sph
    sc = sph * cph
    xii_p = x_ii * c2 + x_jj * s2 + u * sc
    yii_p = y_ii * c2 + y_jj * s2 + v * sc
    xjj_p = x_ii * s2 + x_jj * c2 - u * sc
    yjj_p = y_ii * s2 + y_jj * c2 - v * sc
    return xii_p ** 2 + yii_p ** 2 + xjj_p ** 2 + yjj_p ** 2


def eval_g(problem: AngleProblem, phi, alpha):
    """Post-rotation diagonal weight |a'_ii|^2 + |a'_jj|^2.

    Accepts scalars or broadcasting numpy arrays for phi and alpha.
    """
    if isinstance(phi, np.ndarray) or isinstance(alpha, np.ndarray):
        return _g_formula(_parts(problem), phi, alpha, np)
    return _g_formula(_parts(problem), float(phi), float(alpha), math)


def cubic_coefficients(problem: AngleProblem) -> CubicCoefficients:
    """Coefficients of the interior-stationarity cubic in tan(alpha)."""
    inv = _invariants(problem)
    return CubicCoefficients(*_cubic_terms(*inv), *inv)


def _cubic_terms(s1, s2, s3, p, q):
    """(c3, c2, c1, c0) of the interior-stationarity cubic."""
    c3 = 4 * p * q * s1 + 4 * q * q * s2 - 2 * q * s1 * s3 - s1 * s1 * s2
    c2 = (8 * p * p * s1 + 12 * p * q * s2 - 4 * p * s1 * s3 - 4 * q * q * s1
          + 2 * q * s2 * s3 - s1 ** 3 + 2 * s1 * s2 * s2)
    c1 = (8 * p * p * s2 - 12 * p * q * s1 + 4 * p * s2 * s3 - 4 * q * q * s2
          + 2 * q * s1 * s3 + 2 * s1 * s1 * s2 - s2 ** 3)
    c0 = -4 * p * q * s2 + 4 * q * q * s1 - 2 * q * s2 * s3 - s1 * s2 * s2
    return c3, c2, c1, c0


def cubic_real_roots(coeffs: CubicCoefficients) -> list[float]:
    """All real roots, deduplicated, Newton-polished on the input cubic.

    Degenerate leading coefficients reduce the degree; an all-zero cubic
    raises DegenerateCubicError (the caller falls back to the explicit-angle
    candidates).
    """
    return _real_roots(coeffs.c3, coeffs.c2, coeffs.c1, coeffs.c0)


def _real_roots(c3, c2, c1, c0) -> list[float]:
    scale = max(abs(c3), abs(c2), abs(c1), abs(c0))
    if scale == 0.0:
        raise DegenerateCubicError("all cubic coefficients are zero")
    c3 = c3 / scale
    c2 = c2 / scale
    c1 = c1 / scale
    c0 = c0 / scale

    eps = 1e-14
    if abs(c3) <= eps:
        roots = _quadratic_roots(c2, c1, c0)
    else:
        roots = _cardano(c2 / c3, c1 / c3, c0 / c3)

    polished = []
    for r in roots:
        for _ in range(3):
            f = ((c3 * r + c2) * r + c1) * r + c0
            df = (3 * c3 * r + 2 * c2) * r + c1
            if df == 0.0:
                break
            step = f / df
            if not math.isfinite(step):
                break
            r = r - step
        polished.append(r)

    polished.sort()
    out: list[float] = []
    for r in polished:
        if out and abs(r - out[-1]) <= 1e-10 * max(1.0, abs(r), abs(out[-1])):
            continue
        out.append(r)
    return out


def _quadratic_roots(a, b, c):
    if a == 0.0:
        if b == 0.0:
            return []  # constant, nonzero by the caller's scaling
        return [-c / b]
    disc = b * b - 4 * a * c
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    # q-form avoids cancellation between -b and the discriminant root
    qq = -(b + math.copysign(sq, b)) / 2
    roots = [qq / a]
    if qq != 0.0:
        roots.append(c / qq)
    return roots


def _cardano(b, c, d):
    """Real roots of the monic cubic t^3 + b t^2 + c t + d."""
    p = c - b * b / 3
    q = 2 * b ** 3 / 27 - b * c / 3 + d
    shift = -b / 3
    disc = (q / 2) ** 2 + (p / 3) ** 3
    if disc > 0.0:
        sq = math.sqrt(disc)
        w = -q / 2 - math.copysign(sq, q)
        u = math.copysign(abs(w) ** (1.0 / 3.0), w)
        t = u - p / (3 * u) if u != 0.0 else 0.0
        return [t + shift]
    if disc == 0.0:
        if p == 0.0:
            return [shift]
        return [3 * q / p + shift, -3 * q / (2 * p) + shift]
    # three distinct real roots
    m = 2 * math.sqrt(-p / 3)
    arg = 3 * q / (p * m)
    arg = min(1.0, max(-1.0, arg))
    theta = math.acos(arg) / 3
    return [m * math.cos(theta - 2 * math.pi * k / 3) + shift for k in (0, 1, 2)]


def _trig(alpha):
    """cos and sin of alpha and of 2 alpha, the values every alpha term uses."""
    return math.cos(alpha), math.sin(alpha), math.cos(2 * alpha), math.sin(2 * alpha)


_TRIG_ZERO = _trig(0.0)
_TRIG_QUARTER = _trig(_QUARTER_PI)
_TRIG_MINUS_QUARTER = _trig(-_QUARTER_PI)
_TRIG_HALF = _trig(_HALF_PI)


def _phi_slope_coeffs(s1, s2, s3, p, q, trig):
    """(pc, qc) with d g / d phi = pc cos(4 phi) + qc sin(4 phi) at fixed alpha.

    ``trig`` is ``_trig(alpha)``.
    """
    ca, sa, c2a, s2a = trig
    return 2.0 * (s1 * ca + s2 * sa), s3 + 2.0 * c2a * p + 2.0 * s2a * q


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


def _stationary_phis(pc, qc):
    """Roots of d g / d phi = pc*cos(4 phi) + qc*sin(4 phi) at fixed alpha.

    All arctan branch mates inside the phi domain are returned.  This
    recovery is well conditioned in phi, unlike tan(2 phi) = -k1/k2, which
    degenerates when g barely depends on alpha (nearly symmetric pivots).
    """
    if pc == 0.0 and qc == 0.0:
        return ()
    f0 = 0.25 * math.atan2(-pc, qc)
    out = []
    for k in (-1, 0, 1):
        phi = f0 + k * _QUARTER_PI
        if _PHI_LO < phi <= _PHI_HI:
            out.append(min(phi, _QUARTER_PI))
    return out


def _rescaled(problem: AngleProblem) -> tuple[AngleProblem, int]:
    """The problem times 2**-e and e, with e != 0 only for extreme scales.

    The cubic coefficients are of degree 6 in the entries, so they overflow
    or underflow far inside the float range.  When the largest real or
    imaginary part lies outside [2**-32, 2**32], the entries are divided by
    the power of two that brings it into [0.5, 1), which is exact and leaves
    the angles unchanged.  Pivots inside that range are left as they are:
    ``**`` is libm ``pow``, which is not exactly homogeneous, so rescaling
    every pivot would move the last bits of ordinary solutions.
    """
    big = max(map(abs, _parts(problem)))
    if _SCALE_LO <= big <= _SCALE_HI:
        return problem, 0
    e = math.frexp(big)[1]

    def down(z):
        return complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e))

    return AngleProblem(down(problem.a_ii), down(problem.a_ij),
                        down(problem.a_ji), down(problem.a_jj),
                        problem.fixed_alpha), e


def _pick(problem: AngleProblem, scale_exp: int,
          scored: list[tuple[float, float, float, str]]):
    """Argmax of the analytic gain; near-ties prefer smaller |phi|, then |alpha|.

    Returns (phi, alpha, g_value, case), with g_value scaled back by
    4**scale_exp to the caller's problem.
    """
    best = max(scored, key=itemgetter(0))[0]
    tied = [s for s in scored if s[0] >= best - 1e-9 * abs(best)]
    _, phi, alpha, case = min(tied, key=lambda s: (abs(s[1]), abs(s[2])))
    parts = _parts(problem)
    x_ii, y_ii, x_jj, y_jj = parts[:4]
    # _g_formula at phi = alpha = 0, where it reduces to exactly this sum
    g0 = x_ii ** 2 + y_ii ** 2 + x_jj ** 2 + y_jj ** 2
    g_value = max(_g_formula(parts, phi, alpha, math), g0)
    return phi, alpha, math.ldexp(g_value, 2 * scale_exp), case


def solve_angles(problem: AngleProblem) -> AngleSolution:
    """Maximize g over both angles (free-alpha mode, double embeddings)."""
    if problem.fixed_alpha is not None:
        raise ValueError("problem has fixed alpha; use solve_angles_fixed_alpha")
    problem, scale_exp = _rescaled(problem)
    inv = _invariants(problem)
    s1, s2, s3, p, q = inv
    # every candidate is scored as it is found; the slope coefficients are
    # computed once per distinct alpha
    pc, qc = _phi_slope_coeffs(*inv, _TRIG_ZERO)
    scored = [(_gain(pc, qc, 0.0), 0.0, 0.0, "trivial")]

    # phi = pi/4: stationarity in alpha gives tan(2 alpha) = q/p, or alpha = +-pi/4
    for alpha, trig in ((_QUARTER_PI, _TRIG_QUARTER),
                        (-_QUARTER_PI, _TRIG_MINUS_QUARTER)):
        scored.append((_gain(*_phi_slope_coeffs(*inv, trig), _QUARTER_PI),
                       _QUARTER_PI, alpha, "phi_quarter"))
    if p != 0.0 or q != 0.0:
        a0 = 0.5 * math.atan2(q, p)
        for k in (-1, 0, 1):
            alpha = a0 + k * _HALF_PI
            if _ALPHA_LO < alpha <= _ALPHA_HI:
                alpha = min(alpha, _HALF_PI)
                slope = _phi_slope_coeffs(*inv, _trig(alpha))
                scored.append((_gain(*slope, _QUARTER_PI), _QUARTER_PI, alpha,
                               "phi_quarter"))

    # alpha = pi/2: stationary phis, or phi = +-pi/8 when both terms vanish
    pc, qc = _phi_slope_coeffs(*inv, _TRIG_HALF)
    for phi in (_EIGHTH_PI, -_EIGHTH_PI, *_stationary_phis(pc, qc)):
        scored.append((_gain(pc, qc, phi), phi, _HALF_PI, "alpha_half"))

    # interior points: tan(alpha) solves the cubic.  phi is recovered both
    # from tan(2 phi) = -k1/k2 and from the phi-stationarity branches, which
    # stay accurate when k1 and k2 are cancellation-dominated.  alpha = 0 is
    # seeded unconditionally for the same reason.
    terms = _cubic_terms(*inv)
    alphas_c = [(0.0, _TRIG_ZERO)]
    if any(terms):  # an all-zero cubic makes every alpha stationary
        for tau in _real_roots(*terms):
            alpha = math.atan(tau)
            alphas_c.append((alpha, _trig(alpha)))
    for alpha, trig in alphas_c:
        ca, sa, c2a, s2a = trig
        pc, qc = _phi_slope_coeffs(*inv, trig)
        k2 = 2.0 * (q * c2a - p * s2a)
        if k2 != 0.0:
            phi = 0.5 * math.atan(-(s2 * ca - s1 * sa) / k2)
            scored.append((_gain(pc, qc, phi), phi, alpha, "cubic"))
        for phi in _stationary_phis(pc, qc):
            scored.append((_gain(pc, qc, phi), phi, alpha, "cubic"))

    return AngleSolution(*_pick(problem, scale_exp, scored))


def solve_angles_fixed_alpha(problem: AngleProblem) -> AngleSolution:
    """Maximize g over phi alone, at the problem's fixed alpha."""
    alpha = problem.fixed_alpha
    if alpha is None:
        raise ValueError("problem has free alpha; use solve_angles")
    problem, scale_exp = _rescaled(problem)
    pc, qc = _phi_slope_coeffs(*_invariants(problem), _trig(alpha))
    scored = [(_gain(pc, qc, phi), phi, alpha, "fixed_1d")
              for phi in (0.0, _QUARTER_PI, _EIGHTH_PI, -_EIGHTH_PI,
                          *_stationary_phis(pc, qc))]
    phi, _, g_value, _ = _pick(problem, scale_exp, scored)
    return AngleSolution(phi, alpha, g_value,
                         "trivial" if phi == 0.0 else "fixed_1d")


def grid_oracle(problem: AngleProblem, grid: int) -> tuple[float, float, float]:
    """Exhaustive lattice search over the angle domain; verification oracle.

    Returns (phi, alpha, g) of the best lattice point.  Under fixed alpha the
    lattice is one-dimensional in phi.
    """
    if grid < 3:
        raise ValueError("grid must be >= 3")
    phis = np.linspace(-_QUARTER_PI, _QUARTER_PI, grid)
    if problem.fixed_alpha is not None:
        g = eval_g(problem, phis, problem.fixed_alpha)
        k = int(np.argmax(g))
        return float(phis[k]), problem.fixed_alpha, float(g[k])
    alphas = np.linspace(-_HALF_PI, _HALF_PI, grid)
    g = eval_g(problem, phis[:, None], alphas[None, :])
    k0, k1 = np.unravel_index(int(np.argmax(g)), g.shape)
    return float(phis[k0]), float(alphas[k1]), float(g[k0, k1])
