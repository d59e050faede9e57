/* One cyclic Jacobi sweep in C: the body of jacobi.sweep_once with the eta
 * rule off, trace on or off, bitwise equal to it under CPython 3.10-3.13.
 *
 * _sweep.py builds this file with
 *     gcc -O2 -shared -fPIC -ffp-contract=off -fno-builtin
 * and calls structnorm_sweep through ctypes.  Per pivot visit it follows
 * angles.solve_angles statement for statement, then the s and the plane
 * layout of rotations.planes, then the zrot calls of _kernels._zrot_planes;
 * the trace weights are those of jacobi._record, by the zdotc that numpy's
 * vdot calls.  The Python names are kept.  What keeps the bits CPython's:
 *   - no product is fused into an FMA (-ffp-contract=off);
 *   - x ** 2 is py_sq, CPython's float power, which takes libm pow of |x|;
 *     -fno-builtin keeps gcc from folding pow(x, 2.0) into x * x;
 *   - max is CPython's: the first item, replaced only by a later one > it;
 *   - complex * float widens the float to (x, 0.0), as before CPython 3.14;
 *   - each weight is numpy's vdot sum, 0.0 + re(zdotc), over the operands
 *     numpy hands zdotc: the diagonal in place, with stride m + 1, and the
 *     whole matrix with its diagonal zeroed, with stride 1.
 * _sweep.run hands it only an iterate with ||A||_F^2 < 2^1023, so every
 * entry is finite, no gain reaches the double range's end, and libm's
 * frexp, ldexp and atan2 return what math.frexp, math.ldexp and math.atan2
 * do: none of CPython's special cases, nor its OverflowError, can arise.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

/* LAPACK zrot, every argument by reference: over n complex entries,
   x <- c x + s y and y <- c y - conj(s) x */
typedef void zrot_fn(const int64_t *n, double *x, const int64_t *incx,
                     double *y, const int64_t *incy, const double *c,
                     const double *s);

/* CBLAS zdotc_sub, ILP64: *dot <- sum over n entries of conj(x) y */
typedef void zdotc_fn(int64_t n, const double *x, int64_t incx,
                      const double *y, int64_t incy, double *dot);

static const double SCALE_LO = 0x1p-32, SCALE_HI = 0x1p32; /* angles._SCALE_* */

/* x ** 2: libm pow of |x| (it cannot overflow here, as no part squared
   exceeds 2^66) */
static double py_sq(double x)
{
    return pow(fabs(x), 2.0);
}

/* max(v[0], ..., v[count - 1]) */
static double py_max(const double *v, int count)
{
    double m = v[0];
    for (int k = 1; k < count; k++)
        if (v[k] > m)
            m = v[k];
    return m;
}

/* angles.solve_angles(entries, alpha): entries a_ii, a_ij, a_ji, a_jj, each
   (re, im); *alpha is the forced alpha where fixed, else set here.  Sets
   *phi_out and *gain_out. */
static void solve_angles(const double *ii, const double *ij, const double *ji,
                         const double *jj, int fixed, double *phi_out,
                         double *alpha_io, double *gain_out)
{
    double x_ii = ii[0], y_ii = ii[1], x_jj = jj[0], y_jj = jj[1];
    double x_ij = ij[0], y_ij = ij[1], x_ji = ji[0], y_ji = ji[1];
    int e = 0;
    const double parts[8] = {fabs(x_ii), fabs(y_ii), fabs(x_jj), fabs(y_jj),
                             fabs(x_ij), fabs(y_ij), fabs(x_ji), fabs(y_ji)};
    double big = py_max(parts, 8);
    if (!(SCALE_LO <= big && big <= SCALE_HI)) {
        frexp(big, &e);
        x_ii = ldexp(x_ii, -e), y_ii = ldexp(y_ii, -e);
        x_jj = ldexp(x_jj, -e), y_jj = ldexp(y_jj, -e);
        x_ij = ldexp(x_ij, -e), y_ij = ldexp(y_ij, -e);
        x_ji = ldexp(x_ji, -e), y_ji = ldexp(y_ji, -e);
    }
    /* the five invariants */
    double dx = x_ii - x_jj, dy = y_ii - y_jj;
    double s1 = (x_ij + x_ji) * dx + (y_ij + y_ji) * dy;
    double s2 = dx * (y_ij - y_ji) + (x_ji - x_ij) * dy;
    double s3 = (x_ij * x_ij + x_ji * x_ji + y_ij * y_ij + y_ji * y_ji
                 - py_sq(dx) - py_sq(dy));
    double p = x_ij * x_ji + y_ij * y_ji;
    double q = x_ji * y_ij - x_ij * y_ji;
    double alpha = *alpha_io;
    if (!fixed) {
        /* F = lambda_max(K), by Newton's method from K's Gershgorin bound */
        double t = s1 * s1 + s2 * s2;
        double d12 = s1 * s1 - s2 * s2;
        double c2 = -4.0 * s3;
        double c1 = 4.0 * s3 * s3 - 4.0 * t - 16.0 * (p * p + q * q);
        double c0 = 8.0 * s3 * t - 16.0 * p * d12 - 32.0 * q * s1 * s2;
        const double bounds[3] = {
            2.0 * (s3 + 2.0 * p + fabs(s1)) + 4.0 * fabs(q),
            2.0 * (s3 - 2.0 * p + fabs(s2)) + 4.0 * fabs(q),
            2.0 * (fabs(s1) + fabs(s2))};
        double f = py_max(bounds, 3);
        for (;;) {
            double df = (3.0 * f + 2.0 * c2) * f + c1;
            if (!(df > 0.0))
                break;
            double nxt = f - (((f + c2) * f + c1) * f + c0) / df;
            if (!(nxt < f))
                break;
            f = nxt;
        }
        alpha = 0.5 * atan2(4.0 * f * q + 4.0 * s1 * s2,
                            4.0 * f * p + 2.0 * d12);
    }
    /* the best phi at alpha */
    double pc = 2.0 * (s1 * cos(alpha) + s2 * sin(alpha));
    double qc = s3 + 2.0 * (p * cos(2 * alpha) + q * sin(2 * alpha));
    double phi = 0.25 * atan2(pc, -qc);
    double s2p = sin(2 * phi);
    double gain = (pc * sin(4 * phi) + qc * 2.0 * s2p * s2p) / 4.0;
    if (!(gain > 0.0)) {
        phi = 0.0;
        gain = 0.0;
    }
    /* the gain, scaled back by 4**e */
    *phi_out = phi;
    *alpha_io = alpha;
    *gain_out = ldexp(gain, 2 * e);
}

/* structures.diag_norm_sq and offdiag_norm_sq of the m x m matrix a, into
   w; a's diagonal is zeroed for the second and then restored from diag,
   which holds m complex entries */
static void weights(zdotc_fn *zdotc, int64_t m, double *a, double *diag,
                    double w[2])
{
    double dot[2];
    zdotc(m, a, m + 1, a, m + 1, dot);
    w[0] = 0.0 + dot[0];
    for (int64_t k = 0; k < m; k++) {
        double *akk = a + 2 * k * (m + 1);
        diag[2 * k] = akk[0], diag[2 * k + 1] = akk[1];
        akk[0] = akk[1] = 0.0;
    }
    zdotc(m * m, a, 1, a, 1, dot);
    w[1] = 0.0 + dot[0];
    for (int64_t k = 0; k < m; k++) {
        double *akk = a + 2 * k * (m + 1);
        akk[0] = diag[2 * k], akk[1] = diag[2 * k + 1];
    }
}

/* Apply the rotation of pivot (kind, i, j) at phi, alpha to the m x m
 * matrices a and z: its planes go to zrot, rows then columns of a plane by
 * plane, then the columns of z.  Returns its number of planes. */
static int rotate(zrot_fn *zrot, int64_t m, double *a, double *z, int kind,
                  int64_t i, int64_t j, double phi, double alpha)
{
    const int64_t n = m / 2, p = i - 1, q = j - 1, one = 1;
    /* planes: s = complex(cos(alpha), sin(alpha)) * sin(phi) */
    const double ca = cos(alpha), sa = sin(alpha), sp = sin(phi);
    const double s[2] = {ca * sp - sa * 0.0, ca * 0.0 + sa * sp};
    int64_t pq[2][2] = {{p, q}, {0, 0}};
    double ss[2][2] = {{s[0], s[1]}, {s[0], s[1]}};
    int planes = 2;
    switch (kind) {
    case 0:  /* SYMP_DIRECT_SUM */
        pq[1][0] = n + i - 1, pq[1][1] = n + j - 1;
        break;
    case 2:  /* SYMP_CONCENTRIC: conj(s) */
        pq[1][0] = j - n - 1, pq[1][1] = n + i - 1;
        ss[1][1] = -s[1];
        break;
    case 3:  /* PERP_DIRECT_SUM and */
    case 5:  /* PERP_INTERLEAVED: -conj(s) */
        pq[1][0] = 2 * n - j, pq[1][1] = 2 * n - i;
        ss[1][0] = -s[0];
        break;
    default:  /* the singles */
        planes = 1;
    }
    const double c = cos(phi);
    for (int r = 0; r < planes; r++) {
        const double cs[2] = {ss[r][0], -ss[r][1]};
        zrot(&m, a + 2 * m * pq[r][0], &one, a + 2 * m * pq[r][1], &one,
             &c, ss[r]);
        zrot(&m, a + 2 * pq[r][0], &m, a + 2 * pq[r][1], &m, &c, cs);
    }
    for (int r = 0; r < planes; r++) {
        const double cs[2] = {ss[r][0], -ss[r][1]};
        zrot(&m, z + 2 * pq[r][0], &m, z + 2 * pq[r][1], &m, &c, cs);
    }
    return planes;
}

/* One sweep of the m x m row-major complex matrices a and z over count
 * pivots, each (kind, i, j) with kind the index of its member in
 * list(rotations.RotationKind).  Each rotation is applied to both as the
 * visit applies it: z meets the planes in the order of the Python body's
 * one call as the sweep ends.
 * Where records is not NULL, row k of the count x 5 records is visit k's
 * trace record: phi, alpha, the two weights of a after it and 1.0 where it
 * was skipped, else 0.0; diag then holds m complex entries.
 * Sets the sweep gain in *sweep_gain. */
void structnorm_sweep(zrot_fn *zrot, zdotc_fn *zdotc, int64_t m, double *a,
                      double *z, const int32_t *pivots, int64_t count,
                      double phi_skip, double *sweep_gain, double *records,
                      double *diag)
{
    double gain_sum = 0.0, w[2] = {0.0, 0.0};
    int moved = 1;  /* a moved since the last record, or none was taken */
    for (int64_t k = 0; k < count; k++) {
        const int kind = pivots[3 * k];
        const int64_t i = pivots[3 * k + 1], j = pivots[3 * k + 2];
        const int64_t p = i - 1, q = j - 1;
        /* SYMP_SINGLE forces alpha 0.0, PERP_SINGLE -pi / 2 */
        const int fixed = kind == 1 || kind == 4;
        double phi, alpha = kind == 4 ? -M_PI / 2 : 0.0, gain;
        solve_angles(a + 2 * (p * m + p), a + 2 * (p * m + q),
                     a + 2 * (q * m + p), a + 2 * (q * m + q), fixed, &phi,
                     &alpha, &gain);
        const int skipped = fabs(phi) < phi_skip;
        if (!skipped) {  /* a gain in each plane */
            gain_sum += gain * rotate(zrot, m, a, z, kind, i, j, phi, alpha);
            moved = 1;
        }
        if (records != NULL) {
            if (moved)
                weights(zdotc, m, a, diag, w);
            moved = 0;
            double *row = records + 5 * k;
            row[0] = phi, row[1] = alpha, row[2] = w[0], row[3] = w[1];
            row[4] = skipped;
        }
    }
    *sweep_gain = gain_sum;
}
