/* Kernel sweep of silt.slt_core.simplex_levels, compiled at import.
 *
 * For each path the sweep runs the weight-free chain recursion on the
 * time-reversed path,
 *
 *     X_1(j) = 1,   X_{l+1}(j) = sum_{i<j} X_l(i) K(i, j),
 *     K(i, j) = exp(max(-|w_i - w_j|^2 / (2 eps), floor)),
 *
 * and contracts levels 2..k with the reversed weights at the end.  Rows are
 * taken in strips of STRIP and columns in tiles of TILE.  Each exponent is a
 * float64 product of -1/(2 eps) and the float64 squared distance, cast to
 * REAL; the floor, exp and the sums over a strip's rows are in REAL, and each
 * strip sum is added to the float64 X.  The STRIP x STRIP head square of a
 * strip goes first, level by level, since level l+1 reads level l at the
 * strip's own rows; the columns beyond it take every level in one pass.
 * No scale's arithmetic depends on another's, so each scale's levels are bit
 * for bit those of a sweep at that scale alone.
 *
 * This file is its own template: the part below #else is compiled once for
 * float and once for double.  Build flags must keep IEEE semantics (no
 * -ffast-math), so that NaN reaches the output; -fopenmp-simd makes the
 * declarations below route exp through glibc's vector math library.
 */
#ifndef REAL

#include <float.h>
#include <math.h>
#include <stddef.h>
#include <stdlib.h>

#pragma omp declare simd notinbranch
float expf(float);
#pragma omp declare simd notinbranch
double exp(double);

#ifndef STRIP /* rows per strip: slt_core passes -DSTRIP=<STRIP_ROWS> */
#error "STRIP is undefined; build with -DSTRIP=<slt_core.STRIP_ROWS>"
#endif
#define TILE 512
#define CAT_(a, b) a##_##b
#define CAT(a, b) CAT_(a, b)

#define REAL float
#define EXP expf
#define TINY FLT_MIN
#include __FILE__
#undef REAL
#undef EXP
#undef TINY

#define REAL double
#define EXP exp
#define TINY DBL_MIN
#include __FILE__

#else

#define FN(name) CAT(name, REAL)

/* kv[j] = exp(max((REAL)(c * d2[j]), floor)); a NaN product stays NaN.  Two
 * loops, as in one gcc computes exp(v < floor ? floor : v) as
 * v < floor ? exp(floor) : exp(v), which sends exp the very inputs that the
 * floor keeps from it (libmvec takes a scalar path for them). */
static void FN(kernel_row)(const double *restrict d2, double c, REAL floor_, ptrdiff_t len,
                           REAL *restrict kv)
{
    for (ptrdiff_t j = 0; j < len; j++) {
        REAL v = (REAL)(c * d2[j]);
        kv[j] = v < floor_ ? floor_ : v;
    }
    for (ptrdiff_t j = 0; j < len; j++)
        kv[j] = EXP(kv[j]);
}

/* squared distances from node (xi, yi) to the nodes xs[0..len), ys[0..len) */
static void FN(distances)(double xi, double yi, const double *restrict xs,
                          const double *restrict ys, ptrdiff_t len, double *restrict d2)
{
    for (ptrdiff_t j = 0; j < len; j++) {
        double dx = xs[j] - xi, dy = ys[j] - yi;
        d2[j] = dx * dx + dy * dy;
    }
}

/* One strip [i0, i1) at scale c.  X holds levels 2..k at stride n; xr receives
 * the strip rows' values of levels 1..k-1 in REAL, at stride STRIP. */
static void FN(head_square)(const double *xs, const double *ys, ptrdiff_t n, ptrdiff_t k,
                            ptrdiff_t i0, ptrdiff_t i1, double c, REAL floor_, double *X,
                            REAL *xr)
{
    REAL head[STRIP][STRIP];
    double d2[STRIP];
    ptrdiff_t r = i1 - i0;
    for (ptrdiff_t i = 0; i + 1 < r; i++) {
        FN(distances)(xs[i0 + i], ys[i0 + i], xs + i0 + i + 1, ys + i0 + i + 1, r - i - 1, d2);
        FN(kernel_row)(d2, c, floor_, r - i - 1, head[i] + i + 1);
    }
    for (ptrdiff_t l = 0; l + 1 < k; l++) { /* level l + 2 from level l + 1 */
        REAL *x = xr + l * STRIP;
        double *next = X + l * n + i0;
        for (ptrdiff_t i = 0; i < r; i++)
            x[i] = l == 0 ? (REAL)1 : (REAL)X[(l - 1) * n + i0 + i];
        for (ptrdiff_t j = 1; j < r; j++) {
            REAL s = 0;
            for (ptrdiff_t i = 0; i < j; i++)
                s += x[i] * head[i][j];
            next[j] += s;
        }
    }
}

/* Levels 2..k of one path, unscaled, into out[m, e, 1..k-1] of an (M, E, k)
 * array.  points: (n+1, 2) path nodes; rho: (M, n) weights at nodes 0..n-1;
 * cneg: (E) values -1/(2 eps).  Returns 0, or -1 when scratch memory is short. */
int CAT(sweep, REAL)(ptrdiff_t n, ptrdiff_t M, ptrdiff_t E, ptrdiff_t k, const double *points,
                     const double *rho, const double *cneg, double *out)
{
    const REAL floor_ = (REAL)(log(TINY) + 1.0); /* subnormal exp results are slow */
    const ptrdiff_t L = k - 1;
    double *xs = calloc(2 * n + E * L * n + 1, sizeof(double)), *ys = xs + n;
    double *X = ys + n;                                        /* [e][l][n] */
    REAL *acc = malloc(sizeof(REAL) * E * L * (TILE + STRIP) + 1); /* [e][l][TILE] */
    REAL *xr = acc + E * L * TILE;                                 /* [e][l][STRIP] */
    REAL kv[TILE];
    double d2[TILE];
    if (xs == NULL || acc == NULL) {
        free(xs);
        free(acc);
        return -1;
    }

    for (ptrdiff_t j = 0; j < n; j++) { /* node n-1-j of the path */
        xs[j] = points[2 * (n - 1 - j)];
        ys[j] = points[2 * (n - 1 - j) + 1];
    }
    for (ptrdiff_t i0 = 0; i0 < n; i0 += STRIP) {
        ptrdiff_t i1 = i0 + STRIP < n ? i0 + STRIP : n;
        for (ptrdiff_t e = 0; e < E; e++)
            FN(head_square)(xs, ys, n, k, i0, i1, cneg[e], floor_, X + e * L * n,
                            xr + e * L * STRIP);
        for (ptrdiff_t t0 = i1; t0 < n; t0 += TILE) {
            ptrdiff_t len = t0 + TILE < n ? TILE : n - t0;
            for (ptrdiff_t q = 0; q < E * L * TILE; q++)
                acc[q] = 0;
            for (ptrdiff_t i = i0; i < i1; i++) {
                FN(distances)(xs[i], ys[i], xs + t0, ys + t0, len, d2);
                for (ptrdiff_t e = 0; e < E; e++) {
                    FN(kernel_row)(d2, cneg[e], floor_, len, kv);
                    for (ptrdiff_t l = 0; l < L; l++) {
                        REAL x = xr[(e * L + l) * STRIP + i - i0];
                        REAL *restrict a = acc + (e * L + l) * TILE;
                        for (ptrdiff_t j = 0; j < len; j++)
                            a[j] += x * kv[j];
                    }
                }
            }
            for (ptrdiff_t q = 0; q < E * L; q++)
                for (ptrdiff_t j = 0; j < len; j++)
                    X[q * n + t0 + j] += acc[q * TILE + j];
        }
    }
    for (ptrdiff_t m = 0; m < M; m++)
        for (ptrdiff_t q = 0; q < E * L; q++) {
            double s = 0.0;
            for (ptrdiff_t j = 0; j < n; j++)
                s += rho[m * n + n - 1 - j] * X[q * n + j];
            out[(m * E + q / L) * k + 1 + q % L] = s;
        }
    free(xs);
    free(acc);
    return 0;
}

#undef FN
#endif
