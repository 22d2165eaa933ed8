/* Kernel sweep of silt.slt_core.simplex_levels, compiled at import.
 *
 * For each path the sweep runs the weight-free chain recursion on the
 * time-reversed path,
 *
 *     X_1(j) = 1,   X_{l+1}(j) = sum_{i<j} X_l(i) K(i, j),
 *     K(i, j) = exp(max(-|w_i - w_j|^2 / (2 eps), floor)),
 *
 * and returns levels 2..k of X, which no weight enters: simplex_levels meets
 * them with the weights by einsum, summed over j in path order, with no BLAS
 * call.  Rows are taken in strips of STRIP and columns in tiles of TILE.  Each
 * exponent is a float64 product of -1/(2 eps) and the float64 squared distance,
 * cast to REAL; the floor, exp and the sums over a strip's rows are in REAL,
 * and each strip sum is added to the float64 X.  A strip's pairs among its own
 * rows go first, row by row, by the same calls as the columns beyond: at the
 * start of row i, column i's sums over the strip's earlier rows are added to
 * X, and then the row's levels are read.
 *
 * Scales at an integer ratio share their exps, by the scale plan that
 * silt.slt_core._scale_plan picks and the caller passes: plan[0..E) lists the
 * scales, each direct scale followed at once by the scales derived from it,
 * and plan[E + e] is the power r of scale e, 1 for a direct scale, which takes
 * the exp above.  A derived scale takes each kernel value as max(K_b, t_r)^r,
 * from the value K_b of the same pair at its base, the direct scale listed
 * before it, and t_r = exp(floor / r) rounded up, by a fixed chain of at most
 * three products: no product is subnormal, a pair below the floor gets about
 * exp(floor), and a NaN stays NaN.  The power multiplies the rounding of the
 * base's exp by r; the plan's budget keeps float32 levels within 1e-7 of
 * float64 at every k (see README), and float64 derived levels lie within
 * 1e-15 of direct ones.
 *
 * Column blocks of STRIP nodes, aligned like the strips, are skipped scale by
 * scale: at scale eps a block is skipped for a strip when the exponent
 * formed, as above, from the squared distance between the two blocks'
 * bounding boxes falls below the floor.  That distance bounds every pair's
 * from below, so a skipped block drops only floor values exp(floor) (3.2e-38
 * in float32, 6.0e-308 in float64), which lie below the sums' rounding.  A
 * box that holds a NaN or infinite coordinate is never skipped, so a NaN
 * reaches every level it touches.  A derived scale's exponent factor is r
 * times its base's, so its live blocks are among its base's, whose values
 * the same row has just formed.  Distances are formed once per row over the
 * blocks live at any scale, and a tile dead at every scale is passed over.
 * A direct scale's arithmetic and skipping depend on no other scale, so its
 * levels are bit for bit those of a sweep at that scale alone.
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
#include <stdint.h>
#include <stdlib.h>

#pragma omp declare simd notinbranch
float expf(float);
#pragma omp declare simd notinbranch
double exp(double);

#ifndef STRIP /* rows per strip: slt_core passes -DSTRIP=<STRIP_ROWS> */
#error "STRIP is undefined; build with -DSTRIP=<slt_core.STRIP_ROWS>"
#endif
#define TILE 512
#if TILE % STRIP || TILE / STRIP > 32 /* a tile's live blocks are the bits of an unsigned */
#error "TILE must hold at most 32 blocks of STRIP columns"
#endif
#define CAT_(a, b) a##_##b
#define CAT(a, b) CAT_(a, b)

/* Bounds of each block of STRIP nodes: box[b], box[nb + b], box[2 nb + b] and
 * box[3 nb + b] are block b's lowest x, highest x, lowest y and highest y.  A
 * NaN or infinite coordinate makes all four NaN, through x - x. */
static void bounding_boxes(const double *xs, const double *ys, ptrdiff_t n, double *box)
{
    const ptrdiff_t nb = (n + STRIP - 1) / STRIP;
    for (ptrdiff_t b = 0; b < nb; b++) {
        double xlo = INFINITY, xhi = -INFINITY, ylo = INFINITY, yhi = -INFINITY, bad = 0;
        ptrdiff_t end = (b + 1) * STRIP < n ? (b + 1) * STRIP : n;
#pragma omp simd reduction(min : xlo, ylo) reduction(max : xhi, yhi) reduction(+ : bad)
        for (ptrdiff_t j = b * STRIP; j < end; j++) {
            xlo = xs[j] < xlo ? xs[j] : xlo;
            xhi = xs[j] > xhi ? xs[j] : xhi;
            ylo = ys[j] < ylo ? ys[j] : ylo;
            yhi = ys[j] > yhi ? ys[j] : yhi;
            bad += (xs[j] - xs[j]) + (ys[j] - ys[j]);
        }
        box[b] = xlo + bad;
        box[nb + b] = xhi + bad;
        box[2 * nb + b] = ylo + bad;
        box[3 * nb + b] = yhi + bad;
    }
}

/* v, or 0 where v < 0; NaN stays NaN */
static double positive_part(double v) { return v < 0 ? 0 : v; }

/* Squared distances from the box of block s to those of blocks b0..b0+len, of
 * nb boxes: lower bounds of those of any pair of their nodes, and NaN when a
 * bound is NaN. */
static void box_distances(const double *box, ptrdiff_t nb, ptrdiff_t s, ptrdiff_t b0,
                          ptrdiff_t len, double *restrict d2)
{
    const double *xlo = box, *xhi = box + nb, *ylo = box + 2 * nb, *yhi = box + 3 * nb;
    for (ptrdiff_t b = b0; b < b0 + len; b++) {
        double gx = positive_part(xlo[b] - xhi[s]) + positive_part(xlo[s] - xhi[b]);
        double gy = positive_part(ylo[b] - yhi[s]) + positive_part(ylo[s] - yhi[b]);
        d2[b - b0] = gx * gx + gy * gy;
    }
}

#define REAL float
#define EXP expf
#define NEXT nextafterf
#define TINY FLT_MIN
#include __FILE__
#undef REAL
#undef EXP
#undef NEXT
#undef TINY

#define REAL double
#define EXP exp
#define NEXT nextafter
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

/* A derived scale's kernel values max(kb[j], t)^r, r in 2..7, from its base's
 * kb[0..len): into out, or, when add is set, added to out times x0.  Of the
 * factors v^4, v^2 and v, those whose bit of r is clear are 1, so that v^r
 * takes at most three rounded products up to r = 6 and one loop serves every
 * r.  Out of line, as derived_span below. */
static __attribute__((noinline)) void FN(power_row)(const REAL *restrict kb, REAL t, int r,
                                                    ptrdiff_t len, REAL x0, int add,
                                                    REAL *restrict out)
{
    for (ptrdiff_t j = 0; j < len; j++) {
        REAL v = kb[j] < t ? t : kb[j], v2 = v * v;
        REAL p = (r & 4 ? v2 * v2 : 1) * (r & 2 ? v2 : 1) * (r & 1 ? v : 1);
        out[j] = add ? out[j] + x0 * p : p;
    }
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

/* a row's kernel values kv[j0, j1) into the sums of levels 2..L+1: acc at
 * stride TILE, the row's levels 1..L in x at stride STRIP */
static inline void FN(add_levels)(const REAL *kv, ptrdiff_t j0, ptrdiff_t j1, ptrdiff_t L,
                                  const REAL *x, REAL *acc)
{
    for (ptrdiff_t l = 0; l < L; l++) {
        REAL xl = x[l * STRIP];
        REAL *restrict a = acc + l * TILE;
        for (ptrdiff_t j = j0; j < j1; j++)
            a[j] += xl * kv[j];
    }
}

/* Row i's share of a tile's level sums at scale c over the columns [j0, j1):
 * d2 holds the row's squared distances to the tile's columns, x its levels
 * 1..L at stride STRIP, acc the tile's sums at stride TILE. */
static inline void FN(row_span)(const double *d2, double c, REAL floor_, ptrdiff_t j0,
                                ptrdiff_t j1, ptrdiff_t L, const REAL *x, REAL *acc, REAL *kv)
{
    FN(kernel_row)(d2 + j0, c, floor_, j1 - j0, kv + j0);
    FN(add_levels)(kv, j0, j1, L, x, acc);
}

/* The same at a scale derived at power r from the base whose values kv holds:
 * raised into kd, or at L = 1 straight into the sums, which saves the store to
 * kd and its reload (through kd, converge's sweep ran 8 % slower).  Out of
 * line, so that the direct route compiles as in a sweep without derived scales
 * (inlined, the derived route slowed a single-scale sweep by 1-2 %). */
static __attribute__((noinline)) void FN(derived_span)(const REAL *kv, int r, REAL t,
                                                       ptrdiff_t j0, ptrdiff_t j1, ptrdiff_t L,
                                                       const REAL *x, REAL *acc, REAL *kd)
{
    if (L == 1) {
        FN(power_row)(kv + j0, t, r, j1 - j0, x[0], 1, acc + j0);
    } else {
        FN(power_row)(kv + j0, t, r, j1 - j0, 0, 0, kd + j0);
        FN(add_levels)(kd, j0, j1, L, x, acc);
    }
}

/* Levels 2..k of one path's chain sums, unscaled, into the caller's X of E (k-1)
 * n doubles, zeroed first: X[(e (k-1) + l) n + j] is level l + 2 at scale e and
 * node j of the reversed path.  The kernel values evaluated at each scale are
 * added to count[e].  points: (n+1, 2) path nodes; cneg: (E) values -1/(2 eps);
 * plan: (2 E) the scale plan (see the top of this file).  Returns 0, or -1 when
 * scratch memory is short. */
int CAT(sweep, REAL)(ptrdiff_t n, ptrdiff_t E, ptrdiff_t k, const double *points,
                     const double *cneg, const int64_t *plan, double *X, int64_t *count)
{
    const REAL floor_ = (REAL)(log(TINY) + 1.0); /* subnormal exp results are slow */
    const ptrdiff_t L = k - 1, nb = (n + STRIP - 1) / STRIP;
    /* One scratch block; xs and acc start on 64-byte boundaries, as a tile's loads
     * from them split no cache line there (at 16 mod 64 the sweep ran 3-9 % slower). */
    const ptrdiff_t nx = (2 * n + 4 * nb + 7) / 8 * 8; /* doubles of xs, ys and box */
    char *mem = calloc(1, 64 + sizeof(double) * nx + sizeof(REAL) * E * L * (TILE + STRIP)
                              + (sizeof(REAL) + sizeof(unsigned)) * E);
    double *xs = (double *)(((uintptr_t)mem + 63) & ~(uintptr_t)63), *ys = xs + n;
    double *box = ys + n;                                      /* [4][nb] */
    REAL *acc = (REAL *)(xs + nx), *xr = acc + E * L * TILE; /* [e][l][TILE], [e][l][STRIP] */
    REAL *t = xr + E * L * STRIP; /* [e]: the least base value raised to the power pw[e] */
    unsigned *live = (unsigned *)(t + E); /* [e]: a tile's live blocks as bits */
    const int64_t *order = plan, *pw = plan + E;
    REAL kv[TILE], kd[TILE];
    double d2[TILE], gap2[TILE / STRIP];
    if (mem == NULL)
        return -1;

    for (ptrdiff_t e = 0; e < E; e++)
        t[e] = NEXT((REAL)exp(floor_ / (double)pw[e]), INFINITY);
    for (ptrdiff_t q = 0; q < E * L * n; q++)
        X[q] = 0;
    for (ptrdiff_t j = 0; j < n; j++) { /* node n-1-j of the path */
        xs[j] = points[2 * (n - 1 - j)];
        ys[j] = points[2 * (n - 1 - j) + 1];
    }
    bounding_boxes(xs, ys, n, box);
    for (ptrdiff_t i0 = 0; i0 < n; i0 += STRIP) {
        ptrdiff_t i1 = i0 + STRIP < n ? i0 + STRIP : n, m = i1 - i0;
        for (ptrdiff_t q = 0; q < E * L; q++)
            for (ptrdiff_t j = 0; j < m; j++)
                acc[q * TILE + j] = 0;
        for (ptrdiff_t i = 0; i < m; i++) { /* the strip's own pairs, row by row */
            for (ptrdiff_t q = 0; q < E * L; q++) { /* row i's sums are whole: fold, then read */
                X[q * n + i0 + i] += acc[q * TILE + i];
                xr[q * STRIP + i] = q % L ? (REAL)X[(q - 1) * n + i0 + i] : 1;
            }
            FN(distances)(xs[i0 + i], ys[i0 + i], xs + i0 + i + 1, ys + i0 + i + 1, m - i - 1,
                          d2 + i + 1);
            for (ptrdiff_t q = 0; q < E; q++) {
                const ptrdiff_t e = order[q];
                const int r = (int)pw[e];
                const REAL *x = xr + e * L * STRIP + i;
                REAL *a = acc + e * L * TILE;
                if (r == 1)
                    FN(row_span)(d2, cneg[e], floor_, i + 1, m, L, x, a, kv);
                else
                    FN(derived_span)(kv, r, t[e], i + 1, m, L, x, a, kd);
                count[e] += m - i - 1;
            }
        }
        for (ptrdiff_t t0 = i1; t0 < n; t0 += TILE) {
            ptrdiff_t len = t0 + TILE < n ? TILE : n - t0;
            const ptrdiff_t blocks = (len + STRIP - 1) / STRIP;
            unsigned any = 0, full = ~0u >> (32 - blocks);
            box_distances(box, nb, i0 / STRIP, t0 / STRIP, blocks, gap2);
            for (ptrdiff_t e = 0; e < E; e++) {
                live[e] = 0;
                for (ptrdiff_t b = 0; b < blocks; b++)
                    live[e] |= (unsigned)!((REAL)(cneg[e] * gap2[b]) < floor_) << b;
                any |= live[e];
            }
            if (any == 0)
                continue;
            /* columns [j0, j1) span the blocks live at any scale */
            ptrdiff_t j0 = __builtin_ctz(any) * STRIP, j1 = (32 - __builtin_clz(any)) * STRIP;
            j1 = j1 < len ? j1 : len;
            for (ptrdiff_t q = 0; q < E * L; q++)
                for (ptrdiff_t j = j0; j < j1; j++)
                    acc[q * TILE + j] = 0;
            for (ptrdiff_t i = i0; i < i1; i++) {
                FN(distances)(xs[i], ys[i], xs + t0 + j0, ys + t0 + j0, j1 - j0, d2 + j0);
                for (ptrdiff_t q = 0; q < E; q++) { /* a derived scale reads its base's kv */
                    const ptrdiff_t e = order[q];
                    const int r = (int)pw[e];
                    const REAL *x = xr + e * L * STRIP + i - i0;
                    REAL *a = acc + e * L * TILE;
                    /* a full tile takes one call, with j0 = 0 known to the compiler
                     * and no block scan: through the scan below, sweeps ran 3-15 % slower */
                    if (live[e] == full) {
                        if (r == 1)
                            FN(row_span)(d2, cneg[e], floor_, 0, len, L, x, a, kv);
                        else
                            FN(derived_span)(kv, r, t[e], 0, len, L, x, a, kd);
                        count[e] += len;
                        continue;
                    }
                    for (ptrdiff_t b0 = 0; b0 * STRIP < len; b0++) {
                        if (!(live[e] >> b0 & 1))
                            continue;
                        ptrdiff_t b1 = b0 + 1;
                        while (b1 * STRIP < len && live[e] >> b1 & 1)
                            b1++;
                        ptrdiff_t r1 = b1 * STRIP < len ? b1 * STRIP : len;
                        if (r == 1)
                            FN(row_span)(d2, cneg[e], floor_, b0 * STRIP, r1, L, x, a, kv);
                        else
                            FN(derived_span)(kv, r, t[e], b0 * STRIP, r1, L, x, a, kd);
                        count[e] += r1 - b0 * STRIP;
                        b0 = b1;
                    }
                }
            }
            for (ptrdiff_t q = 0; q < E * L; q++)
                for (ptrdiff_t j = j0; j < j1; j++)
                    X[q * n + t0 + j] += acc[q * TILE + j];
        }
    }
    free(mem);
    return 0;
}

#undef FN
#endif
