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
 * and each strip sum is added to the float64 X.  The STRIP x STRIP head square
 * of a strip goes first, level by level, since level l+1 reads level l at the
 * strip's own rows; the columns beyond it take every level in one pass.
 *
 * Column blocks of STRIP nodes, aligned like the strips, are skipped scale by
 * scale: at scale eps a block is skipped for a strip when the exponent
 * formed, as above, from the squared distance between the two blocks'
 * bounding boxes falls below the floor.  That distance bounds every pair's
 * from below, so a skipped block drops only floor values exp(floor) (3.2e-38
 * in float32, 6.0e-308 in float64), which lie below the sums' rounding.  A
 * box that holds a NaN or infinite coordinate is never skipped, so a NaN
 * reaches every level it touches.  Distances are formed once per row over
 * the blocks live at any scale, and a tile dead at every scale is passed
 * over.  No scale's arithmetic or skipping depends on another's, so each
 * scale's levels are bit for bit those of a sweep at that scale alone.
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

/* Row i's share of a tile's level sums at scale c over the columns [j0, j1):
 * d2 holds the row's squared distances to the tile's columns, x its levels
 * 1..k-1 at stride STRIP, acc the tile's sums at stride TILE. */
static inline void FN(row_span)(const double *d2, double c, REAL floor_, ptrdiff_t j0,
                                ptrdiff_t j1, ptrdiff_t L, const REAL *x, REAL *acc, REAL *kv)
{
    FN(kernel_row)(d2 + j0, c, floor_, j1 - j0, kv + j0);
    for (ptrdiff_t l = 0; l < L; l++) {
        REAL xl = x[l * STRIP];
        REAL *restrict a = acc + l * TILE;
        for (ptrdiff_t j = j0; j < j1; j++)
            a[j] += xl * kv[j];
    }
}

/* Levels 2..k of one path's chain sums, unscaled, into the caller's X of E (k-1)
 * n doubles, zeroed first: X[(e (k-1) + l) n + j] is level l + 2 at scale e and
 * node j of the reversed path.  The kernel values evaluated at each scale are
 * added to count[e].  points: (n+1, 2) path nodes; cneg: (E) values -1/(2 eps).
 * Returns 0, or -1 when scratch memory is short. */
int CAT(sweep, REAL)(ptrdiff_t n, ptrdiff_t E, ptrdiff_t k, const double *points,
                     const double *cneg, double *X, int64_t *count)
{
    const REAL floor_ = (REAL)(log(TINY) + 1.0); /* subnormal exp results are slow */
    const ptrdiff_t L = k - 1, nb = (n + STRIP - 1) / STRIP;
    /* One scratch block; xs and acc start on 64-byte boundaries, as a tile's loads
     * from them split no cache line there (at 16 mod 64 the sweep ran 3-9 % slower). */
    const ptrdiff_t nx = (2 * n + 4 * nb + 7) / 8 * 8; /* doubles of xs, ys and box */
    char *mem = calloc(1, 64 + sizeof(double) * nx + sizeof(REAL) * E * L * (TILE + STRIP)
                              + sizeof(unsigned) * E);
    double *xs = (double *)(((uintptr_t)mem + 63) & ~(uintptr_t)63), *ys = xs + n;
    double *box = ys + n;                                      /* [4][nb] */
    REAL *acc = (REAL *)(xs + nx), *xr = acc + E * L * TILE; /* [e][l][TILE], [e][l][STRIP] */
    unsigned *live = (unsigned *)(xr + E * L * STRIP); /* [e]: a tile's live blocks as bits */
    REAL kv[TILE];
    double d2[TILE], gap2[TILE / STRIP];
    if (mem == NULL)
        return -1;

    for (ptrdiff_t q = 0; q < E * L * n; q++)
        X[q] = 0;
    for (ptrdiff_t j = 0; j < n; j++) { /* node n-1-j of the path */
        xs[j] = points[2 * (n - 1 - j)];
        ys[j] = points[2 * (n - 1 - j) + 1];
    }
    bounding_boxes(xs, ys, n, box);
    for (ptrdiff_t i0 = 0; i0 < n; i0 += STRIP) {
        ptrdiff_t i1 = i0 + STRIP < n ? i0 + STRIP : n;
        for (ptrdiff_t e = 0; e < E; e++) {
            FN(head_square)(xs, ys, n, k, i0, i1, cneg[e], floor_, X + e * L * n,
                            xr + e * L * STRIP);
            count[e] += (i1 - i0) * (i1 - i0 - 1) / 2;
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
                for (ptrdiff_t e = 0; e < E; e++) {
                    const REAL *x = xr + e * L * STRIP + i - i0;
                    REAL *a = acc + e * L * TILE;
                    if (live[e] == full) { /* one call: a run of blocks sweeps slower */
                        FN(row_span)(d2, cneg[e], floor_, 0, len, L, x, a, kv);
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
                        FN(row_span)(d2, cneg[e], floor_, b0 * STRIP, r1, L, x, a, kv);
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
