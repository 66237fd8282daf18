/* Native hot path of the codec substrate: the tile driver.
 *
 * Compiled on demand by repro.native (gcc -O3, no -ffast-math, no FMA
 * contraction: the double arithmetic must follow IEEE semantics, one
 * rounding per operation, so results stay deterministic and equal to
 * the NumPy reference in repro.codec).  The non-static functions are
 * the whole ctypes surface — encode_frame_u8, analyze_frame_u8 and
 * downscale_box_u8; everything else is a static building block.  All
 * arrays are C-contiguous buffers prepared by the Python wrappers.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define REPRO_X86 1
#else
#define REPRO_X86 0
#endif

/* ------------------------------------------------------------------ */
/* SAD.                                                                */
/*                                                                     */
/* Two kernels, chosen from the build target and the block width with  */
/* no runtime state: the plain C loop (every width, every platform)    */
/* and SSE2 psadbw, which is part of the x86-64 baseline so it needs   */
/* no CPU detection.  Both compute *integer* sums of absolute          */
/* differences, exact in any lane order — bit-identical to each other  */
/* and to the NumPy oracle by construction.                            */
/* ------------------------------------------------------------------ */

/* Plain C SAD of a (bh, bw) uint8 block (row stride cs) against a
 * window of the reference plane (row stride ws). */
static int64_t sad_win_scalar(const uint8_t *win, ptrdiff_t ws,
                              const uint8_t *cur, ptrdiff_t cs,
                              int bh, int bw)
{
    int64_t acc = 0;
    for (int r = 0; r < bh; r++) {
        const uint8_t *wr = win + (ptrdiff_t)r * ws;
        const uint8_t *cr = cur + (ptrdiff_t)r * cs;
        for (int c = 0; c < bw; c++) {
            int d = (int)wr[c] - (int)cr[c];
            acc += d < 0 ? -d : d;
        }
    }
    return acc;
}

#if REPRO_X86
/* SSE2 baseline: 16-byte psadbw, bw % 16 == 0. */
static int64_t sad_win_sse2(const uint8_t *win, ptrdiff_t ws,
                            const uint8_t *cur, ptrdiff_t cs,
                            int bh, int bw)
{
    __m128i acc = _mm_setzero_si128();
    for (int r = 0; r < bh; r++) {
        const uint8_t *wr = win + (ptrdiff_t)r * ws;
        const uint8_t *cr = cur + (ptrdiff_t)r * cs;
        for (int c = 0; c < bw; c += 16) {
            __m128i a = _mm_loadu_si128((const __m128i *)(wr + c));
            __m128i b = _mm_loadu_si128((const __m128i *)(cr + c));
            acc = _mm_add_epi64(acc, _mm_sad_epu8(a, b));
        }
    }
    return (int64_t)(_mm_cvtsi128_si64(acc)
                     + _mm_cvtsi128_si64(_mm_unpackhi_epi64(acc, acc)));
}
#endif /* REPRO_X86 */

/* Platform/width dispatch for the u8-vs-u8 SAD. */
static inline int64_t sad_win_u8(const uint8_t *win, ptrdiff_t ws,
                                 const uint8_t *cur, ptrdiff_t cs,
                                 int bh, int bw)
{
#if REPRO_X86
    if (bw % 16 == 0)
        return sad_win_sse2(win, ws, cur, cs, bh, bw);
#endif
    return sad_win_scalar(win, ws, cur, cs, bh, bw);
}

/* Exp-Golomb code lengths (same arithmetic as repro.codec.bitstream). */
static inline int64_t ue_bits(int64_t value)
{
    uint64_t code = (uint64_t)value + 1;
    int bl = 64 - __builtin_clzll(code);
    return 2 * bl - 1;
}

static inline int64_t se_bits(int64_t value)
{
    int64_t mapped = value > 0 ? 2 * value - 1 : -2 * value;
    return ue_bits(mapped);
}

/* ------------------------------------------------------------------ */
/* 8x8 transform arithmetic, two lanes per operation.                  */
/*                                                                     */
/* v2d is the GCC/Clang vector extension: `a * b + c` on it is one     */
/* IEEE multiply and one IEEE add per lane (no FMA: -ffp-contract=off) */
/* — each lane runs exactly the scalar operations of the definition,   */
/* so a product summed lane-wise is the product summed one element at  */
/* a time.  No intrinsics, no -march: SSE2 / NEON where the target has */
/* them, plain scalar code where it does not.                          */
/* ------------------------------------------------------------------ */

typedef double v2d __attribute__((vector_size(16), aligned(8), may_alias));

/* out = a @ b over row-major 8x8 doubles: out[i][j] is the sum over
 * ascending k of a[i][k] * b[k][j], started from +0.0, every product
 * rounded once and then added — the arithmetic of
 * repro.codec.transform._matmul_in_order.  Only the terms k in kmask
 * are taken: a caller may drop a k whose a[.][k] or b[k][.] are all
 * +0.0, because such a term is +-0.0 and adding a signed zero to a
 * running sum that started at +0.0 (and so is never -0.0) leaves it
 * bit for bit what it was. */
static void mat8_mul(const double *a, const double *b, double *out,
                     unsigned kmask)
{
    const v2d *bv = (const v2d *)b;
    v2d *ov = (v2d *)out;
    for (int i = 0; i < 8; i++) {
        v2d acc0 = {0.0, 0.0}, acc1 = acc0, acc2 = acc0, acc3 = acc0;
        for (int k = 0; k < 8; k++) {
            if (!(kmask >> k & 1))
                continue;
            v2d av = {a[i * 8 + k], a[i * 8 + k]};
            acc0 += av * bv[k * 4 + 0];
            acc1 += av * bv[k * 4 + 1];
            acc2 += av * bv[k * 4 + 2];
            acc3 += av * bv[k * 4 + 3];
        }
        ov[i * 4 + 0] = acc0;
        ov[i * 4 + 1] = acc1;
        ov[i * 4 + 2] = acc2;
        ov[i * 4 + 3] = acc3;
    }
}

/* clip(rint(v), 0, 255) as a byte, rint() rounding half to even like
 * np.rint: for |v| < 2^51 the sum v + 1.5 * 2^52 lies where doubles
 * are the integers, so the addition itself rounds v to the nearest
 * integer, ties to even (the constant is even), and the subtraction is
 * exact.  Branch-free, so a row of these vectorises. */
static inline uint8_t round_u8(double v)
{
    v = (v + 6755399441055744.0) - 6755399441055744.0;
    v = v > 255.0 ? 255.0 : v;
    v = v < 0.0 ? 0.0 : v;
    return (uint8_t)v;
}

/* ------------------------------------------------------------------ */
/* Motion search (one block; called by the tile driver).               */
/*                                                                     */
/* Replicates repro.motion's SearchContext + CrossSearch /             */
/* OneAtATimeSearch / HexagonSearch evaluation-for-evaluation: the     */
/* same candidates in the same order, the same strict-< tie-breaks,    */
/* the same cost cache semantics (revisited candidates are free and    */
/* never recounted), the same INFEASIBLE = +inf convention and the     */
/* same cost arithmetic ((double)sad + lam * (double)(|dx| + |dy|)).   */
/* The cost cache is an epoch-stamped table supplied by the caller     */
/* (thread-local in Python), covering displacements in [-MS_H, MS_H]   */
/* per axis; the Python wrapper only engages the tile driver when the  */
/* window and seeds fit the table.                                     */
/* ------------------------------------------------------------------ */

#define MS_H 160
#define MS_DIM (2 * MS_H + 1)

typedef struct {
    const uint8_t *ref;
    ptrdiff_t rstride;
    const uint8_t *cur;
    ptrdiff_t cstride;
    int bh, bw;
    int64_t bx, by;
    int64_t ref_w, ref_h;
    int window;
    double lambda;
    double *costs;
    int64_t *stamps;
    int64_t epoch;
    int64_t evals;
} MSearch;

static double ms_eval(MSearch *s, int64_t dx, int64_t dy)
{
    size_t idx = (size_t)(dy + MS_H) * MS_DIM + (size_t)(dx + MS_H);
    if (s->stamps[idx] == s->epoch)
        return s->costs[idx];
    double cost;
    int64_t rx = s->bx + dx, ry = s->by + dy;
    if (dx < -s->window || dx > s->window || dy < -s->window || dy > s->window
        || rx < 0 || ry < 0 || rx + s->bw > s->ref_w || ry + s->bh > s->ref_h) {
        cost = INFINITY;
    } else {
        int64_t sad = sad_win_u8(s->ref + ry * s->rstride + rx, s->rstride,
                                 s->cur, s->cstride, s->bh, s->bw);
        int64_t adx = dx < 0 ? -dx : dx, ady = dy < 0 ? -dy : dy;
        cost = (double)sad + s->lambda * (double)(adx + ady);
        s->evals++;
    }
    s->stamps[idx] = s->epoch;
    s->costs[idx] = cost;
    return cost;
}

/* evaluate_many: best of the candidate list, ties toward the earlier
 * candidate; all-infeasible falls back to the zero vector. */
static double ms_eval_many(MSearch *s, const int64_t (*cands)[2], int n,
                           int64_t *bdx, int64_t *bdy)
{
    double best = INFINITY;
    int found = 0;
    for (int i = 0; i < n; i++) {
        double c = ms_eval(s, cands[i][0], cands[i][1]);
        if (c < best) {
            best = c;
            *bdx = cands[i][0];
            *bdy = cands[i][1];
            found = 1;
        }
    }
    if (!found) {
        *bdx = 0;
        *bdy = 0;
        best = ms_eval(s, 0, 0);
    }
    return best;
}

/* OneAtATimeSearch._walk: step +-1 along one axis while improving. */
static double ms_ota_walk(MSearch *s, int64_t *bdx, int64_t *bdy,
                          double best, int axis_y)
{
    int64_t sx = axis_y ? 0 : 1, sy = axis_y ? 1 : 0;
    double plus = ms_eval(s, *bdx + sx, *bdy + sy);
    double minus = ms_eval(s, *bdx - sx, *bdy - sy);
    if (plus >= best && minus >= best)
        return best;
    int64_t dir = plus < minus ? 1 : -1;
    double ahead = plus < minus ? plus : minus;
    while (ahead < best) {
        best = ahead;
        *bdx += dir * sx;
        *bdy += dir * sy;
        ahead = ms_eval(s, *bdx + dir * sx, *bdy + dir * sy);
    }
    return best;
}

static const int64_t HEX_H[6][2] = {
    {-2, 0}, {2, 0}, {-1, -2}, {1, -2}, {-1, 2}, {1, 2}};
static const int64_t HEX_V[6][2] = {
    {0, -2}, {0, 2}, {-2, -1}, {-2, 1}, {2, -1}, {2, 1}};
static const int64_t SMALL_CROSS[4][2] = {{0, -1}, {-1, 0}, {1, 0}, {0, 1}};
static const int64_t DIAG[4][2] = {{-1, -1}, {1, -1}, {-1, 1}, {1, 1}};
static const int64_t DIAG_PLUS[8][2] = {
    {-1, -1}, {1, -1}, {-1, 1}, {1, 1}, {0, -1}, {-1, 0}, {1, 0}, {0, 1}};

/* alg: 0 = cross, 1 = one-at-a-time (param: 0 x-first, 1 y-first),
 * 2 = hexagon (param: 0 horizontal, 1 vertical, 2 rotating).
 * seeds: AMVP-style candidates probed before the pattern search (the
 * policy passes (0,0) / left MV / learned predictor; the plain path
 * passes (0,0) / start).  out_i = {best_dx, best_dy, new_evals,
 * best_sad}; out_cost[0] = rate-penalized best cost. */
static void motion_search_u8(const uint8_t *ref, int64_t rstride,
                      int64_t ref_h, int64_t ref_w,
                      const uint8_t *cur, int64_t cstride,
                      int bh, int bw, int64_t bx, int64_t by,
                      int window, double lambda, int alg, int param,
                      const int64_t *seed_dx, const int64_t *seed_dy,
                      int n_seeds,
                      double *cache_costs, int64_t *cache_stamps,
                      int64_t *epoch_io,
                      int64_t *out_i, double *out_cost)
{
    MSearch s;
    s.ref = ref;
    s.rstride = rstride;
    s.cur = cur;
    s.cstride = cstride;
    s.bh = bh;
    s.bw = bw;
    s.bx = bx;
    s.by = by;
    s.ref_w = ref_w;
    s.ref_h = ref_h;
    s.window = window;
    s.lambda = lambda;
    s.costs = cache_costs;
    s.stamps = cache_stamps;
    s.epoch = ++(*epoch_io);
    s.evals = 0;

    int64_t cands[8][2];
    int64_t sdx = 0, sdy = 0;
    for (int i = 0; i < n_seeds && i < 8; i++) {
        cands[i][0] = seed_dx[i];
        cands[i][1] = seed_dy[i];
    }
    ms_eval_many(&s, (const int64_t(*)[2])cands, n_seeds, &sdx, &sdy);

    /* MotionSearch._start: best of the zero vector and the seed-best
     * (all cached at this point, so it costs no new evaluations). */
    int64_t bdx = 0, bdy = 0;
    cands[0][0] = 0;
    cands[0][1] = 0;
    cands[1][0] = sdx;
    cands[1][1] = sdy;
    double best = ms_eval_many(&s, (const int64_t(*)[2])cands, 2, &bdx, &bdy);

    if (alg == 0) { /* CrossSearch */
        int64_t step = window / 2;
        if (step < 1)
            step = 1;
        while (step > 1) {
            for (int i = 0; i < 4; i++) {
                cands[i][0] = bdx + DIAG[i][0] * step;
                cands[i][1] = bdy + DIAG[i][1] * step;
            }
            int64_t mdx = 0, mdy = 0;
            double c = ms_eval_many(&s, (const int64_t(*)[2])cands, 4,
                                    &mdx, &mdy);
            if (c < best) {
                best = c;
                bdx = mdx;
                bdy = mdy;
            } else {
                step /= 2;
            }
        }
        for (int i = 0; i < 8; i++) {
            cands[i][0] = bdx + DIAG_PLUS[i][0];
            cands[i][1] = bdy + DIAG_PLUS[i][1];
        }
        int64_t mdx = 0, mdy = 0;
        double c = ms_eval_many(&s, (const int64_t(*)[2])cands, 8, &mdx, &mdy);
        if (c < best) {
            best = c;
            bdx = mdx;
            bdy = mdy;
        }
    } else if (alg == 1) { /* OneAtATimeSearch */
        best = ms_ota_walk(&s, &bdx, &bdy, best, param);
        best = ms_ota_walk(&s, &bdx, &bdy, best, !param);
    } else { /* HexagonSearch */
        for (int it = 0; it < 256; it++) {
            const int64_t(*pat)[2] =
                param == 0 ? HEX_H
                : param == 1 ? HEX_V
                : (it % 2 == 0 ? HEX_H : HEX_V);
            for (int i = 0; i < 6; i++) {
                cands[i][0] = bdx + pat[i][0];
                cands[i][1] = bdy + pat[i][1];
            }
            int64_t mdx = 0, mdy = 0;
            double c = ms_eval_many(&s, (const int64_t(*)[2])cands, 6,
                                    &mdx, &mdy);
            if (c < best) {
                best = c;
                bdx = mdx;
                bdy = mdy;
            } else {
                break;
            }
        }
        for (int i = 0; i < 4; i++) {
            cands[i][0] = bdx + SMALL_CROSS[i][0];
            cands[i][1] = bdy + SMALL_CROSS[i][1];
        }
        int64_t mdx = 0, mdy = 0;
        double c = ms_eval_many(&s, (const int64_t(*)[2])cands, 4, &mdx, &mdy);
        if (c < best) {
            best = c;
            bdx = mdx;
            bdy = mdy;
        }
    }

    /* The best MV is always feasible (or the zero vector of an
     * in-frame block), so this SAD re-read never leaves the plane. */
    int64_t best_sad = -1;
    int64_t rx = bx + bdx, ry = by + bdy;
    if (rx >= 0 && ry >= 0 && rx + bw <= ref_w && ry + bh <= ref_h)
        best_sad = sad_win_u8(ref + ry * rstride + rx, rstride,
                              cur, cstride, bh, bw);
    out_i[0] = bdx;
    out_i[1] = bdy;
    out_i[2] = s.evals;
    out_i[3] = best_sad;
    out_cost[0] = best;
}

/* ------------------------------------------------------------------ */
/* Bit emission.                                                       */
/* ------------------------------------------------------------------ */

/* MSB-first bit accumulator over a caller-supplied byte buffer. */
typedef struct {
    uint8_t *buf;
    int64_t cap;     /* bytes */
    int64_t nbytes;  /* complete bytes flushed */
    uint64_t acc;
    int nbits;       /* bits pending in acc, < 8 after flush */
    int overflow;
} BitSink;

static inline void bs_put(BitSink *b, uint64_t val, int n)
{
    b->acc = (b->acc << n) | val;
    b->nbits += n;
    while (b->nbits >= 8) {
        if (b->nbytes >= b->cap) {
            b->overflow = 1;
            b->nbits = 0;
            return;
        }
        b->nbits -= 8;
        b->buf[b->nbytes++] = (uint8_t)(b->acc >> b->nbits);
    }
}

static inline void bs_put_ue(BitSink *b, int64_t value)
{
    uint64_t code = (uint64_t)value + 1;
    int bl = 64 - __builtin_clzll(code);
    if (bl > 1)
        bs_put(b, 0, bl - 1);
    bs_put(b, code, bl);
}

static inline void bs_put_se(BitSink *b, int64_t value)
{
    bs_put_ue(b, value > 0 ? 2 * value - 1 : -2 * value);
}

/* Total bits written so far (before padding), or -1 on overflow. */
static inline int64_t bs_bits(const BitSink *b)
{
    return b->overflow ? -1 : b->nbytes * 8 + b->nbits;
}

/* Pad the trailing partial byte with zeros (the caller splices exactly
 * bs_bits() bits, so the padding never reaches the stream). */
static inline void bs_flush(BitSink *b)
{
    if (b->nbits > 0 && !b->overflow) {
        if (b->nbytes >= b->cap)
            b->overflow = 1;
        else
            b->buf[b->nbytes] = (uint8_t)(b->acc << (8 - b->nbits));
    }
}

/* ------------------------------------------------------------------ */
/* Block kernels: read the current block straight from the uint8      */
/* frame plane (the u8 -> double conversion is exact).  Static        */
/* building blocks of the tile driver below.                          */
/* ------------------------------------------------------------------ */

/* The intra candidate's prediction: integer-valued ones as bytes (u8
 * with row pitch u8_stride — 0 repeats one row down the block), the
 * others as doubles (d, block-width pitch) with u8 == NULL. */
typedef struct {
    const uint8_t *u8;
    int64_t u8_stride;
    uint8_t top[64], flat[64], rows[64 * 64];
    double d[64 * 64];
} IntraPred;

/* Intra mode decision for one coding block, driven by what can still
 * change the decision.
 *
 * The definition (repro.codec.intra.choose_mode) takes the raster-order
 * float SAD of the DC / planar / horizontal / vertical predictions and
 * picks the smallest (strict <, ties toward the lower mode index, DC
 * first); the block is then inter coded when inter_cost <= that SAD.
 * The same mode and the same decision are reached with less arithmetic:
 *
 *  - horizontal and vertical predict integers, so their SADs are exact
 *    integer sums in any order (sad_win_u8 against the prediction);
 *  - with a power-of-two neighbour count n (16, 32, ...: every full
 *    block) the DC value total/n and every |x - dc| = |n*x - total| / n
 *    are multiples of 1/n far below 2^53: the float chain is exact and
 *    equals sum|n*x - total| / n.  With total = n*q + rem, 0 <= rem < n,
 *    no sample lies strictly between q and q + 1, so |n*x - total| is
 *    (n - rem) * |x - q| + rem * |x - (q + 1)| for every x: two byte
 *    SADs against a constant (one when the DC value is an integer).
 *    Other counts (the 16x8 remainder blocks of a 480x360 rung: n = 24)
 *    keep the serial float chain;
 *  - planar wins only when s_pl < s_dc, s_pl <= min(s_h, s_v) and —
 *    should the inter candidate beat the other three — s_pl <
 *    inter_cost.  Its float chain runs in the definition's order, row
 *    by row, and is abandoned at the first row whose partial sum
 *    breaks one of those bounds: a sum of non-negative terms never
 *    decreases, so the final sum would break it too.
 *
 * Returns the winning mode {0=DC, 1=planar, 2=horizontal, 3=vertical}
 * with its prediction (the values repro.codec.intra.predict builds) in
 * out, or -1 when inter_cost is <= every intra SAD: the block is inter
 * coded and no prediction is built.  I frames pass inter_cost =
 * INFINITY.
 *
 * Reference samples come from the recon plane; availability follows
 * repro.codec.intra.reference_samples: the top row exists when
 * by - 1 >= tile_y, the left column when bx - 1 >= tile_x (tile
 * boundaries break prediction), and the neutral sample 128 substitutes
 * for a missing one.
 */
static int choose_intra_plane_u8(const uint8_t *cur, int64_t cstride,
                                 const uint8_t *recon, int64_t rstride,
                                 int bh, int bw, int64_t bx, int64_t by,
                                 int64_t tile_x, int64_t tile_y,
                                 double inter_cost, IntraPred *out)
{
    uint8_t left[64];
    int total = 0, n = 0;
    memset(out->top, 128, sizeof out->top);
    memset(left, 128, sizeof left);
    if (by - 1 >= tile_y) {
        const uint8_t *row = recon + (by - 1) * rstride + bx;
        for (int c = 0; c < bw; c++) {
            out->top[c] = row[c];
            total += row[c];
        }
        n += bw;
    }
    if (bx - 1 >= tile_x) {
        const uint8_t *col = recon + by * rstride + (bx - 1);
        for (int r = 0; r < bh; r++) {
            left[r] = col[(ptrdiff_t)r * rstride];
            total += left[r];
        }
        n += bh;
    }
    if (n == 0) { /* no neighbour: the neutral sample, an integer */
        total = 128;
        n = 1;
    }
    double dc = (double)total / (double)n;
    int q = total / n, rem = total % n;
    memset(out->flat, q, sizeof out->flat);
    for (int r = 0; r < bh; r++) { /* bw is a multiple of 8 */
        uint64_t lv8 = left[r] * UINT64_C(0x0101010101010101);
        for (int c = 0; c < bw; c += 8)
            memcpy(out->rows + (ptrdiff_t)r * bw + c, &lv8, 8);
    }

    double s_h = (double)sad_win_u8(out->rows, bw, cur, cstride, bh, bw);
    double s_v = (double)sad_win_u8(out->top, 0, cur, cstride, bh, bw);
    double s_dc = 0.0;
    if ((n & (n - 1)) == 0) {
        int64_t sum =
            (n - rem) * sad_win_u8(out->flat, 0, cur, cstride, bh, bw);
        if (rem) {
            memset(out->flat, q + 1, sizeof out->flat);
            sum += rem * sad_win_u8(out->flat, 0, cur, cstride, bh, bw);
        }
        s_dc = (double)sum / (double)n;
    } else {
        for (int r = 0; r < bh; r++) {
            const uint8_t *cr = cur + (ptrdiff_t)r * cstride;
            for (int c = 0; c < bw; c++)
                s_dc += fabs((double)cr[c] - dc);
        }
    }
    int best = 0;
    double best_sad = s_dc;
    if (s_h < best_sad) {
        best = 2;
        best_sad = s_h;
    }
    if (s_v < best_sad) {
        best = 3;
        best_sad = s_v;
    }

    /* Planar, while it can still matter. */
    double below = s_dc < inter_cost ? s_dc : inter_cost; /* s_pl <  */
    double upto = s_h < s_v ? s_h : s_v;                  /* s_pl <= */
    if (0.0 < below) {
        double one_wx[64], tr_wx[64];
        double tr = (double)out->top[bw - 1], bl = (double)left[bh - 1];
        for (int c = 0; c < bw; c++) {
            double wx = (double)(c + 1) / (double)(bw + 1);
            one_wx[c] = 1.0 - wx;
            tr_wx[c] = tr * wx;
        }
        double s_pl = 0.0;
        int r = 0;
        for (; r < bh; r++) {
            const uint8_t *cr = cur + (ptrdiff_t)r * cstride;
            double *pr = out->d + (ptrdiff_t)r * bw;
            double lv = (double)left[r];
            double wy = (double)(r + 1) / (double)(bh + 1);
            double one_wy = 1.0 - wy, bl_wy = bl * wy;
            for (int c = 0; c < bw; c++) {
                double horiz = lv * one_wx[c] + tr_wx[c];
                double vert = (double)out->top[c] * one_wy + bl_wy;
                pr[c] = (horiz + vert) / 2.0;
            }
            for (int c = 0; c < bw; c++)
                s_pl += fabs((double)cr[c] - pr[c]);
            if (s_pl >= below || s_pl > upto)
                break;
        }
        if (r == bh) { /* every bound held to the last row: planar wins */
            out->u8 = NULL;
            return 1;
        }
    }
    if (inter_cost <= best_sad)
        return -1;
    out->u8 = best == 2 ? out->rows : best == 3 ? out->top : out->flat;
    out->u8_stride = best == 2 ? bw : 0;
    if (best == 0 && rem) { /* the one non-integer prediction besides planar */
        out->u8 = NULL;
        for (ptrdiff_t k = 0; k < (ptrdiff_t)bh * bw; k++)
            out->d[k] = dc;
    }
    return best;
}

/* Fused residual coding of one (h, w) block, per 8x8 sub-block in
 * blockify order: residual -> zero skip (a sub-block whose residual
 * SAD is below 3 * step provably quantizes to all zeros and is not
 * counted as transformed) -> zero proof -> DCT (basis @ R @ basis^T)
 * -> dead-zone quantization -> zigzag run-length syntax ->
 * reconstruction written straight into the recon plane -> SSD against
 * the current block.  Each result is reached by the cheapest
 * arithmetic that is provably the same number:
 *
 *  - zero proof: the 8x8 basis is orthonormal, so no coefficient
 *    exceeds the residual's 2-norm, and a level is non-zero only from
 *    |coef| >= 0.75 * step; a sub-block with sum(res^2) < 0.54 * step^2
 *    (0.735^2: the gap to 0.75 swallows any float error) counts as
 *    transformed, emits the same ue(0) and skips the DCT;
 *  - a uint8 prediction (predu, row pitch pustride bytes: the
 *    reference window of an inter block, or an integer-valued intra
 *    prediction) makes the residual integer: SAD and sum of squares
 *    are integer sums, exact in any order, and an all-zero sub-block
 *    reconstructs to the prediction itself — eight row copies, with
 *    the sum of squares as its SSD.  With predu == NULL the prediction
 *    is float64 (predd, row pitch pdstride doubles: planar, or a DC
 *    value that is not an integer) and the SAD is the definition's
 *    raster-order float sum;
 *  - quantizer: |c| < 0.5 * step gives floor(|c| / step + 0.25) = 0,
 *    so a coefficient row that stays below it is zero without one
 *    division; otherwise the same division, truncated (the argument
 *    is >= 0, where truncation is floor);
 *  - inverse DCT: coefficient rows and columns whose levels are all
 *    zero are left out of the sums (mat8_mul).
 *
 * basis is the orthonormal 8x8 DCT-II matrix (row-major), basis_t its
 * transpose, zz_order maps scan position -> row-major index.  The
 * residual syntax is emitted into sink when it is not NULL.  Returns
 * the residual bit count; active_out / ssd_out accumulate the
 * transformed sub-blocks and the block SSD (integer squares).
 */
static int64_t encode_block_plane(const uint8_t *cur, int64_t cstride,
                                  const double *predd, int64_t pdstride,
                                  const uint8_t *predu, int64_t pustride,
                                  int h, int w, double step,
                                  const double *basis, const double *basis_t,
                                  const int32_t *zz_order,
                                  uint8_t *recon_out, int64_t recon_stride,
                                  BitSink *sink,
                                  int64_t *active_out, int64_t *ssd_out)
{
    const double skip_below = 3.0 * step, zero_below = 0.54 * step * step;
    const double half_step = 0.5 * step;
    int rows = h / 8, cols = w / 8;
    double res[64], tmp[64], coef[64], pred8[64];
    int32_t levels[64];
    int64_t bits = 0, active = 0, ssd = 0;
    for (int rb = 0; rb < rows; rb++) {
        for (int cb = 0; cb < cols; cb++) {
            const uint8_t *csub = cur + (ptrdiff_t)rb * 8 * cstride + cb * 8;
            const uint8_t *psub = predu
                ? predu + (ptrdiff_t)rb * 8 * pustride + cb * 8 : NULL;
            uint8_t *osub = recon_out
                + (ptrdiff_t)rb * 8 * recon_stride + cb * 8;
            int sq = 0; /* integer residual: sum of squares */
            int skip, zero;
            if (psub) {
                int sad = 0;
                for (int r = 0; r < 8; r++) {
                    const uint8_t *crow = csub + (ptrdiff_t)r * cstride;
                    const uint8_t *prow = psub + (ptrdiff_t)r * pustride;
                    for (int c = 0; c < 8; c++) {
                        int d = (int)crow[c] - (int)prow[c];
                        sad += abs(d);
                        sq += d * d;
                    }
                }
                skip = (double)sad < skip_below;
                zero = skip || (double)sq < zero_below;
            } else {
                const double *pd =
                    predd + (ptrdiff_t)rb * 8 * pdstride + cb * 8;
                double sad = 0.0, ssq = 0.0;
                for (int r = 0; r < 8; r++) {
                    const uint8_t *crow = csub + (ptrdiff_t)r * cstride;
                    for (int c = 0; c < 8; c++) {
                        double p = pd[(ptrdiff_t)r * pdstride + c];
                        double d = (double)crow[c] - p;
                        pred8[r * 8 + c] = p;
                        res[r * 8 + c] = d;
                        sad += fabs(d);
                        ssq += d * d;
                    }
                }
                skip = sad < skip_below;
                zero = skip || ssq < zero_below;
            }
            active += !skip;
            unsigned rowmask = 0, colmask = 0;
            if (!zero) {
                if (psub)
                    for (int r = 0; r < 8; r++) {
                        const uint8_t *crow = csub + (ptrdiff_t)r * cstride;
                        const uint8_t *prow = psub + (ptrdiff_t)r * pustride;
                        for (int c = 0; c < 8; c++) {
                            pred8[r * 8 + c] = (double)prow[c];
                            res[r * 8 + c] =
                                (double)((int)crow[c] - (int)prow[c]);
                        }
                    }
                mat8_mul(basis, res, tmp, 0xff);
                mat8_mul(tmp, basis_t, coef, 0xff);
                for (int r = 0; r < 8; r++) {
                    const double *crow = coef + r * 8;
                    int32_t *lrow = levels + r * 8;
                    int any = 0;
                    for (int c = 0; c < 8; c++)
                        any |= fabs(crow[c]) >= half_step;
                    if (!any) { /* the whole row rounds to zero */
                        memset(lrow, 0, 8 * sizeof *lrow);
                        continue;
                    }
                    for (int c = 0; c < 8; c++) {
                        int32_t lv = (int32_t)(fabs(crow[c]) / step + 0.25);
                        lrow[c] = crow[c] < 0.0 ? -lv : lv;
                    }
                    unsigned nz = 0;
                    for (int c = 0; c < 8; c++)
                        nz |= (unsigned)(lrow[c] != 0) << c;
                    colmask |= nz;
                    rowmask |= (unsigned)(nz != 0) << r;
                }
                zero = !rowmask;
            }
            if (zero) {
                /* All levels zero: ue(0), reconstruction = rint(pred). */
                bits += 1;
                if (sink)
                    bs_put_ue(sink, 0);
                for (int r = 0; r < 8; r++) {
                    const uint8_t *crow = csub + (ptrdiff_t)r * cstride;
                    uint8_t *orow = osub + (ptrdiff_t)r * recon_stride;
                    if (psub) { /* sq is already the SSD */
                        memcpy(orow, psub + (ptrdiff_t)r * pustride, 8);
                    } else {
                        for (int c = 0; c < 8; c++) {
                            orow[c] = round_u8(pred8[r * 8 + c]);
                            int d = (int)crow[c] - (int)orow[c];
                            sq += d * d;
                        }
                    }
                }
                ssd += sq;
                continue;
            }
            /* Zigzag run-length syntax: the scan positions of the
             * non-zero levels as a bit set (not empty here). */
            uint64_t scan = 0;
            for (int s2 = 0; s2 < 64; s2++)
                scan |= (uint64_t)(levels[zz_order[s2]] != 0) << s2;
            int last = 63 - __builtin_clzll(scan);
            bits += ue_bits((int64_t)last + 1);
            if (sink)
                bs_put_ue(sink, (int64_t)last + 1);
            for (int prev = -1; scan; scan &= scan - 1) {
                int s2 = __builtin_ctzll(scan);
                int32_t lv = levels[zz_order[s2]];
                bits += ue_bits((int64_t)(s2 - prev - 1));
                bits += se_bits((int64_t)lv);
                if (sink) {
                    bs_put_ue(sink, (int64_t)(s2 - prev - 1));
                    bs_put_se(sink, (int64_t)lv);
                }
                prev = s2;
            }
            /* Dequantize (level * step), inverse DCT (basis^T @ X @
             * basis) and rint(pred + residual), bounded to [0, 255]:
             * repro.codec.encoder.reconstruct_block. */
            for (int k = 0; k < 64; k++)
                coef[k] = (double)levels[k] * step;
            mat8_mul(basis_t, coef, tmp, rowmask);
            mat8_mul(tmp, basis, res, colmask);
            sq = 0;
            for (int r = 0; r < 8; r++) {
                const uint8_t *crow = csub + (ptrdiff_t)r * cstride;
                uint8_t *orow = osub + (ptrdiff_t)r * recon_stride;
                for (int c = 0; c < 8; c++) {
                    orow[c] = round_u8(res[r * 8 + c] + pred8[r * 8 + c]);
                    int d = (int)crow[c] - (int)orow[c];
                    sq += d * d;
                }
            }
            ssd += sq;
        }
    }
    *active_out += active;
    *ssd_out += ssd;
    return bits;
}

/* ------------------------------------------------------------------ */
/* Tile driver: the whole block raster of one tile.                    */
/*                                                                     */
/* Replicates TileEncoder's block loop (repro.codec.encoder) for I/P   */
/* tiles at integer-pel precision: seeded motion search, intra choice  */
/* (after the search — its outcome does not depend on the order, and   */
/* the inter cost bounds how much of it must be computed), inter-vs-   */
/* intra decision with the exp-Golomb MVD rate, fused residual +       */
/* reconstruction into the recon plane, header and residual bit        */
/* emission, the op counters and — on a GOP's first P frame — the      */
/* proposed policy's learning (the temporal predictor follows every    */
/* block's MV; the first non-zero MV votes the dominant axis).  The op */
/* counters describe the modelled encoder, not the instructions run    */
/* here: an abandoned planar chain is still four mode trials, a        */
/* sub-block proven zero is still a transformed one.  Everything the   */
/* driver touches is either read-only (cur, ref), private to the tile  */
/* (its recon region) or owned by the calling thread (cost cache, bit  */
/* buffer, outputs).                                                   */
/*                                                                     */
/* Contract (checked by the Python wrapper): tile_w and tile_h are     */
/* multiples of 8, bs is a multiple of 8 and <= 64, the tile lies      */
/* inside cur/recon, and ref (NULL on I frames) has the shape of cur — */
/* so the zero vector is always feasible and the search's best MV      */
/* never needs clamping.                                               */
/*                                                                     */
/* seeds: (0,0), the left neighbour's MV and, when use_pred, the       */
/* temporal predictor (pred_dx, pred_dy).                              */
/* out_i = {bits, pred_pixels, sad_pixel_ops, me_candidates,           */
/* transform_blocks, emitted_bits (-1: bits_buf too small), first_axis */
/* (0 none, 1 x, 2 y), final_dx, final_dy}; out_d = {ssd, motion_s,    */
/* entropy_s} (stage seconds are only clocked when measure is set:     */
/* motion_s brackets the search; entropy_s brackets the header bits    */
/* and encode_block_plane — residual, zero tests, DCT, quantization,   */
/* run-length syntax, reconstruction and SSD, i.e. everything after    */
/* the mode decision, of which bit writing is a part only when         */
/* bits_buf is given; the intra choice is in neither).                 */
/* ------------------------------------------------------------------ */

static inline int64_t now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

static void encode_tile(const uint8_t *cur, int64_t cstride,
                        const uint8_t *ref, int64_t rstride,
                        int64_t ref_h, int64_t ref_w,
                        uint8_t *recon, int64_t ostride,
                        int64_t tile_x, int64_t tile_y,
                        int64_t tile_w, int64_t tile_h, int bs,
                        double step, double lambda,
                        const double *basis, const int32_t *zz_order,
                        int alg, int param, int window,
                        int use_pred, int learn,
                        int64_t pred_dx, int64_t pred_dy,
                        double *cache_costs, int64_t *cache_stamps,
                        int64_t *epoch_io,
                        uint8_t *bits_buf, int64_t bits_cap, int measure,
                        int64_t *out_i, double *out_d)
{
    IntraPred intra;
    double basis_t[64];
    BitSink sink = {bits_buf, bits_cap, 0, 0, 0, 0};
    BitSink *emit = bits_buf ? &sink : NULL;
    int not_i = ref != NULL;
    int64_t bits = 0, pp = 0, spx = 0, mec = 0, tb = 0, ssd = 0;
    int64_t t_motion = 0, t_entropy = 0, t0 = 0;
    int64_t first_axis = 0;
    int64_t x_end = tile_x + tile_w, y_end = tile_y + tile_h;
    for (int i = 0; i < 8; i++)
        for (int j = 0; j < 8; j++)
            basis_t[j * 8 + i] = basis[i * 8 + j];

    for (int64_t by = tile_y; by < y_end; by += bs) {
        int bh = (int)(y_end - by < bs ? y_end - by : bs);
        int64_t left_dx = 0, left_dy = 0; /* MV prediction restarts per row */
        for (int64_t bx = tile_x; bx < x_end; bx += bs) {
            int bw = (int)(x_end - bx < bs ? x_end - bx : bs);
            int64_t area = (int64_t)bw * bh;
            const uint8_t *blk = cur + by * cstride + bx;

            /* The inter candidate first: its cost bounds how much of
             * the intra decision has to be computed. */
            int64_t mvx = 0, mvy = 0, rate = 0;
            double inter_cost = INFINITY;
            if (not_i) {
                if (measure)
                    t0 = now_ns();
                int64_t sdx[3] = {0, left_dx, pred_dx};
                int64_t sdy[3] = {0, left_dy, pred_dy};
                int64_t found[4];
                double cost;
                motion_search_u8(ref, rstride, ref_h, ref_w, blk, cstride,
                                 bh, bw, bx, by, window, lambda, alg, param,
                                 sdx, sdy, use_pred ? 3 : 2,
                                 cache_costs, cache_stamps, epoch_io,
                                 found, &cost);
                mvx = found[0];
                mvy = found[1];
                if (learn) {
                    pred_dx = mvx;
                    pred_dy = mvy;
                    if (!first_axis && (mvx || mvy)) {
                        int64_t ax = mvx < 0 ? -mvx : mvx;
                        int64_t ay = mvy < 0 ? -mvy : mvy;
                        first_axis = ax >= ay ? 1 : 2;
                    }
                }
                spx += found[2] * area;
                mec += found[2];
                pp += area; /* motion-compensated prediction fetch */
                rate = se_bits(mvx - left_dx) + se_bits(mvy - left_dy);
                inter_cost = (double)found[3] + lambda * (double)rate;
                if (measure)
                    t_motion += now_ns() - t0;
            }

            int mode = choose_intra_plane_u8(blk, cstride, recon, ostride,
                                             bh, bw, bx, by, tile_x, tile_y,
                                             inter_cost, &intra);
            int use_inter = mode < 0;
            pp += 4 * area; /* four intra mode trials */

            if (measure)
                t0 = now_ns();
            if (emit) {
                if (not_i)
                    bs_put(emit, use_inter ? 0 : 1, 1);
                if (use_inter) {
                    bs_put_se(emit, mvx - left_dx);
                    bs_put_se(emit, mvy - left_dy);
                } else {
                    bs_put(emit, (uint64_t)mode, 2);
                }
            }
            bits += not_i + (use_inter ? rate : 2);
            bits += encode_block_plane(
                blk, cstride, intra.d, bw,
                use_inter ? ref + (by + mvy) * rstride + (bx + mvx) : intra.u8,
                use_inter ? rstride : intra.u8_stride,
                bh, bw, step, basis, basis_t, zz_order,
                recon + by * ostride + bx, ostride, emit, &tb, &ssd);
            pp += area; /* reconstruction */
            if (measure)
                t_entropy += now_ns() - t0;

            if (use_inter) {
                left_dx = mvx;
                left_dy = mvy;
            }
        }
    }

    int64_t emitted = bits;
    if (emit) {
        emitted = bs_bits(emit);
        bs_flush(emit);
        if (sink.overflow)
            emitted = -1;
    }
    out_i[0] = bits;
    out_i[1] = pp;
    out_i[2] = spx;
    out_i[3] = mec;
    out_i[4] = tb;
    out_i[5] = emitted;
    out_i[6] = first_axis;
    out_i[7] = pred_dx;
    out_i[8] = pred_dy;
    out_d[0] = (double)ssd;
    out_d[1] = (double)t_motion * 1e-9;
    out_d[2] = (double)t_entropy * 1e-9;
}

/* ------------------------------------------------------------------ */
/* Frame entry: every tile of one frame in one foreign call.           */
/*                                                                     */
/* A row of the tile table is the argument list of encode_tile — the   */
/* integers in rows_i (ROW_I per tile: x, y, w, h, bs, alg, param,     */
/* window, use_pred, learn, pred_dx, pred_dy, then where the tile's    */
/* bits go: byte offset and capacity inside bits_buf), step and lambda */
/* in rows_d — and the tiles run in table order through that one body, */
/* so a frame encoded here is the frame encoded by one call per tile:  */
/* tiles share nothing but the read-only planes and the calling        */
/* thread's cost cache, whose epoch advances per block exactly as it   */
/* did across calls.  Row t of out_i / out_d is the tile's out_i /     */
/* out_d above, out_d with a fourth column: the tile's wall seconds    */
/* (clocked, like the stage seconds, only when measure is set).        */
/* ctypes releases the GIL for the whole frame, so frames of different */
/* sessions run on different cores.  Keep ROW_I / ROW_D / OUT_I /      */
/* OUT_D in step with repro.native.                                    */
/* ------------------------------------------------------------------ */

#define ROW_I 14
#define ROW_D 2
#define OUT_I 9
#define OUT_D 4

void encode_frame_u8(const uint8_t *cur, int64_t cstride,
                     const uint8_t *ref, int64_t rstride,
                     int64_t ref_h, int64_t ref_w,
                     uint8_t *recon, int64_t ostride,
                     int64_t n_tiles,
                     const int64_t *rows_i, const double *rows_d,
                     const double *basis, const int32_t *zz_order,
                     double *cache_costs, int64_t *cache_stamps,
                     int64_t *epoch_io,
                     uint8_t *bits_buf, int measure,
                     int64_t *out_i, double *out_d)
{
    for (int64_t t = 0; t < n_tiles; t++) {
        const int64_t *ri = rows_i + t * ROW_I;
        const double *rd = rows_d + t * ROW_D;
        double *od = out_d + t * OUT_D;
        int64_t t0 = measure ? now_ns() : 0;
        encode_tile(cur, cstride, ref, rstride, ref_h, ref_w, recon, ostride,
                    ri[0], ri[1], ri[2], ri[3], (int)ri[4], rd[0], rd[1],
                    basis, zz_order, (int)ri[5], (int)ri[6], (int)ri[7],
                    (int)ri[8], (int)ri[9], ri[10], ri[11],
                    cache_costs, cache_stamps, epoch_io,
                    bits_buf ? bits_buf + ri[12] : NULL, ri[13], measure,
                    out_i + t * OUT_I, od);
        od[3] = measure ? (double)(now_ns() - t0) * 1e-9 : 0.0;
    }
}

/* ------------------------------------------------------------------ */
/* Content analysis: the re-tiler's block statistics and its two       */
/* questions (Eq. 1 texture, Eq. 2 motion probe), the native twin of   */
/* repro.analysis.frame_analysis.FrameAnalysis.                        */
/*                                                                     */
/* build: one pass over the plane leaves, per block x block cell, the  */
/* sums of x and x*x as int64 summed-area tables ((rows + 1) x         */
/* (cols + 1), entry [i][j] sums cells [:i][:j]) and the cell's        */
/* maximum packed with the frame raster index of its first             */
/* occurrence, max * size + (size - 1 - raster): the largest key over  */
/* a union of cells names the union's first row-major maximum.  All    */
/* of it is integer arithmetic, exact in any order, so the tables are  */
/* the oracle's tables whatever order the lanes add in.                */
/*                                                                     */
/* query: each (x, y, w, h) rectangle (multiples of block, inside the  */
/* plane — checked here, before anything is read) gets                 */
/*   CV    = sqrt((double)(n * S2 - S1 * S1)) / (double)S1, 0 when S1  */
/*           is 0: the integer under the root is exact (the wrapper's  */
/*           envelope keeps n * S2 <= n * n * 255^2 inside 63 bits),   */
/*           its conversion to double is the one correctly rounded     */
/*           conversion Python's math.sqrt(int) makes, and sqrt and /  */
/*           are IEEE operations;                                      */
/*   class = Eq. 1's ladder on mean = S1 / n and CV, dark regions LOW; */
/*   score = k_corner * (corner probes that differ) + k_centre *       */
/*           centre + k_max * max point (Eq. 2's alpha, beta, gamma),  */
/*           a probe comparing the means of the                        */
/*           (2r+1)^2 patch clipped to the rectangle in both planes as */
/*           the definition writes it, |Sa/n - Sb/n| > tol on float64  */
/*           quotients (the integer form |Sa - Sb| > tol * n is a      */
/*           different predicate when n is 6 or 9).                    */
/* Returns -1, or the index of the first rectangle that is off the     */
/* lattice or outside the plane (nothing is written for it or after).  */
/* ------------------------------------------------------------------ */

/* Σx, Σx² and the maximum of one block x block cell, with the
 * in-cell position of the maximum's first row-major occurrence. */
static void cell_stats_scalar(const uint8_t *cell, int64_t stride,
                              int64_t block, int64_t *s1, int64_t *s2,
                              int *max, int64_t *at_y, int64_t *at_x)
{
    int64_t a1 = 0, a2 = 0;
    int m = -1;
    for (int64_t y = 0; y < block; y++) {
        const uint8_t *q = cell + y * stride;
        /* block <= w < 2^16 (the wrapper's envelope): one row of a
         * cell sums inside 32 bits. */
        uint32_t s = 0, q2 = 0;
        for (int64_t i = 0; i < block; i++) {
            uint32_t v = q[i];
            s += v;
            q2 += v * v;
            /* Strictly greater: an equal sample later in the raster
             * is not the first. */
            if ((int)v > m) {
                m = (int)v;
                *at_y = y;
                *at_x = i;
            }
        }
        a1 += s;
        a2 += q2;
    }
    *s1 = a1;
    *s2 = a2;
    *max = m;
}

#if REPRO_X86
/* The same for a cell whose side is a multiple of 8 and at most 256:
 * psadbw sums the samples, pmaddwd their squares (a 32-bit lane takes
 * at most 4 * 255^2 per 16 samples, 2^12 times per cell: no overflow),
 * pmaxub the maximum; a second pass finds the first row holding it. */
static void cell_stats_sse2(const uint8_t *cell, int64_t stride,
                            int64_t block, int64_t *s1, int64_t *s2,
                            int *max, int64_t *at_y, int64_t *at_x)
{
    const __m128i zero = _mm_setzero_si128();
    int wide = block % 16 == 0;
    int64_t step = wide ? 16 : 8;
    __m128i vsum = zero, vsq = zero, vmax = zero;
    for (int64_t y = 0; y < block; y++) {
        const uint8_t *q = cell + y * stride;
        for (int64_t i = 0; i < block; i += step) {
            __m128i v = wide ? _mm_loadu_si128((const __m128i *)(q + i))
                             : _mm_loadl_epi64((const __m128i *)(q + i));
            __m128i lo = _mm_unpacklo_epi8(v, zero);
            __m128i hi = _mm_unpackhi_epi8(v, zero);
            vsum = _mm_add_epi64(vsum, _mm_sad_epu8(v, zero));
            vsq = _mm_add_epi32(vsq, _mm_add_epi32(_mm_madd_epi16(lo, lo),
                                                   _mm_madd_epi16(hi, hi)));
            vmax = _mm_max_epu8(vmax, v);
        }
    }
    uint32_t sq[4];
    _mm_storeu_si128((__m128i *)sq, vsq);
    *s1 = _mm_cvtsi128_si64(vsum)
        + _mm_cvtsi128_si64(_mm_unpackhi_epi64(vsum, vsum));
    *s2 = (int64_t)sq[0] + sq[1] + sq[2] + sq[3];
    vmax = _mm_max_epu8(vmax, _mm_srli_si128(vmax, 8));
    vmax = _mm_max_epu8(vmax, _mm_srli_si128(vmax, 4));
    vmax = _mm_max_epu8(vmax, _mm_srli_si128(vmax, 2));
    vmax = _mm_max_epu8(vmax, _mm_srli_si128(vmax, 1));
    int m = _mm_cvtsi128_si32(vmax) & 0xFF;
    *max = m;
    for (int64_t y = 0; y < block; y++) {
        const uint8_t *at = memchr(cell + y * stride, m, (size_t)block);
        if (at) {
            *at_y = y;
            *at_x = at - (cell + y * stride);
            return;
        }
    }
}
#endif /* REPRO_X86 */

static void analysis_build(const uint8_t *cur, int64_t stride,
                           int64_t h, int64_t w, int64_t block,
                           int64_t *sat1, int64_t *sat2, int64_t *peak)
{
    int64_t rows = h / block, cols = w / block, size = h * w;
    int64_t sw = cols + 1;
    for (int64_t j = 0; j < sw; j++)
        sat1[j] = sat2[j] = 0;
    for (int64_t r = 0; r < rows; r++) {
        int64_t *t1 = sat1 + (r + 1) * sw, *t2 = sat2 + (r + 1) * sw;
        int64_t run1 = 0, run2 = 0;
        t1[0] = t2[0] = 0;
        for (int64_t c = 0; c < cols; c++) {
            const uint8_t *cell = cur + r * block * stride + c * block;
            int64_t s1, s2, at_y = 0, at_x = 0;
            int m;
#if REPRO_X86
            if (block % 8 == 0 && block <= 256)
                cell_stats_sse2(cell, stride, block, &s1, &s2, &m,
                                &at_y, &at_x);
            else
#endif
                cell_stats_scalar(cell, stride, block, &s1, &s2, &m,
                                  &at_y, &at_x);
            run1 += s1;
            run2 += s2;
            t1[c + 1] = t1[c + 1 - sw] + run1;
            t2[c + 1] = t2[c + 1 - sw] + run2;
            int64_t raster = (r * block + at_y) * w + c * block + at_x;
            peak[r * cols + c] = (int64_t)m * size + (size - 1 - raster);
        }
    }
}

/* Whether the (2r+1)^2 patches around (py, px), clipped to the
 * rectangle, differ in their means between the two planes. */
static int probe_differs(const uint8_t *cur, int64_t cstride,
                         const uint8_t *prev, int64_t pstride,
                         int64_t py, int64_t px, int64_t radius,
                         int64_t x, int64_t y, int64_t rw, int64_t rh,
                         double tol)
{
    int64_t y0 = py - radius < y ? y : py - radius;
    int64_t y1 = py + radius > y + rh - 1 ? y + rh - 1 : py + radius;
    int64_t x0 = px - radius < x ? x : px - radius;
    int64_t x1 = px + radius > x + rw - 1 ? x + rw - 1 : px + radius;
    int64_t sa = 0, sb = 0;
    for (int64_t yy = y0; yy <= y1; yy++)
        for (int64_t xx = x0; xx <= x1; xx++) {
            sa += cur[yy * cstride + xx];
            sb += prev[yy * pstride + xx];
        }
    double n = (double)((y1 - y0 + 1) * (x1 - x0 + 1));
    return fabs((double)sa / n - (double)sb / n) > tol;
}

int64_t analyze_frame_u8(const uint8_t *cur, int64_t cstride,
                         const uint8_t *prev, int64_t pstride,
                         int64_t h, int64_t w, int64_t block,
                         int64_t *tables, int build,
                         const int64_t *rects, int64_t n_rects,
                         double low, double high, double dark_mean,
                         double k_corner, double k_centre, double k_max,
                         double tol, int64_t radius,
                         double *out_cv, double *out_score,
                         int64_t *out_class)
{
    int64_t rows = h / block, cols = w / block, size = h * w;
    int64_t sw = cols + 1;
    int64_t *sat1 = tables, *sat2 = sat1 + (rows + 1) * sw;
    int64_t *peak = sat2 + (rows + 1) * sw;
    if (build)
        analysis_build(cur, cstride, h, w, block, sat1, sat2, peak);
    for (int64_t k = 0; k < n_rects; k++) {
        int64_t x = rects[4 * k], y = rects[4 * k + 1];
        int64_t rw = rects[4 * k + 2], rh = rects[4 * k + 3];
        if (x < 0 || y < 0 || rw <= 0 || rh <= 0 || rw > w - x || rh > h - y
                || x % block || y % block || rw % block || rh % block)
            return k;
        int64_t cx0 = x / block, cy0 = y / block;
        int64_t cx1 = cx0 + rw / block, cy1 = cy0 + rh / block;
        int64_t s1 = sat1[cy1 * sw + cx1] - sat1[cy0 * sw + cx1]
                   - sat1[cy1 * sw + cx0] + sat1[cy0 * sw + cx0];
        int64_t s2 = sat2[cy1 * sw + cx1] - sat2[cy0 * sw + cx1]
                   - sat2[cy1 * sw + cx0] + sat2[cy0 * sw + cx0];
        int64_t n = rw * rh;
        double cv = s1 ? sqrt((double)(n * s2 - s1 * s1)) / (double)s1 : 0.0;
        double mean = (double)s1 / (double)n;
        out_class[k] = (mean < dark_mean || cv <= low) ? 0
                     : cv <= high ? 1 : 2;
        double score = 0.0;
        if (prev) {
            int64_t best = -1;
            for (int64_t cy = cy0; cy < cy1; cy++)
                for (int64_t cx = cx0; cx < cx1; cx++)
                    if (peak[cy * cols + cx] > best)
                        best = peak[cy * cols + cx];
            int64_t raster = size - 1 - best % size;
            const int64_t py[6] = {y, y, y + rh - 1, y + rh - 1,
                                   y + rh / 2, raster / w};
            const int64_t px[6] = {x, x + rw - 1, x, x + rw - 1,
                                   x + rw / 2, raster % w};
            int d[6];
            for (int p = 0; p < 6; p++)
                d[p] = probe_differs(cur, cstride, prev, pstride, py[p],
                                     px[p], radius, x, y, rw, rh, tol);
            score = k_corner * (double)(d[0] + d[1] + d[2] + d[3])
                  + k_centre * (double)d[4] + k_max * (double)d[5];
        }
        out_cv[k] = cv;
        out_score[k] = score;
    }
    return -1;
}

/* ------------------------------------------------------------------ */
/* Integer box downscale (rendition ladder).                           */
/*                                                                     */
/* Output pixel (i, j) is the floor mean of the source box             */
/* rows [i*h/h_out, (i+1)*h/h_out) x cols [j*w/w_out, (j+1)*w/w_out)   */
/* — defined for every geometry with h_out <= h, w_out <= w (each box  */
/* holds >= 1 pixel), bit-identical to the NumPy oracle in             */
/* repro.video.scale by construction: integer box sums are exact in    */
/* any order, the same property that makes the SAD tiers above         */
/* dispatch freely, and the quotient is the oracle's floor division,   */
/* taken without dividing per pixel.                                   */
/*                                                                     */
/* Boxes: along an axis cut n_in -> n_out every box is lo or lo + 1    */
/* samples long, lo = n_in / n_out, so a box population is one of two  */
/* row counts times one of two column counts and an output row meets   */
/* two populations, d and d + rows.  With j * n_in = e * n_out + err   */
/* the next box is the long one iff err + n_in % n_out >= n_out: the   */
/* edge pattern is stepped, not divided for.                           */
/*                                                                     */
/* Quotient: for 1 <= d <= 2^24 and 0 <= acc <= 255 * d,               */
/*     acc / d == (acc * (2^56 / d + 1)) >> 56       (both floors).    */
/* Let m = 2^56 / d + 1, so m * d = 2^56 + e with 1 <= e <= d, and     */
/* acc = q * d + r with r < d, q <= 255.  Then acc * m = q * 2^56 +    */
/* (q * e + r * m), and 0 <= q * e + r * m <= q * e + (d - 1) * m      */
/* = q * e + 2^56 + e - m < 2^56 because (q + 1) * e <= 256 * d        */
/* <= 2^56 / d < m.  The product is below 255 * 2^56 + 255 * d < 2^64. */
/* When d is a power of two the same quotient is a shift.  The wrapper */
/* keeps h * w < 2^24, which bounds every population and keeps every   */
/* box sum (<= 255 * h * w) inside 32 bits.                            */
/*                                                                     */
/* Three routines, chosen from the geometry alone: exact halving       */
/* (SSE2 2x2), ratios below two across and at most two down (boxes of  */
/* 1, 2 or 4 samples, 16-bit lanes: every lane's one- and two-lane     */
/* quotient by shifts, then a byte pick per output), and the general   */
/* one (32-bit lanes, the box's lanes added per output, reciprocals).  */
/* Like the psadbw SAD path, the SSE2 code counts as level 0: it needs */
/* no runtime dispatch and is always safe on x86-64.                   */
/* ------------------------------------------------------------------ */

static inline uint64_t box_reciprocal(uint64_t population)
{
    return (UINT64_C(1) << 56) / population + 1;
}

/* Separable: the column edges once per call, then per output row the
 * box's source rows summed into one row of w lanes (a loop the
 * compiler vectorises) and <= ceil(w / w_out) lanes added per output
 * pixel.  scratch holds w_out + 1 edges and w lanes. */
static void downscale_box_scalar(const uint8_t *src, ptrdiff_t sstride,
                                 int64_t h, int64_t w, uint8_t *dst,
                                 int64_t h_out, int64_t w_out,
                                 uint32_t *scratch)
{
    uint32_t *edge = scratch, *lane = scratch + w_out + 1;
    uint32_t narrow = (uint32_t)(w / w_out);
    for (int64_t j = 0; j <= w_out; j++)
        edge[j] = (uint32_t)(j * w / w_out);
    for (int64_t i = 0; i < h_out; i++) {
        int64_t r0 = i * h / h_out;
        int64_t r1 = (i + 1) * h / h_out;
        const uint8_t *sr = src + (ptrdiff_t)r0 * sstride;
        for (int64_t c = 0; c < w; c++)
            lane[c] = sr[c];
        for (int64_t r = r0 + 1; r < r1; r++) {
            sr += sstride;
            for (int64_t c = 0; c < w; c++)
                lane[c] += sr[c];
        }
        uint64_t rows = (uint64_t)(r1 - r0);
        uint64_t reciprocal[2] = {box_reciprocal(rows * narrow),
                                  box_reciprocal(rows * (narrow + 1))};
        uint8_t *drow = dst + (ptrdiff_t)i * w_out;
        for (int64_t j = 0; j < w_out; j++) {
            uint64_t acc = 0;
            for (uint32_t c = edge[j]; c < edge[j + 1]; c++)
                acc += lane[c];
            acc *= reciprocal[edge[j + 1] - edge[j] - narrow];
            drow[j] = (uint8_t)(acc >> 56);
        }
    }
}

#if REPRO_X86
/* Exact 2x downscale: widen two source rows to 16-bit, add, then
 * _mm_madd_epi16 against ones folds adjacent column pairs into the
 * 32-bit 2x2 box sums; >> 2 is the floor division by the box
 * population (always 4 here).  Max box sum 4*255 = 1020 fits 16-bit
 * lanes with room to spare. */
static void downscale_half_sse2(const uint8_t *src, ptrdiff_t sstride,
                                uint8_t *dst, int64_t h_out, int64_t w_out)
{
    const __m128i zero = _mm_setzero_si128();
    const __m128i ones = _mm_set1_epi16(1);
    for (int64_t i = 0; i < h_out; i++) {
        const uint8_t *r0 = src + (ptrdiff_t)(2 * i) * sstride;
        const uint8_t *r1 = r0 + sstride;
        uint8_t *drow = dst + (ptrdiff_t)i * w_out;
        int64_t j = 0;
        for (; j + 8 <= w_out; j += 8) {
            __m128i a = _mm_loadu_si128((const __m128i *)(r0 + 2 * j));
            __m128i b = _mm_loadu_si128((const __m128i *)(r1 + 2 * j));
            __m128i s_lo = _mm_add_epi16(_mm_unpacklo_epi8(a, zero),
                                         _mm_unpacklo_epi8(b, zero));
            __m128i s_hi = _mm_add_epi16(_mm_unpackhi_epi8(a, zero),
                                         _mm_unpackhi_epi8(b, zero));
            __m128i box_lo = _mm_srli_epi32(_mm_madd_epi16(s_lo, ones), 2);
            __m128i box_hi = _mm_srli_epi32(_mm_madd_epi16(s_hi, ones), 2);
            __m128i packed = _mm_packs_epi32(box_lo, box_hi);
            packed = _mm_packus_epi16(packed, packed);
            _mm_storel_epi64((__m128i *)(drow + j), packed);
        }
        for (; j < w_out; j++) {
            int64_t acc = (int64_t)r0[2 * j] + r0[2 * j + 1]
                        + (int64_t)r1[2 * j] + r1[2 * j + 1];
            drow[j] = (uint8_t)(acc / 4);
        }
    }
}

/* downscale_box_near's quotients of one output row of one or two
 * source rows (shift = rows - 1), 16 lanes at a time: quot[c] = lane
 * c's column sum >> shift, quot[w + c] = lanes c and c + 1 >>
 * (shift + 1).  Returns the first lane it left (it reads lane c + 16,
 * so it leaves at least one). */
static int64_t near_quotients_sse2(const uint8_t *src, ptrdiff_t sstride,
                                   int64_t rows, int64_t w, uint8_t *quot)
{
    const __m128i zero = _mm_setzero_si128();
    const __m128i one = _mm_cvtsi32_si128((int)rows - 1);
    const __m128i two = _mm_cvtsi32_si128((int)rows);
    int64_t c = 0;
    for (; c + 17 <= w; c += 16) {
        __m128i a_lo = zero, a_hi = zero, b_lo = zero, b_hi = zero;
        const uint8_t *p = src + c;
        for (int64_t r = 0; r < rows; r++, p += sstride) {
            __m128i a = _mm_loadu_si128((const __m128i *)p);
            __m128i b = _mm_loadu_si128((const __m128i *)(p + 1));
            a_lo = _mm_add_epi16(a_lo, _mm_unpacklo_epi8(a, zero));
            a_hi = _mm_add_epi16(a_hi, _mm_unpackhi_epi8(a, zero));
            b_lo = _mm_add_epi16(b_lo, _mm_unpacklo_epi8(b, zero));
            b_hi = _mm_add_epi16(b_hi, _mm_unpackhi_epi8(b, zero));
        }
        b_lo = _mm_add_epi16(b_lo, a_lo);
        b_hi = _mm_add_epi16(b_hi, a_hi);
        _mm_storeu_si128((__m128i *)(quot + c), _mm_packus_epi16(
            _mm_srl_epi16(a_lo, one), _mm_srl_epi16(a_hi, one)));
        _mm_storeu_si128((__m128i *)(quot + w + c), _mm_packus_epi16(
            _mm_srl_epi16(b_lo, two), _mm_srl_epi16(b_hi, two)));
    }
    return c;
}
#endif

/* w < 2 * w_out, h <= 2 * h_out: every box is one or two lanes wide
 * and one or two rows tall, so its population is 1, 2 or 4 and its
 * quotient a shift.  Once per call, which quotient each output column
 * takes (lane e for a one-lane box, w + e for the box of lanes e and
 * e + 1); per output row, both quotients of every lane (cheap across a
 * row: the row's two populations are two constants), then one byte
 * picked per output.  scratch holds the w_out picks and 2 * w quotient
 * bytes — less than downscale_box_scalar's. */
static void downscale_box_near(const uint8_t *src, ptrdiff_t sstride,
                               int64_t h, int64_t w, uint8_t *dst,
                               int64_t h_out, int64_t w_out,
                               uint32_t *scratch)
{
    uint32_t *pick = scratch;
    uint8_t *quot = (uint8_t *)(scratch + w_out);
    int64_t err = 0, e = 0;
    for (int64_t j = 0; j < w_out; j++) {
        int wide = (err += w - w_out) >= w_out;
        if (wide)
            err -= w_out;
        pick[j] = (uint32_t)(wide ? w + e : e);
        e += 1 + wide;
    }
    err = 0;
    for (int64_t i = 0; i < h_out; i++, dst += w_out) {
        int64_t rows = h / h_out;
        if ((err += h % h_out) >= h_out) {
            err -= h_out;
            rows++;
        }
        /* The box's last row: the second, or src itself again. */
        const uint8_t *below = src + (ptrdiff_t)(rows - 1) * sstride;
        int64_t c = 0;
#if REPRO_X86
        c = near_quotients_sse2(src, sstride, rows, w, quot);
#endif
        for (; c < w; c++) {  /* the lanes SSE2 left: all, off x86 */
            int a = src[c] + (rows - 1) * below[c];
            int b = c + 1 < w ? src[c + 1] + (rows - 1) * below[c + 1] : 0;
            quot[c] = (uint8_t)(a >> (rows - 1));
            quot[w + c] = (uint8_t)((a + b) >> rows);
        }
        src = below + sstride;
        int64_t j = 0;
        for (; j + 4 <= w_out; j += 4) {  /* one 32-bit store per four */
            uint8_t four[4] = {quot[pick[j]], quot[pick[j + 1]],
                               quot[pick[j + 2]], quot[pick[j + 3]]};
            memcpy(dst + j, four, 4);
        }
        for (; j < w_out; j++)
            dst[j] = quot[pick[j]];
    }
}

void downscale_box_u8(const uint8_t *src, int64_t sstride,
                      int64_t h, int64_t w, uint8_t *dst,
                      int64_t h_out, int64_t w_out, uint32_t *scratch)
{
#if REPRO_X86
    if (h == 2 * h_out && w == 2 * w_out && w_out >= 8) {
        downscale_half_sse2(src, (ptrdiff_t)sstride, dst, h_out, w_out);
        return;
    }
#endif
    if (w < 2 * w_out && h <= 2 * h_out)
        downscale_box_near(src, (ptrdiff_t)sstride, h, w, dst, h_out, w_out,
                           scratch);
    else
        downscale_box_scalar(src, (ptrdiff_t)sstride, h, w, dst, h_out,
                             w_out, scratch);
}
