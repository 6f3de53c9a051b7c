/* Native serving leaves of the "turbo" execution backend.
 *
 * Compiled once per host by repro.kernels.native and called through
 * ctypes, which releases the GIL for the length of each call.  Every
 * function is pure over its arguments: no static or global state, and
 * every leaf allocates its own scratch and frees it before returning, so
 * concurrent serving threads never share anything but read-only inputs.
 * An entry that cannot allocate its scratch returns nonzero and writes
 * nothing more.  The Python wrappers validate shapes, dtypes and
 * contiguity before passing pointers.
 *
 * A pipeline stage is described by one row of int64 fields (F_* below:
 * its kind, geometry, requantize multipliers and the addresses of its
 * packed weights).  vmcu_segment walks a table of such rows, so a whole
 * segment of a compiled model runs in one call, and a lone stage is a
 * one-row table.
 *
 * Every multiply-accumulate runs the way the paper's kernels run it on the
 * MCU with SMLAD: int8 operands widened to int16 pairs, two products added
 * into each int32 lane by one instruction, here x86's pmaddwd.  That is
 * exact: an int8 product is at most 2**14 in magnitude, so a pair sum is
 * at most 2**15, and pmaddwd overflows only on two (-32768)*(-32768)
 * products, which int8 operands never produce.  The lanes accumulate
 * modulo 2**32, exactly NumPy's int32 arithmetic.
 *
 * Inner loops use GCC vector extensions with one int32 vector per channel
 * block, sized to the build target: a loop over a runtime channel count
 * would be vectorized for the int8 operand (64 lanes under AVX-512) and
 * leave the 16-80 channels of the served models to its scalar epilogue.
 * Weight operands arrive as int16 pairs with the channel axis zero-padded
 * to a multiple of CPAD, so every vector loop runs whole blocks.
 */
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The build target's predefined macros pick one pmaddwd: AVX-512BW (the
 * 512-bit pmaddwd is not in AVX-512F alone), AVX2, or SSE2, which every
 * x86-64 has; other targets run the portable form in madd(). */
#if defined(__AVX512BW__)
#define LANES 16
#elif defined(__AVX2__)
#define LANES 8
#else
#define LANES 4
#endif
#if defined(__SSE2__)
#include <immintrin.h>
#endif
/* channel multiple of the packed weights (native.CHANNEL_PAD) */
#define CPAD 16
#define PADDED(c) (((c) + CPAD - 1) / CPAD * CPAD)

/* unsigned lanes: accumulation wraps modulo 2**32 (defined behaviour),
 * which is exactly NumPy's int32 arithmetic */
typedef uint32_t vec __attribute__((vector_size(4 * LANES)));
typedef int32_t svec __attribute__((vector_size(4 * LANES)));
/* the same bytes as int16 pairs: pair i is the low and high half of lane i */
typedef int16_t vec16 __attribute__((vector_size(4 * LANES)));
typedef vec vec_mem __attribute__((aligned(4), may_alias));
typedef vec16 vec16_mem __attribute__((aligned(2), may_alias));

static inline vec16 ld16(const int16_t *p) { return *(const vec16_mem *)p; }
static inline void st(int32_t *p, vec v) { *(vec_mem *)p = v; }

/* the int16 pair at p in every lane */
static inline vec16 bcast(const int16_t *p) {
    uint32_t u;
    memcpy(&u, p, sizeof u);
    return (vec16)(u + (vec){0});
}

/* lane i = a[2i]*b[2i] + a[2i+1]*b[2i+1]: pmaddwd, the host's SMLAD */
static inline vec madd(vec16 a, vec16 b) {
#if defined(__AVX512BW__)
    return (vec)_mm512_madd_epi16((__m512i)a, (__m512i)b);
#elif defined(__AVX2__)
    return (vec)_mm256_madd_epi16((__m256i)a, (__m256i)b);
#elif defined(__SSE2__)
    return (vec)_mm_madd_epi16((__m128i)a, (__m128i)b);
#else
    /* sign-extend each int16 half of a lane by shifts, multiply, add */
    const vec ua = (vec)a, ub = (vec)b;
    const svec alo = (svec)(ua << 16) >> 16, blo = (svec)(ub << 16) >> 16;
    return (vec)(alo * blo) + (vec)(((svec)ua >> 16) * ((svec)ub >> 16));
#endif
}

/* ------------------------------------------------------------------------ */
/* requantize                                                                */
/* ------------------------------------------------------------------------ */

/* A requantize multiplier M * 2**-31 * 2**-shift as the pipeline below
 * takes it.  That pipeline's y satisfies |y| < 2**31, so for shift >= 32
 * |y| / 2**shift < 1/2 and every output rounds to 0; M = 0 with shift 0
 * computes exactly that within 32-bit lanes. */
typedef struct {
    int32_t m, shift, mask;
} rq_t;

static inline rq_t rq_make(int32_t m, int32_t shift) {
    if (shift > 31) m = 0, shift = 0;
    rq_t q = {m, shift, (int32_t)((UINT32_C(1) << shift) - 1)};
    return q;
}

/* One gemmlowp requantize, exactly repro.quant.requantize.  The Q31
 * mantissa M is positive, so SQRDMULH's nudge takes its sign from a, and
 * nudge-then-truncate collapses to y = floor((a*M + 2**30) / 2**31).  y
 * fits in int32, so the low 32 bits of a logical shift are exact; the
 * rounding shift (ties away from zero) and the int8 clamp then run on
 * int32 lanes.  Branch-free, so flat loops over it vectorize. */
static inline int32_t rq1(int32_t a, rq_t q) {
    const uint64_t x = (uint64_t)((int64_t)a * q.m) + (UINT64_C(1) << 30);
    int32_t y = (int32_t)(uint32_t)(x >> 31);
    const int32_t r = y & q.mask;
    const int32_t t = (q.mask >> 1) + (y < 0);
    y = (y >> q.shift) + (r > t);
    return y < -128 ? -128 : y > 127 ? 127 : y;
}

/* the bottleneck's skip connection: an int8 add that saturates */
static inline int8_t sat_add8(int32_t v, int8_t r) {
    v += r;
    return (int8_t)(v < -128 ? -128 : v > 127 ? 127 : v);
}

/* out[i] = requantize(acc[i]) [+ residual[i], saturating] */
static void rq_store(const int32_t *acc, const int8_t *residual,
                     int8_t *out, int64_t n, rq_t q) {
    if (residual) {
        for (int64_t i = 0; i < n; ++i)
            out[i] = sat_add8(rq1(acc[i], q), residual[i]);
    } else {
        for (int64_t i = 0; i < n; ++i) out[i] = (int8_t)rq1(acc[i], q);
    }
}

/* Requantize n pixels of cpad-strided accumulators into packed c-channel
 * int8 pixels: squeeze out the padding lanes in place, then one flat
 * pass. */
static void rq_pixels(int32_t *acc, int32_t cpad, int32_t c, int32_t n,
                      const int8_t *residual, int8_t *out, rq_t q) {
    if (cpad != c)
        for (int32_t j = 1; j < n; ++j)
            memmove(acc + (int64_t)j * c, acc + (int64_t)j * cpad,
                    (size_t)c * sizeof *acc);
    rq_store(acc, residual, out, (int64_t)n * c, q);
}

/* out[i] = requantize(acc[i]) [+ residual[i], saturating] over int32
 * accumulators; residual may be NULL. */
void vmcu_requant_i32(const int32_t *acc, const int8_t *residual,
                      int8_t *out, int64_t n, int32_t mult, int32_t shift) {
    rq_store(acc, residual, out, n, rq_make(mult, shift));
}

/* The same over float64-held accumulators (the BLAS GEMM's output).  They
 * hold integers, so the conversion through int64 is exact, and narrowing
 * to int32 wraps like NumPy's astype(np.int32). */
void vmcu_requant_f64(const double *acc, const int8_t *residual,
                      int8_t *out, int64_t n, int32_t mult, int32_t shift) {
    const rq_t q = rq_make(mult, shift);
    if (residual) {
        for (int64_t i = 0; i < n; ++i)
            out[i] = sat_add8(rq1((int32_t)(int64_t)acc[i], q), residual[i]);
    } else {
        for (int64_t i = 0; i < n; ++i)
            out[i] = (int8_t)rq1((int32_t)(int64_t)acc[i], q);
    }
}

/* out[i] = requantize(acc[i]), int8 values as the int16 operands of the
 * next stage's pmaddwd */
static void rq_i16(const int32_t *acc, int16_t *out, int64_t n, rq_t q) {
    for (int64_t i = 0; i < n; ++i) out[i] = (int16_t)rq1(acc[i], q);
}

/* ------------------------------------------------------------------------ */
/* depthwise                                                                 */
/* ------------------------------------------------------------------------ */

/* Widen n int8 pixels of c channels, sstride apart, into int16 pixels
 * dstride apart; lanes [c, dstride) of each pixel are left as they are. */
static void widen(const int8_t *src, int64_t sstride, int16_t *dst,
                  int32_t dstride, int32_t n, int32_t c) {
    if (sstride == c && dstride == c) {
        for (int64_t t = 0; t < (int64_t)n * c; ++t) dst[t] = src[t];
        return;
    }
    for (int32_t s = 0; s < n; ++s)
        for (int32_t t = 0; t < c; ++t)
            dst[(int64_t)s * dstride + t] = src[s * sstride + t];
}

/* Paired pixels of one ring slot for q output pixels: a window starting
 * at paired pixel j*stride reads pairs j*stride + 2t, t < ceil(k/2). */
static inline int32_t paired_width(int32_t q, int32_t stride, int32_t k) {
    return (q - 1) * stride + (k + 1) / 2 * 2 - 1;
}

/* Pair a zero-bordered int16 row e[ns + 1][cpad] (input pixel x at
 * e[pad + x]) into p[ns][cpad][2], p[s][c] = (e[s][c], e[s + 1][c]): the
 * two horizontally adjacent taps that one pmaddwd applies.  With the
 * border, every window runs all its taps; an odd k's last pair meets a
 * zero weight. */
static void pair_row(const int16_t *e, int16_t *p, int32_t ns,
                     int32_t cpad) {
    for (int64_t i = 0; i < (int64_t)ns * cpad; ++i) {
        p[2 * i] = e[i];
        p[2 * i + 1] = e[i + cpad];
    }
}

/* One output row of a k x k depthwise convolution over a ring of paired
 * rows: input row r ([ns][cpad][2]) sits in slot r % k, slot int16
 * apart.  r0 is the window's first input row (negative inside the top
 * padding); rows outside the h input rows are clipped, which is zero
 * padding without a padded copy.  Weights are w[k][ceil(k/2)][cpad][2].
 * Writes q pixels of cpad raw int32 accumulators; four pixels share each
 * weight load. */
static void dw_row(const int16_t *ring, int64_t slot, const int16_t *w,
                   int32_t *acc, int32_t r0, int32_t h, int32_t cpad,
                   int32_t k, int32_t stride, int32_t q) {
    const int32_t kp = (k + 1) / 2;
    const int32_t dr0 = r0 < 0 ? -r0 : 0;
    const int32_t dr1 = h - r0 < k ? h - r0 : k;
    const int16_t *rows[k];
    for (int32_t dr = dr0; dr < dr1; ++dr)
        rows[dr] = ring + (r0 + dr) % k * slot;
    const int64_t px = 2 * (int64_t)cpad; /* int16 per paired pixel */
    const int64_t sx = stride * px;
    int32_t j = 0;
    for (; j + 4 <= q; j += 4) {
        int32_t *o = acc + (int64_t)j * cpad;
        for (int32_t v = 0; v < cpad; v += LANES) {
            vec a0 = {0}, a1 = {0}, a2 = {0}, a3 = {0};
            for (int32_t dr = dr0; dr < dr1; ++dr) {
                const int16_t *xs = rows[dr] + j * sx + 2 * v;
                const int16_t *ws = w + dr * kp * px + 2 * v;
                for (int32_t t = 0; t < kp; ++t) {
                    const vec16 wv = ld16(ws + t * px);
                    const int16_t *x0 = xs + 2 * t * px;
                    a0 += madd(ld16(x0), wv);
                    a1 += madd(ld16(x0 + sx), wv);
                    a2 += madd(ld16(x0 + 2 * sx), wv);
                    a3 += madd(ld16(x0 + 3 * sx), wv);
                }
            }
            st(o + v, a0);
            st(o + cpad + v, a1);
            st(o + 2 * cpad + v, a2);
            st(o + 3 * cpad + v, a3);
        }
    }
    /* the last q % 4 pixels */
    for (; j < q; ++j) {
        int32_t *o = acc + (int64_t)j * cpad;
        for (int32_t v = 0; v < cpad; v += LANES) {
            vec a = {0};
            for (int32_t dr = dr0; dr < dr1; ++dr) {
                const int16_t *xs = rows[dr] + j * sx + 2 * v;
                const int16_t *ws = w + dr * kp * px + 2 * v;
                for (int32_t t = 0; t < kp; ++t)
                    a += madd(ld16(xs + 2 * t * px), ld16(ws + t * px));
            }
            st(o + v, a);
        }
    }
}

/* The tap loop's scratch for q outputs per row at the given stride over
 * wd-pixel rows of cpad lanes: the zero-bordered row erow[max(ns + 1,
 * pad + wd), cpad] (input pixel x at erow[pad + x]) and the ring of k
 * paired rows ring[k, ns, cpad, 2], ns = paired_width(q, stride, k).
 * NULL members when an allocation failed; taps_free releases both. */
typedef struct {
    int16_t *erow, *ring;
} taps_t;

static taps_t taps_alloc(int32_t k, int32_t stride, int32_t pad, int32_t q,
                         int32_t wd, int32_t cpad) {
    const int32_t ns = paired_width(q, stride, k);
    const int32_t rows = ns + 1 > pad + wd ? ns + 1 : pad + wd;
    taps_t t = {calloc((size_t)rows * cpad, sizeof(int16_t)),
                malloc((size_t)k * ns * 2 * cpad * sizeof(int16_t))};
    return t;
}

static void taps_free(taps_t t) {
    free(t.erow);
    free(t.ring);
}

/* Depthwise k x k convolution of NHWC int8 x[B, H, W, C] with the paired
 * weights w[k, ceil(k/2), PADDED(C), 2] into out[B, P, Q, C] at the given
 * stride and zero padding.  Each input row is widened once into the
 * bordered row and paired into the ring (taps_alloc); one row of
 * accumulators acc[Q, PADDED(C)] waits for its flat requantize. */
int32_t vmcu_depthwise(const int8_t *x, const int16_t *w, int8_t *out,
                       int32_t batch, int32_t h, int32_t wd, int32_t c,
                       int32_t k, int32_t stride, int32_t pad, int32_t p,
                       int32_t q, int32_t mult, int32_t shift) {
    const int32_t cp = PADDED(c), ns = paired_width(q, stride, k);
    const int64_t slot = (int64_t)ns * 2 * cp;
    const rq_t rq = rq_make(mult, shift);
    const taps_t taps = taps_alloc(k, stride, pad, q, wd, cp);
    int16_t *erow = taps.erow, *ring = taps.ring;
    int32_t *acc = malloc((size_t)q * cp * sizeof *acc);
    const int32_t err = !erow || !ring || !acc;
    for (int32_t b = 0; b < batch && !err; ++b) {
        int32_t next = 0; /* first input row not yet in the ring */
        for (int32_t i = 0; i < p; ++i) {
            /* the window's rows [r0, r0 + k) clipped to the input; rows
             * above it are dead, and rows no window reads (stride > k)
             * are never loaded */
            const int32_t r0 = i * stride - pad;
            const int32_t hi = r0 + k < h ? r0 + k : h;
            if (next < r0) next = r0;
            for (; next < hi; ++next) {
                widen(x + ((int64_t)b * h + next) * wd * c, c,
                      erow + (int64_t)pad * cp, cp, wd, c);
                pair_row(erow, ring + next % k * slot, ns, cp);
            }
            dw_row(ring, slot, w, acc, r0, h, cp, k, stride, q);
            rq_pixels(acc, cp, c, q, NULL,
                      out + ((int64_t)b * p + i) * q * c, rq);
        }
    }
    taps_free(taps);
    free(acc);
    return err;
}

/* int32 lanes per vector of this build: 16 under AVX-512BW, 8 under AVX2,
 * 4 otherwise */
int32_t vmcu_lanes(void) { return LANES; }

/* ------------------------------------------------------------------------ */
/* pointwise GEMM rows                                                        */
/* ------------------------------------------------------------------------ */

/* Pointwise GEMM over n pixels of int16 input rows ldi apart: out[j][0:
 * cpad] = sum over kp pairs t of in[j][2t:2t+2] . w[t][0:cpad][0:2], raw
 * int32 accumulators.  Four pixels share each weight-vector load; each
 * input pair is broadcast once per channel block. */
static void pw_rows(const int16_t *in, int64_t ldi, const int16_t *w,
                    int32_t *out, int32_t n, int32_t kp, int32_t cpad) {
    const int64_t wt = 2 * (int64_t)cpad; /* int16 per weight pair row */
    int32_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const int16_t *i0 = in + (int64_t)j * ldi;
        const int16_t *i1 = i0 + ldi, *i2 = i1 + ldi, *i3 = i2 + ldi;
        int32_t *o = out + (int64_t)j * cpad;
        for (int32_t v = 0; v < cpad; v += LANES) {
            vec a0 = {0}, a1 = {0}, a2 = {0}, a3 = {0};
            for (int32_t t = 0; t < kp; ++t) {
                const vec16 wv = ld16(w + t * wt + 2 * v);
                a0 += madd(bcast(i0 + 2 * t), wv);
                a1 += madd(bcast(i1 + 2 * t), wv);
                a2 += madd(bcast(i2 + 2 * t), wv);
                a3 += madd(bcast(i3 + 2 * t), wv);
            }
            st(o + v, a0);
            st(o + cpad + v, a1);
            st(o + 2 * cpad + v, a2);
            st(o + 3 * cpad + v, a3);
        }
    }
    /* the last n % 4 pixels: one pixel, four weight vectors at a time */
    for (; j < n; ++j) {
        const int16_t *i0 = in + (int64_t)j * ldi;
        int32_t *o = out + (int64_t)j * cpad;
        int32_t v = 0;
        for (; v + 4 * LANES <= cpad; v += 4 * LANES) {
            vec a0 = {0}, a1 = {0}, a2 = {0}, a3 = {0};
            for (int32_t t = 0; t < kp; ++t) {
                const int16_t *ws = w + t * wt + 2 * v;
                const vec16 xv = bcast(i0 + 2 * t);
                a0 += madd(xv, ld16(ws));
                a1 += madd(xv, ld16(ws + 2 * LANES));
                a2 += madd(xv, ld16(ws + 4 * LANES));
                a3 += madd(xv, ld16(ws + 6 * LANES));
            }
            st(o + v, a0);
            st(o + v + LANES, a1);
            st(o + v + 2 * LANES, a2);
            st(o + v + 3 * LANES, a3);
        }
        for (; v < cpad; v += LANES) {
            vec a0 = {0};
            for (int32_t t = 0; t < kp; ++t)
                a0 += madd(bcast(i0 + 2 * t), ld16(w + t * wt + 2 * v));
            st(o + v, a0);
        }
    }
}

/* ------------------------------------------------------------------------ */
/* stage rows                                                                */
/* ------------------------------------------------------------------------ */

/* The int64 fields of one stage row, in native.py's _STAGE_FIELDS order.
 * Every stage reads int8 x[B, H, W, C_IN].  A pointwise stage (a dense
 * head is one over [B, M, 1, K]) keeps every STRIDE-th pixel into [B, P,
 * Q, C_OUT].  A bottleneck's input is square; its expand keeps every
 * S1-th pixel, onto HB x HB pixels of C_MID channels, its K x K depthwise
 * runs at the composite stride STRIDE with padding PAD onto P x P, and
 * RESIDUAL adds the skip connection.  An average pool sums the H x W
 * pixels into [B, C_IN].  M0..SH2 are requantize multipliers and shifts
 * in stage order, W0..W2 the addresses of the pack_i16_pairs weights. */
enum {
    F_KIND, F_H, F_W, F_C_IN, F_C_MID, F_C_OUT, F_K, F_S1, F_STRIDE, F_PAD,
    F_HB, F_P, F_Q, F_RESIDUAL, F_M0, F_SH0, F_M1, F_SH1, F_M2, F_SH2,
    F_W0, F_W1, F_W2, STAGE_FIELDS
};
enum { STAGE_POINTWISE, STAGE_BOTTLENECK, STAGE_AVGPOOL };

/* fields per stage row; native.py checks it when it loads the library */
int32_t vmcu_stage_fields(void) { return STAGE_FIELDS; }

static inline int32_t field(const int64_t *d, int f) { return (int32_t)d[f]; }

static inline const int16_t *weights_at(const int64_t *d, int f) {
    return (const int16_t *)(intptr_t)d[f];
}

/* the multiplier at field f and its shift at f + 1 */
static inline rq_t rq_at(const int64_t *d, int f) {
    return rq_make(field(d, f), field(d, f + 1));
}

/* ------------------------------------------------------------------------ */
/* pointwise, dense and average pool                                         */
/* ------------------------------------------------------------------------ */

/* pixels widened, multiplied and requantized per pass of pw_pixels */
#define CHUNK 64

/* requantize(x . w) for n pixels of c_in int8 channels, sstride apart,
 * into n packed c_out-channel pixels, CHUNK pixels at a time through
 * xbuf[CHUNK, c_in rounded up to even] (its odd column zeroed) and
 * acc[CHUNK, PADDED(c_out)]. */
static void pw_pixels(const int8_t *x, int64_t sstride, int64_t n,
                      int32_t c_in, const int16_t *w, int32_t c_out, rq_t q,
                      int8_t *out, int16_t *xbuf, int32_t *acc) {
    const int32_t ci = (c_in + 1) / 2 * 2, co = PADDED(c_out);
    for (int64_t j = 0; j < n; j += CHUNK) {
        const int32_t m = n - j < CHUNK ? (int32_t)(n - j) : CHUNK;
        widen(x + j * sstride, sstride, xbuf, ci, m, c_in);
        pw_rows(xbuf, ci, w, acc, m, ci / 2, co);
        rq_pixels(acc, co, c_out, m, NULL, out + j * c_out, q);
    }
}

/* A pointwise stage: x[B, H, W, C_IN] -> out[B, P, Q, C_OUT] with the
 * weights W0 = w[ceil(C_IN/2), PADDED(C_OUT), 2]. */
static int32_t pointwise(const int64_t *d, int32_t batch, const int8_t *x,
                         int8_t *out) {
    const int32_t h = field(d, F_H), wd = field(d, F_W);
    const int32_t c_in = field(d, F_C_IN), c_out = field(d, F_C_OUT);
    const int32_t st = field(d, F_STRIDE), p = field(d, F_P);
    const int32_t q = field(d, F_Q), ci = (c_in + 1) / 2 * 2;
    const int16_t *w = weights_at(d, F_W0);
    const rq_t rq = rq_at(d, F_M0);
    int16_t *xbuf = calloc((size_t)CHUNK * ci, sizeof *xbuf);
    int32_t *acc = malloc((size_t)CHUNK * PADDED(c_out) * sizeof *acc);
    const int32_t err = !xbuf || !acc;
    if (!err && st == 1) {
        /* every pixel, in order: one run over the whole batch */
        pw_pixels(x, c_in, (int64_t)batch * h * wd, c_in, w, c_out, rq, out,
                  xbuf, acc);
    } else if (!err) {
        for (int32_t b = 0; b < batch; ++b)
            for (int32_t i = 0; i < p; ++i)
                pw_pixels(x + ((int64_t)b * h + (int64_t)i * st) * wd * c_in,
                          (int64_t)st * c_in, q, c_in, w, c_out, rq,
                          out + ((int64_t)b * p + i) * q * c_out, xbuf, acc);
    }
    free(xbuf);
    free(acc);
    return err;
}

/* An average-pool stage: x[B, H, W, C_IN] -> out[B, C_IN], the
 * requantized int32 sum over every pixel (the multiplier folds in the
 * averaging).  The sums wrap modulo 2**32, as NumPy's int32 sum does. */
static int32_t avgpool(const int64_t *d, int32_t batch, const int8_t *x,
                       int8_t *out) {
    const int64_t n = d[F_H] * d[F_W];
    const int32_t c = field(d, F_C_IN);
    const rq_t rq = rq_at(d, F_M0);
    uint32_t *acc = malloc((size_t)c * sizeof *acc);
    if (!acc) return 1;
    for (int32_t b = 0; b < batch; ++b) {
        const int8_t *xb = x + b * n * c;
        memset(acc, 0, (size_t)c * sizeof *acc);
        for (int64_t s = 0; s < n; ++s)
            for (int32_t t = 0; t < c; ++t)
                acc[t] += (uint32_t)(int32_t)xb[s * c + t];
        rq_store((const int32_t *)acc, NULL, out + (int64_t)b * c, c, rq);
    }
    free(acc);
    return 0;
}

/* ------------------------------------------------------------------------ */
/* the fused inverted bottleneck                                             */
/* ------------------------------------------------------------------------ */

/* A bottleneck stage: the whole inverted-bottleneck block, one output row
 * at a time, the way the paper's fused kernel streams it: pointwise
 * expand, depthwise, pointwise project, each requantized (M0, M1, M2),
 * plus the saturating residual add when RESIDUAL is set (then H == P and
 * C_IN == C_OUT).
 *
 * x[B, H, H, C_IN] -> out[B, P, P, C_OUT]; HB = (H - 1) / S1 + 1.  Weights
 * are int16 pairs: W0 = we[ceil(C_IN/2), PADDED(C_MID), 2], W1 = wdw[K,
 * ceil(K/2), PADDED(C_MID), 2] and W2 = wp[ceil(C_MID/2), PADDED(C_OUT),
 * 2].  Scratch: one widened input row xrow[HB, C_IN rounded up to even]
 * (its odd column zeroed), the tap loop's bordered row and ring over HB
 * expanded pixels of PADDED(C_MID) lanes (the ring is the only part of
 * the expanded tensor ever held: expanded row r in slot r % K, computed
 * once), drow[P, PADDED(C_MID)], the project's input row, and acc[HB,
 * max(PADDED(C_MID), PADDED(C_OUT))] for the raw sums of each stage in
 * turn. */
static int32_t bottleneck(const int64_t *d, int32_t batch, const int8_t *x,
                          int8_t *out) {
    const int32_t h = field(d, F_H), c_in = field(d, F_C_IN);
    const int32_t c_mid = field(d, F_C_MID), c_out = field(d, F_C_OUT);
    const int32_t k = field(d, F_K), s1 = field(d, F_S1);
    const int32_t stride = field(d, F_STRIDE), pad = field(d, F_PAD);
    const int32_t hb = field(d, F_HB), p = field(d, F_P);
    const int32_t residual = field(d, F_RESIDUAL);
    const int16_t *we = weights_at(d, F_W0), *wdw = weights_at(d, F_W1),
                  *wp = weights_at(d, F_W2);
    const int32_t cm = PADDED(c_mid), co = PADDED(c_out);
    const int32_t ci = (c_in + 1) / 2 * 2, ns = paired_width(p, stride, k);
    const int64_t slot = (int64_t)ns * 2 * cm;
    const rq_t q1 = rq_at(d, F_M0), qd = rq_at(d, F_M1), q2 = rq_at(d, F_M2);
    const taps_t taps = taps_alloc(k, stride, pad, p, hb, cm);
    int16_t *erow = taps.erow, *ring = taps.ring;
    int16_t *xrow = calloc((size_t)hb * ci, sizeof *xrow);
    int16_t *drow = malloc((size_t)p * cm * sizeof *drow);
    int32_t *acc = malloc((size_t)hb * (cm > co ? cm : co) * sizeof *acc);
    const int32_t err = !erow || !ring || !xrow || !drow || !acc;
    for (int32_t b = 0; b < batch && !err; ++b) {
        const int8_t *xb = x + (int64_t)b * h * h * c_in;
        int32_t next = 0; /* first expanded row not yet in the ring */
        for (int32_t i = 0; i < p; ++i) {
            const int32_t r0 = i * stride - pad;
            const int32_t hi = r0 + k < hb ? r0 + k : hb;
            if (next < r0) next = r0;
            for (; next < hi; ++next) {
                widen(xb + (int64_t)next * s1 * h * c_in,
                      (int64_t)s1 * c_in, xrow, ci, hb, c_in);
                pw_rows(xrow, ci, we, acc, hb, ci / 2, cm);
                rq_i16(acc, erow + (int64_t)pad * cm, (int64_t)hb * cm, q1);
                pair_row(erow, ring + next % k * slot, ns, cm);
            }
            dw_row(ring, slot, wdw, acc, r0, hb, cm, k, stride, p);
            rq_i16(acc, drow, (int64_t)p * cm, qd);
            pw_rows(drow, cm, wp, acc, p, (c_mid + 1) / 2, co);
            rq_pixels(acc, co, c_out, p,
                      residual ? xb + (int64_t)i * h * c_in : NULL,
                      out + ((int64_t)b * p + i) * p * c_out, q2);
        }
    }
    taps_free(taps);
    free(xrow);
    free(drow);
    free(acc);
    return err;
}

/* ------------------------------------------------------------------------ */
/* entries                                                                   */
/* ------------------------------------------------------------------------ */

/* A whole segment: the n stage rows d[n][STAGE_FIELDS] in order over the
 * batch, stage i writing outs[i] and reading outs[i - 1] (stage 0 reads
 * x).  Returns nonzero, leaving the later outputs unwritten, if a stage
 * could not allocate its scratch or a row names no stage kind. */
int32_t vmcu_segment(const int64_t *d, int32_t n, int32_t batch,
                     const int8_t *x, int8_t *const *outs) {
    for (int32_t i = 0; i < n; ++i, d += STAGE_FIELDS) {
        int32_t err = 1;
        switch (d[F_KIND]) {
        case STAGE_POINTWISE:
            err = pointwise(d, batch, x, outs[i]);
            break;
        case STAGE_BOTTLENECK:
            err = bottleneck(d, batch, x, outs[i]);
            break;
        case STAGE_AVGPOOL:
            err = avgpool(d, batch, x, outs[i]);
            break;
        }
        if (err) return err;
        x = outs[i];
    }
    return 0;
}
