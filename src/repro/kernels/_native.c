/* Native serving leaves of the "turbo" execution backend.
 *
 * Compiled once per host by repro.kernels.native and called through
 * ctypes, which releases the GIL for the length of each call.  Every
 * function is pure over its arguments: no static or global state, and the
 * caller passes every scratch buffer, so concurrent serving threads never
 * share anything but read-only inputs.  The Python wrappers validate
 * shapes, dtypes and contiguity before passing pointers.
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

/* Depthwise k x k convolution of NHWC int8 x[B, H, W, C] with the paired
 * weights w[k, ceil(k/2), PADDED(C), 2] into out[B, P, Q, C] at the given
 * stride and zero padding.  Each input row is widened once into the
 * zero-bordered row erow[max(ns + 1, pad + W), PADDED(C)] and paired into
 * the ring ring[k, ns, PADDED(C), 2], ns = paired_width(Q, stride, k);
 * acc[Q, PADDED(C)] holds one output row's accumulators until its flat
 * requantize. */
void vmcu_depthwise(const int8_t *x, const int16_t *w, int8_t *out,
                    int16_t *erow, int16_t *ring, int32_t *acc,
                    int32_t batch, int32_t h, int32_t wd, int32_t c,
                    int32_t k, int32_t stride, int32_t pad, int32_t p,
                    int32_t q, int32_t mult, int32_t shift) {
    const int32_t cp = PADDED(c), ns = paired_width(q, stride, k);
    const int64_t slot = (int64_t)ns * 2 * cp;
    const rq_t rq = rq_make(mult, shift);
    for (int32_t b = 0; b < batch; ++b) {
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
}

/* int32 lanes per vector of this build: 16 under AVX-512BW, 8 under AVX2,
 * 4 otherwise */
int32_t vmcu_lanes(void) { return LANES; }

/* ------------------------------------------------------------------------ */
/* the fused inverted bottleneck                                             */
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

/* A whole inverted-bottleneck block, one output row at a time, the way
 * the paper's fused kernel streams it: pointwise expand (stride s1),
 * k x k depthwise at the composite stride s2*s3, pointwise project, each
 * requantized, plus the saturating residual add when `residual` is set
 * (then H == P and c_in == c_out).
 *
 * x[B, H, H, c_in] -> out[B, P, P, c_out]; hb = (H - 1) / s1 + 1 is the
 * expanded extent.  Weights are int16 pairs: we[ceil(c_in/2),
 * PADDED(c_mid), 2], wdw[k, ceil(k/2), PADDED(c_mid), 2] and
 * wp[ceil(c_mid/2), PADDED(c_out), 2].  Scratch: xrow[hb, c_in rounded up
 * to even] (its odd column zeroed), erow and ring as in vmcu_depthwise
 * over hb expanded pixels of PADDED(c_mid) lanes (the ring is the only
 * part of the expanded tensor ever held: expanded row r in slot r % k,
 * computed once), drow[P, PADDED(c_mid)], the project's input row, and
 * acc[hb, max(PADDED(c_mid), PADDED(c_out))] for the raw sums of each
 * stage in turn. */
void vmcu_bottleneck(const int8_t *x, int8_t *out, const int16_t *we,
                     const int16_t *wdw, const int16_t *wp, int16_t *xrow,
                     int16_t *erow, int16_t *ring, int16_t *drow,
                     int32_t *acc, int32_t batch, int32_t h, int32_t c_in,
                     int32_t c_mid, int32_t c_out, int32_t k, int32_t s1,
                     int32_t stride, int32_t pad, int32_t hb, int32_t p,
                     int32_t residual, int32_t m1, int32_t sh1, int32_t mdw,
                     int32_t shdw, int32_t m2, int32_t sh2) {
    const int32_t cm = PADDED(c_mid), co = PADDED(c_out);
    const int32_t ci = (c_in + 1) / 2 * 2, ns = paired_width(p, stride, k);
    const int64_t slot = (int64_t)ns * 2 * cm;
    const rq_t q1 = rq_make(m1, sh1), qd = rq_make(mdw, shdw),
               q2 = rq_make(m2, sh2);
    for (int32_t b = 0; b < batch; ++b) {
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
}
