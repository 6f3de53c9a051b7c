/* Native serving leaves of the "turbo" execution backend.
 *
 * Compiled once per host by repro.kernels.native and called through
 * ctypes, which releases the GIL for the length of each call.  Every
 * function is pure over its arguments: no static or global state, and the
 * caller passes every scratch buffer, so concurrent serving threads never
 * share anything but read-only inputs.  The Python wrappers validate
 * shapes, dtypes and contiguity before passing pointers.
 *
 * Inner loops use GCC vector extensions with one int32 vector per channel
 * block, sized to the build target: a loop over a runtime channel count
 * would be vectorized for the int8 operand (64 lanes under AVX-512) and
 * leave the 16-80 channels of the served models to its scalar epilogue.
 * Weight operands arrive as int32 with the channel axis zero-padded to a
 * multiple of CPAD, so every vector loop runs whole blocks.
 */
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#if defined(__AVX512F__)
#define LANES 16
#elif defined(__AVX2__)
#define LANES 8
#else
#define LANES 4
#endif
/* channel multiple of the packed weights (native.CHANNEL_PAD) */
#define CPAD 16
#define PADDED(c) (((c) + CPAD - 1) / CPAD * CPAD)

/* unsigned lanes: accumulation wraps modulo 2**32 (defined behaviour),
 * which is exactly NumPy's int32 arithmetic */
typedef uint32_t vec __attribute__((vector_size(4 * LANES)));
typedef vec vec_mem __attribute__((aligned(4), may_alias));

static inline vec ld(const int32_t *p) { return *(const vec_mem *)p; }
static inline void st(int32_t *p, vec v) { *(vec_mem *)p = v; }

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

/* ------------------------------------------------------------------------ */
/* depthwise                                                                 */
/* ------------------------------------------------------------------------ */

/* One output row of a k x k depthwise convolution over a ring of int32
 * input rows: input row r ([wd][cpad]) sits in slot r % k.  r0 is the
 * window's first input row (negative inside the top padding); taps
 * outside the h x wd input are clipped, which is zero padding without a
 * padded copy.  Writes q pixels of cpad raw int32 accumulators.  Runs of
 * four pixels whose windows lie inside the row share each weight load. */
static void dw_row(const int32_t *ring, const int32_t *w, int32_t *acc,
                   int32_t r0, int32_t h, int32_t wd, int32_t cpad,
                   int32_t k, int32_t stride, int32_t pad, int32_t q) {
    const int32_t dr0 = r0 < 0 ? -r0 : 0;
    const int32_t dr1 = h - r0 < k ? h - r0 : k;
    const int32_t *rows[k];
    for (int32_t dr = dr0; dr < dr1; ++dr)
        rows[dr] = ring + (r0 + dr) % k * (int64_t)wd * cpad;
    const int64_t sx = (int64_t)stride * cpad;
    for (int32_t j = 0; j < q;) {
        const int32_t c0 = j * stride - pad;
        int32_t *o = acc + (int64_t)j * cpad;
        if (c0 >= 0 && j + 4 <= q && c0 + 3 * stride + k <= wd) {
            for (int32_t v = 0; v < cpad; v += LANES) {
                vec a0 = {0}, a1 = {0}, a2 = {0}, a3 = {0};
                for (int32_t dr = dr0; dr < dr1; ++dr) {
                    const int32_t *xs = rows[dr] + (int64_t)c0 * cpad + v;
                    const int32_t *ws = w + (int64_t)dr * k * cpad + v;
                    for (int32_t t = 0; t < k; ++t) {
                        const vec wv = ld(ws + (int64_t)t * cpad);
                        const int32_t *x0 = xs + (int64_t)t * cpad;
                        a0 += ld(x0) * wv;
                        a1 += ld(x0 + sx) * wv;
                        a2 += ld(x0 + 2 * sx) * wv;
                        a3 += ld(x0 + 3 * sx) * wv;
                    }
                }
                st(o + v, a0);
                st(o + cpad + v, a1);
                st(o + 2 * cpad + v, a2);
                st(o + 3 * cpad + v, a3);
            }
            j += 4;
            continue;
        }
        /* a pixel whose window is clipped: four vectors at a time */
        const int32_t ds0 = c0 < 0 ? -c0 : 0;
        const int32_t ds1 = wd - c0 < k ? wd - c0 : k;
        int32_t v = 0;
        for (; v + 4 * LANES <= cpad; v += 4 * LANES) {
            vec a0 = {0}, a1 = {0}, a2 = {0}, a3 = {0};
            for (int32_t dr = dr0; dr < dr1; ++dr) {
                const int32_t *xs = rows[dr] + (int64_t)(c0 + ds0) * cpad + v;
                const int32_t *ws = w + ((int64_t)dr * k + ds0) * cpad + v;
                for (int32_t t = 0; t < ds1 - ds0; ++t) {
                    const int32_t *x0 = xs + (int64_t)t * cpad;
                    const int32_t *w0 = ws + (int64_t)t * cpad;
                    a0 += ld(x0) * ld(w0);
                    a1 += ld(x0 + LANES) * ld(w0 + LANES);
                    a2 += ld(x0 + 2 * LANES) * ld(w0 + 2 * LANES);
                    a3 += ld(x0 + 3 * LANES) * ld(w0 + 3 * LANES);
                }
            }
            st(o + v, a0);
            st(o + v + LANES, a1);
            st(o + v + 2 * LANES, a2);
            st(o + v + 3 * LANES, a3);
        }
        for (; v < cpad; v += LANES) {
            vec a = {0};
            for (int32_t dr = dr0; dr < dr1; ++dr) {
                const int32_t *xs = rows[dr] + (int64_t)(c0 + ds0) * cpad + v;
                const int32_t *ws = w + ((int64_t)dr * k + ds0) * cpad + v;
                for (int32_t t = 0; t < ds1 - ds0; ++t)
                    a += ld(xs + (int64_t)t * cpad) * ld(ws + (int64_t)t * cpad);
            }
            st(o + v, a);
        }
        ++j;
    }
}

/* Depthwise k x k convolution of NHWC int8 x[B, H, W, C] with the packed
 * int32 weights w[k, k, PADDED(C)] into out[B, P, Q, C] at the given
 * stride and zero padding.  Each input row is widened once into the
 * int32 ring ring[k, W, PADDED(C)]; row[Q, PADDED(C)] holds one output
 * row's accumulators until its flat requantize. */
void vmcu_depthwise(const int8_t *x, const int32_t *w, int8_t *out,
                    int32_t *ring, int32_t *row, int32_t batch, int32_t h,
                    int32_t wd, int32_t c, int32_t k, int32_t stride,
                    int32_t pad, int32_t p, int32_t q, int32_t mult,
                    int32_t shift) {
    const int32_t cp = PADDED(c);
    const int64_t slot = (int64_t)wd * cp;
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
                const int8_t *xr = x + ((int64_t)b * h + next) * wd * c;
                int32_t *dst = ring + next % k * slot;
                if (cp == c) {
                    for (int64_t t = 0; t < slot; ++t) dst[t] = xr[t];
                } else {
                    for (int32_t s = 0; s < wd; ++s)
                        for (int32_t t = 0; t < c; ++t)
                            dst[(int64_t)s * cp + t] = xr[(int64_t)s * c + t];
                }
            }
            dw_row(ring, w, row, r0, h, wd, cp, k, stride, pad, q);
            rq_pixels(row, cp, c, q, NULL,
                      out + ((int64_t)b * p + i) * q * c, rq);
        }
    }
}

/* int32 lanes per vector of this build: 16 under AVX-512, 8 under AVX2 */
int32_t vmcu_lanes(void) { return LANES; }

#if LANES >= 8
/* ------------------------------------------------------------------------ */
/* the fused inverted bottleneck                                             */
/* ------------------------------------------------------------------------ */

/* buf[i] = requantize(buf[i]), int8 values kept in int32 lanes */
static void rq_inplace(int32_t *buf, int64_t n, rq_t q) {
    for (int64_t i = 0; i < n; ++i) buf[i] = rq1(buf[i], q);
}

/* Pointwise GEMM over n pixels: out[j][0:cpad] = sum_t in[j*ldi + t] *
 * w[t][0:cpad] over kdim terms, raw int32 accumulators.  Four pixels share
 * each weight-vector load; each input value is broadcast once. */
static void pw_rows(const int32_t *in, int64_t ldi, const int32_t *w,
                    int32_t *out, int32_t n, int32_t kdim, int32_t cpad) {
    int32_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const int32_t *i0 = in + (int64_t)j * ldi;
        const int32_t *i1 = i0 + ldi, *i2 = i1 + ldi, *i3 = i2 + ldi;
        int32_t *o = out + (int64_t)j * cpad;
        for (int32_t v = 0; v < cpad; v += LANES) {
            vec a0 = {0}, a1 = {0}, a2 = {0}, a3 = {0};
            for (int32_t t = 0; t < kdim; ++t) {
                const vec wv = ld(w + (int64_t)t * cpad + v);
                a0 += (uint32_t)i0[t] * wv;
                a1 += (uint32_t)i1[t] * wv;
                a2 += (uint32_t)i2[t] * wv;
                a3 += (uint32_t)i3[t] * wv;
            }
            st(o + v, a0);
            st(o + cpad + v, a1);
            st(o + 2 * cpad + v, a2);
            st(o + 3 * cpad + v, a3);
        }
    }
    /* the last n % 4 pixels: one pixel, four weight vectors at a time */
    for (; j < n; ++j) {
        const int32_t *i0 = in + (int64_t)j * ldi;
        int32_t *o = out + (int64_t)j * cpad;
        int32_t v = 0;
        for (; v + 4 * LANES <= cpad; v += 4 * LANES) {
            vec a0 = {0}, a1 = {0}, a2 = {0}, a3 = {0};
            for (int32_t t = 0; t < kdim; ++t) {
                const int32_t *ws = w + (int64_t)t * cpad + v;
                const uint32_t xv = (uint32_t)i0[t];
                a0 += xv * ld(ws);
                a1 += xv * ld(ws + LANES);
                a2 += xv * ld(ws + 2 * LANES);
                a3 += xv * ld(ws + 3 * LANES);
            }
            st(o + v, a0);
            st(o + v + LANES, a1);
            st(o + v + 2 * LANES, a2);
            st(o + v + 3 * LANES, a3);
        }
        for (; v < cpad; v += LANES) {
            vec a0 = {0};
            for (int32_t t = 0; t < kdim; ++t)
                a0 += (uint32_t)i0[t] * ld(w + (int64_t)t * cpad + v);
            st(o + v, a0);
        }
    }
}

/* A whole inverted-bottleneck block, one output row at a time, the way
 * the paper's fused kernel streams it: pointwise expand (stride s1),
 * k x k depthwise at the composite stride s2*s3 with clipped taps,
 * pointwise project, each requantized, plus the saturating residual add
 * when `residual` is set (then H == P and c_in == c_out).
 *
 * x[B, H, H, c_in] -> out[B, P, P, c_out]; hb = (H - 1) / s1 + 1 is the
 * expanded extent.  Weights are packed int32: we[c_in, PADDED(c_mid)],
 * wdw[k, k, PADDED(c_mid)], wp[c_mid, PADDED(c_out)].  Scratch: xrow
 * [hb, c_in], ring[k, hb, PADDED(c_mid)] (the only part of the expanded
 * tensor ever held: expanded row r in slot r % k, computed once),
 * dwrow[P, PADDED(c_mid)] and prow[P, PADDED(c_out)]. */
void vmcu_bottleneck(const int8_t *x, int8_t *out, const int32_t *we,
                     const int32_t *wdw, const int32_t *wp, int32_t *xrow,
                     int32_t *ring, int32_t *dwrow, int32_t *prow,
                     int32_t batch, int32_t h, int32_t c_in, int32_t c_mid,
                     int32_t c_out, int32_t k, int32_t s1, int32_t stride,
                     int32_t pad, int32_t hb, int32_t p, int32_t residual,
                     int32_t m1, int32_t sh1, int32_t mdw, int32_t shdw,
                     int32_t m2, int32_t sh2) {
    const int32_t cm = PADDED(c_mid), co = PADDED(c_out);
    const int64_t slot = (int64_t)hb * cm;
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
                const int8_t *xr = xb + (int64_t)next * s1 * h * c_in;
                for (int32_t s = 0; s < hb; ++s)
                    for (int32_t t = 0; t < c_in; ++t)
                        xrow[(int64_t)s * c_in + t] =
                            xr[(int64_t)s * s1 * c_in + t];
                int32_t *dst = ring + next % k * slot;
                pw_rows(xrow, c_in, we, dst, hb, c_in, cm);
                rq_inplace(dst, slot, q1);
            }
            dw_row(ring, wdw, dwrow, r0, hb, hb, cm, k, stride, pad, p);
            rq_inplace(dwrow, (int64_t)p * cm, qd);
            pw_rows(dwrow, cm, wp, prow, p, c_mid, co);
            rq_pixels(prow, co, c_out, p,
                      residual ? xb + (int64_t)i * h * c_in : NULL,
                      out + ((int64_t)b * p + i) * p * c_out, q2);
        }
    }
}
#endif
