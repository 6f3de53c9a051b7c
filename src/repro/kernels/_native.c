/* Native serving leaves of the "turbo" execution backend.
 *
 * Compiled once per host by repro.kernels.native and called through
 * ctypes, which releases the GIL for the length of each call.  Every
 * function is pure over its arguments and keeps its scratch on the stack:
 * no static or global state, so concurrent serving threads never share
 * anything but read-only inputs.  The Python wrappers validate shapes,
 * dtypes and contiguity before passing pointers.
 */
#include <stddef.h>
#include <stdint.h>

/* One gemmlowp requantize, exactly repro.quant.requantize: SQRDMULH by a
 * positive Q31 mantissa (whose only saturating case, a == m == INT32_MIN,
 * is then unreachable), a rounding divide by 2**shift with ties away from
 * zero, and an int8 clamp.  shift == 0 needs no branch: the mask is 0, so
 * the remainder never exceeds the threshold. */
static inline int32_t requant1(int32_t a, int64_t mult, int shift) {
    int64_t x = (int64_t)a * mult;
    x += x < 0 ? 1 - (1LL << 30) : (1LL << 30);
    x /= (1LL << 31); /* C division truncates toward zero, as gemmlowp's */
    int64_t mask = (int64_t)((UINT64_C(1) << shift) - 1);
    int64_t remainder = x & mask;
    int64_t threshold = (mask >> 1) + (x < 0);
    x = (x >> shift) + (remainder > threshold);
    return (int32_t)(x < -128 ? -128 : x > 127 ? 127 : x);
}

/* the bottleneck's skip connection: an int8 add that saturates */
static inline int8_t sat_add8(int32_t v, int8_t r) {
    v += r;
    return (int8_t)(v < -128 ? -128 : v > 127 ? 127 : v);
}

/* out[i] = requantize(acc[i]) [+ residual[i], saturating] over int32
 * accumulators; residual may be NULL. */
void vmcu_requant_i32(const int32_t *acc, const int8_t *residual,
                      int8_t *out, int64_t n, int32_t mult, int32_t shift) {
    if (residual) {
        for (int64_t i = 0; i < n; ++i)
            out[i] = sat_add8(requant1(acc[i], mult, shift), residual[i]);
    } else {
        for (int64_t i = 0; i < n; ++i)
            out[i] = (int8_t)requant1(acc[i], mult, shift);
    }
}

/* The same over float64-held accumulators (the BLAS GEMM's output).  They
 * hold integers, so the conversion through int64 is exact, and narrowing
 * to int32 wraps like NumPy's astype(np.int32). */
void vmcu_requant_f64(const double *acc, const int8_t *residual,
                      int8_t *out, int64_t n, int32_t mult, int32_t shift) {
    if (residual) {
        for (int64_t i = 0; i < n; ++i)
            out[i] = sat_add8(
                requant1((int32_t)(int64_t)acc[i], mult, shift), residual[i]);
    } else {
        for (int64_t i = 0; i < n; ++i)
            out[i] = (int8_t)requant1((int32_t)(int64_t)acc[i], mult, shift);
    }
}

/* channels accumulated per pass: bounds the stack scratch for any C */
#define DW_BLOCK 256

/* Depthwise k x k convolution of NHWC int8 x[B, H, W, C] with w[k, k, C]
 * into out[B, P, Q, C] at the given stride and zero padding.  Padding is
 * handled by clipping each window's tap range (no padded copy); the int32
 * accumulation wraps modulo 2**32 like NumPy's (unsigned arithmetic keeps
 * that defined), and the requantize epilogue runs on each block of
 * channels while it is still in registers/L1. */
void vmcu_depthwise(const int8_t *x, const int8_t *w, int8_t *out,
                    int32_t batch, int32_t h, int32_t wd, int32_t c,
                    int32_t k, int32_t stride, int32_t pad, int32_t p,
                    int32_t q, int32_t mult, int32_t shift) {
    for (int32_t b = 0; b < batch; ++b) {
        for (int32_t i = 0; i < p; ++i) {
            const int32_t r0 = i * stride - pad;
            const int32_t dr0 = r0 < 0 ? -r0 : 0;
            const int32_t dr1 = h - r0 < k ? h - r0 : k;
            for (int32_t j = 0; j < q; ++j) {
                const int32_t c0 = j * stride - pad;
                const int32_t ds0 = c0 < 0 ? -c0 : 0;
                const int32_t ds1 = wd - c0 < k ? wd - c0 : k;
                int8_t *o = out + (((int64_t)b * p + i) * q + j) * c;
                for (int32_t cb = 0; cb < c; cb += DW_BLOCK) {
                    const int32_t n = c - cb < DW_BLOCK ? c - cb : DW_BLOCK;
                    uint32_t acc[DW_BLOCK];
                    for (int32_t t = 0; t < n; ++t) acc[t] = 0;
                    for (int32_t dr = dr0; dr < dr1; ++dr) {
                        const int64_t row = (int64_t)b * h + r0 + dr;
                        for (int32_t ds = ds0; ds < ds1; ++ds) {
                            const int8_t *xs =
                                x + (row * wd + c0 + ds) * c + cb;
                            const int8_t *ws =
                                w + ((int64_t)dr * k + ds) * c + cb;
                            for (int32_t t = 0; t < n; ++t)
                                acc[t] += (uint32_t)((int32_t)xs[t] * ws[t]);
                        }
                    }
                    for (int32_t t = 0; t < n; ++t)
                        o[cb + t] = (int8_t)requant1((int32_t)acc[t], mult,
                                                     shift);
                }
            }
        }
    }
}
