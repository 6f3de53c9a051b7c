/* Native serving leaves of the "turbo" execution backend.
 *
 * Compiled once per host by repro.kernels.native and called through
 * ctypes, which releases the GIL for the length of each call.  Every
 * function is pure over its arguments: no static or global state, and
 * every stage allocates its own scratch and frees it before returning, so
 * concurrent serving threads never share anything but read-only inputs.
 * An entry that cannot allocate its scratch returns nonzero and writes
 * nothing more.  The Python wrappers validate shapes, dtypes and
 * contiguity before passing pointers.
 *
 * A pipeline stage is described by one row of int64 fields (F_* below:
 * its kind, geometry, requantize multipliers and the addresses of its
 * packed weights).  vmcu_segment, the one compute entry, walks a table of
 * such rows, so a whole segment of a compiled model runs in one call, and
 * a lone stage is a one-row table.  The other exports describe the build:
 * vmcu_stage_fields, vmcu_lanes and vmcu_accumulate.
 *
 * Every multiply-accumulate runs the way the paper's kernels run it on the
 * MCU with SMLAD: int8 operands widened to int16 pairs, two products added
 * into each int32 lane by one instruction, here x86's pmaddwd, or
 * vpdpwssd, which also adds them to the accumulator, where the target has
 * AVX512-VNNI.  That is exact: an int8 product is at most 2**14 in
 * magnitude, so a pair sum is at most 2**15, and pmaddwd overflows only on
 * two (-32768)*(-32768) products, which int8 operands never produce.  The
 * lanes accumulate modulo 2**32, exactly NumPy's int32 arithmetic.
 *
 * Inner loops use GCC vector extensions with one int32 vector per channel
 * block, sized to the build target: a loop over a runtime channel count
 * would be vectorized for the int8 operand (64 lanes under AVX-512) and
 * leave the 16-80 channels of the served models to its scalar epilogue.
 * Weight operands arrive as int16 pairs with the channel axis zero-padded
 * to a multiple of CPAD, so every vector loop runs whole blocks.
 *
 * The two MAC loops, pw_rows (pointwise GEMM) and dw_row (the bottleneck's
 * depthwise taps), run register blocks of NP pixels by NV channel vectors
 * (ROW_BLOCKS).  A multiply-accumulate has a latency of several cycles but
 * the core issues one or two per cycle, so a block needs at least 8
 * independent accumulators to keep it busy; a block of four carries one
 * chain per pixel and stalls on it.  Each block ends in the requantize,
 * the way the paper's kernels requantize each result as it leaves the MAC
 * loop, and writes int8 pixels, the int16 operands of the next GEMM or the
 * paired int16 pixels of the depthwise's ring straight from the block
 * (put_block): no int32 row of accumulators is ever stored.
 */
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The ring's int16 pairs are built as the two halves of a 32-bit lane. */
_Static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
               "the paired int16 pixels assume a little-endian target");

/* The build target's predefined macros pick one pmaddwd: AVX-512BW (the
 * 512-bit pmaddwd is not in AVX-512F alone), AVX2, or SSE2, which every
 * x86-64 has; other targets run the portable form in madd().  AVX512-VNNI
 * with AVX-512BW fuses the accumulate into vpdpwssd (mac()). */
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
#if defined(__AVX512VNNI__) && defined(__AVX512BW__)
#define ACCUMULATE "vpdpwssd"
#elif defined(__SSE2__)
#define ACCUMULATE "pmaddwd"
#else
#define ACCUMULATE "portable pmaddwd"
#endif
/* channel multiple of the packed weights (native.CHANNEL_PAD) */
#define CPAD 16
#define PADDED(c) (((c) + CPAD - 1) / CPAD * CPAD)
/* vectors that hold c channels */
#define VECTORS(c) (((c) + LANES - 1) / LANES)

/* unsigned lanes: accumulation wraps modulo 2**32 (defined behaviour),
 * which is exactly NumPy's int32 arithmetic */
typedef uint32_t vec __attribute__((vector_size(4 * LANES)));
typedef int32_t svec __attribute__((vector_size(4 * LANES)));
/* the same bytes as int16 pairs: pair i is the low and high half of lane i */
typedef int16_t vec16 __attribute__((vector_size(4 * LANES)));
/* a vector's lanes narrowed to int16 and to int8 */
typedef int16_t lanes16 __attribute__((vector_size(2 * LANES)));
typedef int8_t lanes8 __attribute__((vector_size(LANES)));
typedef vec vec_mem __attribute__((aligned(4), may_alias));
typedef vec16 vec16_mem __attribute__((aligned(2), may_alias));
typedef lanes16 lanes16_mem __attribute__((aligned(2), may_alias));
typedef lanes8 lanes8_mem __attribute__((aligned(1), may_alias));

static inline vec16 ld16(const int16_t *p) { return *(const vec16_mem *)p; }

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

/* acc + madd(a, b): one vpdpwssd under AVX512-VNNI */
static inline vec mac(vec acc, vec16 a, vec16 b) {
#if defined(__AVX512VNNI__) && defined(__AVX512BW__)
    return (vec)_mm512_dpwssd_epi32((__m512i)acc, (__m512i)a, (__m512i)b);
#else
    return acc + madd(a, b);
#endif
}

/* the multiply-accumulate instruction of this build, for native.status() */
const char *vmcu_accumulate(void) { return ACCUMULATE; }

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

/* out[i] = requantize(acc[i]): the average pool's per-channel sums */
static void rq_store(const int32_t *acc, int8_t *out, int64_t n, rq_t q) {
    for (int64_t i = 0; i < n; ++i) out[i] = (int8_t)rq1(acc[i], q);
}

/* rq1's first step in every lane, y = (a*M + 2**30) >> 31: the target's
 * signed 32 x 32 -> 64 multiply of the even lanes and, shifted down, of
 * the odd lanes, then bits [31, 63) of each sum back in its lane.  (A
 * generic int64 vector multiply compiles to vpmullq, about twice as
 * slow.) */
static inline svec q31(svec a, int32_t m) {
#if defined(__AVX512BW__)
    const __m512i x = (__m512i)a, mv = _mm512_set1_epi32(m);
    const __m512i r = _mm512_set1_epi64(INT64_C(1) << 30);
    const __m512i e = _mm512_add_epi64(_mm512_mul_epi32(x, mv), r);
    const __m512i o =
        _mm512_add_epi64(_mm512_mul_epi32(_mm512_srli_epi64(x, 32), mv), r);
    return (svec)_mm512_mask_blend_epi32(0xAAAA, _mm512_srli_epi64(e, 31),
                                         _mm512_slli_epi64(o, 1));
#elif defined(__AVX2__)
    const __m256i x = (__m256i)a, mv = _mm256_set1_epi32(m);
    const __m256i r = _mm256_set1_epi64x(INT64_C(1) << 30);
    const __m256i e = _mm256_add_epi64(_mm256_mul_epi32(x, mv), r);
    const __m256i o =
        _mm256_add_epi64(_mm256_mul_epi32(_mm256_srli_epi64(x, 32), mv), r);
    return (svec)_mm256_blend_epi32(_mm256_srli_epi64(e, 31),
                                    _mm256_slli_epi64(o, 1), 0xAA);
#elif defined(__SSE2__)
    /* SSE2 multiplies unsigned lanes only (the signed pmuldq is SSE4.1);
     * M >= 0, so a negative lane's product comes out M * 2**32 too big */
    const __m128i x = (__m128i)a, mv = _mm_set1_epi32(m);
    const __m128i r = _mm_set1_epi64x(INT64_C(1) << 30);
    const __m128i hi = _mm_set_epi32(-1, 0, -1, 0);
    const __m128i neg = _mm_and_si128(_mm_srai_epi32(x, 31), mv);
    const __m128i e = _mm_add_epi64(
        _mm_sub_epi64(_mm_mul_epu32(x, mv), _mm_slli_epi64(neg, 32)), r);
    const __m128i o = _mm_add_epi64(
        _mm_sub_epi64(_mm_mul_epu32(_mm_srli_epi64(x, 32), mv),
                      _mm_and_si128(neg, hi)),
        r);
    return (svec)_mm_or_si128(_mm_andnot_si128(hi, _mm_srli_epi64(e, 31)),
                              _mm_and_si128(hi, _mm_slli_epi64(o, 1)));
#else
    typedef int64_t s64 __attribute__((vector_size(4 * LANES)));
    typedef uint64_t u64 __attribute__((vector_size(4 * LANES)));
    const u64 x = (u64)a, low = (u64){0} + UINT32_MAX;
    const u64 e = (u64)(((s64)(x << 32) >> 32) * m) + (UINT64_C(1) << 30);
    const u64 o = (u64)(((s64)x >> 32) * m) + (UINT64_C(1) << 30);
    return (svec)(((e >> 31) & low) | ((o << 1) & ~low));
#endif
}

/* every lane clamped to the int8 range */
static inline svec clamp8(svec y) {
#if defined(__AVX512BW__)
    return (svec)_mm512_max_epi32(
        _mm512_min_epi32((__m512i)y, _mm512_set1_epi32(127)),
        _mm512_set1_epi32(-128));
#elif defined(__AVX2__)
    return (svec)_mm256_max_epi32(
        _mm256_min_epi32((__m256i)y, _mm256_set1_epi32(127)),
        _mm256_set1_epi32(-128));
#else
    const svec lo = y < -128, hi = y > 127;
    return (y & ~(lo | hi)) | (-128 & lo) | (127 & hi);
#endif
}

/* rq1 in every lane (a true lane of a vector compare reads -1) */
static inline svec rq_vec(vec acc, rq_t q) {
    svec y = q31((svec)acc, q.m);
    const svec r = y & q.mask;
    const svec t = (q.mask >> 1) - (y < 0);
    y = (y >> q.shift) - (r > t);
    return clamp8(y);
}

/* ------------------------------------------------------------------------ */
/* the blocks' epilogue                                                      */
/* ------------------------------------------------------------------------ */

/* Where a register block's requantized results go (put_block):
 * - OUT_I8: int8 pixels of the c valid channels at dst, plus the int8
 *   pixels of the same layout at residual, saturating, unless NULL;
 * - OUT_I16: int16 pixels ld apart at dst, the next GEMM's operand;
 * - OUT_PAIRS: the depthwise ring slot at dst, ns paired pixels of ld
 *   channels [ns][ld][2], where input pixel x is the low half of pair
 *   pad + x and the high half of pair pad + x - 1 (the two horizontally
 *   adjacent taps one pmaddwd applies).  Halves outside the slot are
 *   dropped.  The ring is zeroed once, when it is allocated: the border
 *   halves no pixel lands in are never written, so they stay zero, the
 *   depthwise's zero padding. */
enum { OUT_I8, OUT_I16, OUT_PAIRS };
typedef struct {
    int32_t kind;
    rq_t q;
    void *dst;
    const int8_t *residual;
    int32_t c, ld, pad, ns;
} out_t;

/* n < LANES bytes in pieces of 8, 4, 2 and 1, none past byte n */
static inline void copy_short(int8_t *dst, const int8_t *src, int32_t n) {
#if LANES > 8
    if (n & 8) memcpy(dst, src, 8), dst += 8, src += 8;
#endif
#if LANES > 4
    if (n & 4) memcpy(dst, src, 4), dst += 4, src += 4;
#endif
    if (n & 2) memcpy(dst, src, 2), dst += 2, src += 2;
    if (n & 1) *dst = *src;
}

/* LANES int8 at p sign-extended into int32 lanes (GCC 12 widens a
 * __builtin_convertvector by more than twice one lane at a time) */
static inline svec ld8(const int8_t *p) {
#if defined(__AVX512BW__)
    return (svec)_mm512_cvtepi8_epi32(_mm_loadu_si128((const __m128i *)p));
#elif defined(__AVX2__)
    return (svec)_mm256_cvtepi8_epi32(_mm_loadl_epi64((const __m128i *)p));
#elif defined(__SSE2__)
    int32_t u;
    memcpy(&u, p, sizeof u);
    const __m128i b = _mm_cvtsi32_si128(u), w = _mm_unpacklo_epi8(b, b);
    return (svec)_mm_srai_epi32(_mm_unpacklo_epi16(w, w), 24);
#else
    return __builtin_convertvector(*(const lanes8_mem *)p, svec);
#endif
}

/* the requantized lanes y [+ the residual at res, saturating] as the first
 * n <= LANES int8 channels at dst */
static inline void put_i8(svec y, const int8_t *res, int8_t *dst,
                          int32_t n) {
    if (res) {
        int8_t part[LANES] = {0};
        if (n < LANES) copy_short(part, res, n), res = part;
        y = clamp8(y + ld8(res));
    }
    const lanes8 b = __builtin_convertvector(y, lanes8);
    if (n == LANES)
        *(lanes8_mem *)dst = b;
    else
        copy_short(dst, (const int8_t *)&b, n);
}

/* Requantize the np x nv register block acc[np][nv] (pixels j.., channel
 * vectors v..) and store it where out says.  One out-of-line copy serves
 * every block shape: inlined into each shape it ran no faster and nearly
 * doubled the compile time. */
static __attribute__((noinline)) void put_block(const out_t *out,
                                                const vec *acc, int32_t np,
                                                int32_t nv, int32_t j,
                                                int32_t v) {
    /* a copy, which the int8 stores below cannot alias */
    const out_t o = *out;
    if (o.kind == OUT_I8) {
        for (int32_t u = 0; u < nv; ++u) {
            const int32_t c0 = (v + u) * LANES;
            const int32_t n = o.c - c0 < LANES ? o.c - c0 : LANES;
            const int64_t at = (int64_t)j * o.c + c0;
            for (int32_t i = 0; i < np; ++i)
                put_i8(rq_vec(acc[i * nv + u], o.q),
                       o.residual ? o.residual + at + i * o.c : NULL,
                       (int8_t *)o.dst + at + i * o.c, n);
        }
    } else if (o.kind == OUT_I16) {
        for (int32_t i = 0; i < np; ++i) {
            int16_t *px = (int16_t *)o.dst + (int64_t)(j + i) * o.ld;
            for (int32_t u = 0; u < nv; ++u)
                *(lanes16_mem *)(px + (v + u) * LANES) =
                    __builtin_convertvector(rq_vec(acc[i * nv + u], o.q),
                                            lanes16);
        }
    } else {
        /* pixel j + i is the low half of pair s = pad + j + i and the
         * high half of pair s - 1: the pairs between two of the block's
         * pixels are written whole, and the two at its ends one half each
         * (the blocks beside it, or the zero border, hold the other) */
        const int64_t pp = 2 * (int64_t)o.ld;
        for (int32_t u = 0; u < nv; ++u) {
            int16_t *col = (int16_t *)o.dst + 2 * (int64_t)(v + u) * LANES;
            vec y = {0}, prev = {0};
            for (int32_t i = 0; i < np; ++i, prev = y) {
                const int32_t s = o.pad + j + i;
                y = (vec)rq_vec(acc[i * nv + u], o.q);
                if (s < 1 || s > o.ns) continue;
                vec_mem *pair = (vec_mem *)(col + (s - 1) * pp);
                const vec low = i ? prev : (vec)*pair;
                *pair = (low & 0xFFFF) | y << 16;
            }
            const int32_t s = o.pad + j + np - 1;
            if (s < o.ns) {
                vec_mem *pair = (vec_mem *)(col + s * pp);
                *pair = (*pair & 0xFFFF0000u) | (y & 0xFFFF);
            }
        }
    }
}

/* ------------------------------------------------------------------------ */
/* register blocks                                                           */
/* ------------------------------------------------------------------------ */

/* Channel vectors of the widest block: 4 x 4 blocks hold 16 of AVX-512's
 * 32 registers; AVX2 and SSE2 have 16, where 4 x 4 spills, so 4 x 2. */
#if LANES == 16
#define NVMAX 4
#else
#define NVMAX 2
#endif

/* The register blocks of a row of n pixels by nvec channel vectors:
 * columns of NVMAX vectors in 4-pixel blocks, then each vector left over
 * in 8-pixel blocks, so every block of a long enough row has 8 or more
 * accumulators.  BLOCK(NP, NV, j, v) runs the block at pixel j, vector
 * v. */
#define ROW_BLOCKS(n, nvec, BLOCK)                                        \
    do {                                                                  \
        int32_t v_ = 0;                                                   \
        for (; v_ + NVMAX <= (nvec); v_ += NVMAX)                         \
            COLUMN_BLOCKS(n, 4, NVMAX, v_, BLOCK);                        \
        for (; v_ < (nvec); ++v_) COLUMN_BLOCKS(n, 8, 1, v_, BLOCK);      \
    } while (0)

/* One column's blocks of NP pixels, then its last n % NP pixels in blocks
 * of 4, 2 and 1 (each block shape halves the one before it). */
#define COLUMN_BLOCKS(n, NP, NV, v, BLOCK)                                \
    do {                                                                  \
        int32_t j_ = 0;                                                   \
        for (; j_ + (NP) <= (n); j_ += (NP)) BLOCK(NP, NV, j_, v);        \
        if ((NP) > 4 && j_ + 4 <= (n)) BLOCK(4, NV, j_, v), j_ += 4;      \
        if (j_ + 2 <= (n)) BLOCK(2, NV, j_, v), j_ += 2;                  \
        if (j_ < (n)) BLOCK(1, NV, j_, v);                                \
    } while (0)

/* Hands a block's accumulators a[NP][NV] to put_block.  A block keeps
 * them in a fixed vec a[8][NVMAX] with constant NP and NV under unroll
 * pragmas, which GCC holds in registers (an array sized by a parameter
 * lands on the stack). */
static inline __attribute__((always_inline)) void block_done(
    const out_t *o, vec a[][NVMAX], int32_t j, int32_t v, const int NP,
    const int NV) {
    vec done[8 * NVMAX];
    _Pragma("GCC unroll 8") for (int i = 0; i < NP; ++i)
        _Pragma("GCC unroll 4") for (int u = 0; u < NV; ++u)
            done[i * NV + u] = a[i][u];
    put_block(o, done, NP, NV, j, v);
}

/* Pointwise GEMM block: NP pixels of int16 input rows ldi apart from
 * pixel j, by NV vectors from channel vector v of the weights w[kp][cpad]
 * [2] (wt int16 per pair row).  Each input pair is broadcast once per
 * pixel and each weight vector loaded once per pair. */
static inline __attribute__((always_inline)) void pw_block(
    const int16_t *in, int64_t ldi, const int16_t *w, int64_t wt,
    int32_t kp, const out_t *o, int32_t j, int32_t v, const int NP,
    const int NV) {
    vec a[8][NVMAX] = {{{0}}};
    const int16_t *xs = in + (int64_t)j * ldi;
    const int16_t *ws = w + 2 * (int64_t)v * LANES;
    for (int32_t t = 0; t < kp; ++t, xs += 2, ws += wt) {
        vec16 wv[NVMAX];
        _Pragma("GCC unroll 4") for (int u = 0; u < NV; ++u)
            wv[u] = ld16(ws + 2 * u * LANES);
        _Pragma("GCC unroll 8") for (int i = 0; i < NP; ++i) {
            const vec16 xv = bcast(xs + i * ldi);
            _Pragma("GCC unroll 4") for (int u = 0; u < NV; ++u)
                a[i][u] = mac(a[i][u], xv, wv[u]);
        }
    }
    block_done(o, a, j, v, NP, NV);
}

/* Pointwise GEMM over n pixels of int16 input rows ldi apart: pixel j's
 * result is the sum over kp pairs t of in[j][2t:2t+2] . w[t][:][0:2], on
 * the nvec channel vectors of the weights w[kp][cpad][2] that hold the
 * output channels, requantized and stored by o. */
static void pw_rows(const int16_t *in, int64_t ldi, const int16_t *w,
                    int32_t n, int32_t kp, int32_t cpad, int32_t nvec,
                    const out_t *o) {
    const int64_t wt = 2 * (int64_t)cpad; /* int16 per weight pair row */
#define PW_BLOCK(NP, NV, j, v) pw_block(in, ldi, w, wt, kp, o, j, v, NP, NV)
    ROW_BLOCKS(n, nvec, PW_BLOCK);
#undef PW_BLOCK
}

/* Depthwise block: NP output pixels from pixel j, by NV vectors from
 * channel vector v, over the ring rows rows[dr0..dr1) (paired pixels px
 * int16 apart, windows sx apart) and the weights w[k][kp][cpad][2].  Each
 * weight vector is loaded once per tap pair. */
static inline __attribute__((always_inline)) void dw_block(
    const int16_t *const *rows, int32_t dr0, int32_t dr1, const int16_t *w,
    int32_t kp, int64_t px, int64_t sx, const out_t *o, int32_t j,
    int32_t v, const int NP, const int NV) {
    vec a[8][NVMAX] = {{{0}}};
    const int64_t c0 = 2 * (int64_t)v * LANES;
    for (int32_t dr = dr0; dr < dr1; ++dr) {
        const int16_t *xs = rows[dr] + j * sx + c0;
        const int16_t *ws = w + dr * kp * px + c0;
        for (int32_t t = 0; t < kp; ++t, xs += 2 * px, ws += px) {
            vec16 wv[NVMAX];
            _Pragma("GCC unroll 4") for (int u = 0; u < NV; ++u)
                wv[u] = ld16(ws + 2 * u * LANES);
            _Pragma("GCC unroll 8") for (int i = 0; i < NP; ++i)
                _Pragma("GCC unroll 4") for (int u = 0; u < NV; ++u)
                    a[i][u] = mac(a[i][u], wv[u],
                                  ld16(xs + i * sx + 2 * u * LANES));
        }
    }
    block_done(o, a, j, v, NP, NV);
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

/* A ring of k zeroed slots of slot int16 each (OUT_PAIRS), aligned to 64
 * bytes: a paired pixel of PADDED(c) channels is a multiple of 64 bytes,
 * so no vector load of the ring splits a cache line.  NULL when it cannot
 * be allocated. */
static int16_t *ring_alloc(int32_t k, int64_t slot) {
    const size_t bytes = (size_t)k * slot * sizeof(int16_t);
    int16_t *ring = aligned_alloc(64, bytes);
    if (ring) memset(ring, 0, bytes);
    return ring;
}

/* One output row of a k x k depthwise convolution over a ring of paired
 * rows: input row r ([ns][cpad][2]) sits in slot r % k, slot int16
 * apart.  r0 is the window's first input row (negative inside the top
 * padding); rows outside the h input rows are clipped, which is zero
 * padding without a padded copy.  Weights are w[k][ceil(k/2)][cpad][2];
 * every window runs all its taps (an odd k's last pair meets a zero
 * weight).  q pixels of nvec channel vectors, stored by o. */
static void dw_row(const int16_t *ring, int64_t slot, const int16_t *w,
                   int32_t r0, int32_t h, int32_t cpad, int32_t nvec,
                   int32_t k, int32_t stride, int32_t q, const out_t *o) {
    const int32_t kp = (k + 1) / 2;
    const int32_t dr0 = r0 < 0 ? -r0 : 0;
    const int32_t dr1 = h - r0 < k ? h - r0 : k;
    const int16_t *rows[k];
    for (int32_t dr = dr0; dr < dr1; ++dr)
        rows[dr] = ring + (r0 + dr) % k * slot;
    const int64_t px = 2 * (int64_t)cpad; /* int16 per paired pixel */
    const int64_t sx = stride * px;
#define DW_BLOCK(NP, NV, j, v) \
    dw_block(rows, dr0, dr1, w, kp, px, sx, o, j, v, NP, NV)
    ROW_BLOCKS(q, nvec, DW_BLOCK);
#undef DW_BLOCK
}

/* int32 lanes per vector of this build: 16 under AVX-512BW, 8 under AVX2,
 * 4 otherwise */
int32_t vmcu_lanes(void) { return LANES; }

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

/* pixels widened and multiplied per pass of pw_pixels */
#define CHUNK 64

/* requantize(x . w) for n pixels of c_in int8 channels, sstride apart,
 * into n packed c_out-channel pixels, CHUNK pixels at a time through
 * xbuf[CHUNK, c_in rounded up to even] (its odd column zeroed). */
static void pw_pixels(const int8_t *x, int64_t sstride, int64_t n,
                      int32_t c_in, const int16_t *w, int32_t c_out, rq_t q,
                      int8_t *out, int16_t *xbuf) {
    const int32_t ci = (c_in + 1) / 2 * 2;
    out_t o = {.kind = OUT_I8, .q = q, .c = c_out};
    for (int64_t j = 0; j < n; j += CHUNK) {
        const int32_t m = n - j < CHUNK ? (int32_t)(n - j) : CHUNK;
        widen(x + j * sstride, sstride, xbuf, ci, m, c_in);
        o.dst = out + j * c_out;
        pw_rows(xbuf, ci, w, m, ci / 2, PADDED(c_out), VECTORS(c_out), &o);
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
    if (!xbuf) return 1;
    if (st == 1) {
        /* every pixel, in order: one run over the whole batch */
        pw_pixels(x, c_in, (int64_t)batch * h * wd, c_in, w, c_out, rq, out,
                  xbuf);
    } else {
        for (int32_t b = 0; b < batch; ++b)
            for (int32_t i = 0; i < p; ++i)
                pw_pixels(x + ((int64_t)b * h + (int64_t)i * st) * wd * c_in,
                          (int64_t)st * c_in, q, c_in, w, c_out, rq,
                          out + ((int64_t)b * p + i) * q * c_out, xbuf);
    }
    free(xbuf);
    return 0;
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
        rq_store((const int32_t *)acc, out + (int64_t)b * c, c, rq);
    }
    free(acc);
    return 0;
}

/* ------------------------------------------------------------------------ */
/* the fused inverted bottleneck                                             */
/* ------------------------------------------------------------------------ */

/* A bottleneck stage: the whole inverted-bottleneck block, one output row
 * at a time, the way the paper's fused kernel streams it: pointwise
 * expand, depthwise, pointwise project, each requantized (M0, M1, M2) as
 * it leaves its MAC blocks, plus the saturating residual add when
 * RESIDUAL is set (then H == P and C_IN == C_OUT).
 *
 * x[B, H, H, C_IN] -> out[B, P, P, C_OUT]; HB = (H - 1) / S1 + 1.  Weights
 * are int16 pairs: W0 = we[ceil(C_IN/2), PADDED(C_MID), 2], W1 = wdw[K,
 * ceil(K/2), PADDED(C_MID), 2] and W2 = wp[ceil(C_MID/2), PADDED(C_OUT),
 * 2].  Scratch: one widened input row xrow[HB, C_IN rounded up to even]
 * (its odd column zeroed); the ring of K paired expanded rows [K, ns,
 * PADDED(C_MID), 2], the only part of the expanded tensor ever held
 * (expanded row r in slot r % K, computed once, its pairs written by the
 * expand's blocks); and drow[P, PADDED(C_MID)], the depthwise's int16
 * output row and the project's input. */
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
    const int32_t cm = PADDED(c_mid), vm = VECTORS(c_mid);
    const int32_t ci = (c_in + 1) / 2 * 2, ns = paired_width(p, stride, k);
    const int64_t slot = (int64_t)ns * 2 * cm;
    int16_t *ring = ring_alloc(k, slot);
    int16_t *xrow = calloc((size_t)hb * ci, sizeof *xrow);
    int16_t *drow = malloc((size_t)p * cm * sizeof *drow);
    out_t expand = {.kind = OUT_PAIRS, .q = rq_at(d, F_M0), .ld = cm,
                    .pad = pad, .ns = ns};
    const out_t taps = {.kind = OUT_I16, .q = rq_at(d, F_M1), .dst = drow,
                        .ld = cm};
    out_t project = {.kind = OUT_I8, .q = rq_at(d, F_M2), .c = c_out};
    const int32_t err = !ring || !xrow || !drow;
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
                expand.dst = ring + next % k * slot;
                pw_rows(xrow, ci, we, hb, ci / 2, cm, vm, &expand);
            }
            dw_row(ring, slot, wdw, r0, hb, cm, vm, k, stride, p, &taps);
            project.dst = out + ((int64_t)b * p + i) * p * c_out;
            project.residual = residual ? xb + (int64_t)i * h * c_in : NULL;
            pw_rows(drow, cm, wp, p, (c_mid + 1) / 2, PADDED(c_out),
                    VECTORS(c_out), &project);
        }
    }
    free(ring);
    free(xrow);
    free(drow);
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
