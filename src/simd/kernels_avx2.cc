/**
 * @file
 * AVX2/FMA kernels. The whole file is compiled for the generic
 * target; every function carries target("avx2,fma") so the binary
 * still loads on CPUs without AVX2 (the dispatcher never calls these
 * there), and non-x86 builds compile an empty translation unit.
 *
 * Arithmetic layout: every dot-family value is one 8-lane FMA
 * accumulator chain over d, a fixed-order horizontal sum, then a
 * scalar tail for d % 8 — the batch kernels run the *same* per-row
 * sequence (just interleaved across rows for ILP), which is what
 * makes the cross-kernel bitwise invariants in simd.hh hold.
 */

#include "simd/kernels.hh"

#if REACH_SIMD_HAVE_X86_AVX2

#include <immintrin.h>

#include <cmath>

#include "simd/half.hh"

#define REACH_AVX2 __attribute__((target("avx2,fma")))

/**
 * The fp16 kernels additionally need F16C for VCVTPH2PS; the
 * dispatcher patches them back to scalar when the CPU lacks it, so
 * nothing else in this file depends on the extension.
 */
#define REACH_AVX2_F16 __attribute__((target("avx2,fma,f16c")))

namespace reach::simd::detail
{

namespace
{

/** Fixed-order reduction of one 8-lane accumulator. */
REACH_AVX2 inline float
hsum256(__m256 v)
{
    __m128 lo = _mm256_castps256_ps128(v);
    __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 s = _mm_add_ps(lo, hi);
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
    return _mm_cvtss_f32(s);
}

REACH_AVX2 float
dotAvx2(const float *a, const float *b, std::size_t d)
{
    __m256 acc = _mm256_setzero_ps();
    std::size_t t = 0;
    for (; t + 8 <= d; t += 8) {
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + t),
                              _mm256_loadu_ps(b + t), acc);
    }
    float s = hsum256(acc);
    for (; t < d; ++t)
        s += a[t] * b[t];
    return s;
}

REACH_AVX2 float
l2sqAvx2(const float *a, const float *b, std::size_t d)
{
    __m256 acc = _mm256_setzero_ps();
    std::size_t t = 0;
    for (; t + 8 <= d; t += 8) {
        __m256 diff = _mm256_sub_ps(_mm256_loadu_ps(a + t),
                                    _mm256_loadu_ps(b + t));
        acc = _mm256_fmadd_ps(diff, diff, acc);
    }
    float s = hsum256(acc);
    for (; t < d; ++t) {
        float diff = a[t] - b[t];
        s += diff * diff;
    }
    return s;
}

REACH_AVX2 float
normSqAvx2(const float *a, std::size_t d)
{
    return dotAvx2(a, a, d);
}

REACH_AVX2 void
axpyAvx2(float alpha, const float *x, float *y, std::size_t d)
{
    __m256 va = _mm256_set1_ps(alpha);
    std::size_t t = 0;
    for (; t + 8 <= d; t += 8) {
        __m256 vy = _mm256_fmadd_ps(va, _mm256_loadu_ps(x + t),
                                    _mm256_loadu_ps(y + t));
        _mm256_storeu_ps(y + t, vy);
    }
    for (; t < d; ++t)
        y[t] += alpha * x[t];
}

/**
 * Four rows per step: four independent accumulator chains give the
 * FMA units work to hide latency, while each chain performs exactly
 * the dotAvx2 sequence for its row.
 */
REACH_AVX2 void
dotBatchAvx2(const float *q, const float *rows, std::size_t n,
             std::size_t d, float *out)
{
    std::size_t r = 0;
    for (; r + 4 <= n; r += 4) {
        const float *r0 = rows + r * d;
        const float *r1 = r0 + d;
        const float *r2 = r1 + d;
        const float *r3 = r2 + d;
        __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
        __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
        std::size_t t = 0;
        for (; t + 8 <= d; t += 8) {
            __m256 vq = _mm256_loadu_ps(q + t);
            a0 = _mm256_fmadd_ps(vq, _mm256_loadu_ps(r0 + t), a0);
            a1 = _mm256_fmadd_ps(vq, _mm256_loadu_ps(r1 + t), a1);
            a2 = _mm256_fmadd_ps(vq, _mm256_loadu_ps(r2 + t), a2);
            a3 = _mm256_fmadd_ps(vq, _mm256_loadu_ps(r3 + t), a3);
        }
        float s0 = hsum256(a0), s1 = hsum256(a1);
        float s2 = hsum256(a2), s3 = hsum256(a3);
        for (; t < d; ++t) {
            float qv = q[t];
            s0 += qv * r0[t];
            s1 += qv * r1[t];
            s2 += qv * r2[t];
            s3 += qv * r3[t];
        }
        out[r] = s0;
        out[r + 1] = s1;
        out[r + 2] = s2;
        out[r + 3] = s3;
    }
    for (; r < n; ++r)
        out[r] = dotAvx2(q, rows + r * d, d);
}

/**
 * Indexed-row variant of dotBatchAvx2: same four interleaved per-row
 * chains, but row pointers come from ids[] instead of a stride — the
 * scattered-candidate (rerank) shape without a gather copy.
 */
REACH_AVX2 void
dotIdxAvx2(const float *q, const float *base, const std::uint32_t *ids,
           std::size_t n, std::size_t d, float *out)
{
    std::size_t r = 0;
    for (; r + 4 <= n; r += 4) {
        const float *r0 = base + std::size_t(ids[r]) * d;
        const float *r1 = base + std::size_t(ids[r + 1]) * d;
        const float *r2 = base + std::size_t(ids[r + 2]) * d;
        const float *r3 = base + std::size_t(ids[r + 3]) * d;
        __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
        __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
        std::size_t t = 0;
        for (; t + 8 <= d; t += 8) {
            __m256 vq = _mm256_loadu_ps(q + t);
            a0 = _mm256_fmadd_ps(vq, _mm256_loadu_ps(r0 + t), a0);
            a1 = _mm256_fmadd_ps(vq, _mm256_loadu_ps(r1 + t), a1);
            a2 = _mm256_fmadd_ps(vq, _mm256_loadu_ps(r2 + t), a2);
            a3 = _mm256_fmadd_ps(vq, _mm256_loadu_ps(r3 + t), a3);
        }
        float s0 = hsum256(a0), s1 = hsum256(a1);
        float s2 = hsum256(a2), s3 = hsum256(a3);
        for (; t < d; ++t) {
            float qv = q[t];
            s0 += qv * r0[t];
            s1 += qv * r1[t];
            s2 += qv * r2[t];
            s3 += qv * r3[t];
        }
        out[r] = s0;
        out[r + 1] = s1;
        out[r + 2] = s2;
        out[r + 3] = s3;
    }
    for (; r < n; ++r)
        out[r] = dotAvx2(q, base + std::size_t(ids[r]) * d, d);
}

REACH_AVX2 void
l2sqBatchAvx2(const float *q, const float *rows, std::size_t n,
              std::size_t d, float *out)
{
    std::size_t r = 0;
    for (; r + 4 <= n; r += 4) {
        const float *r0 = rows + r * d;
        const float *r1 = r0 + d;
        const float *r2 = r1 + d;
        const float *r3 = r2 + d;
        __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
        __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
        std::size_t t = 0;
        for (; t + 8 <= d; t += 8) {
            __m256 vq = _mm256_loadu_ps(q + t);
            __m256 d0 = _mm256_sub_ps(vq, _mm256_loadu_ps(r0 + t));
            __m256 d1 = _mm256_sub_ps(vq, _mm256_loadu_ps(r1 + t));
            __m256 d2 = _mm256_sub_ps(vq, _mm256_loadu_ps(r2 + t));
            __m256 d3 = _mm256_sub_ps(vq, _mm256_loadu_ps(r3 + t));
            a0 = _mm256_fmadd_ps(d0, d0, a0);
            a1 = _mm256_fmadd_ps(d1, d1, a1);
            a2 = _mm256_fmadd_ps(d2, d2, a2);
            a3 = _mm256_fmadd_ps(d3, d3, a3);
        }
        float s0 = hsum256(a0), s1 = hsum256(a1);
        float s2 = hsum256(a2), s3 = hsum256(a3);
        for (; t < d; ++t) {
            float qv = q[t];
            float e0 = qv - r0[t], e1 = qv - r1[t];
            float e2 = qv - r2[t], e3 = qv - r3[t];
            s0 += e0 * e0;
            s1 += e1 * e1;
            s2 += e2 * e2;
            s3 += e3 * e3;
        }
        out[r] = s0;
        out[r + 1] = s1;
        out[r + 2] = s2;
        out[r + 3] = s3;
    }
    for (; r < n; ++r)
        out[r] = l2sqAvx2(q, rows + r * d, d);
}

/**
 * ADC: expand 8 u8 codes to i32 lanes, add the per-lane LUT row
 * offsets (lane j reads subspace s+j, i.e. base lut + s*stride plus
 * j*stride + code), gather, accumulate with plain adds. Lane j sums
 * subspaces s, s+8, ... and hsum256 folds the lanes — the exact
 * order adcAccumScalar reproduces, so the backends agree bitwise.
 * The row stride is a runtime parameter: a 16-entry 4-bit table is
 * gathered as eight 16-float rows and the lanes never stray past a
 * row's valid entries.
 */
REACH_AVX2 inline __m256i
adcLaneBase(std::size_t stride)
{
    const int st = static_cast<int>(stride);
    return _mm256_setr_epi32(0 * st, 1 * st, 2 * st, 3 * st, 4 * st,
                             5 * st, 6 * st, 7 * st);
}

REACH_AVX2 float
adcAccumAvx2(const float *lut, std::size_t stride,
             const std::uint8_t *code, std::size_t m)
{
    const __m256i base = adcLaneBase(stride);
    __m256 acc = _mm256_setzero_ps();
    std::size_t s = 0;
    for (; s + 8 <= m; s += 8) {
        __m128i raw = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(code + s));
        __m256i idx = _mm256_add_epi32(_mm256_cvtepu8_epi32(raw), base);
        acc = _mm256_add_ps(
            acc, _mm256_i32gather_ps(lut + s * stride, idx, 4));
    }
    float out = hsum256(acc);
    for (; s < m; ++s)
        out += lut[s * stride + code[s]];
    return out;
}

/**
 * Four candidate rows per step keep 32 gather lanes in flight; each
 * row's chain is exactly the adcAccumAvx2 sequence.
 */
REACH_AVX2 void
adcBatchAvx2(const float *lut, std::size_t stride,
             const std::uint8_t *codes, std::size_t n, std::size_t m,
             float *out)
{
    const __m256i base = adcLaneBase(stride);
    std::size_t r = 0;
    for (; r + 4 <= n; r += 4) {
        const std::uint8_t *c0 = codes + r * m;
        const std::uint8_t *c1 = c0 + m;
        const std::uint8_t *c2 = c1 + m;
        const std::uint8_t *c3 = c2 + m;
        __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
        __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
        std::size_t s = 0;
        for (; s + 8 <= m; s += 8) {
            const float *row = lut + s * stride;
            __m256i i0 = _mm256_add_epi32(
                _mm256_cvtepu8_epi32(_mm_loadl_epi64(
                    reinterpret_cast<const __m128i *>(c0 + s))),
                base);
            __m256i i1 = _mm256_add_epi32(
                _mm256_cvtepu8_epi32(_mm_loadl_epi64(
                    reinterpret_cast<const __m128i *>(c1 + s))),
                base);
            __m256i i2 = _mm256_add_epi32(
                _mm256_cvtepu8_epi32(_mm_loadl_epi64(
                    reinterpret_cast<const __m128i *>(c2 + s))),
                base);
            __m256i i3 = _mm256_add_epi32(
                _mm256_cvtepu8_epi32(_mm_loadl_epi64(
                    reinterpret_cast<const __m128i *>(c3 + s))),
                base);
            a0 = _mm256_add_ps(a0, _mm256_i32gather_ps(row, i0, 4));
            a1 = _mm256_add_ps(a1, _mm256_i32gather_ps(row, i1, 4));
            a2 = _mm256_add_ps(a2, _mm256_i32gather_ps(row, i2, 4));
            a3 = _mm256_add_ps(a3, _mm256_i32gather_ps(row, i3, 4));
        }
        float s0 = hsum256(a0), s1 = hsum256(a1);
        float s2 = hsum256(a2), s3 = hsum256(a3);
        for (; s < m; ++s) {
            const float *row = lut + s * stride;
            s0 += row[c0[s]];
            s1 += row[c1[s]];
            s2 += row[c2[s]];
            s3 += row[c3[s]];
        }
        out[r] = s0;
        out[r + 1] = s1;
        out[r + 2] = s2;
        out[r + 3] = s3;
    }
    for (; r < n; ++r)
        out[r] = adcAccumAvx2(lut, stride, codes + r * m, m);
}

/** Dequantize 8 u16 sums: out = fma(scale, float(sum), bias). */
REACH_AVX2 inline void
adc4Emit8(__m128i sums, __m256 vscale, __m256 vbias, float *dst)
{
    __m256 f = _mm256_cvtepi32_ps(_mm256_cvtepu16_epi32(sums));
    _mm256_storeu_ps(dst, _mm256_fmadd_ps(vscale, f, vbias));
}

/**
 * 4-bit FastScan: per block of 32 candidates, each packed row feeds
 * two register-resident shuffles — the low nibbles index the even
 * subspace's 16-byte table (broadcast to both 128-bit halves), the
 * high nibbles the odd subspace's — and the u8 results widen into
 * two u16 accumulators (unpack lo/hi against zero). 32 table
 * lookups per shuffle replace 8 gather lanes. After the rows, the
 * four u16 octets dequantize in candidate order: acc0 holds lanes
 * 0-7 / 16-23, acc1 lanes 8-15 / 24-31. A partial last block lands
 * in a stack buffer so only out[0, n) is written, matching the
 * scalar reference exactly (integer sums + one fused multiply-add).
 */
REACH_AVX2 void
adcBatch4Avx2(const std::uint8_t *lut, const std::uint8_t *blocks,
              std::size_t n, std::size_t m, float scale, float bias,
              float *out)
{
    const std::size_t pairs = m / 2;
    const __m256i low4 = _mm256_set1_epi8(0x0F);
    const __m256i zero = _mm256_setzero_si256();
    const __m256 vscale = _mm256_set1_ps(scale);
    const __m256 vbias = _mm256_set1_ps(bias);
    for (std::size_t done = 0, b = 0; done < n;
         done += kAdc4BlockCands, ++b) {
        const std::uint8_t *blk = blocks + b * adc4BlockBytes(m);
        __m256i acc0 = zero;
        __m256i acc1 = zero;
        for (std::size_t p = 0; p < pairs; ++p) {
            __m256i packed = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(
                    blk + p * kAdc4BlockCands));
            __m256i lo = _mm256_and_si256(packed, low4);
            __m256i hi = _mm256_and_si256(
                _mm256_srli_epi16(packed, 4), low4);
            __m256i lutLo = _mm256_broadcastsi128_si256(
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                    lut + 2 * p * kAdc4LutStride)));
            __m256i lutHi = _mm256_broadcastsi128_si256(
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                    lut + (2 * p + 1) * kAdc4LutStride)));
            __m256i vlo = _mm256_shuffle_epi8(lutLo, lo);
            __m256i vhi = _mm256_shuffle_epi8(lutHi, hi);
            acc0 = _mm256_add_epi16(acc0,
                                    _mm256_unpacklo_epi8(vlo, zero));
            acc1 = _mm256_add_epi16(acc1,
                                    _mm256_unpackhi_epi8(vlo, zero));
            acc0 = _mm256_add_epi16(acc0,
                                    _mm256_unpacklo_epi8(vhi, zero));
            acc1 = _mm256_add_epi16(acc1,
                                    _mm256_unpackhi_epi8(vhi, zero));
        }
        if (m % 2) {
            // Odd tail subspace: only the low nibbles are codes (the
            // packer zeroes the phantom high nibbles).
            __m256i packed = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(
                    blk + pairs * kAdc4BlockCands));
            __m256i lo = _mm256_and_si256(packed, low4);
            __m256i lutLo = _mm256_broadcastsi128_si256(
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                    lut + (m - 1) * kAdc4LutStride)));
            __m256i vlo = _mm256_shuffle_epi8(lutLo, lo);
            acc0 = _mm256_add_epi16(acc0,
                                    _mm256_unpacklo_epi8(vlo, zero));
            acc1 = _mm256_add_epi16(acc1,
                                    _mm256_unpackhi_epi8(vlo, zero));
        }
        float buf[kAdc4BlockCands];
        const std::size_t valid = n - done;
        float *dst = valid >= kAdc4BlockCands ? out + done : buf;
        adc4Emit8(_mm256_castsi256_si128(acc0), vscale, vbias, dst);
        adc4Emit8(_mm256_castsi256_si128(acc1), vscale, vbias,
                  dst + 8);
        adc4Emit8(_mm256_extracti128_si256(acc0, 1), vscale, vbias,
                  dst + 16);
        adc4Emit8(_mm256_extracti128_si256(acc1, 1), vscale, vbias,
                  dst + 24);
        if (dst == buf) {
            for (std::size_t c = 0; c < valid; ++c)
                out[done + c] = buf[c];
        }
    }
}

/**
 * 2x4 register block: eight live accumulators (two A rows x four B
 * rows), each an 8-lane FMA chain over d. Remainders fall back to
 * 1x4 and then 1x1 tiles.
 */
REACH_AVX2 void
gemmNtAvx2(const float *a, std::size_t n, const float *b,
           std::size_t m, std::size_t d, float *c, std::size_t ldc)
{
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const float *a0 = a + i * d;
        const float *a1 = a0 + d;
        float *c0 = c + i * ldc;
        float *c1 = c0 + ldc;
        std::size_t j = 0;
        for (; j + 4 <= m; j += 4) {
            const float *b0 = b + j * d;
            const float *b1 = b0 + d;
            const float *b2 = b1 + d;
            const float *b3 = b2 + d;
            __m256 p00 = _mm256_setzero_ps(),
                   p01 = _mm256_setzero_ps(),
                   p02 = _mm256_setzero_ps(),
                   p03 = _mm256_setzero_ps();
            __m256 p10 = _mm256_setzero_ps(),
                   p11 = _mm256_setzero_ps(),
                   p12 = _mm256_setzero_ps(),
                   p13 = _mm256_setzero_ps();
            std::size_t t = 0;
            for (; t + 8 <= d; t += 8) {
                __m256 va0 = _mm256_loadu_ps(a0 + t);
                __m256 va1 = _mm256_loadu_ps(a1 + t);
                __m256 vb0 = _mm256_loadu_ps(b0 + t);
                __m256 vb1 = _mm256_loadu_ps(b1 + t);
                __m256 vb2 = _mm256_loadu_ps(b2 + t);
                __m256 vb3 = _mm256_loadu_ps(b3 + t);
                p00 = _mm256_fmadd_ps(va0, vb0, p00);
                p01 = _mm256_fmadd_ps(va0, vb1, p01);
                p02 = _mm256_fmadd_ps(va0, vb2, p02);
                p03 = _mm256_fmadd_ps(va0, vb3, p03);
                p10 = _mm256_fmadd_ps(va1, vb0, p10);
                p11 = _mm256_fmadd_ps(va1, vb1, p11);
                p12 = _mm256_fmadd_ps(va1, vb2, p12);
                p13 = _mm256_fmadd_ps(va1, vb3, p13);
            }
            float s00 = hsum256(p00), s01 = hsum256(p01);
            float s02 = hsum256(p02), s03 = hsum256(p03);
            float s10 = hsum256(p10), s11 = hsum256(p11);
            float s12 = hsum256(p12), s13 = hsum256(p13);
            for (; t < d; ++t) {
                float v0 = a0[t], v1 = a1[t];
                s00 += v0 * b0[t];
                s01 += v0 * b1[t];
                s02 += v0 * b2[t];
                s03 += v0 * b3[t];
                s10 += v1 * b0[t];
                s11 += v1 * b1[t];
                s12 += v1 * b2[t];
                s13 += v1 * b3[t];
            }
            c0[j] = s00;
            c0[j + 1] = s01;
            c0[j + 2] = s02;
            c0[j + 3] = s03;
            c1[j] = s10;
            c1[j + 1] = s11;
            c1[j + 2] = s12;
            c1[j + 3] = s13;
        }
        for (; j < m; ++j) {
            const float *bj = b + j * d;
            c0[j] = dotAvx2(a0, bj, d);
            c1[j] = dotAvx2(a1, bj, d);
        }
    }
    if (i < n) {
        dotBatchAvx2(a + i * d, b, m, d, c + i * ldc);
        // dotBatch writes m contiguous values == the final C row.
    }
}

/**
 * fp16 dot: one 8-lane FMA chain whose B operand streams through
 * VCVTPH2PS, hsum256, then an fma tail converting through the
 * software halfToFloat (bit-identical to the instruction, half.hh).
 * dotF16Scalar emulates exactly this sequence, so the backends agree
 * bitwise — the contract the shortlist fp16 determinism tests pin.
 */
REACH_AVX2_F16 float
dotF16Avx2(const float *a, const std::uint16_t *b, std::size_t d)
{
    __m256 acc = _mm256_setzero_ps();
    std::size_t t = 0;
    for (; t + 8 <= d; t += 8) {
        __m256 vb = _mm256_cvtph_ps(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(b + t)));
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + t), vb, acc);
    }
    float s = hsum256(acc);
    for (; t < d; ++t)
        s = std::fma(a[t], halfToFloat(b[t]), s);
    return s;
}

/**
 * Four centroid columns per step (four independent chains, the
 * dotBatchAvx2 shape) amortize each query load across four converts;
 * every chain performs exactly the dotF16Avx2 sequence for its
 * column, so the tiling never changes a value.
 */
REACH_AVX2_F16 void
gemmNtF16Avx2(const float *a, std::size_t n, const std::uint16_t *b,
              std::size_t m, std::size_t d, float *c, std::size_t ldc)
{
    for (std::size_t i = 0; i < n; ++i) {
        const float *ra = a + i * d;
        float *rc = c + i * ldc;
        std::size_t j = 0;
        for (; j + 4 <= m; j += 4) {
            const std::uint16_t *b0 = b + j * d;
            const std::uint16_t *b1 = b0 + d;
            const std::uint16_t *b2 = b1 + d;
            const std::uint16_t *b3 = b2 + d;
            __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
            __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
            std::size_t t = 0;
            for (; t + 8 <= d; t += 8) {
                __m256 va = _mm256_loadu_ps(ra + t);
                a0 = _mm256_fmadd_ps(
                    va,
                    _mm256_cvtph_ps(_mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(b0 + t))),
                    a0);
                a1 = _mm256_fmadd_ps(
                    va,
                    _mm256_cvtph_ps(_mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(b1 + t))),
                    a1);
                a2 = _mm256_fmadd_ps(
                    va,
                    _mm256_cvtph_ps(_mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(b2 + t))),
                    a2);
                a3 = _mm256_fmadd_ps(
                    va,
                    _mm256_cvtph_ps(_mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(b3 + t))),
                    a3);
            }
            float s0 = hsum256(a0), s1 = hsum256(a1);
            float s2 = hsum256(a2), s3 = hsum256(a3);
            for (; t < d; ++t) {
                float av = ra[t];
                s0 = std::fma(av, halfToFloat(b0[t]), s0);
                s1 = std::fma(av, halfToFloat(b1[t]), s1);
                s2 = std::fma(av, halfToFloat(b2[t]), s2);
                s3 = std::fma(av, halfToFloat(b3[t]), s3);
            }
            rc[j] = s0;
            rc[j + 1] = s1;
            rc[j + 2] = s2;
            rc[j + 3] = s3;
        }
        for (; j < m; ++j)
            rc[j] = dotF16Avx2(ra, b + j * d, d);
    }
}

/**
 * In-place shortlist epilogue over an (n x m) tile of dot products:
 * out = (qn + cnorm) - (p + p). Explicit intrinsic adds/sub in the
 * vector body and a multiply-free scalar tail, so this FMA-target TU
 * cannot contract anything — the bits equal the generic-TU
 * `qn + cnorm - 2.0f * p` the historical path produced (p + p is
 * exactly 2 * p).
 */
REACH_AVX2 void
scoreEpilogueAvx2(const float *qn, std::size_t n, const float *cnorm,
                  std::size_t m, float *out, std::size_t ldo)
{
    for (std::size_t i = 0; i < n; ++i) {
        float *row = out + i * ldo;
        const float q = qn[i];
        const __m256 vq = _mm256_set1_ps(q);
        std::size_t j = 0;
        for (; j + 8 <= m; j += 8) {
            __m256 vt = _mm256_add_ps(vq, _mm256_loadu_ps(cnorm + j));
            __m256 vp = _mm256_loadu_ps(row + j);
            _mm256_storeu_ps(
                row + j, _mm256_sub_ps(vt, _mm256_add_ps(vp, vp)));
        }
        for (; j < m; ++j) {
            const float t = q + cnorm[j];
            const float p = row[j];
            row[j] = t - (p + p);
        }
    }
}

REACH_AVX2 void
shortlistScoreAvx2(const float *a, const float *qn, std::size_t n,
                   const float *b, const float *cnorm, std::size_t m,
                   std::size_t d, float *out, std::size_t ldo)
{
    gemmNtAvx2(a, n, b, m, d, out, ldo);
    scoreEpilogueAvx2(qn, n, cnorm, m, out, ldo);
}

REACH_AVX2_F16 void
shortlistScoreF16Avx2(const float *a, const float *qn, std::size_t n,
                      const std::uint16_t *b, const float *cnorm,
                      std::size_t m, std::size_t d, float *out,
                      std::size_t ldo)
{
    gemmNtF16Avx2(a, n, b, m, d, out, ldo);
    scoreEpilogueAvx2(qn, n, cnorm, m, out, ldo);
}

} // namespace

const Kernels &
avx2Kernels()
{
    static const Kernels k{dotAvx2,      l2sqAvx2,   normSqAvx2,
                           axpyAvx2,     dotBatchAvx2, dotIdxAvx2,
                           l2sqBatchAvx2, gemmNtAvx2,
                           adcAccumAvx2, adcBatchAvx2, adcBatch4Avx2,
                           gemmNtF16Avx2, shortlistScoreAvx2,
                           shortlistScoreF16Avx2};
    return k;
}

} // namespace reach::simd::detail

#endif // REACH_SIMD_HAVE_X86_AVX2
