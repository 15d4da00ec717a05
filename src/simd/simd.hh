/**
 * @file
 * Runtime-dispatched SIMD kernel layer for the functional CBIR hot
 * paths. Every primitive exists in a scalar baseline and (on x86
 * hosts whose CPU reports AVX2+FMA) an AVX2/FMA variant; the variant
 * is picked once at runtime via __builtin_cpu_supports, so one binary
 * runs unchanged on non-AVX2 hosts.
 *
 * Backend selection, strongest to weakest:
 *   1. an explicit simd::Choice pinned on a config
 *      (parallel::ParallelConfig::simd, and through it
 *      CbirService::Config),
 *   2. the REACH_SIMD environment variable (auto|scalar|avx2),
 *   3. CPU auto-detection.
 *
 * Determinism contract (refined from the thread-level one in
 * parallel.hh): for a *fixed backend* every kernel is a pure function
 * of its inputs — per-row/per-pair arithmetic never depends on where
 * the row sits inside a batch or tile, so chunked parallel callers
 * stay bitwise identical at 1 and N threads. Across backends results
 * agree only to rounding tolerance (different accumulation orders and
 * FMA contraction), which is why reproducibility-sensitive runs pin
 * the backend.
 *
 * Cross-kernel invariants each backend upholds (tests assert them
 * bitwise):
 *   normSq(a, d)              == dot(a, a, d)
 *   dotBatch(q, rows, ...)[r] == dot(q, rows + r*d, d)
 *   l2sqBatch(q, rows,...)[r] == l2sq(q, rows + r*d, d)
 *   dotIdx(q, base, ids,..)[r]== dot(q, base + ids[r]*d, d)
 *   adcBatch(lut, st, codes,..)[r]
 *                             == adcAccum(lut, st, codes + r*m, m)
 *
 * The ADC kernels are stricter than the rest: the 8-bit gather sum
 * contains no multiplies, so both backends commit to one
 * accumulation order (eight interleaved partial sums folded by the
 * fixed hsum tree, then a sequential tail); the 4-bit shuffle sum is
 * an exact integer finished by one fused multiply-add. Either way
 * scalar/avx2 agree BITWISE, not just to tolerance.
 *
 * The fp16 kernels (gemmNtF16 / shortlistScoreF16) follow the ADC
 * model: both backends commit to one accumulation order — eight
 * fused-multiply-add lanes over d folded by the fixed hsum tree, an
 * fma tail, and an exact half -> float load conversion (software on
 * scalar, VCVTPH2PS on avx2; half.hh proves them identical) — so
 * scalar and avx2 agree BITWISE. The fp32 shortlistScore instead
 * inherits gemmNt's per-backend contract: for a fixed backend its
 * distances are bitwise identical to gemmNt followed by the
 * qn + cnorm - 2*dot epilogue, which is what keeps the blocked fp32
 * shortlist path bit-for-bit equal to the historical materialized
 * product.
 */

#ifndef REACH_SIMD_SIMD_HH
#define REACH_SIMD_SIMD_HH

#include <cstddef>
#include <cstdint>

namespace reach::simd
{

/**
 * Default row stride (in floats) of the 8-bit ADC lookup table: a
 * full u8 code range per subspace row, so any code indexes in bounds.
 * The gather kernels take the stride as a runtime parameter — a
 * codebook trained with fewer centroids (notably the 4-bit mode's 16)
 * passes its own row stride and the kernels never read past it.
 */
inline constexpr std::size_t kAdcLutStride = 256;

/** Row stride (in u8 entries) of the 4-bit shuffle ADC table. */
inline constexpr std::size_t kAdc4LutStride = 16;

/**
 * Candidates per 4-bit FastScan block: one AVX2 register of packed
 * bytes scores 32 candidates per shuffle sweep.
 */
inline constexpr std::size_t kAdc4BlockCands = 32;

/** Packed bytes one vector's 4-bit code occupies (two per byte). */
constexpr std::size_t
adc4CodeBytes(std::size_t m)
{
    return (m + 1) / 2;
}

/** Bytes of one FastScan block: adc4CodeBytes(m) rows of 32 lanes. */
constexpr std::size_t
adc4BlockBytes(std::size_t m)
{
    return adc4CodeBytes(m) * kAdc4BlockCands;
}

/** Bytes the block-transposed layout of @p n packed codes occupies. */
constexpr std::size_t
adc4PackedBytes(std::size_t n, std::size_t m)
{
    return (n + kAdc4BlockCands - 1) / kAdc4BlockCands *
           adc4BlockBytes(m);
}

/**
 * Transpose @p n packed 4-bit codes (rows of adc4CodeBytes(m) bytes;
 * byte p holds subspace 2p in the low nibble and 2p+1 in the high)
 * into the FastScan block layout adcBatch4 scans: blocks of 32
 * candidates, each a row-major [adc4CodeBytes(m)][32] tile whose byte
 * (p, c) is candidate c's packed byte p. Tail lanes of the last block
 * are zero-coded; @p blocks must hold adc4PackedBytes(n, m) bytes.
 * Plain byte moves — layout, thread count and backend cannot change
 * the result.
 */
void adc4Pack(const std::uint8_t *codes, std::size_t n, std::size_t m,
              std::uint8_t *blocks);

/** A concrete kernel implementation. */
enum class Backend : std::uint8_t { scalar, avx2 };

/** A backend request: pin one, or defer to REACH_SIMD / detection. */
enum class Choice : std::uint8_t { autoDetect, scalar, avx2 };

/** True when the host CPU can execute @p b. */
bool supported(Backend b);

/** Best CPU-supported backend (ignores REACH_SIMD). */
Backend detect();

/**
 * Resolve a request to a runnable backend: an explicit choice wins,
 * then REACH_SIMD, then detection. An explicitly requested backend
 * the CPU lacks falls back to detect() with a one-time warning on
 * stderr rather than crashing.
 */
Backend resolve(Choice c = Choice::autoDetect);

/** "scalar" / "avx2". */
const char *name(Backend b);

/**
 * Parse "auto" / "scalar" / "avx2" (the REACH_SIMD grammar).
 * @return true and sets @p out on success.
 */
bool parseChoice(const char *text, Choice &out);

/**
 * The dispatch table. All row/tile pointers refer to contiguous
 * row-major storage; @p d is the vector length (no alignment
 * requirement, though 64-byte aligned rows are fastest).
 */
struct Kernels
{
    /** sum_t a[t] * b[t] */
    float (*dot)(const float *a, const float *b, std::size_t d);
    /** sum_t (a[t] - b[t])^2 */
    float (*l2sq)(const float *a, const float *b, std::size_t d);
    /** sum_t a[t]^2, bitwise equal to dot(a, a, d). */
    float (*normSq)(const float *a, std::size_t d);
    /** y[t] += alpha * x[t] */
    void (*axpy)(float alpha, const float *x, float *y, std::size_t d);
    /** out[r] = dot(q, rows + r*d) for r in [0, n). */
    void (*dotBatch)(const float *q, const float *rows, std::size_t n,
                     std::size_t d, float *out);
    /**
     * Indexed rows: out[r] = dot(q, base + ids[r]*d) for r in [0, n).
     * The gather-free form of dotBatch for scattered candidates
     * (rerank); per-row arithmetic is identical.
     */
    void (*dotIdx)(const float *q, const float *base,
                   const std::uint32_t *ids, std::size_t n,
                   std::size_t d, float *out);
    /** out[r] = l2sq(q, rows + r*d) for r in [0, n). */
    void (*l2sqBatch)(const float *q, const float *rows, std::size_t n,
                      std::size_t d, float *out);
    /**
     * Register-blocked C = A * B^T micro-kernel over one row block:
     * A is (n x d), B is (m x d), C rows are written at stride
     * @p ldc >= m. Per-(i,j) accumulation never depends on n or the
     * block split, so row-block parallel callers stay deterministic.
     */
    void (*gemmNt)(const float *a, std::size_t n, const float *b,
                   std::size_t m, std::size_t d, float *c,
                   std::size_t ldc);
    /**
     * PQ asymmetric-distance accumulation over a table with @p stride
     * floats per subspace row:
     *   sum_s lut[s * stride + code[s]]  for s in [0, m).
     * Every code must be < stride (the codebook guarantees codes <
     * numCentroids() <= its lutStride()), so the kernel never reads
     * past a row's valid entries. Pure fp32 additions in the fixed
     * order documented above, so the result is bitwise identical
     * across backends.
     */
    float (*adcAccum)(const float *lut, std::size_t stride,
                      const std::uint8_t *code, std::size_t m);
    /** out[r] = adcAccum(lut, stride, codes + r*m, m), r in [0, n). */
    void (*adcBatch)(const float *lut, std::size_t stride,
                     const std::uint8_t *codes, std::size_t n,
                     std::size_t m, float *out);
    /**
     * 4-bit FastScan ADC: score @p n candidates from the packed block
     * layout adc4Pack builds, against a u8-quantized table of m rows
     * by kAdc4LutStride entries (each row register-resident in the
     * avx2 backend, looked up with _mm256_shuffle_epi8, 32 candidates
     * per sweep). Per candidate:
     *   out[r] = fma(scale, sum_s lut[s * 16 + code(r, s)], bias)
     * The sum is an exact integer (u16 lanes; m <= 256 keeps the
     * worst case 255 * 256 below overflow — validatePqConfig enforces
     * it) and the one fp op is a correctly-rounded fused
     * multiply-add, so scalar and avx2 agree BITWISE with no
     * lane-order emulation needed. @p blocks must span whole blocks
     * (adc4PackedBytes(n, m) bytes); only out[0, n) is written.
     */
    void (*adcBatch4)(const std::uint8_t *lut,
                      const std::uint8_t *blocks, std::size_t n,
                      std::size_t m, float scale, float bias,
                      float *out);
    /**
     * gemmNt over half-precision B: A is fp32 (n x d), B is packed
     * IEEE binary16 (m x d u16, built by floatToHalfRne), C rows at
     * stride @p ldc >= m, accumulated in fp32. Each C(i,j) is eight
     * fma lanes over d (halves converted exactly to fp32 on load),
     * the fixed hsum fold, then an fma tail — the same sequence on
     * both backends, so scalar == avx2 BITWISE (see the header
     * comment; half.hh carries the conversion proof).
     */
    void (*gemmNtF16)(const float *a, std::size_t n,
                      const std::uint16_t *b, std::size_t m,
                      std::size_t d, float *c, std::size_t ldc);
    /**
     * Fused shortlist scoring over one (n x m) tile:
     *   out[i*ldo + j] = (qn[i] + cnorm[j]) - 2 * dot(A_i, B_j)
     * with the dot computed exactly as gemmNt computes it — for a
     * fixed backend the distances are bitwise identical to running
     * gemmNt into a scratch tile and applying the epilogue, so a
     * column-blocked caller reproduces the historical materialized
     * B x M product bit for bit without ever allocating it. The
     * epilogue is contraction-free (t = qn + cnorm; t - (p + p)), so
     * per-backend bits never depend on the compiler fusing a
     * multiply-subtract.
     */
    void (*shortlistScore)(const float *a, const float *qn,
                           std::size_t n, const float *b,
                           const float *cnorm, std::size_t m,
                           std::size_t d, float *out,
                           std::size_t ldo);
    /**
     * shortlistScore over half-precision centroids: the gemmNtF16
     * accumulation followed by the same contraction-free epilogue.
     * Like gemmNtF16, scalar == avx2 BITWISE.
     */
    void (*shortlistScoreF16)(const float *a, const float *qn,
                              std::size_t n, const std::uint16_t *b,
                              const float *cnorm, std::size_t m,
                              std::size_t d, float *out,
                              std::size_t ldo);
};

/**
 * Kernel table of a backend (valid for the process lifetime). The
 * avx2 table's fp16 entries additionally need the F16C extension
 * (present on every AVX2 CPU, but hypervisors can mask it): when the
 * host reports avx2 without f16c, those two entries fall back to the
 * scalar implementations with a one-line stderr note and everything
 * else stays avx2 — REACH_SIMD=avx2 never faults on such a host.
 */
const Kernels &kernels(Backend b);

/** Shorthand: table of the resolved backend for @p c. */
inline const Kernels &
kernels(Choice c)
{
    return kernels(resolve(c));
}

} // namespace reach::simd

#endif // REACH_SIMD_SIMD_HH
