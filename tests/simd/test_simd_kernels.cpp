/**
 * @file
 * The SIMD kernel layer's contract: scalar and dispatched backends
 * agree to rounding tolerance on random vectors (all tail lengths,
 * d = 0 / d = 1 edge cases), the cross-kernel bitwise invariants of
 * simd.hh hold per backend, and backend resolution obeys the
 * choice > REACH_SIMD > detection hierarchy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/rng.hh"
#include "simd/aligned.hh"
#include "simd/half.hh"
#include "simd/kernels.hh"
#include "simd/simd.hh"

using namespace reach;

namespace
{

std::vector<simd::Backend>
availableBackends()
{
    std::vector<simd::Backend> out{simd::Backend::scalar};
    if (simd::supported(simd::Backend::avx2))
        out.push_back(simd::Backend::avx2);
    return out;
}

std::vector<float>
randomVec(std::size_t n, std::uint64_t seed)
{
    sim::Rng rng(seed);
    std::vector<float> v(n);
    for (auto &x : v)
        x = static_cast<float>(rng.nextGaussian());
    return v;
}

/** Lengths that cover d=0, d=1, every d%8 residue and multi-block. */
const std::size_t kLengths[] = {0,  1,  2,  3,  5,  7,  8,  9,
                                15, 16, 17, 31, 33, 95, 96, 97};

float
relTol(float ref)
{
    return 1e-5f * std::abs(ref) + 1e-6f;
}

} // namespace

TEST(SimdDispatch, ScalarAlwaysSupported)
{
    EXPECT_TRUE(simd::supported(simd::Backend::scalar));
    EXPECT_STREQ(simd::name(simd::Backend::scalar), "scalar");
    EXPECT_STREQ(simd::name(simd::Backend::avx2), "avx2");
}

TEST(SimdDispatch, ExplicitChoiceWins)
{
    EXPECT_EQ(simd::resolve(simd::Choice::scalar),
              simd::Backend::scalar);
    if (simd::supported(simd::Backend::avx2))
        EXPECT_EQ(simd::resolve(simd::Choice::avx2),
                  simd::Backend::avx2);
    else
        EXPECT_EQ(simd::resolve(simd::Choice::avx2), simd::detect());
}

TEST(SimdDispatch, ParsesTheReachSimdGrammar)
{
    simd::Choice c;
    ASSERT_TRUE(simd::parseChoice("auto", c));
    EXPECT_EQ(c, simd::Choice::autoDetect);
    ASSERT_TRUE(simd::parseChoice("scalar", c));
    EXPECT_EQ(c, simd::Choice::scalar);
    ASSERT_TRUE(simd::parseChoice("avx2", c));
    EXPECT_EQ(c, simd::Choice::avx2);
    EXPECT_FALSE(simd::parseChoice("sse", c));
    EXPECT_FALSE(simd::parseChoice("", c));
    EXPECT_FALSE(simd::parseChoice(nullptr, c));
}

TEST(SimdDispatch, ResolvedBackendIsRunnable)
{
    EXPECT_TRUE(simd::supported(simd::resolve()));
    EXPECT_TRUE(simd::supported(simd::detect()));
}

/** Per-backend kernel behaviour on known values and edge lengths. */
class SimdBackend : public ::testing::TestWithParam<simd::Backend>
{
  protected:
    void
    SetUp() override
    {
        if (!simd::supported(GetParam()))
            GTEST_SKIP() << "backend not supported on this host";
    }

    const simd::Kernels &
    k() const
    {
        return simd::kernels(GetParam());
    }
};

TEST_P(SimdBackend, KnownValues)
{
    const float a[] = {1, 2, 3};
    const float b[] = {4, 5, 6};
    EXPECT_FLOAT_EQ(k().dot(a, b, 3), 32.0f);
    EXPECT_FLOAT_EQ(k().l2sq(a, b, 3), 27.0f);
    EXPECT_FLOAT_EQ(k().normSq(b, 3), 77.0f);
}

TEST_P(SimdBackend, ZeroAndOneLengthEdgeCases)
{
    const float a[] = {3.0f};
    const float b[] = {5.0f};
    EXPECT_EQ(k().dot(a, b, 0), 0.0f);
    EXPECT_EQ(k().l2sq(a, b, 0), 0.0f);
    EXPECT_EQ(k().normSq(a, 0), 0.0f);
    EXPECT_FLOAT_EQ(k().dot(a, b, 1), 15.0f);
    EXPECT_FLOAT_EQ(k().l2sq(a, b, 1), 4.0f);
    EXPECT_FLOAT_EQ(k().normSq(b, 1), 25.0f);

    float y0[] = {1.0f};
    k().axpy(2.0f, a, y0, 0); // no-op
    EXPECT_FLOAT_EQ(y0[0], 1.0f);
    k().axpy(2.0f, a, y0, 1);
    EXPECT_FLOAT_EQ(y0[0], 7.0f);

    float out = 42.0f;
    k().dotBatch(a, b, 0, 1, &out); // zero rows: out untouched
    EXPECT_FLOAT_EQ(out, 42.0f);
    k().l2sqBatch(a, b, 1, 0, &out); // zero dim: distance 0
    EXPECT_FLOAT_EQ(out, 0.0f);
}

TEST_P(SimdBackend, CrossKernelInvariantsBitwise)
{
    for (std::size_t d : kLengths) {
        auto q = randomVec(d, 100 + d);
        constexpr std::size_t n = 7; // exercises block + remainder
        auto rows = randomVec(n * d, 200 + d);
        std::vector<float> dots(n), dists(n);
        k().dotBatch(q.data(), rows.data(), n, d, dots.data());
        k().l2sqBatch(q.data(), rows.data(), n, d, dists.data());
        for (std::size_t r = 0; r < n; ++r) {
            const float *row = rows.data() + r * d;
            EXPECT_EQ(dots[r], k().dot(q.data(), row, d))
                << "dotBatch row " << r << " d=" << d;
            EXPECT_EQ(dists[r], k().l2sq(q.data(), row, d))
                << "l2sqBatch row " << r << " d=" << d;
        }
        EXPECT_EQ(k().normSq(q.data(), d), k().dot(q.data(), q.data(), d))
            << "normSq d=" << d;

        // dotIdx with a shuffled id order must match per-row dot (and
        // hence dotBatch on the corresponding gathered tile) bitwise.
        const std::uint32_t ids[n] = {5, 0, 3, 6, 1, 4, 2};
        std::vector<float> idx_dots(n);
        k().dotIdx(q.data(), rows.data(), ids, n, d, idx_dots.data());
        for (std::size_t r = 0; r < n; ++r) {
            EXPECT_EQ(idx_dots[r],
                      k().dot(q.data(), rows.data() + ids[r] * d, d))
                << "dotIdx row " << r << " d=" << d;
        }
    }
}

TEST_P(SimdBackend, AdcBatchMatchesAdcAccumBitwise)
{
    // Subspace counts covering m=0, m=1, every m%8 residue, and
    // multi-block; n=7 exercises the 4-row block and its remainder.
    const std::size_t kSubspaces[] = {0, 1, 3, 7, 8, 9, 16, 32, 33};
    for (std::size_t m : kSubspaces) {
        auto lut = randomVec(std::max<std::size_t>(m, 1) *
                                 simd::kAdcLutStride,
                             500 + m);
        constexpr std::size_t n = 7;
        sim::Rng rng(600 + m);
        std::vector<std::uint8_t> codes(n * std::max<std::size_t>(m, 1));
        for (auto &c : codes)
            c = static_cast<std::uint8_t>(rng.nextUInt(256));
        std::vector<float> out(n, -1.0f);
        k().adcBatch(lut.data(), simd::kAdcLutStride, codes.data(), n,
                     m, out.data());
        for (std::size_t r = 0; r < n; ++r) {
            EXPECT_EQ(out[r],
                      k().adcAccum(lut.data(), simd::kAdcLutStride,
                                   codes.data() + r * m, m))
                << "adcBatch row " << r << " m=" << m;
        }
    }
}

/**
 * The gather pair honours a runtime row stride: a table laid out at
 * 16 floats per row (the 4-bit codebook's lutStride) produces the
 * same sums as the equivalent 256-stride table, and — because the
 * tight table is allocated at exactly m*16 floats — any read past a
 * row's 16 valid entries would be out of bounds (ASan-visible) and
 * land on the next row's values (assertion-visible).
 */
TEST_P(SimdBackend, AdcHonoursNarrowLutStride)
{
    const std::size_t kSubspaces[] = {1, 3, 8, 9, 16, 32};
    for (std::size_t m : kSubspaces) {
        auto narrow = randomVec(m * simd::kAdc4LutStride, 900 + m);
        std::vector<float> wide(m * simd::kAdcLutStride, 1e30f);
        for (std::size_t s = 0; s < m; ++s) {
            std::copy_n(narrow.data() + s * simd::kAdc4LutStride,
                        simd::kAdc4LutStride,
                        wide.data() + s * simd::kAdcLutStride);
        }
        constexpr std::size_t n = 7;
        sim::Rng rng(950 + m);
        std::vector<std::uint8_t> codes(n * m);
        for (auto &c : codes)
            c = static_cast<std::uint8_t>(rng.nextUInt(16));
        std::vector<float> a(n), b(n);
        k().adcBatch(narrow.data(), simd::kAdc4LutStride, codes.data(),
                     n, m, a.data());
        k().adcBatch(wide.data(), simd::kAdcLutStride, codes.data(),
                     n, m, b.data());
        for (std::size_t r = 0; r < n; ++r)
            EXPECT_EQ(a[r], b[r]) << "row " << r << " m=" << m;
    }
}

TEST_P(SimdBackend, AdcEdgeCases)
{
    float lut[simd::kAdcLutStride] = {};
    lut[0] = 2.5f;
    lut[200] = 4.0f;
    const std::uint8_t code[] = {200};
    EXPECT_EQ(k().adcAccum(lut, simd::kAdcLutStride, code, 0), 0.0f);
    EXPECT_FLOAT_EQ(k().adcAccum(lut, simd::kAdcLutStride, code, 1),
                    4.0f);

    float out = 42.0f;
    // zero rows: out untouched
    k().adcBatch(lut, simd::kAdcLutStride, code, 0, 1, &out);
    EXPECT_FLOAT_EQ(out, 42.0f);
}

/**
 * The ADC pair is held to a stricter contract than the other
 * kernels: the fixed accumulation order makes scalar and avx2 agree
 * BITWISE (simd.hh), not just to tolerance.
 */
TEST(SimdAdc, BackendsAgreeBitwise)
{
    if (!simd::supported(simd::Backend::avx2))
        GTEST_SKIP() << "no avx2 on this host";
    const auto &sc = simd::kernels(simd::Backend::scalar);
    const auto &av = simd::kernels(simd::Backend::avx2);
    const std::size_t kSubspaces[] = {1, 5, 8, 12, 16, 32, 37};
    for (std::size_t m : kSubspaces) {
        auto lut = randomVec(m * simd::kAdcLutStride, 700 + m);
        constexpr std::size_t n = 11;
        sim::Rng rng(800 + m);
        std::vector<std::uint8_t> codes(n * m);
        for (auto &c : codes)
            c = static_cast<std::uint8_t>(rng.nextUInt(256));
        std::vector<float> a(n), b(n);
        sc.adcBatch(lut.data(), simd::kAdcLutStride, codes.data(), n,
                    m, a.data());
        av.adcBatch(lut.data(), simd::kAdcLutStride, codes.data(), n,
                    m, b.data());
        for (std::size_t r = 0; r < n; ++r)
            EXPECT_EQ(a[r], b[r]) << "row " << r << " m=" << m;
        EXPECT_EQ(sc.adcAccum(lut.data(), simd::kAdcLutStride,
                              codes.data(), m),
                  av.adcAccum(lut.data(), simd::kAdcLutStride,
                              codes.data(), m))
            << "m=" << m;
    }
}

namespace
{

/** Random packed 4-bit codes + the blocks adc4Pack builds of them. */
struct Adc4Fixture
{
    std::vector<std::uint8_t> lut;    // m x 16
    std::vector<std::uint8_t> codes;  // n x adc4CodeBytes(m)
    std::vector<std::uint8_t> blocks; // adc4PackedBytes(n, m)

    Adc4Fixture(std::size_t n, std::size_t m, std::uint64_t seed)
        : lut(std::max<std::size_t>(m, 1) * simd::kAdc4LutStride),
          codes(n * simd::adc4CodeBytes(m)),
          blocks(simd::adc4PackedBytes(n, m))
    {
        sim::Rng rng(seed);
        for (auto &x : lut)
            x = static_cast<std::uint8_t>(rng.nextUInt(256));
        for (auto &c : codes)
            c = static_cast<std::uint8_t>(rng.nextUInt(256));
        if (m % 2) {
            // The packer contract: phantom high nibbles are zero.
            for (std::size_t r = 0; r < n; ++r)
                codes[(r + 1) * simd::adc4CodeBytes(m) - 1] &= 0x0F;
        }
        simd::adc4Pack(codes.data(), n, m, blocks.data());
    }

    /** Plain-integer reference sum of candidate r. */
    std::uint32_t
    refSum(std::size_t r, std::size_t m) const
    {
        std::uint32_t sum = 0;
        const std::uint8_t *code =
            codes.data() + r * simd::adc4CodeBytes(m);
        for (std::size_t s = 0; s < m; ++s) {
            const std::uint8_t j = s % 2 == 0 ? code[s / 2] & 0x0F
                                              : code[s / 2] >> 4;
            sum += lut[s * simd::kAdc4LutStride + j];
        }
        return sum;
    }
};

} // namespace

/**
 * The 4-bit shuffle kernel against a from-scratch reference: exact
 * integer sums finished by one fused multiply-add, for every
 * odd/even subspace count and every block-tail shape.
 */
TEST_P(SimdBackend, AdcBatch4MatchesIntegerReference)
{
    const std::size_t kSubspaces[] = {0, 1, 2, 3, 5, 8, 32, 96};
    const std::size_t kCounts[] = {0, 1, 7, 31, 32, 33, 64, 100};
    const float scale = 0.03125f, bias = 1.75f;
    for (std::size_t m : kSubspaces) {
        for (std::size_t n : kCounts) {
            Adc4Fixture fx(n, m, 1000 + 17 * m + n);
            std::vector<float> out(std::max<std::size_t>(n, 1),
                                   -1.0f);
            k().adcBatch4(fx.lut.data(), fx.blocks.data(), n, m,
                          scale, bias, out.data());
            for (std::size_t r = 0; r < n; ++r) {
                const float want = std::fma(
                    scale, static_cast<float>(fx.refSum(r, m)), bias);
                EXPECT_EQ(out[r], want)
                    << "row " << r << " m=" << m << " n=" << n;
            }
            if (n == 0)
                EXPECT_EQ(out[0], -1.0f) << "zero rows wrote output";
        }
    }
}

/** Saturating sums: 256 subspaces of 255 stay exact in u16 lanes. */
TEST_P(SimdBackend, AdcBatch4SurvivesWorstCaseSums)
{
    const std::size_t m = 256, n = 33;
    Adc4Fixture fx(n, m, 4242);
    std::fill(fx.lut.begin(), fx.lut.end(), std::uint8_t{255});
    std::vector<float> out(n);
    k().adcBatch4(fx.lut.data(), fx.blocks.data(), n, m, 1.0f, 0.0f,
                  out.data());
    for (std::size_t r = 0; r < n; ++r)
        EXPECT_EQ(out[r], 65280.0f) << "row " << r;
}

/** 4-bit shuffle ADC: scalar and avx2 agree bitwise (simd.hh). */
TEST(SimdAdc, Batch4BackendsAgreeBitwise)
{
    if (!simd::supported(simd::Backend::avx2))
        GTEST_SKIP() << "no avx2 on this host";
    const auto &sc = simd::kernels(simd::Backend::scalar);
    const auto &av = simd::kernels(simd::Backend::avx2);
    const std::size_t kSubspaces[] = {1, 2, 3, 8, 31, 32, 96};
    const std::size_t kCounts[] = {1, 13, 32, 77, 128};
    for (std::size_t m : kSubspaces) {
        for (std::size_t n : kCounts) {
            Adc4Fixture fx(n, m, 5000 + 13 * m + n);
            const float scale = 0.017f, bias = -2.5f;
            std::vector<float> a(n), b(n);
            sc.adcBatch4(fx.lut.data(), fx.blocks.data(), n, m, scale,
                         bias, a.data());
            av.adcBatch4(fx.lut.data(), fx.blocks.data(), n, m, scale,
                         bias, b.data());
            for (std::size_t r = 0; r < n; ++r)
                EXPECT_EQ(a[r], b[r])
                    << "row " << r << " m=" << m << " n=" << n;
        }
    }
}

TEST_P(SimdBackend, GemmNtMatchesDotReference)
{
    // Odd shapes exercise the 2x4 block and both remainders.
    const std::size_t n = 5, m = 7;
    for (std::size_t d : kLengths) {
        auto a = randomVec(n * d, 300 + d);
        auto b = randomVec(m * d, 400 + d);
        std::vector<float> c(n * m, -1.0f);
        k().gemmNt(a.data(), n, b.data(), m, d, c.data(), m);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < m; ++j) {
                float ref =
                    k().dot(a.data() + i * d, b.data() + j * d, d);
                EXPECT_NEAR(c[i * m + j], ref, relTol(ref))
                    << "(" << i << "," << j << ") d=" << d;
            }
        }
    }
}

TEST_P(SimdBackend, GemmNtRespectsOutputStride)
{
    const std::size_t n = 3, m = 5, d = 17, ldc = 9;
    auto a = randomVec(n * d, 1);
    auto b = randomVec(m * d, 2);
    std::vector<float> c(n * ldc, 7.0f);
    k().gemmNt(a.data(), n, b.data(), m, d, c.data(), ldc);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = m; j < ldc; ++j)
            EXPECT_EQ(c[i * ldc + j], 7.0f) << "stride gap clobbered";
    }
}

namespace
{

/** Random half vectors plus their exactly-decoded float image. */
struct F16Fixture
{
    std::vector<std::uint16_t> h;
    std::vector<float> decoded;

    F16Fixture(std::size_t count, std::uint64_t seed)
        : h(count), decoded(count)
    {
        sim::Rng rng(seed);
        for (std::size_t i = 0; i < count; ++i) {
            h[i] = simd::floatToHalfRne(
                static_cast<float>(rng.nextGaussian()));
            decoded[i] = simd::halfToFloat(h[i]);
        }
    }
};

} // namespace

TEST_P(SimdBackend, GemmNtF16MatchesFp32OnDecodedValues)
{
    // The fp16 GEMM decodes to fp32 and accumulates in fp32, so on
    // the decoded image of the half matrix it must agree with the
    // fp32 GEMM to rounding tolerance at every tail length.
    const std::size_t n = 5, m = 7;
    for (std::size_t d : kLengths) {
        auto a = randomVec(n * d, 1300 + d);
        F16Fixture bf(m * d, 1400 + d);
        std::vector<float> c16(n * m, -1.0f), c32(n * m, -2.0f);
        k().gemmNtF16(a.data(), n, bf.h.data(), m, d, c16.data(), m);
        k().gemmNt(a.data(), n, bf.decoded.data(), m, d, c32.data(),
                   m);
        for (std::size_t i = 0; i < n * m; ++i)
            EXPECT_NEAR(c16[i], c32[i], relTol(c32[i]))
                << "element " << i << " d=" << d;
    }
}

TEST_P(SimdBackend, GemmNtF16RespectsOutputStride)
{
    const std::size_t n = 3, m = 5, d = 17, ldc = 9;
    auto a = randomVec(n * d, 3);
    F16Fixture bf(m * d, 4);
    std::vector<float> c(n * ldc, 7.0f);
    k().gemmNtF16(a.data(), n, bf.h.data(), m, d, c.data(), ldc);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = m; j < ldc; ++j)
            EXPECT_EQ(c[i * ldc + j], 7.0f) << "stride gap clobbered";
    }
}

/**
 * The fused scoring kernels against their own components, bitwise:
 * shortlistScore must produce exactly gemmNt's dots pushed through
 * the documented epilogue `qn + cnorm - 2 * dot` (this TU compiles
 * without -ffast-math or FMA contraction, so the float expression
 * below is the literal contract). Same for the fp16 pair. Odd n/m/d
 * exercise every tile remainder.
 */
TEST_P(SimdBackend, ShortlistScoreIsGemmNtPlusEpilogueBitwise)
{
    const std::size_t n = 5, m = 13, ldo = m + 3;
    for (std::size_t d : kLengths) {
        auto a = randomVec(n * d, 2100 + d);
        auto b = randomVec(m * d, 2200 + d);
        auto qn = randomVec(n, 2300 + d);
        auto cnorm = randomVec(m, 2400 + d);
        std::vector<float> prod(n * m, 0.0f);
        std::vector<float> fused(n * ldo, -1.0f);
        k().gemmNt(a.data(), n, b.data(), m, d, prod.data(), m);
        k().shortlistScore(a.data(), qn.data(), n, b.data(),
                           cnorm.data(), m, d, fused.data(), ldo);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < m; ++j) {
                const float want =
                    qn[i] + cnorm[j] - 2.0f * prod[i * m + j];
                EXPECT_EQ(fused[i * ldo + j], want)
                    << "(" << i << "," << j << ") d=" << d;
            }
            for (std::size_t j = m; j < ldo; ++j)
                EXPECT_EQ(fused[i * ldo + j], -1.0f)
                    << "stride gap clobbered, d=" << d;
        }
    }
}

TEST_P(SimdBackend, ShortlistScoreF16IsGemmNtF16PlusEpilogueBitwise)
{
    const std::size_t n = 5, m = 13, ldo = m + 3;
    for (std::size_t d : kLengths) {
        auto a = randomVec(n * d, 2500 + d);
        F16Fixture bf(m * d, 2600 + d);
        auto qn = randomVec(n, 2700 + d);
        auto cnorm = randomVec(m, 2800 + d);
        std::vector<float> prod(n * m, 0.0f);
        std::vector<float> fused(n * ldo, -1.0f);
        k().gemmNtF16(a.data(), n, bf.h.data(), m, d, prod.data(), m);
        k().shortlistScoreF16(a.data(), qn.data(), n, bf.h.data(),
                              cnorm.data(), m, d, fused.data(), ldo);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < m; ++j) {
                const float want =
                    qn[i] + cnorm[j] - 2.0f * prod[i * m + j];
                EXPECT_EQ(fused[i * ldo + j], want)
                    << "(" << i << "," << j << ") d=" << d;
            }
        }
    }
}

/**
 * The fp16 kernels are held to the ADC-style strict contract: the
 * fixed lane/fold/tail order makes scalar and avx2 agree BITWISE
 * (simd.hh), which is what allows the fp16 shortlist distances to be
 * backend-independent.
 */
TEST(SimdF16, BackendsAgreeBitwise)
{
    if (!simd::supported(simd::Backend::avx2))
        GTEST_SKIP() << "no avx2 on this host";
    const auto &sc = simd::kernels(simd::Backend::scalar);
    const auto &av = simd::kernels(simd::Backend::avx2);
    const std::size_t n = 5, m = 13;
    for (std::size_t d : kLengths) {
        auto a = randomVec(n * d, 3100 + d);
        F16Fixture bf(m * d, 3200 + d);
        auto qn = randomVec(n, 3300 + d);
        auto cnorm = randomVec(m, 3400 + d);

        std::vector<float> gs(n * m, -1.0f), ga(n * m, -2.0f);
        sc.gemmNtF16(a.data(), n, bf.h.data(), m, d, gs.data(), m);
        av.gemmNtF16(a.data(), n, bf.h.data(), m, d, ga.data(), m);
        for (std::size_t i = 0; i < n * m; ++i)
            EXPECT_EQ(gs[i], ga[i]) << "gemmNtF16 elt " << i
                                    << " d=" << d;

        std::vector<float> ss(n * m, -1.0f), sa(n * m, -2.0f);
        sc.shortlistScoreF16(a.data(), qn.data(), n, bf.h.data(),
                             cnorm.data(), m, d, ss.data(), m);
        av.shortlistScoreF16(a.data(), qn.data(), n, bf.h.data(),
                             cnorm.data(), m, d, sa.data(), m);
        for (std::size_t i = 0; i < n * m; ++i)
            EXPECT_EQ(ss[i], sa[i])
                << "shortlistScoreF16 elt " << i << " d=" << d;
    }
}

/**
 * The no-F16C fallback: with the test override asserting "this CPU
 * has no F16C", the avx2 table must hand out the scalar fp16 kernels
 * while keeping its own fp32 kernels — and revert when the override
 * is lifted. This exercises the exact table dispatch would use on a
 * pre-Ivy-Bridge-class AVX2 machine.
 */
TEST(SimdDispatch, F16cOverrideSwapsOnlyTheF16Kernels)
{
    if (!simd::supported(simd::Backend::avx2))
        GTEST_SKIP() << "no avx2 on this host";
    const auto &sc = simd::kernels(simd::Backend::scalar);
    const auto &full = simd::kernels(simd::Backend::avx2);

    simd::detail::setF16cOverrideForTest(true);
    const auto &patched = simd::kernels(simd::Backend::avx2);
    EXPECT_EQ(patched.gemmNtF16, sc.gemmNtF16);
    EXPECT_EQ(patched.shortlistScoreF16, sc.shortlistScoreF16);
    EXPECT_EQ(patched.gemmNt, full.gemmNt);
    EXPECT_EQ(patched.shortlistScore, full.shortlistScore);
    EXPECT_EQ(patched.dot, full.dot);
    EXPECT_NE(patched.gemmNt, sc.gemmNt);

    // The patched table must still be usable end to end.
    F16Fixture bf(16, 99);
    std::vector<float> a(16, 0.5f);
    float got = -1.0f, want = -2.0f;
    patched.gemmNtF16(a.data(), 1, bf.h.data(), 1, 16, &got, 1);
    sc.gemmNtF16(a.data(), 1, bf.h.data(), 1, 16, &want, 1);
    EXPECT_EQ(got, want);

    simd::detail::setF16cOverrideForTest(false);
    const auto &restored = simd::kernels(simd::Backend::avx2);
    EXPECT_EQ(restored.gemmNtF16, full.gemmNtF16);
    EXPECT_EQ(restored.shortlistScoreF16, full.shortlistScoreF16);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, SimdBackend, ::testing::ValuesIn(availableBackends()),
    [](const auto &info) { return simd::name(info.param); });

/**
 * Property: every supported backend agrees with scalar to rounding
 * tolerance on random vectors across all tail lengths.
 */
class SimdAgreement : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SimdAgreement, AllBackendsMatchScalarWithinTolerance)
{
    const auto &ref = simd::kernels(simd::Backend::scalar);
    for (simd::Backend b : availableBackends()) {
        const auto &k = simd::kernels(b);
        for (std::size_t d : kLengths) {
            auto x = randomVec(d, GetParam() * 31 + d);
            auto y = randomVec(d, GetParam() * 37 + d + 1);

            float rd = ref.dot(x.data(), y.data(), d);
            EXPECT_NEAR(k.dot(x.data(), y.data(), d), rd, relTol(rd));

            float rl = ref.l2sq(x.data(), y.data(), d);
            EXPECT_NEAR(k.l2sq(x.data(), y.data(), d), rl,
                        relTol(rl));

            float rn = ref.normSq(x.data(), d);
            EXPECT_NEAR(k.normSq(x.data(), d), rn, relTol(rn));

            auto ya = y, yb = y;
            ref.axpy(0.75f, x.data(), ya.data(), d);
            k.axpy(0.75f, x.data(), yb.data(), d);
            for (std::size_t t = 0; t < d; ++t)
                EXPECT_NEAR(yb[t], ya[t], relTol(ya[t]));
        }

        // Batched kernels at the paper's D=96 plus a ragged tail.
        for (std::size_t d : {96u, 33u}) {
            const std::size_t n = 13;
            auto q = randomVec(d, GetParam() * 41 + d);
            auto rows = randomVec(n * d, GetParam() * 43 + d);
            std::vector<float> got(n), want(n);
            ref.dotBatch(q.data(), rows.data(), n, d, want.data());
            k.dotBatch(q.data(), rows.data(), n, d, got.data());
            for (std::size_t r = 0; r < n; ++r)
                EXPECT_NEAR(got[r], want[r], relTol(want[r]));
            ref.l2sqBatch(q.data(), rows.data(), n, d, want.data());
            k.l2sqBatch(q.data(), rows.data(), n, d, got.data());
            for (std::size_t r = 0; r < n; ++r)
                EXPECT_NEAR(got[r], want[r], relTol(want[r]));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimdAgreement,
                         ::testing::Values(1, 7, 23, 42, 99));

TEST(AlignedAllocator, VectorStorageIs64ByteAligned)
{
    std::vector<float, simd::AlignedAllocator<float, 64>> v(33);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u);
    v.resize(1027);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u);
}
