// Scalar-vs-AVX2 parity suite for the dispatched hot-loop kernels.
//
// Per-kernel contract (simd/kernels.h):
//   * HardDecideQam is pure per-element arithmetic — scalar and AVX2
//     must agree bitwise;
//   * PhasedSum and ComplexDot lane-parallelize a reduction — AVX2 may
//     reassociate the sum, so parity is pinned to a tight relative
//     envelope scaled by the magnitude sum (the worst reassociation
//     error is a few ulps of that scale).
// Shapes deliberately include 1..9 and other non-multiples of the
// 4-wide double lanes so the remainder loops are exercised.
#include "simd/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "simd/dispatch.h"

namespace metaai::simd {
namespace {

constexpr std::size_t kShapes[] = {1,  2,  3,  4,   5,   6,   7,   8,
                                   9,  16, 31, 33,  64,  255, 256, 1000};

struct PhasedCase {
  std::vector<double> re;
  std::vector<double> im;
  std::vector<std::uint8_t> codes;
};

PhasedCase MakePhasedCase(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  PhasedCase c;
  c.re.resize(n);
  c.im.resize(n);
  c.codes.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    c.re[i] = rng.Normal();
    c.im[i] = rng.Normal();
    c.codes[i] = static_cast<std::uint8_t>(rng.UniformInt(std::uint64_t{4}));
  }
  return c;
}

/// Reassociation envelope for a lane-parallelized reduction: a few ulps
/// of the sum of term magnitudes.
void ExpectReductionParity(Complex got, Complex want, double scale) {
  const double tol = 4.0 * 2.220446049250313e-16 * scale;  // 4 ulps of scale
  EXPECT_NEAR(got.real(), want.real(), tol);
  EXPECT_NEAR(got.imag(), want.imag(), tol);
}

TEST(PhasedSumParityTest, DispatchMatchesScalarAcrossShapes) {
  for (const std::size_t n : kShapes) {
    const PhasedCase c = MakePhasedCase(n, 0x51ED0000 + n);
    const Complex scalar =
        PhasedSumScalar(c.re.data(), c.im.data(), c.codes.data(), n);
    double scale = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      scale += std::abs(c.re[i]) + std::abs(c.im[i]);
    }
    {
      ScopedLevel force(Level::kScalar);
      const Complex got =
          PhasedSum(c.re.data(), c.im.data(), c.codes.data(), n);
      // Fixed scalar level is the pre-SIMD loop: bitwise.
      EXPECT_EQ(got, scalar) << "n=" << n;
    }
    if (Avx2Supported()) {
      ScopedLevel force(Level::kAvx2);
      const Complex got =
          PhasedSum(c.re.data(), c.im.data(), c.codes.data(), n);
      ExpectReductionParity(got, scalar, scale);
    }
  }
}

TEST(PhasedSumParityTest, MaskedZeroEntriesAreAdditiveIdentities) {
  // The solver encodes masked atoms as zeroed SoA entries; the sum must
  // equal the skip-loop over the unmasked subset, bitwise at a fixed
  // scalar level (±0.0 adds never perturb the accumulator).
  const std::size_t n = 33;
  PhasedCase c = MakePhasedCase(n, 0xA5A5);
  std::vector<double> re_sub, im_sub;
  std::vector<std::uint8_t> codes_sub;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 3 == 0) {
      c.re[i] = 0.0;
      c.im[i] = 0.0;
    } else {
      re_sub.push_back(c.re[i]);
      im_sub.push_back(c.im[i]);
      codes_sub.push_back(c.codes[i]);
    }
  }
  const Complex masked =
      PhasedSumScalar(c.re.data(), c.im.data(), c.codes.data(), n);
  const Complex skipped = PhasedSumScalar(re_sub.data(), im_sub.data(),
                                          codes_sub.data(), re_sub.size());
  EXPECT_EQ(masked, skipped);
}

TEST(ComplexDotParityTest, DispatchMatchesScalarAcrossShapes) {
  for (const std::size_t n : kShapes) {
    Rng rng(0xD07 + n);
    std::vector<Complex> a(n), b(n);
    double scale = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = Complex(rng.Normal(), rng.Normal());
      b[i] = Complex(rng.Normal(), rng.Normal());
      scale += std::abs(a[i]) * std::abs(b[i]);
    }
    const Complex scalar = ComplexDotScalar(a.data(), b.data(), n);
    {
      ScopedLevel force(Level::kScalar);
      EXPECT_EQ(ComplexDot(a.data(), b.data(), n), scalar) << "n=" << n;
    }
    if (Avx2Supported()) {
      ScopedLevel force(Level::kAvx2);
      ExpectReductionParity(ComplexDot(a.data(), b.data(), n), scalar, scale);
    }
  }
}

TEST(HardDecideQamParityTest, DispatchIsBitwiseAcrossShapesAndOrders) {
  // levels/norm/half_bits per scheme: QPSK, 16QAM, 64QAM, 256QAM.
  struct Scheme {
    int levels;
    int half_bits;
  };
  for (const Scheme s :
       {Scheme{2, 1}, Scheme{4, 2}, Scheme{8, 3}, Scheme{16, 4}}) {
    const double levels_sq = static_cast<double>(s.levels) *
                             static_cast<double>(s.levels);
    const double norm = std::sqrt(2.0 / 3.0 * (levels_sq - 1.0));
    for (const std::size_t n : kShapes) {
      Rng rng(0x9A3 + n * 31 + static_cast<std::size_t>(s.levels));
      std::vector<Complex> symbols(n);
      for (std::size_t i = 0; i < n; ++i) {
        // Spread beyond the constellation so the clamp paths run too.
        symbols[i] = Complex(rng.Normal(0.0, 1.5), rng.Normal(0.0, 1.5));
      }
      std::vector<std::uint32_t> scalar(n), dispatched(n);
      HardDecideQamScalar(symbols.data(), n, s.levels, norm, s.half_bits,
                          scalar.data());
      for (const Level level : {Level::kScalar, Level::kAvx2}) {
        if (level == Level::kAvx2 && !Avx2Supported()) continue;
        ScopedLevel force(level);
        HardDecideQam(symbols.data(), n, s.levels, norm, s.half_bits,
                      dispatched.data());
        EXPECT_EQ(dispatched, scalar)
            << "levels=" << s.levels << " n=" << n
            << " level=" << LevelName(level);
      }
    }
  }
}

TEST(KernelDeterminismTest, RepeatedCallsAreBitwiseStable) {
  const std::size_t n = 255;
  const PhasedCase c = MakePhasedCase(n, 0xDE7);
  for (const Level level : {Level::kScalar, Level::kAvx2}) {
    if (level == Level::kAvx2 && !Avx2Supported()) continue;
    ScopedLevel force(level);
    const Complex first =
        PhasedSum(c.re.data(), c.im.data(), c.codes.data(), n);
    for (int rep = 0; rep < 8; ++rep) {
      EXPECT_EQ(PhasedSum(c.re.data(), c.im.data(), c.codes.data(), n), first)
          << LevelName(level);
    }
  }
}

TEST(SoaComplexTest, AssignSplitsPlanes) {
  SoaComplex soa;
  const std::vector<Complex> values = {{1.0, -2.0}, {0.5, 3.0}, {-4.0, 0.0}};
  soa.Assign(values);
  ASSERT_EQ(soa.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(soa.re[i], values[i].real());
    EXPECT_EQ(soa.im[i], values[i].imag());
  }
}

}  // namespace
}  // namespace metaai::simd
