#include "simd/kernels.h"

#include <cmath>

#include "simd/kernels_internal.h"

namespace metaai::simd {
namespace {

// PAM decision shared by both HardDecideQam paths: nearest of `levels`
// odd-integer amplitudes, computed as trunc(x + copysign(0.5, x)) so
// the AVX2 lane code (_mm256_round_pd toward zero) is bitwise
// identical. Differs from std::round only at half-ulp boundary inputs
// that a noisy receive sample never hits exactly.
inline unsigned PamLevel(double amplitude, int levels) {
  double idx = (amplitude + static_cast<double>(levels - 1)) / 2.0;
  idx = std::trunc(idx + std::copysign(0.5, idx));
  if (idx < 0.0) idx = 0.0;
  if (idx > levels - 1) idx = static_cast<double>(levels - 1);
  return static_cast<unsigned>(idx);
}

inline unsigned GrayEncode(unsigned value) { return value ^ (value >> 1); }

}  // namespace

Complex PhasedSumScalar(const double* re, const double* im,
                        const std::uint8_t* codes, std::size_t n) {
  double acc_re = 0.0;
  double acc_im = 0.0;
  for (std::size_t m = 0; m < n; ++m) {
    // Multiplying by {1, j, -1, -j} is a sign/swap on the components.
    switch (codes[m]) {
      case 0:
        acc_re += re[m];
        acc_im += im[m];
        break;
      case 1:
        acc_re -= im[m];
        acc_im += re[m];
        break;
      case 2:
        acc_re -= re[m];
        acc_im -= im[m];
        break;
      default:
        acc_re += im[m];
        acc_im -= re[m];
        break;
    }
  }
  return {acc_re, acc_im};
}

Complex ComplexDotScalar(const Complex* a, const Complex* b, std::size_t n) {
  Complex acc{0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void HardDecideQamScalar(const Complex* symbols, std::size_t n, int levels,
                         double norm, int half_bits, std::uint32_t* values) {
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned i_bits = GrayEncode(PamLevel(symbols[i].real() * norm,
                                                levels));
    const unsigned q_bits = GrayEncode(PamLevel(symbols[i].imag() * norm,
                                                levels));
    values[i] = (i_bits << half_bits) | q_bits;
  }
}

Complex PhasedSum(const double* re, const double* im,
                  const std::uint8_t* codes, std::size_t n) {
#if defined(__x86_64__)
  if (ActiveLevel() == Level::kAvx2) {
    return detail::PhasedSumAvx2(re, im, codes, n);
  }
#endif
  return PhasedSumScalar(re, im, codes, n);
}

Complex ComplexDot(const Complex* a, const Complex* b, std::size_t n) {
#if defined(__x86_64__)
  if (ActiveLevel() == Level::kAvx2) {
    return detail::ComplexDotAvx2(a, b, n);
  }
#endif
  return ComplexDotScalar(a, b, n);
}

void HardDecideQam(const Complex* symbols, std::size_t n, int levels,
                   double norm, int half_bits, std::uint32_t* values) {
#if defined(__x86_64__)
  if (ActiveLevel() == Level::kAvx2) {
    detail::HardDecideQamAvx2(symbols, n, levels, norm, half_bits, values);
    return;
  }
#endif
  HardDecideQamScalar(symbols, n, levels, norm, half_bits, values);
}

}  // namespace metaai::simd
