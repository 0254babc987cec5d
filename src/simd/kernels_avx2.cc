// AVX2 backend for the simd kernels. This TU is compiled with -mavx2 on
// x86-64 only (see src/simd/CMakeLists.txt) and is reached exclusively
// through the runtime CPU check in the kernels.cc front doors, so no
// AVX2 instruction executes on hardware without the feature. -mfma is
// deliberately NOT enabled: fused multiply-adds round once instead of
// twice, which would push the AVX2 path beyond the documented last-ulp
// envelope around the scalar path.
#if defined(__x86_64__)

#include <immintrin.h>

#include <cmath>
#include <cstring>

#include "simd/kernels_internal.h"

namespace metaai::simd::detail {
namespace {

// Same PAM decision formula as kernels.cc (trunc(x + copysign(0.5, x)),
// clamped) for the scalar tails of this TU.
inline unsigned PamLevelTail(double amplitude, int levels) {
  double idx = (amplitude + static_cast<double>(levels - 1)) / 2.0;
  idx = std::trunc(idx + std::copysign(0.5, idx));
  if (idx < 0.0) idx = 0.0;
  if (idx > levels - 1) idx = static_cast<double>(levels - 1);
  return static_cast<unsigned>(idx);
}

inline unsigned GrayEncode(unsigned value) { return value ^ (value >> 1); }

// Deterministic horizontal reduction: lanes summed left to right.
inline double ReduceLanes(__m256d v) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, v);
  return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
}

}  // namespace

Complex PhasedSumAvx2(const double* re, const double* im,
                      const std::uint8_t* codes, std::size_t n) {
  const __m256d sign_bits = _mm256_set1_pd(-0.0);
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i two = _mm256_set1_epi64x(2);
  const __m256i zero = _mm256_setzero_si256();
  __m256d acc_re = _mm256_setzero_pd();
  __m256d acc_im = _mm256_setzero_pd();
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t m = 0; m < n4; m += 4) {
    std::uint32_t packed;
    std::memcpy(&packed, codes + m, sizeof(packed));
    const __m256i c = _mm256_cvtepu8_epi64(
        _mm_cvtsi32_si128(static_cast<int>(packed)));
    // code & 1 picks the component swap (j / -j), code & 2 the negation.
    const __m256d even_mask = _mm256_castsi256_pd(
        _mm256_cmpeq_epi64(_mm256_and_si256(c, one), zero));
    const __m256d neg_mask = _mm256_castsi256_pd(
        _mm256_cmpeq_epi64(_mm256_and_si256(c, two), two));
    const __m256d vre = _mm256_loadu_pd(re + m);
    const __m256d vim = _mm256_loadu_pd(im + m);
    const __m256d neg_im = _mm256_xor_pd(vim, sign_bits);
    // even codes contribute (re, im); odd codes (-im, re); the neg mask
    // then flips both components for codes 2 and 3.
    __m256d t_re = _mm256_blendv_pd(neg_im, vre, even_mask);
    __m256d t_im = _mm256_blendv_pd(vre, vim, even_mask);
    const __m256d flip = _mm256_and_pd(neg_mask, sign_bits);
    t_re = _mm256_xor_pd(t_re, flip);
    t_im = _mm256_xor_pd(t_im, flip);
    acc_re = _mm256_add_pd(acc_re, t_re);
    acc_im = _mm256_add_pd(acc_im, t_im);
  }
  double sum_re = ReduceLanes(acc_re);
  double sum_im = ReduceLanes(acc_im);
  for (std::size_t m = n4; m < n; ++m) {
    switch (codes[m]) {
      case 0:
        sum_re += re[m];
        sum_im += im[m];
        break;
      case 1:
        sum_re -= im[m];
        sum_im += re[m];
        break;
      case 2:
        sum_re -= re[m];
        sum_im -= im[m];
        break;
      default:
        sum_re += im[m];
        sum_im -= re[m];
        break;
    }
  }
  return {sum_re, sum_im};
}

Complex ComplexDotAvx2(const Complex* a, const Complex* b, std::size_t n) {
  const double* pa = reinterpret_cast<const double*>(a);
  const double* pb = reinterpret_cast<const double*>(b);
  // Two independent accumulator pairs hide the add latency; each ymm
  // holds two interleaved complex values.
  __m256d prod_a = _mm256_setzero_pd();   // a * b        (per lane)
  __m256d cross_a = _mm256_setzero_pd();  // a * swap(b)
  __m256d prod_b = _mm256_setzero_pd();
  __m256d cross_b = _mm256_setzero_pd();
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m256d va0 = _mm256_loadu_pd(pa + 2 * i);
    const __m256d vb0 = _mm256_loadu_pd(pb + 2 * i);
    const __m256d va1 = _mm256_loadu_pd(pa + 2 * i + 4);
    const __m256d vb1 = _mm256_loadu_pd(pb + 2 * i + 4);
    prod_a = _mm256_add_pd(prod_a, _mm256_mul_pd(va0, vb0));
    cross_a = _mm256_add_pd(
        cross_a, _mm256_mul_pd(va0, _mm256_permute_pd(vb0, 0x5)));
    prod_b = _mm256_add_pd(prod_b, _mm256_mul_pd(va1, vb1));
    cross_b = _mm256_add_pd(
        cross_b, _mm256_mul_pd(va1, _mm256_permute_pd(vb1, 0x5)));
  }
  const __m256d prod = _mm256_add_pd(prod_a, prod_b);
  const __m256d cross = _mm256_add_pd(cross_a, cross_b);
  alignas(32) double p[4];
  alignas(32) double x[4];
  _mm256_store_pd(p, prod);
  _mm256_store_pd(x, cross);
  // Per complex lane: re = ar*br - ai*bi, im = ar*bi + ai*br.
  double sum_re = (p[0] - p[1]) + (p[2] - p[3]);
  double sum_im = (x[0] + x[1]) + (x[2] + x[3]);
  for (std::size_t i = n4; i < n; ++i) {
    const double ar = pa[2 * i];
    const double ai = pa[2 * i + 1];
    const double br = pb[2 * i];
    const double bi = pb[2 * i + 1];
    sum_re += ar * br - ai * bi;
    sum_im += ar * bi + ai * br;
  }
  return {sum_re, sum_im};
}

void HardDecideQamAvx2(const Complex* symbols, std::size_t n, int levels,
                       double norm, int half_bits, std::uint32_t* values) {
  const double* ps = reinterpret_cast<const double*>(symbols);
  const __m256d norm_v = _mm256_set1_pd(norm);
  const __m256d lm1_v = _mm256_set1_pd(static_cast<double>(levels - 1));
  const __m256d half_v = _mm256_set1_pd(0.5);
  const __m256d zero_v = _mm256_setzero_pd();
  const __m256d sign_bits = _mm256_set1_pd(-0.0);
  const auto decide4 = [&](__m256d v) {
    // idx = trunc(x + copysign(0.5, x)) with x = (amp + (L-1)) / 2,
    // clamped into [0, L-1] — the exact scalar-kernel formula.
    const __m256d x = _mm256_mul_pd(
        _mm256_add_pd(_mm256_mul_pd(v, norm_v), lm1_v), half_v);
    const __m256d away = _mm256_or_pd(_mm256_and_pd(x, sign_bits), half_v);
    __m256d idx = _mm256_round_pd(_mm256_add_pd(x, away),
                                  _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    idx = _mm256_min_pd(_mm256_max_pd(idx, zero_v), lm1_v);
    return _mm256_cvtpd_epi32(idx);  // exact: idx is integral
  };
  const std::size_t n2 = n & ~std::size_t{1};
  for (std::size_t i = 0; i < n2; i += 2) {
    // One ymm = two symbols = [I0 Q0 I1 Q1] axis amplitudes.
    const __m128i lv = decide4(_mm256_loadu_pd(ps + 2 * i));
    const __m128i gray = _mm_xor_si128(lv, _mm_srli_epi32(lv, 1));
    alignas(16) std::int32_t g[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(g), gray);
    values[i] = (static_cast<std::uint32_t>(g[0]) << half_bits) |
                static_cast<std::uint32_t>(g[1]);
    values[i + 1] = (static_cast<std::uint32_t>(g[2]) << half_bits) |
                    static_cast<std::uint32_t>(g[3]);
  }
  for (std::size_t i = n2; i < n; ++i) {
    const unsigned i_bits = GrayEncode(PamLevelTail(symbols[i].real() * norm,
                                                    levels));
    const unsigned q_bits = GrayEncode(PamLevelTail(symbols[i].imag() * norm,
                                                    levels));
    values[i] = (i_bits << half_bits) | q_bits;
  }
}

}  // namespace metaai::simd::detail

#endif  // defined(__x86_64__)
