// metaai::simd — runtime-dispatched kernels for the three hot loops of
// the OTA pipeline (see ROADMAP "raw speed"):
//
//   * PhasedSum      — channel apply / solver objective re-evaluation:
//                      sum_m steering[m] * j^code[m] over a 2-bit phase
//                      configuration. The phasors are exactly
//                      {1, j, -1, -j}, so the product is pure sign/swap
//                      arithmetic; the kernel takes the steering split
//                      into structure-of-arrays re/im planes (see
//                      SoaComplex) so the AVX2 path runs on contiguous
//                      double lanes.
//   * ComplexDot     — complex matvec row kernel on common::Matrix
//                      storage (interleaved re/im), used by the NN
//                      pre-activation matvec.
//   * HardDecideQam  — Gray-mapped square-QAM hard decisions for a batch
//                      of received symbols.
//
// Every kernel has a `...Scalar` variant (the exact sequential loop the
// call sites ran before this layer existed — the scalar dispatch path is
// bitwise identical to the pre-SIMD code) and a front door that
// dispatches on dispatch.h's ActiveLevel(). AVX2 variants live in
// kernels_avx2.cc, compiled with -mavx2 on x86-64 only and reached only
// behind the runtime CPU check.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "simd/dispatch.h"

namespace metaai::simd {

using Complex = std::complex<double>;

/// Structure-of-arrays mirror of a complex vector: separate re/im
/// planes, the layout PhasedSum consumes. Call sites that apply many
/// phase configurations against one steering vector split it once and
/// reuse the planes.
struct SoaComplex {
  std::vector<double> re;
  std::vector<double> im;

  void Assign(std::span<const Complex> values) {
    re.resize(values.size());
    im.resize(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      re[i] = values[i].real();
      im[i] = values[i].imag();
    }
  }
  std::size_t size() const { return re.size(); }
};

/// sum_m (re[m] + j*im[m]) * j^codes[m], codes in 0..3 (mts::PhaseCode
/// semantics: phasors {1, j, -1, -j}). The scalar variant accumulates
/// sequentially, exactly like the original channel-apply loops.
Complex PhasedSum(const double* re, const double* im,
                  const std::uint8_t* codes, std::size_t n);
Complex PhasedSumScalar(const double* re, const double* im,
                        const std::uint8_t* codes, std::size_t n);

/// sum_m a[m] * b[m] over interleaved complex arrays (no conjugation —
/// this is the matvec row kernel, not an inner product).
Complex ComplexDot(const Complex* a, const Complex* b, std::size_t n);
Complex ComplexDotScalar(const Complex* a, const Complex* b, std::size_t n);

/// Gray-mapped hard decisions for square QAM: for each symbol, both PAM
/// axes are scaled back to odd-integer amplitudes (`norm`), decided to
/// the nearest of `levels` per-axis levels with round-half-away-from-
/// zero (computed as trunc(x + copysign(0.5, x)) in BOTH paths so
/// scalar and AVX2 are bitwise identical), Gray-encoded and packed as
/// (I << half_bits) | Q. `values` must hold `n` entries.
void HardDecideQam(const Complex* symbols, std::size_t n, int levels,
                   double norm, int half_bits, std::uint32_t* values);
void HardDecideQamScalar(const Complex* symbols, std::size_t n, int levels,
                         double norm, int half_bits, std::uint32_t* values);

}  // namespace metaai::simd
