// Internal declarations shared between the kernel front doors
// (kernels.cc) and the AVX2 backend (kernels_avx2.cc). The AVX2 symbols
// exist only on x86-64 (the backend TU is added conditionally by CMake)
// and must only be called after dispatch.h reports Avx2Supported().
#pragma once

#include <cstddef>
#include <cstdint>

#include "simd/kernels.h"

#if defined(__x86_64__)
namespace metaai::simd::detail {

Complex PhasedSumAvx2(const double* re, const double* im,
                      const std::uint8_t* codes, std::size_t n);
Complex ComplexDotAvx2(const Complex* a, const Complex* b, std::size_t n);
void HardDecideQamAvx2(const Complex* symbols, std::size_t n, int levels,
                       double norm, int half_bits, std::uint32_t* values);

}  // namespace metaai::simd::detail
#endif  // defined(__x86_64__)
