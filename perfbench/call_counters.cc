// Counting shims for the traced build. The linker's --wrap=SYM routes
// undefined references to SYM into __wrap_SYM and makes __real_SYM name
// the original definition, so these shims see every cross-object call.
#include <atomic>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "call_counters.h"
#include "common/rng.h"
#include "rf/channel.h"

namespace perfbench {
namespace {

std::atomic<bool> kernels_armed{false};
std::atomic<bool> fan_outs_armed{false};
std::atomic<std::uint64_t> phased_sum{0};
std::atomic<std::uint64_t> complex_normal{0};
std::atomic<std::uint64_t> multipath_response{0};
std::atomic<std::uint64_t> parallel_for{0};

void Count(std::atomic<std::uint64_t>& counter,
           const std::atomic<bool>& armed) {
  if (armed.load(std::memory_order_relaxed)) {
    counter.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

CallCounts ReadCallCounts() {
  return {.phased_sum = phased_sum.load(),
          .complex_normal = complex_normal.load(),
          .multipath_response = multipath_response.load(),
          .parallel_for = parallel_for.load()};
}

void ArmCallCounters(bool kernels, bool fan_outs) {
  kernels_armed.store(kernels);
  fan_outs_armed.store(fan_outs);
}

bool CallCountersLinked() { return true; }

}  // namespace perfbench

using Complex = std::complex<double>;
using Task = std::function<void(std::size_t)>;

extern "C" {

__attribute__((weak)) Complex __real__ZN6metaai4simd9PhasedSumEPKdS2_PKhm(const double*,
                                                      const double*,
                                                      const std::uint8_t*,
                                                      std::size_t);
Complex __wrap__ZN6metaai4simd9PhasedSumEPKdS2_PKhm(const double* re,
                                                      const double* im,
                                                      const std::uint8_t* codes,
                                                      std::size_t n) {
  perfbench::Count(perfbench::phased_sum, perfbench::kernels_armed);
  return __real__ZN6metaai4simd9PhasedSumEPKdS2_PKhm(re, im, codes, n);
}

__attribute__((weak)) Complex __real__ZN6metaai3Rng13ComplexNormalEd(metaai::Rng*, double);
Complex __wrap__ZN6metaai3Rng13ComplexNormalEd(metaai::Rng* rng,
                                                double variance) {
  perfbench::Count(perfbench::complex_normal, perfbench::kernels_armed);
  return __real__ZN6metaai3Rng13ComplexNormalEd(rng, variance);
}

__attribute__((weak)) Complex __real__ZNK6metaai2rf16MultipathChannel8ResponseEd(
    const metaai::rf::MultipathChannel*, double);
Complex __wrap__ZNK6metaai2rf16MultipathChannel8ResponseEd(
    const metaai::rf::MultipathChannel* channel, double freq_offset_hz) {
  perfbench::Count(perfbench::multipath_response,
                   perfbench::kernels_armed);
  return __real__ZNK6metaai2rf16MultipathChannel8ResponseEd(channel,
                                                            freq_offset_hz);
}

__attribute__((weak)) void __real__ZN6metaai3par11ParallelForEmRKSt8functionIFvmEEi(std::size_t,
                                                               const Task&,
                                                               int);
void __wrap__ZN6metaai3par11ParallelForEmRKSt8functionIFvmEEi(std::size_t n,
                                                               const Task& fn,
                                                               int threads) {
  perfbench::Count(perfbench::parallel_for, perfbench::fan_outs_armed);
  __real__ZN6metaai3par11ParallelForEmRKSt8functionIFvmEEi(n, fn, threads);
}

}  // extern "C"
