// Call counts at four library boundaries, collected in the traced build
// by linker wrapping (see CMakeLists.txt): every call the library makes
// across object files to these functions goes through a counting shim.
#pragma once

#include <cstdint>

namespace perfbench {

struct CallCounts {
  std::uint64_t phased_sum = 0;          // metaai::simd::PhasedSum
  std::uint64_t complex_normal = 0;      // metaai::Rng::ComplexNormal
  std::uint64_t multipath_response = 0;  // rf::MultipathChannel::Response(f)
  std::uint64_t parallel_for = 0;        // metaai::par::ParallelFor
};

/// Counts so far. Counting happens only while armed, so an unarmed
/// shim costs one relaxed load and the timed layers around it stay
/// close to the untraced build.
CallCounts ReadCallCounts();

/// Arms the kernel counters (PhasedSum, ComplexNormal, Response) and the
/// fan-out counter (ParallelFor). Arm the kernel counters only around
/// single-threaded replays: their counters are shared by all threads.
void ArmCallCounters(bool kernels, bool fan_outs);

/// False in the untraced build, whose counts stay zero.
bool CallCountersLinked();

}  // namespace perfbench
