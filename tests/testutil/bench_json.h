// A small but complete "metaai.bench.v1" document, the shape
// bench/bench_util.h's BenchReport writes. Shared by the bench-diff
// tests and the JSON reader fuzz test.
#pragma once

namespace metaai::testutil {

inline constexpr const char* kBenchJson = R"({
  "schema": "metaai.bench.v1",
  "bench": "unit",
  "elapsed_s": 1.5,
  "headlines": {"accuracy": 0.875, "solve_time_ms": 12.0,
                "speedup_batched_vs_naive": 3.5,
                "throughput_batched_8t_rps": 540.0},
  "metrics": {
    "schema": "metaai.obs.v1",
    "counters": {"solver.calls": 7},
    "gauges": {"ota.accuracy": 0.875},
    "histograms": {
      "solver.sweeps": {"lower": 0, "upper_edges": [4],
                        "bucket_counts": [3], "count": 3, "sum": 6}
    }
  }
})";

}  // namespace metaai::testutil
