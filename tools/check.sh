#!/usr/bin/env bash
# Full local CI gate:
#   1. Strict build (-DMETAAI_WERROR=ON -DMETAAI_OBS=ON) + full ctest.
#   2. ASan/UBSan build (-DMETAAI_SANITIZE=ON) running the FULL ctest
#      suite (the thread pool, solver fan-out and telemetry merges all
#      deserve sanitizer coverage, not just the obs suites).
#   3. TSan build (-DMETAAI_SANITIZE=thread) exercising the thread-pool,
#      parallel-determinism, fault-injection/recovery, serving-runtime
#      and cascade-pipeline suites under real data race detection (the
#      cascade mapper fans per-symbol solves across the pool), the
#      prepared-link suites (deployments prepare their rounds on the
#      pool), plus the metaai_obs_report golden-file test against the
#      TSan-built tool.
#   4. UBSan-only build (-DMETAAI_SANITIZE=undefined, trap-on-error,
#      float-cast-overflow included) running the obs + serve suites plus
#      the layer-graph/cascade-solver suites: the health estimators,
#      alert engine and the cascade's product-of-sums objective do a lot
#      of floating-point edge-case math (variance recursions,
#      nearest-rank indexing, per-layer row scaling) where UB hides
#      behind ASan's noise floor. The JSON/JSONL reader, export, bench
#      diff and obs-report suites (JsonFuzz included) run here too, with
#      metaai_obs_report built for the ObsReportGolden test, and so does
#      ParserFuzz over the model/pattern file loaders and fault specs. The
#      link suites (receive combiner vs the sub-sample reference included)
#      run here for the slot-index float->int casts of the receiver.
#   5. SIMD parity + determinism under both dispatch paths: the kernel
#      parity/determinism suites and the solver/mapper determinism
#      suites run twice — METAAI_SIMD=off (forced scalar) and
#      METAAI_SIMD=auto (AVX2 where the CPU has it) — against both the
#      strict and the ASan/UBSan builds, so a lane-width bug or a
#      dispatch-dependent result can't slip through on either path.
#   6. Bench suite with baseline regression gating (run_benches.sh,
#      which invokes metaai_bench_diff when bench/baselines/ exists).
#
# Usage: tools/check.sh [build-dir-prefix]   (default: build-check)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
prefix="${1:-${repo_root}/build-check}"

echo "=== [1/6] strict build + ctest"
cmake -B "${prefix}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=Release -DMETAAI_WERROR=ON -DMETAAI_OBS=ON
cmake --build "${prefix}" -j"$(nproc)"
ctest --test-dir "${prefix}" --output-on-failure

echo "=== [2/6] ASan/UBSan full ctest"
cmake -B "${prefix}-asan" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=Debug -DMETAAI_SANITIZE=ON -DMETAAI_OBS=ON
cmake --build "${prefix}-asan" -j"$(nproc)"
ctest --test-dir "${prefix}-asan" --output-on-failure

echo "=== [3/6] TSan on thread-pool + determinism suites"
cmake -B "${prefix}-tsan" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=Debug -DMETAAI_SANITIZE=thread -DMETAAI_OBS=ON
cmake --build "${prefix}-tsan" -j"$(nproc)" \
  --target test_common test_obs test_fault test_integration test_serve \
  test_core test_fleet test_sim metaai_obs_report
ctest --test-dir "${prefix}-tsan" --output-on-failure \
  -R 'Parallel|Tracer|Telemetry|Fault|Serve|ObsReport|obs_report|Cascade|Fleet|Workload|Placement|Prepared'

echo "=== [4/6] UBSan on obs + serve suites"
cmake -B "${prefix}-ubsan" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=Debug -DMETAAI_SANITIZE=undefined -DMETAAI_OBS=ON
cmake --build "${prefix}-ubsan" -j"$(nproc)" \
  --target test_obs test_serve test_mts test_fleet test_parser_fuzz \
  test_sim metaai_obs_report
ubsan_filter='Ewma|Cusum|PageHinkley|WindowedQuantile|HealthMonitor'
ubsan_filter+='|HealthSignals|ObserveProbe|Alert|Quantile|Percentile|Serve'
ubsan_filter+='|Lifecycle|TimeSeries|LayerGraph|CascadeSolver|Fleet|Workload'
ubsan_filter+='|Json|Export|BenchDiff|DiffBench|DistillBaseline'
ubsan_filter+='|ExtractBenchMetric|ProbeJsonl|ObsReport|ParserFuzz'
ubsan_filter+='|OtaLink|CascadeLink|PreparedLink|PreparedDeployment'
ubsan_filter+='|ReceiveCombiner|SyncTest'
ctest --test-dir "${prefix}-ubsan" --output-on-failure -R "${ubsan_filter}"

echo "=== [5/6] SIMD parity + determinism under both dispatch paths"
simd_filter='Parity|Determini|DispatchTest|ParseLevel|LevelName|SoaComplex'
simd_filter+='|ConfigSolver|ConfigCache|WeightMapper|LayerGraph|Cascade'
for simd_mode in off auto; do
  for simd_dir in "${prefix}" "${prefix}-asan"; do
    echo "--- METAAI_SIMD=${simd_mode} in ${simd_dir##*/}"
    METAAI_SIMD="${simd_mode}" ctest --test-dir "${simd_dir}" \
      --output-on-failure -R "${simd_filter}"
  done
done

echo "=== [6/6] benches + baseline diff"
"${repo_root}/tools/run_benches.sh" "${prefix}-bench"

echo "check.sh: all gates passed"
