// Micro-benchmarks (google-benchmark) for the heavy kernels: digital LNN
// inference, CNN inference, the metasurface configuration solver, one
// over-the-air symbol-sequence transmission (plus a depth-3 cascade one,
// with and without a prepared response plan), and the dispatched SIMD
// kernels (simd/kernels.h) in scalar-vs-AVX2 arms. These ground the
// energy model's server-compute assumptions in measured numbers on this
// machine and gate two wins: vectorization (>= 2x on at least two
// kernels when the host has AVX2) and prepared plans (>= 1.8x on the
// cascade transmission).
//
// Counter hygiene: google-benchmark picks its iteration counts
// adaptively, so any obs counters emitted inside the timing loops are
// run-dependent. The timing loops therefore run under a throwaway
// registry, and a separate fixed-iteration measurement pass re-runs each
// workload a pinned number of times under the report registry — those
// counters are deterministic and baseline-gated at zero tolerance
// (bench/baselines/micro_kernels.json).
#include <benchmark/benchmark.h>

#include <map>
#include <string>

#include "bench_util.h"
#include "data/encoding.h"
#include "nn/conv_net.h"
#include "simd/kernels.h"

namespace metaai::bench {
namespace {

const data::Dataset& SharedDataset() {
  static const data::Dataset ds =
      data::MakeMnistLike({.train_per_class = 20, .test_per_class = 5});
  return ds;
}

void BM_LnnInference(benchmark::State& state) {
  const auto& ds = SharedDataset();
  Rng rng(1);
  nn::ComplexLinearModel model(ds.train.dim, ds.num_classes);
  model.Initialize(rng);
  const auto x = data::EncodeSample(ds.train.features[0],
                                    rf::Modulation::kQam256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Predict(x));
  }
}
BENCHMARK(BM_LnnInference);

void BM_CnnInference(benchmark::State& state) {
  const auto& ds = SharedDataset();
  Rng rng(2);
  nn::ConvNet cnn({.height = 16,
                   .width = 16,
                   .conv1_channels = 8,
                   .conv2_channels = 16,
                   .hidden = 64,
                   .num_classes = ds.num_classes});
  cnn.Initialize(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cnn.Predict(ds.train.features[0]));
  }
}
BENCHMARK(BM_CnnInference);

void BM_ConfigSolverSingleTarget(benchmark::State& state) {
  const mts::Metasurface surface{mts::MetasurfaceSpec{}};
  const sim::OtaLink link(surface, DefaultLinkConfig());
  const auto steering = link.SteeringVector(0);
  Rng rng(3);
  const sim::Complex target = rng.UnitPhasor() * 100.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mts::SolveSingleTarget(steering, target));
  }
}
BENCHMARK(BM_ConfigSolverSingleTarget);

void BM_OtaTransmitSequence(benchmark::State& state) {
  const auto& ds = SharedDataset();
  Rng rng(4);
  const auto model = core::TrainModel(
      ds.train, core::TrainingOptions{.epochs = 1}, rng);
  const mts::Metasurface surface{mts::MetasurfaceSpec{}};
  const sim::OtaLink link(surface, DefaultLinkConfig());
  const auto mapped = core::MapWeights(model.network.weights(), link,
                       {.scheme = core::MappingScheme::kSequential});
  const auto symbols = data::EncodeSample(ds.train.features[0],
                                          rf::Modulation::kQam256);
  Rng noise_rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        link.TransmitSequence(symbols, mapped.rounds[0], 0.0, noise_rng));
  }
}
BENCHMARK(BM_OtaTransmitSequence);

// Prepared response plans: one 64-symbol transmission over a depth-3
// cascade of 16x16 panels. Unprepared, every symbol pays three PhasedSum
// calls (front panel plus two upper layers); prepared, the link goes
// straight to the receive loop. GatePreparedLink scores the two arms.
void BM_OtaTransmitCascade(benchmark::State& state, bool prepared) {
  constexpr std::size_t kSymbols = 64;
  const mts::LayerGraph graph(std::vector<mts::PhysicalLayerSpec>(3));
  sim::OtaLink link(graph, DefaultLinkConfig());
  Rng rng(9);
  const auto random_schedule = [&](std::size_t atoms) {
    sim::MtsSchedule schedule(kSymbols, std::vector<mts::PhaseCode>(atoms));
    for (auto& codes : schedule) {
      for (auto& code : codes) {
        code = static_cast<mts::PhaseCode>(rng.UniformInt(std::uint64_t{4}));
      }
    }
    return schedule;
  };
  const sim::MtsSchedule schedule = random_schedule(graph.front().num_atoms());
  sim::LayerSchedules upper;
  for (std::size_t l = 1; l < graph.depth(); ++l) {
    upper.push_back(random_schedule(graph.layer(l).num_atoms()));
  }
  std::vector<sim::Complex> data(kSymbols);
  for (sim::Complex& x : data) x = rng.UnitPhasor();
  if (prepared) link.Prepare(schedule, upper);
  Rng noise_rng(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        link.TransmitSequence(data, schedule, upper, 0.0, noise_rng));
  }
}
BENCHMARK_CAPTURE(BM_OtaTransmitCascade, unprepared, false);
BENCHMARK_CAPTURE(BM_OtaTransmitCascade, prepared, true);

void BM_WeightMappingPerSymbol(benchmark::State& state) {
  const auto& ds = SharedDataset();
  Rng rng(6);
  const auto model = core::TrainModel(
      ds.train, core::TrainingOptions{.epochs = 1}, rng);
  const mts::Metasurface surface{mts::MetasurfaceSpec{}};
  for (auto _ : state) {
    const sim::OtaLink link(surface, DefaultLinkConfig());
    benchmark::DoNotOptimize(
        core::MapWeights(model.network.weights(), link,
                       {.scheme = core::MappingScheme::kSequential}));
  }
}
BENCHMARK(BM_WeightMappingPerSymbol);

// Solver fan-out scaling: sequential MapWeights over a 10-class, 64-symbol
// weight matrix on the 16x16 surface — 640 independent single-target
// solves — at 1/2/4 worker threads. The arg is the thread count;
// comparing the per-arg timings shows the metaai::par speedup (results
// are bitwise identical across args by construction).
void BM_MapSequentialFanout(benchmark::State& state) {
  const mts::Metasurface surface{mts::MetasurfaceSpec{}};  // 16x16
  const sim::OtaLink link(surface, DefaultLinkConfig());
  Rng rng(7);
  ComplexMatrix weights(10, 64);
  for (std::size_t r = 0; r < weights.rows(); ++r) {
    for (std::size_t c = 0; c < weights.cols(); ++c) {
      weights(r, c) = rng.UnitPhasor() * (0.5 + rng.Uniform());
    }
  }
  const par::ScopedThreadCount threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::MapWeights(
        weights, link, {.scheme = core::MappingScheme::kSequential}));
  }
}
BENCHMARK(BM_MapSequentialFanout)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Dispatched SIMD kernels, one scalar arm and (when the host supports
// it) one AVX2 arm each. Shared deterministic inputs; the per-arm
// ScopedLevel pins the dispatch path for the whole timing loop.

constexpr std::size_t kKernelLen = 4096;

struct SimdInputs {
  std::vector<double> re, im;
  std::vector<std::uint8_t> codes;
  std::vector<simd::Complex> a, b;
  std::vector<simd::Complex> even, odd, twiddles;
  std::vector<simd::Complex> symbols;
  std::vector<std::uint32_t> values;
};

const SimdInputs& SharedSimdInputs() {
  static const SimdInputs inputs = [] {
    SimdInputs in;
    Rng rng(8);
    in.re.resize(kKernelLen);
    in.im.resize(kKernelLen);
    in.codes.resize(kKernelLen);
    in.a.resize(kKernelLen);
    in.b.resize(kKernelLen);
    in.even.resize(kKernelLen);
    in.odd.resize(kKernelLen);
    in.twiddles.resize(kKernelLen);
    in.symbols.resize(kKernelLen);
    in.values.resize(kKernelLen);
    for (std::size_t i = 0; i < kKernelLen; ++i) {
      in.re[i] = rng.Normal();
      in.im[i] = rng.Normal();
      in.codes[i] =
          static_cast<std::uint8_t>(rng.UniformInt(std::uint64_t{4}));
      in.a[i] = rng.ComplexNormal();
      in.b[i] = rng.ComplexNormal();
      in.even[i] = rng.ComplexNormal();
      in.odd[i] = rng.ComplexNormal();
      in.twiddles[i] = rng.UnitPhasor();
      in.symbols[i] = rng.ComplexNormal();
    }
    return in;
  }();
  return inputs;
}

void BM_KernelPhasedSum(benchmark::State& state, simd::Level level) {
  const SimdInputs& in = SharedSimdInputs();
  const simd::ScopedLevel force(level);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::PhasedSum(in.re.data(), in.im.data(),
                                             in.codes.data(), kKernelLen));
  }
}

void BM_KernelComplexDot(benchmark::State& state, simd::Level level) {
  const SimdInputs& in = SharedSimdInputs();
  const simd::ScopedLevel force(level);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simd::ComplexDot(in.a.data(), in.b.data(), kKernelLen));
  }
}

void BM_KernelButterflyPass(benchmark::State& state, simd::Level level) {
  SimdInputs in = SharedSimdInputs();  // mutated in place each iteration
  const simd::ScopedLevel force(level);
  for (auto _ : state) {
    simd::ButterflyPass(in.even.data(), in.odd.data(), in.twiddles.data(),
                        kKernelLen, false);
    benchmark::DoNotOptimize(in.even.data());
  }
}

void BM_KernelHardDecideQam(benchmark::State& state, simd::Level level) {
  SimdInputs in = SharedSimdInputs();
  const simd::ScopedLevel force(level);
  for (auto _ : state) {
    simd::HardDecideQam(in.symbols.data(), kKernelLen, /*levels=*/16,
                        /*norm=*/13.038404810405298, /*half_bits=*/4,
                        in.values.data());
    benchmark::DoNotOptimize(in.values.data());
  }
}

/// The kernels the speedup gate scores, with their per-level bench arms.
constexpr const char* kSimdKernels[] = {
    "BM_KernelPhasedSum", "BM_KernelComplexDot", "BM_KernelButterflyPass",
    "BM_KernelHardDecideQam"};

void RegisterSimdBenches() {
  using Fn = void (*)(benchmark::State&, simd::Level);
  const std::pair<const char*, Fn> kernels[] = {
      {"BM_KernelPhasedSum", BM_KernelPhasedSum},
      {"BM_KernelComplexDot", BM_KernelComplexDot},
      {"BM_KernelButterflyPass", BM_KernelButterflyPass},
      {"BM_KernelHardDecideQam", BM_KernelHardDecideQam}};
  for (const auto& [name, fn] : kernels) {
    benchmark::RegisterBenchmark((std::string(name) + "/scalar").c_str(), fn,
                                 simd::Level::kScalar);
    if (simd::Avx2Supported()) {
      benchmark::RegisterBenchmark((std::string(name) + "/avx2").c_str(), fn,
                                   simd::Level::kAvx2);
    }
  }
}

// ---------------------------------------------------------------------

/// Fixed-iteration measurement pass: re-runs the counted workloads a
/// pinned number of times under the report registry, so every counter in
/// BENCH_micro_kernels.json is deterministic (same dispatch level, same
/// machine) and the baseline gates them at zero tolerance.
void FixedIterationCounterPass() {
  constexpr int kIterations = 4;
  const mts::Metasurface surface{mts::MetasurfaceSpec{}};
  const sim::OtaLink link(surface, DefaultLinkConfig());
  const auto steering = link.SteeringVector(0);
  Rng rng(3);
  const sim::Complex target = rng.UnitPhasor() * 100.0;
  for (int i = 0; i < kIterations; ++i) {
    mts::SolveSingleTarget(steering, target);
  }

  Rng map_rng(7);
  ComplexMatrix weights(4, 16);
  for (std::size_t r = 0; r < weights.rows(); ++r) {
    for (std::size_t c = 0; c < weights.cols(); ++c) {
      weights(r, c) = map_rng.UnitPhasor() * (0.5 + map_rng.Uniform());
    }
  }
  const auto mapped = core::MapWeights(
      weights, link, {.scheme = core::MappingScheme::kSequential});

  const auto symbols = data::EncodeSample(
      SharedDataset().train.features[0], rf::Modulation::kQam256);
  // One schedule entry per transmitted symbol: truncate the encoded
  // stream to the mapped round's length.
  const std::vector<sim::Complex> stream(
      symbols.begin(), symbols.begin() + mapped.rounds[0].size());
  Rng noise_rng(5);
  for (int i = 0; i < kIterations; ++i) {
    link.TransmitSequence(stream, mapped.rounds[0], 0.0, noise_rng);
  }
}

/// Scores the scalar-vs-AVX2 arms from the recorded timings: prints the
/// speedup table and enforces the vectorization gate — at least two
/// kernels at >= 2x — whenever the host has AVX2.
int GateSimdSpeedups(const std::map<std::string, double>& times_ns) {
  if (!simd::Avx2Supported()) {
    std::cout << "(AVX2 not supported on this host; scalar arms only, "
                 "speedup gate skipped)\n";
    return 0;
  }
  Table table("Micro-kernels: scalar vs AVX2 dispatch",
              {"Kernel", "Scalar ns", "AVX2 ns", "Speedup"});
  int fast_kernels = 0;
  for (const char* kernel : kSimdKernels) {
    const auto scalar = times_ns.find(std::string(kernel) + "/scalar");
    const auto avx2 = times_ns.find(std::string(kernel) + "/avx2");
    if (scalar == times_ns.end() || avx2 == times_ns.end()) continue;
    const double speedup = scalar->second / avx2->second;
    if (speedup >= 2.0) ++fast_kernels;
    table.AddRow({kernel, FormatDouble(scalar->second, 1),
                  FormatDouble(avx2->second, 1), FormatDouble(speedup, 2)});
  }
  table.Print(std::cout);
  if (fast_kernels < 2) {
    std::fprintf(stderr,
                 "FAILED: only %d SIMD kernels reached the 2x speedup gate "
                 "(need 2)\n",
                 fast_kernels);
    return 1;
  }
  std::cout << "(" << fast_kernels
            << " of 4 kernels at >= 2x over scalar on AVX2)\n";
  return 0;
}

/// Scores the prepared-plan arms: a prepared depth-3 transmission must
/// run at least 1.8x faster than the unprepared one. Skipped when a
/// --benchmark_filter left either arm out.
int GatePreparedLink(const std::map<std::string, double>& times_ns) {
  constexpr double kMinSpeedup = 1.8;
  const auto unprepared = times_ns.find("BM_OtaTransmitCascade/unprepared");
  const auto prepared = times_ns.find("BM_OtaTransmitCascade/prepared");
  if (unprepared == times_ns.end() || prepared == times_ns.end()) {
    std::cout << "(prepared-link arms filtered out; gate skipped)\n";
    return 0;
  }
  const double speedup = unprepared->second / prepared->second;
  Table table("Depth-3 16x16 transmission: unprepared vs prepared plan",
              {"Unprepared ns", "Prepared ns", "Speedup"});
  table.AddRow({FormatDouble(unprepared->second, 1),
                FormatDouble(prepared->second, 1),
                FormatDouble(speedup, 2)});
  table.Print(std::cout);
  if (speedup < kMinSpeedup) {
    std::fprintf(stderr,
                 "FAILED: prepared transmission only %.2fx faster than "
                 "unprepared (need %.1fx)\n",
                 speedup, kMinSpeedup);
    return 1;
  }
  return 0;
}

// Console reporter that also records each benchmark's adjusted real
// time as a BenchReport headline, so micro-kernel timings land in
// BENCH_micro_kernels.json alongside the other bench documents and can
// be tracked by metaai_bench_diff. The same timings feed the in-binary
// SIMD speedup gate through `times_ns`.
class ReportingConsoleReporter : public benchmark::ConsoleReporter {
 public:
  ReportingConsoleReporter(BenchReport* report,
                           std::map<std::string, double>* times_ns)
      : report_(report), times_ns_(times_ns) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      report_->Headline(run.benchmark_name() + ".real_time_ns",
                        run.GetAdjustedRealTime());
      (*times_ns_)[run.benchmark_name()] = run.GetAdjustedRealTime();
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

 private:
  BenchReport* report_;
  std::map<std::string, double>* times_ns_;
};

}  // namespace
}  // namespace metaai::bench

int main(int argc, char** argv) {
  metaai::bench::BenchReport report("micro_kernels");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  metaai::bench::RegisterSimdBenches();
  std::map<std::string, double> times_ns;
  metaai::bench::ReportingConsoleReporter reporter(&report, &times_ns);
  {
    // The timing loops pick their iteration counts adaptively, so the
    // counters they emit are run-dependent: swallow them in a throwaway
    // registry (timing headlines still reach the report).
    metaai::obs::Registry timing_registry;
    const metaai::obs::ScopedRegistry scoped(&timing_registry);
    benchmark::RunSpecifiedBenchmarks(&reporter);
  }
  benchmark::Shutdown();
  metaai::bench::FixedIterationCounterPass();
  const int simd_gate = metaai::bench::GateSimdSpeedups(times_ns);
  const int plan_gate = metaai::bench::GatePreparedLink(times_ns);
  return simd_gate != 0 ? simd_gate : plan_gate;
}
