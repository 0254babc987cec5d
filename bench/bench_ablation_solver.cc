// Ablation: the configuration solver's budget and headroom.
//
// Two design knobs of the weight mapper (§3.2, Eqn 7):
//  * coordinate-descent sweep budget — how many passes over the 256 atoms
//    each (output, symbol) solve gets;
//  * target fraction — how much of the panel's reachable magnitude the
//    largest weight is scaled to (headroom against quantization error).
// We report the mean relative residual and the end-to-end over-the-air
// accuracy for each setting.
#include "bench_util.h"

#include "common/table.h"
#include "mts/config_cache.h"

namespace metaai::bench {
namespace {

/// Warm-start ablation: a fine-tuned near-duplicate of a mapped model is
/// re-solved (a) cold, from scratch, and (b) warm, seeded from the
/// nearest cached schedule with the early-exit threshold active. The
/// sweep counts are deterministic for a fixed dispatch level, so the
/// baseline gates them exactly; the bench itself hard-gates warm < cold.
int RunWarmStartArm(BenchReport& report) {
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  const sim::OtaLink link(graph, DefaultLinkConfig());
  Rng rng(83);
  ComplexMatrix weights(10, 64);
  for (std::size_t r = 0; r < weights.rows(); ++r) {
    for (std::size_t c = 0; c < weights.cols(); ++c) {
      weights(r, c) = rng.UnitPhasor() * (0.5 + rng.Uniform());
    }
  }
  auto tuned = weights;
  for (std::size_t r = 0; r < tuned.rows(); ++r) {
    for (std::size_t c = 0; c < tuned.cols(); ++c) {
      tuned(r, c) += rng.ComplexNormal(1e-5);
    }
  }

  core::MappingOptions options{.scheme = core::MappingScheme::kSequential};
  options.warm_start_distance = 0.1;
  mts::ConfigCache cache;
  options.cache = &cache;
  core::MapWeights(weights, link, options);  // seeds the cache

  const auto warm = core::MapWeights(tuned, link, options);
  const auto cold = core::MapWeights(
      tuned, link, {.scheme = core::MappingScheme::kSequential});

  Table table("Ablation: warm-started incremental solve",
              {"Arm", "Total sweeps", "Mean relative residual"});
  table.AddRow({"cold", std::to_string(cold.total_sweeps),
                FormatDouble(cold.mean_relative_residual, 4)});
  table.AddRow({"warm", std::to_string(warm.total_sweeps),
                FormatDouble(warm.mean_relative_residual, 4)});
  table.Print(std::cout);
  report.Headline("warm_start_cold_sweeps",
                  static_cast<double>(cold.total_sweeps));
  report.Headline("warm_start_warm_sweeps",
                  static_cast<double>(warm.total_sweeps));
  report.Headline("warm_start_residual_delta",
                  warm.mean_relative_residual - cold.mean_relative_residual);
  if (!warm.warm_started || warm.total_sweeps >= cold.total_sweeps) {
    std::fprintf(stderr,
                 "FAILED: warm start did not reduce sweeps (%ld warm vs %ld "
                 "cold)\n",
                 warm.total_sweeps, cold.total_sweeps);
    return 1;
  }
  std::cout << "(warm start: " << cold.total_sweeps << " -> "
            << warm.total_sweeps << " sweeps on a near-duplicate model)\n";
  return 0;
}

void Run() {
  const data::Dataset ds = data::MakeMnistLike();
  Rng rng(82);
  const auto model = core::TrainModel(ds.train, RobustTrainingOptions(), rng);
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});

  Table sweeps("Ablation: solver sweep budget",
               {"Max sweeps", "Mean relative residual", "OTA accuracy"});
  for (const int max_sweeps : {1, 2, 4, 8}) {
    core::DeploymentOptions options;
    options.mapping.solver.max_sweeps = max_sweeps;
    core::Deployment deployment(model, graph, DefaultLinkConfig(),
                                options);
    Rng eval_rng(821);
    const double acc =
        deployment.EvaluateAccuracyAtOffset(ds.test, 0.0, eval_rng, 120);
    sweeps.AddRow({std::to_string(max_sweeps),
                   FormatDouble(deployment.schedules().mean_relative_residual,
                                4),
                   FormatPercent(acc)});
  }
  sweeps.Print(std::cout);

  Table fractions("Ablation: target magnitude fraction",
                  {"Fraction", "Mean relative residual", "OTA accuracy"});
  for (const double fraction : {0.3, 0.6, 0.85, 1.0}) {
    core::DeploymentOptions options;
    options.mapping.target_fraction = fraction;
    core::Deployment deployment(model, graph, DefaultLinkConfig(),
                                options);
    Rng eval_rng(822);
    const double acc =
        deployment.EvaluateAccuracyAtOffset(ds.test, 0.0, eval_rng, 120);
    fractions.AddRow({FormatDouble(fraction, 2),
                      FormatDouble(
                          deployment.schedules().mean_relative_residual, 4),
                      FormatPercent(acc)});
  }
  fractions.Print(std::cout);
  std::cout << "(Finding: the solver converges within a couple of sweeps;"
               " accuracy is flat across\n a broad headroom range — the"
               " 2-bit lattice at 256 atoms is dense enough that the\n"
               " mapping is never the bottleneck, matching Appendix A.2.)\n";
}

}  // namespace
}  // namespace metaai::bench

int main() {
  metaai::bench::BenchReport report("ablation_solver");
  metaai::bench::Run();
  return metaai::bench::RunWarmStartArm(report);
}
