// Fig 31 (Appendix A.3): accuracy vs the number of parallel subcarriers /
// antennas. One shared metasurface configuration must realize one weight
// per simultaneous output (Eqns 9-10); as the width grows, the joint
// phase optimization has fewer degrees of freedom per target and the
// realized weights degrade — accuracy falls while latency (rounds per
// inference) improves proportionally.
#include "bench_util.h"

#include "common/table.h"

namespace metaai::bench {
namespace {

void Run() {
  const data::Dataset ds = data::MakeMnistLike();
  Rng rng(31);
  const auto model = core::TrainModel(ds.train, RobustTrainingOptions(), rng);
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});

  Table table("Fig 31: Accuracy (%) vs parallel width",
              {"Width", "Subcarrier", "Antenna", "Rounds/inference"});
  for (const std::size_t width : {1u, 2u, 4u, 6u, 8u, 10u}) {
    std::vector<std::string> row{std::to_string(width)};
    std::size_t rounds = 0;
    for (const auto mode : {core::ParallelismMode::kSubcarrier,
                            core::ParallelismMode::kAntenna}) {
      core::DeploymentOptions options;
      options.mode = mode;
      options.parallel_width = width;
      sim::OtaLinkConfig config = DefaultLinkConfig();
      // Noise-limited budget: realizing K simultaneous targets splits the
      // aperture, so each output's amplitude shrinks ~1/K — the physical
      // driver (together with the joint-solve residual) of the Fig 31
      // degradation.
      config.budget.noise_floor_dbm = -58.0;
      core::Deployment deployment(model, graph, config, options);
      rounds = deployment.RoundsPerInference();
      Rng eval_rng(311);
      const sim::SyncModel sync = DeploymentSyncModel();
      row.push_back(FormatPercent(
          deployment.EvaluateAccuracy(ds.test, sync, eval_rng, 100)));
    }
    row.push_back(std::to_string(rounds));
    table.AddRow(std::move(row));
    std::fprintf(stderr, "[fig31] width=%zu done\n", width);
  }
  table.Print(std::cout);
  std::cout << "(Shape check: accuracy decreases gradually as width grows"
               " while rounds per inference shrink — the accuracy/latency"
               " trade-off.)\n";
}

}  // namespace
}  // namespace metaai::bench

int main() {
  metaai::bench::BenchReport report("fig31_parallel_width");
  metaai::bench::Run();
  return 0;
}
