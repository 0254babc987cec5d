// Fig 18: performance of the two parallelism schemes.
//
// For three datasets, compare the sequential baseline (one output per
// transmission round) against subcarrier-based parallelism (all outputs
// simultaneously on OFDM subcarriers, Eqn 9) and antenna-based parallelism
// (one output per receive antenna, Eqn 10). Both parallel schemes trade a
// slight accuracy loss for an R-fold latency reduction.
#include "bench_util.h"

#include "common/table.h"

namespace metaai::bench {
namespace {

void Run() {
  Table table("Fig 18: Parallelism schemes (accuracy %, rounds/inference)",
              {"Dataset", "Sequential", "Subcarrier", "Antenna"});
  for (const auto& name : {"mnist", "fruits", "widar"}) {
    const data::Dataset ds = data::MakeByName(name);
    Rng rng(18);
    const auto model =
        core::TrainModel(ds.train, RobustTrainingOptions(), rng);
    const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});

    std::vector<std::string> row{ds.name};
    for (const auto mode :
         {core::ParallelismMode::kSequential,
          core::ParallelismMode::kSubcarrier,
          core::ParallelismMode::kAntenna}) {
      core::DeploymentOptions options;
      options.mode = mode;
      // Half the class count per round: a 2x latency cut at slight
      // accuracy cost (Appendix A.3 sweeps the full width range).
      options.parallel_width = (ds.num_classes + 1) / 2;
      core::Deployment deployment(model, graph, DefaultLinkConfig(),
                                  options);
      Rng eval_rng(181);
      const sim::SyncModel sync = DeploymentSyncModel();
      const double acc =
          deployment.EvaluateAccuracy(ds.test, sync, eval_rng, 120);
      row.push_back(FormatPercent(acc) + " (" +
                    std::to_string(deployment.RoundsPerInference()) +
                    " rounds)");
    }
    table.AddRow(std::move(row));
    std::fprintf(stderr, "[fig18] %s done\n", ds.name.c_str());
  }
  table.Print(std::cout);
  std::cout << "(Shape check: both parallel schemes land slightly below the"
               " sequential baseline\n while cutting rounds per inference"
               " from R to 1.)\n";
}

}  // namespace
}  // namespace metaai::bench

int main() {
  metaai::bench::BenchReport report("fig18_parallelism");
  metaai::bench::Run();
  return 0;
}
