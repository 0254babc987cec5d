// Fig 16: ablation of the synchronization scheme.
//
// Three operating points, all over the air on the MNIST-like task:
//  * w/o sync — plain model, the MTS starts its schedule at an arbitrary
//    time (uniform error over many symbols): essentially a blind guess;
//  * CD — coarse-grained energy detection only, plain model: errors follow
//    the Fig 12 Gamma distribution, untrained;
//  * CDFA — coarse detection + the Gamma-matched training injector.
#include "bench_util.h"

#include "common/table.h"

namespace metaai::bench {
namespace {

void Run() {
  const data::Dataset ds = data::MakeMnistLike();
  Rng rng_plain(16);
  const auto plain = core::TrainModel(ds.train, {}, rng_plain);
  Rng rng_cdfa(16);
  core::TrainingOptions cdfa_options;
  cdfa_options.sync_error_injection = true;  // full-scale Gamma(2, 1.85)
  const auto cdfa = core::TrainModel(ds.train, cdfa_options, rng_cdfa);

  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  const core::Deployment dep_plain(plain, graph, DefaultLinkConfig());
  const core::Deployment dep_cdfa(cdfa, graph, DefaultLinkConfig());

  Rng rng(161);
  const sim::SyncModel none(sim::SyncMode::kNone);
  const sim::SyncModel coarse(sim::SyncMode::kCoarse);

  Table table("Fig 16: Performance of the sync scheme (accuracy %)",
              {"Scheme", "Accuracy"});
  table.AddRow({"w/o sync",
                FormatPercent(dep_plain.EvaluateAccuracy(ds.test, none, rng,
                                                         200))});
  table.AddRow({"CD",
                FormatPercent(dep_plain.EvaluateAccuracy(ds.test, coarse,
                                                         rng, 200))});
  table.AddRow({"CDFA",
                FormatPercent(dep_cdfa.EvaluateAccuracy(ds.test, coarse,
                                                        rng, 200))});
  table.Print(std::cout);
  std::cout << "(Shape check: w/o sync ~ blind guess, CD a large step up,\n"
               " CDFA close to the synced accuracy. Paper: 19.2 / 55.7 /"
               " 89.3 on 784-symbol streams; our streams are 256 symbols,\n"
               " so identical microsecond errors are ~3x larger relative"
               " shifts — see EXPERIMENTS.md.)\n";
}

}  // namespace
}  // namespace metaai::bench

int main() {
  metaai::bench::BenchReport report("fig16_sync_ablation");
  metaai::bench::Run();
  return 0;
}
