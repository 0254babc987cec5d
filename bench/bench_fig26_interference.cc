// Fig 26: impact of dynamic interference — a person walking in one of
// four regions while the system runs.
//
// In regions R1-R3 the walker only adds a slowly drifting extra multipath
// component; because it is static within each symbol, the mid-symbol-flip
// cancellation removes it and accuracy barely moves. In region R4 the
// walker intermittently blocks the MTS-Rx path itself, attenuating the
// computing signal — the one case the cancellation cannot fix — yet
// accuracy remains usable (paper: >= 85.4%).
#include "bench_util.h"

#include "common/table.h"

namespace metaai::bench {
namespace {

void Run() {
  const data::Dataset ds = data::MakeMnistLike();
  Rng rng(26);
  const auto model = core::TrainModel(ds.train, RobustTrainingOptions(), rng);
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});

  Table table("Fig 26: Accuracy (%) under a walking interferer",
              {"Region", "Accuracy"});
  Rng eval_rng(261);
  for (const auto region :
       {sim::InterfererRegion::kNone, sim::InterfererRegion::kR1,
        sim::InterfererRegion::kR2, sim::InterfererRegion::kR3,
        sim::InterfererRegion::kR4}) {
    sim::OtaLinkConfig config = DefaultLinkConfig(2600);
    config.environment.interferer = region;
    const double acc = PrototypeAccuracy(model, graph, config, ds.test,
                                         eval_rng, 200);
    table.AddRow({sim::InterfererRegionName(region), FormatPercent(acc)});
  }
  table.Print(std::cout);
  std::cout << "(Shape check: R1-R3 barely move (cancellation absorbs the"
               " dynamic path);\n R4 — blocking the MTS-Rx path — drops"
               " the most but stays usable.)\n";
}

}  // namespace
}  // namespace metaai::bench

int main() {
  metaai::bench::BenchReport report("fig26_interference");
  metaai::bench::Run();
  return 0;
}
