// Fig 24: impact of the Tx-MTS distance (1 to 22 m along the 30-degree
// incidence direction). The reflected path loses power with the product
// of the two legs, so accuracy decays gently with Tx distance but stays
// usable across the sweep (paper: >= ~78.9%).
#include "bench_util.h"

#include "common/table.h"

namespace metaai::bench {
namespace {

void Run() {
  const data::Dataset ds = data::MakeMnistLike();
  Rng rng(24);
  const auto model = core::TrainModel(ds.train, RobustTrainingOptions(), rng);
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});

  Table table("Fig 24: Accuracy (%) vs Tx-MTS distance",
              {"Tx-MTS distance (m)", "Accuracy"});
  Rng eval_rng(241);
  for (double distance = 1.0; distance <= 22.0; distance += 3.0) {
    sim::OtaLinkConfig config =
        DefaultLinkConfig(2400 + static_cast<std::uint64_t>(distance));
    config.geometry.tx_distance_m = distance;
    const double acc = PrototypeAccuracy(model, graph, config, ds.test,
                                         eval_rng, 100);
    table.AddRow({FormatDouble(distance, 0), FormatPercent(acc)});
  }
  table.Print(std::cout);
  std::cout << "(Shape check: gentle decay with distance, usable across"
               " the whole 1-22 m sweep.)\n";
}

}  // namespace
}  // namespace metaai::bench

int main() {
  metaai::bench::BenchReport report("fig24_tx_distance");
  metaai::bench::Run();
  return 0;
}
