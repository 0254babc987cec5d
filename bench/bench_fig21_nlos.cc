// Fig 21: performance in NLoS scenarios.
//
// The MTS sits at a corridor corner; Tx and Rx cannot see each other (no
// direct environment path) but both see the panel. The Rx-MTS distance is
// swept from 1 to 22 m. MetaAI keeps working because the computation
// rides on the MTS reflection; accuracy falls gently with distance as the
// reflected-path SNR drops.
#include "bench_util.h"

#include "common/table.h"

namespace metaai::bench {
namespace {

void Run() {
  const data::Dataset ds = data::MakeMnistLike();
  Rng rng(21);
  const auto model = core::TrainModel(ds.train, RobustTrainingOptions(), rng);
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});

  Table table("Fig 21: Accuracy (%) in the NLoS corner vs Rx-MTS distance",
              {"Rx-MTS distance (m)", "Accuracy"});
  Rng eval_rng(211);
  for (double distance = 1.0; distance <= 22.0; distance += 3.0) {
    sim::OtaLinkConfig config =
        DefaultLinkConfig(2100 + static_cast<std::uint64_t>(distance));
    config.environment.profile = rf::CorridorProfile();
    config.environment.direct_tx_rx = false;  // corner: Tx-Rx blocked
    config.geometry.rx_distance_m = distance;
    const double acc = PrototypeAccuracy(model, graph, config, ds.test,
                                         eval_rng, 100);
    table.AddRow({FormatDouble(distance, 0), FormatPercent(acc)});
  }
  table.Print(std::cout);
  std::cout << "(Shape check: the paper reports >= ~76.6% across 1-22 m;\n"
               " accuracy decays gently with the reflected-path SNR.)\n";
}

}  // namespace
}  // namespace metaai::bench

int main() {
  metaai::bench::BenchReport report("fig21_nlos");
  metaai::bench::Run();
  return 0;
}
