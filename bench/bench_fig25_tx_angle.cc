// Fig 25: impact of the Tx-MTS incidence angle (0 to 80 degrees on a 1 m
// semicircle). Inside the panel's field of view ([-60, 60] degrees)
// accuracy stays flat; beyond the FoV edge the element pattern rolls off
// sharply and accuracy declines (paper: >= 84.85% up to 60 deg, ~75% at
// 80 deg).
#include "bench_util.h"

#include "common/table.h"

namespace metaai::bench {
namespace {

void Run() {
  const data::Dataset ds = data::MakeMnistLike();
  Rng rng(25);
  const auto model = core::TrainModel(ds.train, RobustTrainingOptions(), rng);
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});

  Table table("Fig 25: Accuracy (%) vs Tx-MTS incidence angle",
              {"Angle (deg)", "Accuracy"});
  Rng eval_rng(251);
  for (double angle_deg = 0.0; angle_deg <= 80.0; angle_deg += 10.0) {
    sim::OtaLinkConfig config =
        DefaultLinkConfig(2500 + static_cast<std::uint64_t>(angle_deg));
    config.geometry.tx_angle_rad = rf::DegToRad(angle_deg);
    const double acc = PrototypeAccuracy(model, graph, config, ds.test,
                                         eval_rng, 100);
    table.AddRow({FormatDouble(angle_deg, 0), FormatPercent(acc)});
  }
  table.Print(std::cout);
  std::cout << "(Shape check: flat inside the [-60, 60] deg FoV, declining"
               " beyond it.)\n";
}

}  // namespace
}  // namespace metaai::bench

int main() {
  metaai::bench::BenchReport report("fig25_tx_angle");
  metaai::bench::Run();
  return 0;
}
