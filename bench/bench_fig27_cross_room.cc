// Fig 27: cross-room operation. The Tx and MTS stay fixed; the receiver
// is moved through 18 positions spanning three offices — each wall adds
// attenuation on the MTS-Rx leg and the Rx-MTS distance grows. Accuracy
// decreases room by room but remains usable even two walls away
// (paper: room 1 >= 82.6%, room 2 >= 76.6%, room 3 >= 71.5%).
#include "bench_util.h"

#include "common/stats.h"
#include "common/table.h"

namespace metaai::bench {
namespace {

void Run() {
  const data::Dataset ds = data::MakeMnistLike();
  Rng rng(27);
  const auto model = core::TrainModel(ds.train, RobustTrainingOptions(), rng);
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});

  Table table("Fig 27: Accuracy (%) across three rooms (P1-P18)",
              {"Position", "Room", "Distance (m)", "Walls", "Accuracy"});
  Rng eval_rng(271);
  std::vector<double> room_min(3, 1.0);
  for (int p = 1; p <= 18; ++p) {
    const int room = (p - 1) / 6;            // 0, 1, 2
    const double walls_db = 7.0 * room;      // drywall per crossing
    Rng place(2700 + static_cast<std::uint64_t>(p));
    const double distance = 2.0 + 3.5 * room + place.Uniform(0.0, 3.0);
    sim::OtaLinkConfig config =
        DefaultLinkConfig(2700 + static_cast<std::uint64_t>(p));
    config.geometry.rx_distance_m = distance;
    config.geometry.rx_angle_rad =
        rf::DegToRad(place.Uniform(15.0, 50.0));
    config.environment.wall_attenuation_db = walls_db;
    config.environment.direct_tx_rx = room == 0;
    const double acc = PrototypeAccuracy(model, graph, config, ds.test,
                                         eval_rng, 80);
    room_min[static_cast<std::size_t>(room)] =
        std::min(room_min[static_cast<std::size_t>(room)], acc);
    table.AddRow({"P" + std::to_string(p), std::to_string(room + 1),
                  FormatDouble(distance, 1), std::to_string(room),
                  FormatPercent(acc)});
  }
  table.Print(std::cout);
  std::cout << "Per-room minimum accuracy: room 1 "
            << FormatPercent(room_min[0]) << "%, room 2 "
            << FormatPercent(room_min[1]) << "%, room 3 "
            << FormatPercent(room_min[2]) << "%\n";
  std::cout << "(Shape check: accuracy decreases room by room with distance"
               " and wall count.)\n";
}

}  // namespace
}  // namespace metaai::bench

int main() {
  metaai::bench::BenchReport report("fig27_cross_room");
  metaai::bench::Run();
  return 0;
}
