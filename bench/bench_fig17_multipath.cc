// Fig 17: performance of the multipath-cancellation scheme.
//
// Three indoor environments of increasing multipath richness (corridor,
// office, laboratory), directional vs omni-directional antennas, with and
// without the zero-mean/mid-symbol-flip cancellation scheme, each averaged
// over 10 receiver locations (channel realizations).
//
// Expected shape: without cancellation the corridor (clean) beats the lab
// (rich) and Dire beats Omni (directional antennas suppress the
// environment path); with cancellation every combination recovers to a
// high, nearly uniform accuracy.
#include "bench_util.h"

#include "common/stats.h"
#include "common/table.h"

namespace metaai::bench {
namespace {

double MeanAccuracyOverLocations(const core::TrainedModel& model,
                                 const rf::MultipathProfile& profile,
                                 rf::AntennaType antenna,
                                 bool cancellation) {
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  std::vector<double> accuracies;
  const data::Dataset ds = data::MakeMnistLike(
      {.train_per_class = 1, .test_per_class = 50});  // test split only
  Rng rng(17);
  accuracies = ParallelTrials(10, rng, [&](Rng& trial_rng, std::size_t i) {
    const std::uint64_t location = i + 1;
    sim::OtaLinkConfig config = DefaultLinkConfig(1000 + location);
    config.environment.profile = profile;
    config.tx_antenna = antenna;
    config.rx_antenna = antenna;
    config.multipath_cancellation = cancellation;
    return PrototypeAccuracy(model, graph, config, ds.test, trial_rng, 60);
  });
  return Mean(accuracies);
}

void Run() {
  const data::Dataset ds = data::MakeMnistLike();
  Rng rng(171);
  const auto model = core::TrainModel(ds.train, RobustTrainingOptions(), rng);

  const rf::MultipathProfile profiles[] = {
      rf::CorridorProfile(), rf::OfficeProfile(), rf::LaboratoryProfile()};

  Table table("Fig 17: Multipath cancellation (mean accuracy %, 10 Rx "
              "locations)",
              {"Environment", "Antenna", "w/o cancellation",
               "with cancellation"});
  for (const auto& profile : profiles) {
    for (const auto antenna :
         {rf::AntennaType::kDirectional, rf::AntennaType::kOmni}) {
      const double without = MeanAccuracyOverLocations(
          model, profile, antenna, /*cancellation=*/false);
      const double with = MeanAccuracyOverLocations(
          model, profile, antenna, /*cancellation=*/true);
      table.AddRow({profile.name, rf::AntennaName(antenna),
                    FormatPercent(without), FormatPercent(with)});
      std::fprintf(stderr, "[fig17] %s/%s done\n", profile.name.c_str(),
                   rf::AntennaName(antenna).c_str());
    }
  }
  table.Print(std::cout);
  std::cout << "(Shape check: w/o cancellation, corridor > office > lab and"
               " Dire > Omni;\n with cancellation all combinations recover"
               " to a uniformly high accuracy.)\n";
}

}  // namespace
}  // namespace metaai::bench

int main() {
  metaai::bench::BenchReport report("fig17_multipath");
  metaai::bench::Run();
  return 0;
}
