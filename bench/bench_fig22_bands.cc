// Fig 22: generalization across frequency bands.
//
// The dual-band prototype (MTS 1) serves 2.4 GHz and 5 GHz links; the
// single-band prototype (MTS 2) serves 3.5 GHz. Each band is evaluated at
// ten receiver locations; MetaAI performs uniformly well since the weight
// mapping re-solves against the band's propagation phases.
#include "bench_util.h"

#include "common/stats.h"
#include "common/table.h"

namespace metaai::bench {
namespace {

void Run() {
  const data::Dataset ds = data::MakeMnistLike();
  Rng rng(22);
  const auto model = core::TrainModel(ds.train, RobustTrainingOptions(), rng);

  struct Band {
    double frequency_hz;
    const char* label;
    mts::MetasurfaceSpec spec;
  };
  const Band bands[] = {
      {2.4e9, "2.4 GHz (MTS 1)", mts::DualBandSpec()},
      {3.5e9, "3.5 GHz (MTS 2)", mts::SingleBandSpec()},
      {5.0e9, "5 GHz (MTS 1)", mts::DualBandSpec()},
  };

  Table table("Fig 22: Accuracy (%) per frequency band, 10 Rx locations",
              {"Band", "Mean", "Min", "Max"});
  for (const Band& band : bands) {
    const mts::LayerGraph graph(mts::Metasurface{band.spec});
    std::vector<double> accuracies;
    Rng eval_rng(221);
    for (std::uint64_t location = 1; location <= 10; ++location) {
      sim::OtaLinkConfig config = DefaultLinkConfig(2200 + location);
      config.geometry.frequency_hz = band.frequency_hz;
      // Random receiver placement per location.
      Rng place(2200 + location);
      config.geometry.rx_distance_m = place.Uniform(2.0, 5.0);
      config.geometry.rx_angle_rad = rf::DegToRad(place.Uniform(10.0, 55.0));
      accuracies.push_back(PrototypeAccuracy(model, graph, config, ds.test,
                                             eval_rng, 60));
    }
    table.AddRow({band.label, FormatPercent(Mean(accuracies)),
                  FormatPercent(Min(accuracies)),
                  FormatPercent(Max(accuracies))});
    std::fprintf(stderr, "[fig22] %s done\n", band.label);
  }
  table.Print(std::cout);
  std::cout << "(Shape check: all three bands land at a similar, high"
               " accuracy — paper: >= 88.4%.)\n";
}

}  // namespace
}  // namespace metaai::bench

int main() {
  metaai::bench::BenchReport report("fig22_bands");
  metaai::bench::Run();
  return 0;
}
