// Fig 20: multi-sensor late fusion over a single shared metasurface.
//
// Three multi-sensor datasets (Multi-PIE-like camera views,
// RF-Sauron-like receive antennas, USC-HAD-like accelerometer+gyroscope).
// Each sensor's data is transmitted in a time-division round with its own
// weight block (Eqn 11) and the complex partial sums are fused before the
// magnitude (Eqn 12) — equivalently, one linear layer over the sensor
// concatenation. Accuracy rises with every added sensor; cross-modality
// fusion (USC-HAD) gains the most (paper: +27.06%).
#include "bench_util.h"

#include "common/table.h"

namespace metaai::bench {
namespace {

void RunDataset(const data::MultiSensorDataset& ds, Table& table) {
  std::vector<std::string> row{ds.name};
  double first = 0.0;
  double last = 0.0;
  for (std::size_t n = 1; n <= ds.num_sensors(); ++n) {
    // One robustly trained fused model per sensor count; the same model
    // is scored digitally and over the air (U = n * 256 symbols in time
    // division over the shared surface).
    Rng rng(20);
    core::TrainingOptions robust = RobustTrainingOptions();
    robust.sync_gamma_scale_us =
        1.85 * sim::PaperEquivalentLatencyScale(256);
    const auto model = core::TrainFusedModel(ds, n, robust, rng);
    const double digital = core::EvaluateFusedDigital(model, ds, n);

    const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
    core::Deployment deployment(model, graph, DefaultLinkConfig());
    sim::SyncModelConfig sync_config;
    sync_config.latency_scale = sim::PaperEquivalentLatencyScale(256);
    const sim::SyncModel sync(sim::SyncMode::kCdfa, sync_config);
    Rng eval_rng(201);
    const auto test = core::ConcatenateSensors(ds, n, /*use_train=*/false);
    const double ota =
        deployment.EvaluateAccuracy(test, sync, eval_rng, 150);

    row.push_back(FormatPercent(digital) + " / " + FormatPercent(ota));
    if (n == 1) first = ota;
    last = ota;
  }
  while (row.size() < 4) row.push_back("-");
  row.push_back("+" + FormatPercent(last - first));
  table.AddRow(std::move(row));
  std::fprintf(stderr, "[fig20] %s done\n", ds.name.c_str());
}

void Run() {
  Table table("Fig 20: Multi-sensor fusion (accuracy %: digital / OTA)",
              {"Dataset", "1 sensor", "2 sensors", "3 sensors",
               "Fusion gain"});
  // Larger test splits than the paper's (same training sizes) to keep
  // the over-the-air columns statistically stable.
  RunDataset(data::MakeMultiPieLike({.test_per_class = 15}), table);
  RunDataset(data::MakeRfSauronLike(), table);
  RunDataset(data::MakeUscHadLike({.test_per_class = 25}), table);
  table.Print(std::cout);
  std::cout << "(Shape check: accuracy rises with every added sensor; the\n"
               " cross-modality USC-HAD set gains the most, ~+27 points in"
               " the paper.)\n";
}

}  // namespace
}  // namespace metaai::bench

int main() {
  metaai::bench::BenchReport report("fig20_multisensor");
  metaai::bench::Run();
  return 0;
}
