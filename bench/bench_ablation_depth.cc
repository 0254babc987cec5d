// Ablation: cascade depth (stacked-intelligent-metasurface layers).
//
// The paper's prototype is one 16x16 panel; the LayerGraph tentpole lets
// K programmable surfaces compose in the propagation path, each upper
// layer contributing its coupling/focus gain to the link budget (see
// mts/layer_graph.h). This ablation deploys the SAME trained model at
// depth K in {1, 2, 3} over a noise-limited link (Tx power backed off
// from the paper's +20 dBm operating point) and reports the end-to-end
// over-the-air accuracy per depth.
//
// Hard gate: K=3 must beat-or-match K=1 on this profile (the added focus
// gain lifts the per-symbol SNR out of the noise floor). The K=1 row is
// the single panel itself; its pinned depth1_accuracy headline carries
// the depth-1 contract.
#include "bench_util.h"

#include "common/table.h"
#include "mts/layer_graph.h"

namespace metaai::bench {
namespace {

/// Noise-limited operating point: the paper setup with the transmitter
/// backed off to -6 dBm, where the single-panel deployment loses a
/// meaningful slice of accuracy to the noise floor.
sim::OtaLinkConfig NoiseLimitedLinkConfig() {
  sim::OtaLinkConfig config = DefaultLinkConfig();
  config.budget.tx_power_dbm = -6.0;
  return config;
}

/// Depth-K graph: the prototype front panel plus K-1 identical 16x16
/// upper layers at 1.3x coupling gain each.
mts::LayerGraph MakeGraph(std::size_t depth) {
  std::vector<mts::PhysicalLayerSpec> specs(depth);
  for (std::size_t l = 1; l < depth; ++l) specs[l].coupling_gain = 1.3;
  return mts::LayerGraph(std::move(specs));
}

int Run() {
  BenchReport report("ablation_depth");
  const data::Dataset ds = data::MakeMnistLike();
  Rng rng(91);
  const auto model = core::TrainModel(ds.train, RobustTrainingOptions(), rng);

  Table table("Ablation: cascade depth (noise-limited link, -6 dBm Tx)",
              {"Depth", "Gain product", "Mean relative residual",
               "OTA accuracy"});
  std::vector<double> accuracy;
  for (const std::size_t depth : {1u, 2u, 3u}) {
    const mts::LayerGraph graph = MakeGraph(depth);
    const core::Deployment deployment(model, graph, NoiseLimitedLinkConfig());
    Rng eval_rng(911);  // same stream for every depth
    const double acc =
        deployment.EvaluateAccuracyAtOffset(ds.test, 0.0, eval_rng, 120);
    accuracy.push_back(acc);
    double gain = 1.0;
    for (std::size_t l = 1; l < depth; ++l) gain *= 1.3;
    table.AddRow({std::to_string(depth), FormatDouble(gain, 2),
                  FormatDouble(deployment.schedules().mean_relative_residual,
                               4),
                  FormatPercent(acc)});
    report.Headline("depth" + std::to_string(depth) + "_accuracy", acc);
  }
  table.Print(std::cout);

  if (accuracy[2] < accuracy[0]) {
    std::fprintf(stderr,
                 "FAILED: depth-3 accuracy %.6f fell below depth-1 %.6f on "
                 "the noise-limited profile\n",
                 accuracy[2], accuracy[0]);
    return 1;
  }
  std::cout << "(Finding: on a noise-limited link the extra layers' focus"
               " gain recovers accuracy\n the single panel loses to the"
               " noise floor; at the paper's +20 dBm the depths tie.)\n";
  return 0;
}

}  // namespace
}  // namespace metaai::bench

int main() { return metaai::bench::Run(); }
