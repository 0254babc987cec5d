// Smart retail scenario: shelf cameras recognize fruit categories without
// shipping raw images — the metasurface computes the classification while
// the frame is in flight, and the edge server receives only class scores.
//
// This example also explores the latency lever the paper's §3.3
// parallelism schemes provide: the store can run the same model
// sequentially (best accuracy, R transmission rounds) or on parallel
// subcarriers (one round, slight accuracy cost), and we print the
// end-to-end latency/energy a deployment would see for both.
#include <iostream>

#include "core/metaai.h"
#include "data/datasets.h"
#include "rf/geometry.h"
#include "sim/energy_model.h"

int main() {
  using namespace metaai;

  const data::Dataset dataset = data::MakeFruitsLike();
  std::cout << "== Smart retail: " << dataset.name << " ("
            << dataset.num_classes << " product categories) ==\n";

  Rng rng(7);
  core::TrainingOptions training;
  training.sync_error_injection = true;
  training.sync_gamma_scale_us =
      1.85 * sim::PaperEquivalentLatencyScale(dataset.train.dim);
  training.input_noise_variance = 0.02;
  const auto model = core::TrainModel(dataset.train, training, rng);
  std::cout << "Digital accuracy: "
            << 100.0 * core::EvaluateDigital(model, dataset.test) << "%\n";

  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  sim::OtaLinkConfig link;
  link.geometry = {.tx_distance_m = 1.0,
                   .tx_angle_rad = rf::DegToRad(30.0),
                   .rx_distance_m = 3.0,
                   .rx_angle_rad = rf::DegToRad(40.0),
                   .frequency_hz = 5.25e9};
  link.environment.profile = rf::OfficeProfile();
  link.mts_phase_noise_std = 0.05;

  sim::SyncModelConfig sync_config;
  sync_config.latency_scale =
      sim::PaperEquivalentLatencyScale(dataset.train.dim);
  const sim::SyncModel sync(sim::SyncMode::kCdfa, sync_config);
  const sim::EnergyModel energy;

  for (const auto mode : {core::ParallelismMode::kSequential,
                          core::ParallelismMode::kSubcarrier}) {
    core::DeploymentOptions options;
    options.mode = mode;
    const core::Deployment deployment(model, graph, link, options);
    Rng eval_rng(71);
    const double accuracy =
        deployment.EvaluateAccuracy(dataset.test, sync, eval_rng, 150);
    const auto cost = energy.MetaAiRow(
        dataset.train.dim, dataset.num_classes,
        dataset.num_classes / deployment.RoundsPerInference());
    std::cout << "\nMode: " << core::ParallelismModeName(mode) << "\n"
              << "  over-the-air accuracy: " << 100.0 * accuracy << "%\n"
              << "  rounds per frame:      "
              << deployment.RoundsPerInference() << "\n"
              << "  end-to-end latency:    " << cost.total_ms << " ms\n"
              << "  device energy/frame:   " << cost.total_mj << " mJ\n";
  }

  std::cout << "\nThe edge server never receives shelf imagery — only "
               "per-category scores.\n";
  return 0;
}
