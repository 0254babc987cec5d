// Quickstart: train a MetaAI model, deploy it on a simulated metasurface
// link, and classify images over the air.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <iostream>

#include "core/metaai.h"
#include "data/datasets.h"
#include "rf/geometry.h"

int main() {
  using namespace metaai;

  // 1. A dataset: the MNIST-like synthetic digit task (16x16 images).
  const data::Dataset dataset = data::MakeMnistLike();
  std::cout << "Dataset: " << dataset.name << ", "
            << dataset.train.size() << " train / " << dataset.test.size()
            << " test samples, " << dataset.num_classes << " classes\n";

  // 2. Train the complex-valued single-layer network digitally. The
  //    robustness options inject sync errors and noise so the deployed
  //    model tolerates the physical channel (see §3.5 of the paper).
  Rng rng(42);
  core::TrainingOptions training;
  training.sync_error_injection = true;
  training.sync_gamma_scale_us =
      1.85 * sim::PaperEquivalentLatencyScale(dataset.train.dim);
  training.input_noise_variance = 0.02;
  const core::TrainedModel model =
      core::TrainModel(dataset.train, training, rng);
  std::cout << "Digital (simulation) accuracy: "
            << 100.0 * core::EvaluateDigital(model, dataset.test) << "%\n";

  // 3. Deploy: a 16x16 2-bit metasurface, the paper's default geometry
  //    (Tx 1 m @30 deg, Rx 3 m @40 deg, 5.25 GHz), office multipath.
  //    One panel is the depth-1 layer graph; the deployment borrows it.
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  sim::OtaLinkConfig link;
  link.geometry = {.tx_distance_m = 1.0,
                   .tx_angle_rad = rf::DegToRad(30.0),
                   .rx_distance_m = 3.0,
                   .rx_angle_rad = rf::DegToRad(40.0),
                   .frequency_hz = 5.25e9};
  link.environment.profile = rf::OfficeProfile();
  link.mts_phase_noise_std = 0.05;
  const core::Deployment deployment(model, graph, link);
  std::cout << "Deployed: " << deployment.RoundsPerInference()
            << " transmission rounds per inference, mapping residual "
            << deployment.schedules().mean_relative_residual << ", link SNR "
            << deployment.link().NominalSnrDb() << " dB\n";

  // 4. Classify a few samples over the air. The sync model draws the
  //    metasurface clock offset every inference (coarse detection).
  sim::SyncModelConfig sync_config;
  sync_config.latency_scale =
      sim::PaperEquivalentLatencyScale(dataset.train.dim);
  const sim::SyncModel sync(sim::SyncMode::kCdfa, sync_config);
  int correct = 0;
  constexpr int kDemo = 20;
  const std::size_t stride = dataset.test.size() / kDemo;
  for (int i = 0; i < kDemo; ++i) {
    const std::size_t index = static_cast<std::size_t>(i) * stride;
    const double offset_us = sync.SampleOffsetUs(rng);
    const int predicted =
        deployment.Classify(dataset.test.features[index], offset_us, rng);
    const int truth = dataset.test.labels[index];
    correct += (predicted == truth);
    std::printf("sample %3zu: true class %d -> predicted %d %s\n", index,
                truth, predicted, predicted == truth ? "" : " (miss)");
  }
  std::printf("Over-the-air demo accuracy: %d/%d\n", correct, kDemo);

  // 5. Full over-the-air evaluation.
  const double ota =
      deployment.EvaluateAccuracy(dataset.test, sync, rng, 200);
  std::cout << "Over-the-air (prototype) accuracy: " << 100.0 * ota
            << "%\n";
  return 0;
}
