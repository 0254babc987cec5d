// Privacy-preserving building management with multi-sensor fusion.
//
// An activity-recognition deployment fuses a wearable's accelerometer and
// gyroscope through ONE shared metasurface (§3.4): each sensor transmits
// its window in a time-division round, the surface applies that sensor's
// weight block, and the receiver fuses the complex partial sums before
// the magnitude (Eqns 11-12). The building server never sees raw motion
// data — only activity scores.
#include <iostream>

#include "core/metaai.h"
#include "data/multisensor.h"
#include "rf/geometry.h"

int main() {
  using namespace metaai;

  const data::MultiSensorDataset dataset = data::MakeUscHadLike();
  std::cout << "== Building management: " << dataset.name << " ==\n"
            << dataset.num_classes << " activities, sensors:";
  for (const auto& s : dataset.sensor_names) std::cout << ' ' << s;
  std::cout << "\n\n";

  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  sim::OtaLinkConfig link;
  link.geometry = {.tx_distance_m = 1.0,
                   .tx_angle_rad = rf::DegToRad(30.0),
                   .rx_distance_m = 3.0,
                   .rx_angle_rad = rf::DegToRad(40.0),
                   .frequency_hz = 5.25e9};
  link.environment.profile = rf::OfficeProfile();

  for (std::size_t sensors = 1; sensors <= dataset.num_sensors();
       ++sensors) {
    Rng rng(11);
    core::TrainingOptions training;
    training.sync_error_injection = true;
    training.sync_gamma_scale_us =
        1.85 * sim::PaperEquivalentLatencyScale(256);
    const auto model =
        core::TrainFusedModel(dataset, sensors, training, rng);
    const double digital =
        core::EvaluateFusedDigital(model, dataset, sensors);

    const core::Deployment deployment(model, graph, link);
    sim::SyncModelConfig sync_config;
    sync_config.latency_scale =
        sim::PaperEquivalentLatencyScale(256);
    const sim::SyncModel sync(sim::SyncMode::kCdfa, sync_config);
    Rng eval_rng(111);
    const auto test =
        core::ConcatenateSensors(dataset, sensors, /*use_train=*/false);
    const double ota =
        deployment.EvaluateAccuracy(test, sync, eval_rng, 60);

    std::cout << sensors << " sensor(s): digital " << 100.0 * digital
              << "%, over the air " << 100.0 * ota << "%  ("
              << sensors * 256 << " symbols per round, one shared "
              << "metasurface)\n";
  }

  std::cout << "\nCross-modality fusion resolves activities neither sensor"
               " separates alone,\nwhile raw motion traces never leave the"
               " wireless channel.\n";
  return 0;
}
