// Face-recognition access control (the §5.4 case study as an
// application): ESP32-class cameras stream frames over the air; the
// metasurface performs identification in flight, so the access-control
// server receives only identity scores — never face images. The example
// also demonstrates receiver-relocation recalibration via beam scanning
// (§3.2's theta estimation).
#include <iostream>

#include "core/metaai.h"
#include "data/datasets.h"
#include "mts/beam_scan.h"
#include "rf/geometry.h"

int main() {
  using namespace metaai;

  const data::Dataset dataset = data::MakeFaceStreamLike();
  std::cout << "== Access control: " << dataset.train.size()
            << " enrollment frames, " << dataset.num_classes
            << " identities ==\n";

  Rng rng(5);
  core::TrainingOptions training;
  training.sync_error_injection = true;
  training.sync_gamma_scale_us =
      1.85 * sim::PaperEquivalentLatencyScale(dataset.train.dim);
  training.input_noise_variance = 0.02;
  const auto model = core::TrainModel(dataset.train, training, rng);

  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  sim::OtaLinkConfig link;
  link.geometry = {.tx_distance_m = 1.0,
                   .tx_angle_rad = rf::DegToRad(30.0),
                   .rx_distance_m = 3.0,
                   .rx_angle_rad = rf::DegToRad(40.0),
                   .frequency_hz = 5.25e9};
  link.environment.profile = rf::OfficeProfile();

  // Suppose the access-control receiver was installed at an unknown
  // bearing: estimate it with a beam scan before mapping the weights
  // (the paper's theta estimation — a power-probe sweep over candidate
  // angles).
  {
    mts::Metasurface scan_surface{mts::MetasurfaceSpec{}};
    const mts::LinkGeometry truth = link.geometry;
    mts::LinkGeometry assumed = truth;
    assumed.rx_angle_rad = 0.0;
    const auto scan = mts::ScanForReceiver(
        scan_surface, assumed, rf::DegToRad(0.0), rf::DegToRad(60.0), 61,
        [&](std::span<const mts::PhaseCode> codes) {
          std::vector<mts::PhaseCode> copy(codes.begin(), codes.end());
          scan_surface.SetAllCodes(copy);
          return std::norm(scan_surface.Response(truth));
        });
    std::cout << "Beam scan estimated receiver bearing: "
              << rf::RadToDeg(scan.angle_rad) << " deg (true: "
              << rf::RadToDeg(truth.rx_angle_rad) << " deg)\n";
    link.geometry.rx_angle_rad = scan.angle_rad;
  }

  const core::Deployment deployment(model, graph, link);
  sim::SyncModelConfig sync_config;
  sync_config.latency_scale =
      sim::PaperEquivalentLatencyScale(dataset.train.dim);
  const sim::SyncModel sync(sim::SyncMode::kCdfa, sync_config);

  // Stream: grant access when the top identity is confidently ahead.
  Rng eval_rng(51);
  int granted = 0;
  int denied = 0;
  int wrong_grant = 0;
  for (std::size_t i = 0; i < 50; ++i) {
    const double offset = sync.SampleOffsetUs(eval_rng);
    const auto scores = deployment.ClassScores(dataset.test.features[i],
                                               offset, eval_rng);
    // Confidence: best score must lead the runner-up by 10%.
    std::size_t best = 0;
    std::size_t second = 1;
    for (std::size_t c = 1; c < scores.size(); ++c) {
      if (scores[c] > scores[best]) {
        second = best;
        best = c;
      } else if (scores[c] > scores[second] || second == best) {
        second = c;
      }
    }
    if (scores[best] > 1.1 * scores[second]) {
      ++granted;
      if (static_cast<int>(best) != dataset.test.labels[i]) ++wrong_grant;
    } else {
      ++denied;  // fall back to a secondary factor
    }
  }
  std::cout << "Stream of 50 captures: " << granted << " confident grants ("
            << wrong_grant << " to the wrong identity), " << denied
            << " deferred to a second factor.\n";

  const double accuracy =
      deployment.EvaluateAccuracy(dataset.test, sync, eval_rng, 200);
  std::cout << "Raw identification accuracy over the air: "
            << 100.0 * accuracy << "% (paper case study: 78.54%)\n";
  return 0;
}
