// Ablation: receiver mobility and recalibration (§7 "Device Mobility").
//
// The pre-solved configuration-to-weight mapping assumes the receiver's
// emergence angle. This bench moves the receiver away from the calibrated
// 40-degree bearing and measures accuracy (a) with the stale mapping and
// (b) after the beam-scan + re-solve recalibration pipeline, then reports
// the recalibration latency and the maximum receiver angular speed the
// loop can track — the "race" the paper describes. Headline metrics are
// gated against bench/baselines/ablation_mobility.json by
// tools/run_benches.sh (via metaai_bench_diff).
#include "bench_util.h"

#include "common/table.h"
#include "core/recalibration.h"
#include "data/encoding.h"

namespace metaai::bench {
namespace {

void Run(BenchReport& report) {
  const data::Dataset ds = data::MakeMnistLike();
  Rng rng(84);
  const auto model = core::TrainModel(ds.train, RobustTrainingOptions(), rng);
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});

  // Calibrated at the default 40-degree bearing.
  const sim::OtaLinkConfig calibrated = DefaultLinkConfig(8400);
  const core::Deployment stale(model, graph, calibrated);

  Table table("Ablation: receiver mobility (accuracy %)",
              {"True Rx bearing (deg)", "Stale mapping",
               "After recalibration"});
  core::RecalibrationReport last_report;
  double stale_at_25 = 0.0;
  double recal_at_25 = 0.0;
  for (const double true_deg : {40.0, 35.0, 30.0, 25.0, 15.0}) {
    sim::OtaLinkConfig true_link = calibrated;
    true_link.geometry.rx_angle_rad = rf::DegToRad(true_deg);

    // Stale: schedules solved for 40 deg played over the true channel.
    // Deploy on the true link but with the 40-deg steering assumption:
    // reuse the stale deployment's schedules through a link at the true
    // geometry.
    sim::OtaLink true_ota(graph, true_link);
    const sim::LayerSchedules no_upper;
    Rng eval_rng(841);
    std::size_t correct = 0;
    constexpr std::size_t kSamples = 100;
    const sim::SyncModel sync = DeploymentSyncModel();
    for (std::size_t i = 0; i < kSamples; ++i) {
      const auto symbols =
          data::EncodeSample(ds.test.features[i], model.modulation);
      std::vector<double> scores(ds.num_classes, 0.0);
      const double offset = sync.SampleOffsetUs(eval_rng);
      for (std::size_t r = 0; r < stale.schedules().rounds.size(); ++r) {
        const auto z = true_ota.TransmitSequence(
            symbols, stale.schedules().rounds[r], no_upper, offset, eval_rng);
        sim::Complex acc{0.0, 0.0};
        for (std::size_t s = 0; s < z.cols(); ++s) acc += z(0, s);
        scores[static_cast<std::size_t>(
            stale.schedules().outputs[r][0])] = std::abs(acc);
      }
      const auto best = static_cast<int>(std::distance(
          scores.begin(), std::max_element(scores.begin(), scores.end())));
      correct += (best == ds.test.labels[i]);
    }
    const double stale_acc =
        static_cast<double>(correct) / static_cast<double>(kSamples);

    // Recalibrated: beam scan for the new bearing, re-solve, evaluate.
    auto result =
        core::RecalibrateForReceiver(model, graph, calibrated, true_link);
    last_report = result.report;
    Rng recal_rng(842);
    const double recal_acc = result.deployment.EvaluateAccuracy(
        ds.test, DeploymentSyncModel(), recal_rng, 100);

    if (true_deg == 25.0) {
      stale_at_25 = stale_acc;
      recal_at_25 = recal_acc;
    }
    table.AddRow({FormatDouble(true_deg, 0), FormatPercent(stale_acc),
                  FormatPercent(recal_acc)});
    std::fprintf(stderr, "[ablation_mobility] %.0f deg done\n", true_deg);
  }
  report.Headline("stale_accuracy_at_25deg", stale_at_25);
  report.Headline("recalibrated_accuracy_at_25deg", recal_at_25);
  report.Headline("recalibration_latency_ms",
                  last_report.total_latency_s * 1e3);
  report.Headline(
      "trackable_angular_speed_deg_s",
      rf::RadToDeg(last_report.max_trackable_angular_speed_rad_s));
  table.Print(std::cout);
  std::cout << "Recalibration latency: "
            << FormatDouble(last_report.scan_latency_s * 1e3, 2)
            << " ms scan + "
            << FormatDouble(last_report.solve_latency_s * 1e3, 2)
            << " ms re-solve = "
            << FormatDouble(last_report.total_latency_s * 1e3, 2)
            << " ms total; trackable receiver angular speed ~ "
            << FormatDouble(
                   rf::RadToDeg(
                       last_report.max_trackable_angular_speed_rad_s),
                   1)
            << " deg/s.\n";
  std::cout << "(Finding: a few degrees of receiver motion already erode"
               " the stale mapping; the\n beam-scan + re-solve loop"
               " restores accuracy, and its latency bounds the mobility\n"
               " the system can follow — the race described in §7.)\n";
}

}  // namespace
}  // namespace metaai::bench

int main() {
  metaai::bench::BenchReport report("ablation_mobility");
  metaai::bench::Run(report);
  return 0;
}
