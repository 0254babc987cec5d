#include "core/recalibration.h"

#include <cmath>

#include "common/check.h"
#include "mts/beam_scan.h"

namespace metaai::core {
namespace {

// Beam-scan range: the panel's field of view.
constexpr double kScanMinAngleRad = 0.0;
constexpr double kScanMaxAngleRad = 1.0471975511965976;  // 60 deg
// Receiver dwell per probe (RSS measurement time), seconds.
constexpr double kProbeDwellS = 50e-6;
// Seconds to re-solve one (output, symbol) configuration on the
// controller host (measured ~8 us on a laptop core; see
// bench_micro_kernels).
constexpr double kSolveTimePerWeightS = 8e-6;

}  // namespace

RecalibrationReport EstimateReceiverAngle(
    const mts::Metasurface& surface, const mts::LinkGeometry& geometry,
    const PowerProbe& probe, std::size_t num_weights,
    const mts::Controller& controller, const RecalibrationConfig& config) {
  Check(config.scan_steps >= 2, "need at least two scan steps");
  Check(static_cast<bool>(probe), "recalibration needs a power probe");

  const auto scan = mts::ScanForReceiver(
      surface, geometry, kScanMinAngleRad, kScanMaxAngleRad, config.scan_steps,
      probe);

  RecalibrationReport report;
  report.estimated_angle_rad = scan.angle_rad;
  report.probes = scan.scanned_powers.size();
  report.scan_latency_s =
      static_cast<double>(report.probes) *
      (controller.PatternLoadTime() + kProbeDwellS);
  report.solve_latency_s =
      static_cast<double>(num_weights) * kSolveTimePerWeightS;
  report.total_latency_s = report.scan_latency_s + report.solve_latency_s;

  // Tracking budget: the receiver may move by at most one scan step
  // between recalibrations.
  const double step = (kScanMaxAngleRad - kScanMinAngleRad) /
                      static_cast<double>(config.scan_steps - 1);
  report.max_trackable_angular_speed_rad_s =
      step / report.total_latency_s;
  return report;
}

RecalibratedDeployment RecalibrateForReceiver(
    const TrainedModel& model, const mts::LayerGraph& graph,
    sim::OtaLinkConfig assumed_link, const sim::OtaLinkConfig& true_link,
    const DeploymentOptions& options, const RecalibrationConfig& config) {
  // The beam scan steers the schedule-driven front panel.
  const mts::Metasurface& surface = graph.front();
  // The probe measures the power that would actually arrive at the (true)
  // receiver position for a candidate focus configuration — on hardware
  // this number comes back over the feedback channel.
  mts::Metasurface probe_surface{surface.spec()};
  const auto rss_probe = [&](std::span<const mts::PhaseCode> codes) {
    std::vector<mts::PhaseCode> copy(codes.begin(), codes.end());
    probe_surface.SetAllCodes(copy);
    return std::norm(probe_surface.Response(true_link.geometry));
  };

  const std::size_t num_weights =
      model.num_classes() * model.input_dim();
  const mts::Controller controller;
  const RecalibrationReport report = EstimateReceiverAngle(
      surface, assumed_link.geometry, rss_probe, num_weights, controller,
      config);

  assumed_link.geometry.rx_angle_rad = report.estimated_angle_rad;
  return {Deployment(model, graph, assumed_link, options), report};
}

}  // namespace metaai::core
