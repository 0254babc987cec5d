// Receiver mobility support (§7 "Device Mobility" + the §4 feedback
// protocol).
//
// When the receiver moves, the propagation phases phi_m^p change and the
// pre-solved mapping between configurations and logical weights becomes
// stale. The recovery pipeline is:
//   1. beam-scan the emergence angle theta (§3.2): sweep focus
//      configurations over candidate angles, pick the power peak;
//   2. re-solve the weight mapping for the new geometry;
//   3. resume inference.
// The paper frames mobility support as a race between the target's
// angular speed and this recalibration latency; RecalibrationReport
// carries both the estimate and the latency accounting so benches can
// evaluate that race.
#pragma once

#include <functional>

#include "core/deployment.h"
#include "mts/controller.h"
#include "mts/metasurface.h"

namespace metaai::core {

/// Beam-scan steps across the panel's field of view, 0 to 60 deg.
struct RecalibrationConfig {
  int scan_steps = 31;
};

struct RecalibrationReport {
  double estimated_angle_rad = 0.0;
  /// Beam-scan probes issued.
  std::size_t probes = 0;
  /// Scan latency: probes * (pattern load + dwell).
  double scan_latency_s = 0.0;
  /// Weight re-mapping latency estimate.
  double solve_latency_s = 0.0;
  double total_latency_s = 0.0;
  /// Highest receiver angular speed (rad/s) this recalibration loop can
  /// track while staying within one scan-resolution step of error.
  double max_trackable_angular_speed_rad_s = 0.0;
};

/// Power measurement for a candidate configuration: the simulator (or, on
/// hardware, the receiver's RSS feedback channel) reports received power
/// for the probe codes.
using PowerProbe = std::function<double(std::span<const mts::PhaseCode>)>;

/// Runs the beam scan and fills in the latency accounting. `geometry`
/// carries the known Tx side; the receiver angle field is ignored.
RecalibrationReport EstimateReceiverAngle(
    const mts::Metasurface& surface, const mts::LinkGeometry& geometry,
    const PowerProbe& probe, std::size_t num_weights,
    const mts::Controller& controller, const RecalibrationConfig& config = {});

/// Convenience: full pipeline against a simulated "true" link — scans for
/// the receiver of `true_link_config` with the front panel of `graph`,
/// then rebuilds the deployment over `graph` with the estimated angle.
/// Returns the new deployment and the report. `graph` must outlive the
/// returned deployment (a temporary graph is rejected at compile time).
struct RecalibratedDeployment {
  Deployment deployment;
  RecalibrationReport report;
};

RecalibratedDeployment RecalibrateForReceiver(
    const TrainedModel& model, const mts::LayerGraph& graph,
    sim::OtaLinkConfig assumed_link, const sim::OtaLinkConfig& true_link,
    const DeploymentOptions& options = {},
    const RecalibrationConfig& config = {});
RecalibratedDeployment RecalibrateForReceiver(
    const TrainedModel& model, const mts::LayerGraph&& graph,
    sim::OtaLinkConfig assumed_link, const sim::OtaLinkConfig& true_link,
    const DeploymentOptions& options = {},
    const RecalibrationConfig& config = {}) = delete;

}  // namespace metaai::core
