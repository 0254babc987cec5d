// Controller-side feedback protocol (§4: "when the receiver moves to new
// locations, MetaAI employs a feedback protocol to reconfigure the MTS").
//
// The receiver periodically reports its received signal strength; the
// controller smooths the reports, compares them with the calibrated
// baseline and — when the level drops persistently below threshold —
// runs the recalibration pipeline (beam scan + weight re-solve) and swaps
// in the new deployment. The service keeps an event log so operators can
// audit what triggered each reconfiguration.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/deployment.h"
#include "core/recalibration.h"

namespace metaai::core {

struct ControllerServiceConfig {
  /// Windowed-mean RSS drop (dB) that triggers recalibration.
  double rss_drop_threshold_db = 6.0;
  /// Reports averaged before comparing against the baseline.
  std::size_t report_window = 8;
  /// Reports to collect after (re)calibration before re-arming the
  /// trigger (establishes the new baseline).
  std::size_t settle_reports = 8;
  RecalibrationConfig recalibration;
  DeploymentOptions deployment;
};

/// One entry of the service's audit log.
struct ControllerEvent {
  std::uint64_t report_index = 0;
  std::string what;
};

class ControllerService {
 public:
  /// Deploys `model` over `graph` for `assumed_link` immediately.
  /// `graph` must outlive the service (a temporary graph is rejected at
  /// compile time).
  ControllerService(TrainedModel model, const mts::LayerGraph& graph,
                    sim::OtaLinkConfig assumed_link,
                    ControllerServiceConfig config = {});
  ControllerService(TrainedModel model, const mts::LayerGraph&& graph,
                    sim::OtaLinkConfig assumed_link,
                    ControllerServiceConfig config = {}) = delete;

  const Deployment& deployment() const { return *deployment_; }
  std::size_t reconfigurations() const { return reconfigurations_; }
  const std::vector<ControllerEvent>& events() const { return events_; }

  /// Whether the trigger is armed (baseline established, not settling).
  bool armed() const;

  /// Feeds one receiver RSS report (dB). `true_link` is the simulator's
  /// oracle for the beam-scan power probe — on hardware the probe power
  /// comes back over the same feedback channel. Returns true if this
  /// report triggered a reconfiguration.
  bool OnRssReport(double rss_db, const sim::OtaLinkConfig& true_link);

  /// Baseline RSS the trigger compares against (dB); NaN before the
  /// baseline is established.
  double baseline_rss_db() const { return baseline_rss_db_; }

 private:
  void Log(std::string what);

  TrainedModel model_;
  const mts::LayerGraph& graph_;
  sim::OtaLinkConfig assumed_link_;
  ControllerServiceConfig config_;
  std::unique_ptr<Deployment> deployment_;

  std::deque<double> window_;
  double baseline_rss_db_ = 0.0;
  bool baseline_set_ = false;
  std::size_t settle_remaining_ = 0;
  std::uint64_t report_index_ = 0;
  std::size_t reconfigurations_ = 0;
  std::vector<ControllerEvent> events_;
};

}  // namespace metaai::core
