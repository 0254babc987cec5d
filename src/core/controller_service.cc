#include "core/controller_service.h"

#include <cmath>
#include <numeric>

#include "common/check.h"

namespace metaai::core {

ControllerService::ControllerService(TrainedModel model,
                                     const mts::LayerGraph& graph,
                                     sim::OtaLinkConfig assumed_link,
                                     ControllerServiceConfig config)
    : model_(std::move(model)),
      graph_(graph),
      assumed_link_(std::move(assumed_link)),
      config_(std::move(config)) {
  Check(config_.report_window > 0, "report window must be positive");
  Check(config_.rss_drop_threshold_db > 0.0,
        "drop threshold must be positive");
  deployment_ = std::make_unique<Deployment>(model_, graph_, assumed_link_,
                                             config_.deployment);
  settle_remaining_ = config_.settle_reports;
  Log("deployed initial mapping");
}

bool ControllerService::armed() const {
  return baseline_set_ && settle_remaining_ == 0;
}

void ControllerService::Log(std::string what) {
  events_.push_back({report_index_, std::move(what)});
}

bool ControllerService::OnRssReport(double rss_db,
                                    const sim::OtaLinkConfig& true_link) {
  ++report_index_;
  window_.push_back(rss_db);
  if (window_.size() > config_.report_window) window_.pop_front();

  if (window_.size() < config_.report_window) return false;
  const double mean =
      std::accumulate(window_.begin(), window_.end(), 0.0) /
      static_cast<double>(window_.size());

  if (settle_remaining_ > 0) {
    --settle_remaining_;
    if (settle_remaining_ == 0) {
      baseline_rss_db_ = mean;
      baseline_set_ = true;
      Log("baseline established at " + std::to_string(mean) + " dB");
    }
    return false;
  }
  if (!baseline_set_) return false;

  if (mean >= baseline_rss_db_ - config_.rss_drop_threshold_db) {
    return false;
  }

  // Persistent drop: the receiver moved. Re-scan, re-solve, redeploy.
  Log("RSS drop detected (" + std::to_string(mean) + " dB vs baseline " +
      std::to_string(baseline_rss_db_) + " dB): recalibrating");
  auto result = RecalibrateForReceiver(model_, graph_, assumed_link_,
                                       true_link, config_.deployment,
                                       config_.recalibration);
  assumed_link_.geometry.rx_angle_rad = result.report.estimated_angle_rad;
  deployment_ =
      std::make_unique<Deployment>(std::move(result.deployment));
  ++reconfigurations_;
  Log("redeployed for bearing " +
      std::to_string(result.report.estimated_angle_rad) + " rad (latency " +
      std::to_string(result.report.total_latency_s * 1e3) + " ms)");

  // Re-establish the baseline with fresh reports.
  window_.clear();
  baseline_set_ = false;
  settle_remaining_ = config_.settle_reports;
  return true;
}

}  // namespace metaai::core
