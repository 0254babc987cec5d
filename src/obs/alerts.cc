#include "obs/alerts.h"

#include <cmath>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "obs/export.h"

namespace metaai::obs::health {

std::string_view AlertKindName(AlertKind kind) {
  switch (kind) {
    case AlertKind::kThreshold:
      return "threshold";
    case AlertKind::kRateOfChange:
      return "rate_of_change";
    case AlertKind::kDriftDetected:
      return "drift_detected";
  }
  throw CheckError("unknown alert kind");
}

std::string_view AlertSeverityName(AlertSeverity severity) {
  switch (severity) {
    case AlertSeverity::kInfo:
      return "info";
    case AlertSeverity::kWarning:
      return "warning";
    case AlertSeverity::kCritical:
      return "critical";
  }
  throw CheckError("unknown alert severity");
}

namespace {

AlertKind KindFromName(std::string_view name) {
  if (name == "threshold") return AlertKind::kThreshold;
  if (name == "rate_of_change") return AlertKind::kRateOfChange;
  if (name == "drift_detected") return AlertKind::kDriftDetected;
  throw CheckError("metaai.alerts.v1: unknown kind");
}

AlertSeverity SeverityFromName(std::string_view name) {
  if (name == "info") return AlertSeverity::kInfo;
  if (name == "warning") return AlertSeverity::kWarning;
  if (name == "critical") return AlertSeverity::kCritical;
  throw CheckError("metaai.alerts.v1: unknown severity");
}

}  // namespace

AlertEngine::AlertEngine(std::int32_t tenant, HealthMonitorConfig monitor)
    : tenant_(tenant), monitor_(monitor) {}

void AlertEngine::AddRule(AlertRule rule) {
  const int variants = (rule.threshold.has_value() ? 1 : 0) +
                       (rule.rate.has_value() ? 1 : 0) +
                       (rule.change.has_value() ? 1 : 0);
  Check(variants == 1, "alert rule must set exactly one variant");
  Check(!rule.name.empty(), "alert rule needs a name");
  Check(!rule.signal.empty(), "alert rule needs a signal");
  Check(rule.cooldown_s >= 0.0, "alert cooldown must be non-negative");
  RuleState state{.rule = std::move(rule)};
  if (state.rule.change.has_value()) {
    if (state.rule.change->detector == ChangeDetector::kCusum) {
      state.cusum.emplace(state.rule.change->cusum);
    } else {
      state.page_hinkley.emplace(state.rule.change->page_hinkley);
    }
  }
  rules_.push_back(std::move(state));
}

void AlertEngine::Observe(std::string_view signal, double t_s, double value,
                          std::vector<Alert>& out) {
  Check(std::isfinite(value), "alert engine rejects non-finite samples");
  monitor_.Observe(signal, value);
  for (RuleState& state : rules_) {
    const AlertRule& rule = state.rule;
    if (rule.signal != signal) continue;

    bool fire = false;
    AlertKind kind = AlertKind::kThreshold;
    double threshold = 0.0;
    if (rule.threshold.has_value()) {
      const ThresholdRule& spec = *rule.threshold;
      threshold = spec.bound;
      const bool breached =
          spec.fire_above ? value > spec.bound : value < spec.bound;
      if (state.armed) {
        fire = breached;
      } else {
        // Re-arm once the value is back past the hysteresis band.
        const double band = std::abs(spec.bound) * spec.hysteresis;
        const bool rearmed = spec.fire_above ? value <= spec.bound - band
                                             : value >= spec.bound + band;
        if (rearmed) state.armed = true;
      }
      if (fire) state.armed = false;
    } else if (rule.rate.has_value()) {
      kind = AlertKind::kRateOfChange;
      threshold = rule.rate->max_step;
      if (state.has_prev &&
          std::abs(value - state.prev) > rule.rate->max_step) {
        fire = true;
      }
      state.has_prev = true;
      state.prev = value;
    } else {
      kind = AlertKind::kDriftDetected;
      if (state.cusum.has_value()) {
        threshold = rule.change->cusum.threshold;
        fire = state.cusum->Observe(value);
      } else {
        threshold = rule.change->page_hinkley.lambda;
        fire = state.page_hinkley->Observe(value);
      }
    }

    if (!fire) continue;
    // Cooldown: drop (not defer) alerts inside the window.
    if (state.has_fired && rule.cooldown_s > 0.0 &&
        t_s - state.last_fire_s < rule.cooldown_s) {
      continue;
    }
    state.has_fired = true;
    state.last_fire_s = t_s;
    ++emitted_;
    out.push_back({.seq = static_cast<std::uint64_t>(out.size()),
                   .t_s = t_s,
                   .kind = kind,
                   .severity = rule.severity,
                   .rule = rule.name,
                   .signal = rule.signal,
                   .value = value,
                   .threshold = threshold,
                   .tenant = tenant_});
  }
}

void AlertEngine::ObserveProbe(const ProbeRecord& record, double t_s,
                               std::vector<Alert>& out) {
  for (const auto& [signal, value] : HealthSignalsFromProbe(record)) {
    Observe(signal, t_s, value, out);
  }
}

std::vector<AlertRule> DefaultLinkHealthRules() {
  std::vector<AlertRule> rules;
  rules.push_back({.name = "evm.ceiling",
                   .signal = std::string(kSignalEvm),
                   .severity = AlertSeverity::kWarning,
                   .cooldown_s = 0.01,
                   .threshold = ThresholdRule{.bound = 0.5,
                                              .fire_above = true,
                                              .hysteresis = 0.1}});
  rules.push_back({.name = "snr.floor",
                   .signal = std::string(kSignalSnrDb),
                   .severity = AlertSeverity::kWarning,
                   .cooldown_s = 0.01,
                   .threshold = ThresholdRule{.bound = 5.0,
                                              .fire_above = false,
                                              .hysteresis = 0.1}});
  rules.push_back({.name = "accuracy_proxy.floor",
                   .signal = std::string(kSignalAccuracyProxy),
                   .severity = AlertSeverity::kCritical,
                   .cooldown_s = 0.01,
                   .threshold = ThresholdRule{.bound = 0.02,
                                              .fire_above = false,
                                              .hysteresis = 0.1}});
  rules.push_back({.name = "accuracy_proxy.cusum",
                   .signal = std::string(kSignalAccuracyProxy),
                   .severity = AlertSeverity::kCritical,
                   .cooldown_s = 0.01,
                   .change = ChangePointRule{
                       .detector = ChangeDetector::kCusum,
                       .cusum = {.warmup = 32, .slack = 0.5,
                                 .threshold = 12.0}}});
  rules.push_back({.name = "sync_offset.page_hinkley",
                   .signal = std::string(kSignalSyncOffsetUs),
                   .severity = AlertSeverity::kWarning,
                   .cooldown_s = 0.01,
                   .change = ChangePointRule{
                       .detector = ChangeDetector::kPageHinkley,
                       .page_hinkley = {.warmup = 32, .delta = 0.05,
                                        .lambda = 20.0}}});
  rules.push_back({.name = "slo.magnitude",
                   .signal = std::string(kSignalSloViolation),
                   .severity = AlertSeverity::kWarning,
                   .cooldown_s = 0.01,
                   .threshold = ThresholdRule{.bound = 2.0,
                                              .fire_above = true,
                                              .hysteresis = 0.1}});
  return rules;
}

std::string ToAlertsJsonl(const std::vector<Alert>& alerts) {
  std::ostringstream os;
  os << "{\"schema\":\"metaai.alerts.v1\",\"count\":" << alerts.size()
     << "}\n";
  for (const Alert& alert : alerts) {
    os << "{\"seq\":" << alert.seq << ",\"t_s\":" << JsonNumber(alert.t_s)
       << ",\"kind\":\"" << AlertKindName(alert.kind) << "\",\"severity\":\""
       << AlertSeverityName(alert.severity)
       << "\",\"rule\":" << JsonString(alert.rule)
       << ",\"signal\":" << JsonString(alert.signal)
       << ",\"value\":" << JsonNumber(alert.value)
       << ",\"threshold\":" << JsonNumber(alert.threshold)
       << ",\"tenant\":" << alert.tenant << "}\n";
  }
  return os.str();
}

std::vector<Alert> AlertsFromJsonl(std::string_view text) {
  const JsonlDocument document = ParseJsonl(text, "metaai.alerts.v1");
  std::vector<Alert> alerts;
  alerts.reserve(document.records.size());
  for (const JsonValue& record : document.records) {
    alerts.push_back(
        {.seq = JsonInteger<std::uint64_t>(Member(record, "seq")),
         .t_s = Member(record, "t_s").number,
         .kind = KindFromName(Member(record, "kind").string),
         .severity = SeverityFromName(Member(record, "severity").string),
         .rule = Member(record, "rule").string,
         .signal = Member(record, "signal").string,
         .value = Member(record, "value").number,
         .threshold = Member(record, "threshold").number,
         .tenant = JsonInteger<std::int32_t>(Member(record, "tenant"))});
  }
  return alerts;
}

}  // namespace metaai::obs::health
