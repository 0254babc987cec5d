// metaai::obs::health — deterministic rule-based alerting over the
// streaming health estimators (obs/health.h).
//
// An AlertEngine owns an ordered rule list. Each Observe(signal, t_s,
// value) evaluates the rules bound to that signal in registration
// order and appends any fired alerts to the caller's vector, stamping
// sequence numbers from the vector size — so one shared alert vector
// fed from a serial control loop yields one globally ordered,
// deterministic stream regardless of how many engines (e.g. one per
// tenant) feed it.
//
// Three rule families:
//   - threshold: value crosses a bound, with a hysteresis band the
//     signal must re-enter before the rule re-arms;
//   - rate-of-change: |value - previous| exceeds a per-observation step;
//   - change-point: a CUSUM or Page–Hinkley detector fires (these emit
//     AlertKind::kDriftDetected — the class the fault watchdog reacts
//     to).
// All rules honor a per-rule cooldown in *virtual* time: no wall clocks
// anywhere, so identical observation sequences emit identical alerts.
//
// The stream serializes as "metaai.alerts.v1" JSONL, byte-identical for
// identical alert vectors like every other export in this library.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/health.h"

namespace metaai::obs::health {

enum class AlertKind {
  kThreshold,      // a bound was crossed
  kRateOfChange,   // the signal moved too fast
  kDriftDetected,  // a change-point detector fired (watchdog trigger)
};

std::string_view AlertKindName(AlertKind kind);

enum class AlertSeverity { kInfo, kWarning, kCritical };

std::string_view AlertSeverityName(AlertSeverity severity);

/// One emitted alert. Plain data; the JSONL export serializes every
/// field. `tenant` is -1 when the alert is not tenant-scoped.
struct Alert {
  std::uint64_t seq = 0;
  /// Virtual time of the observation that fired the rule.
  double t_s = 0.0;
  AlertKind kind = AlertKind::kThreshold;
  AlertSeverity severity = AlertSeverity::kWarning;
  std::string rule;
  std::string signal;
  /// The observed value and the bound/threshold it tripped.
  double value = 0.0;
  double threshold = 0.0;
  std::int32_t tenant = -1;

  bool operator==(const Alert&) const = default;
};

/// Fires when the value crosses `bound` (above when `fire_above`, below
/// otherwise). After firing the rule disarms until the signal returns
/// past the hysteresis band bound * (1 -+ hysteresis), so a value
/// hovering at the bound emits one alert, not one per observation.
struct ThresholdRule {
  double bound = 0.0;
  bool fire_above = true;
  /// Re-arm band as a fraction of |bound|; 0 re-arms as soon as the
  /// value is back on the healthy side.
  double hysteresis = 0.0;
};

/// Fires when |value - previous observation| exceeds `max_step`.
struct RateOfChangeRule {
  double max_step = 0.0;
};

enum class ChangeDetector { kCusum, kPageHinkley };

/// Fires when the configured change-point detector fires; emits
/// AlertKind::kDriftDetected.
struct ChangePointRule {
  ChangeDetector detector = ChangeDetector::kCusum;
  CusumConfig cusum;
  PageHinkleyConfig page_hinkley;
};

/// One rule binding: exactly one of threshold/rate/change must be set.
struct AlertRule {
  std::string name;
  std::string signal;
  AlertSeverity severity = AlertSeverity::kWarning;
  /// Minimum virtual time between consecutive alerts from this rule.
  double cooldown_s = 0.0;
  std::optional<ThresholdRule> threshold;
  std::optional<RateOfChangeRule> rate;
  std::optional<ChangePointRule> change;
};

class AlertEngine {
 public:
  /// `tenant` stamps every emitted alert (-1 = not tenant-scoped).
  explicit AlertEngine(std::int32_t tenant = -1,
                       HealthMonitorConfig monitor = {});

  /// Throws CheckError unless exactly one rule variant is set.
  void AddRule(AlertRule rule);

  /// Feeds the monitor and evaluates this signal's rules in
  /// registration order at virtual time `t_s`, appending fired alerts
  /// to `out` with seq = out.size() at emission.
  void Observe(std::string_view signal, double t_s, double value,
               std::vector<Alert>& out);

  /// Convenience: feeds every health signal extracted from a probe
  /// record (see HealthSignalsFromProbe) at virtual time `t_s`.
  void ObserveProbe(const ProbeRecord& record, double t_s,
                    std::vector<Alert>& out);

  const HealthMonitor& monitor() const { return monitor_; }
  std::int32_t tenant() const { return tenant_; }
  std::size_t num_rules() const { return rules_.size(); }
  std::uint64_t alerts_emitted() const { return emitted_; }

 private:
  struct RuleState {
    AlertRule rule;
    bool armed = true;
    bool has_fired = false;
    double last_fire_s = 0.0;
    bool has_prev = false;
    double prev = 0.0;
    std::optional<CusumDetector> cusum;
    std::optional<PageHinkleyDetector> page_hinkley;
  };

  std::int32_t tenant_;
  HealthMonitor monitor_;
  std::vector<RuleState> rules_;
  std::uint64_t emitted_ = 0;
};

/// The standard link-health rule set used by serve::Runtime and the
/// fault benches: EVM ceiling, SNR floor, accuracy-proxy collapse +
/// CUSUM drift, sync-offset Page–Hinkley drift, and an SLO-violation
/// magnitude ceiling.
std::vector<AlertRule> DefaultLinkHealthRules();

/// Serializes alerts as "metaai.alerts.v1" JSONL: a header line
///   {"schema":"metaai.alerts.v1","count":N}
/// followed by one line per alert, in order:
///   {"seq":S,"t_s":T,"kind":"<kind>","severity":"<severity>",
///    "rule":"<rule>","signal":"<signal>","value":V,"threshold":H,
///    "tenant":N}
/// Identical alert vectors serialize to identical bytes.
std::string ToAlertsJsonl(const std::vector<Alert>& alerts);

/// Parses a "metaai.alerts.v1" document (the inverse of
/// ToAlertsJsonl). Throws CheckError on schema mismatch or malformed
/// lines.
std::vector<Alert> AlertsFromJsonl(std::string_view text);

}  // namespace metaai::obs::health
