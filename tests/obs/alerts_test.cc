#include "obs/alerts.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/check.h"

namespace metaai::obs::health {
namespace {

AlertRule Ceiling(const std::string& name, double bound,
                  double hysteresis = 0.0, double cooldown_s = 0.0) {
  return {.name = name,
          .signal = "x",
          .severity = AlertSeverity::kWarning,
          .cooldown_s = cooldown_s,
          .threshold = ThresholdRule{.bound = bound,
                                     .fire_above = true,
                                     .hysteresis = hysteresis}};
}

TEST(AlertEngineTest, RequiresExactlyOneRuleVariant) {
  AlertEngine engine;
  EXPECT_THROW(engine.AddRule({.name = "none", .signal = "x"}), CheckError);
  EXPECT_THROW(
      engine.AddRule({.name = "both",
                      .signal = "x",
                      .threshold = ThresholdRule{.bound = 1.0},
                      .rate = RateOfChangeRule{.max_step = 1.0}}),
      CheckError);
  engine.AddRule(Ceiling("ok", 1.0));
  EXPECT_EQ(engine.num_rules(), 1u);
}

TEST(AlertEngineTest, ThresholdFiresOnceUntilHysteresisRearm) {
  AlertEngine engine(3);
  engine.AddRule(Ceiling("x.ceiling", 10.0, /*hysteresis=*/0.1));
  std::vector<Alert> alerts;
  engine.Observe("x", 0.0, 5.0, alerts);
  engine.Observe("x", 1.0, 11.0, alerts);  // fires
  engine.Observe("x", 2.0, 12.0, alerts);  // disarmed: no alert
  engine.Observe("x", 3.0, 9.5, alerts);   // above 10*(1-0.1)=9: stays disarmed
  engine.Observe("x", 4.0, 11.0, alerts);  // still disarmed
  engine.Observe("x", 5.0, 8.0, alerts);   // below re-arm band: re-arms
  engine.Observe("x", 6.0, 11.0, alerts);  // fires again
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].seq, 0u);
  EXPECT_EQ(alerts[0].t_s, 1.0);
  EXPECT_EQ(alerts[0].kind, AlertKind::kThreshold);
  EXPECT_EQ(alerts[0].rule, "x.ceiling");
  EXPECT_EQ(alerts[0].value, 11.0);
  EXPECT_EQ(alerts[0].threshold, 10.0);
  EXPECT_EQ(alerts[0].tenant, 3);
  EXPECT_EQ(alerts[1].seq, 1u);
  EXPECT_EQ(alerts[1].t_s, 6.0);
  EXPECT_EQ(engine.alerts_emitted(), 2u);
}

TEST(AlertEngineTest, CooldownDropsAlertsInsideWindow) {
  AlertEngine engine;
  // No hysteresis: the rule re-arms as soon as the value dips below the
  // bound, so only the cooldown limits the alert rate.
  engine.AddRule(Ceiling("x.ceiling", 1.0, /*hysteresis=*/0.0,
                         /*cooldown_s=*/1.0));
  std::vector<Alert> alerts;
  engine.Observe("x", 0.0, 2.0, alerts);  // fires
  engine.Observe("x", 0.1, 0.5, alerts);  // re-arms
  engine.Observe("x", 0.2, 2.0, alerts);  // inside cooldown: dropped
  engine.Observe("x", 0.3, 0.5, alerts);
  engine.Observe("x", 1.5, 2.0, alerts);  // past cooldown: fires
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].t_s, 0.0);
  EXPECT_EQ(alerts[1].t_s, 1.5);
}

TEST(AlertEngineTest, RateOfChangeFiresOnLargeStep) {
  AlertEngine engine;
  engine.AddRule({.name = "x.rate",
                  .signal = "x",
                  .severity = AlertSeverity::kInfo,
                  .rate = RateOfChangeRule{.max_step = 1.0}});
  std::vector<Alert> alerts;
  engine.Observe("x", 0.0, 0.0, alerts);  // no previous: never fires
  engine.Observe("x", 1.0, 0.5, alerts);  // |0.5| <= 1
  engine.Observe("x", 2.0, 3.0, alerts);  // |2.5| > 1: fires
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, AlertKind::kRateOfChange);
  EXPECT_EQ(alerts[0].severity, AlertSeverity::kInfo);
  EXPECT_EQ(alerts[0].threshold, 1.0);
}

TEST(AlertEngineTest, ChangePointRuleEmitsDriftDetected) {
  AlertEngine engine(7);
  engine.AddRule({.name = "x.cusum",
                  .signal = "x",
                  .severity = AlertSeverity::kCritical,
                  .change = ChangePointRule{
                      .detector = ChangeDetector::kCusum,
                      .cusum = {.warmup = 8, .slack = 0.5, .threshold = 4.0}}});
  std::vector<Alert> alerts;
  double t = 0.0;
  for (int i = 0; i < 8; ++i) {
    engine.Observe("x", t, i % 2 == 0 ? 1.0 : -1.0, alerts);
    t += 1.0;
  }
  EXPECT_TRUE(alerts.empty());
  for (int i = 0; i < 10 && alerts.empty(); ++i) {
    engine.Observe("x", t, 8.0, alerts);
    t += 1.0;
  }
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, AlertKind::kDriftDetected);
  EXPECT_EQ(alerts[0].severity, AlertSeverity::kCritical);
  EXPECT_EQ(alerts[0].tenant, 7);
}

TEST(AlertEngineTest, SharedVectorYieldsGloballyOrderedSeq) {
  // Two tenant engines feeding one output vector, as serve::Runtime
  // does: seq numbers come from the shared vector, not per engine.
  AlertEngine a(0);
  AlertEngine b(1);
  a.AddRule(Ceiling("x.ceiling", 1.0));
  b.AddRule(Ceiling("x.ceiling", 1.0));
  std::vector<Alert> alerts;
  a.Observe("x", 0.0, 2.0, alerts);
  b.Observe("x", 0.5, 2.0, alerts);
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].seq, 0u);
  EXPECT_EQ(alerts[0].tenant, 0);
  EXPECT_EQ(alerts[1].seq, 1u);
  EXPECT_EQ(alerts[1].tenant, 1);
}

TEST(AlertEngineTest, IdenticalStreamsEmitIdenticalAlerts) {
  auto run = [] {
    AlertEngine engine(2);
    for (AlertRule& rule : DefaultLinkHealthRules()) {
      engine.AddRule(std::move(rule));
    }
    std::vector<Alert> alerts;
    double t = 0.0;
    for (int i = 0; i < 64; ++i) {
      engine.Observe(kSignalAccuracyProxy, t, i < 48 ? 0.5 : 0.001, alerts);
      engine.Observe(kSignalEvm, t, i < 48 ? 0.1 : 0.9, alerts);
      t += 0.02;
    }
    return alerts;
  };
  const std::vector<Alert> first = run();
  const std::vector<Alert> second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_EQ(ToAlertsJsonl(first), ToAlertsJsonl(second));
}

TEST(AlertEngineTest, RejectsNonFiniteSamples) {
  AlertEngine engine;
  std::vector<Alert> alerts;
  EXPECT_THROW(engine.Observe("x", 0.0,
                              std::numeric_limits<double>::quiet_NaN(),
                              alerts),
               CheckError);
}

TEST(AlertsJsonlTest, RoundTripsThroughJsonl) {
  std::vector<Alert> alerts;
  alerts.push_back({.seq = 0,
                    .t_s = 0.0125,
                    .kind = AlertKind::kThreshold,
                    .severity = AlertSeverity::kWarning,
                    .rule = "evm.ceiling",
                    .signal = "evm_rms",
                    .value = 0.62,
                    .threshold = 0.5,
                    .tenant = 0});
  alerts.push_back({.seq = 1,
                    .t_s = 0.5,
                    .kind = AlertKind::kDriftDetected,
                    .severity = AlertSeverity::kCritical,
                    .rule = "accuracy_proxy.cusum",
                    .signal = "accuracy_proxy",
                    .value = 0.001,
                    .threshold = 12.0,
                    .tenant = -1});
  const std::string jsonl = ToAlertsJsonl(alerts);
  EXPECT_EQ(AlertsFromJsonl(jsonl), alerts);
  // First line is the schema header with the record count.
  EXPECT_EQ(jsonl.substr(0, jsonl.find('\n')),
            "{\"schema\":\"metaai.alerts.v1\",\"count\":2}");
}

TEST(AlertsJsonlTest, EmptyStreamRoundTrips) {
  const std::string jsonl = ToAlertsJsonl({});
  EXPECT_EQ(jsonl, "{\"schema\":\"metaai.alerts.v1\",\"count\":0}\n");
  EXPECT_TRUE(AlertsFromJsonl(jsonl).empty());
}

TEST(AlertsJsonlTest, RejectsBadSchemaAndCountMismatch) {
  EXPECT_THROW(AlertsFromJsonl("{\"schema\":\"metaai.probes.v1\"}\n"),
               CheckError);
  EXPECT_THROW(AlertsFromJsonl("{\"schema\":\"metaai.alerts.v1\",\"count\":3}\n"),
               CheckError);
}

TEST(DefaultLinkHealthRulesTest, CoverTheServingSignals) {
  AlertEngine engine;
  std::size_t drift_rules = 0;
  std::vector<std::string> signals;
  for (AlertRule& rule : DefaultLinkHealthRules()) {
    if (rule.change.has_value()) ++drift_rules;
    signals.push_back(rule.signal);
    engine.AddRule(std::move(rule));
  }
  EXPECT_GE(engine.num_rules(), 5u);
  EXPECT_EQ(drift_rules, 2u);
  auto has = [&](std::string_view signal) {
    for (const std::string& s : signals) {
      if (s == signal) return true;
    }
    return false;
  };
  EXPECT_TRUE(has(kSignalEvm));
  EXPECT_TRUE(has(kSignalSnrDb));
  EXPECT_TRUE(has(kSignalAccuracyProxy));
  EXPECT_TRUE(has(kSignalSyncOffsetUs));
  EXPECT_TRUE(has(kSignalSloViolation));
}

TEST(AlertsJsonlTest, RejectsNegativeFractionalAndInfiniteIntegers) {
  // A negative count used to reach a double -> size_t cast (UB).
  EXPECT_THROW(
      AlertsFromJsonl("{\"schema\":\"metaai.alerts.v1\",\"count\":-1}"),
      CheckError);
  EXPECT_THROW(
      AlertsFromJsonl("{\"schema\":\"metaai.alerts.v1\",\"count\":1e999}\n"),
      CheckError);
  EXPECT_THROW(
      AlertsFromJsonl("{\"schema\":\"metaai.alerts.v1\",\"count\":0.5}\n"),
      CheckError);
  auto one_alert = [](const std::string& seq, const std::string& tenant) {
    return "{\"schema\":\"metaai.alerts.v1\",\"count\":1}\n"
           "{\"seq\":" + seq + ",\"t_s\":0,\"kind\":\"threshold\","
           "\"severity\":\"info\",\"rule\":\"r\",\"signal\":\"s\","
           "\"value\":0,\"threshold\":0,\"tenant\":" + tenant + "}\n";
  };
  // Tenant is signed: -1 (not tenant-scoped) is valid.
  ASSERT_EQ(AlertsFromJsonl(one_alert("3", "-1")).size(), 1u);
  EXPECT_EQ(AlertsFromJsonl(one_alert("3", "-1"))[0].tenant, -1);
  EXPECT_THROW(AlertsFromJsonl(one_alert("-3", "0")), CheckError);
  EXPECT_THROW(AlertsFromJsonl(one_alert("1e999", "0")), CheckError);
  EXPECT_THROW(AlertsFromJsonl(one_alert("0", "2147483648")), CheckError);
  EXPECT_THROW(AlertsFromJsonl(one_alert("0", "-1e999")), CheckError);
  EXPECT_THROW(AlertsFromJsonl(one_alert("0", "0.5")), CheckError);
}

}  // namespace
}  // namespace metaai::obs::health
