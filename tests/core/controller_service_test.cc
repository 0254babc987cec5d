#include "core/controller_service.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "data/datasets.h"
#include "rf/geometry.h"

namespace metaai::core {
namespace {

sim::OtaLinkConfig LinkAtAngle(double rx_deg) {
  sim::OtaLinkConfig config;
  config.geometry = {.tx_distance_m = 1.0,
                     .tx_angle_rad = rf::DegToRad(30.0),
                     .rx_distance_m = 3.0,
                     .rx_angle_rad = rf::DegToRad(rx_deg),
                     .frequency_hz = 5.25e9};
  config.environment.profile = rf::OfficeProfile();
  return config;
}

TrainedModel SmallModel() {
  const auto ds =
      data::MakeMnistLike({.train_per_class = 30, .test_per_class = 5});
  Rng rng(44);
  TrainingOptions options;
  options.epochs = 20;
  return TrainModel(ds.train, options, rng);
}

class ControllerServiceTest : public ::testing::Test {
 protected:
  const mts::LayerGraph graph_{mts::Metasurface{mts::MetasurfaceSpec{}}};
};

TEST_F(ControllerServiceTest, StableRssNeverTriggers) {
  ControllerService service(SmallModel(), graph_, LinkAtAngle(40.0));
  const auto truth = LinkAtAngle(40.0);
  for (int i = 0; i < 60; ++i) {
    EXPECT_FALSE(service.OnRssReport(-50.0, truth));
  }
  EXPECT_EQ(service.reconfigurations(), 0u);
  EXPECT_TRUE(service.armed());
  EXPECT_NEAR(service.baseline_rss_db(), -50.0, 1e-9);
}

TEST_F(ControllerServiceTest, SmallFluctuationsAreIgnored) {
  ControllerService service(SmallModel(), graph_, LinkAtAngle(40.0));
  const auto truth = LinkAtAngle(40.0);
  Rng rng(1);
  for (int i = 0; i < 80; ++i) {
    EXPECT_FALSE(service.OnRssReport(-50.0 + rng.Uniform(-2.0, 2.0), truth));
  }
  EXPECT_EQ(service.reconfigurations(), 0u);
}

TEST_F(ControllerServiceTest, PersistentDropTriggersRecalibration) {
  ControllerService service(SmallModel(), graph_, LinkAtAngle(40.0));
  // Establish the baseline at the calibrated position.
  for (int i = 0; i < 20; ++i) {
    service.OnRssReport(-50.0, LinkAtAngle(40.0));
  }
  ASSERT_TRUE(service.armed());

  // The receiver moves to 25 degrees: RSS collapses.
  const auto moved = LinkAtAngle(25.0);
  bool triggered = false;
  for (int i = 0; i < 20 && !triggered; ++i) {
    triggered = service.OnRssReport(-62.0, moved);
  }
  EXPECT_TRUE(triggered);
  EXPECT_EQ(service.reconfigurations(), 1u);
  // The new deployment points near the receiver's true bearing.
  EXPECT_NEAR(
      rf::RadToDeg(service.deployment().link().config().geometry.rx_angle_rad),
      25.0, 2.5);
  // The trigger disarms while the new baseline settles.
  EXPECT_FALSE(service.armed());
}

TEST_F(ControllerServiceTest, ReArmsAfterSettling) {
  ControllerService service(SmallModel(), graph_, LinkAtAngle(40.0));
  for (int i = 0; i < 20; ++i) service.OnRssReport(-50.0, LinkAtAngle(40.0));
  // First move; once recalibrated the reported RSS recovers.
  const auto moved = LinkAtAngle(25.0);
  for (int i = 0; i < 20 && service.reconfigurations() == 0; ++i) {
    service.OnRssReport(-62.0, moved);
  }
  ASSERT_EQ(service.reconfigurations(), 1u);
  // Stable at the new spot: baseline re-established.
  for (int i = 0; i < 20; ++i) service.OnRssReport(-52.0, moved);
  EXPECT_TRUE(service.armed());
  // Second move triggers again.
  const auto moved_again = LinkAtAngle(12.0);
  bool triggered = false;
  for (int i = 0; i < 20 && !triggered; ++i) {
    triggered = service.OnRssReport(-64.0, moved_again);
  }
  EXPECT_TRUE(triggered);
  EXPECT_EQ(service.reconfigurations(), 2u);
}

TEST_F(ControllerServiceTest, EventsAuditTheLifecycle) {
  ControllerService service(SmallModel(), graph_, LinkAtAngle(40.0));
  for (int i = 0; i < 20; ++i) service.OnRssReport(-50.0, LinkAtAngle(40.0));
  for (int i = 0; i < 20; ++i) service.OnRssReport(-62.0, LinkAtAngle(25.0));
  const auto& events = service.events();
  ASSERT_GE(events.size(), 4u);
  EXPECT_NE(events[0].what.find("deployed initial"), std::string::npos);
  bool saw_baseline = false;
  bool saw_drop = false;
  bool saw_redeploy = false;
  for (const auto& event : events) {
    saw_baseline |= event.what.find("baseline") != std::string::npos;
    saw_drop |= event.what.find("RSS drop") != std::string::npos;
    saw_redeploy |= event.what.find("redeployed") != std::string::npos;
  }
  EXPECT_TRUE(saw_baseline);
  EXPECT_TRUE(saw_drop);
  EXPECT_TRUE(saw_redeploy);
}

TEST_F(ControllerServiceTest, ValidatesConfig) {
  ControllerServiceConfig bad;
  bad.report_window = 0;
  EXPECT_THROW(ControllerService(SmallModel(), graph_, LinkAtAngle(40.0),
                                 bad),
               CheckError);
}

}  // namespace
}  // namespace metaai::core
