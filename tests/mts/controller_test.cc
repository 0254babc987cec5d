#include "mts/controller.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace metaai::mts {
namespace {

TEST(ControllerTest, PrototypeBitBudgetMatchesPaper) {
  // 256 atoms / 16 groups = 16 atoms per group, 2 bits each = 32 bits per
  // shift-register chain (four 8-bit SN74LV595s).
  Controller controller;
  EXPECT_EQ(controller.BitsPerGroup(), 32u);
}

TEST(ControllerTest, MaxSwitchRateIsAround256MHzPatterns) {
  // The paper quotes a maximum switching rate of 2.56 MHz patterns/sec.
  Controller controller;
  EXPECT_GT(controller.MaxSwitchRate(), 2.4e6);
  EXPECT_LT(controller.MaxSwitchRate(), 2.9e6);
}

TEST(ControllerTest, SustainsMidSymbolFlipAt1Msps) {
  // Multipath cancellation needs 2 patterns per symbol at 1 Msym/s.
  Controller controller;
  EXPECT_TRUE(controller.CanSustain(1e6, 2));
  EXPECT_FALSE(controller.CanSustain(2e6, 2));
}

TEST(ControllerTest, LoadTimeScalesInverselyWithClock)
{
  ControllerConfig slow;
  slow.shift_clock_hz = 1e6;
  ControllerConfig fast = slow;
  fast.shift_clock_hz = 2e6;
  EXPECT_GT(Controller(slow).PatternLoadTime(),
            Controller(fast).PatternLoadTime());
  EXPECT_NEAR(Controller(slow).PatternLoadTime() - kLatchOverheadS,
              2.0 * (Controller(fast).PatternLoadTime() - kLatchOverheadS),
              1e-12);
}

TEST(ControllerTest, MoreGroupsLoadFaster) {
  ControllerConfig few;
  few.num_groups = 8;
  ControllerConfig many;
  many.num_groups = 32;
  EXPECT_GT(Controller(few).PatternLoadTime(),
            Controller(many).PatternLoadTime());
}

TEST(ControllerTest, ScheduleEnergyCountsPatternsAndStaticPower) {
  ControllerConfig config;
  config.energy_per_pattern_j = 1e-6;
  config.static_power_w = 0.5;
  Controller controller(config);
  EXPECT_NEAR(controller.ScheduleEnergy(100, 2.0), 100e-6 + 1.0, 1e-12);
  EXPECT_NEAR(controller.ScheduleEnergy(0, 0.0), 0.0, 1e-15);
}

TEST(ControllerTest, ValidatesConfig) {
  ControllerConfig bad;
  bad.num_atoms = 255;  // not divisible by 16 groups
  EXPECT_THROW(Controller{bad}, CheckError);
  ControllerConfig zero_clock;
  zero_clock.shift_clock_hz = 0.0;
  EXPECT_THROW(Controller{zero_clock}, CheckError);
  Controller controller;
  EXPECT_THROW(controller.CanSustain(0.0, 2), CheckError);
  EXPECT_THROW(controller.CanSustain(1e6, 0), CheckError);
  EXPECT_THROW(controller.ScheduleEnergy(1, -1.0), CheckError);
}

}  // namespace
}  // namespace metaai::mts
