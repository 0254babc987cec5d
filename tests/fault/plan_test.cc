#include "fault/plan.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/result.h"

namespace metaai::fault {
namespace {

TEST(FaultPlanTest, EmptySpecIsHealthy) {
  const FaultPlan plan = TryParseFaultSpec("").value();
  EXPECT_FALSE(plan.Any());
  EXPECT_EQ(plan.seed, 1u);
}

TEST(FaultPlanTest, ParsesEveryModel) {
  const FaultPlan plan =
      TryParseFaultSpec(
          "stuck=0.1,chain=1e-4,drift=0.5,age=30,burst=0.05:20,seed=7")
          .value();
  EXPECT_TRUE(plan.Any());
  EXPECT_DOUBLE_EQ(plan.stuck.fraction, 0.1);
  EXPECT_DOUBLE_EQ(plan.chain.bit_flip_prob, 1e-4);
  EXPECT_DOUBLE_EQ(plan.drift.rate_std_rad_per_s, 0.5);
  EXPECT_DOUBLE_EQ(plan.drift.age_s, 30.0);
  EXPECT_DOUBLE_EQ(plan.burst.probability, 0.05);
  EXPECT_DOUBLE_EQ(plan.burst.max_extra_us, 20.0);
  EXPECT_EQ(plan.seed, 7u);
}

TEST(FaultPlanTest, DriftWithoutAgeGetsDefaultHorizon) {
  const FaultPlan plan = TryParseFaultSpec("drift=0.2").value();
  EXPECT_DOUBLE_EQ(plan.drift.age_s, 60.0);
  EXPECT_TRUE(plan.Any());
}

TEST(FaultPlanTest, SpecStringRoundTrips) {
  const FaultPlan plan =
      TryParseFaultSpec(
          "stuck=0.25,chain=0.001,drift=0.5,age=45,burst=0.1:8,seed=42")
          .value();
  const FaultPlan again = TryParseFaultSpec(FaultSpecString(plan)).value();
  EXPECT_DOUBLE_EQ(again.stuck.fraction, plan.stuck.fraction);
  EXPECT_DOUBLE_EQ(again.chain.bit_flip_prob, plan.chain.bit_flip_prob);
  EXPECT_DOUBLE_EQ(again.drift.rate_std_rad_per_s,
                   plan.drift.rate_std_rad_per_s);
  EXPECT_DOUBLE_EQ(again.drift.age_s, plan.drift.age_s);
  EXPECT_DOUBLE_EQ(again.burst.probability, plan.burst.probability);
  EXPECT_DOUBLE_EQ(again.burst.max_extra_us, plan.burst.max_extra_us);
  EXPECT_EQ(again.seed, plan.seed);
}

// Malformed syntax comes back as kParseError, out-of-range values as
// kInvalidArgument — one assertion per distinct error path.
TEST(FaultPlanTest, MalformedSpecsAreParseErrors) {
  for (const char* spec : {"stuck", "burst=0.1", "wearout=1", "stuck=abc",
                           "seed=abc", "burst=x:1"}) {
    const Result<FaultPlan> result = TryParseFaultSpec(spec);
    ASSERT_FALSE(result.ok()) << spec;
    EXPECT_EQ(result.error().code, ErrorCode::kParseError) << spec;
  }
}

// strtoull would wrap a negative seed and saturate an oversized one.
TEST(FaultPlanTest, NegativeAndOverflowingSeedsAreParseErrors) {
  for (const char* spec :
       {"seed=-1", "seed=-0", "seed= -5", "seed=18446744073709551616",
        "seed=99999999999999999999999"}) {
    const Result<FaultPlan> result = TryParseFaultSpec(spec);
    ASSERT_FALSE(result.ok()) << spec;
    EXPECT_EQ(result.error().code, ErrorCode::kParseError) << spec;
  }
  EXPECT_EQ(TryParseFaultSpec("seed=18446744073709551615").value().seed,
            18446744073709551615ull);
}

TEST(FaultPlanTest, OutOfRangeValuesAreInvalidArguments) {
  for (const char* spec :
       {"stuck=1.5", "chain=-0.1", "drift=-1", "age=-5", "burst=2:10",
        "burst=0.1:-3"}) {
    const Result<FaultPlan> result = TryParseFaultSpec(spec);
    ASSERT_FALSE(result.ok()) << spec;
    EXPECT_EQ(result.error().code, ErrorCode::kInvalidArgument) << spec;
  }
}

// NaN slips past every range check and an infinite drift or age makes
// the link's steering non-finite, so non-finite numbers are malformed.
TEST(FaultPlanTest, NonFiniteValuesAreParseErrors) {
  for (const char* spec :
       {"stuck=nan", "chain=nan", "drift=nan", "drift=inf", "age=inf",
        "age=-inf", "burst=nan:1", "burst=0.1:inf", "stuck=1e400"}) {
    const Result<FaultPlan> result = TryParseFaultSpec(spec);
    ASSERT_FALSE(result.ok()) << spec;
    EXPECT_EQ(result.error().code, ErrorCode::kParseError) << spec;
  }
}

}  // namespace
}  // namespace metaai::fault
