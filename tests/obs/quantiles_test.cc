#include "obs/quantiles.h"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <vector>

#include "common/check.h"

namespace metaai::obs {
namespace {

TEST(NearestRankPercentileTest, EmptySampleIsExplicit) {
  // An empty sample has no percentile, and the Try forms say so with
  // nullopt. (The old behaviour — silently returning 0.0 — made idle
  // tenants report a p50 latency of zero seconds.)
  EXPECT_EQ(TryNearestRankPercentile({}, 0.5), std::nullopt);
  const std::vector<double> qs = {0.5, 0.99};
  EXPECT_EQ(TryNearestRankPercentiles({}, qs), std::nullopt);
}

TEST(DigestTailsTest, EmptySampleYieldsZeroCountDigest) {
  const TailDigest digest = DigestTails({});
  EXPECT_EQ(digest.count, 0u);
  EXPECT_EQ(digest.p50, 0.0);
  EXPECT_EQ(digest.p99, 0.0);
  EXPECT_EQ(digest.p999, 0.0);
  // A count == 0 digest compares equal to a default one — the
  // placeholder percentiles carry no information.
  EXPECT_EQ(digest, TailDigest{});
}

TEST(NearestRankPercentileTest, PicksObservedValuesNeverInterpolates) {
  // Nearest rank over {1..100}: rank ceil(q*100), 1-indexed.
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) {
    values.push_back(static_cast<double>(i));
  }
  EXPECT_EQ(TryNearestRankPercentile(values, 0.50).value(), 50.0);
  EXPECT_EQ(TryNearestRankPercentile(values, 0.99).value(), 99.0);
  EXPECT_EQ(TryNearestRankPercentile(values, 0.999).value(), 100.0);
  EXPECT_EQ(TryNearestRankPercentile(values, 1.0).value(), 100.0);
  // An odd split still lands on a sample, never between two.
  EXPECT_EQ(TryNearestRankPercentile(values, 0.505).value(), 51.0);
}

TEST(NearestRankPercentileTest, SingleSampleIsEveryPercentile) {
  const std::vector<double> one = {7.25};
  EXPECT_EQ(TryNearestRankPercentile(one, 0.001).value(), 7.25);
  EXPECT_EQ(TryNearestRankPercentile(one, 0.5).value(), 7.25);
  EXPECT_EQ(TryNearestRankPercentile(one, 1.0).value(), 7.25);
}

TEST(NearestRankPercentileTest, RejectsOutOfRangeQuantiles) {
  const std::vector<double> values = {1.0, 2.0};
  EXPECT_THROW(TryNearestRankPercentile(values, 0.0).value(), CheckError);
  EXPECT_THROW(TryNearestRankPercentile(values, -0.5).value(), CheckError);
  EXPECT_THROW(TryNearestRankPercentile(values, 1.5).value(), CheckError);
}

TEST(NearestRankPercentilesTest, BatchMatchesSingleCalls) {
  const std::vector<double> values = {3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0};
  const std::vector<double> qs = {0.1, 0.5, 0.9, 0.99, 1.0};
  const std::vector<double> batch =
      TryNearestRankPercentiles(values, qs).value();
  ASSERT_EQ(batch.size(), qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(batch[i], TryNearestRankPercentile(values, qs[i]).value())
        << "q=" << qs[i];
  }
}

TEST(NearestRankPercentileTest, AllEqualSamplesReturnThatValue) {
  const std::vector<double> values(17, 3.75);
  EXPECT_EQ(TryNearestRankPercentile(values, 0.001).value(), 3.75);
  EXPECT_EQ(TryNearestRankPercentile(values, 0.5).value(), 3.75);
  EXPECT_EQ(TryNearestRankPercentile(values, 0.999).value(), 3.75);
  const TailDigest digest = DigestTails(values);
  EXPECT_EQ(digest.p50, 3.75);
  EXPECT_EQ(digest.p99, 3.75);
  EXPECT_EQ(digest.p999, 3.75);
}

TEST(NearestRankPercentileTest, RejectsNanSamples) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> poisoned = {1.0, nan, 2.0};
  const std::vector<double> qs = {0.5};
  EXPECT_THROW(TryNearestRankPercentile(poisoned, 0.5).value(), CheckError);
  EXPECT_THROW(TryNearestRankPercentiles(poisoned, qs).value(), CheckError);
  EXPECT_THROW(DigestTails(poisoned), CheckError);
}

TEST(DigestTailsTest, SingleSampleDigestIsThatSample) {
  const std::vector<double> one = {42.0};
  const TailDigest digest = DigestTails(one);
  EXPECT_EQ(digest.count, 1u);
  EXPECT_EQ(digest.p50, 42.0);
  EXPECT_EQ(digest.p99, 42.0);
  EXPECT_EQ(digest.p999, 42.0);
}

TEST(DigestTailsTest, MatchesNearestRankAndIsMonotone) {
  std::vector<double> values;
  for (int i = 0; i < 2000; ++i) {
    values.push_back(static_cast<double>((i * 733) % 1999));
  }
  const TailDigest digest = DigestTails(values);
  EXPECT_EQ(digest.count, values.size());
  EXPECT_EQ(digest.p50, TryNearestRankPercentile(values, 0.50).value());
  EXPECT_EQ(digest.p99, TryNearestRankPercentile(values, 0.99).value());
  EXPECT_EQ(digest.p999, TryNearestRankPercentile(values, 0.999).value());
  EXPECT_LE(digest.p50, digest.p99);
  EXPECT_LE(digest.p99, digest.p999);
}

}  // namespace
}  // namespace metaai::obs
