#include "obs/timeseries.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.h"

namespace metaai::obs {
namespace {

std::vector<TimeSeriesPoint> MakeSeries() {
  std::vector<TimeSeriesPoint> points;
  points.push_back({.t_s = 1e-3,
                    .values = {{"queue_depth", 3.0},
                               {"frame_utilization", 0.25},
                               {"admitted", 4.0}}});
  points.push_back({.t_s = 6.5e-3,
                    .values = {{"queue_depth", 0.0},
                               {"frame_utilization", 0.125},
                               {"admitted", 7.0}}});
  return points;
}

TEST(TimeSeriesPointTest, ValueLooksUpByKey) {
  const TimeSeriesPoint point = MakeSeries()[0];
  EXPECT_EQ(point.Value("queue_depth"), 3.0);
  EXPECT_EQ(point.Value("admitted"), 4.0);
  EXPECT_EQ(point.Value("absent"), 0.0);
}

TEST(TimeSeriesJsonlTest, RoundTripsExactly) {
  const std::vector<TimeSeriesPoint> series = MakeSeries();
  const std::string text = ToTimeSeriesJsonl(series);
  const std::vector<TimeSeriesPoint> parsed = ParseTimeSeriesJsonl(text);
  EXPECT_EQ(parsed, series);
  EXPECT_EQ(ToTimeSeriesJsonl(parsed), text);
}

TEST(TimeSeriesJsonlTest, IdenticalSeriesSerializeToIdenticalBytes) {
  EXPECT_EQ(ToTimeSeriesJsonl(MakeSeries()), ToTimeSeriesJsonl(MakeSeries()));
}

TEST(TimeSeriesJsonlTest, EmptySeriesIsJustTheHeader) {
  const std::string text = ToTimeSeriesJsonl({});
  EXPECT_EQ(text, "{\"schema\":\"metaai.timeseries.v1\",\"count\":0}\n");
  EXPECT_TRUE(ParseTimeSeriesJsonl(text).empty());
}

TEST(TimeSeriesJsonlTest, RejectsForeignSchemasAndMalformedLines) {
  EXPECT_THROW(ParseTimeSeriesJsonl(""), CheckError);
  EXPECT_THROW(ParseTimeSeriesJsonl("{\"schema\":\"metaai.requests.v1\"}\n"),
               CheckError);
  std::string text = ToTimeSeriesJsonl(MakeSeries());
  text += "{\"t_s\":1}\n";  // extra record line beyond the header count
  EXPECT_THROW(ParseTimeSeriesJsonl(text), CheckError);
}

TEST(TimeSeriesJsonlTest, RejectsNegativeFractionalAndInfiniteCounts) {
  for (const char* count : {"-1", "0.5", "1e999", "-1e999", "\"0\""}) {
    EXPECT_THROW(
        ParseTimeSeriesJsonl(
            std::string("{\"schema\":\"metaai.timeseries.v1\",\"count\":") +
            count + "}\n"),
        CheckError)
        << count;
  }
}

}  // namespace
}  // namespace metaai::obs
