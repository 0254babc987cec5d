#include "obs/timeseries.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"
#include "obs/export.h"

namespace metaai::obs {

double TimeSeriesPoint::Value(std::string_view key) const {
  for (const auto& [name, value] : values) {
    if (name == key) return value;
  }
  return 0.0;
}

std::string ToTimeSeriesJsonl(std::span<const TimeSeriesPoint> points) {
  std::ostringstream os;
  os << "{\"schema\":\"metaai.timeseries.v1\",\"count\":" << points.size()
     << "}\n";
  for (const TimeSeriesPoint& point : points) {
    os << "{\"t_s\":" << JsonNumber(point.t_s) << ",\"values\":{";
    for (std::size_t i = 0; i < point.values.size(); ++i) {
      const auto& [name, value] = point.values[i];
      os << (i > 0 ? "," : "") << JsonString(name) << ':' << JsonNumber(value);
    }
    os << "}}\n";
  }
  return os.str();
}

std::vector<TimeSeriesPoint> ParseTimeSeriesJsonl(std::string_view text) {
  const JsonlDocument document = ParseJsonl(text, "metaai.timeseries.v1");
  std::vector<TimeSeriesPoint> points;
  points.reserve(document.records.size());
  for (const JsonValue& record : document.records) {
    TimeSeriesPoint point;
    point.t_s = Member(record, "t_s").number;
    for (const auto& [name, value] : Member(record, "values").object) {
      point.values.emplace_back(name, value.number);
    }
    points.push_back(std::move(point));
  }
  return points;
}

std::vector<TimeSeriesPoint> MergeTimeSeries(
    std::span<const std::vector<TimeSeriesPoint>> sources,
    std::string_view tag_key) {
  std::vector<TimeSeriesPoint> merged;
  std::size_t total = 0;
  for (const std::vector<TimeSeriesPoint>& source : sources) {
    total += source.size();
  }
  merged.reserve(total);
  // Concatenation order = source order, so the stable sort's tie-break
  // is (source index, original position within the source).
  for (std::size_t s = 0; s < sources.size(); ++s) {
    for (const TimeSeriesPoint& point : sources[s]) {
      TimeSeriesPoint tagged;
      tagged.t_s = point.t_s;
      tagged.values.reserve(point.values.size() + (tag_key.empty() ? 0 : 1));
      if (!tag_key.empty()) {
        tagged.values.emplace_back(std::string(tag_key),
                                   static_cast<double>(s));
      }
      tagged.values.insert(tagged.values.end(), point.values.begin(),
                           point.values.end());
      merged.push_back(std::move(tagged));
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TimeSeriesPoint& a, const TimeSeriesPoint& b) {
                     return a.t_s < b.t_s;
                   });
  return merged;
}

}  // namespace metaai::obs
