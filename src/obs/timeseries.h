// Virtual-time time-series telemetry ("metaai.timeseries.v1").
//
// Where the metrics Registry aggregates a whole run into final values,
// a time series keeps the *trajectory*: one snapshot of named gauges
// per virtual-time tick (the serving runtime ticks once per dispatched
// TDMA frame — queue depths, in-flight count, frame utilization, cache
// hit rate, cumulative admission counts). Ticks are appended from the
// single-threaded control loop — never from worker tasks — so the
// series and its JSONL export are byte-identical across thread counts.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace metaai::obs {

/// One snapshot tick: named values at virtual time `t_s`. Value order
/// is the append order and is part of the serialized bytes, so call
/// sites must emit keys in a fixed order.
struct TimeSeriesPoint {
  double t_s = 0.0;
  std::vector<std::pair<std::string, double>> values;

  /// Value lookup by key; 0 when absent.
  double Value(std::string_view key) const;

  bool operator==(const TimeSeriesPoint&) const = default;
};

/// Serializes a series as "metaai.timeseries.v1" JSONL: a header line
///   {"schema":"metaai.timeseries.v1","count":N}
/// followed by one line per point, in order:
///   {"t_s":T,"values":{"<key>":V,...}}
/// Identical series serialize to identical bytes.
std::string ToTimeSeriesJsonl(std::span<const TimeSeriesPoint> points);

/// Parses a "metaai.timeseries.v1" document; throws CheckError on
/// schema mismatch or malformed lines.
std::vector<TimeSeriesPoint> ParseTimeSeriesJsonl(std::string_view text);

/// Deterministically merges per-source series into one timeline:
/// every point is prefixed with a {tag_key, source index} value, then
/// all points are stable-sorted by t_s with ties broken by source
/// index (and original order within a source). The merge is a pure
/// function of the inputs, so fleet-level rollups stay byte-identical
/// across thread counts. An empty tag_key skips the tagging.
std::vector<TimeSeriesPoint> MergeTimeSeries(
    std::span<const std::vector<TimeSeriesPoint>> sources,
    std::string_view tag_key);

}  // namespace metaai::obs
