// Shared nearest-rank percentile helpers.
//
// Latency reporting across the serving stack (ServeStats, bench
// headline tables, the obs report tool) uses nearest-rank percentiles:
// the value at rank ceil(q * n) of the sorted sample — an actual
// observed value, never an interpolation, which is the right convention
// for tail latencies (p99/p999 of 47 samples is the worst sample, not a
// number between two samples). This is distinct from the
// linear-interpolated metaai::Percentile in common/stats.h, which the
// figure-reproduction benches use for CDF readouts.
//
// All helpers sort once; TailDigest is the standard p50/p99/p999 readout
// minted for SLO accounting.
//
// Empty samples: an empty sample has no percentile, and silently
// reporting 0.0 is indistinguishable from a true zero (the historical
// bug: an idle tenant's "p50 latency 0.0s" read as infinitely fast).
// The Try forms make emptiness explicit (nullopt); a caller that knows
// its sample is non-empty takes .value(). TailDigest carries the sample
// count so renderers can count-gate ("n/a" instead of a fabricated 0).
#pragma once

#include <optional>
#include <span>
#include <vector>

namespace metaai::obs {

/// Nearest-rank percentile, q in (0, 1]; nullopt for an empty sample.
/// Throws CheckError on NaN samples (a NaN breaks the sort ordering).
std::optional<double> TryNearestRankPercentile(std::span<const double> values,
                                               double q);

/// Batch of nearest-rank percentiles from one sort of `values`:
/// results[i] corresponds to qs[i]; nullopt for an empty sample. Prefer
/// this over repeated single calls (each re-copies and re-sorts).
std::optional<std::vector<double>> TryNearestRankPercentiles(
    std::span<const double> values, std::span<const double> qs);

/// The standard tail readout: p50/p99/p999 from one sort, plus the
/// sample count. count == 0 means "no sample": the percentile fields
/// are meaningless placeholders (0.0) and renderers must gate on count.
struct TailDigest {
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  std::size_t count = 0;

  bool operator==(const TailDigest&) const = default;
};

/// Accepts an empty sample (returns a count == 0 digest).
TailDigest DigestTails(std::span<const double> values);

}  // namespace metaai::obs
