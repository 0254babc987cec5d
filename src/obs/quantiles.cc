#include "obs/quantiles.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace metaai::obs {
namespace {

double SortedNearestRank(std::span<const double> sorted, double q) {
  Check(q > 0.0 && q <= 1.0, "nearest-rank percentile requires q in (0, 1]");
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(rank > 0 ? rank - 1 : 0, sorted.size() - 1)];
}

/// NaN has no place in a rank statistic: it breaks the strict weak
/// ordering std::sort requires, so the sort itself would be UB. Reject
/// loudly instead of silently producing an arbitrary percentile.
std::vector<double> SortedCopy(std::span<const double> values) {
  std::vector<double> sorted(values.begin(), values.end());
  for (const double value : sorted) {
    Check(!std::isnan(value), "nearest-rank percentile rejects NaN samples");
  }
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace

std::optional<double> TryNearestRankPercentile(std::span<const double> values,
                                               double q) {
  if (values.empty()) return std::nullopt;
  const std::vector<double> sorted = SortedCopy(values);
  return SortedNearestRank(sorted, q);
}

std::optional<std::vector<double>> TryNearestRankPercentiles(
    std::span<const double> values, std::span<const double> qs) {
  if (values.empty()) return std::nullopt;
  const std::vector<double> sorted = SortedCopy(values);
  std::vector<double> results(qs.size(), 0.0);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    results[i] = SortedNearestRank(sorted, qs[i]);
  }
  return results;
}

TailDigest DigestTails(std::span<const double> values) {
  static constexpr double kQs[] = {0.50, 0.99, 0.999};
  const std::optional<std::vector<double>> ps =
      TryNearestRankPercentiles(values, kQs);
  if (!ps.has_value()) return {};  // count == 0 marks the empty sample
  return {.p50 = (*ps)[0], .p99 = (*ps)[1], .p999 = (*ps)[2],
          .count = values.size()};
}

}  // namespace metaai::obs
