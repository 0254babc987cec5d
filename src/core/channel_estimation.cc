#include "core/channel_estimation.h"

#include <cmath>

#include "common/check.h"

namespace metaai::core {

EnvironmentEstimate EstimateEnvironment(
    const sim::OtaLink& link, Rng& rng,
    const EnvironmentEstimateOptions& options) {
  Check(link.num_observations() == 1,
        "environment estimation expects a single-observation link");
  Check(!link.config().multipath_cancellation,
        "environment estimation requires cancellation disabled: the "
        "zero-mean scheme removes exactly the path being estimated");
  Check(options.num_pilots > 0, "need at least one pilot");

  // Null the surface toward the receiver: solve for an aggregate
  // reflection of zero.
  const auto steering = link.SteeringVector(0);
  const auto null_solution = mts::SolveSingleTarget(
      steering, {0.0, 0.0}, options.solver);

  EnvironmentEstimate estimate;
  estimate.null_codes = null_solution.codes;
  double reachable = 0.0;
  for (const auto& s : steering) reachable += std::abs(s);
  estimate.null_quality = null_solution.residual / (0.9 * reachable);

  // Known unit-power pilots with random phases (so the estimate is not
  // biased by a single constellation point).
  std::vector<sim::Complex> pilots(options.num_pilots);
  for (auto& p : pilots) p = rng.UnitPhasor();
  const sim::MtsSchedule schedule(options.num_pilots, null_solution.codes);
  const auto z = link.TransmitSequence(pilots, schedule, sim::LayerSchedules{},
                                       /*mts_clock_offset_us=*/0.0, rng);

  // Least squares: H = sum z_i conj(x_i) / sum |x_i|^2.
  sim::Complex numerator{0.0, 0.0};
  double denominator = 0.0;
  for (std::size_t i = 0; i < pilots.size(); ++i) {
    numerator += z(0, i) * std::conj(pilots[i]);
    denominator += std::norm(pilots[i]);
  }
  estimate.response = numerator / denominator;
  return estimate;
}

}  // namespace metaai::core
