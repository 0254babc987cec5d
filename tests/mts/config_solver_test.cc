#include "mts/config_solver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "mts/metasurface.h"
#include "rf/geometry.h"
#include "simd/kernels.h"

namespace metaai::mts {
namespace {

std::vector<Complex> RandomSteering(std::size_t atoms, Rng& rng) {
  std::vector<Complex> steering(atoms);
  for (auto& s : steering) s = rng.UnitPhasor();
  return steering;
}

Complex Evaluate(std::span<const Complex> steering,
                 std::span<const PhaseCode> codes) {
  Complex sum{0.0, 0.0};
  for (std::size_t m = 0; m < steering.size(); ++m) {
    sum += steering[m] * PhasorForCode(codes[m]);
  }
  return sum;
}

TEST(ConfigSolverTest, AchievedMatchesRecomputedSum) {
  Rng rng(1);
  const auto steering = RandomSteering(64, rng);
  const Complex target{20.0, -10.0};
  const auto result = SolveSingleTarget(steering, target);
  ASSERT_EQ(result.codes.size(), 64u);
  ASSERT_EQ(result.achieved.size(), 1u);
  EXPECT_NEAR(std::abs(result.achieved[0] - Evaluate(steering, result.codes)),
              0.0, 1e-9);
  EXPECT_NEAR(result.residual, std::abs(result.achieved[0] - target), 1e-9);
}

TEST(ConfigSolverTest, ReachesTargetsWellInsideTheReachableDisk) {
  Rng rng(2);
  constexpr std::size_t kAtoms = 256;
  const auto steering = RandomSteering(kAtoms, rng);
  // Targets at half the reachable radius should be approximated to within
  // a small fraction of their magnitude.
  for (int trial = 0; trial < 20; ++trial) {
    const Complex target =
        rng.UnitPhasor() * (0.5 * ReachableMagnitude(kAtoms));
    const auto result = SolveSingleTarget(steering, target);
    EXPECT_LT(result.residual / std::abs(target), 0.02)
        << "trial " << trial;
  }
}

TEST(ConfigSolverTest, ResidualShrinksWithMoreAtoms) {
  Rng rng(3);
  const Complex unit_target = Complex{0.3, 0.4};
  double previous = 1e9;
  for (const std::size_t atoms : {16u, 64u, 256u}) {
    const auto steering = RandomSteering(atoms, rng);
    // Fixed *normalized* target scaled to each panel's size.
    const Complex target = unit_target * static_cast<double>(atoms);
    const auto result = SolveSingleTarget(steering, target);
    const double normalized_residual =
        result.residual / static_cast<double>(atoms);
    EXPECT_LT(normalized_residual, previous);
    previous = normalized_residual;
  }
  EXPECT_LT(previous, 0.01);
}

TEST(ConfigSolverTest, ZeroTargetIsRepresentable) {
  Rng rng(4);
  const auto steering = RandomSteering(64, rng);
  const auto result = SolveSingleTarget(steering, Complex{0.0, 0.0});
  EXPECT_LT(result.residual, 2.0);  // near-cancellation of 64 phasors
}

TEST(ConfigSolverTest, MultiTargetBeatsNaiveSingleTargetCompromise) {
  // Two targets with different steering: the joint solve must achieve a
  // lower summed error than solving for target 0 only.
  Rng rng(5);
  constexpr std::size_t kAtoms = 128;
  ComplexMatrix steering(2, kAtoms);
  std::vector<Complex> row0(kAtoms);
  for (std::size_t m = 0; m < kAtoms; ++m) {
    steering(0, m) = rng.UnitPhasor();
    steering(1, m) = rng.UnitPhasor();
    row0[m] = steering(0, m);
  }
  const std::vector<Complex> targets{Complex{30.0, 0.0}, Complex{0.0, 30.0}};
  const auto joint = SolveMultiTarget(steering, targets);

  const auto single = SolveSingleTarget(row0, targets[0]);
  double single_error = 0.0;
  for (std::size_t k = 0; k < 2; ++k) {
    Complex sum{0.0, 0.0};
    for (std::size_t m = 0; m < kAtoms; ++m) {
      sum += steering(k, m) * PhasorForCode(single.codes[m]);
    }
    single_error += std::norm(sum - targets[k]);
  }
  EXPECT_LT(joint.residual * joint.residual, single_error);
}

TEST(ConfigSolverTest, MultiTargetResidualGrowsWithTargetCount) {
  // With a fixed atom budget, serving more independent targets leaves a
  // larger per-target residual — the accuracy/latency trade-off behind
  // Fig 31.
  Rng rng(6);
  constexpr std::size_t kAtoms = 128;
  double previous = -1.0;
  for (const std::size_t num_targets : {1u, 4u, 8u}) {
    ComplexMatrix steering(num_targets, kAtoms);
    for (std::size_t k = 0; k < num_targets; ++k) {
      for (std::size_t m = 0; m < kAtoms; ++m) {
        steering(k, m) = rng.UnitPhasor();
      }
    }
    std::vector<Complex> targets(num_targets);
    for (auto& t : targets) t = rng.UnitPhasor() * 40.0;
    const auto result = SolveMultiTarget(steering, targets);
    const double per_target =
        result.residual / std::sqrt(static_cast<double>(num_targets));
    EXPECT_GT(per_target, previous);
    previous = per_target;
  }
}

TEST(ConfigSolverTest, ConvergesWithinSweepBudget) {
  Rng rng(7);
  const auto steering = RandomSteering(256, rng);
  const auto result =
      SolveSingleTarget(steering, Complex{50.0, 50.0}, {.max_sweeps = 8});
  EXPECT_LE(result.sweeps_used, 8);
}

TEST(ConfigSolverTest, ValidatesArguments) {
  EXPECT_THROW(SolveSingleTarget({}, Complex{1.0, 0.0}), CheckError);
  ComplexMatrix steering(2, 4, Complex{1.0, 0.0});
  const std::vector<Complex> wrong_targets{Complex{1.0, 0.0}};
  EXPECT_THROW(SolveMultiTarget(steering, wrong_targets), CheckError);
  const std::vector<Complex> targets{Complex{1.0, 0.0}, Complex{0.0, 1.0}};
  EXPECT_THROW(SolveMultiTarget(steering, targets, {.max_sweeps = 0}),
               CheckError);
}

// ValidateSolveOptions surfaces option errors as typed
// kInvalidArgument errors — one per distinct error path — and the
// throwing solvers reject bad shapes with CheckError.
TEST(ConfigSolverTest, TypedValidationErrors) {
  const auto sweeps = ValidateSolveOptions({.max_sweeps = 0}, 4);
  ASSERT_FALSE(sweeps.ok());
  EXPECT_EQ(sweeps.error().code, ErrorCode::kInvalidArgument);

  SolveOptions mismatched;
  mismatched.atom_mask = {1, 1};
  const auto mask = ValidateSolveOptions(mismatched, 4);
  ASSERT_FALSE(mask.ok());
  EXPECT_EQ(mask.error().code, ErrorCode::kInvalidArgument);

  SolveOptions all_dead;
  all_dead.atom_mask = {0, 0, 0, 0};
  const auto dead = ValidateSolveOptions(all_dead, 4);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.error().code, ErrorCode::kInvalidArgument);

  EXPECT_TRUE(ValidateSolveOptions({}, 4).ok());

  EXPECT_THROW(SolveSingleTarget({}, Complex{1.0, 0.0}), CheckError);

  ComplexMatrix steering(2, 4, Complex{1.0, 0.0});
  const std::vector<Complex> wrong_targets{Complex{1.0, 0.0}};
  EXPECT_THROW(SolveMultiTarget(steering, wrong_targets), CheckError);
  EXPECT_THROW(SolveMultiTarget(ComplexMatrix(0, 4), {}), CheckError);
}

TEST(ConfigSolverTest, ValidatesWarmStartOptions) {
  // initial_codes must cover every atom and stay within the 2-bit
  // alphabet; min_sweep_improvement is a relative threshold in [0, 1).
  SolveOptions short_codes;
  short_codes.initial_codes = {0, 1};
  const auto wrong_size = ValidateSolveOptions(short_codes, 4);
  ASSERT_FALSE(wrong_size.ok());
  EXPECT_EQ(wrong_size.error().code, ErrorCode::kInvalidArgument);

  SolveOptions bad_code;
  bad_code.initial_codes = {0, 1, 2, kNumPhaseStates};
  const auto out_of_range = ValidateSolveOptions(bad_code, 4);
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.error().code, ErrorCode::kInvalidArgument);

  EXPECT_FALSE(ValidateSolveOptions({.min_sweep_improvement = -0.1}, 4).ok());
  EXPECT_FALSE(ValidateSolveOptions({.min_sweep_improvement = 1.0}, 4).ok());
  SolveOptions good;
  good.initial_codes = {0, 1, 2, 3};
  good.min_sweep_improvement = 0.5;
  EXPECT_TRUE(ValidateSolveOptions(good, 4).ok());
}

TEST(ConfigSolverTest, WarmStartFromOwnSolutionConvergesImmediately) {
  Rng rng(21);
  const auto steering = RandomSteering(128, rng);
  const Complex target{30.0, -20.0};
  const auto cold = SolveSingleTarget(steering, target);

  // Re-solving from the converged codes finds nothing to flip: one
  // verification sweep, bitwise the same configuration.
  SolveOptions warm;
  warm.initial_codes = cold.codes;
  const auto resolved = SolveSingleTarget(steering, target, warm);
  EXPECT_EQ(resolved.codes, cold.codes);
  EXPECT_EQ(resolved.sweeps_used, 1);
  EXPECT_LE(resolved.sweeps_used, cold.sweeps_used);
}

TEST(ConfigSolverTest, WarmStartNearSolutionUsesFewerSweeps) {
  Rng rng(22);
  constexpr std::size_t kAtoms = 256;
  const auto steering = RandomSteering(kAtoms, rng);
  const Complex target{40.0, 25.0};
  const auto cold = SolveSingleTarget(steering, target);

  // Perturb a handful of atoms of the converged schedule — the warm
  // solve only has to repair those, so it needs fewer sweeps than the
  // cold solve and lands within the same residual ballpark.
  SolveOptions warm;
  warm.initial_codes = cold.codes;
  for (std::size_t i = 0; i < kAtoms; i += 37) {
    warm.initial_codes[i] = static_cast<PhaseCode>((cold.codes[i] + 1) % 4);
  }
  warm.min_sweep_improvement = 1e-3;
  const auto warm_result = SolveSingleTarget(steering, target, warm);
  EXPECT_LE(warm_result.sweeps_used, cold.sweeps_used);
  EXPECT_LE(warm_result.residual, cold.residual * 1.5 + 1e-9);
}

TEST(ConfigSolverTest, EarlyExitStillRespectsAtomMask) {
  Rng rng(23);
  constexpr std::size_t kAtoms = 64;
  const auto steering = RandomSteering(kAtoms, rng);
  SolveOptions options;
  options.atom_mask.assign(kAtoms, 1);
  options.atom_mask[3] = 0;
  options.atom_mask[40] = 0;
  options.initial_codes.assign(kAtoms, 2);  // masked atoms must be re-pinned
  options.min_sweep_improvement = 1e-2;
  const auto result = SolveSingleTarget(steering, Complex{10.0, 5.0}, options);
  EXPECT_EQ(result.codes[3], PhaseCode{0});
  EXPECT_EQ(result.codes[40], PhaseCode{0});
}

// Regression for reporting achieved/residual from the incrementally
// updated descent sums: each accepted code change adds one rounding
// error, and with large steering magnitudes cancelling toward a small
// target the incremental sums drift ~6e-13 (relative) from the true
// configuration response — far above the recomputed report's exact
// agreement. Both bounds fail on the pre-fix incremental reporting.
TEST(ConfigSolverTest, ReportedSumsMatchFromScratchEvaluation) {
  Rng rng(13);
  constexpr std::size_t kAtoms = 512;
  constexpr std::size_t kTargets = 8;
  ComplexMatrix steering(kTargets, kAtoms);
  for (std::size_t k = 0; k < kTargets; ++k) {
    for (std::size_t m = 0; m < kAtoms; ++m) {
      steering(k, m) = 1e6 * rng.UnitPhasor();
    }
  }
  // Targets far below the reachable magnitude force heavy cancellation:
  // intermediate sums are ~1e8 while the final sums are ~1e6, so the
  // incremental rounding error is large relative to the result.
  std::vector<Complex> targets(kTargets);
  for (auto& t : targets) t = 1e4 * rng.UnitPhasor();
  const auto result = SolveMultiTarget(steering, targets, {.max_sweeps = 64});

  // From-scratch reference through the same phased-sum kernel the solver
  // reports with, so the check is exact under any dispatch level (the
  // AVX2 lane reassociation would otherwise read as ~1e-13 "drift" here
  // because the construction amplifies summation-order differences).
  double fresh_error = 0.0;
  for (std::size_t k = 0; k < kTargets; ++k) {
    std::vector<double> re(kAtoms);
    std::vector<double> im(kAtoms);
    for (std::size_t m = 0; m < kAtoms; ++m) {
      re[m] = steering(k, m).real();
      im[m] = steering(k, m).imag();
    }
    const Complex sum =
        simd::PhasedSum(re.data(), im.data(), result.codes.data(), kAtoms);
    EXPECT_LT(std::abs(result.achieved[k] - sum) / std::abs(sum), 1e-14)
        << "target " << k;
    fresh_error += std::norm(sum - targets[k]);
  }
  const double fresh_residual = std::sqrt(fresh_error);
  EXPECT_LT(std::abs(result.residual - fresh_residual) / fresh_residual,
            1e-14);
}

TEST(ConfigSolverTest, MaskedAtomsStayFrozenAtCodeZero) {
  Rng rng(21);
  constexpr std::size_t kAtoms = 64;
  const auto steering = RandomSteering(kAtoms, rng);
  SolveOptions options;
  options.atom_mask.assign(kAtoms, 1);
  for (std::size_t m = 0; m < kAtoms; m += 4) options.atom_mask[m] = 0;
  const Complex target{15.0, -5.0};
  const auto result = SolveSingleTarget(steering, target, options);
  Complex healthy_sum{0.0, 0.0};
  for (std::size_t m = 0; m < kAtoms; ++m) {
    if (options.atom_mask[m] == 0) {
      EXPECT_EQ(result.codes[m], 0) << "atom " << m;
    } else {
      healthy_sum += steering[m] * PhasorForCode(result.codes[m]);
    }
  }
  // The reported response counts healthy atoms only.
  EXPECT_NEAR(std::abs(result.achieved[0] - healthy_sum), 0.0, 1e-12);
  EXPECT_NEAR(result.residual, std::abs(healthy_sum - target), 1e-12);
}

TEST(ConfigSolverTest, MaskedSolveMatchesCompactedHealthySolve) {
  // Solving with a mask must find the same optimum as solving the
  // compacted problem containing only the healthy atoms.
  Rng rng(22);
  constexpr std::size_t kAtoms = 96;
  const auto steering = RandomSteering(kAtoms, rng);
  SolveOptions options;
  options.atom_mask.assign(kAtoms, 1);
  std::vector<Complex> healthy;
  for (std::size_t m = 0; m < kAtoms; ++m) {
    if (m % 3 == 0) {
      options.atom_mask[m] = 0;
    } else {
      healthy.push_back(steering[m]);
    }
  }
  const Complex target{10.0, 20.0};
  const auto masked = SolveSingleTarget(steering, target, options);
  const auto compact = SolveSingleTarget(healthy, target);
  EXPECT_NEAR(masked.residual, compact.residual, 1e-9);
  std::size_t h = 0;
  for (std::size_t m = 0; m < kAtoms; ++m) {
    if (options.atom_mask[m] == 0) continue;
    EXPECT_EQ(masked.codes[m], compact.codes[h]) << "atom " << m;
    ++h;
  }
}

TEST(ConfigSolverTest, MaskedSolveDegradesGracefullyWithFaultFraction) {
  // More masked-out atoms -> less aperture -> larger residual against the
  // same target, but the solve still succeeds (no throw, finite result).
  Rng rng(23);
  constexpr std::size_t kAtoms = 256;
  const auto steering = RandomSteering(kAtoms, rng);
  // Near the full panel's reachable magnitude, so losing aperture makes
  // the target progressively unreachable and the residual must grow.
  const Complex target = std::polar(0.95 * ReachableMagnitude(kAtoms), 0.4);
  double previous = -1.0;
  for (const std::size_t stride : {0u, 8u, 4u, 2u}) {
    SolveOptions options;
    if (stride > 0) {
      options.atom_mask.assign(kAtoms, 1);
      for (std::size_t m = 0; m < kAtoms; m += stride) {
        options.atom_mask[m] = 0;
      }
    }
    const auto result = SolveSingleTarget(steering, target, options);
    EXPECT_GT(result.residual, previous);
    previous = result.residual;
  }
}

TEST(ConfigSolverTest, MaskSizeMismatchThrows) {
  Rng rng(24);
  const auto steering = RandomSteering(16, rng);
  SolveOptions options;
  options.atom_mask.assign(8, 1);
  EXPECT_THROW(SolveSingleTarget(steering, Complex{1.0, 0.0}, options),
               CheckError);
}

TEST(ConfigSolverTest, ReachableMagnitudeScalesLinearly) {
  EXPECT_NEAR(ReachableMagnitude(256) / 256.0, 0.9, 0.01);
  EXPECT_NEAR(ReachableMagnitude(512) / ReachableMagnitude(256), 2.0, 1e-12);
}

TEST(ConfigSolverTest, WorksWithRealMetasurfaceSteering) {
  // End-to-end against the actual panel model: pick a desired weight and
  // verify the solved configuration realizes it through
  // Metasurface::Response.
  Metasurface surface{MetasurfaceSpec{}};
  const LinkGeometry geometry{.tx_distance_m = 1.0,
                              .tx_angle_rad = rf::DegToRad(30.0),
                              .rx_distance_m = 3.0,
                              .rx_angle_rad = rf::DegToRad(40.0),
                              .frequency_hz = 5.25e9};
  const auto steering = surface.SteeringVector(geometry);
  const Complex pattern_scale = steering[0] / std::abs(steering[0]);
  (void)pattern_scale;
  const Complex target = Complex{40.0, 25.0};
  const auto result = SolveSingleTarget(steering, target);
  surface.SetAllCodes(result.codes);
  const Complex response = surface.Response(geometry);
  // Response = amplitude * sum; compare against the achieved sum.
  EXPECT_NEAR(std::abs(response - surface.PathAmplitude(geometry) *
                                      result.achieved[0]),
              0.0, 1e-9);
  EXPECT_LT(std::abs(result.achieved[0] - target) / std::abs(target), 0.05);
}

}  // namespace
}  // namespace metaai::mts
