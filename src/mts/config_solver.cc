#include "mts/config_solver.h"

#include <cmath>

#include "common/check.h"
#include "obs/obs.h"
#include "simd/kernels.h"

namespace metaai::mts {
namespace {

// Mean projection of a uniformly distributed phase error in
// [-pi/4, pi/4]: sin(pi/4) / (pi/4).
constexpr double kQuantizationFactor = 0.9003163161571062;

// Nearest-phase initialization for a single target: rotate each atom so
// its contribution points toward the target.
std::vector<PhaseCode> InitializeToward(std::span<const Complex> steering,
                                        Complex target) {
  const double target_phase = std::arg(target);
  std::vector<PhaseCode> codes(steering.size());
  for (std::size_t m = 0; m < steering.size(); ++m) {
    codes[m] = NearestCode(target_phase - std::arg(steering[m]));
  }
  return codes;
}

}  // namespace

Result<void> ValidateSolveOptions(const SolveOptions& options,
                                  std::size_t num_atoms) {
  if (options.max_sweeps <= 0) {
    return Error{ErrorCode::kInvalidArgument,
                 "max_sweeps must be positive, got " +
                     std::to_string(options.max_sweeps)};
  }
  if (!options.atom_mask.empty()) {
    if (options.atom_mask.size() != num_atoms) {
      return Error{ErrorCode::kInvalidArgument,
                   "atom_mask size " + std::to_string(options.atom_mask.size()) +
                       " does not match the atom count " +
                       std::to_string(num_atoms)};
    }
    bool any_healthy = false;
    for (const std::uint8_t healthy : options.atom_mask) {
      if (healthy != 0) {
        any_healthy = true;
        break;
      }
    }
    if (!any_healthy) {
      return Error{ErrorCode::kInvalidArgument,
                   "atom_mask leaves no healthy atoms to solve over"};
    }
  }
  if (!options.initial_codes.empty()) {
    if (options.initial_codes.size() != num_atoms) {
      return Error{ErrorCode::kInvalidArgument,
                   "initial_codes size " +
                       std::to_string(options.initial_codes.size()) +
                       " does not match the atom count " +
                       std::to_string(num_atoms)};
    }
    for (const PhaseCode code : options.initial_codes) {
      if (code >= kNumPhaseStates) {
        return Error{ErrorCode::kInvalidArgument,
                     "initial_codes contains out-of-range code " +
                         std::to_string(static_cast<int>(code))};
      }
    }
  }
  if (!(options.min_sweep_improvement >= 0.0) ||
      options.min_sweep_improvement >= 1.0) {
    return Error{ErrorCode::kInvalidArgument,
                 "min_sweep_improvement must lie in [0, 1), got " +
                     std::to_string(options.min_sweep_improvement)};
  }
  return Ok();
}

double ReachableMagnitude(std::size_t num_atoms) {
  return static_cast<double>(num_atoms) * kQuantizationFactor;
}

double ReachableMagnitude(std::span<const Complex> steering) {
  double sum = 0.0;
  for (const Complex& s : steering) sum += std::abs(s);
  return sum * kQuantizationFactor;
}

SolveResult SolveSingleTarget(std::span<const Complex> steering,
                              Complex target, const SolveOptions& options) {
  Check(!steering.empty(), "solver requires at least one atom");
  ComplexMatrix matrix(1, steering.size());
  for (std::size_t m = 0; m < steering.size(); ++m) matrix(0, m) = steering[m];
  const Complex targets[] = {target};
  // Pure delegation: SolveMultiTarget does its own directional
  // initialization toward the first (here: only) target before sweeping,
  // so no initial codes are passed through.
  return SolveMultiTarget(matrix, targets, options);
}

SolveResult SolveMultiTarget(const ComplexMatrix& steering,
                             std::span<const Complex> targets,
                             const SolveOptions& options) {
  const std::size_t num_targets = steering.rows();
  const std::size_t num_atoms = steering.cols();
  Check(num_targets > 0 && num_atoms > 0, "solver requires targets and atoms");
  Check(targets.size() == num_targets, "target count mismatch");
  ValidateSolveOptions(options, num_atoms).value();

  const std::vector<std::uint8_t>& mask = options.atom_mask;
  const auto masked_out = [&](std::size_t m) {
    return !mask.empty() && mask[m] == 0;
  };

  SolveResult result;
  // Initialization: warm-start codes when the caller supplies them
  // (incremental solve from a similar cached schedule), otherwise align
  // toward the first target (arbitrary but stable; for the single-target
  // case this is the classic nearest-phase beam). Masked-out (faulty)
  // atoms are pinned to code 0 and never touched either way.
  if (!options.initial_codes.empty()) {
    result.codes = options.initial_codes;
  } else {
    std::vector<Complex> first_row(num_atoms);
    for (std::size_t m = 0; m < num_atoms; ++m) first_row[m] = steering(0, m);
    result.codes = InitializeToward(first_row, targets[0]);
  }
  for (std::size_t m = 0; m < num_atoms; ++m) {
    if (masked_out(m)) result.codes[m] = 0;
  }

  // Structure-of-arrays steering planes, one K x M pair for the phased
  // sums. Masked-out atoms hold 0.0 in both planes, which contributes
  // additive identities to the running sums — bitwise equivalent to
  // skipping them, and it keeps the kernel branch-free.
  std::vector<double> steer_re(num_targets * num_atoms);
  std::vector<double> steer_im(num_targets * num_atoms);
  for (std::size_t k = 0; k < num_targets; ++k) {
    for (std::size_t m = 0; m < num_atoms; ++m) {
      if (masked_out(m)) continue;
      steer_re[k * num_atoms + m] = steering(k, m).real();
      steer_im[k * num_atoms + m] = steering(k, m).imag();
    }
  }

  // Running sums per target for the current configuration (healthy atoms
  // only; a masked atom's physical contribution is the caller's problem —
  // it either cancels under the §3.2 flip scheme or arrives as a
  // measured target offset).
  const auto recompute_sums = [&](std::vector<Complex>& sums) {
    for (std::size_t k = 0; k < num_targets; ++k) {
      sums[k] = simd::PhasedSum(steer_re.data() + k * num_atoms,
                                steer_im.data() + k * num_atoms,
                                result.codes.data(), num_atoms);
    }
  };
  std::vector<Complex> sums(num_targets);
  recompute_sums(sums);

  auto total_error = [&]() {
    double err = 0.0;
    for (std::size_t k = 0; k < num_targets; ++k) {
      err += std::norm(sums[k] - targets[k]);
    }
    return err;
  };

  static const obs::HistogramSpec kImprovementBuckets =
      obs::HistogramSpec::Linear(0.0, 1.0, 20);
  obs::Count("solver.calls");
  // Objective after each coordinate-descent sweep, for the
  // flight-recorder convergence curve.
  std::vector<double> sweep_errors;
  if (obs::ProbesEnabled()) {
    sweep_errors.reserve(static_cast<std::size_t>(options.max_sweeps));
  }
  bool converged = false;
  for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
    const double sweep_start_error = total_error();
    bool changed = false;
    for (std::size_t m = 0; m < num_atoms; ++m) {
      if (masked_out(m)) continue;
      const PhaseCode old_code = result.codes[m];
      const Complex old_phasor = PhasorForCode(old_code);
      PhaseCode best_code = old_code;
      double best_error = 0.0;
      bool first = true;
      for (PhaseCode candidate = 0; candidate < kNumPhaseStates; ++candidate) {
        const Complex delta = PhasorForCode(candidate) - old_phasor;
        double err = 0.0;
        for (std::size_t k = 0; k < num_targets; ++k) {
          err += std::norm(sums[k] + steering(k, m) * delta - targets[k]);
        }
        if (first || err < best_error) {
          first = false;
          best_error = err;
          best_code = candidate;
        }
      }
      if (best_code != old_code) {
        const Complex delta = PhasorForCode(best_code) - old_phasor;
        for (std::size_t k = 0; k < num_targets; ++k) {
          sums[k] += steering(k, m) * delta;
        }
        result.codes[m] = best_code;
        changed = true;
      }
    }
    result.sweeps_used = sweep + 1;
    const double sweep_end_error = total_error();
    if (obs::ProbesEnabled()) sweep_errors.push_back(sweep_end_error);
    // Relative objective improvement of this coordinate-descent sweep.
    const double relative_improvement =
        sweep_start_error > 0.0
            ? (sweep_start_error - sweep_end_error) / sweep_start_error
            : 0.0;
    if (sweep_start_error > 0.0) {
      obs::Observe("solver.sweep_improvement", relative_improvement,
                   kImprovementBuckets);
    }
    if (!changed) {
      converged = true;
      break;
    }
    // Residual-delta early exit: a sweep that still flipped codes but
    // barely moved the objective is polishing noise — warm starts reach
    // this state after one or two repair sweeps.
    if (options.min_sweep_improvement > 0.0 &&
        relative_improvement < options.min_sweep_improvement) {
      converged = true;
      obs::Count("solver.early_exits");
      break;
    }
  }

  static const obs::HistogramSpec kSweepBuckets =
      obs::HistogramSpec::Linear(0.0, 16.0, 16);
  obs::Count("solver.sweeps", static_cast<std::uint64_t>(result.sweeps_used));
  if (converged) obs::Count("solver.converged");
  obs::Observe("solver.sweeps_per_solve",
               static_cast<double>(result.sweeps_used), kSweepBuckets);

  // Report from sums recomputed against the final codes: the
  // incrementally updated descent sums accumulate one rounding error per
  // accepted code change and drift from the true configuration response
  // over many sweeps.
  recompute_sums(sums);
  result.achieved = sums;
  result.residual = std::sqrt(total_error());
  if (obs::ProbesEnabled()) {
    obs::Probe({.kind = obs::ProbeKind::kSolverSweep,
                .site = "solver.solve",
                .values = {{"targets", static_cast<double>(num_targets)},
                           {"atoms", static_cast<double>(num_atoms)},
                           {"sweeps", static_cast<double>(result.sweeps_used)},
                           {"converged", converged ? 1.0 : 0.0},
                           {"residual", result.residual}},
                .series = std::move(sweep_errors)});
  }
  return result;
}

namespace {

// Phased sums of a layer's own (unscaled) steering rows under `codes`,
// through the same SoA kernel the inner solver uses. Masked-out atoms
// contribute nothing, matching the inner solver's zeroed planes.
std::vector<Complex> LayerSums(const ComplexMatrix& steering,
                               std::span<const PhaseCode> codes,
                               std::span<const std::uint8_t> mask) {
  const std::size_t num_targets = steering.rows();
  const std::size_t num_atoms = steering.cols();
  std::vector<double> re(num_atoms);
  std::vector<double> im(num_atoms);
  std::vector<Complex> sums(num_targets);
  for (std::size_t k = 0; k < num_targets; ++k) {
    for (std::size_t m = 0; m < num_atoms; ++m) {
      const bool masked = !mask.empty() && mask[m] == 0;
      re[m] = masked ? 0.0 : steering(k, m).real();
      im[m] = masked ? 0.0 : steering(k, m).imag();
    }
    sums[k] = simd::PhasedSum(re.data(), im.data(), codes.data(), num_atoms);
  }
  return sums;
}

ComplexMatrix ScaleRows(const ComplexMatrix& steering,
                        const std::vector<Complex>& factors) {
  ComplexMatrix scaled(steering.rows(), steering.cols());
  for (std::size_t k = 0; k < steering.rows(); ++k) {
    for (std::size_t m = 0; m < steering.cols(); ++m) {
      scaled(k, m) = steering(k, m) * factors[k];
    }
  }
  return scaled;
}

}  // namespace

CascadeResult SolveCascadeMultiTarget(std::span<const CascadeLayerInput> layers,
                                      std::span<const Complex> targets,
                                      const CascadeOptions& cascade) {
  Check(!layers.empty(), "cascade solve requires at least one layer");
  Check(cascade.outer_sweeps > 0, "cascade outer_sweeps must be positive");
  const std::size_t num_targets = layers.front().steering.rows();
  Check(targets.size() == num_targets, "target count mismatch");
  for (const CascadeLayerInput& layer : layers) {
    Check(layer.steering.rows() == num_targets,
          "cascade layers must share one target set");
  }

  CascadeResult result;
  // Depth 1 is the single-panel solve, bit for bit: same inner
  // call, same counters, no cascade bookkeeping.
  if (layers.size() == 1) {
    SolveResult inner =
        SolveMultiTarget(layers[0].steering, targets, layers[0].options);
    result.codes.push_back(std::move(inner.codes));
    result.achieved = std::move(inner.achieved);
    result.residual = inner.residual;
    result.total_sweeps = inner.sweeps_used;
    return result;
  }

  obs::Count("solver.cascade_solves");
  const std::size_t depth = layers.size();
  result.codes.resize(depth);
  // sums[l][k]: layer l's own phased sum toward target k under its
  // current codes; the composed response is the per-target product.
  std::vector<std::vector<Complex>> sums(depth);

  // Focus initialization for the upper layers: each solves toward its
  // per-row reachable magnitude at zero phase — the configuration a
  // transparent repeater would hold. Caller-supplied initial_codes (cache
  // warm starts) seed this solve through the layer's own options.
  for (std::size_t l = 1; l < depth; ++l) {
    const ComplexMatrix& steering = layers[l].steering;
    std::vector<Complex> row(steering.cols());
    std::vector<Complex> focus(num_targets);
    for (std::size_t k = 0; k < num_targets; ++k) {
      for (std::size_t m = 0; m < steering.cols(); ++m) row[m] = steering(k, m);
      focus[k] = Complex(ReachableMagnitude(std::span<const Complex>(row)), 0.0);
    }
    SolveResult inner = SolveMultiTarget(steering, focus, layers[l].options);
    result.total_sweeps += inner.sweeps_used;
    result.codes[l] = std::move(inner.codes);
    sums[l] = std::move(inner.achieved);
  }

  // Product of every other layer's current sums, per target. Layers not
  // yet solved (empty sums) contribute unity.
  const auto other_factors = [&](std::size_t skip) {
    std::vector<Complex> factors(num_targets, Complex(1.0, 0.0));
    for (std::size_t l = 0; l < depth; ++l) {
      if (l == skip || sums[l].empty()) continue;
      for (std::size_t k = 0; k < num_targets; ++k) factors[k] *= sums[l][k];
    }
    return factors;
  };

  // One block re-solve: the layer sees its rows scaled by the composed
  // factor of every other layer, so the inner solver's achieved values
  // ARE the full cascade response and the true targets apply unchanged.
  const auto solve_block = [&](std::size_t l) {
    SolveOptions options = layers[l].options;
    if (!result.codes[l].empty()) options.initial_codes = result.codes[l];
    SolveResult inner = SolveMultiTarget(
        ScaleRows(layers[l].steering, other_factors(l)), targets, options);
    result.total_sweeps += inner.sweeps_used;
    result.codes[l] = std::move(inner.codes);
    sums[l] = LayerSums(layers[l].steering, result.codes[l],
                        layers[l].options.atom_mask);
  };

  for (int sweep = 0; sweep < cascade.outer_sweeps; ++sweep) {
    obs::Count("solver.cascade_outer_sweeps");
    // The front layer solves last in every outer sweep so it absorbs the
    // freshest upper-layer factor; upper layers only re-solve from sweep
    // two on (sweep one runs against their focus initialization).
    if (sweep > 0) {
      for (std::size_t l = 1; l < depth; ++l) solve_block(l);
    }
    solve_block(0);
  }

  result.achieved.assign(num_targets, Complex(1.0, 0.0));
  for (std::size_t l = 0; l < depth; ++l) {
    for (std::size_t k = 0; k < num_targets; ++k) {
      result.achieved[k] *= sums[l][k];
    }
  }
  double err = 0.0;
  for (std::size_t k = 0; k < num_targets; ++k) {
    err += std::norm(result.achieved[k] - targets[k]);
  }
  result.residual = std::sqrt(err);
  return result;
}

}  // namespace metaai::mts
