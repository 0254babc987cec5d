#include "core/weight_mapper.h"

#include <cmath>
#include <string>
#include <utility>

#include "common/check.h"
#include "obs/obs.h"
#include "obs/parallel.h"

namespace metaai::core {
namespace {

// Alternating block-coordinate sweeps per (round, symbol) cascade solve
// (see mts::CascadeOptions). Only links with upper layers alternate, so
// depth-1 mappings and their cache keys do not depend on it.
constexpr int kCascadeOuterSweeps = 2;

// Largest magnitude the solver can reliably reach against `steering`:
// the coherent sum of steering magnitudes times the 2-bit quantization
// factor. Masked-out (faulty) atoms contribute nothing to the solve, so
// they must not inflate the reachable aperture either.
double Reachable(std::span<const sim::Complex> steering,
                 std::span<const std::uint8_t> mask) {
  double sum = 0.0;
  for (std::size_t m = 0; m < steering.size(); ++m) {
    if (!mask.empty() && mask[m] == 0) continue;
    sum += std::abs(steering[m]);
  }
  return 0.9 * sum;
}

double MaxWeightMagnitude(const ComplexMatrix& weights) {
  double max_mag = 0.0;
  for (std::size_t r = 0; r < weights.rows(); ++r) {
    for (std::size_t c = 0; c < weights.cols(); ++c) {
      max_mag = std::max(max_mag, std::abs(weights(r, c)));
    }
  }
  return max_mag;
}

// Environment response expressed in solver units (the steering-sum
// domain): z = tx * (alpha * B + env_raw) * x, so subtracting
// env_raw / alpha from the target B absorbs the environment (Eqn 8).
sim::Complex EnvironmentInSolverUnits(const sim::OtaLink& link,
                                      std::size_t observation) {
  return link.EnvironmentResponse(observation) /
         (link.TxAmplitude() * link.MtsPathAmplitude(observation));
}

// Shared input validation + steering resolution for both schemes: the
// per-observation steering the solve runs against is either the link's
// idealized steering or the measured override, shape-checked once here.
ComplexMatrix ResolveSteering(const ComplexMatrix& weights,
                              const sim::OtaLink& link,
                              const MappingOptions& options) {
  Check(weights.rows() > 0 && weights.cols() > 0, "empty weight matrix");
  Check(options.target_fraction > 0.0 && options.target_fraction <= 1.0,
        "target fraction must be in (0, 1]");
  const std::size_t width = link.num_observations();
  Check(width >= 1, "mapping needs observations");
  Check(options.fault_offsets.empty() || options.fault_offsets.size() == width,
        "fault_offsets size must match the observation count");
  const std::size_t atoms = link.SteeringVector(0).size();
  const bool use_override = options.steering_override.rows() > 0;
  if (use_override) {
    Check(options.steering_override.rows() == width &&
              options.steering_override.cols() == atoms,
          "steering_override shape must be num_observations x num_atoms");
  }
  ComplexMatrix steering(width, atoms);
  for (std::size_t o = 0; o < width; ++o) {
    if (use_override) {
      for (std::size_t m = 0; m < atoms; ++m) {
        steering(o, m) = options.steering_override(o, m);
      }
    } else {
      const std::vector<sim::Complex> row = link.SteeringVector(o);
      for (std::size_t m = 0; m < atoms; ++m) steering(o, m) = row[m];
    }
  }
  return steering;
}

// Per-observation offset subtracted from every target: environment
// response (Eqn 8, when enabled) plus measured fault offsets.
std::vector<sim::Complex> ResolveTargetOffsets(const sim::OtaLink& link,
                                               const MappingOptions& options) {
  const std::size_t width = link.num_observations();
  std::vector<sim::Complex> offsets(width, sim::Complex{0.0, 0.0});
  if (options.subtract_environment) {
    for (std::size_t o = 0; o < width; ++o) {
      offsets[o] = EnvironmentInSolverUnits(link, o);
    }
  }
  if (!options.fault_offsets.empty()) {
    for (std::size_t o = 0; o < width; ++o) {
      offsets[o] += options.fault_offsets[o];
    }
  }
  return offsets;
}

// Per-target solve options: a warm-started mapping seeds each
// (round, symbol) solve with the corresponding codes of the nearest
// cached schedule and lets it exit early once a sweep's relative
// improvement drops under the warm-start threshold; cold mappings use
// the caller's solver options untouched (exact legacy behaviour).
mts::SolveOptions SolverFor(const MappingOptions& options,
                            const mts::CachedConfig* warm_from,
                            std::size_t round, std::size_t symbol) {
  mts::SolveOptions solver = options.solver;
  if (warm_from != nullptr) {
    solver.initial_codes = warm_from->rounds[round][symbol];
    solver.min_sweep_improvement = options.warm_start_min_improvement;
  }
  return solver;
}

MappingScheme ResolveScheme(const MappingOptions& options,
                            const sim::OtaLink& link) {
  if (options.scheme != MappingScheme::kAuto) return options.scheme;
  return link.num_observations() == 1 ? MappingScheme::kSequential
                                      : MappingScheme::kParallel;
}

// ---------------------------------------------------------------------
// Every mapping is a cascade mapping: each (round, symbol) target set
// runs through the cascade solver. The front panel keeps its per-symbol
// schedule while the upper layers are solved jointly with it (they also
// switch per symbol; they just never see faults, masks or the mid-symbol
// flip). The upper steering rows carry the normalizing coupling folded
// in, so the composed cascade response lands directly in front-panel
// solver units. A single panel is the depth-1 cascade: no upper layers,
// a unit gain product, and a cascade solve that is exactly the
// single-panel solve.
// ---------------------------------------------------------------------

// Upper-layer steering matrices (num_observations x atoms_l) with the
// coupling c_l(o) folded into row o; index 0 is layer 1.
std::vector<ComplexMatrix> UpperLayerMatrices(const sim::OtaLink& link) {
  const std::size_t width = link.num_observations();
  std::vector<ComplexMatrix> layers;
  layers.reserve(link.num_layers() - 1);
  for (std::size_t l = 1; l < link.num_layers(); ++l) {
    const std::size_t atoms = link.UpperSteeringVector(l, 0).size();
    ComplexMatrix matrix(width, atoms);
    for (std::size_t o = 0; o < width; ++o) {
      const std::vector<sim::Complex> row = link.UpperSteeringVector(l, o);
      const double coupling = link.UpperCoupling(l, o);
      Check(row.size() == atoms, "upper layer atom count mismatch");
      for (std::size_t m = 0; m < atoms; ++m) matrix(o, m) = coupling * row[m];
    }
    layers.push_back(std::move(matrix));
  }
  return layers;
}

// Focus-gain product of the upper layers at observation `o`: each folded
// row reaches Reachable(row) = coupling_gain at full focus, so the
// product is the deterministic magnitude headroom the cascade adds on
// top of the front panel's aperture (exactly 1 without upper layers).
double UpperGainProduct(const std::vector<ComplexMatrix>& upper,
                        std::size_t o) {
  double gain = 1.0;
  for (const ComplexMatrix& matrix : upper) {
    gain *= Reachable({matrix.row(o), matrix.cols()}, {});
  }
  return gain;
}

// Solve options for upper layer `u` of a (round, symbol) cascade solve:
// the caller's budget applies, but masks and manual initial codes are
// front-panel shaped and must not leak upstream. Warm starts seed from
// the cached entry's matching upper schedule.
mts::SolveOptions UpperSolverFor(const MappingOptions& options,
                                 const mts::CachedConfig* warm_from,
                                 std::size_t round, std::size_t symbol,
                                 std::size_t u) {
  mts::SolveOptions solver = options.solver;
  solver.atom_mask.clear();
  solver.initial_codes.clear();
  if (warm_from != nullptr && !warm_from->upper_rounds.empty()) {
    solver.initial_codes = warm_from->upper_rounds[round][u][symbol];
    solver.min_sweep_improvement = options.warm_start_min_improvement;
  }
  return solver;
}

// The per-layer inputs of one (round, symbol) cascade solve: the front
// panel under the caller's solver options, then each upper layer.
std::vector<mts::CascadeLayerInput> CascadeLayers(
    const ComplexMatrix& front, const std::vector<ComplexMatrix>& upper,
    const MappingOptions& options, const mts::CachedConfig* warm_from,
    std::size_t round, std::size_t symbol) {
  std::vector<mts::CascadeLayerInput> layers;
  layers.reserve(1 + upper.size());
  layers.push_back({front, SolverFor(options, warm_from, round, symbol)});
  for (std::size_t u = 0; u < upper.size(); ++u) {
    layers.push_back(
        {upper[u], UpperSolverFor(options, warm_from, round, symbol, u)});
  }
  return layers;
}

MappedSchedules MapSequentialImpl(const ComplexMatrix& weights,
                                  const sim::OtaLink& link,
                                  const MappingOptions& options,
                                  const mts::CachedConfig* warm_from) {
  Check(link.num_observations() == 1,
        "sequential mapping expects a single-observation link");
  const ComplexMatrix front = ResolveSteering(weights, link, options);
  const std::vector<ComplexMatrix> upper = UpperLayerMatrices(link);
  const double max_mag = MaxWeightMagnitude(weights);
  Check(max_mag > 0.0, "all-zero weight matrix");
  const double scale =
      options.target_fraction *
      Reachable({front.row(0), front.cols()}, options.solver.atom_mask) *
      UpperGainProduct(upper, 0) / max_mag;
  const sim::Complex env_offset = ResolveTargetOffsets(link, options)[0];
  if (!upper.empty()) obs::Count("mapper.cascade_mappings");

  MappedSchedules result;
  result.scale = scale;
  const std::size_t cols = weights.cols();
  const mts::CascadeOptions cascade{.outer_sweeps = kCascadeOuterSweeps};
  // Per-(output, symbol) solves share no state: fan out one task per
  // flattened (r, i) index, then assemble sequentially in the same index
  // order the serial loop used, so codes *and* the residual float
  // accumulation are bitwise identical for any thread count.
  std::vector<mts::CascadeResult> solved(weights.rows() * cols);
  obs::DeterministicParallelFor(solved.size(), [&](std::size_t k) {
    const std::size_t r = k / cols;
    const std::size_t i = k % cols;
    const sim::Complex targets[] = {scale * weights(r, i) - env_offset};
    solved[k] = mts::SolveCascadeMultiTarget(
        CascadeLayers(front, upper, options, warm_from, r, i), targets,
        cascade);
  });
  double residual_sum = 0.0;
  std::size_t residual_count = 0;
  for (std::size_t r = 0; r < weights.rows(); ++r) {
    sim::MtsSchedule schedule;
    schedule.reserve(cols);
    sim::LayerSchedules round_upper(upper.size());
    for (sim::MtsSchedule& layer : round_upper) layer.reserve(cols);
    for (std::size_t i = 0; i < cols; ++i) {
      const sim::Complex target = scale * weights(r, i) - env_offset;
      mts::CascadeResult& solve = solved[r * cols + i];
      result.total_sweeps += solve.total_sweeps;
      schedule.push_back(std::move(solve.codes[0]));
      for (std::size_t u = 0; u < upper.size(); ++u) {
        round_upper[u].push_back(std::move(solve.codes[u + 1]));
      }
      if (std::abs(target) > 1e-12) {
        residual_sum += solve.residual / std::abs(target);
        ++residual_count;
      }
    }
    result.rounds.push_back(std::move(schedule));
    if (!upper.empty()) result.upper_rounds.push_back(std::move(round_upper));
    result.outputs.push_back({static_cast<int>(r)});
  }
  result.warm_started = warm_from != nullptr;
  result.mean_relative_residual =
      residual_count > 0 ? residual_sum / static_cast<double>(residual_count)
                         : 0.0;
  return result;
}

MappedSchedules MapParallelImpl(const ComplexMatrix& weights,
                                const sim::OtaLink& link,
                                const MappingOptions& options,
                                const mts::CachedConfig* warm_from) {
  const ComplexMatrix steering = ResolveSteering(weights, link, options);
  const std::size_t width = steering.rows();
  const std::vector<ComplexMatrix> upper = UpperLayerMatrices(link);
  double min_reachable = 0.0;
  for (std::size_t o = 0; o < width; ++o) {
    const double reach = Reachable({steering.row(o), steering.cols()},
                                   options.solver.atom_mask) *
                         UpperGainProduct(upper, o);
    min_reachable = (o == 0) ? reach : std::min(min_reachable, reach);
  }
  const double max_mag = MaxWeightMagnitude(weights);
  Check(max_mag > 0.0, "all-zero weight matrix");
  // Serving K targets with one configuration splits the aperture; a
  // conservative 1/width headroom keeps every target reachable.
  const double scale = options.target_fraction * min_reachable /
                       (max_mag * static_cast<double>(width));
  const std::vector<sim::Complex> env_offsets =
      ResolveTargetOffsets(link, options);
  if (!upper.empty()) obs::Count("mapper.cascade_mappings");

  MappedSchedules result;
  result.scale = scale;
  const std::size_t classes = weights.rows();
  const std::size_t num_rounds = (classes + width - 1) / width;
  double residual_sum = 0.0;
  std::size_t residual_count = 0;

  // Round output assignments are a pure function of (round, width).
  std::vector<std::vector<int>> round_outputs(num_rounds);
  for (std::size_t round = 0; round < num_rounds; ++round) {
    round_outputs[round].assign(width, -1);
    for (std::size_t o = 0; o < width; ++o) {
      const std::size_t cls = round * width + o;
      if (cls < classes) round_outputs[round][o] = static_cast<int>(cls);
    }
  }

  const std::size_t cols = weights.cols();
  auto targets_for = [&](std::size_t round, std::size_t i) {
    std::vector<sim::Complex> targets(width);
    for (std::size_t o = 0; o < width; ++o) {
      const int cls = round_outputs[round][o];
      targets[o] = cls >= 0
                       ? scale * weights(static_cast<std::size_t>(cls), i) -
                             env_offsets[o]
                       : sim::Complex{0.0, 0.0};
    }
    return targets;
  };

  // One task per flattened (round, symbol) index; assembly below walks
  // the same index order as the serial loops so residual accumulation is
  // bitwise identical for any thread count.
  const mts::CascadeOptions cascade{.outer_sweeps = kCascadeOuterSweeps};
  std::vector<mts::CascadeResult> solved(num_rounds * cols);
  obs::DeterministicParallelFor(solved.size(), [&](std::size_t k) {
    const std::size_t round = k / cols;
    const std::size_t i = k % cols;
    solved[k] = mts::SolveCascadeMultiTarget(
        CascadeLayers(steering, upper, options, warm_from, round, i),
        targets_for(round, i), cascade);
  });

  for (std::size_t round = 0; round < num_rounds; ++round) {
    sim::MtsSchedule schedule;
    schedule.reserve(cols);
    sim::LayerSchedules round_upper(upper.size());
    for (sim::MtsSchedule& layer : round_upper) layer.reserve(cols);
    for (std::size_t i = 0; i < cols; ++i) {
      mts::CascadeResult& solve = solved[round * cols + i];
      const std::vector<sim::Complex> targets = targets_for(round, i);
      result.total_sweeps += solve.total_sweeps;
      schedule.push_back(std::move(solve.codes[0]));
      for (std::size_t u = 0; u < upper.size(); ++u) {
        round_upper[u].push_back(std::move(solve.codes[u + 1]));
      }
      for (std::size_t o = 0; o < width; ++o) {
        if (round_outputs[round][o] >= 0 && std::abs(targets[o]) > 1e-12) {
          residual_sum += std::abs(solve.achieved[o] - targets[o]) /
                          std::abs(targets[o]);
          ++residual_count;
        }
      }
    }
    result.rounds.push_back(std::move(schedule));
    if (!upper.empty()) result.upper_rounds.push_back(std::move(round_upper));
    result.outputs.push_back(std::move(round_outputs[round]));
  }
  result.mean_relative_residual =
      residual_count > 0 ? residual_sum / static_cast<double>(residual_count)
                         : 0.0;
  result.warm_started = warm_from != nullptr;
  return result;
}

MappedSchedules Solve(MappingScheme scheme, const ComplexMatrix& weights,
                      const sim::OtaLink& link, const MappingOptions& options,
                      const mts::CachedConfig* warm_from) {
  return scheme == MappingScheme::kSequential
             ? MapSequentialImpl(weights, link, options, warm_from)
             : MapParallelImpl(weights, link, options, warm_from);
}

// Field order is the contract: every input the solve depends on, as raw
// bytes. The family form leaves out the weight *values* (their shape
// stays) so nearest-neighbour warm starts only ever pair mappings that
// differ in nothing but the weights. Bump the tag when the solve
// algorithm itself changes.
std::string BuildMappingKey(const ComplexMatrix& weights,
                            const sim::OtaLink& link,
                            const MappingOptions& options,
                            bool include_weight_bytes) {
  const MappingScheme scheme = ResolveScheme(options, link);
  const ComplexMatrix steering = ResolveSteering(weights, link, options);
  const std::vector<sim::Complex> offsets = ResolveTargetOffsets(link, options);
  mts::ConfigKey key;
  key.Tag("metaai.mapping.v1");
  key.Add(static_cast<std::uint64_t>(scheme));
  key.Add(static_cast<std::uint64_t>(weights.rows()));
  key.Add(static_cast<std::uint64_t>(weights.cols()));
  if (include_weight_bytes) {
    key.AddBytes(weights.data(), weights.size() * sizeof(sim::Complex));
  }
  key.Add(static_cast<std::uint64_t>(steering.rows()));
  key.Add(static_cast<std::uint64_t>(steering.cols()));
  key.AddBytes(steering.data(), steering.size() * sizeof(sim::Complex));
  key.AddBytes(offsets.data(), offsets.size() * sizeof(sim::Complex));
  key.Add(options.target_fraction);
  key.Add(static_cast<std::uint64_t>(options.solver.max_sweeps));
  key.Add(static_cast<std::uint64_t>(options.solver.atom_mask.size()));
  if (!options.solver.atom_mask.empty()) {
    key.AddBytes(options.solver.atom_mask.data(),
                 options.solver.atom_mask.size());
  }
  // Warm-start parameters change which schedule a mapping produces (a
  // warm solve is equivalent within tolerance, not bitwise), so warm
  // and cold configurations must never share cache entries.
  key.Add(options.warm_start_distance);
  key.Add(options.warm_start_min_improvement);
  // Cascade inputs appended only when the link is actually deep: depth-1
  // keys must stay byte-identical to the pre-cascade format so existing
  // caches keep hitting.
  if (link.num_layers() > 1) {
    key.Add(static_cast<std::uint64_t>(link.num_layers()));
    key.Add(static_cast<std::uint64_t>(kCascadeOuterSweeps));
    for (const ComplexMatrix& folded : UpperLayerMatrices(link)) {
      key.Add(static_cast<std::uint64_t>(folded.rows()));
      key.Add(static_cast<std::uint64_t>(folded.cols()));
      key.AddBytes(folded.data(), folded.size() * sizeof(sim::Complex));
    }
  }
  return std::move(key).Take();
}

// A nearest entry is only usable as a warm start if its schedule has
// exactly the shape this mapping will produce. Same family implies same
// shape; this guards against a caller inserting mismatched entries.
bool WarmShapeMatches(const mts::CachedConfig& candidate,
                      MappingScheme scheme, const ComplexMatrix& weights,
                      const sim::OtaLink& link) {
  const std::size_t width = link.num_observations();
  const std::size_t atoms = link.SteeringVector(0).size();
  const std::size_t expected_rounds =
      scheme == MappingScheme::kSequential
          ? weights.rows()
          : (weights.rows() + width - 1) / width;
  if (candidate.rounds.size() != expected_rounds) return false;
  for (const sim::MtsSchedule& round : candidate.rounds) {
    if (round.size() != weights.cols()) return false;
    for (const std::vector<mts::PhaseCode>& codes : round) {
      if (codes.size() != atoms) return false;
    }
  }
  // Deep links additionally need per-layer upper schedules of matching
  // shape (depth-1 entries must have none).
  if (candidate.upper_rounds.size() !=
      (link.num_layers() > 1 ? expected_rounds : 0)) {
    return false;
  }
  for (const sim::LayerSchedules& round_upper : candidate.upper_rounds) {
    if (round_upper.size() != link.num_layers() - 1) return false;
    for (std::size_t u = 0; u < round_upper.size(); ++u) {
      if (round_upper[u].size() != weights.cols()) return false;
      const std::size_t upper_atoms = link.UpperSteeringVector(u + 1, 0).size();
      for (const std::vector<mts::PhaseCode>& codes : round_upper[u]) {
        if (codes.size() != upper_atoms) return false;
      }
    }
  }
  return true;
}

}  // namespace

std::string MappingCacheKey(const ComplexMatrix& weights,
                            const sim::OtaLink& link,
                            const MappingOptions& options) {
  return BuildMappingKey(weights, link, options,
                         /*include_weight_bytes=*/true);
}

std::string MappingFamilyKey(const ComplexMatrix& weights,
                             const sim::OtaLink& link,
                             const MappingOptions& options) {
  return BuildMappingKey(weights, link, options,
                         /*include_weight_bytes=*/false);
}

std::vector<double> MappingFeatures(const ComplexMatrix& weights) {
  const double max_mag = MaxWeightMagnitude(weights);
  Check(max_mag > 0.0, "all-zero weight matrix");
  std::vector<double> features;
  features.reserve(2 * weights.size());
  for (std::size_t r = 0; r < weights.rows(); ++r) {
    for (std::size_t c = 0; c < weights.cols(); ++c) {
      features.push_back(weights(r, c).real() / max_mag);
      features.push_back(weights(r, c).imag() / max_mag);
    }
  }
  return features;
}

MappedSchedules MapWeights(const ComplexMatrix& weights,
                           const sim::OtaLink& link,
                           const MappingOptions& options) {
  const MappingScheme scheme = ResolveScheme(options, link);
  if (options.cache == nullptr) {
    return Solve(scheme, weights, link, options, /*warm_from=*/nullptr);
  }

  const std::string key = MappingCacheKey(weights, link, options);
  if (std::optional<mts::CachedConfig> hit =
          options.cache->LookupOrBegin(key)) {
    MappedSchedules restored;
    restored.rounds = std::move(hit->rounds);
    restored.outputs = std::move(hit->outputs);
    restored.upper_rounds = std::move(hit->upper_rounds);
    restored.scale = hit->scale;
    restored.mean_relative_residual = hit->mean_relative_residual;
    restored.from_cache = true;
    return restored;
  }

  // This thread leads the solve for `key` (singleflight): concurrent
  // mappers of the same key are blocked in LookupOrBegin until Publish,
  // and a failed solve must Abandon so one of them can take over.
  std::string family;
  std::vector<double> features;
  std::optional<mts::CachedConfig> warm;
  MappedSchedules mapped;
  try {
    if (options.warm_start_distance > 0.0) {
      family = MappingFamilyKey(weights, link, options);
      features = MappingFeatures(weights);
      warm = options.cache->LookupNearest(family, features,
                                          options.warm_start_distance);
      if (warm.has_value() &&
          !WarmShapeMatches(*warm, scheme, weights, link)) {
        warm.reset();
      }
      if (warm.has_value()) obs::Count("mapper.warm_starts");
    }
    mapped = Solve(scheme, weights, link, options,
                   warm.has_value() ? &*warm : nullptr);
  } catch (...) {
    options.cache->Abandon(key);
    throw;
  }
  options.cache->Publish(
      key,
      mts::CachedConfig{mapped.rounds, mapped.outputs, mapped.upper_rounds,
                        mapped.scale, mapped.mean_relative_residual},
      std::move(family), std::move(features));
  return mapped;
}

}  // namespace metaai::core
