// Desired-weights -> metasurface-configuration mapping (§3.2, Eqns 5-8).
//
// The trained network's weight row H_r(t_i) must be realized by the
// surface at symbol time t_i. All weights are scaled by one common
// positive factor (legal: Eqn 4's alpha_p argument — a common scale
// preserves the class ordering) so the largest weight fits inside the
// magnitude the discrete surface can reach, then each (output, symbol)
// target is solved with the coordinate-descent solver. Parallel modes
// (Eqns 9-10) solve all simultaneous targets of a symbol jointly against
// the per-observation steering vectors.
//
// Entry point: MapWeights(weights, link, options). The options'
// MappingScheme selects sequential (one observation, one output per
// round) or parallel (Eqns 9-10, joint solve across the link's K
// observations); kAuto picks from the link's observation count. An
// optional mts::ConfigCache memoizes whole solved mappings by content
// (weights, resolved steering, offsets, solver options) so repeat
// deployments skip the coordinate-descent solve entirely — hits are
// bitwise identical to a fresh solve.
#pragma once

#include <span>
#include <vector>

#include "common/matrix.h"
#include "mts/config_cache.h"
#include "mts/config_solver.h"
#include "sim/link.h"

namespace metaai::core {

/// Which mapping scheme MapWeights runs.
enum class MappingScheme {
  /// Sequential for single-observation links, parallel otherwise.
  kAuto,
  /// One observation, R rounds of U symbols, one output per round.
  kSequential,
  /// ceil(R / K) rounds; within a round one shared configuration per
  /// symbol realizes K different weights jointly (Eqns 9-10).
  kParallel,
};

struct MappingOptions {
  /// Scheme selector for MapWeights (kAuto follows the link shape).
  MappingScheme scheme = MappingScheme::kAuto;
  /// Fraction of the reachable magnitude the largest weight is scaled to.
  double target_fraction = 0.85;
  mts::SolveOptions solver;
  /// Eqn 8: subtract the (known, static) environment response from every
  /// target so the realized channel absorbs the multipath. Only
  /// meaningful when multipath cancellation is off and the environment is
  /// static; the zero-mean cancellation scheme (§3.2) is the robust
  /// alternative and needs no estimation.
  bool subtract_environment = false;
  /// Fault-aware mapping: measured residual offsets in solver units, one
  /// per link observation, subtracted from every target. Used after a
  /// fault diagnosis to absorb the static contribution of stuck atoms
  /// when multipath cancellation is off (with cancellation on, stuck
  /// atoms never flip and cancel like the environment, so the offsets
  /// are ~0 and unnecessary). Empty = no offsets.
  std::vector<sim::Complex> fault_offsets;
  /// When non-empty (num_observations x num_atoms), solve against this
  /// measured steering instead of the link's idealized one — a diagnosis
  /// measures each healthy atom's actual response, which folds in both
  /// device phase errors and aging drift. Empty = idealized steering.
  ComplexMatrix steering_override;
  /// Optional solver-result cache shared across deployments (not owned;
  /// must outlive the mapping call). Null = always solve fresh.
  mts::ConfigCache* cache = nullptr;
  /// Incremental solving: when positive (and a cache is set), an exact
  /// miss searches the cache for the nearest same-family entry within
  /// this RMS distance over the normalized weight features and, on a
  /// nearest hit, warm-starts every per-target solve from that entry's
  /// codes with min_sweep_improvement set below. 0 = off (the default;
  /// keeps cached-vs-uncached mappings bitwise identical). The value
  /// participates in the cache key, so warm and cold configurations
  /// never share entries.
  double warm_start_distance = 0.0;
  /// Early-exit threshold applied to warm-started solves only (see
  /// mts::SolveOptions::min_sweep_improvement). Also part of the key.
  double warm_start_min_improvement = 1e-3;
};

struct MappedSchedules {
  /// One MTS schedule per transmission round. Sequential mode: round r
  /// computes output r. Parallel modes: round j computes outputs
  /// j*K .. j*K+K-1 on the link's K observations.
  std::vector<sim::MtsSchedule> rounds;
  /// Output index computed by (round, observation); -1 if that
  /// observation is idle in that round (class count not divisible by K).
  std::vector<std::vector<int>> outputs;
  /// Cascade (depth K > 1) links only: upper_rounds[r][l-1][i] is the
  /// configuration upper layer l holds during symbol i of round r,
  /// solved jointly with rounds[r][i] by the alternating cascade solver.
  /// Empty on depth-1 links.
  std::vector<sim::LayerSchedules> upper_rounds;
  /// Common scale applied to all weights.
  double scale = 0.0;
  /// Mean solver residual relative to the scaled target magnitude.
  double mean_relative_residual = 0.0;
  /// Provenance: true when this mapping was restored from an
  /// mts::ConfigCache hit instead of solved fresh (the serving
  /// runtime's lifecycle traces report it per tenant). Hits are
  /// bitwise identical to a fresh solve; only this flag differs.
  bool from_cache = false;
  /// Total coordinate-descent sweeps spent across every per-target
  /// solve of this mapping (0 when restored from cache). Benches use
  /// this to quantify the work a warm start saves.
  long total_sweeps = 0;
  /// True when the solves were warm-started from a nearest cache entry.
  bool warm_started = false;
};

/// Maps `weights` onto the link's metasurface with the scheme selected
/// by `options.scheme`, consulting `options.cache` when set.
MappedSchedules MapWeights(const ComplexMatrix& weights,
                           const sim::OtaLink& link,
                           const MappingOptions& options = {});

/// Content key MapWeights caches a mapping under (exposed so runtimes
/// can probe/warm a cache without redoing the solve).
std::string MappingCacheKey(const ComplexMatrix& weights,
                            const sim::OtaLink& link,
                            const MappingOptions& options);

/// Family key for nearest-entry warm starts: MappingCacheKey minus the
/// weight bytes. Two mappings share a family exactly when they differ
/// only in weight values (same shape, link, offsets and options), which
/// is what makes a neighbour's schedule a valid warm start.
std::string MappingFamilyKey(const ComplexMatrix& weights,
                             const sim::OtaLink& link,
                             const MappingOptions& options);

/// Scale-invariant feature vector for nearest-entry distance: the
/// weight components normalized by the largest weight magnitude (the
/// mapper's common scale divides out max |w|, so two weight matrices
/// with equal features produce identical solver targets).
std::vector<double> MappingFeatures(const ComplexMatrix& weights);

}  // namespace metaai::core
