// Discrete phase-configuration solver (Eqns 7-10).
//
// Given the per-atom steering phasors of a link and a desired complex
// weight H_des, the solver picks one of four phase states per atom to
// minimize |H_mts(Phi) - H_des| (Eqn 7). Variants:
//  * environment-aware: target (H_des - H_e) so the environmental channel
//    is absorbed into the optimization (Eqn 8);
//  * multi-target: one shared Phi must realize a different weight on each
//    subcarrier (Eqn 9) or at each receive antenna (Eqn 10); the solver
//    minimizes the summed squared error across targets.
//
// The optimizer is incremental coordinate descent: per sweep each atom
// tries its four states against the running sums, which makes a sweep
// O(M * states * targets). A nearest-phase initialization gives it a good
// starting point; a handful of sweeps converge in practice.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/matrix.h"
#include "common/result.h"
#include "mts/meta_atom.h"

namespace metaai::mts {

struct SolveOptions {
  int max_sweeps = 8;
  /// Fault-aware solving: when non-empty (size must equal the atom
  /// count), atoms with atom_mask[m] == 0 are frozen out of coordinate
  /// descent — they keep code 0, contribute nothing to the optimized
  /// sums, and the solve runs over the healthy atoms only. Used by the
  /// graceful-degradation re-solve after stuck atoms are diagnosed (the
  /// physical contribution of a stuck atom either cancels under the
  /// §3.2 flip scheme or is folded into the target as a measured
  /// offset by the weight mapper).
  std::vector<std::uint8_t> atom_mask;
  /// Warm start: when non-empty (size must equal the atom count), the
  /// sweep loop starts from these codes instead of the nearest-phase
  /// initialization. Masked-out atoms are still pinned to code 0. Used
  /// by the incremental solver to seed from the nearest cached schedule
  /// of a similar weight matrix; coordinate descent then only has to
  /// repair the differences.
  std::vector<PhaseCode> initial_codes;
  /// Early exit: when positive, a sweep whose relative objective
  /// improvement (start - end) / start falls below this threshold ends
  /// the solve (counted under solver.early_exits and reported as
  /// converged). 0 keeps the exact legacy behaviour of sweeping until
  /// no code changes or max_sweeps.
  double min_sweep_improvement = 0.0;
};

struct SolveResult {
  std::vector<PhaseCode> codes;
  /// Achieved sum_m steering[m] e^{j phi_m} per target (masked atoms
  /// excluded), recomputed from the final codes — not the incrementally
  /// updated descent sums, which drift from the true values over many
  /// sweeps.
  std::vector<Complex> achieved;
  /// Root of the summed squared error across targets, evaluated from the
  /// recomputed sums.
  double residual = 0.0;
  int sweeps_used = 0;
};

/// Validates caller-supplied solver options against the aperture they
/// will solve over: max_sweeps must be positive and a non-empty
/// atom_mask must match `num_atoms` and keep at least one atom healthy.
/// Typed errors (ErrorCode::kInvalidArgument) instead of Check aborts,
/// so request paths can reject bad options gracefully.
Result<void> ValidateSolveOptions(const SolveOptions& options,
                                  std::size_t num_atoms);

/// Single-target solve: min over codes of |sum_m steering[m] e^{j phi_m}
/// - target|. `steering` has one phasor per atom. Throws CheckError on
/// invalid options (ValidateSolveOptions reports them as typed errors).
SolveResult SolveSingleTarget(std::span<const Complex> steering,
                              Complex target, const SolveOptions& options = {});

/// Multi-target solve with shared codes: `steering(k, m)` is the phasor of
/// atom m toward target k; minimizes sum_k |sum_m steering(k,m) e^{j phi_m}
/// - targets[k]|^2. Throws CheckError on invalid options.
SolveResult SolveMultiTarget(const ComplexMatrix& steering,
                             std::span<const Complex> targets,
                             const SolveOptions& options = {});

/// Largest |target| magnitude reliably reachable with M atoms of 2-bit
/// phase: aligning every atom to the nearest of 4 states loses the
/// sinc-like quantization factor sin(pi/4)/(pi/4) ~= 0.9.
double ReachableMagnitude(std::size_t num_atoms);

/// Reachable magnitude for a concrete steering row: the quantization
/// factor times the sum of per-atom magnitudes (the unit-phasor formula
/// above is the special case |steering[m]| == 1 for all m).
double ReachableMagnitude(std::span<const Complex> steering);

/// One layer of a cascade solve: the steering matrix of that surface
/// toward the shared target set (row k = target k, any coupling factors
/// already folded in by the caller) plus that layer's inner-solver
/// options. Layer 0 is the front panel.
struct CascadeLayerInput {
  ComplexMatrix steering;
  SolveOptions options;
};

struct CascadeOptions {
  /// Alternating block-coordinate sweeps over the layer blocks. Sweep 1
  /// solves the front layer against the focus-initialized upper layers;
  /// each further sweep re-solves every upper layer (warm-started from
  /// its current codes) and then the front layer again.
  int outer_sweeps = 2;
};

struct CascadeResult {
  /// codes[l] is layer l's configuration (l = 0 is the front panel).
  std::vector<std::vector<PhaseCode>> codes;
  /// Composed response per target: prod_l sum_m steering_l(k, m) e^{j phi}.
  std::vector<Complex> achieved;
  /// Root summed squared error of `achieved` against the targets.
  double residual = 0.0;
  /// Inner coordinate-descent sweeps summed across all block solves.
  long total_sweeps = 0;
};

/// Multi-layer (SIM cascade) solve: pick a configuration per layer so the
/// product of the per-layer phased sums matches the targets. Upper layers
/// (l >= 1) are initialized by focusing toward their per-row reachable
/// magnitude, then the blocks are alternated: each block re-solve runs
/// the standard coordinate-descent inner loop on rows scaled by the other
/// layers' current sums, warm-started from that layer's current codes.
/// A single-layer input delegates to SolveMultiTarget unchanged (same
/// codes, sums and counters, bit for bit). Throws CheckError on invalid
/// shapes/options.
CascadeResult SolveCascadeMultiTarget(std::span<const CascadeLayerInput> layers,
                                      std::span<const Complex> targets,
                                      const CascadeOptions& cascade = {});

}  // namespace metaai::mts
