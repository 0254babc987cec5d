// Composable stack of programmable surfaces (SIM cascade).
//
// The paper's prototype drives one 16x16 panel — a single physical FC
// layer — which caps the achievable accuracy. Stacked-intelligent-
// metasurface work (An et al.'s SIM survey, Stylianopoulos et al.'s MINN)
// chains K surfaces in the propagation path so their responses compose
// multiplicatively in the wave domain. LayerGraph is the value type for
// that chain: layer 0 is the schedule-driven front panel (the surface the
// weight mapper encodes per-symbol patterns onto, and the only one faults
// and the mid-symbol pi flip act on) and layers 1..K-1 are upstream
// surfaces whose composed factor
//
//   U(o) = prod_{l>=1} c_l(o) * sum_m s_l(o, m) e^{j phi_l[m]}
//
// multiplies the front layer's response at observation o. The coupling
// c_l(o) = coupling_gain_l / (0.9 * sum_m |s_l(o, m)|) normalizes by the
// layer's reachable focus magnitude, so a focused layer at coupling_gain
// 1.0 contributes ~unity and gains above 1 model the aperture/focusing
// gain an extra surface adds to the path budget.
//
// A LayerGraph is the only way to describe the propagation path to the
// link, mapper, deployment, scheduler and serving layers. A single panel
// is the depth() == 1 graph: no upper factor is ever computed, so it
// reproduces the paper's one-panel numbers exactly (golden depth-1 tests
// pin them). Consumers keep a reference to the graph, so it must outlive
// them; their constructors reject a temporary graph at compile time.
#pragma once

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "mts/metasurface.h"

namespace metaai::mts {

/// One layer of a cascade: the panel plus its inter-layer coupling gain.
struct PhysicalLayerSpec {
  MetasurfaceSpec surface;
  /// Magnitude the layer contributes at full focus (see file comment).
  /// 1.0 is a transparent repeater; > 1 models aperture/focus gain.
  double coupling_gain = 1.0;
};

/// An ordered chain of K >= 1 programmable surfaces. Layer 0 is the
/// front (schedule-driven) panel; higher indices sit further upstream.
class LayerGraph {
 public:
  /// Wraps a single surface as a depth-1 graph.
  explicit LayerGraph(const Metasurface& front);

  /// Named adapter for the same wrap, for call sites that hand a bare
  /// panel straight to a graph-owning API (serve::Runtime, fleet::Fleet).
  static LayerGraph FromSurface(const Metasurface& front) {
    return LayerGraph(front);
  }

  /// Builds a K-layer graph; Check-aborts on invalid specs (see
  /// TryFromSpecs for the typed-error form).
  explicit LayerGraph(std::vector<PhysicalLayerSpec> specs);

  /// Typed-error construction: rejects empty graphs, zero-sized panels
  /// and non-positive/non-finite coupling gains with kInvalidArgument.
  static Result<LayerGraph> TryFromSpecs(std::vector<PhysicalLayerSpec> specs);

  std::size_t depth() const { return layers_.size(); }
  const Metasurface& front() const { return layers_.front(); }
  const Metasurface& layer(std::size_t index) const;
  double coupling_gain(std::size_t index) const;
  const std::vector<PhysicalLayerSpec>& specs() const { return specs_; }

 private:
  std::vector<PhysicalLayerSpec> specs_;
  std::vector<Metasurface> layers_;
};

}  // namespace metaai::mts
