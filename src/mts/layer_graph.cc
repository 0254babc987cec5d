#include "mts/layer_graph.h"

#include <cmath>
#include <string>
#include <utility>

#include "common/check.h"

namespace metaai::mts {
namespace {

// Largest panel a graph accepts: far above any fabricated surface, and
// small enough that a corrupt spec (say, from a model file) cannot size
// a multi-gigabyte allocation.
constexpr std::size_t kMaxAtomsPerLayer = std::size_t{1} << 20;

// Rejects everything the Metasurface constructor would Check-abort on,
// so TryFromSpecs returns an error instead of throwing.
Result<void> ValidateSpecs(const std::vector<PhysicalLayerSpec>& specs) {
  if (specs.empty()) {
    return Error{ErrorCode::kInvalidArgument,
                 "layer graph needs at least one layer"};
  }
  for (std::size_t l = 0; l < specs.size(); ++l) {
    const PhysicalLayerSpec& spec = specs[l];
    if (spec.surface.rows == 0 || spec.surface.cols == 0) {
      return Error{ErrorCode::kInvalidArgument,
                   "layer " + std::to_string(l) +
                       ": surface needs at least one row and one column"};
    }
    if (!std::isfinite(spec.coupling_gain) || spec.coupling_gain <= 0.0) {
      return Error{ErrorCode::kInvalidArgument,
                   "layer " + std::to_string(l) +
                       ": coupling gain must be positive and finite"};
    }
    if (spec.surface.rows > kMaxAtomsPerLayer / spec.surface.cols) {
      return Error{ErrorCode::kInvalidArgument,
                   "layer " + std::to_string(l) + ": surface exceeds " +
                       std::to_string(kMaxAtomsPerLayer) + " atoms"};
    }
    if (!std::isfinite(spec.surface.design_frequency_hz) ||
        spec.surface.design_frequency_hz <= 0.0) {
      return Error{ErrorCode::kInvalidArgument,
                   "layer " + std::to_string(l) +
                       ": design frequency must be positive and finite"};
    }
    if (spec.surface.supported_bands_hz.empty()) {
      return Error{ErrorCode::kInvalidArgument,
                   "layer " + std::to_string(l) + ": no supported bands"};
    }
  }
  return Ok();
}

}  // namespace

LayerGraph::LayerGraph(const Metasurface& front) {
  specs_.push_back(PhysicalLayerSpec{front.spec(), 1.0});
  layers_.push_back(front);
}

LayerGraph::LayerGraph(std::vector<PhysicalLayerSpec> specs)
    : specs_(std::move(specs)) {
  ValidateSpecs(specs_).value();  // Check-abort on invalid specs
  layers_.reserve(specs_.size());
  for (const PhysicalLayerSpec& spec : specs_) {
    layers_.emplace_back(spec.surface);
  }
}

Result<LayerGraph> LayerGraph::TryFromSpecs(
    std::vector<PhysicalLayerSpec> specs) {
  if (Result<void> valid = ValidateSpecs(specs); !valid.ok()) {
    return valid.error();
  }
  return LayerGraph(std::move(specs));
}

const Metasurface& LayerGraph::layer(std::size_t index) const {
  Check(index < layers_.size(), "layer index out of range");
  return layers_[index];
}

double LayerGraph::coupling_gain(std::size_t index) const {
  Check(index < specs_.size(), "layer index out of range");
  return specs_[index].coupling_gain;
}

}  // namespace metaai::mts
