#include "mts/layer_graph.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <limits>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/matrix.h"
#include "common/result.h"
#include "mts/config_solver.h"
#include "mts/metasurface.h"

namespace metaai::mts {
namespace {

MetasurfaceSpec SmallSpec(std::size_t rows, std::size_t cols) {
  MetasurfaceSpec spec;
  spec.rows = rows;
  spec.cols = cols;
  return spec;
}

TEST(LayerGraphTest, SingleSurfaceWrapsAsDepthOne) {
  const Metasurface front{MetasurfaceSpec{}};
  const LayerGraph graph(front);
  EXPECT_EQ(graph.depth(), 1u);
  EXPECT_EQ(graph.front().num_atoms(), front.num_atoms());
  EXPECT_EQ(graph.coupling_gain(0), 1.0);
  ASSERT_EQ(graph.specs().size(), 1u);
  EXPECT_EQ(graph.specs()[0].surface.rows, front.spec().rows);
}

TEST(LayerGraphTest, SpecConstructionPreservesOrderAndGains) {
  std::vector<PhysicalLayerSpec> specs;
  specs.push_back({SmallSpec(16, 16), 1.0});
  specs.push_back({SmallSpec(8, 8), 1.3});
  specs.push_back({SmallSpec(4, 8), 2.0});
  const LayerGraph graph(std::move(specs));
  EXPECT_EQ(graph.depth(), 3u);
  EXPECT_EQ(graph.layer(0).num_atoms(), 256u);
  EXPECT_EQ(graph.layer(1).num_atoms(), 64u);
  EXPECT_EQ(graph.layer(2).num_atoms(), 32u);
  EXPECT_EQ(graph.coupling_gain(1), 1.3);
  EXPECT_EQ(graph.coupling_gain(2), 2.0);
}

TEST(LayerGraphTest, TryFromSpecsRejectsInvalidGraphs) {
  const auto empty = LayerGraph::TryFromSpecs({});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.error().code, ErrorCode::kInvalidArgument);

  std::vector<PhysicalLayerSpec> zero_panel;
  zero_panel.push_back({SmallSpec(0, 16), 1.0});
  const auto zero = LayerGraph::TryFromSpecs(std::move(zero_panel));
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.error().code, ErrorCode::kInvalidArgument);

  std::vector<PhysicalLayerSpec> bad_gain;
  bad_gain.push_back({SmallSpec(16, 16), 1.0});
  bad_gain.push_back({SmallSpec(8, 8), 0.0});
  const auto nonpositive = LayerGraph::TryFromSpecs(std::move(bad_gain));
  ASSERT_FALSE(nonpositive.ok());
  EXPECT_EQ(nonpositive.error().code, ErrorCode::kInvalidArgument);

  std::vector<PhysicalLayerSpec> nan_gain;
  nan_gain.push_back(
      {SmallSpec(8, 8), std::numeric_limits<double>::quiet_NaN()});
  const auto non_finite = LayerGraph::TryFromSpecs(std::move(nan_gain));
  ASSERT_FALSE(non_finite.ok());
  EXPECT_EQ(non_finite.error().code, ErrorCode::kInvalidArgument);

  // The Check-aborting constructor mirrors the typed rejection.
  EXPECT_THROW(LayerGraph(std::vector<PhysicalLayerSpec>{}), CheckError);
}

// Specs the Metasurface constructor would Check-abort on (or could not
// allocate) come back as typed errors, so a corrupt model file's layer
// trailer is a load error instead of an exception.
TEST(LayerGraphTest, TryFromSpecsRejectsSurfacesTheConstructorCannotBuild) {
  MetasurfaceSpec no_bands = SmallSpec(8, 8);
  no_bands.supported_bands_hz.clear();
  MetasurfaceSpec zero_frequency = SmallSpec(8, 8);
  zero_frequency.design_frequency_hz = 0.0;
  MetasurfaceSpec nan_frequency = SmallSpec(8, 8);
  nan_frequency.design_frequency_hz = std::numeric_limits<double>::quiet_NaN();
  const MetasurfaceSpec huge = SmallSpec(std::size_t{1} << 40, 1 << 10);
  for (const MetasurfaceSpec& spec :
       {no_bands, zero_frequency, nan_frequency, huge}) {
    const auto graph =
        LayerGraph::TryFromSpecs({{SmallSpec(16, 16), 1.0}, {spec, 1.0}});
    ASSERT_FALSE(graph.ok());
    EXPECT_EQ(graph.error().code, ErrorCode::kInvalidArgument);
  }
}

// Synthetic steering rows with deterministic (non-random) variation, so
// the solver tests do not depend on any channel model.
ComplexMatrix SyntheticSteering(std::size_t targets, std::size_t atoms,
                                double phase_step) {
  ComplexMatrix steering(targets, atoms);
  for (std::size_t k = 0; k < targets; ++k) {
    for (std::size_t m = 0; m < atoms; ++m) {
      steering(k, m) = std::polar(
          1.0, phase_step * static_cast<double>(m + 1) *
                   static_cast<double>(k + 1));
    }
  }
  return steering;
}

TEST(CascadeSolverTest, SingleLayerDelegatesBitwiseToMultiTarget) {
  const ComplexMatrix steering = SyntheticSteering(3, 64, 0.37);
  const std::vector<Complex> targets{{30.0, 10.0}, {-20.0, 25.0}, {5.0, -40.0}};

  const SolveResult flat = SolveMultiTarget(steering, targets, {});
  std::vector<CascadeLayerInput> layers(1);
  layers[0].steering = steering;
  const CascadeResult cascade = SolveCascadeMultiTarget(layers, targets, {});

  ASSERT_EQ(cascade.codes.size(), 1u);
  EXPECT_EQ(cascade.codes[0], flat.codes);
  ASSERT_EQ(cascade.achieved.size(), flat.achieved.size());
  for (std::size_t k = 0; k < flat.achieved.size(); ++k) {
    EXPECT_EQ(cascade.achieved[k], flat.achieved[k]) << "target " << k;
  }
  EXPECT_EQ(cascade.residual, flat.residual);
  EXPECT_EQ(cascade.total_sweeps, flat.sweeps_used);
}

TEST(CascadeSolverTest, TwoLayerSolveReachesScaledTargets) {
  // The upper layer roughly contributes its reachable focus magnitude, so
  // targets sized front_reachable * upper_reachable must be achievable
  // with a small relative residual.
  const ComplexMatrix front = SyntheticSteering(2, 64, 0.29);
  const ComplexMatrix upper = SyntheticSteering(2, 32, 0.41);
  std::vector<double> scale(2);
  for (std::size_t k = 0; k < 2; ++k) {
    scale[k] =
        ReachableMagnitude(std::span<const Complex>(front.row(k), front.cols())) *
        ReachableMagnitude(std::span<const Complex>(upper.row(k), upper.cols()));
  }
  const std::vector<Complex> targets{
      0.5 * scale[0] * std::polar(1.0, 0.3),
      0.4 * scale[1] * std::polar(1.0, -1.1)};

  std::vector<CascadeLayerInput> layers(2);
  layers[0].steering = front;
  layers[1].steering = upper;
  const CascadeResult result = SolveCascadeMultiTarget(layers, targets, {});

  ASSERT_EQ(result.codes.size(), 2u);
  EXPECT_EQ(result.codes[0].size(), 64u);
  EXPECT_EQ(result.codes[1].size(), 32u);
  ASSERT_EQ(result.achieved.size(), 2u);
  double target_norm = 0.0;
  for (const Complex& t : targets) target_norm += std::norm(t);
  EXPECT_LT(result.residual, 0.15 * std::sqrt(target_norm));
  // The achieved responses must really be the composed per-layer sums.
  for (std::size_t k = 0; k < 2; ++k) {
    Complex product{1.0, 0.0};
    for (std::size_t l = 0; l < 2; ++l) {
      Complex sum{0.0, 0.0};
      const ComplexMatrix& s = l == 0 ? front : upper;
      for (std::size_t m = 0; m < s.cols(); ++m) {
        sum += s(k, m) * PhasorForCode(result.codes[l][m]);
      }
      product *= sum;
    }
    EXPECT_LT(std::abs(product - result.achieved[k]),
              1e-9 * std::abs(product) + 1e-9);
  }
}

TEST(CascadeSolverTest, MoreOuterSweepsDoNotRegressResidual) {
  const ComplexMatrix front = SyntheticSteering(2, 48, 0.23);
  const ComplexMatrix upper = SyntheticSteering(2, 24, 0.53);
  const std::vector<Complex> targets{{200.0, 80.0}, {-150.0, 120.0}};
  std::vector<CascadeLayerInput> layers(2);
  layers[0].steering = front;
  layers[1].steering = upper;

  const CascadeResult one = SolveCascadeMultiTarget(layers, targets, {1});
  const CascadeResult four = SolveCascadeMultiTarget(layers, targets, {4});
  EXPECT_LE(four.residual, one.residual + 1e-9);
  EXPECT_GT(four.total_sweeps, one.total_sweeps);
}

TEST(CascadeSolverTest, RejectsInvalidInputs) {
  const std::vector<Complex> targets{{10.0, 0.0}};
  EXPECT_THROW(SolveCascadeMultiTarget({}, targets, {}), CheckError);

  // Upper layer row count must match the target count.
  std::vector<CascadeLayerInput> layers(2);
  layers[0].steering = SyntheticSteering(1, 16, 0.31);
  layers[1].steering = SyntheticSteering(2, 16, 0.31);
  EXPECT_THROW(SolveCascadeMultiTarget(layers, targets, {}), CheckError);

  std::vector<CascadeLayerInput> bad_sweeps(1);
  bad_sweeps[0].steering = SyntheticSteering(1, 16, 0.31);
  EXPECT_THROW(SolveCascadeMultiTarget(bad_sweeps, targets, {0}), CheckError);

  // A layer without atoms, and per-layer solver options, are checked too.
  std::vector<CascadeLayerInput> no_atoms(1);
  no_atoms[0].steering = ComplexMatrix(1, 0);
  EXPECT_THROW(SolveCascadeMultiTarget(no_atoms, targets, {}), CheckError);
  std::vector<CascadeLayerInput> bad_options(2);
  bad_options[0].steering = SyntheticSteering(1, 16, 0.31);
  bad_options[1].steering = SyntheticSteering(1, 16, 0.31);
  bad_options[1].options.max_sweeps = 0;
  EXPECT_THROW(SolveCascadeMultiTarget(bad_options, targets, {}), CheckError);
}

}  // namespace
}  // namespace metaai::mts
