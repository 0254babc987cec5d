// The link's closed-form receive combiner against the sub-sample
// reference (testutil/reference_link.h). Noise-free, the two must agree
// to rounding for every (observation, symbol); at a normal noise floor
// their outputs must share a distribution: the same per-(o, i) mean and
// variance over thousands of seeded transmissions. Cases cover both
// receive modes, depth 1 and 3, two observations, clock offsets that
// clamp at the schedule edges, and stuck atoms (separately realized
// flipped responses).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fault/injector.h"
#include "mts/layer_graph.h"
#include "obs/obs.h"
#include "rf/geometry.h"
#include "sim/link.h"
#include "testutil/reference_link.h"

namespace metaai::sim {
namespace {

constexpr std::size_t kSymbols = 5;
// Symbol period is 1 us: aligned, fractional, half a symbol (only
// cross-symbol pairs cancel the environment), negative and beyond one
// symbol (the last two clamp at the schedule edges).
constexpr double kOffsetsUs[] = {0.0, 0.4, 0.5, -0.35, 1.7};

struct Case {
  std::string name;
  bool cancellation = true;
  std::size_t depth = 1;
  bool stuck_atoms = false;
  InterfererRegion interferer = InterfererRegion::kNone;
};

std::vector<Case> Cases() {
  return {{.name = "cancel_depth1"},
          {.name = "plain_depth1", .cancellation = false},
          {.name = "cancel_depth3", .depth = 3},
          {.name = "plain_depth3", .cancellation = false, .depth = 3},
          {.name = "cancel_stuck", .stuck_atoms = true},
          {.name = "plain_stuck", .cancellation = false, .stuck_atoms = true},
          {.name = "cancel_shadowed", .interferer = InterfererRegion::kR4}};
}

/// One link under test plus the schedules and data it transmits.
struct Fixture {
  explicit Fixture(const Case& c, double noise_floor_dbm)
      : graph(std::vector<mts::PhysicalLayerSpec>(c.depth)) {
    OtaLinkConfig config;
    config.geometry = {.tx_distance_m = 1.0,
                       .tx_angle_rad = rf::DegToRad(30.0),
                       .rx_distance_m = 3.0,
                       .rx_angle_rad = rf::DegToRad(40.0),
                       .frequency_hz = 5.25e9};
    config.environment.profile = rf::OfficeProfile();
    config.environment.interferer = c.interferer;
    config.budget.noise_floor_dbm = noise_floor_dbm;
    config.multipath_cancellation = c.cancellation;
    config.observations = {Observation{},
                           Observation{.freq_offset_hz = 40e3, .harmonic = 1}};
    if (c.stuck_atoms) {
      config.faults = std::make_shared<const fault::FaultInjector>(
          fault::TryParseFaultSpec("stuck=0.1,seed=7").value(),
          graph.front().num_atoms());
    }
    link = std::make_unique<OtaLink>(graph, config);
    Rng rng(77);
    const auto random_schedule = [&](std::size_t atoms) {
      MtsSchedule out(kSymbols, std::vector<mts::PhaseCode>(atoms));
      for (auto& codes : out) {
        for (auto& code : codes) {
          code = static_cast<mts::PhaseCode>(rng.UniformInt(std::uint64_t{4}));
        }
      }
      return out;
    };
    schedule = random_schedule(graph.front().num_atoms());
    for (std::size_t l = 1; l < graph.depth(); ++l) {
      upper.push_back(random_schedule(graph.layer(l).num_atoms()));
    }
    data.resize(kSymbols);
    for (Complex& x : data) x = rng.UnitPhasor() * (0.3 + rng.Uniform());
  }

  /// Upper bound on |environment path| and |MTS path| at (o, i): the
  /// scale rounding errors of either receiver are relative to.
  double PathScale(std::size_t o, std::size_t i) const {
    double aperture = 0.0;
    for (const Complex& s : link->SteeringVector(o)) aperture += std::abs(s);
    for (std::size_t l = 1; l < link->num_layers(); ++l) {
      double layer = 0.0;
      for (const Complex& s : link->UpperSteeringVector(l, o)) {
        layer += std::abs(s);
      }
      aperture *= link->UpperCoupling(l, o) * layer;
    }
    const double mts =
        link->TxAmplitude() * link->MtsPathAmplitude(o) * aperture;
    return std::abs(data[i]) *
           std::max(std::abs(link->EnvironmentResponse(o)), mts);
  }

  mts::LayerGraph graph;
  std::unique_ptr<OtaLink> link;
  MtsSchedule schedule;
  LayerSchedules upper;
  std::vector<Complex> data;
};

TEST(ReceiveCombinerTest, MatchesSubSampleReferenceWithoutNoise) {
  // At -400 dBm the noise sits ~200 dB under the signal, so both
  // receivers return their signal terms; the interferer's and the stuck
  // atoms' draws come first and match, so the inputs are identical.
  constexpr double kUlps = 4.0;
  for (const Case& c : Cases()) {
    const Fixture f(c, /*noise_floor_dbm=*/-400.0);
    for (const double offset : kOffsetsUs) {
      Rng link_rng(5);
      Rng ref_rng(5);
      const ComplexMatrix z = f.link->TransmitSequence(
          f.data, f.schedule, f.upper, offset, link_rng);
      const ComplexMatrix ref = testutil::ReferenceTransmit(
          *f.link, f.data, f.schedule, f.upper, offset, ref_rng);
      for (std::size_t o = 0; o < z.rows(); ++o) {
        for (std::size_t i = 0; i < z.cols(); ++i) {
          const double tol = kUlps *
                             std::numeric_limits<double>::epsilon() *
                             f.PathScale(o, i);
          EXPECT_LE(std::abs(z(o, i) - ref(o, i)), tol)
              << c.name << " offset " << offset << " o=" << o << " i=" << i;
        }
      }
    }
  }
}

TEST(ReceiveCombinerTest, MatchesSubSampleReferenceInDistribution) {
  // Each side runs kRuns independently seeded transmissions at a noise
  // floor where noise and signal are comparable. Per (o, i):
  //  * means: each component of the mean difference within 5 standard
  //    errors;
  //  * variances: a complex sample variance over n runs is
  //    sigma^2 chi2(d) / d with d = 2 (n - 1), so the log of the two
  //    sides' ratio is ~N(0, 4 / d); it must lie within 5 sd, a bound a
  //    correct combiner breaks with probability below 1e-6.
  constexpr std::size_t kRuns = 2000;
  const double dof = 2.0 * (kRuns - 1);
  const double log_ratio_bound = 5.0 * std::sqrt(4.0 / dof);
  for (const Case& c : Cases()) {
    if (c.interferer != InterfererRegion::kNone) continue;  // static signal
    const Fixture f(c, /*noise_floor_dbm=*/-60.0);
    for (const double offset : {0.4, 0.5, 1.7}) {
      const std::size_t cells = f.link->num_observations() * kSymbols;
      std::vector<Complex> sum_link(cells), sum_ref(cells);
      std::vector<double> sq_link(cells), sq_ref(cells);
      for (std::size_t run = 0; run < kRuns; ++run) {
        Rng link_rng(1000 + run);
        Rng ref_rng(900000 + run);
        const ComplexMatrix z = f.link->TransmitSequence(
            f.data, f.schedule, f.upper, offset, link_rng);
        const ComplexMatrix ref = testutil::ReferenceTransmit(
            *f.link, f.data, f.schedule, f.upper, offset, ref_rng);
        for (std::size_t k = 0; k < cells; ++k) {
          sum_link[k] += z.data()[k];
          sum_ref[k] += ref.data()[k];
          sq_link[k] += std::norm(z.data()[k]);
          sq_ref[k] += std::norm(ref.data()[k]);
        }
      }
      const auto n = static_cast<double>(kRuns);
      for (std::size_t k = 0; k < cells; ++k) {
        const Complex mean_link = sum_link[k] / n;
        const Complex mean_ref = sum_ref[k] / n;
        const double var_link =
            (sq_link[k] - n * std::norm(mean_link)) / (n - 1.0);
        const double var_ref =
            (sq_ref[k] - n * std::norm(mean_ref)) / (n - 1.0);
        // Per component, the variance is half the complex variance.
        const double se = std::sqrt(0.5 * (var_link + var_ref) / n);
        const Complex diff = mean_link - mean_ref;
        const std::string where = c.name + " offset " + std::to_string(offset) +
                                  " cell " + std::to_string(k);
        EXPECT_LE(std::abs(diff.real()), 5.0 * se) << where;
        EXPECT_LE(std::abs(diff.imag()), 5.0 * se) << where;
        EXPECT_LE(std::abs(std::log(var_link / var_ref)), log_ratio_bound)
            << where << " variance " << var_link << " vs " << var_ref;
      }
    }
  }
}

#if METAAI_OBS_ENABLED
TEST(ReceiveCombinerTest, CountsOneNoiseDrawPerObservationSymbol) {
  const Fixture f(Cases()[0], /*noise_floor_dbm=*/-80.0);
  obs::Registry registry;
  const obs::ScopedRegistry scoped(&registry);
  Rng rng(3);
  f.link->TransmitSequence(f.data, f.schedule, f.upper, 0.4, rng);
  bool counted = false;
  for (const auto& [name, value] : registry.Snapshot().counters) {
    if (name == "link.awgn_draws") {
      counted = true;
      EXPECT_EQ(value, f.link->num_observations() * kSymbols);
    }
  }
  EXPECT_TRUE(counted);
}
#endif

}  // namespace
}  // namespace metaai::sim
