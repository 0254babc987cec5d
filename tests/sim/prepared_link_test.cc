// Differential tests for prepared response plans (OtaLink::Prepare): a
// link answering from a plan must return the exact measurements, leave
// the RNG in the exact state and emit the exact telemetry of an
// unprepared twin, across depths, parallelism modes, clock offsets,
// interferers and fault models.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/deployment.h"
#include "core/training.h"
#include "data/datasets.h"
#include "data/encoding.h"
#include "fault/injector.h"
#include "mts/layer_graph.h"
#include "obs/obs.h"
#include "rf/geometry.h"
#include "sim/link.h"

namespace metaai::sim {
namespace {

constexpr std::size_t kSymbols = 24;
// Symbol period is 1 us: zero, negative, fractional and beyond one symbol.
constexpr double kOffsetsUs[] = {0.0, -0.35, 0.4, 1.7};

OtaLinkConfig NoisyConfig() {
  OtaLinkConfig config;
  config.geometry = {.tx_distance_m = 1.0,
                     .tx_angle_rad = rf::DegToRad(30.0),
                     .rx_distance_m = 3.0,
                     .rx_angle_rad = rf::DegToRad(40.0),
                     .frequency_hz = 5.25e9};
  config.environment.profile = rf::OfficeProfile();
  config.budget.noise_floor_dbm = -80.0;  // noise draws must match too
  config.mts_phase_noise_std = 0.05;
  return config;
}

std::vector<Observation> SubcarrierObservations() {
  std::vector<Observation> observations;
  for (int k = 0; k < 3; ++k) {
    observations.push_back(
        {.freq_offset_hz = (k - 1) * 40e3, .harmonic = k});
  }
  return observations;
}

std::vector<Observation> AntennaObservations(const OtaLinkConfig& base) {
  std::vector<Observation> observations;
  for (int l = 0; l < 3; ++l) {
    mts::LinkGeometry geometry = base.geometry;
    geometry.rx_angle_rad += (l - 1) * rf::DegToRad(6.0);
    observations.push_back({.geometry = geometry});
  }
  return observations;
}

MtsSchedule RandomSchedule(std::size_t atoms, Rng& rng) {
  MtsSchedule schedule(kSymbols, std::vector<mts::PhaseCode>(atoms));
  for (auto& codes : schedule) {
    for (auto& code : codes) {
      code = static_cast<mts::PhaseCode>(rng.UniformInt(std::uint64_t{4}));
    }
  }
  return schedule;
}

LayerSchedules RandomUpper(const mts::LayerGraph& graph, Rng& rng) {
  LayerSchedules upper;
  for (std::size_t l = 1; l < graph.depth(); ++l) {
    upper.push_back(RandomSchedule(graph.layer(l).num_atoms(), rng));
  }
  return upper;
}

std::vector<Complex> RandomData(Rng& rng) {
  std::vector<Complex> data(kSymbols);
  for (Complex& x : data) x = rng.UnitPhasor() * (0.3 + rng.Uniform());
  return data;
}

/// Everything one transmission produces: measurements, the RNG state it
/// leaves behind (as its next draw), and its counters and probes.
struct Outcome {
  ComplexMatrix z;
  std::uint64_t next_draw = 0;
  obs::RegistrySnapshot metrics;
  std::vector<obs::ProbeRecord> probes;
};

Outcome Transmit(const OtaLink& link, std::span<const Complex> data,
                 const MtsSchedule& schedule, const LayerSchedules& upper,
                 double offset_us, std::uint64_t seed) {
  obs::Registry registry;
  obs::ProbeSink sink;
  const obs::ScopedRegistry scoped_registry(&registry);
  const obs::ScopedProbeSink scoped_sink(&sink);
  Rng rng(seed);
  Outcome out;
  out.z = link.TransmitSequence(data, schedule, upper, offset_us, rng);
  out.next_draw = rng.Next();
  out.metrics = registry.Snapshot();
  out.probes = sink.Snapshot();
  return out;
}

void ExpectIdentical(const Outcome& a, const Outcome& b) {
  ASSERT_EQ(a.z.rows(), b.z.rows());
  ASSERT_EQ(a.z.cols(), b.z.cols());
  for (std::size_t o = 0; o < a.z.rows(); ++o) {
    for (std::size_t i = 0; i < a.z.cols(); ++i) {
      EXPECT_EQ(a.z(o, i), b.z(o, i)) << "observation " << o << " symbol "
                                      << i;
    }
  }
  EXPECT_EQ(a.next_draw, b.next_draw) << "RNG streams diverged";
  EXPECT_TRUE(a.metrics == b.metrics) << "telemetry differs";
  EXPECT_TRUE(a.probes == b.probes) << "probes differ";
#if METAAI_OBS_ENABLED
  bool counted = false;
  for (const auto& [name, value] : a.metrics.counters) {
    if (name == "link.transmissions") counted = value == 1;
  }
  EXPECT_TRUE(counted) << "link.transmissions was not counted once";
#endif
}

/// Advances the codes of the first half of every symbol's atoms by one
/// phase step — used only to break the Prepare contract on purpose and
/// observe whether a plan answered. (Flipping every code would merely
/// negate the response, and two such flips on cascade layers cancel.)
void Mutate(MtsSchedule& schedule) {
  for (auto& codes : schedule) {
    for (std::size_t m = 0; m < codes.size() / 2; ++m) {
      codes[m] = static_cast<mts::PhaseCode>((codes[m] + 1) % 4);
    }
  }
}

/// Prepares `prepared` on (schedule, upper) and checks it against the
/// unprepared `twin` at every test offset.
void ExpectPlanMatchesTwin(OtaLink& prepared, const OtaLink& twin,
                           const MtsSchedule& schedule,
                           const LayerSchedules& upper, std::uint64_t seed) {
  prepared.Prepare(schedule, upper);
  Rng data_rng(seed);
  const std::vector<Complex> data = RandomData(data_rng);
  for (const double offset : kOffsetsUs) {
    SCOPED_TRACE(testing::Message() << "offset " << offset << " us");
    ExpectIdentical(Transmit(prepared, data, schedule, upper, offset, seed),
                    Transmit(twin, data, schedule, upper, offset, seed));
  }
}

std::vector<mts::PhysicalLayerSpec> DepthThreeSpecs() {
  std::vector<mts::PhysicalLayerSpec> specs(3);
  for (std::size_t l = 1; l < 3; ++l) {
    specs[l].surface.rows = 8;
    specs[l].surface.cols = 8;
    specs[l].coupling_gain = 1.3;
  }
  return specs;
}

enum class Mode { kSequential, kSubcarrier, kAntenna };

OtaLinkConfig ConfigFor(Mode mode, bool cancellation) {
  OtaLinkConfig config = NoisyConfig();
  config.multipath_cancellation = cancellation;
  if (mode == Mode::kSubcarrier) config.observations = SubcarrierObservations();
  if (mode == Mode::kAntenna) config.observations = AntennaObservations(config);
  return config;
}

using LinkShape = std::tuple<std::size_t, Mode, bool>;

std::string LinkShapeName(const testing::TestParamInfo<LinkShape>& info) {
  const auto [depth, mode, cancellation] = info.param;
  const char* mode_name = mode == Mode::kSequential   ? "sequential"
                          : mode == Mode::kSubcarrier ? "subcarrier"
                                                      : "antenna";
  return "depth" + std::to_string(depth) + "_" + mode_name +
         (cancellation ? "_cancel" : "_plain");
}

class PreparedLinkShapeTest : public testing::TestWithParam<LinkShape> {};

TEST_P(PreparedLinkShapeTest, PlanIsBitwiseIdenticalToUnpreparedTwin) {
  const auto [depth, mode, cancellation] = GetParam();
  const mts::LayerGraph graph =
      depth == 1 ? mts::LayerGraph(mts::Metasurface{mts::MetasurfaceSpec{}})
                 : mts::LayerGraph(DepthThreeSpecs());
  const OtaLinkConfig config = ConfigFor(mode, cancellation);
  OtaLink prepared(graph, config);
  const OtaLink twin(graph, config);
  Rng rng(41);
  const MtsSchedule schedule = RandomSchedule(graph.front().num_atoms(), rng);
  const LayerSchedules upper = RandomUpper(graph, rng);
  ExpectPlanMatchesTwin(prepared, twin, schedule, upper, 43);
}

INSTANTIATE_TEST_SUITE_P(
    DepthsModesCancellation, PreparedLinkShapeTest,
    testing::Combine(testing::Values(std::size_t{1}, std::size_t{3}),
                     testing::Values(Mode::kSequential, Mode::kSubcarrier,
                                     Mode::kAntenna),
                     testing::Bool()),
    LinkShapeName);

TEST(PreparedLinkTest, SurfaceLinkWithInterfererR4) {
  // R4 draws the interferer's state per symbol from the transmission's
  // RNG; the plan must leave those draws where they were.
  const mts::Metasurface surface{mts::MetasurfaceSpec{}};
  OtaLinkConfig config = NoisyConfig();
  config.environment.interferer = InterfererRegion::kR4;
  OtaLink prepared(surface, config);
  const OtaLink twin(surface, config);
  Rng rng(47);
  const MtsSchedule schedule = RandomSchedule(surface.num_atoms(), rng);
  ExpectPlanMatchesTwin(prepared, twin, schedule, LayerSchedules{}, 53);
}

TEST(PreparedLinkTest, DriftFaultsAreStaticSoThePlanApplies) {
  const mts::LayerGraph graph(DepthThreeSpecs());
  fault::FaultPlan plan;
  plan.drift = {.rate_std_rad_per_s = 0.02, .age_s = 60.0};
  OtaLinkConfig config = NoisyConfig();
  config.faults = std::make_shared<const fault::FaultInjector>(
      plan, graph.front().num_atoms());
  OtaLink prepared(graph, config);
  const OtaLink twin(graph, config);
  Rng rng(59);
  MtsSchedule schedule = RandomSchedule(graph.front().num_atoms(), rng);
  const LayerSchedules upper = RandomUpper(graph, rng);
  ExpectPlanMatchesTwin(prepared, twin, schedule, upper, 61);

  // The plan answered: breaking the contract leaves the output unchanged.
  const std::vector<Complex> data(kSymbols, Complex{1.0, 0.0});
  const Outcome before = Transmit(prepared, data, schedule, upper, 0.0, 67);
  Mutate(schedule);
  ExpectIdentical(Transmit(prepared, data, schedule, upper, 0.0, 67), before);
}

TEST(PreparedLinkTest, PatternFaultsBypassThePlan) {
  // Stuck atoms and chain corruption draw RNG on every pattern load, so
  // Prepare is a no-op: every call takes the unprepared path.
  const mts::LayerGraph graph(DepthThreeSpecs());
  fault::FaultPlan plan;
  plan.stuck.fraction = 0.1;
  plan.chain.bit_flip_prob = 1e-2;
  for (const bool cancellation : {true, false}) {
    SCOPED_TRACE(cancellation ? "cancellation on" : "cancellation off");
    OtaLinkConfig config = NoisyConfig();
    config.multipath_cancellation = cancellation;
    config.faults = std::make_shared<const fault::FaultInjector>(
        plan, graph.front().num_atoms());
    OtaLink prepared(graph, config);
    const OtaLink twin(graph, config);
    Rng rng(71);
    MtsSchedule schedule = RandomSchedule(graph.front().num_atoms(), rng);
    const LayerSchedules upper = RandomUpper(graph, rng);
    ExpectPlanMatchesTwin(prepared, twin, schedule, upper, 73);

    // No plan was kept: the output follows the schedule's contents.
    Mutate(schedule);
    const std::vector<Complex> data(kSymbols, Complex{1.0, 0.0});
    ExpectIdentical(Transmit(prepared, data, schedule, upper, 0.0, 79),
                    Transmit(twin, data, schedule, upper, 0.0, 79));
  }
}

TEST(PreparedLinkTest, OtherScheduleObjectsTakeTheUnpreparedPath) {
  // Plans are keyed by object identity: an equal-valued copy of the
  // schedule, or the right schedule with other upper-layer objects, is
  // not prepared.
  const mts::LayerGraph graph(DepthThreeSpecs());
  const OtaLinkConfig config = NoisyConfig();
  OtaLink prepared(graph, config);
  const OtaLink twin(graph, config);
  Rng rng(83);
  MtsSchedule schedule = RandomSchedule(graph.front().num_atoms(), rng);
  LayerSchedules upper = RandomUpper(graph, rng);
  prepared.Prepare(schedule, upper);
  MtsSchedule other_schedule = schedule;
  LayerSchedules other_upper = upper;
  Mutate(schedule);  // the plan now disagrees with every object's contents
  Mutate(other_schedule);
  Mutate(other_upper.front());
  const std::vector<Complex> data(kSymbols, Complex{1.0, 0.0});
  ExpectIdentical(
      Transmit(prepared, data, other_schedule, upper, 0.0, 89),
      Transmit(twin, data, other_schedule, upper, 0.0, 89));
  ExpectIdentical(Transmit(prepared, data, schedule, other_upper, 0.0, 89),
                  Transmit(twin, data, schedule, other_upper, 0.0, 89));
}

TEST(PreparedLinkTest, PreparingAgainReplacesThePlan) {
  const mts::Metasurface surface{mts::MetasurfaceSpec{}};
  const OtaLinkConfig config = NoisyConfig();
  OtaLink prepared(surface, config);
  const OtaLink twin(surface, config);
  Rng rng(97);
  MtsSchedule schedule = RandomSchedule(surface.num_atoms(), rng);
  prepared.Prepare(schedule, LayerSchedules{});
  Mutate(schedule);
  prepared.Prepare(schedule, LayerSchedules{});
  const std::vector<Complex> data(kSymbols, Complex{1.0, 0.0});
  ExpectIdentical(Transmit(prepared, data, schedule, {}, 0.4, 101),
                  Transmit(twin, data, schedule, {}, 0.4, 101));
}

TEST(PreparedLinkTest, CopiedLinkStartsWithoutPlans) {
  // A copy must never answer from plans keyed by schedules someone else
  // prepared: mutate the schedule after copying and the copy follows the
  // new contents while the original still answers from its plan.
  const mts::LayerGraph graph(DepthThreeSpecs());
  const OtaLinkConfig config = NoisyConfig();
  OtaLink original(graph, config);
  const OtaLink twin(graph, config);
  Rng rng(103);
  MtsSchedule schedule = RandomSchedule(graph.front().num_atoms(), rng);
  const LayerSchedules upper = RandomUpper(graph, rng);
  const std::vector<Complex> data(kSymbols, Complex{1.0, 0.0});
  original.Prepare(schedule, upper);
  const Outcome planned = Transmit(original, data, schedule, upper, 0.0, 107);
  const OtaLink copy = original;
  const OtaLink moved = std::move(original);
  Mutate(schedule);
  ExpectIdentical(Transmit(copy, data, schedule, upper, 0.0, 107),
                  Transmit(twin, data, schedule, upper, 0.0, 107));
  // A move keeps the plans (the schedule objects did not move).
  ExpectIdentical(Transmit(moved, data, schedule, upper, 0.0, 107), planned);
}

TEST(PreparedLinkTest, ConcurrentPrepareCallsAreSafe) {
  const mts::Metasurface surface{mts::MetasurfaceSpec{}};
  const OtaLinkConfig config = NoisyConfig();
  OtaLink prepared(surface, config);
  const OtaLink twin(surface, config);
  Rng rng(109);
  std::vector<MtsSchedule> rounds;
  for (int r = 0; r < 16; ++r) {
    rounds.push_back(RandomSchedule(surface.num_atoms(), rng));
  }
  const par::ScopedThreadCount threads(4);
  const LayerSchedules no_upper;
  par::ParallelFor(rounds.size(), [&](std::size_t r) {
    prepared.Prepare(rounds[r], no_upper);
  });
  const std::vector<Complex> data(kSymbols, Complex{1.0, 0.0});
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    ExpectIdentical(Transmit(prepared, data, rounds[r], no_upper, 0.2, r),
                    Transmit(twin, data, rounds[r], no_upper, 0.2, r));
  }
}

// ---------------------------------------------------------------------
// Deployments prepare every round at construction.

core::TrainedModel TinyModel() {
  const auto ds =
      data::MakeMnistLike({.train_per_class = 8, .test_per_class = 2});
  Rng rng(3);
  core::TrainingOptions options;
  options.epochs = 2;
  return core::TrainModel(ds.train, options, rng);
}

/// ClassScores replayed call by call through an unprepared link.
std::vector<double> UnpreparedScores(const core::Deployment& deployment,
                                     const OtaLink& twin,
                                     const std::vector<double>& pixels,
                                     double offset_us, Rng& rng) {
  const std::vector<Complex> symbols = data::EncodeSample(
      pixels, twin.config().data_modulation.value());
  const core::MappedSchedules& schedules = deployment.schedules();
  const LayerSchedules no_upper;
  std::vector<double> scores(deployment.num_classes(), 0.0);
  for (std::size_t r = 0; r < schedules.rounds.size(); ++r) {
    const LayerSchedules& upper = schedules.upper_rounds.empty()
                                      ? no_upper
                                      : schedules.upper_rounds[r];
    const ComplexMatrix z = twin.TransmitSequence(
        symbols, schedules.rounds[r], upper, offset_us, rng);
    for (std::size_t o = 0; o < schedules.outputs[r].size(); ++o) {
      if (schedules.outputs[r][o] < 0) continue;
      Complex acc{0.0, 0.0};
      for (std::size_t i = 0; i < z.cols(); ++i) acc += z(o, i);
      scores[static_cast<std::size_t>(schedules.outputs[r][o])] =
          std::abs(acc);
    }
  }
  return scores;
}

TEST(PreparedDeploymentTest, ClassScoresMatchAnUnpreparedReplay) {
  const core::TrainedModel model = TinyModel();
  const auto ds =
      data::MakeMnistLike({.train_per_class = 1, .test_per_class = 2});
  const mts::LayerGraph graph(DepthThreeSpecs());
  for (const auto mode : {core::ParallelismMode::kSequential,
                          core::ParallelismMode::kSubcarrier}) {
    SCOPED_TRACE(core::ParallelismModeName(mode));
    const core::Deployment deployment(model, graph, NoisyConfig(),
                                      {.mode = mode, .parallel_width = 4});
    const OtaLink twin(graph, deployment.link().config());
    for (std::size_t s = 0; s < 2; ++s) {
      Rng rng_a(113 + s);
      Rng rng_b(113 + s);
      const auto scores =
          deployment.ClassScores(ds.test.features[s], 0.4, rng_a);
      const auto expected =
          UnpreparedScores(deployment, twin, ds.test.features[s], 0.4, rng_b);
      EXPECT_EQ(scores, expected);
      EXPECT_EQ(rng_a.Next(), rng_b.Next());
    }
  }
}

TEST(PreparedDeploymentTest, CopiesAndMovesStayOnTheirOwnSchedules) {
  const core::TrainedModel model = TinyModel();
  const auto ds =
      data::MakeMnistLike({.train_per_class = 1, .test_per_class = 1});
  const mts::Metasurface surface{mts::MetasurfaceSpec{}};
  auto original =
      std::make_unique<core::Deployment>(model, surface, NoisyConfig());
  Rng reference_rng(127);
  const std::vector<double> reference =
      original->ClassScores(ds.test.features[0], -0.35, reference_rng);

  // The copy's link has no plans; nothing it transmits may depend on the
  // original's schedule objects.
  const core::Deployment copy = *original;
  original.reset();
  Rng copy_rng(127);
  EXPECT_EQ(copy.ClassScores(ds.test.features[0], -0.35, copy_rng),
            reference);
  const OtaLink twin(surface, copy.link().config());
  Rng twin_rng(127);
  EXPECT_EQ(UnpreparedScores(copy, twin, ds.test.features[0], -0.35,
                             twin_rng),
            reference);

  core::Deployment source = copy;
  const core::Deployment moved = std::move(source);
  Rng moved_rng(127);
  EXPECT_EQ(moved.ClassScores(ds.test.features[0], -0.35, moved_rng),
            reference);
}

}  // namespace
}  // namespace metaai::sim
