#include "core/deployment.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "data/encoding.h"
#include "obs/obs.h"
#include "obs/parallel.h"
#include "rf/geometry.h"

namespace metaai::core {
namespace {

// Angular spacing between receive antennas for antenna parallelism.
constexpr double kAntennaSpacingDeg = 6.0;

}  // namespace

std::string ParallelismModeName(ParallelismMode mode) {
  switch (mode) {
    case ParallelismMode::kSequential:
      return "sequential";
    case ParallelismMode::kSubcarrier:
      return "subcarrier";
    case ParallelismMode::kAntenna:
      return "antenna";
  }
  throw CheckError("unknown parallelism mode");
}

std::vector<sim::Observation> BuildObservations(
    const sim::OtaLinkConfig& base, std::size_t num_classes,
    const DeploymentOptions& options) {
  std::size_t width = options.parallel_width > 0 ? options.parallel_width
                                                 : num_classes;
  width = std::min(width, num_classes);
  std::vector<sim::Observation> observations;
  switch (options.mode) {
    case ParallelismMode::kSequential:
      observations.push_back({});
      break;
    case ParallelismMode::kSubcarrier: {
      // Subcarriers centred on the carrier, one per simultaneous output.
      const double spacing = options.subcarrier_spacing_hz;
      for (std::size_t k = 0; k < width; ++k) {
        const double offset =
            (static_cast<double>(k) -
             (static_cast<double>(width) - 1.0) / 2.0) *
            spacing;
        observations.push_back(
            {.freq_offset_hz = offset, .harmonic = static_cast<int>(k)});
      }
      break;
    }
    case ParallelismMode::kAntenna: {
      // Antenna array fanned around the nominal receive direction.
      const double spacing = rf::DegToRad(kAntennaSpacingDeg);
      for (std::size_t l = 0; l < width; ++l) {
        mts::LinkGeometry geometry = base.geometry;
        geometry.rx_angle_rad +=
            (static_cast<double>(l) -
             (static_cast<double>(width) - 1.0) / 2.0) *
            spacing;
        observations.push_back({.geometry = geometry});
      }
      break;
    }
  }
  return observations;
}

namespace {

sim::OtaLinkConfig DeployLinkConfig(sim::OtaLinkConfig link_config,
                                    const TrainedModel& model,
                                    const DeploymentOptions& options) {
  link_config.observations =
      BuildObservations(link_config, model.num_classes(), options);
  // Tell the link what constellation the data symbols come from so
  // its EVM probe can report the demod soft-decision margin (the
  // health layer's label-free accuracy proxy).
  link_config.data_modulation = model.modulation;
  return link_config;
}

MappingOptions DeployMappingOptions(const DeploymentOptions& options) {
  // Pin the scheme from the deployment mode rather than letting
  // kAuto follow the link shape: a parallel deployment whose width
  // collapses to one observation must still use the parallel
  // solve/residual path so results match wider configurations.
  MappingOptions mapping = options.mapping;
  if (mapping.scheme == MappingScheme::kAuto) {
    mapping.scheme = options.mode == ParallelismMode::kSequential
                         ? MappingScheme::kSequential
                         : MappingScheme::kParallel;
  }
  return mapping;
}

}  // namespace

Deployment::Deployment(const TrainedModel& model, const mts::LayerGraph& graph,
                       sim::OtaLinkConfig link_config,
                       DeploymentOptions options)
    : modulation_(model.modulation),
      num_classes_(model.num_classes()),
      options_(options),
      link_(graph, DeployLinkConfig(std::move(link_config), model, options)),
      schedules_(MapWeights(model.network.weights(), link_,
                            DeployMappingOptions(options))) {
  PrepareRounds();
  EmitScheduleProbes();
}

const sim::LayerSchedules& Deployment::UpperRound(std::size_t round) const {
  static const sim::LayerSchedules kNoUpperLayers;
  return schedules_.upper_rounds.empty() ? kNoUpperLayers
                                         : schedules_.upper_rounds[round];
}

void Deployment::PrepareRounds() {
  // Plans are pure functions of the schedules, so the fan-out leaves them
  // identical for any thread count.
  par::ParallelFor(schedules_.rounds.size(), [&](std::size_t round) {
    link_.Prepare(schedules_.rounds[round], UpperRound(round));
  });
}

void Deployment::EmitScheduleProbes() const {
  if (obs::ProbesEnabled()) {
    // Dump the leading phase configuration of every round so a
    // degraded deployment's realized metasurface state is inspectable
    // offline (the full schedule is rounds x symbols x atoms; the
    // first symbol per round is the representative sample).
    const auto& rounds = schedules_.rounds;
    for (std::size_t r = 0; r < rounds.size(); ++r) {
      const auto& codes = rounds[r].front();
      std::vector<double> series(codes.size());
      for (std::size_t m = 0; m < codes.size(); ++m) {
        series[m] = static_cast<double>(codes[m]);
      }
      obs::Probe({.kind = obs::ProbeKind::kPhaseConfig,
                  .site = "deploy.schedule",
                  .values = {{"round", static_cast<double>(r)},
                             {"symbol", 0.0},
                             {"atoms", static_cast<double>(codes.size())},
                             {"mean_relative_residual",
                              schedules_.mean_relative_residual}},
                  .series = std::move(series)});
    }
  }
}

std::vector<double> Deployment::ClassScores(const std::vector<double>& pixels,
                                            double mts_clock_offset_us,
                                            Rng& rng) const {
  const std::vector<nn::Complex> symbols =
      data::EncodeSample(pixels, modulation_);
  Check(symbols.size() == schedules_.rounds.front().size(),
        "sample length does not match the deployed schedule");

  obs::Count("ota.inferences");
  obs::Count("ota.rounds", schedules_.rounds.size());
  obs::Count("ota.symbols", schedules_.rounds.size() * symbols.size());

  std::vector<double> scores(num_classes_, 0.0);
  for (std::size_t round = 0; round < schedules_.rounds.size(); ++round) {
    const obs::ScopedSpan round_span = obs::Span("ota.round");
    round_span.Arg("round", static_cast<double>(round));
    // Deep links carry a per-round upper-layer schedule solved jointly
    // with the front panel; depth-1 links pass an empty one.
    const ComplexMatrix z =
        link_.TransmitSequence(symbols, schedules_.rounds[round],
                               UpperRound(round), mts_clock_offset_us, rng);
    const auto& outputs = schedules_.outputs[round];
    for (std::size_t o = 0; o < outputs.size(); ++o) {
      if (outputs[o] < 0) continue;
      const sim::Complex* row = z.row(o);
      sim::Complex acc{0.0, 0.0};
      for (std::size_t i = 0; i < z.cols(); ++i) acc += row[i];
      scores[static_cast<std::size_t>(outputs[o])] = std::abs(acc);
    }
  }
  return scores;
}

int Deployment::Classify(const std::vector<double>& pixels,
                         double mts_clock_offset_us, Rng& rng) const {
  return ClassifyWithMargin(pixels, mts_clock_offset_us, rng).predicted;
}

SoftDecision Deployment::ClassifyWithMargin(const std::vector<double>& pixels,
                                            double mts_clock_offset_us,
                                            Rng& rng) const {
  const auto scores = ClassScores(pixels, mts_clock_offset_us, rng);
  const auto top = std::max_element(scores.begin(), scores.end());
  SoftDecision decision;
  decision.predicted =
      static_cast<int>(std::distance(scores.begin(), top));
  if (scores.size() < 2) {
    decision.margin = 1.0;
    return decision;
  }
  double second = -1.0;
  for (std::size_t c = 0; c < scores.size(); ++c) {
    if (static_cast<int>(c) == decision.predicted) continue;
    second = std::max(second, scores[c]);
  }
  if (*top > 0.0) {
    decision.margin = std::max(0.0, (*top - second) / *top);
  }
  return decision;
}

double Deployment::EvaluateAccuracy(const nn::RealDataset& test,
                                    const sim::SyncModel& sync, Rng& rng,
                                    std::size_t max_samples) const {
  test.Validate();
  const std::size_t n = max_samples > 0
                            ? std::min(max_samples, test.size())
                            : test.size();
  Check(n > 0, "empty test set");
  const obs::ScopedSpan span = obs::Span("ota.evaluate");
  span.Arg("samples", static_cast<double>(n));
  static const obs::HistogramSpec kOffsetBuckets =
      obs::HistogramSpec::Linear(0.0, 50.0, 25);
  obs::Count("ota.evaluations");
  obs::Count("ota.samples", n);
  // One pre-forked stream per sample: each sample's offset draw and
  // channel noise come from its own generator, so the batch fan-out is
  // bitwise identical for any thread count.
  std::vector<Rng> rngs = par::ForkRngs(rng, n);
  std::vector<unsigned char> correct_flags(n, 0);
  obs::DeterministicParallelFor(n, [&](std::size_t i) {
    const double offset = sync.SampleOffsetUs(rngs[i]);
    obs::Observe("ota.sync_offset_us", offset, kOffsetBuckets);
    correct_flags[i] =
        Classify(test.features[i], offset, rngs[i]) == test.labels[i];
  });
  std::size_t correct = 0;
  for (std::size_t i = 0; i < n; ++i) correct += correct_flags[i];
  const double accuracy =
      static_cast<double>(correct) / static_cast<double>(n);
  obs::SetGauge("ota.accuracy", accuracy);
  if (obs::ProbesEnabled()) {
    obs::Probe({.kind = obs::ProbeKind::kScalar,
                .site = "ota.evaluate",
                .values = {{"samples", static_cast<double>(n)},
                           {"correct", static_cast<double>(correct)},
                           {"accuracy", accuracy}}});
  }
  return accuracy;
}

double Deployment::EvaluateAccuracyAtOffset(const nn::RealDataset& test,
                                            double mts_clock_offset_us,
                                            Rng& rng,
                                            std::size_t max_samples) const {
  test.Validate();
  const std::size_t n = max_samples > 0
                            ? std::min(max_samples, test.size())
                            : test.size();
  Check(n > 0, "empty test set");
  std::vector<Rng> rngs = par::ForkRngs(rng, n);
  std::vector<unsigned char> correct_flags(n, 0);
  obs::DeterministicParallelFor(n, [&](std::size_t i) {
    correct_flags[i] =
        Classify(test.features[i], mts_clock_offset_us, rngs[i]) ==
        test.labels[i];
  });
  std::size_t correct = 0;
  for (std::size_t i = 0; i < n; ++i) correct += correct_flags[i];
  return static_cast<double>(correct) / static_cast<double>(n);
}

}  // namespace metaai::core
