#include "core/fault_recovery.h"

#include <cmath>
#include <span>
#include <utility>

#include "common/check.h"
#include "mts/wdd.h"
#include "obs/obs.h"

namespace metaai::core {
namespace {

// An atom is declared stuck when its measured toggle magnitude |B_m - B0|
// falls below this fraction of the expected healthy toggle 2 |s_m|
// (averaged across the link's observations).
constexpr double kStuckThreshold = 0.5;

// Static focus configuration for each upper layer of a cascade link:
// layer l solves its observation-0 steering toward the reachable
// magnitude at zero phase (the cascade solver's own initialization), so
// the composed factor U(o) is large and well-conditioned for division.
// Deterministic — no RNG, fixed solver defaults. Empty for depth-1.
std::vector<std::vector<mts::PhaseCode>> FocusUpperCodes(
    const sim::OtaLink& link) {
  std::vector<std::vector<mts::PhaseCode>> codes;
  for (std::size_t l = 1; l < link.num_layers(); ++l) {
    const std::vector<sim::Complex> row = link.UpperSteeringVector(l, 0);
    const sim::Complex focus{mts::ReachableMagnitude(row), 0.0};
    codes.push_back(mts::SolveSingleTarget(row, focus, {}).codes);
  }
  return codes;
}

// Mean measured link response for one repeated pattern, in solver units
// (the steering-sum domain): z = tx * amp * B * x, probed with x = 1.
// On cascade links the upper layers hold `upper_codes` for the whole
// probe and their known composed factor is divided back out, so the
// caller's toggle algebra sees the front panel alone.
std::vector<sim::Complex> MeasureResponse(
    const sim::OtaLink& link, const std::vector<mts::PhaseCode>& pattern,
    std::span<const std::vector<mts::PhaseCode>> upper_codes,
    std::size_t probe_symbols, Rng& rng) {
  const std::vector<sim::Complex> data(probe_symbols,
                                       sim::Complex{1.0, 0.0});
  const sim::MtsSchedule schedule(probe_symbols, pattern);
  sim::LayerSchedules upper;
  for (const std::vector<mts::PhaseCode>& layer : upper_codes) {
    upper.emplace_back(probe_symbols, layer);
  }
  const ComplexMatrix z =
      link.TransmitSequence(data, schedule, upper, 0.0, rng);
  std::vector<sim::Complex> response(link.num_observations());
  for (std::size_t o = 0; o < response.size(); ++o) {
    sim::Complex acc{0.0, 0.0};
    for (std::size_t i = 0; i < probe_symbols; ++i) acc += z(o, i);
    response[o] = acc / (static_cast<double>(probe_symbols) *
                         link.TxAmplitude() * link.MtsPathAmplitude(o));
    if (!upper.empty()) {
      const sim::Complex factor = link.UpperLayerFactor(o, upper_codes);
      Check(std::abs(factor) > 0.0,
            "degenerate upper-layer focus factor in diagnosis");
      response[o] /= factor;
    }
  }
  return response;
}

}  // namespace

FaultDiagnosis DiagnoseDeployment(const Deployment& deployment, Rng& rng,
                                  const FaultDiagnosisConfig& config) {
  Check(config.probe_symbols > 0, "diagnosis needs at least one probe symbol");
  const sim::OtaLink& link = deployment.link();
  const std::size_t num_obs = link.num_observations();
  const std::size_t atoms = link.SteeringVector(0).size();

  // Idealized steering magnitudes set the expected toggle size per atom.
  std::vector<std::vector<sim::Complex>> ideal(num_obs);
  for (std::size_t o = 0; o < num_obs; ++o) ideal[o] = link.SteeringVector(o);

  // Baseline: the all-zero pattern (upper cascade layers, when present,
  // hold one static focus configuration across the whole diagnosis).
  const std::vector<std::vector<mts::PhaseCode>> upper_codes =
      FocusUpperCodes(link);
  std::vector<mts::PhaseCode> pattern(atoms, 0);
  const std::vector<sim::Complex> baseline =
      MeasureResponse(link, pattern, upper_codes, config.probe_symbols, rng);

  FaultDiagnosis diagnosis;
  diagnosis.healthy_mask.assign(atoms, 1);
  diagnosis.measured_steering = ComplexMatrix(num_obs, atoms);
  diagnosis.offsets.assign(num_obs, sim::Complex{0.0, 0.0});
  diagnosis.probe_transmissions = atoms + 1;

  // Toggle probe per atom: atom m at the pi state flips its contribution
  // sign, so delta = B_m - B0 = -2 s_m for a healthy atom and ~0 for a
  // stuck one (the load never reaches the diode driver).
  for (std::size_t m = 0; m < atoms; ++m) {
    pattern[m] = 2;  // pi
    const std::vector<sim::Complex> toggled =
        MeasureResponse(link, pattern, upper_codes, config.probe_symbols, rng);
    pattern[m] = 0;
    double ratio_sum = 0.0;
    for (std::size_t o = 0; o < num_obs; ++o) {
      const sim::Complex delta = toggled[o] - baseline[o];
      const double expected = 2.0 * std::abs(ideal[o][m]);
      ratio_sum += expected > 0.0 ? std::abs(delta) / expected : 0.0;
      diagnosis.measured_steering(o, m) = -0.5 * delta;
    }
    if (ratio_sum / static_cast<double>(num_obs) < kStuckThreshold) {
      diagnosis.healthy_mask[m] = 0;
      ++diagnosis.num_stuck;
      for (std::size_t o = 0; o < num_obs; ++o) {
        diagnosis.measured_steering(o, m) = sim::Complex{0.0, 0.0};
      }
    }
  }

  // Static offsets: whatever the baseline holds beyond the healthy-atom
  // prediction (stuck pinned contributions + environment leak + probe
  // noise). ~0 under multipath cancellation.
  for (std::size_t o = 0; o < num_obs; ++o) {
    sim::Complex healthy_sum{0.0, 0.0};
    for (std::size_t m = 0; m < atoms; ++m) {
      if (diagnosis.healthy_mask[m] != 0) {
        healthy_sum += diagnosis.measured_steering(o, m);
      }
    }
    diagnosis.offsets[o] = baseline[o] - healthy_sum;
  }

  const std::size_t healthy = atoms - diagnosis.num_stuck;
  diagnosis.wdd_ratio =
      healthy > 0 ? mts::WeightDistributionDensity(healthy) /
                        mts::WeightDistributionDensity(atoms)
                  : 0.0;

  obs::Count("fault.diagnoses");
  obs::Count("fault.probe_transmissions", diagnosis.probe_transmissions);
  obs::Count("fault.detected", diagnosis.num_stuck);
  obs::SetGauge("fault.wdd_ratio", diagnosis.wdd_ratio);
  if (obs::ProbesEnabled()) {
    // Stuck map as a series (1 = healthy), for offline aperture plots.
    std::vector<double> series(atoms);
    for (std::size_t m = 0; m < atoms; ++m) {
      series[m] = static_cast<double>(diagnosis.healthy_mask[m]);
    }
    obs::Probe({.kind = obs::ProbeKind::kFault,
                .site = "fault.diagnose",
                .values = {{"atoms", static_cast<double>(atoms)},
                           {"stuck", static_cast<double>(diagnosis.num_stuck)},
                           {"wdd_ratio", diagnosis.wdd_ratio},
                           {"probes",
                            static_cast<double>(diagnosis.probe_transmissions)}},
                .series = std::move(series)});
  }
  return diagnosis;
}

namespace {

// Folds a diagnosis into the mapping options of the re-solve.
DeploymentOptions ApplyDiagnosis(DeploymentOptions options,
                                 const FaultDiagnosis& diagnosis) {
  Check(diagnosis.num_stuck < diagnosis.healthy_mask.size(),
        "no healthy atoms left to re-solve over");
  options.mapping.solver.atom_mask = diagnosis.healthy_mask;
  options.mapping.steering_override = diagnosis.measured_steering;
  options.mapping.fault_offsets = diagnosis.offsets;
  // The measured offsets already contain any environment leak; do not
  // subtract the idealized environment a second time.
  options.mapping.subtract_environment = false;
  return options;
}

}  // namespace

Deployment RecoverFromFaults(const TrainedModel& model,
                             const mts::LayerGraph& graph,
                             sim::OtaLinkConfig link_config,
                             DeploymentOptions options,
                             const FaultDiagnosis& diagnosis) {
  obs::Count("fault.resolves");
  return Deployment(model, graph, std::move(link_config),
                    ApplyDiagnosis(std::move(options), diagnosis));
}

FaultWatchdogResult RunFaultWatchdogOnAlert(
    const TrainedModel& model, const mts::LayerGraph& graph,
    const sim::OtaLinkConfig& link_config, const DeploymentOptions& options,
    const Deployment& deployment, const nn::RealDataset& test,
    double reference_accuracy, const obs::health::Alert& alert, Rng& rng,
    const FaultWatchdogConfig& config) {
  Check(alert.kind == obs::health::AlertKind::kDriftDetected ||
            alert.severity == obs::health::AlertSeverity::kCritical,
        "alert-driven watchdog expects a drift or critical alert");
  obs::Count("fault.watchdog_alert_trips");
  const FaultDiagnosis diagnosis =
      DiagnoseDeployment(deployment, rng, config.diagnosis);
  // Re-solve even when nothing is stuck: the measured steering also
  // repairs drift-induced miscalibration.
  FaultWatchdogResult result{
      // The trip came from the online health layer, not a spot-check:
      // record the alerting signal's observed value (an accuracy proxy).
      .report = {.observed_accuracy = alert.value,
                 .reference_accuracy = reference_accuracy,
                 .num_stuck_detected = diagnosis.num_stuck,
                 .wdd_ratio = diagnosis.wdd_ratio},
      .recovered =
          RecoverFromFaults(model, graph, link_config, options, diagnosis)};
  result.report.recovered_accuracy = result.recovered.EvaluateAccuracyAtOffset(
      test, 0.0, rng, config.check_samples);
  obs::SetGauge("deploy.recovered_accuracy", result.report.recovered_accuracy);
  if (obs::ProbesEnabled()) {
    obs::Probe(
        {.kind = obs::ProbeKind::kFault,
         .site = "fault.watchdog_alert",
         .values = {{"observed_accuracy", result.report.observed_accuracy},
                    {"reference_accuracy", result.report.reference_accuracy},
                    {"recovered_accuracy", result.report.recovered_accuracy},
                    {"stuck", static_cast<double>(diagnosis.num_stuck)},
                    {"wdd_ratio", diagnosis.wdd_ratio}}});
  }
  return result;
}

}  // namespace metaai::core
