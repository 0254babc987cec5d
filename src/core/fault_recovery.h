// Fault detection and graceful degradation for a live deployment.
//
// A deployed surface accumulates hardware faults (metaai::fault): stuck
// PIN drivers, corrupted shift-chain loads, aging phase drift. The
// recovery pipeline mirrors the paper's recalibration loop (§7) but
// against *device* failures instead of receiver motion:
//   1. diagnose — toggle-probe every atom over the air: transmit the
//      all-zero pattern (baseline B0), then per-atom patterns with atom m
//      at the pi state. A healthy atom toggles the measured response by
//      -2 s_m; a stuck atom leaves it unchanged (its code ignores the
//      load). The toggle simultaneously *measures* each healthy atom's
//      actual steering response — device error and drift included;
//   2. re-solve — rebuild the weight mapping with the stuck atoms masked
//      out of coordinate descent (mts::SolveOptions::atom_mask), against
//      the measured steering, with the measured static offsets folded
//      into the targets;
//   3. resume inference on the healthy aperture.
// A watchdog driven by the health layer's drift alerts decides when to
// pay the diagnosis cost.
#pragma once

#include <cstdint>
#include <vector>

#include "core/deployment.h"
#include "obs/alerts.h"

namespace metaai::core {

struct FaultDiagnosisConfig {
  /// Symbols averaged per probe transmission. A single atom's toggle is
  /// ~20 log10(num_atoms) dB below the aggregate link signal, so the
  /// per-atom measurement needs far more integration than ordinary
  /// symbol detection; noise on the measured steering scales with
  /// 1/sqrt(probe_symbols).
  std::size_t probe_symbols = 64;
};

struct FaultDiagnosis {
  /// 1 = healthy, 0 = stuck; sized num_atoms.
  std::vector<std::uint8_t> healthy_mask;
  std::size_t num_stuck = 0;
  /// Measured steering per (observation, atom) in solver units — the
  /// actual hardware response including device error and drift. Stuck
  /// atoms hold 0 (they are masked out of the re-solve anyway).
  ComplexMatrix measured_steering;
  /// Measured static response offset per observation in solver units:
  /// baseline B0 minus the healthy-atom prediction. Captures the stuck
  /// atoms' pinned contribution plus any environment leak; ~0 under the
  /// §3.2 cancellation scheme (stuck atoms never flip, so they cancel
  /// like the environment). Feed to MappingOptions::fault_offsets; do
  /// not combine with subtract_environment (the leak is already here).
  std::vector<sim::Complex> offsets;
  /// WDD(healthy) / WDD(total): aperture-health ratio in [0, 1].
  double wdd_ratio = 1.0;
  /// Probe transmissions spent (num_atoms + 1).
  std::size_t probe_transmissions = 0;
};

/// Toggle-probes every atom of `deployment`'s link over the air. Noise
/// for the probe transmissions is drawn from `rng`. Cascade links are
/// probed with the upper layers held at a deterministic focus
/// configuration whose composed factor is divided back out of every
/// measurement, so the toggle algebra sees the front panel alone (faults
/// only act there).
FaultDiagnosis DiagnoseDeployment(const Deployment& deployment, Rng& rng,
                                  const FaultDiagnosisConfig& config = {});

/// Rebuilds the deployment over `graph` with the diagnosis applied:
/// stuck atoms are masked out of the solve, the mapper solves against
/// the measured steering, and the measured offsets are folded into the
/// targets (front panel only; the upper layers are fault-free by model).
/// `options` should match the degraded deployment's options; its mapping
/// fault fields are overwritten. `graph` must outlive the returned
/// deployment (a temporary graph is rejected at compile time).
Deployment RecoverFromFaults(const TrainedModel& model,
                             const mts::LayerGraph& graph,
                             sim::OtaLinkConfig link_config,
                             DeploymentOptions options,
                             const FaultDiagnosis& diagnosis);
Deployment RecoverFromFaults(const TrainedModel& model,
                             const mts::LayerGraph&& graph,
                             sim::OtaLinkConfig link_config,
                             DeploymentOptions options,
                             const FaultDiagnosis& diagnosis) = delete;

struct FaultWatchdogConfig {
  FaultDiagnosisConfig diagnosis;
  /// Samples for the recovered deployment's accuracy check.
  std::size_t check_samples = 64;
};

struct FaultWatchdogReport {
  double observed_accuracy = 0.0;
  double reference_accuracy = 0.0;
  std::size_t num_stuck_detected = 0;
  double wdd_ratio = 1.0;
  /// Accuracy of the recovered deployment on `check_samples` test
  /// samples.
  double recovered_accuracy = 0.0;
};

struct FaultWatchdogResult {
  FaultWatchdogReport report;
  /// The re-solved deployment.
  Deployment recovered;
};

/// Alert-driven fault watchdog: a drift alert from the health layer
/// (obs/alerts.h — AlertKind::kDriftDetected, or any critical alert)
/// is the trip. Detection happened online from label-free signals, so
/// no spot-check transmissions are spent deciding whether to diagnose —
/// the pipeline goes straight to diagnose -> re-solve over `graph`
/// (which must outlive the result) and evaluates the recovered
/// deployment. The report's observed_accuracy holds the alert's
/// observed signal value (an accuracy *proxy*, not an accuracy). Emits
/// fault.watchdog_alert_trips, the fault.* recovery counters and the
/// deploy.recovered_accuracy gauge. Throws CheckError for alerts that
/// are neither drift-class nor critical.
FaultWatchdogResult RunFaultWatchdogOnAlert(
    const TrainedModel& model, const mts::LayerGraph& graph,
    const sim::OtaLinkConfig& link_config, const DeploymentOptions& options,
    const Deployment& deployment, const nn::RealDataset& test,
    double reference_accuracy, const obs::health::Alert& alert, Rng& rng,
    const FaultWatchdogConfig& config = {});
FaultWatchdogResult RunFaultWatchdogOnAlert(
    const TrainedModel& model, const mts::LayerGraph&& graph,
    const sim::OtaLinkConfig& link_config, const DeploymentOptions& options,
    const Deployment& deployment, const nn::RealDataset& test,
    double reference_accuracy, const obs::health::Alert& alert, Rng& rng,
    const FaultWatchdogConfig& config = {}) = delete;

}  // namespace metaai::core
