#include "core/scheduler.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "obs/obs.h"

namespace metaai::core {

std::vector<std::size_t> AllocateSlots(std::span<const std::size_t> pending,
                                       std::size_t budget) {
  std::vector<std::size_t> granted(pending.size(), 0);
  std::size_t remaining = budget;
  bool progressed = true;
  while (remaining > 0 && progressed) {
    progressed = false;
    for (std::size_t i = 0; i < pending.size() && remaining > 0; ++i) {
      if (granted[i] < pending[i]) {
        ++granted[i];
        --remaining;
        progressed = true;
      }
    }
  }
  obs::Count("scheduler.slot_allocations");
  return granted;
}

namespace {

// The controller config must describe the panel it drives: the zero
// value carries the 256-atom/16-group prototype shape, which used to be
// reused verbatim for every surface, silently mis-budgeting the pattern
// load time on anything that was not 16x16. Re-derive the atom count
// from the surface, rounding the group count down to the nearest
// divisor (the Controller requires atoms % groups == 0). A 256-atom
// surface with the default config is untouched.
mts::ControllerConfig AlignedController(mts::ControllerConfig controller,
                                        std::size_t num_atoms) {
  if (controller.num_atoms == num_atoms) return controller;
  controller.num_atoms = num_atoms;
  std::size_t groups = std::min(controller.num_groups, num_atoms);
  while (groups > 1 && num_atoms % groups != 0) --groups;
  controller.num_groups = groups;
  return controller;
}

}  // namespace

SharedSurfaceScheduler::SharedSurfaceScheduler(const mts::LayerGraph& graph,
                                               std::vector<DeviceSpec> devices,
                                               SchedulerConfig config)
    : config_(std::move(config)) {
  Check(!devices.empty(), "scheduler needs at least one device");
  Check(config_.symbol_rate_hz > 0.0, "symbol rate must be positive");

  const obs::ScopedSpan span = obs::Span("scheduler.build");

  // The controller streams 2 patterns per symbol (mid-symbol flip) for
  // every device in turn; the frame is feasible iff the controller can
  // sustain that rate at all (slots never overlap in TDMA).
  config_.controller =
      AlignedController(config_.controller, graph.front().num_atoms());
  const mts::Controller controller(config_.controller);
  const bool sustainable = controller.CanSustain(config_.symbol_rate_hz, 2);
  obs::SetGauge("scheduler.switch_utilization",
                2.0 * config_.symbol_rate_hz / controller.MaxSwitchRate());
  if (!sustainable) obs::Count("scheduler.budget_violations");
  Check(sustainable,
        "controller cannot sustain the mid-symbol flip at this symbol "
        "rate");

  static const obs::HistogramSpec kSlotBuckets =
      obs::HistogramSpec::Exponential(1e-4, 2.0, 16);
  const double symbol_period_s = 1.0 / config_.symbol_rate_hz;
  double cursor_s = 0.0;
  for (DeviceSpec& spec : devices) {
    names_.push_back(spec.name);
    spec.link.symbol_rate_hz = config_.symbol_rate_hz;
    deployments_.push_back(std::make_unique<Deployment>(
        spec.model, graph, spec.link, spec.options));
    const Deployment& deployment = *deployments_.back();
    const std::size_t rounds = deployment.RoundsPerInference();
    const std::size_t symbols =
        deployment.schedules().rounds.front().size();
    const double duration =
        static_cast<double>(rounds) * static_cast<double>(symbols) *
        symbol_period_s;
    frame_.push_back({.device = spec.name,
                      .start_s = cursor_s,
                      .duration_s = duration,
                      .rounds = rounds,
                      .symbols_per_round = symbols});
    obs::Observe("scheduler.slot_duration_s", duration, kSlotBuckets);
    cursor_s += duration + kGuardIntervalS;
  }
  obs::Count("scheduler.frames_built");
  obs::SetGauge("scheduler.devices", static_cast<double>(frame_.size()));
  obs::SetGauge("scheduler.frame_duration_s", FrameDuration());
  obs::SetGauge("scheduler.guard_fraction",
                static_cast<double>(frame_.size()) * kGuardIntervalS /
                    FrameDuration());
}

const Deployment& SharedSurfaceScheduler::deployment(
    std::size_t device) const {
  CheckIndex(device, deployments_.size(), "device");
  return *deployments_[device];
}

const std::string& SharedSurfaceScheduler::device_name(
    std::size_t device) const {
  CheckIndex(device, names_.size(), "device");
  return names_[device];
}

std::vector<ScheduledSlot> SharedSurfaceScheduler::BuildFrame(
    std::span<const std::size_t> inferences) const {
  Check(inferences.size() == deployments_.size(),
        "inference counts must match the device count");
  const double symbol_period_s = 1.0 / config_.symbol_rate_hz;
  std::vector<ScheduledSlot> frame;
  double cursor_s = 0.0;
  for (std::size_t i = 0; i < inferences.size(); ++i) {
    if (inferences[i] == 0) continue;
    const ScheduledSlot& canonical = frame_[i];
    const double duration = static_cast<double>(inferences[i]) *
                            static_cast<double>(canonical.rounds) *
                            static_cast<double>(canonical.symbols_per_round) *
                            symbol_period_s;
    frame.push_back({.device = names_[i],
                     .start_s = cursor_s,
                     .duration_s = duration,
                     .rounds = canonical.rounds,
                     .symbols_per_round = canonical.symbols_per_round,
                     .batch = inferences[i]});
    cursor_s += duration + kGuardIntervalS;
  }
  return frame;
}

double SharedSurfaceScheduler::FrameDuration() const {
  const ScheduledSlot& last = frame_.back();
  return last.start_s + last.duration_s + kGuardIntervalS;
}

double SharedSurfaceScheduler::PerDeviceRate() const {
  return 1.0 / FrameDuration();
}

int SharedSurfaceScheduler::Classify(std::size_t device,
                                     const std::vector<double>& pixels,
                                     double mts_clock_offset_us,
                                     Rng& rng) const {
  CheckIndex(device, deployments_.size(), "device");
  return deployments_[device]->Classify(pixels, mts_clock_offset_us, rng);
}

SoftDecision SharedSurfaceScheduler::ClassifyWithMargin(
    std::size_t device, const std::vector<double>& pixels,
    double mts_clock_offset_us, Rng& rng) const {
  CheckIndex(device, deployments_.size(), "device");
  return deployments_[device]->ClassifyWithMargin(pixels, mts_clock_offset_us,
                                                  rng);
}

double SharedSurfaceScheduler::EvaluateDevice(std::size_t device,
                                              const nn::RealDataset& test,
                                              const sim::SyncModel& sync,
                                              Rng& rng,
                                              std::size_t max_samples) const {
  CheckIndex(device, deployments_.size(), "device");
  return deployments_[device]->EvaluateAccuracy(test, sync, rng,
                                                max_samples);
}

}  // namespace metaai::core
