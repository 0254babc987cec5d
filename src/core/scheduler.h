// Multi-device time-division scheduling over one shared metasurface.
//
// The paper positions the single shared surface as serving many IoT
// devices ("can be shared across multiple IoT devices", §6) — different
// transmitters, different tasks, one panel. The scheduler owns one
// deployment per device, interleaves their transmission rounds in TDMA
// frames, and verifies the whole frame against the controller's pattern
// throughput (a 2.56 MHz switching budget shared by everyone).
//
// Frame layout: round-robin over devices; each device's slot carries one
// full inference (all of its transmission rounds back to back, plus a
// guard interval for the energy detector to re-arm).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/deployment.h"
#include "mts/controller.h"

namespace metaai::core {

struct DeviceSpec {
  std::string name;
  TrainedModel model;
  /// Per-device link (geometry/environment may differ per device).
  sim::OtaLinkConfig link;
  DeploymentOptions options;
};

/// Guard between device slots (detector re-arm + MCU turnaround).
inline constexpr double kGuardIntervalS = 20e-6;

struct SchedulerConfig {
  double symbol_rate_hz = 1e6;
  /// Control-plane model for the shared (front) surface. The atom count
  /// is re-derived from the actual panel at construction — the zero
  /// value describes the 256-atom prototype and previously leaked onto
  /// every surface shape, mis-budgeting the pattern load time. Group
  /// count rounds down to the nearest divisor when the shape changes.
  mts::ControllerConfig controller;
};

/// One device's slot inside the TDMA frame.
struct ScheduledSlot {
  std::string device;
  double start_s = 0.0;
  double duration_s = 0.0;
  std::size_t rounds = 0;
  std::size_t symbols_per_round = 0;
  /// Inferences served back to back inside this slot (batching: the
  /// guard interval is paid once per slot, not once per inference).
  std::size_t batch = 1;
};

/// Fair round-robin slot allocation: grants at most `budget` inferences
/// across devices, one per device per pass, so a device with a deep
/// backlog cannot monopolize the frame. granted[i] <= pending[i] and
/// sum(granted) == min(budget, sum(pending)). Pure and deterministic.
std::vector<std::size_t> AllocateSlots(std::span<const std::size_t> pending,
                                       std::size_t budget);

class SharedSurfaceScheduler {
 public:
  /// Builds one deployment per device over the shared surface cascade
  /// `graph` (which must outlive the scheduler; a temporary graph is
  /// rejected at compile time). Throws if the combined schedule exceeds
  /// the controller's switching budget. The controller budget gates the
  /// schedule-driven front panel — upper layers also switch per symbol
  /// and are assumed to have their own controllers.
  SharedSurfaceScheduler(const mts::LayerGraph& graph,
                         std::vector<DeviceSpec> devices,
                         SchedulerConfig config = {});
  SharedSurfaceScheduler(const mts::LayerGraph&& graph,
                         std::vector<DeviceSpec> devices,
                         SchedulerConfig config = {}) = delete;

  std::size_t num_devices() const { return deployments_.size(); }
  const Deployment& deployment(std::size_t device) const;
  const std::string& device_name(std::size_t device) const;

  /// The TDMA frame: one slot per device, in order.
  const std::vector<ScheduledSlot>& frame() const { return frame_; }

  const SchedulerConfig& config() const { return config_; }

  /// Builds a batched TDMA frame carrying `inferences[i]` back-to-back
  /// inferences for device i (devices with zero pending inferences get
  /// no slot and pay no guard interval). Used by the serving runtime;
  /// does not replace the canonical one-inference-per-device frame().
  std::vector<ScheduledSlot> BuildFrame(
      std::span<const std::size_t> inferences) const;

  /// Total frame duration: each device gets one inference per frame.
  double FrameDuration() const;

  /// Inferences per second each device receives.
  double PerDeviceRate() const;

  /// Classifies one sample for `device` (its slot of the frame).
  int Classify(std::size_t device, const std::vector<double>& pixels,
               double mts_clock_offset_us, Rng& rng) const;

  /// Classification plus the soft-decision margin (see
  /// Deployment::ClassifyWithMargin); consumes the same RNG draws as
  /// Classify.
  SoftDecision ClassifyWithMargin(std::size_t device,
                                  const std::vector<double>& pixels,
                                  double mts_clock_offset_us, Rng& rng) const;

  /// Per-device accuracy over its test set.
  double EvaluateDevice(std::size_t device, const nn::RealDataset& test,
                        const sim::SyncModel& sync, Rng& rng,
                        std::size_t max_samples = 0) const;

 private:
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<Deployment>> deployments_;
  std::vector<ScheduledSlot> frame_;
  SchedulerConfig config_;
};

}  // namespace metaai::core
