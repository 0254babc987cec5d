// End-to-end energy & latency cost model (Appendix A.4, Tables 2-3).
//
// The paper compares "transmit raw data, then compute on a server"
// pipelines (CPU/GPU x ResNet-18/LNN) against MetaAI, where computation
// happens during transmission. This model is parameterized with constants
// fitted to the paper's measured MNIST and AFHQ rows:
//  * radio: 40 Mb/s at 5.46 W (both follow from the paper's transmission
//    time/energy pairs);
//  * server compute: per (device, model) affine time in the pixel count,
//    fitted through the two measured datasets, times a per-row power;
//  * MetaAI: symbols = pixels * classes / parallel_width at 1 Msym/s,
//    2 MTS patterns per symbol (mid-symbol flip) at 0.75 uJ per pattern,
//    plus a fixed ~0.6 W / 0.013 ms server-side accumulation step.
#pragma once

#include <string>
#include <vector>

namespace metaai::sim {

/// One row of Table 2/3.
struct EnergyLatencyRow {
  std::string system;  // "CPU", "4080 GPU", "Meta-AI"
  std::string model;   // "ResNet-18", "LNN"
  double transmission_ms = 0.0;
  double server_compute_ms = 0.0;
  double total_ms = 0.0;
  double transmission_mj = 0.0;
  double server_compute_mj = 0.0;
  double mts_mj = 0.0;  // 0 for digital baselines
  double total_mj = 0.0;
};

/// Per-request energy split used by the serving runtime's lifecycle
/// traces: radiated Tx power over the airtime, MTS pattern switching,
/// and the fixed server-side accumulation step.
struct InferenceEnergy {
  double tx_j = 0.0;
  double mts_j = 0.0;
  double server_j = 0.0;

  double total_j() const { return tx_j + mts_j + server_j; }
};

class EnergyModel {
 public:
  /// Energy of one OTA inference that transmitted `symbols` symbols
  /// over `airtime_s` at `tx_power_dbm` radiated power (the serving
  /// runtime reads both from the scheduled slot and the tenant's link
  /// budget). Unlike MetaAiRow — which reconstructs the airtime from
  /// the model shape — this charges the airtime actually scheduled.
  InferenceEnergy OtaInferenceEnergy(double airtime_s, std::size_t symbols,
                                     double tx_power_dbm) const;

  /// Server-side accumulation/readout latency per inference, in
  /// seconds (the lifecycle "demod" stage).
  double DemodLatencyS() const;

  /// Digital baseline row: raw image (pixels bytes at 8bpp) shipped to
  /// the server, then inferred there. `device` is "CPU" or "4080 GPU",
  /// `model` is "ResNet-18" or "LNN".
  EnergyLatencyRow DigitalRow(const std::string& device,
                              const std::string& model,
                              std::size_t pixels) const;

  /// MetaAI row: computation happens during transmission; the sample is
  /// sent `classes / parallel_width` times (sequential rounds of the
  /// parallelism scheme).
  EnergyLatencyRow MetaAiRow(std::size_t pixels, std::size_t classes,
                             std::size_t parallel_width) const;
};

}  // namespace metaai::sim
