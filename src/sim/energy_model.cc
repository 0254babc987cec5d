#include "sim/energy_model.h"

#include <cmath>

#include "common/check.h"

namespace metaai::sim {
namespace {

// Radio and MetaAI constants (see the header comment for their sources).
constexpr double kRadioRateBps = 40e6;
constexpr double kRadioPowerW = 5.46;
constexpr double kMetaAiSymbolRateHz = 1e6;
constexpr double kMtsPatternsPerSymbol = 2.0;  // mid-symbol flip
constexpr double kMtsEnergyPerPatternJ = 0.75e-6;
constexpr double kMetaAiServerMs = 0.013;
constexpr double kMetaAiServerPowerW = 0.6;

// Server compute time = intercept_ms + slope_ms_per_px * pixels, at
// power_w. Fitted through the paper's measured MNIST (784 px) and AFHQ
// (2704 px) rows.
struct ServerProfile {
  const char* device;
  const char* model;
  double intercept_ms;
  double slope_ms_per_px;
  double power_w;
};

constexpr ServerProfile kProfiles[] = {
    {"CPU", "ResNet-18", 4.041, 4.680e-3, 29.3},
    {"CPU", "LNN", 0.874, 1.386e-3, 31.4},
    {"4080 GPU", "ResNet-18", 3.138, 1.483e-3, 42.3},
    {"4080 GPU", "LNN", 3.477, 6.55e-4, 31.2},
};

const ServerProfile& FindProfile(const std::string& device,
                                 const std::string& model) {
  for (const ServerProfile& profile : kProfiles) {
    if (device == profile.device && model == profile.model) return profile;
  }
  throw CheckError("unknown device/model pair: " + device + "/" + model);
}

}  // namespace

double EnergyModel::DemodLatencyS() const { return kMetaAiServerMs * 1e-3; }

InferenceEnergy EnergyModel::OtaInferenceEnergy(double airtime_s,
                                                std::size_t symbols,
                                                double tx_power_dbm) const {
  Check(airtime_s >= 0.0, "airtime must be non-negative");
  InferenceEnergy energy;
  // dBm -> W: 10^((dBm - 30) / 10).
  energy.tx_j = std::pow(10.0, (tx_power_dbm - 30.0) / 10.0) * airtime_s;
  energy.mts_j = static_cast<double>(symbols) * kMtsPatternsPerSymbol *
                 kMtsEnergyPerPatternJ;
  energy.server_j = kMetaAiServerPowerW * DemodLatencyS();
  return energy;
}

EnergyLatencyRow EnergyModel::DigitalRow(const std::string& device,
                                         const std::string& model,
                                         std::size_t pixels) const {
  Check(pixels > 0, "pixels must be positive");
  const ServerProfile& profile = FindProfile(device, model);
  EnergyLatencyRow row;
  row.system = device;
  row.model = model;
  // 8-bit pixels shipped raw.
  const double bits = static_cast<double>(pixels) * 8.0;
  row.transmission_ms = bits / kRadioRateBps * 1e3;
  row.server_compute_ms =
      profile.intercept_ms + profile.slope_ms_per_px *
                                 static_cast<double>(pixels);
  row.total_ms = row.transmission_ms + row.server_compute_ms;
  row.transmission_mj = kRadioPowerW * row.transmission_ms;
  row.server_compute_mj = profile.power_w * row.server_compute_ms;
  row.mts_mj = 0.0;
  row.total_mj = row.transmission_mj + row.server_compute_mj;
  return row;
}

EnergyLatencyRow EnergyModel::MetaAiRow(std::size_t pixels,
                                        std::size_t classes,
                                        std::size_t parallel_width) const {
  Check(pixels > 0 && classes > 0 && parallel_width > 0,
        "dimensions must be positive");
  Check(parallel_width <= classes, "parallel width cannot exceed classes");
  EnergyLatencyRow row;
  row.system = "Meta-AI";
  row.model = "LNN";
  const double rounds = std::ceil(static_cast<double>(classes) /
                                  static_cast<double>(parallel_width));
  const double symbols = static_cast<double>(pixels) * rounds;
  row.transmission_ms = symbols / kMetaAiSymbolRateHz * 1e3;
  row.server_compute_ms = kMetaAiServerMs;
  row.total_ms = row.transmission_ms + row.server_compute_ms;
  row.transmission_mj = kRadioPowerW * row.transmission_ms;
  row.server_compute_mj = kMetaAiServerPowerW * row.server_compute_ms;
  row.mts_mj = symbols * kMtsPatternsPerSymbol * kMtsEnergyPerPatternJ * 1e3;
  row.total_mj = row.transmission_mj + row.server_compute_mj + row.mts_mj;
  return row;
}

}  // namespace metaai::sim
