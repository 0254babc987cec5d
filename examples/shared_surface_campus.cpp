// A campus deployment: one metasurface panel in a hallway serves several
// unrelated IoT tenants — a shelf camera classifying products, a Wi-Fi
// gesture sensor, and an access-control face camera — each with its own
// trained model, time-division multiplexed through the shared surface.
//
// Demonstrates core::SharedSurfaceScheduler: per-tenant deployments,
// TDMA frame layout against the controller's switching budget, and the
// per-tenant inference rate the shared panel sustains.
#include <cstdio>
#include <iostream>

#include "core/metaai.h"
#include "data/datasets.h"
#include "rf/geometry.h"

namespace {

metaai::sim::OtaLinkConfig TenantLink(double tx_deg) {
  metaai::sim::OtaLinkConfig config;
  config.geometry = {.tx_distance_m = 1.0,
                     .tx_angle_rad = metaai::rf::DegToRad(tx_deg),
                     .rx_distance_m = 3.0,
                     .rx_angle_rad = metaai::rf::DegToRad(40.0),
                     .frequency_hz = 5.25e9};
  config.environment.profile = metaai::rf::OfficeProfile();
  return config;
}

}  // namespace

int main() {
  using namespace metaai;

  std::cout << "== Shared-surface campus: three tenants, one panel ==\n";

  // Each tenant trains its own model for its own task.
  auto train_tenant = [](const data::Dataset& ds, std::uint64_t seed) {
    Rng rng(seed);
    core::TrainingOptions options;
    options.sync_error_injection = true;
    options.sync_gamma_scale_us =
        1.85 * sim::PaperEquivalentLatencyScale(256);
    return core::TrainModel(ds.train, options, rng);
  };
  const auto products = data::MakeFruitsLike();
  const auto gestures = data::MakeWidarLike();
  const auto faces = data::MakeFaceStreamLike();

  std::vector<core::DeviceSpec> tenants;
  tenants.push_back({.name = "shelf-camera",
                     .model = train_tenant(products, 1),
                     .link = TenantLink(20.0),
                     .options = {}});
  tenants.push_back({.name = "gesture-sensor",
                     .model = train_tenant(gestures, 2),
                     .link = TenantLink(-15.0),
                     .options = {}});
  // The face tenant uses subcarrier parallelism to shorten its slot.
  core::DeploymentOptions face_options;
  face_options.mode = core::ParallelismMode::kSubcarrier;
  face_options.parallel_width = 5;
  tenants.push_back({.name = "door-camera",
                     .model = train_tenant(faces, 3),
                     .link = TenantLink(45.0),
                     .options = face_options});

  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  const core::SharedSurfaceScheduler scheduler(graph, std::move(tenants));

  std::cout << "TDMA frame (" << scheduler.FrameDuration() * 1e3
            << " ms, " << scheduler.PerDeviceRate()
            << " inferences/s per tenant):\n";
  for (const auto& slot : scheduler.frame()) {
    std::printf("  %-14s  t=%7.3f ms  dur=%6.3f ms  (%zu rounds x %zu "
                "symbols)\n",
                slot.device.c_str(), slot.start_s * 1e3,
                slot.duration_s * 1e3, slot.rounds,
                slot.symbols_per_round);
  }

  sim::SyncModelConfig sync_config;
  sync_config.latency_scale = sim::PaperEquivalentLatencyScale(256);
  const sim::SyncModel sync(sim::SyncMode::kCdfa, sync_config);
  Rng rng(9);
  const data::Dataset* test_sets[] = {&products, &gestures, &faces};
  for (std::size_t tenant = 0; tenant < scheduler.num_devices(); ++tenant) {
    const double acc = scheduler.EvaluateDevice(
        tenant, test_sets[tenant]->test, sync, rng, 80);
    std::printf("  %-14s accuracy over the air: %.1f%%\n",
                scheduler.device_name(tenant).c_str(), 100.0 * acc);
  }
  std::cout << "One panel, three tenants, no raw data over the air.\n";
  return 0;
}
