// Umbrella header: the public MetaAI API.
//
// Typical usage (see examples/quickstart.cpp):
//
//   auto dataset = metaai::data::MakeMnistLike();
//   metaai::Rng rng(42);
//   auto model = metaai::core::TrainModel(dataset.train, {}, rng);
//
//   // One 16x16 panel: the depth-1 graph. It must outlive the deployment.
//   const metaai::mts::LayerGraph graph(
//       metaai::mts::Metasurface{metaai::mts::MetasurfaceSpec{}});
//   metaai::sim::OtaLinkConfig link;           // the paper's default setup
//   link.geometry = {...};
//   metaai::core::Deployment deployment(model, graph, link);
//
//   metaai::sim::SyncModel sync(metaai::sim::SyncMode::kCdfa);
//   double accuracy = deployment.EvaluateAccuracy(dataset.test, sync, rng);
#pragma once

#include "common/result.h"      // typed error handling (metaai::Result<T>)
#include "core/deployment.h"    // over-the-air inference + parallelism
#include "core/fault_recovery.h"  // fault diagnosis + alert-driven recovery
#include "core/fusion.h"        // multi-sensor late fusion
#include "core/hybrid.h"        // OTA linear layer + digital nonlinear head
#include "core/pnn_baseline.h"  // stacked traditional PNN baseline
#include "core/recalibration.h" // receiver mobility / beam-scan pipeline
#include "core/scheduler.h"     // multi-device TDMA over one surface
#include "core/serialization.h" // model + MTS pattern files
#include "core/training.h"      // digital training + robustness schemes
#include "core/placement.h"     // deterministic bin-packing placement
#include "core/weight_mapper.h" // weights -> MTS configurations
#include "fleet/fleet.h"        // sharded surface cluster + front door
#include "mts/config_cache.h"   // solver-result cache shared by tenants
#include "serve/generator.h"    // seeded multi-client request traces
#include "serve/runtime.h"      // batched multi-tenant serving runtime
