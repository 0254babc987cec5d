#include "core/scheduler.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "common/check.h"
#include "data/datasets.h"
#include "rf/geometry.h"

namespace metaai::core {
namespace {

sim::OtaLinkConfig DeviceLink(double tx_deg) {
  sim::OtaLinkConfig config;
  config.geometry = {.tx_distance_m = 1.0,
                     .tx_angle_rad = rf::DegToRad(tx_deg),
                     .rx_distance_m = 3.0,
                     .rx_angle_rad = rf::DegToRad(40.0),
                     .frequency_hz = 5.25e9};
  config.environment.profile = rf::OfficeProfile();
  return config;
}

TrainedModel QuickModel(const nn::RealDataset& train, std::uint64_t seed) {
  Rng rng(seed);
  TrainingOptions options;
  options.epochs = 20;
  return TrainModel(train, options, rng);
}

struct TwoDeviceSetup {
  data::Dataset digits =
      data::MakeMnistLike({.train_per_class = 40, .test_per_class = 8});
  data::Dataset gestures =
      data::MakeWidarLike({.train_per_class = 40, .test_per_class = 8});
  SharedSurfaceScheduler scheduler;

  TwoDeviceSetup(const mts::LayerGraph& graph)
      : scheduler(graph,
                  [this] {
                    std::vector<DeviceSpec> devices;
                    devices.push_back({.name = "camera",
                                       .model = QuickModel(digits.train, 1),
                                       .link = DeviceLink(30.0),
                                       .options = {}});
                    devices.push_back({.name = "radar",
                                       .model = QuickModel(gestures.train,
                                                           2),
                                       .link = DeviceLink(-20.0),
                                       .options = {}});
                    return devices;
                  }()) {}
};

TEST(SchedulerTest, FrameLayoutIsSequentialAndGapped) {
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  const TwoDeviceSetup setup(graph);
  const auto& frame = setup.scheduler.frame();
  ASSERT_EQ(frame.size(), 2u);
  EXPECT_EQ(frame[0].device, "camera");
  EXPECT_EQ(frame[1].device, "radar");
  // Slots don't overlap; the second starts after the first + guard.
  EXPECT_DOUBLE_EQ(frame[1].start_s,
                   frame[0].start_s + frame[0].duration_s + 20e-6);
  // Camera: 10 classes x 256 symbols at 1 Msym/s = 2.56 ms.
  EXPECT_EQ(frame[0].rounds, 10u);
  EXPECT_NEAR(frame[0].duration_s, 2.56e-3, 1e-9);
  // Radar: 6 classes -> 1.536 ms.
  EXPECT_NEAR(frame[1].duration_s, 1.536e-3, 1e-9);
}

TEST(SchedulerTest, FrameDurationAndRateAreConsistent) {
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  const TwoDeviceSetup setup(graph);
  const double frame = setup.scheduler.FrameDuration();
  EXPECT_NEAR(frame, 2.56e-3 + 1.536e-3 + 2 * 20e-6, 1e-9);
  EXPECT_NEAR(setup.scheduler.PerDeviceRate(), 1.0 / frame, 1e-6);
}

TEST(SchedulerTest, BothDevicesClassifyOverTheSharedSurface) {
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  const TwoDeviceSetup setup(graph);
  Rng rng(3);
  sim::SyncModelConfig sync_config;
  sync_config.latency_scale = 256.0 / 784.0;
  const sim::SyncModel sync(sim::SyncMode::kCdfa, sync_config);
  const double camera_acc = setup.scheduler.EvaluateDevice(
      0, setup.digits.test, sync, rng, 40);
  const double radar_acc = setup.scheduler.EvaluateDevice(
      1, setup.gestures.test, sync, rng, 40);
  EXPECT_GT(camera_acc, 0.5);
  EXPECT_GT(radar_acc, 0.5);
}

TEST(SchedulerTest, DeviceAccessorsValidate) {
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  const TwoDeviceSetup setup(graph);
  EXPECT_EQ(setup.scheduler.device_name(0), "camera");
  EXPECT_THROW(setup.scheduler.deployment(2), CheckError);
  EXPECT_THROW(setup.scheduler.device_name(2), CheckError);
}

TEST(SchedulerTest, RejectsInfeasibleSymbolRates) {
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  const auto ds =
      data::MakeMnistLike({.train_per_class = 5, .test_per_class = 1});
  std::vector<DeviceSpec> devices;
  devices.push_back({.name = "cam",
                     .model = QuickModel(ds.train, 4),
                     .link = DeviceLink(30.0),
                     .options = {}});
  SchedulerConfig config;
  config.symbol_rate_hz = 5e6;  // 2 patterns/symbol > 2.56 MHz budget
  EXPECT_THROW(
      SharedSurfaceScheduler(graph, std::move(devices), config),
      CheckError);
}

TEST(SchedulerTest, RejectsEmptyDeviceList) {
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  EXPECT_THROW(SharedSurfaceScheduler(graph, {}), CheckError);
}

// --- slot allocation (serving admission) -------------------------------

TEST(SchedulerTest, AllocateSlotsIsRoundRobinFair) {
  // One device with a deep backlog cannot monopolize the frame while
  // others have pending work: each pass grants one slot per device.
  const std::size_t pending[] = {100, 3, 3};
  const auto granted = AllocateSlots(pending, 8);
  EXPECT_EQ(granted, (std::vector<std::size_t>{3, 3, 2}));
}

TEST(SchedulerTest, AllocateSlotsBudgetNotDividingPending) {
  // Budget 5 across two equally-loaded devices: the extra slot goes to
  // the lower-indexed device deterministically.
  const std::size_t pending[] = {4, 4};
  const auto granted = AllocateSlots(pending, 5);
  EXPECT_EQ(granted, (std::vector<std::size_t>{3, 2}));
}

TEST(SchedulerTest, AllocateSlotsStopsWhenPendingExhausted) {
  const std::size_t pending[] = {1, 0, 2};
  const auto granted = AllocateSlots(pending, 100);
  EXPECT_EQ(granted, (std::vector<std::size_t>{1, 0, 2}));

  const auto none = AllocateSlots(std::span<const std::size_t>{}, 4);
  EXPECT_TRUE(none.empty());
}

TEST(SchedulerTest, BuildFrameSkipsIdleDevicesAndBatchesSlots) {
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  const TwoDeviceSetup setup(graph);

  // Radar idle: the frame holds only the camera slot, batched 3x, and
  // the batch amortizes the guard interval (one guard per slot, not per
  // inference).
  const std::size_t counts[] = {3, 0};
  const auto frame = setup.scheduler.BuildFrame(counts);
  ASSERT_EQ(frame.size(), 1u);
  EXPECT_EQ(frame[0].device, "camera");
  EXPECT_EQ(frame[0].batch, 3u);
  EXPECT_DOUBLE_EQ(frame[0].start_s, 0.0);
  EXPECT_NEAR(frame[0].duration_s, 3 * 2.56e-3, 1e-9);

  const std::size_t wrong_arity[] = {1, 1, 1};
  EXPECT_THROW(setup.scheduler.BuildFrame(wrong_arity), CheckError);
}

}  // namespace
}  // namespace metaai::core
