// Hardware-fault graceful degradation, end to end: inject faults into a
// deployed link, detect them over the air with toggle probing, re-solve
// the weight mapping over the healthy aperture, and verify the recovered
// accuracy. Exercises metaai::fault + the mapper's atom_mask /
// steering_override / fault_offsets plumbing the way the CLI and the
// ablation bench drive it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/metaai.h"
#include "data/datasets.h"
#include "fault/injector.h"
#include "rf/geometry.h"

namespace metaai {
namespace {

sim::OtaLinkConfig DefaultLink(std::uint64_t seed = 1) {
  sim::OtaLinkConfig config;
  config.geometry = {.tx_distance_m = 1.0,
                     .tx_angle_rad = rf::DegToRad(30.0),
                     .rx_distance_m = 3.0,
                     .rx_angle_rad = rf::DegToRad(40.0),
                     .frequency_hz = 5.25e9};
  config.environment.profile = rf::OfficeProfile();
  config.channel_seed = seed;
  return config;
}

class FaultRecoveryTest : public ::testing::Test {
 protected:
  // One shared trained model for the whole suite: training dominates the
  // runtime and every test deploys the same network.
  static void SetUpTestSuite() {
    dataset_ = new data::Dataset(
        data::MakeMnistLike({.train_per_class = 50, .test_per_class = 10}));
    Rng rng(1);
    core::TrainingOptions options;
    options.epochs = 25;
    model_ = new core::TrainedModel(
        core::TrainModel(dataset_->train, options, rng));
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  static data::Dataset* dataset_;
  static core::TrainedModel* model_;
  const mts::LayerGraph graph_{mts::Metasurface{mts::MetasurfaceSpec{}}};
};

data::Dataset* FaultRecoveryTest::dataset_ = nullptr;
core::TrainedModel* FaultRecoveryTest::model_ = nullptr;

TEST_F(FaultRecoveryTest, DiagnosisFindsExactlyTheStuckAtoms) {
  auto injector = std::make_shared<const fault::FaultInjector>(
      fault::TryParseFaultSpec("stuck=0.1,seed=7").value(),
      graph_.front().num_atoms());
  sim::OtaLinkConfig config = DefaultLink(2);
  config.budget.noise_floor_dbm = -120.0;  // clean probes
  config.faults = injector;
  const core::Deployment deployment(*model_, graph_, config);

  Rng rng(3);
  const core::FaultDiagnosis diagnosis =
      core::DiagnoseDeployment(deployment, rng);
  EXPECT_EQ(diagnosis.healthy_mask, injector->HealthyMask());
  EXPECT_EQ(diagnosis.num_stuck, injector->num_stuck());
  EXPECT_LT(diagnosis.wdd_ratio, 1.0);
  EXPECT_GT(diagnosis.wdd_ratio, 0.0);
  EXPECT_EQ(diagnosis.probe_transmissions, graph_.front().num_atoms() + 1);
  // Under the cancellation scheme the stuck atoms never flip, so they
  // cancel like the environment and the static offsets are noise-level.
  const auto steering = deployment.link().SteeringVector(0);
  double aperture = 0.0;
  for (const auto& s : steering) aperture += std::abs(s);
  ASSERT_EQ(diagnosis.offsets.size(), 1u);
  EXPECT_LT(std::abs(diagnosis.offsets[0]), 0.01 * aperture);
}

TEST_F(FaultRecoveryTest, DiagnosisMeasuresDriftedSteering) {
  auto injector = std::make_shared<const fault::FaultInjector>(
      fault::TryParseFaultSpec("drift=0.013,age=60,seed=11").value(),
      graph_.front().num_atoms());
  sim::OtaLinkConfig config = DefaultLink(4);
  config.budget.noise_floor_dbm = -120.0;
  config.faults = injector;
  const core::Deployment deployment(*model_, graph_, config);

  Rng rng(5);
  const core::FaultDiagnosis diagnosis =
      core::DiagnoseDeployment(deployment, rng);
  EXPECT_EQ(diagnosis.num_stuck, 0u);
  // The measured steering must track the drifted hardware, not the
  // idealized vector the mapper would otherwise solve against.
  const auto ideal = deployment.link().SteeringVector(0);
  const auto& drift = injector->drift_phasors();
  double err_vs_drifted = 0.0;
  double err_vs_ideal = 0.0;
  for (std::size_t m = 0; m < ideal.size(); ++m) {
    err_vs_drifted +=
        std::abs(diagnosis.measured_steering(0, m) - ideal[m] * drift[m]);
    err_vs_ideal += std::abs(diagnosis.measured_steering(0, m) - ideal[m]);
  }
  EXPECT_LT(err_vs_drifted, 0.1 * err_vs_ideal);
}

TEST_F(FaultRecoveryTest, ResolveRecoversMostOfTheLostAccuracy) {
  // ISSUE acceptance: at <= 10% stuck atoms the fault-aware re-solve
  // recovers at least half of the accuracy lost to the faults.
  sim::OtaLinkConfig healthy_config = DefaultLink(6);
  const core::Deployment healthy(*model_, graph_, healthy_config);
  Rng ref_rng(7);
  const double reference =
      healthy.EvaluateAccuracyAtOffset(dataset_->test, 0.0, ref_rng, 80);

  auto injector = std::make_shared<const fault::FaultInjector>(
      fault::TryParseFaultSpec("stuck=0.1,drift=0.04,age=60,seed=13").value(),
      graph_.front().num_atoms());
  sim::OtaLinkConfig faulty_config = healthy_config;
  faulty_config.faults = injector;
  const core::Deployment degraded(*model_, graph_, faulty_config);
  Rng deg_rng(7);
  const double degraded_acc =
      degraded.EvaluateAccuracyAtOffset(dataset_->test, 0.0, deg_rng, 80);

  Rng diag_rng(9);
  const core::FaultDiagnosis diagnosis = core::DiagnoseDeployment(
      degraded, diag_rng, {.probe_symbols = 128});
  const core::Deployment recovered = core::RecoverFromFaults(
      *model_, graph_, faulty_config, {}, diagnosis);
  Rng rec_rng(7);
  const double recovered_acc =
      recovered.EvaluateAccuracyAtOffset(dataset_->test, 0.0, rec_rng, 80);

  EXPECT_LT(degraded_acc, reference);
  EXPECT_GE(recovered_acc, degraded_acc + 0.5 * (reference - degraded_acc));
}

TEST_F(FaultRecoveryTest, WatchdogTripsDiagnosesAndRecovers) {
  sim::OtaLinkConfig healthy_config = DefaultLink(8);
  const core::Deployment healthy(*model_, graph_, healthy_config);
  Rng ref_rng(15);
  const double reference =
      healthy.EvaluateAccuracyAtOffset(dataset_->test, 0.0, ref_rng, 64);

  auto injector = std::make_shared<const fault::FaultInjector>(
      fault::TryParseFaultSpec("stuck=0.1,drift=0.04,age=60,seed=17").value(),
      graph_.front().num_atoms());
  sim::OtaLinkConfig faulty_config = healthy_config;
  faulty_config.faults = injector;
  const core::Deployment degraded(*model_, graph_, faulty_config);

  // The drift alert carries the degraded accuracy as its observed value,
  // the way the health layer's accuracy proxy would report it.
  Rng deg_rng(19);
  obs::health::Alert drift;
  drift.kind = obs::health::AlertKind::kDriftDetected;
  drift.rule = "accuracy_drift";
  drift.value =
      degraded.EvaluateAccuracyAtOffset(dataset_->test, 0.0, deg_rng, 64);

  // One 64-sample check is a noisy estimate, and single realizations
  // recover poorly now and then, so the bar is on the median over fixed
  // watchdog seeds: it must win back at least half of the lost accuracy,
  // the bar ResolveRecoversMostOfTheLostAccuracy sets.
  core::FaultWatchdogConfig watchdog_config;
  watchdog_config.diagnosis.probe_symbols = 128;
  std::vector<double> recovered;
  for (std::uint64_t seed = 19; seed < 27; ++seed) {
    Rng rng(seed);
    const core::FaultWatchdogResult result = core::RunFaultWatchdogOnAlert(
        *model_, graph_, faulty_config, {}, degraded, dataset_->test,
        reference, drift, rng, watchdog_config);
    EXPECT_EQ(result.report.num_stuck_detected, injector->num_stuck());
    EXPECT_EQ(result.report.observed_accuracy, drift.value);
    recovered.push_back(result.report.recovered_accuracy);
  }
  std::sort(recovered.begin(), recovered.end());
  const double median = 0.5 * (recovered[3] + recovered[4]);
  EXPECT_GE(median, drift.value + 0.5 * (reference - drift.value));

  // Only a drift-class or critical alert may trip the watchdog.
  obs::health::Alert threshold;
  threshold.kind = obs::health::AlertKind::kThreshold;
  threshold.severity = obs::health::AlertSeverity::kWarning;
  Rng bad_rng(21);
  EXPECT_THROW(core::RunFaultWatchdogOnAlert(
                   *model_, graph_, faulty_config, {}, degraded,
                   dataset_->test, reference, threshold, bad_rng),
               CheckError);
}

TEST_F(FaultRecoveryTest, FaultPipelineIsSeedStable) {
  // The whole diagnose -> re-solve pipeline is a pure function of its
  // seeds: two identical runs agree bitwise.
  auto injector = std::make_shared<const fault::FaultInjector>(
      fault::TryParseFaultSpec("stuck=0.05,chain=1e-4,seed=23").value(),
      graph_.front().num_atoms());
  sim::OtaLinkConfig config = DefaultLink(10);
  config.faults = injector;
  const core::Deployment deployment(*model_, graph_, config);

  auto run = [&] {
    Rng rng(25);
    const core::FaultDiagnosis diagnosis =
        core::DiagnoseDeployment(deployment, rng);
    const core::Deployment recovered =
        core::RecoverFromFaults(*model_, graph_, config, {}, diagnosis);
    Rng eval_rng(27);
    return std::pair{diagnosis.healthy_mask,
                     recovered.EvaluateAccuracyAtOffset(dataset_->test, 0.0,
                                                        eval_rng, 40)};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace metaai
