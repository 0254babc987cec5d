#include "data/multisensor.h"

#include <gtest/gtest.h>

#include <set>

#include "common/check.h"

namespace metaai::data {
namespace {

using Factory = MultiSensorDataset (*)(const MultiSensorOptions&);

struct FactoryCase {
  const char* label;
  Factory make;
  std::size_t expected_sensors;
  std::size_t expected_classes;
};

// Without this gtest prints the raw bytes of the case, which include the
// ASLR-dependent label and factory pointers, so the discovered ctest names
// would change with every build.
void PrintTo(const FactoryCase& param, std::ostream* os) {
  *os << '"' << param.label << '"';
}

class MultiSensorFactory : public ::testing::TestWithParam<FactoryCase> {};

TEST_P(MultiSensorFactory, ProducesValidatedDataset) {
  const auto& param = GetParam();
  const auto ds =
      param.make({.train_per_class = 4, .test_per_class = 2});
  ds.Validate();
  EXPECT_EQ(ds.num_sensors(), param.expected_sensors);
  EXPECT_EQ(ds.num_classes, param.expected_classes);
  EXPECT_EQ(ds.sensor_names.size(), param.expected_sensors);
}

TEST_P(MultiSensorFactory, SensorsShareLabelsPerEvent) {
  const auto& param = GetParam();
  const auto ds = param.make({.train_per_class = 3, .test_per_class = 1});
  for (std::size_t s = 1; s < ds.num_sensors(); ++s) {
    EXPECT_EQ(ds.train_sensors[s].labels, ds.train_sensors[0].labels);
    EXPECT_EQ(ds.test_sensors[s].labels, ds.test_sensors[0].labels);
  }
}

TEST_P(MultiSensorFactory, SensorsObserveDifferently) {
  // The same event must look different through different sensors,
  // otherwise fusion would add nothing.
  const auto& param = GetParam();
  const auto ds = param.make({.train_per_class = 2, .test_per_class = 1});
  for (std::size_t s = 1; s < ds.num_sensors(); ++s) {
    EXPECT_NE(ds.train_sensors[s].features[0],
              ds.train_sensors[0].features[0]);
  }
}

TEST_P(MultiSensorFactory, DeterministicPerSeed) {
  const auto& param = GetParam();
  const auto a = param.make({.train_per_class = 2, .test_per_class = 1});
  const auto b = param.make({.train_per_class = 2, .test_per_class = 1});
  for (std::size_t s = 0; s < a.num_sensors(); ++s) {
    EXPECT_EQ(a.train_sensors[s].features, b.train_sensors[s].features);
  }
}

TEST_P(MultiSensorFactory, CoversAllClasses) {
  const auto& param = GetParam();
  const auto ds = param.make({.train_per_class = 2, .test_per_class = 1});
  const std::set<int> classes(ds.train_sensors[0].labels.begin(),
                              ds.train_sensors[0].labels.end());
  EXPECT_EQ(classes.size(), ds.num_classes);
}

TEST_P(MultiSensorFactory, FeaturesAreInUnitRange) {
  const auto& param = GetParam();
  const auto ds = param.make({.train_per_class = 2, .test_per_class = 1});
  for (const auto& sensor : ds.train_sensors) {
    for (const auto& f : sensor.features) {
      for (const double v : f) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFactories, MultiSensorFactory,
    ::testing::Values(
        FactoryCase{"MultiPie", &MakeMultiPieLike, 3, 10},
        FactoryCase{"RfSauron", &MakeRfSauronLike, 3, 10},
        FactoryCase{"UscHad", &MakeUscHadLike, 2, 6}),
    [](const auto& info) { return std::string(info.param.label); });

TEST(MultiSensorTest, DefaultSizesMatchPaperScale) {
  // Multi-PIE: 192 train / 48 test for 10 classes (~20/5 per class).
  const auto pie = MakeMultiPieLike();
  EXPECT_EQ(pie.train_sensors[0].size(), 200u);
  EXPECT_EQ(pie.test_sensors[0].size(), 50u);
  // USC-HAD: 336 train / 85 test for 6 classes (~56/14 per class).
  const auto had = MakeUscHadLike();
  EXPECT_EQ(had.train_sensors[0].size(), 336u);
  EXPECT_EQ(had.test_sensors[0].size(), 84u);
}

TEST(MultiSensorTest, ValidateCatchesLabelMismatch) {
  auto ds = MakeUscHadLike({.train_per_class = 2, .test_per_class = 1});
  ds.train_sensors[1].labels[0] ^= 1;
  EXPECT_THROW(ds.Validate(), CheckError);
}

}  // namespace
}  // namespace metaai::data
