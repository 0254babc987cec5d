// Table 1: overall recognition accuracy on the six datasets.
//
// Columns reproduce the paper's: a deep digital baseline (our compact CNN
// standing in for ResNet-18), DiscreteNN (weights constrained to the 2-bit
// phase domain from the start) in simulation and over the air, and MetaAI
// (continuous training, then quantized over-the-air deployment) in
// simulation and over the air. Expected shape: CNN >> MetaAI-sim >
// MetaAI-proto (gap <= ~7 points) >> DiscreteNN.
#include "bench_util.h"

#include "common/stats.h"
#include "common/table.h"
#include "data/encoding.h"
#include "nn/conv_net.h"
#include "nn/discrete_nn.h"

namespace metaai::bench {
namespace {

struct Row {
  std::string dataset;
  std::size_t train_n;
  std::size_t test_n;
  std::size_t classes;
  double cnn;
  double discrete_sim;
  double discrete_proto;
  double metaai_sim;
  double metaai_proto;
};

Row RunDataset(const std::string& name) {
  const data::Dataset ds = data::MakeByName(name);
  Row row{ds.name, ds.train.size(), ds.test.size(), ds.num_classes,
          0,       0,               0,              0,
          0};

  // Deep digital baseline (ResNet-18 stand-in).
  {
    Rng rng(101);
    nn::ConvNet cnn({.height = ds.height,
                     .width = ds.width,
                     .conv1_channels = 8,
                     .conv2_channels = 16,
                     .hidden = 64,
                     .num_classes = ds.num_classes});
    cnn.Initialize(rng);
    cnn.Train(ds.train, {}, rng);
    row.cnn = cnn.Evaluate(ds.test);
  }

  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});

  // DiscreteNN baseline: discrete-constrained training.
  {
    Rng rng(102);
    const auto train = data::EncodeDataset(ds.train, rf::Modulation::kQam256);
    const auto test = data::EncodeDataset(ds.test, rf::Modulation::kQam256);
    nn::DiscreteNnModel discrete(ds.train.dim, ds.num_classes);
    discrete.Initialize(rng);
    discrete.Train(train, {}, rng);
    row.discrete_sim = discrete.Evaluate(test);

    // Its prototype run: deploy the quantized weights over the air (the
    // discrete phases are exactly realizable; channel + sync still bite).
    core::TrainedModel model{
        nn::ComplexLinearModel(ds.train.dim, ds.num_classes),
        rf::Modulation::kQam256};
    model.network.mutable_weights() = discrete.QuantizedWeights();
    Rng ota_rng(103);
    row.discrete_proto = PrototypeAccuracy(model, graph,
                                           DefaultLinkConfig(7), ds.test,
                                           ota_rng);
  }

  // MetaAI: continuous training; simulation column uses the plain digital
  // model, prototype column the robust-trained model over the air.
  {
    // Simulation column: median of five training seeds. The smallest
    // dataset (CelebA-like, 220 train / 80 test samples) occasionally
    // lands in a bad minimum under the paper's fixed hyperparameters;
    // the median reports the typical run.
    // Each seed repeat self-seeds its generators, so the fan-out needs no
    // RNG threading — just ordered collection.
    const std::vector<std::uint64_t> sim_seeds = {104, 204, 304, 404, 504};
    const std::vector<double> sims =
        obs::DeterministicParallelMap(sim_seeds, [&](std::uint64_t seed) {
          Rng rng(seed);
          const auto plain = core::TrainModel(ds.train, {}, rng);
          return core::EvaluateDigital(plain, ds.test);
        });
    row.metaai_sim = Percentile(sims, 50.0);

    // Prototype column: mean over three robust-training / channel-noise
    // seed pairs (the 80-sample CelebA test split is otherwise jittery).
    const std::vector<std::uint64_t> proto_seeds = {105, 205, 305};
    const std::vector<double> protos =
        obs::DeterministicParallelMap(proto_seeds, [&](std::uint64_t seed) {
          Rng robust_rng(seed);
          const auto robust =
              core::TrainModel(ds.train, RobustTrainingOptions(), robust_rng);
          Rng ota_rng(seed + 1);
          return PrototypeAccuracy(robust, graph, DefaultLinkConfig(8),
                                   ds.test, ota_rng);
        });
    double proto_total = 0.0;
    for (const double p : protos) proto_total += p;
    row.metaai_proto = proto_total / 3.0;
  }
  return row;
}

void Run() {
  Table table("Table 1: Performance under different datasets (accuracy %)",
              {"Dataset", "Train#", "Test#", "Class#", "DeepCNN",
               "DiscreteNN sim", "DiscreteNN proto", "MetaAI sim",
               "MetaAI proto"});
  for (const auto& name : data::AllDatasetNames()) {
    const Row row = RunDataset(name);
    table.AddRow({row.dataset, std::to_string(row.train_n),
                  std::to_string(row.test_n), std::to_string(row.classes),
                  FormatPercent(row.cnn), FormatPercent(row.discrete_sim),
                  FormatPercent(row.discrete_proto),
                  FormatPercent(row.metaai_sim),
                  FormatPercent(row.metaai_proto)});
    std::fprintf(stderr, "[table1] %s done\n", row.dataset.c_str());
  }
  table.Print(std::cout);
}

}  // namespace
}  // namespace metaai::bench

int main() {
  metaai::bench::BenchReport report("table1_overall");
  metaai::bench::Run();
  return 0;
}
