// Fig 28: case study — real-time face recognition with IoT cameras.
//
// Ten identities are enrolled from ~60 camera frames each (five monitored
// backgrounds) plus 30 CelebA-like supplementary images; at test time each
// "volunteer" stands in a monitored area 20 times and the stream is
// classified over the air. We report per-user and average accuracy
// (paper: 78.54% average).
#include "bench_util.h"

#include "common/table.h"
#include "nn/metrics.h"

namespace metaai::bench {
namespace {

void Run() {
  const data::Dataset ds = data::MakeFaceStreamLike();
  std::cout << "Enrolled " << ds.num_classes << " identities from "
            << ds.train.size() << " training frames; "
            << ds.test.size() << " live captures.\n";

  Rng rng(28);
  const auto model = core::TrainModel(ds.train, RobustTrainingOptions(), rng);
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});
  const core::Deployment deployment(model, graph, DefaultLinkConfig());
  const sim::SyncModel sync = DeploymentSyncModel();

  // Classify every live capture and tally per-user accuracy.
  Rng eval_rng(281);
  std::vector<int> predictions;
  predictions.reserve(ds.test.size());
  for (std::size_t i = 0; i < ds.test.size(); ++i) {
    const double offset = sync.SampleOffsetUs(eval_rng);
    predictions.push_back(
        deployment.Classify(ds.test.features[i], offset, eval_rng));
  }
  const auto confusion =
      nn::ConfusionMatrix(predictions, ds.test.labels, ds.num_classes);
  const auto recall = nn::PerClassRecall(confusion);

  Table table("Fig 28: Real-time face recognition (per-user accuracy %)",
              {"User", "Accuracy"});
  for (std::size_t u = 0; u < recall.size(); ++u) {
    table.AddRow({"U" + std::to_string(u + 1), FormatPercent(recall[u])});
  }
  table.Print(std::cout);
  std::cout << "Average accuracy: "
            << FormatPercent(nn::Accuracy(predictions, ds.test.labels))
            << "% (paper: 78.54%)\n";
}

}  // namespace
}  // namespace metaai::bench

int main() {
  metaai::bench::BenchReport report("fig28_face_case_study");
  metaai::bench::Run();
  return 0;
}
