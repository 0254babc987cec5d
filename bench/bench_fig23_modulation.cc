// Fig 23: impact of the modulation scheme.
//
// The input encoding carries one pixel per symbol at the scheme's bit
// depth (BPSK = binarized pixels ... 256-QAM = 8-bit pixels). The network
// is retrained per scheme; accuracy varies only slightly with modulation
// order because even coarse pixel depth retains most class information.
#include "bench_util.h"

#include "common/table.h"

namespace metaai::bench {
namespace {

void Run() {
  const data::Dataset ds = data::MakeMnistLike();
  const mts::LayerGraph graph(mts::Metasurface{mts::MetasurfaceSpec{}});

  Table table("Fig 23: Accuracy (%) per modulation scheme",
              {"Modulation", "Bits/symbol", "Simulation", "Over the air"});
  for (const rf::Modulation scheme : rf::AllModulations()) {
    Rng rng(23);
    const auto model =
        core::TrainModel(ds.train, RobustTrainingOptions(scheme), rng);
    const double sim_acc = core::EvaluateDigital(model, ds.test);
    Rng eval_rng(231);
    const double ota = PrototypeAccuracy(model, graph, DefaultLinkConfig(),
                                         ds.test, eval_rng, 120);
    table.AddRow({rf::ModulationName(scheme),
                  std::to_string(rf::BitsPerSymbol(scheme)),
                  FormatPercent(sim_acc), FormatPercent(ota)});
    std::fprintf(stderr, "[fig23] %s done\n",
                 rf::ModulationName(scheme).c_str());
  }
  table.Print(std::cout);
  std::cout << "(Shape check: accuracy varies only slightly across BPSK"
               " ... 256-QAM; paper: >= 88.7%.)\n";
}

}  // namespace
}  // namespace metaai::bench

int main() {
  metaai::bench::BenchReport report("fig23_modulation");
  metaai::bench::Run();
  return 0;
}
