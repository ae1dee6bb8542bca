// Figure 8: prover running time as the input size doubles twice per
// benchmark. Zaatar's prover scales (near-)linearly in the constraint count;
// Ginger's scales quadratically — the growth factors per size step are the
// reproduced shape.

#include <cstdio>
#include <functional>
#include <vector>

#include "bench/bench_util.h"

namespace zaatar {
namespace {

template <typename F>
void Series(const std::string& label,
            const std::vector<App<F>>& apps, const PcpParams& params,
            const MicroCosts& micro) {
  printf("\n%s\n", label.c_str());
  printf("  %-34s %10s %12s %14s %9s %9s\n", "size", "|C_zaatar|",
         "Zaatar(meas)", "Ginger(model)", "Z growth", "G growth");
  CostModel model(micro, params);
  double prev_z = 0, prev_g = 0;
  for (const auto& app : apps) {
    auto program = CompileZlang<F>(app.source);
    MeasureOptions opt;
    opt.measure_native = false;
    opt.prover_threads = 1;
    auto m = MeasureBatch<F, ZaatarHarnessBackend<F>>(app, program, 1, params,
                                                      /*seed=*/31, opt);
    double z = m.prover.Total();
    double g = model.GingerProverPerInstance(m.stats);
    char zg[16] = "-", gg[16] = "-";
    if (prev_z > 0) {
      snprintf(zg, sizeof(zg), "%.1fx", z / prev_z);
      snprintf(gg, sizeof(gg), "%.1fx", g / prev_g);
    }
    printf("  %-34s %10zu %12s %14s %9s %9s %s\n", app.name.c_str(),
           m.stats.c_zaatar, bench::HumanSeconds(z).c_str(),
           bench::HumanSeconds(g).c_str(), zg, gg,
           m.all_accepted ? "" : "** REJECTED **");
    prev_z = z;
    prev_g = g;
  }
}

}  // namespace
}  // namespace zaatar

int main() {
  using namespace zaatar;
  PcpParams params;
  printf("Figure 8: prover runtime scaling with input size\n");
  printf("(each series doubles the size knob twice; Zaatar measured, Ginger "
         "modeled)\n");
  MicroCosts m128 = bench::MeasureMicroCosts<F128>();
  MicroCosts m220 = bench::MeasureMicroCosts<F220>();

  Series<F128>("PAM clustering (d=16)",
               {MakePamApp(2, 16), MakePamApp(4, 16), MakePamApp(8, 16)},
               params, m128);
  Series<F220>("root finding by bisection (L=8)",
               {MakeRootFindApp(2, 8), MakeRootFindApp(4, 8),
                MakeRootFindApp(8, 8)},
               params, m220);
  Series<F128>("all-pairs shortest path",
               {MakeApspApp(2), MakeApspApp(3), MakeApspApp(4)}, params,
               m128);
  Series<F128>("Fannkuch (n=5)",
               {MakeFannkuchApp(1, 5, 12), MakeFannkuchApp(2, 5, 12),
                MakeFannkuchApp(4, 5, 12)},
               params, m128);
  Series<F128>("longest common subsequence",
               {MakeLcsApp(8), MakeLcsApp(16), MakeLcsApp(32)}, params,
               m128);

  printf("\nExpected shape: Zaatar growth tracks the |C_zaatar| ratio "
         "(linear, ~2-8x per step\ndepending on the benchmark's complexity "
         "exponent); Ginger growth is that ratio squared.\n");
  return 0;
}
