// Figure 4: per-instance running time of the prover under Zaatar and Ginger
// for the five benchmark computations (log scale in the paper; here a table
// with the Zaatar/Ginger ratio).
//
// Method mirrors §5.1/§5.2: Zaatar columns are *measured* end-to-end runs of
// this implementation; Ginger columns are *estimated from the cost model*
// parameterized by measured microbenchmarks ("we use estimates, rather than
// empirics, because the computations would be too expensive under Ginger").
// A validation block at the end runs real Ginger at a tiny size and compares
// it against the same model.
//
// Expected shape: Ginger/Zaatar ratios of one to many orders of magnitude,
// smallest for root finding (its Ginger encoding is relatively efficient,
// Figure 9), growing with input size because Ginger is quadratic.

#include <cstdio>

#include "bench/bench_util.h"

namespace zaatar {
namespace {

using bench::HumanSeconds;

template <typename F>
void Row(const App<F>& app, const PcpParams& params, const MicroCosts& micro,
         size_t beta) {
  auto program = CompileZlang<F>(app.source);
  MeasureOptions opt;
  opt.prover_threads = 1;
  auto m = MeasureBatch<F, ZaatarHarnessBackend<F>>(app, program, beta, params,
                                                    /*seed=*/42, opt);
  CostModel model(micro, params);
  double zaatar_measured = m.prover.Total();
  double ginger_model = model.GingerProverPerInstance(m.stats);
  double zaatar_model = model.ZaatarProverPerInstance(m.stats);
  printf("%-38s %12s %12s %12s %9.1fx %s\n", app.name.c_str(),
         HumanSeconds(zaatar_measured).c_str(),
         HumanSeconds(zaatar_model).c_str(),
         HumanSeconds(ginger_model).c_str(), ginger_model / zaatar_measured,
         m.all_accepted ? "" : "  ** VERIFIER REJECTED **");
}

}  // namespace
}  // namespace zaatar

int main() {
  using namespace zaatar;
  PcpParams params;  // full soundness: rho_lin=20, rho=8
  printf("Figure 4: per-instance prover running time, Zaatar vs Ginger\n");
  printf("(Zaatar measured; Ginger from the Figure 3 model with measured "
         "microbenchmark parameters)\n\n");
  printf("Calibrating microbenchmarks...\n");
  MicroCosts m128 = bench::MeasureMicroCosts<F128>();
  MicroCosts m220 = bench::MeasureMicroCosts<F220>();
  printf("  F128: e=%s d=%s h=%s f=%s fdiv=%s c=%s\n",
         bench::HumanSeconds(m128.e).c_str(),
         bench::HumanSeconds(m128.d).c_str(),
         bench::HumanSeconds(m128.h).c_str(),
         bench::HumanSeconds(m128.f).c_str(),
         bench::HumanSeconds(m128.f_div).c_str(),
         bench::HumanSeconds(m128.c).c_str());
  printf("\n%-38s %12s %12s %12s %10s\n", "computation", "Zaatar(meas)",
         "Zaatar(model)", "Ginger(model)", "G/Z");
  bench::PrintRule();
  const size_t kBeta = 2;
  Row(MakePamApp(8, 16), params, m128, kBeta);
  Row(MakeRootFindApp(6, 8), params, m220, kBeta);
  Row(MakeApspApp(4), params, m128, kBeta);
  Row(MakeFannkuchApp(3, 5, 12), params, m128, kBeta);
  Row(MakeLcsApp(16), params, m128, kBeta);

  // Validation: real Ginger at a tiny size against its model.
  printf("\nValidation: measured Ginger at tiny scale vs its cost model\n");
  {
    PcpParams light = PcpParams::Light();
    auto app = MakeLcsApp(3);
    auto program = CompileZlang<F128>(app.source);
    MeasureOptions opt;
    opt.prover_threads = 1;
    auto g = MeasureBatch<F128, GingerHarnessBackend<F128>>(app, program, 1,
                                                            light, 43, opt);
    CostModel model(m128, light);
    double predicted = model.GingerIssueResponses(g.stats);
    double measured = g.prover.crypto_s + g.prover.answer_queries_s;
    printf("  lcs(m=3): Ginger prover crypto+answer measured %s, model %s "
           "(ratio %.2f), accepted=%d\n",
           HumanSeconds(measured).c_str(), HumanSeconds(predicted).c_str(),
           measured / predicted, g.all_accepted);
    printf("  (the model assumes a dense proof vector; z ⊗ z here is mostly "
           "zeros — bit-decomposition\n   witnesses — and the homomorphic "
           "fold skips zero exponents, so measured < model)\n");
  }

  // Paper-scale extrapolation via the models (both systems), using the
  // measured constraint-count scaling of each benchmark.
  printf("\nPaper-scale estimates (both systems from models; Figure 4's "
         "regime):\n");
  {
    CostModel model128(m128, params);
    // LCS at the paper's m=300: |Z|=|C|=43 m^2 etc. (Figure 9 row).
    ComputationStats s;
    s.z_ginger = 43ull * 300 * 300;
    s.c_ginger = s.z_ginger;
    s.k = 6 * s.c_ginger;
    s.k2 = s.c_ginger;
    s.z_zaatar = s.z_ginger + s.k2;
    s.c_zaatar = s.c_ginger + s.k2;
    s.num_inputs = 600;
    s.num_outputs = 1;
    printf("  lcs(m=300):  Zaatar %s   Ginger %s   ratio %.1e\n",
           HumanSeconds(model128.ZaatarProverPerInstance(s)).c_str(),
           HumanSeconds(model128.GingerProverPerInstance(s)).c_str(),
           model128.GingerProverPerInstance(s) /
               model128.ZaatarProverPerInstance(s));
  }
  return 0;
}
