// Figure 3 validation: the analytic cost model vs measured costs, phase by
// phase, for Zaatar. The paper reports empirical CPU costs 5-15% above the
// model's predictions; this bench prints the measured/model ratio per phase
// so drift is visible. (Our constants differ from the paper's GPU-era
// hardware; what should reproduce is ratios near 1, not a specific gap.)

#include <cstdio>

#include "bench/bench_util.h"

namespace zaatar {
namespace {

void PrintPhase(const char* name, double measured, double modeled) {
  printf("  %-34s %12s %12s %8.2f\n", name,
         bench::HumanSeconds(measured).c_str(),
         bench::HumanSeconds(modeled).c_str(),
         modeled > 0 ? measured / modeled : 0.0);
}

template <typename F>
void Validate(const App<F>& app, const PcpParams& params,
              const MicroCosts& micro) {
  auto program = CompileZlang<F>(app.source);
  MeasureOptions opt;
  opt.measure_native = false;
  opt.prover_threads = 1;
  auto m = MeasureBatch<F, ZaatarHarnessBackend<F>>(app, program, 2, params,
                                                    /*seed=*/5, opt);
  CostModel model(micro, params);
  printf("\n%s  (|C_zaatar|=%zu, |u|=%zu)\n", app.name.c_str(),
         m.stats.c_zaatar, m.stats.ZaatarProofLen());
  printf("  %-34s %12s %12s %8s\n", "phase", "measured", "model",
         "meas/mod");
  PrintPhase("P: construct proof vector",
             m.prover.construct_proof_s + m.prover.solve_constraints_s,
             model.ZaatarConstructProof(m.stats));
  PrintPhase("P: issue responses (crypto+answer)",
             m.prover.crypto_s + m.prover.answer_queries_s,
             model.ZaatarIssueResponses(m.stats));
  PrintPhase("V: computation-specific queries", m.query_generation_s,
             model.ZaatarQuerySetupSpecific(m.stats));
  PrintPhase("V: oblivious queries + Enc(r)", m.commit_setup_s,
             model.ZaatarQuerySetupOblivious(m.stats));
  PrintPhase("V: process responses", m.verifier_per_instance_s,
             model.ZaatarVerifierPerInstance(m.stats));
}

}  // namespace
}  // namespace zaatar

int main() {
  using namespace zaatar;
  PcpParams params;
  printf("Figure 3 cost-model validation (Zaatar column)\n");
  printf("Calibrating microbenchmark parameters...\n");
  MicroCosts m128 = bench::MeasureMicroCosts<F128>();
  MicroCosts m220 = bench::MeasureMicroCosts<F220>();
  printf("F128 primitives: e=%s d=%s h=%s f=%s fdiv=%s c=%s\n",
         bench::HumanSeconds(m128.e).c_str(),
         bench::HumanSeconds(m128.d).c_str(),
         bench::HumanSeconds(m128.h).c_str(),
         bench::HumanSeconds(m128.f).c_str(),
         bench::HumanSeconds(m128.f_div).c_str(),
         bench::HumanSeconds(m128.c).c_str());
  printf("F220 primitives: e=%s d=%s h=%s f=%s fdiv=%s c=%s\n",
         bench::HumanSeconds(m220.e).c_str(),
         bench::HumanSeconds(m220.d).c_str(),
         bench::HumanSeconds(m220.h).c_str(),
         bench::HumanSeconds(m220.f).c_str(),
         bench::HumanSeconds(m220.f_div).c_str(),
         bench::HumanSeconds(m220.c).c_str());

  Validate(MakeLcsApp(16), params, m128);
  Validate(MakeFannkuchApp(2, 5, 12), params, m128);
  Validate(MakeRootFindApp(4, 8), params, m220);
  return 0;
}
