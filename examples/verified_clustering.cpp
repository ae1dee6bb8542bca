// Verified outsourced clustering: the scenario from the paper's intro —
// a client ships batches of datasets to an untrusted cloud for PAM
// clustering and verifies every returned medoid assignment, amortizing the
// query setup across the batch. Prints the cost ledger (Figure 5/7 style).

#include <cstdio>

#include "src/apps/harness.h"

using namespace zaatar;

int main() {
  const size_t kPoints = 6, kDims = 12, kBatch = 3;
  auto app = MakePamApp(kPoints, kDims);
  printf("scenario: cluster %zu points x %zu dims into 2 groups, batch of "
         "%zu datasets\n",
         kPoints, kDims, kBatch);

  auto program = CompileZlang<F128>(app.source);
  printf("compiled: %zu constraints (quadratic form), proof length %zu\n\n",
         program.CZaatar(), program.UZaatar());

  MeasureOptions opt;
  opt.prover_threads = 1;
  auto m = MeasureBatch<F128, ZaatarHarnessBackend<F128>>(
      app, program, kBatch, PcpParams{}, /*seed=*/77, opt);
  if (!m.all_accepted) {
    printf("** a proof was rejected — this should never happen honestly\n");
    return 1;
  }

  printf("all %zu datasets verified. Cost ledger:\n", kBatch);
  printf("  verifier setup (amortized): query generation %.3f s, "
         "Enc(r)+t %.3f s\n",
         m.query_generation_s, m.commit_setup_s);
  printf("  verifier per instance:      %.4f s\n", m.verifier_per_instance_s);
  printf("  prover per instance:        solve %.3f s | construct u %.3f s | "
         "crypto %.3f s | answer %.3f s\n",
         m.prover.solve_constraints_s, m.prover.construct_proof_s,
         m.prover.crypto_s, m.prover.answer_queries_s);
  printf("  local execution:            %.2e s\n", m.stats.t_local_s);

  double setup = m.query_generation_s + m.commit_setup_s;
  double breakeven = CostModel::BreakevenBatch(
      setup, m.verifier_per_instance_s, m.stats.t_local_s);
  if (breakeven > 0) {
    printf("  break-even batch size:      %.0f datasets\n", breakeven);
  } else {
    printf("  break-even batch size:      none at this toy size (verifying "
           "an instance costs\n                              more than "
           "computing it; outsourcing pays for bigger jobs)\n");
  }

  // Network accounting (the other side of the ledger): the frames the
  // batch sent.
  printf("  network: setup frame %zu KiB + proof frame %zu KiB per instance\n",
         m.setup_message_bytes / 1024, m.proof_message_bytes / kBatch / 1024);
  return 0;
}
