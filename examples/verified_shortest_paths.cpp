// Verified all-pairs shortest paths with rational edge weights — the
// benchmark exercising Zaatar's primitive floating-point support (fixed-point
// rounding gadgets, cross-multiplying comparisons). Shows the decoded
// distances next to verification, and the size of each protocol frame.

#include <cstdio>

#include "src/apps/harness.h"

using namespace zaatar;

int main() {
  const size_t kNodes = 4;
  auto app = MakeApspApp(kNodes);
  auto program = CompileZlang<F128>(app.source);
  printf("floyd-warshall on %zu nodes, rational weights; %zu constraints\n",
         kNodes, program.CZaatar());

  Prg prg(31337);
  Qap<F128> qap(program.zaatar.r1cs);
  protocol::VerifierSession<F128, ZaatarAdapter<F128>> verifier(
      ZaatarPcp<F128>::GenerateQueries(qap, PcpParams{}, prg), prg);
  protocol::ProverSession<F128> prover;
  {
    // The setup frame carries every query row in plaintext, so it is by far
    // the largest message; the prover keeps only what it decodes.
    auto setup_frame = verifier.EmitSetup();
    printf("setup frame: %.1f MB\n", setup_frame->size() / 1e6);
    if (Status st = prover.IngestSetup(*setup_frame); !st.ok()) {
      printf("prover setup: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  auto instance = app.make_instance(prg);
  auto ginger_w = program.SolveGinger(instance.inputs);
  auto outputs = program.ExtractOutputs(ginger_w);

  // The output is sum of distances from node 0, as a fixed-point rational.
  double sum = static_cast<double>(DecodeSignedInt<F128>(outputs[0])) /
               static_cast<double>(DecodeSignedInt<F128>(outputs[1]));
  printf("prover claims: sum of shortest-path distances from node 0 = %.5f\n",
         sum);

  auto zaatar_w = program.SolveZaatar(ginger_w);
  auto proof = BuildZaatarProof(qap, zaatar_w);
  if (Status st = prover.Commit({&proof.z, &proof.h}); !st.ok()) {
    printf("prover: %s\n", st.ToString().c_str());
    return 1;
  }
  auto proof_frame = prover.Decommit();
  if (!proof_frame.ok()) {
    printf("prover: %s\n", proof_frame.status().ToString().c_str());
    return 1;
  }
  printf("proof frame: %zu bytes\n", proof_frame->size());
  auto result = verifier.HandleProof(
      *proof_frame, program.BoundValues(instance.inputs, outputs));
  bool ok = result.ok() && result->accepted();
  printf("verifier: %s\n", ok ? "ACCEPTED" : "REJECTED");
  if (!ok) {
    return 1;
  }

  // Confirm against the native reference the verifier never had to run.
  if (outputs == instance.expected_outputs) {
    printf("(native re-execution agrees — but the verifier didn't need "
           "it)\n");
  }
  return 0;
}
