// Quickstart: outsource a tiny computation and verify the result.
//
//   1. Write the computation in zlang.
//   2. Compile it to constraints (both encodings come back).
//   3. Verifier: generate PCP queries + commitment setup for a batch, and
//      frame it for the prover.
//   4. Prover: rebuild the setup from those bytes; per instance, solve the
//      constraints, build the (z, h) proof, commit, answer.
//   5. Verifier: check commitment consistency + the PCP decision, and send
//      the verdict back.
//
// Only serialized protocol messages pass between the two sessions.

#include <cstdio>

#include "src/apps/harness.h"
#include "src/compiler/compile.h"

using namespace zaatar;

int main() {
  using F = F128;

  // Step 1: the computation. The verifier wants y = max_i (x_i^2 + 3 x_i).
  const char* kSource = R"(
program quickstart;
const n = 8;
input int32 x[n];
output int<70> y;
var int<70> best;
var int<70> cur;
best = x[0] * x[0] + 3 * x[0];
for i in 1..n-1 {
  cur = x[i] * x[i] + 3 * x[i];
  if (cur > best) { best = cur; }
}
y = best;
)";

  // Step 2: compile.
  CompiledProgram<F> program = CompileZlang<F>(kSource);
  printf("compiled '%s': %zu Ginger constraints, %zu quadratic-form "
         "constraints,\n  Zaatar proof length %zu vs Ginger proof length %zu\n",
         program.name.c_str(), program.CGinger(), program.CZaatar(),
         program.UZaatar(), program.UGinger());

  // Step 3: verifier-side batch setup (amortized over many instances).
  Prg prg(2013);
  Qap<F> qap(program.zaatar.r1cs);
  PcpParams params;  // rho_lin=20, rho=8: soundness error < 1e-6
  protocol::VerifierSession<F, ZaatarAdapter<F>> verifier(
      ZaatarPcp<F>::GenerateQueries(qap, params, prg), prg);
  auto setup_frame = verifier.EmitSetup();
  printf("verifier setup done (%zu queries, ElGamal over a 1024-bit "
         "group): setup frame %zu bytes\n",
         verifier.setup().queries.TotalQueryCount(), setup_frame->size());

  // The prover knows the batch only from the setup frame's bytes.
  protocol::ProverSession<F> prover;
  if (Status st = prover.IngestSetup(*setup_frame); !st.ok()) {
    printf("prover setup: %s\n", st.ToString().c_str());
    return 1;
  }

  // Steps 4-5: run a small batch of instances.
  for (int instance = 0; instance < 3; instance++) {
    std::vector<F> inputs;
    for (int i = 0; i < 8; i++) {
      inputs.push_back(EncodeSignedInt<F>((instance + 2) * i - 5));
    }
    // Prover executes the computation, obtaining the witness and outputs,
    // then commits and answers in one proof frame.
    auto ginger_w = program.SolveGinger(inputs);
    auto outputs = program.ExtractOutputs(ginger_w);
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

    // Verifier checks the claimed output and answers with a verdict frame.
    auto bound = program.BoundValues(inputs, outputs);
    auto result = verifier.HandleProof(*proof_frame, bound);
    auto verdict_frame = verifier.EmitVerdict();
    bool ok = result.ok() && result->accepted() && verdict_frame.ok() &&
              prover.IngestVerdict(*verdict_frame).ok();
    printf("instance %d: claimed y = %lld, proof frame %zu bytes -> %s\n",
           instance, static_cast<long long>(DecodeSignedInt<F>(outputs[0])),
           proof_frame->size(), ok ? "ACCEPTED" : "REJECTED");
    if (!ok) {
      return 1;
    }
  }
  printf("quickstart complete: all instances verified.\n");
  return 0;
}
