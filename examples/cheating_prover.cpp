// What the protocol is for: every way a prover can cheat, and the check that
// catches it. Each section mounts a concrete attack against a real instance
// — a proof frame the prover session built, decoded and edited, or built
// from a forged witness — and shows the verifier session rejecting it.

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/apps/harness.h"

using namespace zaatar;
using F = F128;
using protocol::ProofMessage;

// Session calls on honest inputs never fail; if one does, say why and stop.
void Check(const Status& st) {
  if (!st.ok()) {
    fprintf(stderr, "session error: %s\n", st.ToString().c_str());
    std::exit(1);
  }
}
template <typename T>
T Check(StatusOr<T> v) {
  Check(v.status());
  return std::move(v).value();
}

int main() {
  auto app = MakeLcsApp(8);
  auto program = CompileZlang<F>(app.source);
  Prg prg(666);
  Qap<F> qap(program.zaatar.r1cs);
  protocol::VerifierSession<F, ZaatarAdapter<F>> verifier(
      ZaatarPcp<F>::GenerateQueries(qap, PcpParams{}, prg), prg);
  const std::vector<uint8_t> setup_frame = Check(verifier.EmitSetup());

  auto instance = app.make_instance(prg);
  auto ginger_w = program.SolveGinger(instance.inputs);
  auto outputs = program.ExtractOutputs(ginger_w);
  auto zaatar_w = program.SolveZaatar(ginger_w);
  auto honest_proof = BuildZaatarProof(qap, zaatar_w);
  auto honest_bound = program.BoundValues(instance.inputs, outputs);

  // The cheater's view of the batch is the setup frame and nothing else.
  // Each attempt is the next instance of the batch: the prover commits and
  // answers, the frame is decoded for editing, and the verifier's verdict
  // moves both sessions on.
  protocol::ProverSession<F> prover;
  Check(prover.IngestSetup(setup_frame));
  auto prove = [&](const ZaatarProof<F>& p) {
    Check(prover.Commit({&p.z, &p.h}));
    return Check(ProofMessage<F>::Deserialize(Check(prover.Decommit())));
  };
  auto accepted = [&](const ProofMessage<F>& msg,
                      const std::vector<F>& bound) {
    bool ok = Check(verifier.HandleProof(msg.Serialize(), bound)).accepted();
    Check(prover.IngestVerdict(Check(verifier.EmitVerdict())));
    return ok;
  };

  int failures = 0;
  auto expect_reject = [&](const char* attack, bool was_accepted) {
    printf("  %-58s %s\n", attack,
           was_accepted ? "** ACCEPTED (BUG!) **" : "rejected, as it must be");
    if (was_accepted) {
      failures++;
    }
  };

  printf("baseline: honest prover...\n");
  {
    bool ok = accepted(prove(honest_proof), honest_bound);
    printf("  honest proof %s (setup frame %zu bytes, proof frame %zu "
           "bytes)\n\n",
           ok ? "accepted" : "** REJECTED (BUG!)", setup_frame.size(),
           verifier.proof_bytes_received());
    if (!ok) {
      return 1;
    }
  }

  printf("attacks:\n");

  // Attack 1: claim a wrong output (LCS length off by one) with an honest
  // witness for the real output.
  {
    auto bound = honest_bound;
    bound.back() += F::One();
    expect_reject("wrong output, honest proof",
                  accepted(prove(honest_proof), bound));
  }

  // Attack 2: fabricate a witness for the wrong output and prove it
  // "honestly" (H computed as the best-effort quotient).
  {
    auto forged_w = zaatar_w;
    forged_w[0] += F::One();
    expect_reject("forged witness, consistent commitment",
                  accepted(prove(BuildZaatarProof(qap, forged_w)),
                           honest_bound));
  }

  // Attack 3: answer the PCP queries from one witness but commit to another
  // (binding attack on the commitment). A second session on the same setup
  // frame supplies the other witness's commitment.
  {
    auto other_w = zaatar_w;
    other_w[1] += F::One();
    auto other = BuildZaatarProof(qap, other_w);
    protocol::ProverSession<F> accomplice;
    Check(accomplice.IngestSetup(setup_frame));
    Check(accomplice.Commit({&other.z, &other.h}));
    auto swapped =
        Check(ProofMessage<F>::Deserialize(Check(accomplice.Decommit())));
    auto msg = prove(honest_proof);
    msg.commitments[0] = swapped.commitments[0];
    expect_reject("responses from witness A, commitment to witness B",
                  accepted(msg, honest_bound));
  }

  // Attack 4: fix up a single PCP response post hoc.
  {
    auto msg = prove(honest_proof);
    msg.responses[1][3] += F::One();
    expect_reject("single tampered oracle response",
                  accepted(msg, honest_bound));
  }

  // Attack 5: mix-and-match oracles — z from the honest witness, h from a
  // forged one. Each is a perfectly linear function; only the divisibility
  // test ties them together.
  {
    auto forged_w = zaatar_w;
    forged_w[2] += F::One();
    ZaatarProof<F> mixed = honest_proof;
    mixed.h = BuildZaatarProof(qap, forged_w).h;
    expect_reject("inconsistent (z, h) oracle pair",
                  accepted(prove(mixed), honest_bound));
  }

  printf("\n%s\n", failures == 0 ? "all attacks rejected."
                                 : "SOME ATTACK SUCCEEDED — soundness bug!");
  return failures == 0 ? 0 : 1;
}
