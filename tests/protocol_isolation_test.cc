// Include-graph enforcement of the protocol trust boundary: the prover-side
// session headers must be compilable WITHOUT pulling in the verifier's
// secret state. This file includes only the prover-side headers, among
// them the fault-injection harness (its MaliciousProver must attack with
// no more than a remote prover sees), and then fails the build if any
// verifier-secret header leaked in transitively — the strongest
// "ProverSession cannot reach VerifierSecrets" statement the language
// offers short of a separate process.

#include "src/protocol/prover_session.h"

#include "src/protocol/messages.h"
#include "src/protocol/prover_context.h"
#include "src/protocol/transport.h"
#include "src/testing/fault_injection.h"

// The verifier's secrets live in src/argument/argument.h (VerifierSecrets:
// the ElGamal secret key, the plaintext r vectors, the alphas) and the
// session wrapper in src/protocol/verifier_session.h. If either guard is
// defined here, a prover-side header transitively included verifier-secret
// machinery and the trust boundary is broken.
#ifdef SRC_ARGUMENT_ARGUMENT_H_
#error "prover-side protocol headers leak src/argument/argument.h"
#endif
#ifdef SRC_PROTOCOL_VERIFIER_SESSION_H_
#error "prover-side protocol headers leak verifier_session.h"
#endif

#include <gtest/gtest.h>

#include <type_traits>

#include "src/field/fields.h"

namespace zaatar {
namespace {

using F = F128;

// The prover context is built from bytes or a SetupMessage — nothing else.
// In particular there is no constructor or factory taking verifier state;
// the only types it can be constructed from are public wire material.
static_assert(
    !std::is_constructible_v<ProverContext<F>, OracleCommitSecrets<F>>,
    "ProverContext must not be constructible from commitment secrets");
static_assert(
    !std::is_constructible_v<protocol::ProverSession<F>,
                             OracleCommitSecrets<F>>,
    "ProverSession must not be constructible from commitment secrets");
static_assert(
    !std::is_constructible_v<protocol::ProverSession<F>,
                             OracleCommitSetup<F>>,
    "ProverSession must not be constructible from the full commit setup");

// The SetupMessage type itself cannot represent the secrets: its fields are
// exactly {pk, per-oracle {enc_r, queries, t}} and nothing secret-shaped.
static_assert(!std::is_constructible_v<protocol::SetupMessage<F>,
                                       OracleCommitSecrets<F>>,
              "SetupMessage must not be constructible from secrets");

TEST(ProtocolIsolationTest, ProverSessionCompilesWithoutVerifierHeaders) {
  // The real assertions are the #error guards and static_asserts above;
  // this test existing (and linking) is the pass condition.
  protocol::ProverSession<F> session;
  EXPECT_EQ(session.phase(), protocol::SessionPhase::kSetup);
  EXPECT_EQ(session.next_instance(), 0u);
}

}  // namespace
}  // namespace zaatar
