// Per-instance verdict taxonomy and per-phase cost structs, shared by both
// sides of the protocol boundary.
//
// These used to live in argument.h, but that header also defines the
// verifier's secret state (VerifierSecrets: the ElGamal secret key, the
// plaintext r vectors, the alphas). The prover-side session headers under
// src/protocol/ must be able to name verdicts and costs WITHOUT transitively
// including any verifier-secret machinery — tests/protocol_isolation_test.cc
// enforces that split at the include-graph level.

#ifndef SRC_ARGUMENT_VERDICT_H_
#define SRC_ARGUMENT_VERDICT_H_

#include <cstddef>
#include <string>
#include <utility>

namespace zaatar {

// Typed per-instance verdict. The verifier runs against an arbitrarily
// malicious prover, so "not accepted" is split by *where* the instance
// failed: a structurally invalid proof (kMalformed) never reaches the
// cryptographic checks, a commitment-consistency failure (kRejectCommit) is
// distinguished from a PCP decision failure (kRejectPcp). A non-accept
// verdict is an ordinary per-instance outcome: it must never abort the
// remaining instances of a batch.
enum class VerifyVerdict {
  kAccept = 0,
  kMalformed,      // proof shape disagrees with the setup
  kRejectCommit,   // responses inconsistent with the commitment
  kRejectPcp,      // commitment fine, PCP decision procedure rejects
  // The channel failed, not the proof: the transport died or stalled past
  // its deadline (and retries, if configured, were exhausted) before this
  // instance could be decided. Unlike the reject verdicts this says nothing
  // about the prover's honesty — the instance may be re-submitted — but it
  // still counts as not-accepted so a flaky channel can never launder an
  // undecided instance into an accepting batch.
  kTransportFailed,
};

// Number of values in VerifyVerdict, for per-verdict counters.
inline constexpr size_t kNumVerifyVerdicts = 5;

inline const char* VerifyVerdictName(VerifyVerdict v) {
  switch (v) {
    case VerifyVerdict::kAccept:
      return "ACCEPT";
    case VerifyVerdict::kMalformed:
      return "MALFORMED";
    case VerifyVerdict::kRejectCommit:
      return "REJECT_COMMIT";
    case VerifyVerdict::kRejectPcp:
      return "REJECT_PCP";
    case VerifyVerdict::kTransportFailed:
      return "TRANSPORT_FAILED";
  }
  return "UNKNOWN";
}

struct VerifyInstanceResult {
  VerifyVerdict verdict = VerifyVerdict::kMalformed;
  std::string detail;  // non-empty for kMalformed: which check failed

  bool accepted() const { return verdict == VerifyVerdict::kAccept; }

  static VerifyInstanceResult Accept() {
    return {VerifyVerdict::kAccept, ""};
  }
  static VerifyInstanceResult Reject(VerifyVerdict v, std::string why = "") {
    return {v, std::move(why)};
  }
};

// Prover per-instance cost decomposition (the Figure 5 columns; the first
// two phases happen in the application layer and are filled in by it).
struct ProverCosts {
  double solve_constraints_s = 0;
  double construct_proof_s = 0;
  double crypto_s = 0;
  double answer_queries_s = 0;

  double Total() const {
    return solve_constraints_s + construct_proof_s + crypto_s +
           answer_queries_s;
  }

  ProverCosts& operator+=(const ProverCosts& o) {
    solve_constraints_s += o.solve_constraints_s;
    construct_proof_s += o.construct_proof_s;
    crypto_s += o.crypto_s;
    answer_queries_s += o.answer_queries_s;
    return *this;
  }
};

}  // namespace zaatar

#endif  // SRC_ARGUMENT_VERDICT_H_
