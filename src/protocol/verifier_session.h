// VerifierSession: the verifier's side of the batched argument as a message-
// driven state machine.
//
//   Setup:    EmitSetup/SendSetup — frame the batch SetupMessage (public
//             key, Enc(r), queries, t).                       -> Commit
//   Commit:   HandleProof — receive the next instance's ProofMessage; the
//             decoded commitments move the machine through Decommit
//             internally, the cryptographic checks and the PCP decision run
//             on the decoded responses.                       -> Decide
//   Decide:   EmitVerdict/SendVerdict — the typed verdict frame.
//                                                             -> Commit
//
// Driving the machine out of order yields a typed kPhaseViolation Status.
// Hostile proof bytes never error the session: a decode failure or an
// instance-index mismatch consumes the instance slot with a kMalformed
// verdict, preserving the PR-1 batch-isolation contract at the byte level.
//
// This header owns the verifier's secrets (via Argument::VerifierSetup) and
// must therefore never be included by prover-side code — the reverse
// direction of the isolation that tests/protocol_isolation_test.cc enforces
// for ProverSession.

#ifndef SRC_PROTOCOL_VERIFIER_SESSION_H_
#define SRC_PROTOCOL_VERIFIER_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/argument/argument.h"
#include "src/argument/verdict.h"
#include "src/crypto/prg.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/protocol/messages.h"
#include "src/protocol/phase.h"
#include "src/protocol/transport.h"
#include "src/util/status.h"

namespace zaatar {
namespace protocol {

template <typename F, typename Adapter>
class VerifierSession {
 public:
  using Arg = Argument<F, Adapter>;

  // Wraps Argument::Setup: generates keys, Enc(r), alphas, and t from the
  // given queries. The session owns the resulting secrets for its lifetime.
  VerifierSession(typename Adapter::Queries queries, Prg& prg)
      : setup_(std::make_shared<const typename Arg::VerifierSetup>(
            Arg::Setup(std::move(queries), prg))) {}

  // Adopts an already-built batch setup instead of generating one — the
  // amortization path: a serve daemon builds the per-Ψ setup once and every
  // session for that Ψ shares it (VerifierSetup is read-only after
  // construction, so concurrent sessions on worker threads are safe). The
  // session starts in kCommit: the cached setup frame was (or will be)
  // delivered to the peer out of band by the owner of the cache, so this
  // session never emits it and setup_bytes_sent() stays 0.
  explicit VerifierSession(
      std::shared_ptr<const typename Arg::VerifierSetup> setup)
      : setup_(std::move(setup)), phase_(SessionPhase::kCommit) {}

  // ----- Setup phase -----

  StatusOr<std::vector<uint8_t>> EmitSetup() {
    if (phase_ != SessionPhase::kSetup) {
      return WrongPhase("EmitSetup", SessionPhase::kSetup, phase_);
    }
    std::vector<uint8_t> bytes = EncodeSetup();
    setup_bytes_ = bytes.size();
    phase_ = SessionPhase::kCommit;
    return bytes;
  }

  StatusOr<size_t> SendSetup(Transport& transport) {
    ZAATAR_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, EmitSetup());
    ZAATAR_RETURN_IF_ERROR(transport.Send(bytes));
    return bytes.size();
  }

  // Sends the batch setup to a FRESH peer after a reconnect, without
  // touching the session's protocol state: in kSetup it is a plain
  // SendSetup; mid-batch (kCommit) it re-frames the identical SetupMessage
  // so a replacement prover can rebuild its context and resume. Mid-instance
  // phases refuse — a reconnect must happen between instances.
  StatusOr<size_t> ResendSetup(Transport& transport) {
    if (phase_ == SessionPhase::kSetup) {
      return SendSetup(transport);
    }
    if (phase_ != SessionPhase::kCommit) {
      return WrongPhase("ResendSetup", SessionPhase::kCommit, phase_);
    }
    std::vector<uint8_t> bytes = EncodeSetup();
    ZAATAR_RETURN_IF_ERROR(transport.Send(bytes));
    return bytes.size();
  }

  // ----- Commit + Decommit phases -----

  // Ingests one instance's proof bytes and decides. The commitments and the
  // responses arrive in a single ProofMessage, so the Commit -> Decommit
  // transition happens internally once the frame decodes; both failures
  // (undecodable bytes, wrong instance index) are per-instance kMalformed
  // verdicts, not session errors.
  StatusOr<VerifyInstanceResult> HandleProof(
      const std::vector<uint8_t>& proof_bytes,
      const std::vector<F>& bound_values) {
    if (phase_ != SessionPhase::kCommit) {
      return WrongPhase("HandleProof", SessionPhase::kCommit, phase_);
    }
    obs::Span span("verifier.verify");
    VerifyInstanceResult result;
    auto decoded = ProofMessage<F>::Deserialize(proof_bytes);
    if (!decoded.ok()) {
      result = VerifyInstanceResult::Reject(VerifyVerdict::kMalformed,
                                            decoded.status().ToString());
    } else if (decoded->instance_index != results_.size()) {
      result = VerifyInstanceResult::Reject(
          VerifyVerdict::kMalformed,
          "proof for instance " + std::to_string(decoded->instance_index) +
              ", expected " + std::to_string(results_.size()));
    } else {
      // Frame decoded: the commitment material is in hand (Decommit), run
      // the consistency checks and the PCP decision procedure.
      phase_ = SessionPhase::kDecommit;
      typename Arg::InstanceProof proof;
      for (size_t o = 0; o < 2; o++) {
        proof.parts[o].commitment = decoded->commitments[o];
        proof.parts[o].responses = std::move(decoded->responses[o]);
        proof.parts[o].t_response = decoded->t_responses[o];
      }
      result = Arg::VerifyInstanceDetailed(*setup_, proof, bound_values);
    }
    if (obs::Metrics* m = obs::ThreadMetrics()) {
      m->Add(std::string("verdict.") + VerifyVerdictName(result.verdict));
    }
    proof_bytes_ += proof_bytes.size();
    results_.push_back(result);
    phase_ = SessionPhase::kDecide;
    return result;
  }

  // Consumes the next instance slot with a kTransportFailed verdict: the
  // channel died (and the caller's retry budget ran out) before this
  // instance's proof could arrive, so the batch degrades by one undecided
  // instance instead of aborting. Keeps the session's instance cursor in
  // step with the caller's bookkeeping — the next proof the verifier will
  // accept is for the instance after the skipped one.
  StatusOr<VerifyInstanceResult> SkipInstanceTransportFailed(
      std::string detail) {
    if (phase_ != SessionPhase::kCommit) {
      return WrongPhase("SkipInstanceTransportFailed", SessionPhase::kCommit,
                        phase_);
    }
    VerifyInstanceResult result = VerifyInstanceResult::Reject(
        VerifyVerdict::kTransportFailed, std::move(detail));
    if (obs::Metrics* m = obs::ThreadMetrics()) {
      m->Add(std::string("verdict.") + VerifyVerdictName(result.verdict));
    }
    results_.push_back(result);
    return result;
  }

  // ----- Decide phase -----

  StatusOr<std::vector<uint8_t>> EmitVerdict() {
    if (phase_ != SessionPhase::kDecide) {
      return WrongPhase("EmitVerdict", SessionPhase::kDecide, phase_);
    }
    VerdictMessage msg = VerdictMessage::FromResult(
        static_cast<uint32_t>(results_.size() - 1), results_.back());
    phase_ = SessionPhase::kCommit;
    return msg.Serialize();
  }

  Status SendVerdict(Transport& transport) {
    ZAATAR_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, EmitVerdict());
    return transport.Send(bytes);
  }

  // Receive proof, decide, send verdict — one instance end to end.
  StatusOr<VerifyInstanceResult> DecideNext(
      Transport& transport, const std::vector<F>& bound_values) {
    if (phase_ != SessionPhase::kCommit) {
      return WrongPhase("DecideNext", SessionPhase::kCommit, phase_);
    }
    ZAATAR_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, transport.Receive());
    ZAATAR_ASSIGN_OR_RETURN(VerifyInstanceResult result,
                            HandleProof(bytes, bound_values));
    ZAATAR_RETURN_IF_ERROR(SendVerdict(transport));
    return result;
  }

  // ----- Accessors -----

  SessionPhase phase() const { return phase_; }
  const typename Arg::VerifierSetup& setup() const { return *setup_; }
  // The shared handle, for callers that cache/refcount the batch setup.
  const std::shared_ptr<const typename Arg::VerifierSetup>& shared_setup()
      const {
    return setup_;
  }
  const std::vector<VerifyInstanceResult>& results() const {
    return results_;
  }
  size_t setup_bytes_sent() const { return setup_bytes_; }
  size_t proof_bytes_received() const { return proof_bytes_; }

 private:
  // Encoding the frame gets its own span, so a trace separates it from the
  // send that follows.
  std::vector<uint8_t> EncodeSetup() const {
    obs::Span span("verifier.encode_setup");
    return setup_->EncodeSetupMessage();
  }

  // Shared, immutable after construction: many concurrent sessions (one per
  // serve-daemon client proving the same Ψ) read one setup.
  std::shared_ptr<const typename Arg::VerifierSetup> setup_;
  SessionPhase phase_ = SessionPhase::kSetup;
  std::vector<VerifyInstanceResult> results_;
  size_t setup_bytes_ = 0;
  size_t proof_bytes_ = 0;
};

}  // namespace protocol
}  // namespace zaatar

#endif  // SRC_PROTOCOL_VERIFIER_SESSION_H_
