// ProverSession: the prover's side of the batched argument as a message-
// driven state machine.
//
//   Setup:    ReceiveSetup/IngestSetup — decode the SetupMessage, build the
//             ProverContext.                                  -> Commit
//   Commit:   Commit(vectors) — homomorphic commitments for the next
//             instance.                                       -> Decommit
//   Decommit: Decommit() — answer the multidecommit + consistency queries,
//             frame the ProofMessage.                         -> Decide
//   Decide:   IngestVerdict — the verifier's typed verdict
//             for this instance.                              -> Commit
//
// Driving the machine out of order yields a typed kPhaseViolation Status.
//
// The work behind Commit + Decommit depends only on the context, the proof
// vectors and the instance index, so ProveBatch runs a batch's instances
// through it on a pool of threads while the exchanges stay strictly one
// instance at a time, in order (DESIGN.md §17).
//
// TRUST BOUNDARY INVARIANT: this header must not include (directly or
// transitively) src/argument/argument.h or anything else defining the
// verifier's secrets — the session is reconstructed purely from SetupMessage
// bytes and is incapable of holding the ElGamal secret key, the plaintext r,
// or the alphas. tests/protocol_isolation_test.cc enforces this.

#ifndef SRC_PROTOCOL_PROVER_SESSION_H_
#define SRC_PROTOCOL_PROVER_SESSION_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/argument/verdict.h"
#include "src/commit/commitment.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/protocol/messages.h"
#include "src/protocol/phase.h"
#include "src/protocol/prover_context.h"
#include "src/protocol/transport.h"
#include "src/util/parallel_for.h"
#include "src/util/status.h"

namespace zaatar {
namespace protocol {

template <typename F>
class ProverSession {
 public:
  using Vectors = std::array<const std::vector<F>*, 2>;
  // The two oracle vectors of one instance, owned (ProveBatch's build
  // callback returns them).
  using OwnedVectors = std::array<std::vector<F>, 2>;

  // ----- Setup phase -----

  Status IngestSetup(const std::vector<uint8_t>& bytes) {
    if (phase_ != SessionPhase::kSetup) {
      return WrongPhase("IngestSetup", SessionPhase::kSetup, phase_);
    }
    // Decoding the SetupMessage is the prover's largest non-crypto cost for
    // big batches; give it its own span so the wall-time partition holds.
    obs::Span span("prover.ingest_setup");
    ZAATAR_ASSIGN_OR_RETURN(ctx_, ProverContext<F>::FromBytes(bytes));
    phase_ = SessionPhase::kCommit;
    return Status::Ok();
  }

  Status ReceiveSetup(Transport& transport) {
    if (phase_ != SessionPhase::kSetup) {
      return WrongPhase("ReceiveSetup", SessionPhase::kSetup, phase_);
    }
    ZAATAR_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, transport.Receive());
    return IngestSetup(bytes);
  }

  // Positions the session at `index` instead of instance 0, for a
  // replacement prover resuming a batch after its predecessor's connection
  // died (the verifier's RetryingSession replays from the first undecided
  // instance). Refused mid-instance: resuming is a between-instances event.
  Status StartAtInstance(uint32_t index) {
    if (phase_ == SessionPhase::kDecommit || phase_ == SessionPhase::kDecide) {
      return PhaseViolationError(
          "StartAtInstance: instance " + std::to_string(next_instance_) +
          " is still in flight");
    }
    next_instance_ = index;
    return Status::Ok();
  }

  // ----- Commit phase -----

  // Computes the homomorphic commitments for the next instance. The pointed-
  // to vectors must stay alive until Decommit() — the responses are computed
  // from the same vectors.
  Status Commit(const Vectors& vectors) {
    if (phase_ != SessionPhase::kCommit) {
      return WrongPhase("Commit", SessionPhase::kCommit, phase_);
    }
    ZAATAR_ASSIGN_OR_RETURN(
        pending_, CommitInstance(next_instance_, vectors, /*workers=*/1));
    pending_vectors_ = vectors;
    phase_ = SessionPhase::kDecommit;
    return Status::Ok();
  }

  // ----- Decommit phase -----

  // Answers the queries for the committed instance and returns the framed
  // ProofMessage bytes.
  StatusOr<std::vector<uint8_t>> Decommit() {
    if (phase_ != SessionPhase::kDecommit) {
      return WrongPhase("Decommit", SessionPhase::kDecommit, phase_);
    }
    ZAATAR_RETURN_IF_ERROR(
        AnswerInstance(pending_vectors_, &pending_, /*workers=*/1));
    phase_ = SessionPhase::kDecide;
    return pending_.Serialize();
  }

  // ----- Proving a batch on a pool -----

  // Proves instances [next_instance(), end) and exchanges each with the
  // verifier: `build(i)` returns instance i's OwnedVectors, the session
  // commits to them and answers the queries, and `exchange(i, frame)`
  // delivers the framed ProofMessage and returns the verdict bytes, which
  // the session ingests before moving on.
  //
  // Building and proving run on up to `threads` threads, at most 2·threads
  // instances ahead of the exchange; exchanges run on the calling thread,
  // one at a time in instance order. So the peer sees exactly the messages,
  // in exactly the order, of the one-at-a-time Commit/Decommit loop — frame
  // i still leaves only after verdict i−1 came back — and the frames are
  // byte-identical to that loop's for any `threads`. With fewer instances
  // than threads, each instance's commitment multiexp and answers split the
  // leftover threads, and pool threads cap loops nested in build (the
  // construct-u residue loops) at that share, so a pool never runs more
  // than `threads` threads. A one-thread pool is the plain loop on the
  // calling thread, with the kernels' own thread defaults.
  //
  // Pool threads prove under the calling thread's tracer, metrics and
  // current span, so their spans stitch into the same tree.
  //
  // Stops at the first failure in instance order, after the pool finished
  // what it held: a build exception is rethrown; a proving, exchange or
  // verdict error is returned. Either way every instance before it was
  // exchanged and none after it was.
  template <typename Build, typename Exchange>
  Status ProveBatch(uint32_t end, size_t threads, const Build& build,
                    const Exchange& exchange) {
    if (phase_ != SessionPhase::kCommit) {
      return WrongPhase("ProveBatch", SessionPhase::kCommit, phase_);
    }
    const uint32_t begin = next_instance_;
    if (end <= begin) {
      return Status::Ok();
    }
    threads = std::max<size_t>(threads, 1);
    const size_t pool = std::min<size_t>(threads, end - begin);
    const size_t per_instance = std::max<size_t>(threads / pool, 1);

    obs::Tracer* tracer = obs::ThreadTracer();
    obs::Metrics* metrics = obs::ThreadMetrics();
    const uint32_t parent = obs::CurrentSpan();
    using Frame = StatusOr<std::vector<uint8_t>>;
    Status failure;
    OrderedParallelFor<Frame>(
        begin, end, pool, per_instance,
        [&](size_t i) -> Frame {
          obs::ScopedThreadTracer stitch(tracer, parent);
          obs::ScopedThreadMetrics count(metrics);
          const uint32_t index = static_cast<uint32_t>(i);
          const OwnedVectors v = build(index);
          return BuildFrame(index, {&v[0], &v[1]}, per_instance);
        },
        [&](size_t i, Frame& frame) {
          if (!frame.ok()) {
            failure = frame.status();
            return false;
          }
          phase_ = SessionPhase::kDecide;
          StatusOr<std::vector<uint8_t>> verdict =
              exchange(static_cast<uint32_t>(i), *frame);
          failure = verdict.ok() ? IngestVerdict(*verdict).status()
                                 : verdict.status();
          return failure.ok();
        });
    return failure;
  }

  // ProveBatch over a transport: send the frame, receive the verdict.
  template <typename Build>
  Status ProveBatch(Transport& transport, uint32_t end, size_t threads,
                    const Build& build) {
    return ProveBatch(
        end, threads, build,
        [&transport](uint32_t, const std::vector<uint8_t>& frame)
            -> StatusOr<std::vector<uint8_t>> {
          ZAATAR_RETURN_IF_ERROR(transport.Send(frame));
          return transport.Receive();
        });
  }

  // ----- Decide phase -----

  // Ingests the verifier's verdict for the in-flight instance and advances
  // to the next instance's Commit phase.
  StatusOr<VerifyInstanceResult> IngestVerdict(
      const std::vector<uint8_t>& bytes) {
    if (phase_ != SessionPhase::kDecide) {
      return WrongPhase("IngestVerdict", SessionPhase::kDecide, phase_);
    }
    ZAATAR_ASSIGN_OR_RETURN(VerdictMessage msg,
                            VerdictMessage::Deserialize(bytes));
    if (msg.instance_index != next_instance_) {
      return MalformedError(
          "verdict for instance " + std::to_string(msg.instance_index) +
          ", expected " + std::to_string(next_instance_));
    }
    next_instance_++;
    pending_vectors_ = {};
    phase_ = SessionPhase::kCommit;
    verdicts_.push_back(msg.ToResult());
    return verdicts_.back();
  }

  // ----- Accessors -----

  SessionPhase phase() const { return phase_; }
  const ProverContext<F>& context() const { return ctx_; }
  uint32_t next_instance() const { return next_instance_; }
  const std::vector<VerifyInstanceResult>& verdicts() const {
    return verdicts_;
  }

 private:
  // The commitments: the first half of instance `index`'s ProofMessage.
  StatusOr<ProofMessage<F>> CommitInstance(uint32_t index,
                                           const Vectors& vectors,
                                           size_t workers) const {
    ZAATAR_RETURN_IF_ERROR(ctx_.ValidateVectors(vectors));
    obs::Span span("prover.commit");
    ProofMessage<F> msg;
    msg.instance_index = index;
    for (size_t o = 0; o < 2; o++) {
      ZAATAR_ASSIGN_OR_RETURN(
          msg.commitments[o],
          LinearCommitment<F>::Commit(*vectors[o], ctx_.oracles[o].enc_r,
                                      workers));
    }
    return msg;
  }

  // The answers to the queries and to t: the second half.
  Status AnswerInstance(const Vectors& vectors, ProofMessage<F>* msg,
                        size_t workers) const {
    obs::Span span("prover.answer");
    for (size_t o = 0; o < 2; o++) {
      OracleProofPart<F> part;
      ZAATAR_RETURN_IF_ERROR(LinearCommitment<F>::Answer(
          *vectors[o], ctx_.oracles[o].queries, ctx_.oracles[o].t, &part,
          workers));
      msg->responses[o] = std::move(part.responses);
      msg->t_responses[o] = part.t_response;
    }
    return Status::Ok();
  }

  // Instance `index`'s framed ProofMessage, from the context alone: byte
  // for byte what Commit + Decommit return for the same vectors at that
  // index, for any `workers`. Const and free of session state, so the pool
  // calls it concurrently while the session thread moves phase_.
  StatusOr<std::vector<uint8_t>> BuildFrame(uint32_t index,
                                            const Vectors& vectors,
                                            size_t workers) const {
    ZAATAR_ASSIGN_OR_RETURN(ProofMessage<F> msg,
                            CommitInstance(index, vectors, workers));
    ZAATAR_RETURN_IF_ERROR(AnswerInstance(vectors, &msg, workers));
    return msg.Serialize();
  }

  SessionPhase phase_ = SessionPhase::kSetup;
  ProverContext<F> ctx_;
  ProofMessage<F> pending_;
  Vectors pending_vectors_{};
  uint32_t next_instance_ = 0;
  std::vector<VerifyInstanceResult> verdicts_;
};

}  // namespace protocol
}  // namespace zaatar

#endif  // SRC_PROTOCOL_PROVER_SESSION_H_
