// Fault-injection harness: systematic corruption of honest protocol
// transcripts, exercising the verifier's "reject, don't crash" invariant.
//
// The threat model (DESIGN.md §8) is an arbitrarily malicious prover: any
// byte string may arrive where a protocol::ProofMessage frame is expected,
// and any well-formed frame may carry adversarially chosen contents. The
// Corruptor mutates serialized messages at the byte level (truncation, bit
// flips, length inflation, non-canonical residues, trailing garbage); the
// MaliciousProver emits semantically hostile but well-formed frames
// (swapped commitments, responses inconsistent with the commitment, proofs
// generated under a replayed setup from another batch). Every emitted
// fault, sent through VerifierSession::HandleProof, must yield a typed
// non-accept verdict — never a crash, hang, or accept.
//
// Like a remote prover, the MaliciousProver sees only setup frames: this
// header must not include the verifier's secrets (src/argument/argument.h),
// which tests/protocol_isolation_test.cc enforces.

#ifndef SRC_TESTING_FAULT_INJECTION_H_
#define SRC_TESTING_FAULT_INJECTION_H_

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/constraints/ginger.h"
#include "src/constraints/r1cs.h"
#include "src/crypto/prg.h"
#include "src/protocol/messages.h"
#include "src/protocol/prover_session.h"
#include "src/util/serialize.h"

namespace zaatar {

// The corruption taxonomy. Each class models a distinct adversarial
// capability; the acceptance criterion for all of them is identical (a clean
// typed reject), but the expected verdict differs per class (see
// ExpectedVerdicts).
enum class FaultClass {
  kTruncation = 0,        // byte stream cut at an arbitrary prefix
  kBitFlip,               // a single flipped bit anywhere in the message
  kLengthInflation,       // a length prefix claiming ~2^32 elements
  kNonCanonicalElement,   // a residue >= its modulus substituted in place
  kCommitmentSwap,        // the two oracle commitments exchanged
  kSetupReplay,           // a proof generated under a different batch's setup
  kInconsistentResponse,  // responses disagreeing with the commitment
  kTrailingGarbage,       // valid message followed by extra bytes
  kResponseCountMismatch, // well-formed frame, wrong response-vector shape
};

inline constexpr std::array<FaultClass, 9> kAllFaultClasses = {
    FaultClass::kTruncation,        FaultClass::kBitFlip,
    FaultClass::kLengthInflation,   FaultClass::kNonCanonicalElement,
    FaultClass::kCommitmentSwap,    FaultClass::kSetupReplay,
    FaultClass::kInconsistentResponse, FaultClass::kTrailingGarbage,
    FaultClass::kResponseCountMismatch,
};

inline const char* FaultClassName(FaultClass c) {
  switch (c) {
    case FaultClass::kTruncation:
      return "truncation";
    case FaultClass::kBitFlip:
      return "bit-flip";
    case FaultClass::kLengthInflation:
      return "length-inflation";
    case FaultClass::kNonCanonicalElement:
      return "non-canonical-element";
    case FaultClass::kCommitmentSwap:
      return "commitment-swap";
    case FaultClass::kSetupReplay:
      return "setup-replay";
    case FaultClass::kInconsistentResponse:
      return "inconsistent-response";
    case FaultClass::kTrailingGarbage:
      return "trailing-garbage";
    case FaultClass::kResponseCountMismatch:
      return "response-count-mismatch";
  }
  return "unknown";
}

// ----- compile-pipeline corruption (pre-protocol) -----
//
// Deleting a constraint from a compiled system models a compiler or
// transform bug that silently loses an equation. The protocol itself cannot
// notice — every remaining constraint still holds for honest witnesses, so
// proofs keep verifying — but the witness space widens and a malicious
// prover may now claim wrong outputs. This is exactly the failure class the
// static analyzer (src/analysis) exists to catch; the fault-injection tests
// assert that every single-constraint drop in a pipeline-covered program
// produces an ERROR finding.

template <typename F>
GingerSystem<F> DropConstraint(const GingerSystem<F>& g, size_t j) {
  GingerSystem<F> out = g;
  if (j < out.constraints.size()) {
    out.constraints.erase(out.constraints.begin() + j);
    if (j < out.source_lines.size()) {
      out.source_lines.erase(out.source_lines.begin() + j);
    }
  }
  return out;
}

template <typename F>
R1cs<F> DropConstraint(const R1cs<F>& r, size_t j) {
  R1cs<F> out = r;
  if (j < out.constraints.size()) {
    out.constraints.erase(out.constraints.begin() + j);
    if (j < out.source_lines.size()) {
      out.source_lines.erase(out.source_lines.begin() + j);
    }
  }
  return out;
}

// Byte-level mutations. All pure: the input transcript is never modified.
class Corruptor {
 public:
  static std::vector<uint8_t> Truncate(const std::vector<uint8_t>& bytes,
                                       size_t prefix_len) {
    if (prefix_len > bytes.size()) {
      prefix_len = bytes.size();
    }
    return std::vector<uint8_t>(bytes.begin(), bytes.begin() + prefix_len);
  }

  static std::vector<uint8_t> FlipBit(const std::vector<uint8_t>& bytes,
                                      size_t bit_index) {
    std::vector<uint8_t> out = bytes;
    out[(bit_index / 8) % out.size()] ^=
        static_cast<uint8_t>(1u << (bit_index % 8));
    return out;
  }

  static std::vector<uint8_t> MutateByte(const std::vector<uint8_t>& bytes,
                                         size_t pos, uint8_t xor_mask) {
    std::vector<uint8_t> out = bytes;
    out[pos % out.size()] ^= xor_mask;
    return out;
  }

  static std::vector<uint8_t> PatchU32(const std::vector<uint8_t>& bytes,
                                       size_t offset, uint32_t v) {
    std::vector<uint8_t> out = bytes;
    for (int i = 0; i < 4 && offset + i < out.size(); i++) {
      out[offset + i] = static_cast<uint8_t>(v >> (8 * i));
    }
    return out;
  }

  template <size_t N>
  static std::vector<uint8_t> PatchBigInt(const std::vector<uint8_t>& bytes,
                                          size_t offset, const BigInt<N>& v) {
    std::vector<uint8_t> out = bytes;
    for (size_t i = 0; i < N; i++) {
      for (int b = 0; b < 8; b++) {
        size_t pos = offset + i * 8 + b;
        if (pos < out.size()) {
          out[pos] = static_cast<uint8_t>(v.limbs[i] >> (8 * b));
        }
      }
    }
    return out;
  }

  static std::vector<uint8_t> AppendGarbage(const std::vector<uint8_t>& bytes,
                                            size_t n, Prg& prg) {
    std::vector<uint8_t> out = bytes;
    for (size_t i = 0; i < n; i++) {
      out.push_back(static_cast<uint8_t>(prg.NextBounded(256)));
    }
    return out;
  }
};

// Byte offsets of the structural landmarks inside a serialized
// protocol::ProofMessage<F>, computed from the honest message shape. Used to
// aim length-inflation and non-canonical-substitution faults at exactly the
// fields they target.
template <typename F>
struct InstanceWireLayout {
  static constexpr size_t kGroupBytes = ElGamal<F>::Zp::kLimbs * 8;
  static constexpr size_t kFieldBytes = F::kLimbs * 8;

  std::array<size_t, 2> commitment_offset;     // start of c1 per oracle
  std::array<size_t, 2> length_offset;         // response-vector u32 prefix
  std::array<size_t, 2> response_data_offset;  // first response element
  std::array<size_t, 2> t_response_offset;
  size_t total_bytes = 0;

  static InstanceWireLayout Of(const protocol::ProofMessage<F>& msg) {
    InstanceWireLayout layout;
    size_t off = 4;  // the u32 instance index
    for (size_t o = 0; o < 2; o++) {
      layout.commitment_offset[o] = off;
      off += 2 * kGroupBytes;
      layout.length_offset[o] = off;
      off += 4;
      layout.response_data_offset[o] = off;
      off += msg.responses[o].size() * kFieldBytes;
      layout.t_response_offset[o] = off;
      off += kFieldBytes;
    }
    layout.total_bytes = off;
    return layout;
  }
};

// Proves instance `index` the way a remote prover does: a ProverSession that
// sees only `setup_frame` commits to `vectors` and answers the queries.
// Returns the ProofMessage frame, for VerifierSession::HandleProof. Throws
// if the vectors do not fit the setup.
template <typename F>
std::vector<uint8_t> ProveFrame(
    const std::vector<uint8_t>& setup_frame,
    const std::array<const std::vector<F>*, 2>& vectors, uint32_t index = 0) {
  protocol::ProverSession<F> prover;
  Status st = prover.IngestSetup(setup_frame);
  if (st.ok()) {
    st = prover.StartAtInstance(index);
  }
  if (st.ok()) {
    st = prover.Commit(vectors);
  }
  StatusOr<std::vector<uint8_t>> frame =
      st.ok() ? prover.Decommit() : StatusOr<std::vector<uint8_t>>(st);
  if (!frame.ok()) {
    throw std::invalid_argument("ProveFrame: " + frame.status().ToString());
  }
  return std::move(frame).value();
}

// Emits one corrupted ProofMessage frame for instance 0 per fault class,
// built from an honest prover session fed `setup_frame`. The decoy frame
// (for kSetupReplay) must be the setup of a different batch over the same
// computation — same query structure, fresh keys and commitment secrets.
template <typename F>
class MaliciousProver {
 public:
  MaliciousProver(const std::vector<uint8_t>& setup_frame,
                  const std::vector<uint8_t>& decoy_setup_frame,
                  std::array<const std::vector<F>*, 2> proof_vectors)
      : honest_bytes_(ProveFrame<F>(setup_frame, proof_vectors)),
        replayed_bytes_(ProveFrame<F>(decoy_setup_frame, proof_vectors)),
        honest_msg_(protocol::ProofMessage<F>::Deserialize(honest_bytes_)
                        .value()),
        layout_(InstanceWireLayout<F>::Of(honest_msg_)) {}

  const std::vector<uint8_t>& HonestBytes() const { return honest_bytes_; }
  const protocol::ProofMessage<F>& HonestMessage() const {
    return honest_msg_;
  }
  const InstanceWireLayout<F>& Layout() const { return layout_; }

  // A corrupted frame of the requested class. `prg` picks the fault site,
  // so repeated calls sample different concrete corruptions.
  std::vector<uint8_t> Emit(FaultClass c, Prg& prg) const {
    using Zp = typename ElGamal<F>::Zp;
    switch (c) {
      case FaultClass::kTruncation:
        return Corruptor::Truncate(honest_bytes_,
                                   prg.NextBounded(honest_bytes_.size()));
      case FaultClass::kBitFlip:
        return Corruptor::FlipBit(honest_bytes_,
                                  prg.NextBounded(honest_bytes_.size() * 8));
      case FaultClass::kLengthInflation:
        return Corruptor::PatchU32(
            honest_bytes_,
            layout_.length_offset[prg.NextBounded(2)], 0xFFFFFFFFu);
      case FaultClass::kNonCanonicalElement: {
        // Either a response slot >= q or a commitment component >= p.
        if (prg.NextBool()) {
          size_t o = prg.NextBounded(2);
          return Corruptor::PatchBigInt(honest_bytes_,
                                        layout_.response_data_offset[o],
                                        F::kModulus);
        }
        size_t o = prg.NextBounded(2);
        return Corruptor::PatchBigInt(honest_bytes_,
                                      layout_.commitment_offset[o],
                                      Zp::kModulus);
      }
      case FaultClass::kCommitmentSwap: {
        protocol::ProofMessage<F> msg = honest_msg_;
        std::swap(msg.commitments[0], msg.commitments[1]);
        return msg.Serialize();
      }
      case FaultClass::kSetupReplay:
        // A proof that is perfectly honest — under the wrong batch's keys
        // and commitment secrets.
        return replayed_bytes_;
      case FaultClass::kInconsistentResponse: {
        // Commitment from the honest run, one response perturbed after the
        // fact: exactly the cheat Commit+Multidecommit exists to catch.
        protocol::ProofMessage<F> msg = honest_msg_;
        size_t o = prg.NextBounded(2);
        if (!msg.responses[o].empty()) {
          msg.responses[o][prg.NextBounded(msg.responses[o].size())] +=
              F::One();
        } else {
          msg.t_responses[o] += F::One();
        }
        return msg.Serialize();
      }
      case FaultClass::kTrailingGarbage:
        return Corruptor::AppendGarbage(honest_bytes_,
                                        1 + prg.NextBounded(64), prg);
      case FaultClass::kResponseCountMismatch: {
        // Every byte decodes fine and every element is canonical — only the
        // response count disagrees with the setup's query count. This is the
        // corruption that asserts-only shape validation would let straight
        // through to an out-of-bounds read in an NDEBUG build.
        protocol::ProofMessage<F> msg = honest_msg_;
        size_t o = prg.NextBounded(2);
        if (msg.responses[o].empty() || prg.NextBool()) {
          msg.responses[o].push_back(F::One());  // one response too many
        } else {
          msg.responses[o].pop_back();  // one response too few
        }
        return msg.Serialize();
      }
    }
    return honest_bytes_;
  }

  // The verdicts a correct verifier may return for each class. kBitFlip can
  // land anywhere, so any non-accept verdict is in range; structural faults
  // must be caught at decode (kMalformed) before any crypto runs; the
  // semantic faults must be caught by the commitment consistency check.
  static std::vector<VerifyVerdict> ExpectedVerdicts(FaultClass c) {
    switch (c) {
      case FaultClass::kTruncation:
      case FaultClass::kLengthInflation:
      case FaultClass::kNonCanonicalElement:
      case FaultClass::kTrailingGarbage:
      case FaultClass::kResponseCountMismatch:
        return {VerifyVerdict::kMalformed};
      case FaultClass::kCommitmentSwap:
      case FaultClass::kSetupReplay:
      case FaultClass::kInconsistentResponse:
        return {VerifyVerdict::kRejectCommit};
      case FaultClass::kBitFlip:
        return {VerifyVerdict::kMalformed, VerifyVerdict::kRejectCommit,
                VerifyVerdict::kRejectPcp};
    }
    return {};
  }

 private:
  std::vector<uint8_t> honest_bytes_;
  std::vector<uint8_t> replayed_bytes_;
  protocol::ProofMessage<F> honest_msg_;
  InstanceWireLayout<F> layout_;
};

}  // namespace zaatar

#endif  // SRC_TESTING_FAULT_INJECTION_H_
