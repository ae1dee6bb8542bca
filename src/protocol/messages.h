// The three messages of the two-party argument protocol (paper Figure 2),
// as they cross the prover/verifier trust boundary:
//
//   SetupMessage   V -> P, once per batch: the ElGamal public key, and per
//                  oracle the encrypted commitment vector Enc(r), the
//                  plaintext multidecommit queries, and the consistency
//                  vector t. The verifier's secrets — the secret key, the
//                  plaintext r, the alphas — are not representable here.
//   ProofMessage   P -> V, once per instance: the homomorphic commitments
//                  and the query/consistency responses, tagged with the
//                  instance index so a reordered or replayed proof is caught
//                  by the session layer.
//   VerdictMessage V -> P, once per instance: the PR-1 verdict taxonomy
//                  (ACCEPT / MALFORMED / REJECT_COMMIT / REJECT_PCP) plus a
//                  bounded diagnostic string.
//
// These are the only encoding of the protocol: every proof is produced by a
// ProverSession and checked by VerifierSession::HandleProof through them.
//
// Deserialize() is the trust boundary: bytes from the peer are arbitrary.
// All decoders return StatusOr instead of throwing, validate every length
// prefix against both the hard element cap and the bytes actually present
// before allocating, range-check every field/group element (< modulus), and
// reject trailing bytes (src/util/serialize.h).
//
// The SetupMessage carries the full query matrices as plaintext rows: the
// session prover is reconstructed *purely* from these bytes and holds no
// generator for the queries.

#ifndef SRC_PROTOCOL_MESSAGES_H_
#define SRC_PROTOCOL_MESSAGES_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/argument/verdict.h"
#include "src/crypto/elgamal.h"
#include "src/util/parallel_for.h"
#include "src/util/serialize.h"
#include "src/util/status.h"

namespace zaatar {
namespace protocol {

// Verdict diagnostics are bounded so a hostile verifier cannot make the
// prover allocate unbounded memory for an error string.
inline constexpr uint32_t kMaxVerdictDetailBytes = 4096;

// Setup frames of at least this many bytes are encoded and decoded on
// HardwareThreads() threads; smaller ones on the calling thread, where
// starting the threads would cost more than the rows take (DESIGN.md §19).
inline constexpr size_t kParallelSetupCodecBytes = size_t{1} << 18;

// V -> P, once per (computation, batch).
//
// Frame layout: g and h, then per oracle
//   [u32 n][n ciphertexts, c1 then c2][u32 rows][rows x n elements][t: n]
// with every element in canonical form (serialize.h). Each row has a fixed
// width and a fixed offset, so the codec sizes the frame once and fills the
// rows in place, in parallel for large frames.
template <typename F>
struct SetupMessage {
  using EG = ElGamal<F>;
  using Zp = typename EG::Zp;
  using Ciphertext = typename EG::Ciphertext;

  struct Oracle {
    std::vector<Ciphertext> enc_r;
    std::vector<std::vector<F>> queries;  // each row enc_r.size() long
    std::vector<F> t;                     // enc_r.size() long
  };

  // Borrowed views of one oracle's material, all Encode reads: the
  // verifier encodes straight from its setup through them, without first
  // copying that setup into a SetupMessage.
  struct OracleView {
    const std::vector<Ciphertext>* enc_r;
    const std::vector<std::vector<F>>* queries;
    const std::vector<F>* t;
  };

  typename EG::PublicKey pk;  // only g and h travel; tables are rebuilt local
  std::array<Oracle, 2> oracles;

  static std::vector<uint8_t> Encode(
      const typename EG::PublicKey& pk,
      const std::array<OracleView, 2>& oracles) {
    // Lay the frame out: the four length prefixes and the element runs,
    // each at its byte offset.
    std::array<std::pair<size_t, uint32_t>, 4> prefixes;
    std::vector<Run> runs;
    size_t offset = 2 * kZpBytes;
    for (size_t o = 0; o < 2; o++) {
      const OracleView& v = oracles[o];
      prefixes[2 * o] = {offset, static_cast<uint32_t>(v.enc_r->size())};
      offset += 4;
      AddRuns(o, Run::kEncR, 0, v.enc_r->size(), &offset, &runs);
      prefixes[2 * o + 1] = {offset,
                             static_cast<uint32_t>(v.queries->size())};
      offset += 4;
      for (size_t i = 0; i < v.queries->size(); i++) {
        assert((*v.queries)[i].size() == v.enc_r->size());
        AddRuns(o, Run::kQuery, i, (*v.queries)[i].size(), &offset, &runs);
      }
      AddRuns(o, Run::kT, 0, v.t->size(), &offset, &runs);
    }

    std::vector<uint8_t> out(offset);
    uint8_t* const base = out.data();
    StoreField(base, pk.g);
    StoreField(base + kZpBytes, pk.h);
    for (const auto& [at, value] : prefixes) {
      StoreU32(base + at, value);
    }
    ParallelFor(runs.size(), CodecWorkers(out.size()), [&](size_t k) {
      const Run& run = runs[k];
      const OracleView& v = oracles[run.oracle];
      uint8_t* dst = base + run.offset;
      if (run.kind == Run::kEncR) {
        const Ciphertext* ct = v.enc_r->data() + run.begin;
        for (size_t i = 0; i < run.count; i++, dst += kCiphertextBytes) {
          StoreField(dst, ct[i].c1);
          StoreField(dst + kZpBytes, ct[i].c2);
        }
        return;
      }
      const F* x =
          (run.kind == Run::kQuery ? (*v.queries)[run.row].data()
                                   : v.t->data()) +
          run.begin;
      for (size_t i = 0; i < run.count; i++, dst += kFBytes) {
        StoreField(dst, x[i]);
      }
    });
    return out;
  }

  std::vector<uint8_t> Serialize() const {
    return Encode(pk, {OracleView{&oracles[0].enc_r, &oracles[0].queries,
                                  &oracles[0].t},
                       OracleView{&oracles[1].enc_r, &oracles[1].queries,
                                  &oracles[1].t}});
  }

  // Checks the length prefixes one by one, in frame order, before
  // allocating anything; allocates the rows on the calling thread; then
  // range-checks and converts them, in parallel for large frames. Returns
  // the StatusCode DeserializeReference returns for every frame but one
  // kind: a frame whose empty query rows outnumber its remaining bytes,
  // which the reference accepts and this rejects (kLengthOverflow).
  static StatusOr<SetupMessage> Deserialize(
      const std::vector<uint8_t>& bytes) {
    SetupMessage msg;
    ByteReader r(bytes);
    ZAATAR_ASSIGN_OR_RETURN(msg.pk.g, GetField<Zp>(&r));
    ZAATAR_ASSIGN_OR_RETURN(msg.pk.h, GetField<Zp>(&r));
    std::vector<Run> runs;
    std::array<std::pair<uint32_t, uint32_t>, 2> shape{};  // (n, rows)
    const Status structure = WalkLayout(&r, &runs, &shape);
    const size_t workers = CodecWorkers(bytes.size());
    if (!structure.ok()) {
      // The reference reads every element before the bad prefix first, so
      // an out-of-range element there is its first error.
      if (!LoadRuns(bytes, runs, nullptr, workers)) {
        return OutOfRangeError("element not in canonical range");
      }
      return structure;
    }
    for (size_t o = 0; o < 2; o++) {
      const auto [n, rows] = shape[o];
      Oracle& oracle = msg.oracles[o];
      oracle.enc_r.resize(n);
      oracle.queries.resize(rows);
      for (std::vector<F>& q : oracle.queries) {
        q.resize(n);
      }
      oracle.t.resize(n);
    }
    if (!LoadRuns(bytes, runs, &msg, workers)) {
      return OutOfRangeError("element not in canonical range");
    }
    return msg;
  }

  // The frozen reference codec: the byte-at-a-time loops Serialize and
  // Deserialize replaced, kept verbatim. The differential tests compare the
  // codec with them and bench_protocol times them beside it — do not
  // optimize them.
  std::vector<uint8_t> SerializeReference() const {
    ByteWriter w;
    PutField(&w, pk.g);
    PutField(&w, pk.h);
    for (size_t o = 0; o < 2; o++) {
      const Oracle& oracle = oracles[o];
      w.PutU32(static_cast<uint32_t>(oracle.enc_r.size()));
      for (const auto& ct : oracle.enc_r) {
        PutField(&w, ct.c1);
        PutField(&w, ct.c2);
      }
      w.PutU32(static_cast<uint32_t>(oracle.queries.size()));
      for (const auto& q : oracle.queries) {
        assert(q.size() == oracle.enc_r.size());
        for (const F& x : q) {
          PutField(&w, x);
        }
      }
      for (const F& x : oracle.t) {
        PutField(&w, x);
      }
    }
    return w.bytes();
  }

  static StatusOr<SetupMessage> DeserializeReference(
      const std::vector<uint8_t>& bytes) {
    SetupMessage msg;
    ByteReader r(bytes);
    ZAATAR_ASSIGN_OR_RETURN(msg.pk.g, GetField<Zp>(&r));
    ZAATAR_ASSIGN_OR_RETURN(msg.pk.h, GetField<Zp>(&r));
    for (size_t o = 0; o < 2; o++) {
      Oracle& oracle = msg.oracles[o];
      // Each ciphertext is two canonical Zp elements.
      ZAATAR_ASSIGN_OR_RETURN(uint32_t n, r.GetLength(2 * Zp::kLimbs * 8));
      oracle.enc_r.reserve(n);
      for (uint32_t i = 0; i < n; i++) {
        typename EG::Ciphertext ct;
        ZAATAR_ASSIGN_OR_RETURN(ct.c1, GetField<Zp>(&r));
        ZAATAR_ASSIGN_OR_RETURN(ct.c2, GetField<Zp>(&r));
        oracle.enc_r.push_back(ct);
      }
      // Query rows are implicitly n elements each; the row count is length-
      // checked against the full row size so a hostile count fails before
      // any allocation proportional to it.
      ZAATAR_ASSIGN_OR_RETURN(
          uint32_t num_q,
          r.GetLength(static_cast<size_t>(n) * F::kLimbs * 8));
      oracle.queries.reserve(num_q);
      for (uint32_t i = 0; i < num_q; i++) {
        std::vector<F> q;
        q.reserve(n);
        for (uint32_t j = 0; j < n; j++) {
          ZAATAR_ASSIGN_OR_RETURN(F x, GetField<F>(&r));
          q.push_back(x);
        }
        oracle.queries.push_back(std::move(q));
      }
      oracle.t.reserve(n);
      for (uint32_t j = 0; j < n; j++) {
        ZAATAR_ASSIGN_OR_RETURN(F x, GetField<F>(&r));
        oracle.t.push_back(x);
      }
    }
    ZAATAR_RETURN_IF_ERROR(r.ExpectEnd());
    return msg;
  }

 private:
  static constexpr size_t kZpBytes = Zp::kLimbs * 8;
  static constexpr size_t kFBytes = F::kLimbs * 8;
  static constexpr size_t kCiphertextBytes = 2 * kZpBytes;
  // Rows are cut into runs of at most this many elements, so one long row
  // (or Enc(r)) still spreads over the threads.
  static constexpr size_t kRunElements = 4096;

  // `count` consecutive elements, from element `begin` of oracle `oracle`'s
  // Enc(r), query row `row`, or t, stored from byte `offset` of the frame.
  struct Run {
    enum Kind : uint8_t { kEncR, kQuery, kT };
    size_t offset;
    size_t oracle;
    Kind kind;
    size_t row;
    size_t begin;
    size_t count;
  };

  static size_t CodecWorkers(size_t frame_bytes) {
    return frame_bytes >= kParallelSetupCodecBytes ? HardwareThreads() : 1;
  }

  // Appends the runs of one vector of `count` elements that starts at
  // *offset, and advances *offset past it.
  static void AddRuns(size_t oracle, typename Run::Kind kind, size_t row,
                      size_t count, size_t* offset, std::vector<Run>* runs) {
    const size_t width = kind == Run::kEncR ? kCiphertextBytes : kFBytes;
    for (size_t begin = 0; begin < count; begin += kRunElements) {
      const size_t n = std::min(kRunElements, count - begin);
      runs->push_back({*offset, oracle, kind, row, begin, n});
      *offset += n * width;
    }
  }

  // Walks the frame after g and h in the reference decoder's order,
  // checking each length prefix against the bytes left before it is used,
  // and records the runs of every element it steps over. Stops at the
  // first structural error (a short frame, an oversized prefix, trailing
  // bytes); the runs recorded by then are exactly the elements the
  // reference would have read before hitting it.
  static Status WalkLayout(
      ByteReader* r, std::vector<Run>* runs,
      std::array<std::pair<uint32_t, uint32_t>, 2>* shape) {
    for (size_t o = 0; o < 2; o++) {
      ZAATAR_ASSIGN_OR_RETURN(uint32_t n, r->GetLength(kCiphertextBytes));
      size_t offset = r->position();
      AddRuns(o, Run::kEncR, 0, n, &offset, runs);
      ZAATAR_RETURN_IF_ERROR(r->Skip(size_t{n} * kCiphertextBytes));
      // Each row is charged at least one byte, so rows of length 0 cannot
      // claim more rows than the frame has bytes left.
      ZAATAR_ASSIGN_OR_RETURN(
          uint32_t rows,
          r->GetLength(std::max<size_t>(size_t{n} * kFBytes, 1)));
      offset = r->position();
      for (uint32_t i = 0; i < rows; i++) {
        AddRuns(o, Run::kQuery, i, n, &offset, runs);
      }
      ZAATAR_RETURN_IF_ERROR(r->Skip(size_t{rows} * n * kFBytes));
      // t has no prefix of its own: a short frame cuts it after its last
      // whole element, and the reference reads up to there first.
      AddRuns(o, Run::kT, 0, std::min<size_t>(n, r->remaining() / kFBytes),
              &offset, runs);
      ZAATAR_RETURN_IF_ERROR(r->Skip(size_t{n} * kFBytes));
      (*shape)[o] = {n, rows};
    }
    return r->ExpectEnd();
  }

  // Range-checks every element of `runs` and, when `msg` is not null,
  // stores it into msg's rows, which must already have their sizes. False
  // if any element is not below its modulus.
  static bool LoadRuns(const std::vector<uint8_t>& bytes,
                       const std::vector<Run>& runs, SetupMessage* msg,
                       size_t workers) {
    std::atomic<bool> canonical{true};
    ParallelFor(runs.size(), workers, [&](size_t k) {
      if (!canonical.load(std::memory_order_relaxed)) {
        return;
      }
      const Run& run = runs[k];
      const uint8_t* src = bytes.data() + run.offset;
      bool ok = true;
      if (run.kind == Run::kEncR) {
        Ciphertext scratch;
        Ciphertext* ct =
            msg == nullptr ? nullptr
                           : msg->oracles[run.oracle].enc_r.data() + run.begin;
        for (size_t i = 0; ok && i < run.count; i++, src += kCiphertextBytes) {
          Ciphertext& dst = ct == nullptr ? scratch : ct[i];
          ok = LoadField(src, &dst.c1) && LoadField(src + kZpBytes, &dst.c2);
        }
      } else {
        F scratch;
        F* x = nullptr;
        if (msg != nullptr) {
          Oracle& oracle = msg->oracles[run.oracle];
          x = (run.kind == Run::kQuery ? oracle.queries[run.row].data()
                                       : oracle.t.data()) +
              run.begin;
        }
        for (size_t i = 0; ok && i < run.count; i++, src += kFBytes) {
          ok = LoadField(src, x == nullptr ? &scratch : &x[i]);
        }
      }
      if (!ok) {
        canonical.store(false, std::memory_order_relaxed);
      }
    });
    return canonical.load(std::memory_order_relaxed);
  }
};

// P -> V, once per instance.
template <typename F>
struct ProofMessage {
  using EG = ElGamal<F>;
  using Zp = typename EG::Zp;

  uint32_t instance_index = 0;
  std::array<typename EG::Ciphertext, 2> commitments;
  std::array<std::vector<F>, 2> responses;
  std::array<F, 2> t_responses;

  std::vector<uint8_t> Serialize() const {
    ByteWriter w;
    w.PutU32(instance_index);
    for (size_t o = 0; o < 2; o++) {
      PutField(&w, commitments[o].c1);
      PutField(&w, commitments[o].c2);
      PutFieldVector(&w, responses[o]);
      PutField(&w, t_responses[o]);
    }
    return w.bytes();
  }

  static StatusOr<ProofMessage> Deserialize(
      const std::vector<uint8_t>& bytes) {
    ProofMessage msg;
    ByteReader r(bytes);
    ZAATAR_ASSIGN_OR_RETURN(msg.instance_index, r.GetU32());
    for (size_t o = 0; o < 2; o++) {
      ZAATAR_ASSIGN_OR_RETURN(msg.commitments[o].c1, GetField<Zp>(&r));
      ZAATAR_ASSIGN_OR_RETURN(msg.commitments[o].c2, GetField<Zp>(&r));
      ZAATAR_ASSIGN_OR_RETURN(msg.responses[o], GetFieldVector<F>(&r));
      ZAATAR_ASSIGN_OR_RETURN(msg.t_responses[o], GetField<F>(&r));
    }
    ZAATAR_RETURN_IF_ERROR(r.ExpectEnd());
    return msg;
  }
};

// V -> P, once per instance: the typed verdict for `instance_index`.
struct VerdictMessage {
  uint32_t instance_index = 0;
  VerifyVerdict verdict = VerifyVerdict::kMalformed;
  std::string detail;

  static VerdictMessage FromResult(uint32_t index,
                                   const VerifyInstanceResult& result) {
    VerdictMessage msg;
    msg.instance_index = index;
    msg.verdict = result.verdict;
    msg.detail = result.detail.substr(
        0, std::min<size_t>(result.detail.size(), kMaxVerdictDetailBytes));
    return msg;
  }

  VerifyInstanceResult ToResult() const { return {verdict, detail}; }

  std::vector<uint8_t> Serialize() const {
    ByteWriter w;
    w.PutU32(instance_index);
    uint8_t v = static_cast<uint8_t>(verdict);
    w.PutBytes(&v, 1);
    w.PutU32(static_cast<uint32_t>(detail.size()));
    w.PutBytes(reinterpret_cast<const uint8_t*>(detail.data()),
               detail.size());
    return w.bytes();
  }

  static StatusOr<VerdictMessage> Deserialize(
      const std::vector<uint8_t>& bytes) {
    VerdictMessage msg;
    ByteReader r(bytes);
    ZAATAR_ASSIGN_OR_RETURN(msg.instance_index, r.GetU32());
    uint8_t v = 0;
    ZAATAR_RETURN_IF_ERROR(r.GetBytes(&v, 1));
    if (v >= kNumVerifyVerdicts) {
      return OutOfRangeError("verdict value out of range");
    }
    msg.verdict = static_cast<VerifyVerdict>(v);
    ZAATAR_ASSIGN_OR_RETURN(uint32_t len,
                            r.GetLength(1, kMaxVerdictDetailBytes));
    msg.detail.resize(len);
    ZAATAR_RETURN_IF_ERROR(
        r.GetBytes(reinterpret_cast<uint8_t*>(msg.detail.data()), len));
    ZAATAR_RETURN_IF_ERROR(r.ExpectEnd());
    return msg;
  }
};

}  // namespace protocol
}  // namespace zaatar

#endif  // SRC_PROTOCOL_MESSAGES_H_
