// The message-driven session layer: round trips and corruption sweeps for
// the three protocol messages, runtime phase enforcement in both state
// machines, full prover/verifier exchanges over a socketpair (including a
// two-threaded batch, which is the TSan CI target for this layer), and
// ProveBatch's pooled proving: byte-identical frames in the sequential
// order for every thread count.

#include "src/protocol/session.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/suite.h"
#include "src/compiler/compile.h"
#include "src/constraints/qap.h"
#include "src/constraints/transform.h"
#include "src/field/fields.h"
#include "src/pcp/zaatar_pcp.h"
#include "src/testing/fault_injection.h"
#include "src/util/parallel_for.h"
#include "tests/test_util.h"

namespace zaatar {
namespace {

using F = F128;
using Adapter = ZaatarAdapter<F>;
using protocol::ProverSession;
using protocol::SessionPhase;
using protocol::VerifierSession;

// A small honest Zaatar batch. Built in place (Qap points into
// transform.r1cs), never copied.
struct SessionFixture {
  Prg sys_prg;
  RandomSystem<F> rs;
  ZaatarTransform<F> transform;
  Qap<F> qap;
  ZaatarProof<F> proof;
  Prg setup_prg;
  VerifierSession<F, Adapter> verifier;

  explicit SessionFixture(uint64_t seed, size_t unbound = 8,
                          size_t constraints = 14)
      : sys_prg(seed),
        rs(MakeRandomSatisfiedSystem<F>(sys_prg, unbound, 2, 2, constraints)),
        transform(GingerToZaatar(rs.system)),
        qap(transform.r1cs),
        proof(BuildZaatarProof(qap, transform.ExtendAssignment(rs.assignment))),
        setup_prg(seed + 1),
        verifier(ZaatarPcp<F>::GenerateQueries(qap, PcpParams::Light(),
                                               setup_prg),
                 setup_prg) {}

  SessionFixture(const SessionFixture&) = delete;
  SessionFixture& operator=(const SessionFixture&) = delete;

  std::array<const std::vector<F>*, 2> Vectors() const {
    return {&proof.z, &proof.h};
  }
};

// ----- message round trips and corruption sweeps -----

// Every truncation point must yield a typed error.
template <typename Decode>
void ExpectTruncationSweepRejects(const std::vector<uint8_t>& bytes,
                                  Decode decode) {
  for (size_t len = 0; len < bytes.size(); len++) {
    auto corrupted = Corruptor::Truncate(bytes, len);
    auto result = decode(corrupted);
    ASSERT_FALSE(result.ok()) << "prefix of " << len << " bytes decoded";
    ASSERT_NE(result.status().code(), StatusCode::kOk);
  }
}

// Every single-bit flip must either fail with a typed error or decode to a
// message whose canonical re-encoding is exactly the corrupted bytes (the
// wire format carries no redundancy, so decode ∘ encode must be the
// identity on every accepted byte string) — and never crash.
template <typename Decode, typename Reencode>
void ExpectBitFlipSweepIsClean(const std::vector<uint8_t>& bytes,
                               Decode decode, Reencode reencode) {
  for (size_t bit = 0; bit < bytes.size() * 8; bit++) {
    auto corrupted = Corruptor::FlipBit(bytes, bit);
    auto result = decode(corrupted);
    if (result.ok()) {
      ASSERT_EQ(reencode(*result), corrupted)
          << "bit " << bit << " decoded non-canonically";
    } else {
      ASSERT_NE(result.status().code(), StatusCode::kOk);
    }
  }
}

// Field-for-field equality of two setup messages.
template <typename Field>
::testing::AssertionResult SameSetup(const protocol::SetupMessage<Field>& a,
                                     const protocol::SetupMessage<Field>& b) {
  if (a.pk.g != b.pk.g || a.pk.h != b.pk.h) {
    return ::testing::AssertionFailure() << "public keys differ";
  }
  for (size_t o = 0; o < 2; o++) {
    const auto& x = a.oracles[o];
    const auto& y = b.oracles[o];
    if (x.queries != y.queries || x.t != y.t ||
        x.enc_r.size() != y.enc_r.size()) {
      return ::testing::AssertionFailure() << "oracle " << o << " differs";
    }
    for (size_t i = 0; i < x.enc_r.size(); i++) {
      if (x.enc_r[i].c1 != y.enc_r[i].c1 || x.enc_r[i].c2 != y.enc_r[i].c2) {
        return ::testing::AssertionFailure()
               << "oracle " << o << " ciphertext " << i << " differs";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// The setup codec against its frozen reference on one input: the same
// status (code and message) or the same message, which must then re-encode
// to exactly the input (the format carries no redundancy).
template <typename Field>
::testing::AssertionResult DecodersAgree(const std::vector<uint8_t>& bytes) {
  using Msg = protocol::SetupMessage<Field>;
  auto codec = Msg::Deserialize(bytes);
  auto reference = Msg::DeserializeReference(bytes);
  if (codec.ok() != reference.ok() ||
      codec.status().ToString() != reference.status().ToString()) {
    return ::testing::AssertionFailure()
           << "codec " << codec.status().ToString() << ", reference "
           << reference.status().ToString();
  }
  if (!codec.ok()) {
    return ::testing::AssertionSuccess();
  }
  if (auto same = SameSetup(*codec, *reference); !same) {
    return same;
  }
  if (codec->Serialize() != bytes) {
    return ::testing::AssertionFailure() << "decoded non-canonically";
  }
  return ::testing::AssertionSuccess();
}

// Runs check(i) for every i < n on all hardware threads (the cases are
// independent) and fails with the lowest failing i's message.
template <typename Check>
void ExpectEveryCasePasses(size_t n, Check check) {
  std::mutex mu;
  size_t first_failure = n;
  std::string why;
  ParallelFor(n, HardwareThreads(), [&](size_t i) {
    ::testing::AssertionResult result = check(i);
    if (!result) {
      std::lock_guard<std::mutex> lock(mu);
      if (i < first_failure) {
        first_failure = i;
        why = result.message();
      }
    }
  });
  EXPECT_EQ(first_failure, n) << why;
}

TEST(ProtocolMessageTest, SetupMessageRoundTripAndSweeps) {
  // Tiny system: the sweeps decode the message twice per byte/bit.
  SessionFixture f(500, /*unbound=*/4, /*constraints=*/6);
  auto msg = f.verifier.setup().ToSetupMessage();
  auto bytes = f.verifier.setup().EncodeSetupMessage();
  ASSERT_LT(bytes.size(), protocol::kParallelSetupCodecBytes);
  EXPECT_EQ(bytes, msg.SerializeReference());
  EXPECT_EQ(bytes, msg.Serialize());

  auto decoded = protocol::SetupMessage<F>::Deserialize(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(SameSetup(*decoded, msg));

  // Every truncation is a typed error, and every single-bit flip either
  // fails or decodes canonically; both with the reference's outcome.
  ExpectEveryCasePasses(bytes.size(), [&](size_t len) {
    auto prefix = Corruptor::Truncate(bytes, len);
    if (protocol::SetupMessage<F>::Deserialize(prefix).ok()) {
      return ::testing::AssertionFailure()
             << "prefix of " << len << " bytes decoded";
    }
    return DecodersAgree<F>(prefix) << " (prefix of " << len << " bytes)";
  });
  ExpectEveryCasePasses(bytes.size() * 8, [&](size_t bit) {
    return DecodersAgree<F>(Corruptor::FlipBit(bytes, bit))
           << " (bit " << bit << ")";
  });
}

// A 272-byte frame: valid g and h, then per oracle n = 0 and 2^24 query
// rows. The rows are empty, so bounding the row count by n element widths
// checks nothing: the reference decoder accepts the frame and allocates
// 2 x 2^24 empty rows (770 MB). The codec charges every row at least one
// byte; empty rows that the frame's bytes do cover still decode.
TEST(ProtocolMessageTest, EmptyQueryRowsCannotOutnumberTheFrameBytes) {
  using Msg = protocol::SetupMessage<F>;
  const auto g = ElGamal<F>::Generator();
  auto frame = [&](uint32_t rows0, uint32_t rows1) {
    ByteWriter w;
    PutField(&w, g);
    PutField(&w, g);
    for (uint32_t rows : {rows0, rows1}) {
      w.PutU32(0);
      w.PutU32(rows);
    }
    return w.bytes();
  };
  const auto hostile = frame(kMaxWireVectorElements, kMaxWireVectorElements);
  ASSERT_EQ(hostile.size(), 272u);
  auto decoded = Msg::Deserialize(hostile);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kLengthOverflow);
  auto ctx = ProverContext<F>::FromBytes(hostile);
  ASSERT_FALSE(ctx.ok());
  EXPECT_EQ(ctx.status().code(), StatusCode::kLengthOverflow);

  // Oracle 0's 8 rows are covered by the 8 bytes of oracle 1's prefixes.
  const auto covered = frame(8, 0);
  ASSERT_TRUE(Msg::Deserialize(covered).ok());
  EXPECT_EQ(Msg::Deserialize(covered)->oracles[0].queries.size(), 8u);
  EXPECT_TRUE(DecodersAgree<F>(covered));
  EXPECT_EQ(Msg::Deserialize(frame(9, 0)).status().code(),
            StatusCode::kLengthOverflow);
}

// A frame above kParallelSetupCodecBytes, so the codec runs on threads:
// random contents, several query rows per oracle. Its encoding must be the
// reference's byte for byte, and its decoder must return the reference's
// first error when errors sit in different rows and sections.
template <typename Field>
void ExpectThreadedCodecMatchesReference(uint64_t seed) {
  using Msg = protocol::SetupMessage<Field>;
  using Zp = typename Msg::Zp;
  constexpr size_t kZp = Zp::kLimbs * 8;
  constexpr size_t kF = Field::kLimbs * 8;
  const size_t len[2] = {2000, 1500};
  const size_t rows[2] = {12, 9};

  Prg prg(seed);
  Msg msg;
  msg.pk.g = prg.NextField<Zp>();
  msg.pk.h = prg.NextField<Zp>();
  for (size_t o = 0; o < 2; o++) {
    auto& oracle = msg.oracles[o];
    for (size_t i = 0; i < len[o]; i++) {
      oracle.enc_r.push_back({prg.NextField<Zp>(), prg.NextField<Zp>()});
    }
    for (size_t k = 0; k < rows[o]; k++) {
      oracle.queries.push_back(prg.NextFieldVector<Field>(len[o]));
    }
    oracle.t = prg.NextFieldVector<Field>(len[o]);
  }
  const auto bytes = msg.SerializeReference();
  ASSERT_GE(bytes.size(), protocol::kParallelSetupCodecBytes);
  ASSERT_EQ(msg.Serialize(), bytes);
  ASSERT_TRUE(DecodersAgree<Field>(bytes));

  // Byte offsets of oracle 1's sections.
  const size_t oracle1 =
      2 * kZp + 8 + len[0] * 2 * kZp + (rows[0] + 1) * len[0] * kF;
  const size_t enc_r1 = oracle1 + 4;
  const size_t rows1 = enc_r1 + len[1] * 2 * kZp;
  const size_t queries1 = rows1 + 4;
  const size_t t1 = queries1 + rows[1] * len[1] * kF;
  ASSERT_EQ(t1 + len[1] * kF, bytes.size());

  // An out-of-range element in oracle 0's Enc(r), in oracle 1's query rows
  // or in oracle 1's t, and a corrupt prefix, a cut t and trailing bytes
  // after it.
  const size_t bad_enc_r0 = 2 * kZp + 4 + 1234 * 2 * kZp + kZp;
  const size_t bad_query1 = queries1 + (3 * len[1] + 700) * kF;
  const size_t cut_t1 = t1 + 17 * kF + 3;
  auto bad_element = [&](std::vector<uint8_t> b, size_t at, bool group) {
    return group ? Corruptor::PatchBigInt(b, at, Zp::kModulus)
                 : Corruptor::PatchBigInt(b, at, Field::kModulus);
  };
  const auto with_bad_query = bad_element(bytes, bad_query1, false);
  const std::vector<std::vector<uint8_t>> cases = {
      bad_element(bytes, bad_enc_r0, true),
      with_bad_query,
      Corruptor::Truncate(bytes, cut_t1),
      Corruptor::Truncate(with_bad_query, cut_t1),
      Corruptor::Truncate(bad_element(bytes, t1 + 16 * kF, false), cut_t1),
      Corruptor::Truncate(bad_element(bytes, t1 + 17 * kF, false), cut_t1),
      Corruptor::AppendGarbage(bytes, 5, prg),
      Corruptor::AppendGarbage(with_bad_query, 5, prg),
      Corruptor::PatchU32(bytes, rows1, 0xFFFFFFu),
      Corruptor::PatchU32(bad_element(bytes, bad_enc_r0, true), rows1,
                          0xFFFFFFu),
      Corruptor::PatchU32(with_bad_query, rows1, 0xFFFFFFu),
      Corruptor::PatchU32(bytes, enc_r1 - 4, static_cast<uint32_t>(len[1] + 1)),
  };
  for (size_t c = 0; c < cases.size(); c++) {
    EXPECT_FALSE(Msg::Deserialize(cases[c]).ok()) << "case " << c;
    EXPECT_TRUE(DecodersAgree<Field>(cases[c])) << "case " << c;
  }
}

TEST(ProtocolMessageTest, ThreadedSetupCodecMatchesReferenceF128) {
  ExpectThreadedCodecMatchesReference<F128>(505);
}

TEST(ProtocolMessageTest, ThreadedSetupCodecMatchesReferenceF220) {
  ExpectThreadedCodecMatchesReference<F220>(506);
}

TEST(ProtocolMessageTest, ProofMessageRoundTripAndSweeps) {
  SessionFixture f(501, /*unbound=*/4, /*constraints=*/6);
  auto bytes =
      ProveFrame<F>(f.verifier.setup().EncodeSetupMessage(), f.Vectors(), 7);

  auto decoded = protocol::ProofMessage<F>::Deserialize(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->instance_index, 7u);
  for (size_t o = 0; o < 2; o++) {
    EXPECT_EQ(decoded->responses[o].size(),
              Adapter::OracleQueries(f.verifier.setup().queries, o).size());
  }
  EXPECT_EQ(decoded->Serialize(), bytes);

  ExpectTruncationSweepRejects(bytes, [](const std::vector<uint8_t>& b) {
    return protocol::ProofMessage<F>::Deserialize(b);
  });
  ExpectBitFlipSweepIsClean(
      bytes,
      [](const std::vector<uint8_t>& b) {
        return protocol::ProofMessage<F>::Deserialize(b);
      },
      [](const protocol::ProofMessage<F>& m) { return m.Serialize(); });
}

TEST(ProtocolMessageTest, VerdictMessageRoundTripAndSweeps) {
  protocol::VerdictMessage msg = protocol::VerdictMessage::FromResult(
      3, VerifyInstanceResult::Reject(VerifyVerdict::kRejectCommit,
                                      "oracle 1 commitment inconsistent"));
  auto bytes = msg.Serialize();

  auto decoded = protocol::VerdictMessage::Deserialize(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->instance_index, 3u);
  EXPECT_EQ(decoded->verdict, VerifyVerdict::kRejectCommit);
  EXPECT_EQ(decoded->detail, "oracle 1 commitment inconsistent");

  ExpectTruncationSweepRejects(bytes, [](const std::vector<uint8_t>& b) {
    return protocol::VerdictMessage::Deserialize(b);
  });
  ExpectBitFlipSweepIsClean(
      bytes,
      [](const std::vector<uint8_t>& b) {
        return protocol::VerdictMessage::Deserialize(b);
      },
      [](const protocol::VerdictMessage& m) { return m.Serialize(); });

  // An out-of-taxonomy verdict value is typed, not UB.
  auto hostile = Corruptor::PatchU32(bytes, 4, 0xFFFFFFFFu);
  auto bad = protocol::VerdictMessage::Deserialize(hostile);
  ASSERT_FALSE(bad.ok());
}

TEST(ProtocolMessageTest, VerdictDetailIsBounded) {
  protocol::VerdictMessage msg;
  msg.verdict = VerifyVerdict::kMalformed;
  msg.detail.assign(protocol::kMaxVerdictDetailBytes + 1, 'x');
  auto bytes = msg.Serialize();
  auto decoded = protocol::VerdictMessage::Deserialize(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kLengthOverflow);

  // FromResult truncates instead of producing an unencodable message.
  VerifyInstanceResult r = VerifyInstanceResult::Reject(
      VerifyVerdict::kMalformed,
      std::string(2 * protocol::kMaxVerdictDetailBytes, 'y'));
  auto bounded = protocol::VerdictMessage::FromResult(0, r);
  EXPECT_EQ(bounded.detail.size(), protocol::kMaxVerdictDetailBytes);
  EXPECT_TRUE(protocol::VerdictMessage::Deserialize(bounded.Serialize()).ok());
}

// The prover's context reconstructed from bytes must equal the shared half
// of the verifier's setup — serialization loses nothing the prover needs.
TEST(ProtocolMessageTest, ProverContextFromBytesMatchesTheSetup) {
  SessionFixture f(502, /*unbound=*/4, /*constraints=*/6);
  const auto& setup = f.verifier.setup();
  auto from_bytes = ProverContext<F>::FromBytes(setup.EncodeSetupMessage());
  ASSERT_TRUE(from_bytes.ok()) << from_bytes.status().ToString();
  EXPECT_EQ(from_bytes->pk.g, setup.pk.g);
  EXPECT_EQ(from_bytes->pk.h, setup.pk.h);
  for (size_t o = 0; o < 2; o++) {
    EXPECT_EQ(from_bytes->oracles[o].queries,
              Adapter::OracleQueries(setup.queries, o));
    EXPECT_EQ(from_bytes->oracles[o].t, setup.shared[o].t);
    const auto& enc_r = setup.shared[o].enc_r;
    ASSERT_EQ(from_bytes->oracles[o].enc_r.size(), enc_r.size());
    for (size_t i = 0; i < enc_r.size(); i++) {
      EXPECT_EQ(from_bytes->oracles[o].enc_r[i].c1, enc_r[i].c1);
      EXPECT_EQ(from_bytes->oracles[o].enc_r[i].c2, enc_r[i].c2);
    }
  }

  // And a proof from a session built on those bytes is accepted by the
  // real verifier: the two parties prove and check the same material.
  ASSERT_TRUE(f.verifier.EmitSetup().ok());
  auto result = f.verifier.HandleProof(
      ProveFrame<F>(setup.EncodeSetupMessage(), f.Vectors()),
      f.rs.BoundValues());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->accepted()) << result->detail;
}

// Cross-field invariants the structural decoder cannot see are enforced in
// ProverContext::FromMessage.
TEST(ProtocolMessageTest, ProverContextRejectsInconsistentMessage) {
  SessionFixture f(503, /*unbound=*/4, /*constraints=*/6);
  {
    auto msg = f.verifier.setup().ToSetupMessage();
    msg.oracles[0].t.pop_back();
    auto ctx = ProverContext<F>::FromMessage(std::move(msg));
    ASSERT_FALSE(ctx.ok());
    EXPECT_EQ(ctx.status().code(), StatusCode::kMalformed);
  }
  {
    auto msg = f.verifier.setup().ToSetupMessage();
    if (!msg.oracles[1].queries.empty()) {
      msg.oracles[1].queries[0].push_back(F::One());
    }
    auto ctx = ProverContext<F>::FromMessage(std::move(msg));
    ASSERT_FALSE(ctx.ok());
    EXPECT_EQ(ctx.status().code(), StatusCode::kMalformed);
  }
}

// ----- the protocol's random bytes, pinned -----

// FNV-1a of the setup frame a VerifierSession emits for `app` at a fixed
// seed under PcpParams::Light(). The frame's queries, Enc(r) and t all come
// from the one setup Prg, so the digest pins its ChaCha20 keystream, the
// seed expansion and the order of the draws. Prover and verifier read the
// same queries, so a wrong but deterministic keystream would still ACCEPT;
// this is the test that sees it.
template <typename Field>
std::string SetupFrameDigest(const App<Field>& app) {
  const CompiledProgram<Field> program = CompileZlang<Field>(app.source);
  const Qap<Field> qap(program.zaatar.r1cs);
  Prg prg(0x5E7);
  VerifierSession<Field, ZaatarAdapter<Field>> verifier(
      ZaatarPcp<Field>::GenerateQueries(qap, PcpParams::Light(), prg), prg);
  auto frame = verifier.EmitSetup();
  if (!frame.ok()) {
    ADD_FAILURE() << frame.status().ToString();
    return "";
  }
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t c : *frame) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

// A change meant to keep every query, key and ciphertext must keep both
// digests; when the frame changes on purpose, the failure prints the new one.
TEST(SetupFramePinTest, LcsOnF128) {
  EXPECT_EQ(SetupFrameDigest(MakeLcsApp(3)), "9ff4fec1caa39372");
}

TEST(SetupFramePinTest, RootFindingOnF220) {
  EXPECT_EQ(SetupFrameDigest(MakeRootFindApp(2, 4)), "25318b52adc6d67e");
}

// ----- phase enforcement -----

TEST(ProtocolPhaseTest, VerifierSessionEnforcesPhases) {
  SessionFixture f(504);
  auto& v = f.verifier;

  // Commit/Decide operations before setup was emitted.
  auto early = v.HandleProof({}, {});
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.status().code(), StatusCode::kPhaseViolation);
  auto early_verdict = v.EmitVerdict();
  ASSERT_FALSE(early_verdict.ok());
  EXPECT_EQ(early_verdict.status().code(), StatusCode::kPhaseViolation);

  ASSERT_TRUE(v.EmitSetup().ok());
  EXPECT_EQ(v.phase(), SessionPhase::kCommit);

  // Setup is once per batch.
  auto again = v.EmitSetup();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kPhaseViolation);

  // A verdict can only follow a handled proof.
  auto no_proof = v.EmitVerdict();
  ASSERT_FALSE(no_proof.ok());
  EXPECT_EQ(no_proof.status().code(), StatusCode::kPhaseViolation);

  auto frame = ProveFrame<F>(v.setup().EncodeSetupMessage(), f.Vectors());
  auto result = v.HandleProof(frame, f.rs.BoundValues());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->accepted()) << result->detail;
  EXPECT_EQ(v.phase(), SessionPhase::kDecide);

  // Two proofs without an intervening verdict violate the cycle.
  auto second = v.HandleProof(frame, f.rs.BoundValues());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kPhaseViolation);

  ASSERT_TRUE(v.EmitVerdict().ok());
  EXPECT_EQ(v.phase(), SessionPhase::kCommit);
}

TEST(ProtocolPhaseTest, ProverSessionEnforcesPhases) {
  SessionFixture f(505);
  ProverSession<F> p;

  // Everything but setup is out of phase initially.
  auto early_commit = p.Commit(f.Vectors());
  EXPECT_EQ(early_commit.code(), StatusCode::kPhaseViolation);
  auto early_decommit = p.Decommit();
  ASSERT_FALSE(early_decommit.ok());
  EXPECT_EQ(early_decommit.status().code(), StatusCode::kPhaseViolation);
  auto early_verdict = p.IngestVerdict({});
  ASSERT_FALSE(early_verdict.ok());
  EXPECT_EQ(early_verdict.status().code(), StatusCode::kPhaseViolation);

  auto setup_bytes = f.verifier.EmitSetup();
  ASSERT_TRUE(setup_bytes.ok());
  ASSERT_TRUE(p.IngestSetup(*setup_bytes).ok());
  EXPECT_EQ(p.phase(), SessionPhase::kCommit);

  // Setup is once per batch; Decommit needs a commitment first.
  EXPECT_EQ(p.IngestSetup(*setup_bytes).code(),
            StatusCode::kPhaseViolation);
  auto no_commit = p.Decommit();
  ASSERT_FALSE(no_commit.ok());
  EXPECT_EQ(no_commit.status().code(), StatusCode::kPhaseViolation);

  ASSERT_TRUE(p.Commit(f.Vectors()).ok());
  EXPECT_EQ(p.phase(), SessionPhase::kDecommit);
  EXPECT_EQ(p.Commit(f.Vectors()).code(), StatusCode::kPhaseViolation);

  auto proof_bytes = p.Decommit();
  ASSERT_TRUE(proof_bytes.ok());
  EXPECT_EQ(p.phase(), SessionPhase::kDecide);

  // The verdict must be for the in-flight instance.
  auto result = f.verifier.HandleProof(*proof_bytes, f.rs.BoundValues());
  ASSERT_TRUE(result.ok());
  auto verdict_bytes = f.verifier.EmitVerdict();
  ASSERT_TRUE(verdict_bytes.ok());
  auto ingested = p.IngestVerdict(*verdict_bytes);
  ASSERT_TRUE(ingested.ok());
  EXPECT_TRUE(ingested->accepted());
  EXPECT_EQ(p.phase(), SessionPhase::kCommit);
  EXPECT_EQ(p.next_instance(), 1u);

  // Replaying instance 0's verdict against instance 1 is malformed.
  ASSERT_TRUE(p.Commit(f.Vectors()).ok());
  ASSERT_TRUE(p.Decommit().ok());
  auto replay = p.IngestVerdict(*verdict_bytes);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kMalformed);
}

// The prover rejects vectors whose shape disagrees with the ingested setup
// before any cryptography runs.
TEST(ProtocolPhaseTest, ProverValidatesVectorShapes) {
  SessionFixture f(506);
  ProverSession<F> p;
  auto setup_bytes = f.verifier.EmitSetup();
  ASSERT_TRUE(setup_bytes.ok());
  ASSERT_TRUE(p.IngestSetup(*setup_bytes).ok());

  std::vector<F> short_z(f.proof.z.begin(), f.proof.z.end() - 1);
  auto bad = p.Commit({&short_z, &f.proof.h});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kMalformed);
  EXPECT_EQ(p.phase(), SessionPhase::kCommit);  // still usable

  ASSERT_TRUE(p.Commit(f.Vectors()).ok());
}

// ----- hostile bytes into a live verifier session -----

// Undecodable or replayed proof frames consume the instance slot with a
// kMalformed verdict and leave the session able to verify the next honest
// instance — the PR-1 batch isolation contract at the session layer.
TEST(ProtocolSessionTest, HostileProofBytesAreIsolatedPerInstance) {
  SessionFixture f(507);
  auto& v = f.verifier;
  ASSERT_TRUE(v.EmitSetup().ok());

  auto hostile = v.HandleProof({0xFF, 0x00, 0xBA, 0xAD}, f.rs.BoundValues());
  ASSERT_TRUE(hostile.ok());
  EXPECT_EQ(hostile->verdict, VerifyVerdict::kMalformed);
  ASSERT_TRUE(v.EmitVerdict().ok());

  // Instance 1: an honest proof labeled as instance 0 (a replay).
  const std::vector<uint8_t> setup_frame = v.setup().EncodeSetupMessage();
  auto replay = v.HandleProof(ProveFrame<F>(setup_frame, f.Vectors(), 0),
                              f.rs.BoundValues());
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->verdict, VerifyVerdict::kMalformed);
  ASSERT_TRUE(v.EmitVerdict().ok());

  // Instance 2: honest and correctly labeled — accepted.
  auto honest = v.HandleProof(ProveFrame<F>(setup_frame, f.Vectors(), 2),
                              f.rs.BoundValues());
  ASSERT_TRUE(honest.ok());
  EXPECT_TRUE(honest->accepted()) << honest->detail;

  ASSERT_EQ(v.results().size(), 3u);
  EXPECT_FALSE(v.results()[0].accepted());
  EXPECT_FALSE(v.results()[1].accepted());
  EXPECT_TRUE(v.results()[2].accepted());
}

// ----- transports -----

TEST(ProtocolTransportTest, PipePreservesFramesAcrossThreads) {
  auto pair_or = protocol::PipeTransport::CreatePair();
  ASSERT_TRUE(pair_or.ok()) << pair_or.status().ToString();
  auto pair = std::move(*pair_or);

  // A frame larger than a socket buffer forces partial writes/reads, so the
  // sender must run concurrently with the receiver.
  std::vector<uint8_t> big(1 << 21);
  for (size_t i = 0; i < big.size(); i++) {
    big[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  std::thread sender([&] {
    ASSERT_TRUE(pair.left->Send(big).ok());
    ASSERT_TRUE(pair.left->Send({9, 9, 9}).ok());
    ASSERT_TRUE(pair.left->Send({}).ok());  // empty frames are legal
    pair.left->Close();
  });
  auto got = pair.right->Receive();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, big);
  auto small = pair.right->Receive();
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(*small, (std::vector<uint8_t>{9, 9, 9}));
  auto empty = pair.right->Receive();
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(empty->empty());
  auto eof = pair.right->Receive();
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kTruncated);
  // The peer has closed, so a send fails as a channel failure.
  Status send_after = pair.right->Send({9, 9, 9});
  EXPECT_TRUE(protocol::IsTransportFailure(send_after))
      << send_after.ToString();
  sender.join();
}

// A hostile peer writing a raw length prefix over the cap must get a typed
// overflow before the receiver allocates anything. The public Send() always
// writes honest prefixes, so the hostile side writes to the socket directly.
TEST(ProtocolTransportTest, PipeRejectsHostileLengthPrefix) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  protocol::PipeTransport receiver(fds[0]);
  const uint8_t evil[4] = {0xFF, 0xFF, 0xFF, 0xFF};  // ~4 GiB claim
  ASSERT_EQ(::send(fds[1], evil, 4, 0), 4);
  auto got = receiver.Receive();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kLengthOverflow);
  ::close(fds[1]);
}

// A truncated frame (honest prefix, missing body) is a typed truncation.
TEST(ProtocolTransportTest, PipeRejectsTruncatedFrame) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  protocol::PipeTransport receiver(fds[0]);
  const uint8_t header[4] = {16, 0, 0, 0};  // claims 16 bytes
  ASSERT_EQ(::send(fds[1], header, 4, 0), 4);
  const uint8_t body[8] = {1, 2, 3, 4, 5, 6, 7, 8};  // only 8 arrive
  ASSERT_EQ(::send(fds[1], body, 8, 0), 8);
  ::shutdown(fds[1], SHUT_WR);
  auto got = receiver.Receive();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kTruncated);
  ::close(fds[1]);
}

// ----- full exchanges -----

// Drives a beta-instance batch with the prover on its own thread over the
// given transport pair; asserts both sides agree and everything accepts.
void RunTwoThreadedBatch(SessionFixture& f, protocol::TransportPair pair,
                         size_t beta) {
  std::vector<VerifyInstanceResult> prover_seen;
  std::thread prover_thread([&] {
    ProverSession<F> session;
    ASSERT_TRUE(session.ReceiveSetup(*pair.right).ok());
    Status st = session.ProveBatch(
        *pair.right, static_cast<uint32_t>(beta), /*threads=*/1,
        [&](uint32_t) {
          return ProverSession<F>::OwnedVectors{f.proof.z, f.proof.h};
        });
    ASSERT_TRUE(st.ok()) << st.ToString();
    prover_seen = session.verdicts();
  });

  ASSERT_TRUE(f.verifier.SendSetup(*pair.left).ok());
  for (size_t i = 0; i < beta; i++) {
    auto result = f.verifier.DecideNext(*pair.left, f.rs.BoundValues());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->accepted()) << "instance " << i << ": "
                                    << result->detail;
  }
  prover_thread.join();

  ASSERT_EQ(prover_seen.size(), beta);
  ASSERT_EQ(f.verifier.results().size(), beta);
  for (size_t i = 0; i < beta; i++) {
    EXPECT_EQ(prover_seen[i].verdict, f.verifier.results()[i].verdict);
    EXPECT_TRUE(prover_seen[i].accepted());
  }
  EXPECT_GT(f.verifier.setup_bytes_sent(), 0u);
  EXPECT_GT(f.verifier.proof_bytes_received(), 0u);
}

TEST(ProtocolSessionTest, TwoThreadedBatchOverSocketpair) {
  SessionFixture f(509);
  auto pair = protocol::PipeTransport::CreatePair();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  RunTwoThreadedBatch(f, std::move(*pair), 3);
}

// A cheating prover over the real transport: the tampered instance gets its
// typed reject delivered as a VerdictMessage, honest neighbors accept.
TEST(ProtocolSessionTest, CheatingInstanceGetsTypedVerdictOverTransport) {
  SessionFixture f(510);
  auto pair_or = protocol::PipeTransport::CreatePair();
  ASSERT_TRUE(pair_or.ok()) << pair_or.status().ToString();
  auto pair = std::move(*pair_or);

  std::vector<VerifyInstanceResult> prover_seen;
  std::thread prover_thread([&] {
    ProverSession<F> session;
    ASSERT_TRUE(session.ReceiveSetup(*pair.right).ok());
    for (size_t i = 0; i < 3; i++) {
      ASSERT_TRUE(session.Commit(f.Vectors()).ok());
      auto frame = session.Decommit();
      ASSERT_TRUE(frame.ok());
      if (i == 1) {
        // Committed honestly; tamper with a response after the fact.
        auto msg = protocol::ProofMessage<F>::Deserialize(*frame);
        ASSERT_TRUE(msg.ok());
        msg->responses[0][0] += F::One();
        *frame = msg->Serialize();
      }
      ASSERT_TRUE(pair.right->Send(*frame).ok());
      auto bytes = pair.right->Receive();
      ASSERT_TRUE(bytes.ok());
      auto verdict = session.IngestVerdict(*bytes);
      ASSERT_TRUE(verdict.ok());
      prover_seen.push_back(*verdict);
    }
  });

  ASSERT_TRUE(f.verifier.SendSetup(*pair.left).ok());
  for (size_t i = 0; i < 3; i++) {
    auto result = f.verifier.DecideNext(*pair.left, f.rs.BoundValues());
    ASSERT_TRUE(result.ok());
  }
  prover_thread.join();

  ASSERT_EQ(prover_seen.size(), 3u);
  EXPECT_EQ(prover_seen[0].verdict, VerifyVerdict::kAccept);
  EXPECT_EQ(prover_seen[1].verdict, VerifyVerdict::kRejectCommit);
  EXPECT_EQ(prover_seen[2].verdict, VerifyVerdict::kAccept);
}

// ----- proving a batch on a pool -----

// The fixture's instance, with h tampered when `cheat` is set (the verifier
// then rejects it).
ProverSession<F>::OwnedVectors InstanceVectors(const SessionFixture& f,
                                               bool cheat) {
  ProverSession<F>::OwnedVectors v{f.proof.z, f.proof.h};
  if (cheat) {
    v[1][0] += F::One();
  }
  return v;
}

// The one-at-a-time Commit/Decommit loop against the fixture's verifier, in
// process: the proof frames in order, instance `cheat_at` tampered.
std::vector<std::vector<uint8_t>> SequentialFrames(SessionFixture& f,
                                                   uint32_t beta,
                                                   uint32_t cheat_at) {
  ProverSession<F> p;
  EXPECT_TRUE(p.IngestSetup(*f.verifier.EmitSetup()).ok());
  std::vector<std::vector<uint8_t>> frames;
  for (uint32_t i = 0; i < beta; i++) {
    const auto v = InstanceVectors(f, i == cheat_at);
    EXPECT_TRUE(p.Commit({&v[0], &v[1]}).ok());
    auto frame = p.Decommit();
    EXPECT_TRUE(frame.ok());
    frames.push_back(*frame);
    EXPECT_TRUE(f.verifier.HandleProof(*frame, f.rs.BoundValues()).ok());
    EXPECT_TRUE(p.IngestVerdict(*f.verifier.EmitVerdict()).ok());
  }
  return frames;
}

// The same batch through ProveBatch on `threads` threads.
std::vector<std::vector<uint8_t>> PooledFrames(SessionFixture& f,
                                               uint32_t beta, size_t threads,
                                               uint32_t cheat_at) {
  ProverSession<F> p;
  EXPECT_TRUE(p.IngestSetup(*f.verifier.EmitSetup()).ok());
  std::vector<std::vector<uint8_t>> frames;
  Status st = p.ProveBatch(
      beta, threads,
      [&](uint32_t i) { return InstanceVectors(f, i == cheat_at); },
      [&](uint32_t i, const std::vector<uint8_t>& frame)
          -> StatusOr<std::vector<uint8_t>> {
        EXPECT_EQ(i, frames.size());
        frames.push_back(frame);
        ZAATAR_RETURN_IF_ERROR(
            f.verifier.HandleProof(frame, f.rs.BoundValues()).status());
        return f.verifier.EmitVerdict();
      });
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(p.next_instance(), beta);
  EXPECT_EQ(p.verdicts().size(), beta);
  return frames;
}

// Every (threads, beta) shape — one instance per thread, more threads than
// instances (each instance's commitment and answers split the spare
// threads), a single instance on every thread — sends the sequential
// loop's frames and gets its verdicts.
TEST(ProtocolPoolTest, FramesAndVerdictsMatchTheSequentialLoop) {
  const uint32_t kBeta = 7;
  const uint32_t kCheat = 3;
  std::vector<std::vector<uint8_t>> reference;
  {
    SessionFixture f(521);
    reference = SequentialFrames(f, kBeta, kCheat);
  }
  const std::pair<size_t, uint32_t> kShapes[] = {
      {1, kBeta}, {2, kBeta}, {4, kBeta}, {16, kBeta}, {4, 1}};
  for (auto [threads, beta] : kShapes) {
    SessionFixture f(521);
    auto frames = PooledFrames(f, beta, threads, kCheat);
    ASSERT_EQ(frames.size(), beta) << "threads=" << threads;
    for (uint32_t i = 0; i < beta; i++) {
      EXPECT_EQ(frames[i], reference[i])
          << "threads=" << threads << " instance " << i;
      EXPECT_EQ(f.verifier.results()[i].accepted(), i != kCheat)
          << "threads=" << threads << " instance " << i;
    }
  }
}

TEST(ProtocolPoolTest, StopsAtTheFirstFailureInInstanceOrder) {
  // A build that throws: every earlier instance was exchanged, no later one.
  {
    SessionFixture f(522);
    ProverSession<F> p;
    ASSERT_TRUE(p.IngestSetup(*f.verifier.EmitSetup()).ok());
    size_t exchanged = 0;
    EXPECT_THROW(
        (void)p.ProveBatch(
            8, 4,
            [&](uint32_t i) {
              if (i == 3) {
                throw std::runtime_error("local bug");
              }
              return ProverSession<F>::OwnedVectors{f.proof.z, f.proof.h};
            },
            [&](uint32_t, const std::vector<uint8_t>& frame)
                -> StatusOr<std::vector<uint8_t>> {
              exchanged++;
              ZAATAR_RETURN_IF_ERROR(
                  f.verifier.HandleProof(frame, f.rs.BoundValues()).status());
              return f.verifier.EmitVerdict();
            }),
        std::runtime_error);
    EXPECT_EQ(exchanged, 3u);
    EXPECT_EQ(p.next_instance(), 3u);
  }
  // A failing exchange: its status comes back and nothing follows it.
  {
    SessionFixture f(523);
    ProverSession<F> p;
    ASSERT_TRUE(p.IngestSetup(*f.verifier.EmitSetup()).ok());
    size_t exchanged = 0;
    Status st = p.ProveBatch(
        8, 4,
        [&](uint32_t) {
          return ProverSession<F>::OwnedVectors{f.proof.z, f.proof.h};
        },
        [&](uint32_t i, const std::vector<uint8_t>& frame)
            -> StatusOr<std::vector<uint8_t>> {
          exchanged++;
          if (i == 2) {
            return TruncatedError("peer went away");
          }
          ZAATAR_RETURN_IF_ERROR(
              f.verifier.HandleProof(frame, f.rs.BoundValues()).status());
          return f.verifier.EmitVerdict();
        });
    EXPECT_EQ(st.code(), StatusCode::kTruncated);
    EXPECT_EQ(exchanged, 3u);
    EXPECT_EQ(p.verdicts().size(), 2u);
  }
  // Vectors that disagree with the setup: the shape error comes back in
  // order, before any cryptography runs for that instance.
  {
    SessionFixture f(526);
    ProverSession<F> p;
    ASSERT_TRUE(p.IngestSetup(*f.verifier.EmitSetup()).ok());
    size_t exchanged = 0;
    Status st = p.ProveBatch(
        4, 4,
        [&](uint32_t i) {
          auto v = InstanceVectors(f, false);
          if (i == 1) {
            v[0].pop_back();
          }
          return v;
        },
        [&](uint32_t, const std::vector<uint8_t>& frame)
            -> StatusOr<std::vector<uint8_t>> {
          exchanged++;
          ZAATAR_RETURN_IF_ERROR(
              f.verifier.HandleProof(frame, f.rs.BoundValues()).status());
          return f.verifier.EmitVerdict();
        });
    EXPECT_EQ(st.code(), StatusCode::kMalformed);
    EXPECT_EQ(exchanged, 1u);
  }
}

TEST(ProtocolPoolTest, ProveBatchNeedsTheSetupAndResumes) {
  SessionFixture f(524);
  ProverSession<F> p;
  auto build = [&](uint32_t) {
    return ProverSession<F>::OwnedVectors{f.proof.z, f.proof.h};
  };
  auto pair = protocol::PipeTransport::CreatePair();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  EXPECT_EQ(p.ProveBatch(*pair->right, 3, 4, build).code(),
            StatusCode::kPhaseViolation);

  // A resumed session starts at its resume index; an empty range is a no-op.
  ASSERT_TRUE(p.IngestSetup(*f.verifier.EmitSetup()).ok());
  ASSERT_TRUE(p.StartAtInstance(3).ok());
  EXPECT_TRUE(p.ProveBatch(*pair->right, 3, 4, build).ok());
  std::vector<uint32_t> indices;
  Status st = p.ProveBatch(
      5, 4, build,
      [&](uint32_t i, const std::vector<uint8_t>& frame)
          -> StatusOr<std::vector<uint8_t>> {
        indices.push_back(i);
        auto msg = protocol::ProofMessage<F>::Deserialize(frame);
        EXPECT_TRUE(msg.ok());
        EXPECT_EQ(msg->instance_index, i);
        return protocol::VerdictMessage::FromResult(
                   i, VerifyInstanceResult::Accept())
            .Serialize();
      });
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(indices, (std::vector<uint32_t>{3, 4}));
}

// The pooled prover over a real socketpair, with the verifier on the
// calling thread (a TSan target alongside TwoThreadedBatchOverSocketpair).
TEST(ProtocolPoolTest, PooledBatchOverSocketpair) {
  SessionFixture f(525);
  auto pair = protocol::PipeTransport::CreatePair();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  const uint32_t kBeta = 6;
  Status prover_status;
  std::thread prover_thread([&] {
    ProverSession<F> session;
    prover_status = session.ReceiveSetup(*pair->right);
    if (prover_status.ok()) {
      prover_status = session.ProveBatch(*pair->right, kBeta, 4, [&](uint32_t) {
        return ProverSession<F>::OwnedVectors{f.proof.z, f.proof.h};
      });
    }
  });
  ASSERT_TRUE(f.verifier.SendSetup(*pair->left).ok());
  for (uint32_t i = 0; i < kBeta; i++) {
    auto result = f.verifier.DecideNext(*pair->left, f.rs.BoundValues());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->accepted()) << "instance " << i;
  }
  prover_thread.join();
  EXPECT_TRUE(prover_status.ok()) << prover_status.ToString();
}

}  // namespace
}  // namespace zaatar
