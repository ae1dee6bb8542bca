// The adversarial-robustness suite: every corruption class in
// src/testing/fault_injection.h is sent through VerifierSession::HandleProof,
// the decoder and decision that settle every real verdict, and every
// injected fault must produce a clean typed reject/malformed verdict — never
// a crash, hang, false accept, or exception out of the ingest path. Run
// under ASan/UBSan via -DZAATAR_SANITIZE (scripts/ci.sh) to also rule out
// silent UB.

#include "src/testing/fault_injection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>

#include "src/analysis/analyzer.h"
#include "src/argument/argument.h"
#include "src/compiler/compile.h"
#include "src/constraints/qap.h"
#include "src/constraints/transform.h"
#include "src/field/fields.h"
#include "src/protocol/verifier_session.h"
#include "tests/test_util.h"

namespace zaatar {
namespace {

using F = F128;
using Adapter = ZaatarAdapter<F>;
using Arg = ZaatarArgument<F>;
using protocol::ProofMessage;
using protocol::VerifierSession;

// One honest setup plus a decoy (a second batch over the same computation:
// same public-coin queries, fresh keys and secrets), each with the frame a
// prover receives. Built in place by the constructor: Qap holds a pointer
// to transform.r1cs, so the fixture must never be copied or moved.
struct FaultFixture {
  Prg sys_prg;
  RandomSystem<F> rs;
  ZaatarTransform<F> transform;
  Qap<F> qap;
  std::shared_ptr<const Arg::VerifierSetup> setup;
  std::vector<uint8_t> setup_frame;
  std::vector<uint8_t> decoy_frame;
  ZaatarProof<F> proof;

  explicit FaultFixture(uint64_t seed)
      : sys_prg(seed),
        rs(MakeRandomSatisfiedSystem<F>(sys_prg, 8, 2, 2, 14)),
        transform(GingerToZaatar(rs.system)),
        qap(transform.r1cs) {
    const uint64_t kQuerySeed = seed ^ 0xC0FFEE;
    Prg q1(kQuerySeed), s1(seed + 1);
    setup = std::make_shared<const Arg::VerifierSetup>(Arg::Setup(
        ZaatarPcp<F>::GenerateQueries(qap, PcpParams::Light(), q1), s1));
    setup_frame = setup->EncodeSetupMessage();
    Prg q2(kQuerySeed), s2(seed + 2);
    decoy_frame =
        Arg::Setup(ZaatarPcp<F>::GenerateQueries(qap, PcpParams::Light(), q2),
                   s2)
            .EncodeSetupMessage();
    proof = BuildZaatarProof(qap, transform.ExtendAssignment(rs.assignment));
  }

  FaultFixture(const FaultFixture&) = delete;
  FaultFixture& operator=(const FaultFixture&) = delete;

  std::array<const std::vector<F>*, 2> Vectors() const {
    return {&proof.z, &proof.h};
  }

  MaliciousProver<F> Prover() const {
    return MaliciousProver<F>(setup_frame, decoy_frame, Vectors());
  }

  // A fresh session per frame, so every frame is instance 0's.
  VerifyInstanceResult Verify(const std::vector<uint8_t>& frame,
                              const std::vector<F>& bound_values) const {
    VerifierSession<F, Adapter> verifier(setup);
    return verifier.HandleProof(frame, bound_values).value();
  }
  VerifyInstanceResult Verify(const std::vector<uint8_t>& frame) const {
    return Verify(frame, rs.BoundValues());
  }
};

// The honest frame, decoded, edited by `edit`, and re-serialized.
template <typename Edit>
std::vector<uint8_t> EditedFrame(const MaliciousProver<F>& mp, Edit edit) {
  ProofMessage<F> msg = mp.HonestMessage();
  edit(msg);
  return msg.Serialize();
}

TEST(FaultInjectionTest, HonestTranscriptAccepts) {
  FaultFixture f(400);
  auto mp = f.Prover();
  auto result = f.Verify(mp.HonestBytes());
  EXPECT_EQ(result.verdict, VerifyVerdict::kAccept) << result.detail;
}

// The acceptance criterion of the whole harness: every fault class, many
// sampled corruptions each, all rejected with a verdict from the class's
// expected set.
TEST(FaultInjectionTest, EveryFaultClassYieldsTypedReject) {
  FaultFixture f(401);
  auto mp = f.Prover();
  Prg prg(402);
  for (FaultClass c : kAllFaultClasses) {
    auto expected = MaliciousProver<F>::ExpectedVerdicts(c);
    for (int trial = 0; trial < 25; trial++) {
      auto bytes = mp.Emit(c, prg);
      auto result = f.Verify(bytes);
      ASSERT_FALSE(result.accepted())
          << FaultClassName(c) << " trial " << trial << " was accepted";
      EXPECT_NE(std::find(expected.begin(), expected.end(), result.verdict),
                expected.end())
          << FaultClassName(c) << " trial " << trial << " verdict "
          << VerifyVerdictName(result.verdict) << " (" << result.detail
          << ") not in expected set";
    }
  }
}

// Satellite: every truncation point of the proof frame is a kMalformed
// verdict. (ProtocolMessageTest.SetupMessageRoundTripAndSweeps truncates
// the setup frame at every point.)
TEST(FaultInjectionTest, EveryTruncationPointIsHandled) {
  FaultFixture f(403);
  auto mp = f.Prover();
  const auto& bytes = mp.HonestBytes();
  for (size_t len = 0; len < bytes.size(); len++) {
    auto truncated = Corruptor::Truncate(bytes, len);
    auto result = f.Verify(truncated);
    ASSERT_EQ(result.verdict, VerifyVerdict::kMalformed)
        << "truncation at " << len << "/" << bytes.size();
  }
}

// Satellite: 1k random single-byte mutations of the instance proof — decode
// error or verifier reject, never a crash or accept. (Under ASan/UBSan this
// also proves the absence of silent out-of-bounds reads.)
TEST(FaultInjectionTest, RandomByteMutationsOfInstanceProofNeverAccept) {
  FaultFixture f(404);
  auto mp = f.Prover();
  const auto& bytes = mp.HonestBytes();
  Prg prg(405);
  for (int trial = 0; trial < 1000; trial++) {
    auto corrupted = Corruptor::MutateByte(
        bytes, prg.NextBounded(bytes.size()),
        static_cast<uint8_t>(1 + prg.NextBounded(255)));
    auto result = f.Verify(corrupted);
    ASSERT_FALSE(result.accepted()) << "mutation trial " << trial;
  }
}

// Satellite: 1k random single-byte mutations of the setup frame — the
// prover-side decoder returns a typed status on every input, and a decode
// that still succeeds re-serializes canonically (no smuggled non-canonical
// state survives a round-trip).
TEST(FaultInjectionTest, RandomByteMutationsOfSetupMessageNeverCrash) {
  FaultFixture f(406);
  Prg prg(407);
  size_t decoded_ok = 0;
  for (int trial = 0; trial < 1000; trial++) {
    auto corrupted = Corruptor::MutateByte(
        f.setup_frame, prg.NextBounded(f.setup_frame.size()),
        static_cast<uint8_t>(1 + prg.NextBounded(255)));
    auto decoded = protocol::SetupMessage<F>::Deserialize(corrupted);
    if (decoded.ok()) {
      decoded_ok++;
      auto reencoded = decoded->Serialize();
      ASSERT_EQ(reencoded, corrupted) << "non-canonical decode, trial "
                                      << trial;
    }
  }
  // Most mutations land inside element payloads and keep the structure
  // decodable; the point is that none of the 1k crashed or mis-decoded.
  EXPECT_GT(decoded_ok, 0u);
}

// A mutated-but-decodable setup frame must not lead the prover into
// producing an accepted proof: a prover session ingests each corrupted
// frame, proves, and the real verifier decides. The mutations skip g and
// h, which the prover never uses. A mutation at a coordinate where the
// proof vector is 0 leaves the proof honest, so it must be accepted.
TEST(FaultInjectionTest, ProofsUnderMutatedSetupAreRejected) {
  FaultFixture f(408);
  using Zp = ElGamal<F>::Zp;
  const size_t kZp = Zp::kLimbs * 8, kF = F::kLimbs * 8;
  const auto vectors = f.Vectors();
  // Where oracle o's Enc(r) and query rows start, each after its u32
  // length prefix, and where the oracle ends (t follows the rows).
  std::array<size_t, 2> enc_r_at{}, rows_at{}, end_at{};
  size_t at = 2 * kZp;
  for (size_t o = 0; o < 2; o++) {
    const size_t n = vectors[o]->size();
    const size_t rows = Adapter::OracleQueries(f.setup->queries, o).size();
    enc_r_at[o] = at + 4;
    rows_at[o] = enc_r_at[o] + n * 2 * kZp + 4;
    end_at[o] = rows_at[o] + (rows + 1) * n * kF;
    at = end_at[o];
  }
  ASSERT_EQ(at, f.setup_frame.size());
  // The proof-vector coordinate a payload byte feeds, or -1 for a prefix.
  auto coordinate = [&](size_t o, size_t pos) -> ptrdiff_t {
    const size_t n = vectors[o]->size();
    if (pos >= enc_r_at[o] && pos < rows_at[o] - 4) {
      return static_cast<ptrdiff_t>((pos - enc_r_at[o]) / (2 * kZp));
    }
    if (pos >= rows_at[o]) {
      return static_cast<ptrdiff_t>((pos - rows_at[o]) / kF % n);
    }
    return -1;
  };

  Prg prg(409);
  int rejected = 0;
  for (int trial = 0; trial < 200 && rejected < 10; trial++) {
    const size_t pos = 2 * kZp + prg.NextBounded(at - 2 * kZp);
    auto corrupted = Corruptor::MutateByte(
        f.setup_frame, pos, static_cast<uint8_t>(1 + prg.NextBounded(255)));
    protocol::ProverSession<F> prover;
    if (!prover.IngestSetup(corrupted).ok() ||
        !prover.Commit(vectors).ok()) {
      continue;  // a typed refusal: the prover proves nothing
    }
    auto frame = prover.Decommit();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    const size_t o = pos < end_at[0] ? 0 : 1;
    const ptrdiff_t i = coordinate(o, pos);
    ASSERT_GE(i, 0) << "a decodable frame with a mutated prefix, trial "
                    << trial;
    auto result = f.Verify(*frame);
    if ((*vectors[o])[i] == F::Zero()) {
      EXPECT_TRUE(result.accepted()) << "trial " << trial << ": "
                                     << result.detail;
    } else {
      EXPECT_EQ(result.verdict, VerifyVerdict::kRejectCommit)
          << "mutated-setup trial " << trial;
      rejected++;
    }
  }
  EXPECT_EQ(rejected, 10);
}

// Shape violations are caught before any cryptography: wrong response
// counts and wrong bound-value counts are kMalformed, not UB.
TEST(FaultInjectionTest, MalformedProofShapesAreScreened) {
  FaultFixture f(410);
  auto mp = f.Prover();
  EXPECT_EQ(f.Verify(EditedFrame(mp, [](ProofMessage<F>& msg) {
                       msg.responses[0].pop_back();
                     })).verdict,
            VerifyVerdict::kMalformed);
  EXPECT_EQ(f.Verify(EditedFrame(mp, [](ProofMessage<F>& msg) {
                       msg.responses[1].push_back(F::One());
                     })).verdict,
            VerifyVerdict::kMalformed);
  auto bound = f.rs.BoundValues();
  bound.pop_back();
  EXPECT_EQ(f.Verify(mp.HonestBytes(), bound).verdict,
            VerifyVerdict::kMalformed);
  EXPECT_EQ(f.Verify(ProofMessage<F>{}.Serialize()).verdict,
            VerifyVerdict::kMalformed);
}

// The PCP decision procedures screen response-vector shape themselves (the
// checks that used to be assert()-only): a short or long response vector is
// a clean reject in every build mode, and the underlying validators report
// typed kShapeMismatch. This is the layer below Argument's own screening —
// exercised directly so a future caller that skips Argument stays safe.
TEST(FaultInjectionTest, PcpDecideRejectsWrongResponseCounts) {
  FaultFixture f(415);
  VectorOracle<F> z(f.proof.z), h(f.proof.h);
  std::vector<F> z_resp = z.QueryAll(f.setup->queries.z_queries);
  std::vector<F> h_resp = h.QueryAll(f.setup->queries.h_queries);
  ASSERT_TRUE(ZaatarPcp<F>::Decide(f.setup->queries, z_resp, h_resp,
                                   f.rs.BoundValues()));

  auto short_z = z_resp;
  short_z.pop_back();
  EXPECT_FALSE(ZaatarPcp<F>::Decide(f.setup->queries, short_z, h_resp,
                                    f.rs.BoundValues()));
  auto long_h = h_resp;
  long_h.push_back(F::One());
  EXPECT_FALSE(ZaatarPcp<F>::Decide(f.setup->queries, z_resp, long_h,
                                    f.rs.BoundValues()));

  Status s = ZaatarPcp<F>::ValidateResponseShape(f.setup->queries, short_z,
                                                 h_resp);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kShapeMismatch);
  EXPECT_TRUE(
      ZaatarPcp<F>::ValidateResponseShape(f.setup->queries, z_resp, h_resp)
          .ok());
}

TEST(FaultInjectionTest, GingerPcpDecideRejectsWrongResponseCounts) {
  Prg prg(416);
  auto rs = MakeRandomSatisfiedSystem<F>(prg, 8, 2, 2, 14);
  auto inst = BuildGingerPcpInstance(rs.system);
  auto queries = GingerPcp<F>::GenerateQueries(inst, PcpParams::Light(), prg);
  auto proof = BuildGingerProof(inst, rs.assignment);
  VectorOracle<F> z(proof.z), tensor(proof.tensor);
  std::vector<F> resp1 = z.QueryAll(queries.pi1_queries);
  std::vector<F> resp2 = tensor.QueryAll(queries.pi2_queries);
  ASSERT_TRUE(
      GingerPcp<F>::Decide(queries, resp1, resp2, rs.BoundValues()));

  auto short1 = resp1;
  short1.pop_back();
  EXPECT_FALSE(GingerPcp<F>::Decide(queries, short1, resp2, rs.BoundValues()));

  Status s = GingerPcp<F>::ValidateResponseShape(queries, short1, resp2);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kShapeMismatch);
}

// The verdict taxonomy separates the three reject layers.
TEST(FaultInjectionTest, VerdictTaxonomyDistinguishesLayers) {
  FaultFixture f(411);
  auto mp = f.Prover();

  // Honest: accept.
  EXPECT_EQ(f.Verify(mp.HonestBytes()).verdict, VerifyVerdict::kAccept);

  // Tampered response (commitment now inconsistent): REJECT_COMMIT.
  EXPECT_EQ(f.Verify(EditedFrame(mp, [](ProofMessage<F>& msg) {
                       msg.responses[0][0] += F::One();
                     })).verdict,
            VerifyVerdict::kRejectCommit);

  // Wrong output claim with a commitment-consistent proof: REJECT_PCP.
  auto bad_bound = f.rs.BoundValues();
  bad_bound.back() += F::One();
  EXPECT_EQ(f.Verify(mp.HonestBytes(), bad_bound).verdict,
            VerifyVerdict::kRejectPcp);
}

// One hostile instance in a batch is isolated by HandleProof: the other
// beta-1 verdicts are unaffected and the session keeps deciding.
TEST(FaultInjectionTest, BatchIsolatesBadInstances) {
  FaultFixture f(412);
  const uint32_t kBeta = 5;
  std::vector<std::vector<uint8_t>> frames;
  for (uint32_t i = 0; i < kBeta; i++) {
    frames.push_back(ProveFrame<F>(f.setup_frame, f.Vectors(), i));
  }
  auto edit = [&frames](uint32_t i, auto fn) {
    ProofMessage<F> msg = ProofMessage<F>::Deserialize(frames[i]).value();
    fn(msg);
    frames[i] = msg.Serialize();
  };
  // Instance 1: malformed shape. Instance 2: undecodable bytes. Instance 3:
  // inconsistent response.
  edit(1, [](ProofMessage<F>& msg) { msg.responses[0].clear(); });
  frames[2] = {0xFF, 0x00, 0xBA, 0xAD};
  edit(3, [](ProofMessage<F>& msg) { msg.responses[1][0] += F::One(); });

  VerifierSession<F, Adapter> verifier(f.setup);
  for (uint32_t i = 0; i < kBeta; i++) {
    ASSERT_TRUE(verifier.HandleProof(frames[i], f.rs.BoundValues()).ok());
    ASSERT_TRUE(verifier.EmitVerdict().ok());
  }
  const auto& results = verifier.results();
  ASSERT_EQ(results.size(), kBeta);
  EXPECT_EQ(results[0].verdict, VerifyVerdict::kAccept) << results[0].detail;
  EXPECT_EQ(results[1].verdict, VerifyVerdict::kMalformed);
  EXPECT_EQ(results[2].verdict, VerifyVerdict::kMalformed);
  EXPECT_EQ(results[3].verdict, VerifyVerdict::kRejectCommit);
  EXPECT_EQ(results[4].verdict, VerifyVerdict::kAccept) << results[4].detail;
}

// The Ginger baseline pipeline is hardened by the same layer.
TEST(FaultInjectionTest, GingerArgumentScreensMalformedProofs) {
  Prg prg(413);
  auto rs = MakeRandomSatisfiedSystem<F>(prg, 8, 2, 2, 14);
  auto inst = BuildGingerPcpInstance(rs.system);
  auto setup = std::make_shared<const GingerArgument<F>::VerifierSetup>(
      GingerArgument<F>::Setup(
          GingerPcp<F>::GenerateQueries(inst, PcpParams::Light(), prg), prg));
  auto proof = BuildGingerProof(inst, rs.assignment);
  auto frame =
      ProveFrame<F>(setup->EncodeSetupMessage(), {&proof.z, &proof.tensor});
  auto verify = [&setup](const std::vector<uint8_t>& bytes,
                         const std::vector<F>& bound) {
    VerifierSession<F, GingerAdapter<F>> verifier(setup);
    return verifier.HandleProof(bytes, bound).value().verdict;
  };

  EXPECT_EQ(verify(frame, rs.BoundValues()), VerifyVerdict::kAccept);

  auto short_proof = ProofMessage<F>::Deserialize(frame).value();
  short_proof.responses[0].pop_back();
  EXPECT_EQ(verify(short_proof.Serialize(), rs.BoundValues()),
            VerifyVerdict::kMalformed);

  auto bad_bound = rs.BoundValues();
  bad_bound.pop_back();
  EXPECT_EQ(verify(frame, bad_bound), VerifyVerdict::kMalformed);
}

// A dropped constraint is invisible to the protocol (honest witnesses still
// satisfy every remaining equation), but the static analyzer must flag the
// widened witness space. Swept over every single-constraint drop of a
// program whose constraints are all load-bearing for determinism.
TEST(FaultInjectionTest, DroppedConstraintIsFlaggedByAnalyzer) {
  auto program = CompileZlang<F>(R"(
program droptest;
input int32 a;
input int32 b;
output int<70> y;
y = a * b + a * a;
)");
  ASSERT_TRUE(AnalyzeProgram(program).Empty());

  for (size_t j = 0; j < program.ginger.NumConstraints(); j++) {
    SCOPED_TRACE("ginger drop " + std::to_string(j));
    GingerSystem<F> corrupted = DropConstraint(program.ginger, j);
    AnalysisReport report = AnalyzeSystem(corrupted);
    EXPECT_TRUE(report.HasRule(kRuleUnderconstrained));
    EXPECT_TRUE(report.HasErrors());
  }

  const R1cs<F>& r1cs = program.zaatar.r1cs;
  for (size_t j = 0; j < r1cs.NumConstraints(); j++) {
    SCOPED_TRACE("r1cs drop " + std::to_string(j));
    R1cs<F> corrupted = DropConstraint(r1cs, j);
    AnalysisReport report = AnalyzeR1cs(corrupted);
    // The drop also breaks the transform bookkeeping against the source
    // Ginger system.
    ZaatarTransform<F> broken = program.zaatar;
    broken.r1cs = corrupted;
    CheckTransform(program.ginger, broken, &report);
    EXPECT_TRUE(report.HasRule(kRuleUnderconstrained));
    EXPECT_TRUE(report.HasRule(kRuleTransformMismatch));
    EXPECT_TRUE(report.HasErrors());
  }
}

}  // namespace
}  // namespace zaatar
