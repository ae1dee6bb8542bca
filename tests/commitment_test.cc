#include "src/commit/commitment.h"

#include <gtest/gtest.h>

#include <utility>

#include "src/field/fields.h"
#include "src/obs/trace.h"
#include "src/protocol/prover_session.h"

namespace zaatar {
namespace {

using F = F128;
using Commit = LinearCommitment<F>;
using EG = ElGamal<F>;

// The prover's two steps for one oracle: commit to u, then answer the
// queries and t in the clear.
StatusOr<OracleProofPart<F>> CommitAndAnswer(
    const std::vector<F>& u, const std::vector<EG::Ciphertext>& enc_r,
    const std::vector<std::vector<F>>& queries, const std::vector<F>& t) {
  OracleProofPart<F> part;
  ZAATAR_ASSIGN_OR_RETURN(part.commitment, Commit::Commit(u, enc_r));
  ZAATAR_RETURN_IF_ERROR(Commit::Answer(u, queries, t, &part));
  return part;
}

struct Fixture {
  typename EG::KeyPair keys;
  std::vector<F> u;
  std::vector<std::vector<F>> queries;
  OracleCommitSetup<F> setup;
  OracleProofPart<F> part;

  static Fixture Make(Prg& prg, size_t len = 10, size_t num_queries = 6) {
    Fixture f;
    f.keys = EG::GenerateKeys(prg);
    f.u = prg.NextFieldVector<F>(len);
    for (size_t i = 0; i < num_queries; i++) {
      f.queries.push_back(prg.NextFieldVector<F>(len));
    }
    f.setup = Commit::CreateSetup(f.keys.pk, len, f.queries, prg);
    auto part = CommitAndAnswer(f.u, f.setup.shared.enc_r, f.queries,
                                f.setup.shared.t);
    EXPECT_TRUE(part.ok()) << part.status().ToString();
    f.part = std::move(part).value();
    return f;
  }

  // A setup frame whose two oracles are both this fixture's oracle, for
  // the prover session.
  std::vector<uint8_t> SetupFrame() const {
    protocol::SetupMessage<F> msg;
    msg.pk = keys.pk;
    for (auto& oracle : msg.oracles) {
      oracle = {setup.shared.enc_r, queries, setup.shared.t};
    }
    return msg.Serialize();
  }
};

TEST(CommitmentTest, HonestProverPassesConsistency) {
  Prg prg(100);
  auto f = Fixture::Make(prg);
  EXPECT_TRUE(Commit::CheckConsistency(f.keys.pk, f.keys.sk, f.setup.secrets, f.part));
}

TEST(CommitmentTest, ResponsesAreTrueInnerProducts) {
  // Against the frozen reference loop: Answer itself runs the lazy kernel.
  Prg prg(101);
  auto f = Fixture::Make(prg);
  for (size_t i = 0; i < f.queries.size(); i++) {
    EXPECT_EQ(f.part.responses[i],
              VectorOracle<F>::InnerProductNaive(f.queries[i].data(),
                                                 f.u.data(), f.u.size()));
  }
  EXPECT_EQ(f.part.t_response,
            VectorOracle<F>::InnerProductNaive(f.setup.shared.t.data(),
                                               f.u.data(), f.u.size()));
}

// t must equal r plus every alpha_k·q_k added term by term, reduced.
template <typename Field>
void ExpectTIsRPlusAlphaCombination(const OracleCommitSetup<Field>& setup,
                                    const std::vector<std::vector<Field>>& qs) {
  for (size_t i = 0; i < setup.shared.t.size(); i++) {
    Field expect = setup.secrets.r[i];
    for (size_t k = 0; k < qs.size(); k++) {
      expect += setup.secrets.alphas[k] * qs[k][i];
    }
    ASSERT_EQ(setup.shared.t[i], expect) << Field::kName << " position " << i;
  }
}

template <typename Field>
OracleCommitSetup<Field> SetupWithRandomQueries(
    Prg& prg, size_t len, size_t num_queries,
    std::vector<std::vector<Field>>* queries) {
  auto keys = ElGamal<Field>::GenerateKeys(prg);
  for (size_t k = 0; k < num_queries; k++) {
    queries->push_back(prg.NextFieldVector<Field>(len));
  }
  return LinearCommitment<Field>::CreateSetup(keys.pk, len, *queries, prg);
}

TEST(CommitmentTest, TVectorIsRPlusAlphaCombination) {
  Prg prg(102);
  auto f = Fixture::Make(prg);
  ExpectTIsRPlusAlphaCombination(f.setup, f.queries);

  // Lengths that span several accumulator blocks plus a partial one, on
  // both fields.
  std::vector<std::vector<F220>> q220;
  ExpectTIsRPlusAlphaCombination(
      SetupWithRandomQueries<F220>(prg, 600, 6, &q220), q220);

  // On F128 (p just below R) 40 random products overflow 2N limbs, so the
  // accumulators' top limb carries.
  std::vector<std::vector<F>> q128;
  auto setup = SetupWithRandomQueries<F>(prg, 600, 40, &q128);
  ExpectTIsRPlusAlphaCombination(setup, q128);
  typename F::Wide acc;
  for (size_t k = 0; k < q128.size(); k++) {
    F::MulAddWide(&acc, setup.secrets.alphas[k], q128[k].data(), 1);
  }
  EXPECT_NE(acc.limbs[2 * F::kLimbs], 0u);
}

TEST(CommitmentTest, RejectsTamperedResponse) {
  Prg prg(103);
  auto f = Fixture::Make(prg);
  for (size_t i = 0; i < f.part.responses.size(); i++) {
    auto tampered = f.part;
    tampered.responses[i] += F::One();
    EXPECT_FALSE(
        Commit::CheckConsistency(f.keys.pk, f.keys.sk, f.setup.secrets, tampered))
        << "response " << i;
  }
}

TEST(CommitmentTest, RejectsTamperedTResponse) {
  Prg prg(104);
  auto f = Fixture::Make(prg);
  auto tampered = f.part;
  tampered.t_response += F::One();
  EXPECT_FALSE(
      Commit::CheckConsistency(f.keys.pk, f.keys.sk, f.setup.secrets, tampered));
}

TEST(CommitmentTest, RejectsCommitmentToDifferentVector) {
  // Prover commits to u but answers queries from u': the decommitment check
  // catches the switch (binding).
  Prg prg(105);
  auto f = Fixture::Make(prg);
  auto u2 = prg.NextFieldVector<F>(f.u.size());
  auto commitment2 = Commit::Commit(u2, f.setup.shared.enc_r);
  ASSERT_TRUE(commitment2.ok()) << commitment2.status().ToString();
  auto frankenstein = f.part;              // responses from u ...
  frankenstein.commitment = *commitment2;  // ... commitment to u2
  EXPECT_FALSE(
      Commit::CheckConsistency(f.keys.pk, f.keys.sk, f.setup.secrets, frankenstein));
}

TEST(CommitmentTest, ConsistentCheatIsAcceptedButIsLinear) {
  // A prover may answer with ANY fixed linear function; the commitment layer
  // only binds, the PCP layer decides. Committing honestly to a different
  // vector must still pass.
  Prg prg(106);
  auto f = Fixture::Make(prg);
  auto u2 = prg.NextFieldVector<F>(f.u.size());
  auto part2 = CommitAndAnswer(u2, f.setup.shared.enc_r, f.queries,
                               f.setup.shared.t);
  ASSERT_TRUE(part2.ok()) << part2.status().ToString();
  EXPECT_TRUE(
      Commit::CheckConsistency(f.keys.pk, f.keys.sk, f.setup.secrets, *part2));
}

TEST(CommitmentTest, ZeroLengthQueriesStillBind) {
  Prg prg(107);
  auto keys = EG::GenerateKeys(prg);
  auto u = prg.NextFieldVector<F>(4);
  std::vector<std::vector<F>> no_queries;
  auto setup = Commit::CreateSetup(keys.pk, 4, no_queries, prg);
  auto part_or =
      CommitAndAnswer(u, setup.shared.enc_r, no_queries, setup.shared.t);
  ASSERT_TRUE(part_or.ok()) << part_or.status().ToString();
  auto part = std::move(part_or).value();
  EXPECT_TRUE(Commit::CheckConsistency(keys.pk, keys.sk, setup.secrets, part));
  part.t_response += F::One();
  EXPECT_FALSE(Commit::CheckConsistency(keys.pk, keys.sk, setup.secrets, part));
}

// The prover's two phases are timed as the session's prover.commit and
// prover.answer spans, which the harness sums over a batch: every proved
// instance adds one of each.
TEST(CommitmentTest, PhaseTimersAccumulate) {
  Prg prg(108);
  auto f = Fixture::Make(prg, /*len=*/8, /*num_queries=*/1);
  const std::vector<uint8_t> frame = f.SetupFrame();
  obs::Tracer tracer;
  obs::ScopedThreadTracer install(&tracer);
  for (int instance = 0; instance < 2; instance++) {
    protocol::ProverSession<F> prover;
    ASSERT_TRUE(prover.IngestSetup(frame).ok());
    ASSERT_TRUE(prover.Commit({&f.u, &f.u}).ok());
    ASSERT_TRUE(prover.Decommit().ok());
  }
  EXPECT_EQ(tracer.CountSpans("prover.commit"), 2u);
  EXPECT_EQ(tracer.CountSpans("prover.answer"), 2u);
  EXPECT_GT(tracer.SumSeconds("prover.commit"), 0.0);
  EXPECT_GT(tracer.SumSeconds("prover.answer"), 0.0);
}

// The shape screens that replaced assert()-only validation: mismatched
// lengths on the wire-derived inputs come back as typed kShapeMismatch
// errors in every build mode, never as out-of-bounds reads.
TEST(CommitmentTest, CommitRejectsWrongOracleLength) {
  Prg prg(109);
  auto f = Fixture::Make(prg);
  auto short_u = f.u;
  short_u.pop_back();
  auto e = Commit::Commit(short_u, f.setup.shared.enc_r);
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kShapeMismatch);
}

TEST(CommitmentTest, AnswerRejectsWrongQueryOrTLength) {
  Prg prg(110);
  auto f = Fixture::Make(prg);
  OracleProofPart<F> part;

  auto bad_queries = f.queries;
  bad_queries[2].push_back(F::One());
  Status s =
      Commit::Answer(f.u, bad_queries, f.setup.shared.t, &part);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kShapeMismatch);

  auto bad_t = f.setup.shared.t;
  bad_t.pop_back();
  s = Commit::Answer(f.u, f.queries, bad_t, &part);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kShapeMismatch);

  EXPECT_TRUE(Commit::Answer(f.u, f.queries, f.setup.shared.t, &part).ok());
  EXPECT_EQ(part.responses.size(), f.queries.size());
}

// Commit and Answer only ever see shapes the prover session screened: a
// setup frame whose Enc(r) is shorter than its query rows fails to decode,
// and a proof vector of the wrong length fails at commit, both typed, and
// neither moves the session on.
TEST(CommitmentTest, ProvePropagatesShapeErrors) {
  Prg prg(111);
  auto f = Fixture::Make(prg);
  {
    Fixture short_enc_r = f;
    short_enc_r.setup.shared.enc_r.pop_back();
    protocol::ProverSession<F> prover;
    Status st = prover.IngestSetup(short_enc_r.SetupFrame());
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.code(), StatusCode::kPhaseViolation);
    EXPECT_EQ(prover.phase(), protocol::SessionPhase::kSetup);
  }
  protocol::ProverSession<F> prover;
  ASSERT_TRUE(prover.IngestSetup(f.SetupFrame()).ok());
  auto short_u = f.u;
  short_u.pop_back();
  Status st = prover.Commit({&short_u, &f.u});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kMalformed);
  EXPECT_EQ(prover.phase(), protocol::SessionPhase::kCommit);
}

}  // namespace
}  // namespace zaatar
