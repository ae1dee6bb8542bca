// End-to-end coverage over the 220-bit field (root finding's field, §5.1):
// the whole stack — constraints, QAP, PCP, commitment, argument — must work
// identically over F220, whose modulus spans four limbs and whose ElGamal
// group differs from F128's.

#include <gtest/gtest.h>

#include <memory>

#include "src/argument/argument.h"
#include "src/constraints/qap.h"
#include "src/constraints/transform.h"
#include "src/field/fields.h"
#include "src/protocol/verifier_session.h"
#include "src/testing/fault_injection.h"
#include "tests/test_util.h"

namespace zaatar {
namespace {

using F = F220;

struct Fixture {
  RandomSystem<F> rs;
  ZaatarTransform<F> transform;

  static Fixture Make(Prg& prg) {
    Fixture f;
    f.rs = MakeRandomSatisfiedSystem<F>(prg, 9, 3, 2, 17);
    f.transform = GingerToZaatar(f.rs.system);
    return f;
  }
};

TEST(WideFieldTest, QapDivisibility) {
  Prg prg(400);
  auto f = Fixture::Make(prg);
  Qap<F> qap(f.transform.r1cs);
  auto w = f.transform.ExtendAssignment(f.rs.assignment);
  EXPECT_TRUE(qap.ComputeH(w).exact);
  auto bad = w;
  bad[0] += F::One();
  EXPECT_FALSE(qap.ComputeH(bad).exact);
}

TEST(WideFieldTest, PcpCompletenessAndSoundness) {
  Prg prg(401);
  auto f = Fixture::Make(prg);
  Qap<F> qap(f.transform.r1cs);
  auto w = f.transform.ExtendAssignment(f.rs.assignment);
  auto proof = BuildZaatarProof(qap, w);
  auto q = ZaatarPcp<F>::GenerateQueries(qap, PcpParams::Light(), prg);
  VectorOracle<F> oz(proof.z), oh(proof.h);
  auto rz = oz.QueryAll(q.z_queries);
  auto rh = oh.QueryAll(q.h_queries);
  EXPECT_TRUE(ZaatarPcp<F>::Decide(q, rz, rh, f.rs.BoundValues()));
  auto bad = f.rs.BoundValues();
  bad[0] += F::One();
  EXPECT_FALSE(ZaatarPcp<F>::Decide(q, rz, rh, bad));
}

TEST(WideFieldTest, FullArgumentWithElGamal220Group) {
  Prg prg(402);
  auto f = Fixture::Make(prg);
  Qap<F> qap(f.transform.r1cs);
  auto setup = std::make_shared<const ZaatarArgument<F>::VerifierSetup>(
      ZaatarArgument<F>::Setup(
          ZaatarPcp<F>::GenerateQueries(qap, PcpParams::Light(), prg), prg));
  auto w = f.transform.ExtendAssignment(f.rs.assignment);
  auto proof = BuildZaatarProof(qap, w);
  const std::vector<uint8_t> setup_frame = setup->EncodeSetupMessage();
  auto frame = ProveFrame<F>(setup_frame, {&proof.z, &proof.h});
  protocol::VerifierSession<F, ZaatarAdapter<F>> verifier(setup);
  auto honest = verifier.HandleProof(frame, f.rs.BoundValues());
  ASSERT_TRUE(honest.ok()) << honest.status().ToString();
  EXPECT_TRUE(honest->accepted()) << honest->detail;
  ASSERT_TRUE(verifier.EmitVerdict().ok());

  auto msg = protocol::ProofMessage<F>::Deserialize(
                 ProveFrame<F>(setup_frame, {&proof.z, &proof.h}, 1))
                 .value();
  msg.responses[1][0] += F::One();
  auto tampered = verifier.HandleProof(msg.Serialize(), f.rs.BoundValues());
  ASSERT_TRUE(tampered.ok()) << tampered.status().ToString();
  EXPECT_EQ(tampered->verdict, VerifyVerdict::kRejectCommit);
}

TEST(WideFieldTest, GingerPcpOverF220) {
  Prg prg(403);
  auto rs = MakeRandomSatisfiedSystem<F>(prg, 7, 2, 2, 12);
  auto inst = BuildGingerPcpInstance(rs.system);
  auto proof = BuildGingerProof(inst, rs.assignment);
  auto q = GingerPcp<F>::GenerateQueries(inst, PcpParams::Light(), prg);
  VectorOracle<F> o1(proof.z), o2(proof.tensor);
  auto r1 = o1.QueryAll(q.pi1_queries);
  auto r2 = o2.QueryAll(q.pi2_queries);
  EXPECT_TRUE(GingerPcp<F>::Decide(q, r1, r2, rs.BoundValues()));
  auto bad = rs.BoundValues();
  bad.back() += F::One();
  EXPECT_FALSE(GingerPcp<F>::Decide(q, r1, r2, bad));
}

TEST(WideFieldTest, TauSamplingRespectsTheWiderModulus) {
  // tau must be uniform over ~2^220, not accidentally truncated to 128 bits.
  Prg prg(404);
  auto f = Fixture::Make(prg);
  Qap<F> qap(f.transform.r1cs);
  auto q = ZaatarPcp<F>::GenerateQueries(qap, PcpParams{}, prg);
  int above_128 = 0;
  for (const auto& rep : q.reps) {
    if (rep.tau.ToCanonical().BitLength() > 128) {
      above_128++;
    }
  }
  EXPECT_GT(above_128, 0);  // overwhelmingly likely for uniform tau
}

}  // namespace
}  // namespace zaatar
