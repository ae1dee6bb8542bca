// The argument end to end over the session frames: a ProverSession fed the
// setup frame proves, VerifierSession::HandleProof decides.

#include "src/argument/argument.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/constraints/qap.h"
#include "src/constraints/transform.h"
#include "src/field/fields.h"
#include "src/protocol/verifier_session.h"
#include "src/testing/fault_injection.h"
#include "tests/test_util.h"

namespace zaatar {
namespace {

using F = F128;

struct ZaatarFixture {
  RandomSystem<F> rs;
  ZaatarTransform<F> transform;

  static ZaatarFixture Make(Prg& prg) {
    ZaatarFixture f;
    f.rs = MakeRandomSatisfiedSystem<F>(prg, 10, 3, 2, 16);
    f.transform = GingerToZaatar(f.rs.system);
    return f;
  }
};

// One frame through a verifier session that adopts `setup`, as instance 0.
template <typename Adapter>
VerifyInstanceResult Verify(
    const std::shared_ptr<const typename Argument<F, Adapter>::VerifierSetup>&
        setup,
    const std::vector<uint8_t>& frame, const std::vector<F>& bound_values) {
  protocol::VerifierSession<F, Adapter> verifier(setup);
  return verifier.HandleProof(frame, bound_values).value();
}

// Decodes a frame, applies `edit` to its ProofMessage, and re-serializes it.
template <typename Edit>
std::vector<uint8_t> Tamper(const std::vector<uint8_t>& frame, Edit edit) {
  protocol::ProofMessage<F> msg =
      protocol::ProofMessage<F>::Deserialize(frame).value();
  edit(msg);
  return msg.Serialize();
}

std::shared_ptr<const ZaatarArgument<F>::VerifierSetup> ZaatarSetup(
    const Qap<F>& qap, Prg& prg) {
  return std::make_shared<const ZaatarArgument<F>::VerifierSetup>(
      ZaatarArgument<F>::Setup(
          ZaatarPcp<F>::GenerateQueries(qap, PcpParams::Light(), prg), prg));
}

TEST(ZaatarArgumentTest, BatchAcceptsHonestProver) {
  Prg prg(110);
  auto f = ZaatarFixture::Make(prg);
  Qap<F> qap(f.transform.r1cs);
  auto setup = ZaatarSetup(qap, prg);

  // Batch: re-randomize the witness per "instance" by regenerating systems
  // is not possible (queries depend on constraints), so a batch here means
  // the same instance proven multiple times — the protocol path is the same.
  auto w = f.transform.ExtendAssignment(f.rs.assignment);
  auto proof = BuildZaatarProof(qap, w);
  const std::vector<uint8_t> setup_frame = setup->EncodeSetupMessage();
  protocol::VerifierSession<F, ZaatarAdapter<F>> verifier(setup);
  for (uint32_t i = 0; i < 3; i++) {
    auto frame = ProveFrame<F>(setup_frame, {&proof.z, &proof.h}, i);
    auto result = verifier.HandleProof(frame, f.rs.BoundValues());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->accepted()) << result->detail;
    ASSERT_TRUE(verifier.EmitVerdict().ok());
  }
}

TEST(ZaatarArgumentTest, RejectsWrongOutputClaim) {
  Prg prg(111);
  auto f = ZaatarFixture::Make(prg);
  Qap<F> qap(f.transform.r1cs);
  auto setup = ZaatarSetup(qap, prg);
  auto w = f.transform.ExtendAssignment(f.rs.assignment);
  auto proof = BuildZaatarProof(qap, w);
  auto frame = ProveFrame<F>(setup->EncodeSetupMessage(), {&proof.z, &proof.h});
  auto bad = f.rs.BoundValues();
  bad.back() += F::One();
  EXPECT_FALSE(Verify<ZaatarAdapter<F>>(setup, frame, bad).accepted());
}

TEST(ZaatarArgumentTest, RejectsTamperedResponsesViaCommitment) {
  Prg prg(112);
  auto f = ZaatarFixture::Make(prg);
  Qap<F> qap(f.transform.r1cs);
  auto setup = ZaatarSetup(qap, prg);
  auto w = f.transform.ExtendAssignment(f.rs.assignment);
  auto proof = BuildZaatarProof(qap, w);
  auto frame = ProveFrame<F>(setup->EncodeSetupMessage(), {&proof.z, &proof.h});
  for (size_t oracle = 0; oracle < 2; oracle++) {
    auto tampered = Tamper(frame, [oracle](protocol::ProofMessage<F>& msg) {
      msg.responses[oracle][0] += F::One();
    });
    auto result =
        Verify<ZaatarAdapter<F>>(setup, tampered, f.rs.BoundValues());
    EXPECT_EQ(result.verdict, VerifyVerdict::kRejectCommit)
        << "oracle " << oracle;
  }
}

TEST(ZaatarArgumentTest, RejectsCheatingWitnessEndToEnd) {
  Prg prg(113);
  auto f = ZaatarFixture::Make(prg);
  Qap<F> qap(f.transform.r1cs);
  auto setup = ZaatarSetup(qap, prg);
  auto bad_w = f.transform.ExtendAssignment(f.rs.assignment);
  bad_w[2] += F::One();
  auto proof = BuildZaatarProof(qap, bad_w);
  auto frame = ProveFrame<F>(setup->EncodeSetupMessage(), {&proof.z, &proof.h});
  EXPECT_FALSE(
      Verify<ZaatarAdapter<F>>(setup, frame, f.rs.BoundValues()).accepted());
}

TEST(GingerArgumentTest, EndToEndAcceptAndReject) {
  Prg prg(115);
  auto rs = MakeRandomSatisfiedSystem<F>(prg, 8, 2, 2, 14);
  auto inst = BuildGingerPcpInstance(rs.system);
  auto setup = std::make_shared<const GingerArgument<F>::VerifierSetup>(
      GingerArgument<F>::Setup(
          GingerPcp<F>::GenerateQueries(inst, PcpParams::Light(), prg), prg));
  auto proof = BuildGingerProof(inst, rs.assignment);
  auto frame =
      ProveFrame<F>(setup->EncodeSetupMessage(), {&proof.z, &proof.tensor});
  EXPECT_TRUE(
      Verify<GingerAdapter<F>>(setup, frame, rs.BoundValues()).accepted());

  auto bad = rs.BoundValues();
  bad[0] += F::One();
  EXPECT_FALSE(Verify<GingerAdapter<F>>(setup, frame, bad).accepted());

  auto tampered = Tamper(frame, [](protocol::ProofMessage<F>& msg) {
    msg.t_responses[1] += F::One();
  });
  EXPECT_FALSE(
      Verify<GingerAdapter<F>>(setup, tampered, rs.BoundValues()).accepted());
}

TEST(ArgumentTest, SetupSizesMatchAdapters) {
  Prg prg(116);
  auto f = ZaatarFixture::Make(prg);
  Qap<F> qap(f.transform.r1cs);
  auto queries = ZaatarPcp<F>::GenerateQueries(qap, PcpParams::Light(), prg);
  size_t zq = queries.z_queries.size(), hq = queries.h_queries.size();
  size_t zl = queries.z_len, hl = queries.h_len;
  auto setup = ZaatarArgument<F>::Setup(std::move(queries), prg);
  EXPECT_EQ(setup.shared[0].enc_r.size(), zl);
  EXPECT_EQ(setup.shared[1].enc_r.size(), hl);
  EXPECT_EQ(setup.secrets.commit[0].alphas.size(), zq);
  EXPECT_EQ(setup.secrets.commit[1].alphas.size(), hq);
  EXPECT_EQ(setup.TotalQueryElements(), zq * zl + hq * hl);
}

}  // namespace
}  // namespace zaatar
