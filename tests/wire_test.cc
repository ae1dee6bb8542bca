// Serialization round-trips and validation, and the byte sizes of the
// session frames against the network cost model. Decode failures are typed
// Status values, never exceptions: the deserialization path is a trust
// boundary against a malicious peer.

#include <gtest/gtest.h>

#include "src/argument/argument.h"
#include "src/argument/cost_model.h"
#include "src/constraints/qap.h"
#include "src/constraints/transform.h"
#include "src/field/fields.h"
#include "src/testing/fault_injection.h"
#include "tests/test_util.h"

namespace zaatar {
namespace {

using F = F128;

TEST(SerializeTest, PrimitivesRoundTrip) {
  ByteWriter w;
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  BigInt<3> big;
  big.limbs = {1, 2, 3};
  w.PutBigInt(big);
  ByteReader r(w.bytes());
  auto u32 = r.GetU32();
  ASSERT_TRUE(u32.ok());
  EXPECT_EQ(*u32, 0xDEADBEEFu);
  auto u64 = r.GetU64();
  ASSERT_TRUE(u64.ok());
  EXPECT_EQ(*u64, 0x0123456789ABCDEFull);
  auto b = r.GetBigInt<3>();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, big);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(SerializeTest, TruncatedReadsReturnTruncatedStatus) {
  ByteWriter w;
  w.PutU32(7);
  ByteReader r(w.bytes());
  ASSERT_TRUE(r.GetU32().ok());
  auto missing = r.GetU64();
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kTruncated);
  // A failed read consumes nothing; the reader stays usable.
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SerializeTest, FieldElementsRoundTripAndValidate) {
  Prg prg(300);
  ByteWriter w;
  std::vector<F> elems = prg.NextFieldVector<F>(20);
  PutFieldVector(&w, elems);
  ByteReader r(w.bytes());
  auto decoded = GetFieldVector<F>(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, elems);

  // An out-of-range residue (the modulus itself) must be rejected, not
  // silently reduced.
  ByteWriter bad;
  bad.PutBigInt(F::kModulus);
  ByteReader br(bad.bytes());
  auto out_of_range = GetField<F>(&br);
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kOutOfRange);
}

TEST(SerializeTest, ModulusPlusOneRejectedForFieldAndGroup) {
  // q and q+1 for the computation field; p and p+1 for the ElGamal group.
  using Zp = typename ElGamal<F>::Zp;
  {
    auto non_canonical = F::kModulus;
    non_canonical.AddInPlace(typename F::Repr(uint64_t{1}));
    ByteWriter w;
    w.PutBigInt(non_canonical);
    ByteReader r(w.bytes());
    auto got = GetField<F>(&r);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kOutOfRange);
  }
  {
    auto non_canonical = Zp::kModulus;
    non_canonical.AddInPlace(typename Zp::Repr(uint64_t{1}));
    ByteWriter w;
    w.PutBigInt(non_canonical);
    ByteReader r(w.bytes());
    auto got = GetField<Zp>(&r);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kOutOfRange);
  }
}

TEST(SerializeTest, OversizedVectorLengthRejectedBeforeAllocation) {
  ByteWriter w;
  w.PutU32(0x7FFFFFFF);  // claims ~2^31 elements but carries none
  ByteReader r(w.bytes());
  auto v = GetFieldVector<F>(&r);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kLengthOverflow);

  // Even a length under the remaining-bytes bound is capped.
  ByteWriter w2;
  w2.PutU32(0xFFFFFFFF);
  ByteReader r2(w2.bytes());
  auto n = r2.GetLength(/*elem_bytes=*/0);
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), StatusCode::kLengthOverflow);
}

struct WireFixture {
  RandomSystem<F> rs;
  ZaatarTransform<F> transform;

  static WireFixture Make(Prg& prg) {
    WireFixture f;
    f.rs = MakeRandomSatisfiedSystem<F>(prg, 8, 2, 2, 14);
    f.transform = GingerToZaatar(f.rs.system);
    return f;
  }
};

TEST(WireTest, HostileLengthPrefixFailsWithoutAllocating) {
  Prg prg(305);
  auto f = WireFixture::Make(prg);
  Qap<F> qap(f.transform.r1cs);
  auto setup = ZaatarArgument<F>::Setup(
      ZaatarPcp<F>::GenerateQueries(qap, PcpParams::Light(), prg), prg);
  auto bytes = setup.EncodeSetupMessage();

  // The first Enc(r) length prefix sits right after g and h. Claim
  // 0xFFFFFFFF ciphertexts: decode must fail with LENGTH_OVERFLOW before
  // reserving ~2^32 * 256 bytes.
  const size_t kPrefix = 2 * ElGamal<F>::Zp::kLimbs * 8;
  for (size_t i = 0; i < 4; i++) {
    bytes[kPrefix + i] = 0xFF;
  }
  auto decoded = protocol::SetupMessage<F>::Deserialize(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kLengthOverflow);
}

TEST(WireTest, MeasuredBytesMatchTheCostModel) {
  Prg prg(304);
  auto f = WireFixture::Make(prg);
  Qap<F> qap(f.transform.r1cs);
  Prg qprg(1), sprg(2);
  auto queries =
      ZaatarPcp<F>::GenerateQueries(qap, PcpParams::Light(), qprg);
  size_t proof_len = queries.z_len + queries.h_len;
  size_t num_queries = queries.TotalQueryCount();
  auto setup = ZaatarArgument<F>::Setup(std::move(queries), sprg);
  const size_t field_bytes = F::kLimbs * 8;
  const size_t group_bytes = ElGamal<F>::Zp::kLimbs * 8;

  // The model prices the queries as a 32-byte seed. The frame carries g and
  // h, four u32 length prefixes, and every query row in plaintext instead.
  size_t modeled =
      NetworkCosts::SetupBytes(proof_len, field_bytes, group_bytes) - 32 +
      2 * group_bytes + 4 * 4 + setup.TotalQueryElements() * field_bytes;
  EXPECT_EQ(setup.EncodeSetupMessage().size(), modeled);

  auto w = f.transform.ExtendAssignment(f.rs.assignment);
  auto proof = BuildZaatarProof(qap, w);
  auto frame = ProveFrame<F>(setup.EncodeSetupMessage(), {&proof.z, &proof.h});
  size_t modeled_inst =
      NetworkCosts::InstanceBytes(num_queries, field_bytes, group_bytes);
  EXPECT_NEAR(static_cast<double>(frame.size()),
              static_cast<double>(modeled_inst), 64.0);
}

}  // namespace
}  // namespace zaatar
