#include "src/field/fields.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "src/crypto/prg.h"
#include "src/pcp/linear_oracle.h"

namespace zaatar {
namespace {

// Field axioms and parameter validation, run for every configured field.
template <typename F>
class FieldTest : public ::testing::Test {};

using FieldTypes = ::testing::Types<F128, F220, FGoldilocks>;
TYPED_TEST_SUITE(FieldTest, FieldTypes);

TYPED_TEST(FieldTest, ZeroOneIdentities) {
  using F = TypeParam;
  EXPECT_TRUE(F::Zero().IsZero());
  EXPECT_TRUE(F::One().IsOne());
  EXPECT_EQ(F::One() * F::One(), F::One());
  EXPECT_EQ(F::Zero() + F::One(), F::One());
  EXPECT_EQ(F::One() - F::One(), F::Zero());
  EXPECT_EQ(-F::Zero(), F::Zero());
}

TYPED_TEST(FieldTest, RingAxiomsOnRandomElements) {
  using F = TypeParam;
  Prg prg(11);
  for (int i = 0; i < 100; i++) {
    F a = prg.NextField<F>(), b = prg.NextField<F>(), c = prg.NextField<F>();
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a - a, F::Zero());
    EXPECT_EQ(a + (-a), F::Zero());
    EXPECT_EQ(a.Double(), a + a);
    EXPECT_EQ(a.Square(), a * a);
  }
}

TYPED_TEST(FieldTest, InverseAndDivision) {
  using F = TypeParam;
  Prg prg(12);
  for (int i = 0; i < 50; i++) {
    F a = prg.NextNonzeroField<F>();
    EXPECT_EQ(a * a.Inverse(), F::One());
    F b = prg.NextNonzeroField<F>();
    EXPECT_EQ((a / b) * b, a);
  }
  EXPECT_TRUE(F::Zero().Inverse().IsZero());  // documented convention
}

TYPED_TEST(FieldTest, FermatLittleTheorem) {
  using F = TypeParam;
  Prg prg(13);
  for (int i = 0; i < 10; i++) {
    F a = prg.NextNonzeroField<F>();
    // a^(p-1) = 1.
    typename F::Repr e = F::kModulus;
    e.SubInPlace(typename F::Repr(uint64_t{1}));
    EXPECT_EQ(a.Pow(e), F::One());
    EXPECT_EQ(a.Pow(F::kModulus), a);
  }
}

TYPED_TEST(FieldTest, PowMatchesRepeatedMultiplication) {
  using F = TypeParam;
  Prg prg(14);
  F a = prg.NextField<F>();
  F acc = F::One();
  for (uint64_t e = 0; e < 30; e++) {
    EXPECT_EQ(a.Pow(e), acc);
    acc *= a;
  }
}

TYPED_TEST(FieldTest, CanonicalRoundTrip) {
  using F = TypeParam;
  Prg prg(15);
  for (int i = 0; i < 50; i++) {
    F a = prg.NextField<F>();
    EXPECT_EQ(F::FromCanonical(a.ToCanonical()), a);
  }
  EXPECT_EQ(F::FromUint(42).ToUint64(), 42u);
}

TYPED_TEST(FieldTest, FromIntHandlesNegatives) {
  using F = TypeParam;
  EXPECT_EQ(F::FromInt(-1) + F::One(), F::Zero());
  EXPECT_EQ(F::FromInt(-17), -F::FromUint(17));
  EXPECT_EQ(F::FromInt(INT64_MIN) + F::FromUint(uint64_t{1} << 63),
            F::Zero());
}

TYPED_TEST(FieldTest, FromLimbsFoldsPowersOfTwo64) {
  using F = TypeParam;
  uint64_t limbs[3] = {7, 9, 2};
  F expect = F::FromUint(7) +
             F::FromUint(9) * F::FromUint(2).Pow(uint64_t{64}) +
             F::FromUint(2) * F::FromUint(2).Pow(uint64_t{128});
  EXPECT_EQ(F::FromLimbs(limbs, 3), expect);
}

// Reduces an arbitrary limb pattern below the modulus so it is a valid
// Montgomery representative (the kernels' actual input domain): mask to the
// modulus bit-length (keeping the low bits of the pattern intact), then at
// most a couple of conditional subtracts finish the job.
template <typename F>
typename F::Repr ReduceBelowModulus(typename F::Repr r) {
  for (size_t bit = F::kModulusBits; bit < F::kLimbs * 64; bit++) {
    r.limbs[bit / 64] &= ~(uint64_t{1} << (bit % 64));
  }
  auto ge_modulus = [](const typename F::Repr& x) {
    for (size_t i = F::kLimbs; i-- > 0;) {
      if (x.limbs[i] != F::kModulus.limbs[i]) {
        return x.limbs[i] > F::kModulus.limbs[i];
      }
    }
    return true;  // equal counts as >=
  };
  while (ge_modulus(r)) {
    r.SubInPlace(F::kModulus);
  }
  return r;
}

// The dedicated squaring kernel (and its tuned/dispatched variants) must be
// bit-identical to the general product a*a — not just on random elements but
// on the limb patterns that stress its carry paths: zero, one, p-1, a single
// saturated limb, all-ones, and bit runs that straddle limb boundaries.
TYPED_TEST(FieldTest, MontSqrMatchesMontMulOnAdversarialPatterns) {
  using F = TypeParam;
  using Repr = typename F::Repr;
  std::vector<Repr> patterns;
  patterns.push_back(Repr{});                    // zero
  patterns.push_back(Repr(uint64_t{1}));         // one
  Repr pm1 = F::kModulus;
  pm1.SubInPlace(Repr(uint64_t{1}));
  patterns.push_back(pm1);                       // p - 1
  for (size_t limb = 0; limb < F::kLimbs; limb++) {
    Repr single{};
    single.limbs[limb] = ~uint64_t{0};           // one saturated limb
    patterns.push_back(single);
    Repr straddle{};
    straddle.limbs[limb] = uint64_t{1} << 63;    // run across the boundary
    if (limb + 1 < F::kLimbs) {
      straddle.limbs[limb + 1] = 1;
    }
    patterns.push_back(straddle);
  }
  Repr ones;
  for (size_t limb = 0; limb < F::kLimbs; limb++) {
    ones.limbs[limb] = ~uint64_t{0};             // all ones
  }
  patterns.push_back(ones);
  Prg prg(21);
  for (int i = 0; i < 50; i++) {
    patterns.push_back(prg.template NextField<F>().ToCanonical());
  }
  for (Repr r : patterns) {
    r = ReduceBelowModulus<F>(r);
    const Repr via_mul = F::MontMul(r, r);
    EXPECT_EQ(F::MontSqr(r), via_mul);      // generic squaring kernel
    EXPECT_EQ(F::MontSqrAuto(r), via_mul);  // runtime-dispatched kernel
    EXPECT_EQ(F::MontMulAuto(r, r), via_mul);
    const F x = F::FromMontgomery(r);
    EXPECT_EQ(x.Square(), x * x);           // element-level dispatch
  }
}

// The windowed Pow must be bit-identical to the frozen bit-at-a-time
// PowNaive across random exponents and the shapes that stress the window
// scanner: 0, 1, p-1, p, p-2, lone bits, and dense all-ones exponents.
TYPED_TEST(FieldTest, WindowedPowMatchesPowNaive) {
  using F = TypeParam;
  using Repr = typename F::Repr;
  Prg prg(22);
  std::vector<Repr> exps;
  exps.push_back(Repr{});                  // 0
  exps.push_back(Repr(uint64_t{1}));       // 1
  Repr pm1 = F::kModulus;
  pm1.SubInPlace(Repr(uint64_t{1}));
  exps.push_back(pm1);                     // p - 1
  exps.push_back(F::kModulus);             // p (exponents need not be < p)
  exps.push_back(F::kFermatExponent);      // p - 2 (the Inverse walk)
  for (size_t bit = 0; bit < F::kLimbs * 64; bit += 13) {
    Repr lone{};
    lone.limbs[bit / 64] = uint64_t{1} << (bit % 64);
    exps.push_back(lone);                  // single-bit exponents
  }
  Repr dense;
  for (size_t limb = 0; limb < F::kLimbs; limb++) {
    dense.limbs[limb] = ~uint64_t{0};
  }
  exps.push_back(dense);                   // maximally dense exponent
  for (int i = 0; i < 10; i++) {
    exps.push_back(prg.template NextField<F>().ToCanonical());
  }
  const F a = prg.template NextNonzeroField<F>();
  const F b = prg.template NextField<F>();
  for (const Repr& e : exps) {
    EXPECT_EQ(a.Pow(e), a.PowNaive(e));
    EXPECT_EQ(b.Pow(e), b.PowNaive(e));
    EXPECT_EQ(F::Zero().Pow(e), F::Zero().PowNaive(e));
    EXPECT_EQ(F::One().Pow(e), F::One().PowNaive(e));
  }
}

TYPED_TEST(FieldTest, BatchInvertMatchesIndividualInverses) {
  using F = TypeParam;
  Prg prg(16);
  std::vector<F> v = prg.NextFieldVector<F>(40);
  v[7] = F::Zero();  // zeros must be passed through untouched
  std::vector<F> expect(v.size());
  for (size_t i = 0; i < v.size(); i++) {
    expect[i] = v[i].Inverse();
  }
  BatchInvert(v.data(), v.size());
  EXPECT_EQ(v, expect);
  EXPECT_TRUE(v[7].IsZero());
}

TYPED_TEST(FieldTest, ModulusIsPrimeMillerRabin) {
  using F = TypeParam;
  // Miller-Rabin using the field's own arithmetic: p-1 = 2^r * d.
  typename F::Repr d = F::kModulus;
  d.SubInPlace(typename F::Repr(uint64_t{1}));
  size_t r = 0;
  while (!d.IsOdd()) {
    d.Shr1InPlace();
    r++;
  }
  ASSERT_GE(r, 1u);
  Prg prg(17);
  for (int round = 0; round < 12; round++) {
    F a = prg.NextNonzeroField<F>();
    F x = a.Pow(d);
    if (x.IsOne() || x == -F::One()) {
      continue;
    }
    bool witness = true;
    for (size_t i = 0; i + 1 < r; i++) {
      x = x.Square();
      if (x == -F::One()) {
        witness = false;
        break;
      }
    }
    EXPECT_FALSE(witness) << "modulus failed Miller-Rabin";
  }
}

// ---- The lazily reduced dot-product kernel -------------------------------
//
// Besides the shipped fields, two moduli far below R (copies of residue_test's
// synthetic fields): there a sum of maximal products passes p·R after about
// 32 (F59) or 2048 (F245) terms, past what one subtraction after REDC fixes.
struct F59Config {
  static constexpr size_t kLimbs = 1;
  static constexpr std::array<uint64_t, 1> kModulus = {0x07FFFFFFFFFFFFC9ULL};
  static constexpr const char* kName = "F59";
};
using F59 = PrimeField<F59Config>;

struct F245Config {
  static constexpr size_t kLimbs = 4;
  static constexpr std::array<uint64_t, 4> kModulus = {
      0xFFFFFFFFFFFFFF5DULL, 0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL,
      0x001FFFFFFFFFFFFFULL};
  static constexpr const char* kName = "F245";
};
using F245 = PrimeField<F245Config>;

template <typename F>
class DotProductTest : public ::testing::Test {
 protected:
  // The kernel multiplies Montgomery values, so the largest operand is the
  // element whose Montgomery form is p - 1, not the canonical p - 1.
  static F Max() {
    typename F::Repr m = F::kModulus;
    m.SubInPlace(typename F::Repr(uint64_t{1}));
    return F::FromMontgomery(m);
  }

  // Every path must equal the frozen reference loop: the dispatched kernel,
  // the generic loop a host without BMI2 runs, and the oracle's entry point.
  static void ExpectMatchesReference(const std::vector<F>& a,
                                     const std::vector<F>& b,
                                     const char* pattern) {
    const size_t n = a.size();
    const F expect = VectorOracle<F>::InnerProductNaive(a.data(), b.data(), n);
    EXPECT_EQ(F::DotProduct(a.data(), b.data(), n), expect)
        << pattern << " n=" << n;
    typename F::Wide acc;
    F::DotLoop(acc, a.data(), b.data(), n);
    EXPECT_EQ(F::ReduceWide(acc), expect) << pattern << " generic n=" << n;
    EXPECT_EQ(VectorOracle<F>::InnerProduct(a.data(), b.data(), n), expect)
        << pattern << " oracle n=" << n;
  }
};

using DotFieldTypes = ::testing::Types<F128, F220, FGoldilocks, F59, F245>;
TYPED_TEST_SUITE(DotProductTest, DotFieldTypes);

TYPED_TEST(DotProductTest, KernelMatchesReferenceOnEveryPatternAndLength) {
  using F = TypeParam;
  const F max = TestFixture::Max();
  Prg prg(31);
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{7},
                   size_t{4097}, size_t{1} << 17}) {
    const std::vector<F> zero(n, F::Zero());
    TestFixture::ExpectMatchesReference(zero, zero, "zero");
    TestFixture::ExpectMatchesReference(prg.NextFieldVector<F>(n),
                                        prg.NextFieldVector<F>(n), "random");
    // Montgomery values p - 1 and 1 alternate: x and -x, so each pair of
    // maximal and minimal products cancels in the field.
    std::vector<F> alt(n);
    for (size_t i = 0; i < n; i++) {
      alt[i] = i % 2 == 0 ? max : -max;
    }
    const std::vector<F> maximal(n, max);
    TestFixture::ExpectMatchesReference(alt, maximal, "alternating");
    TestFixture::ExpectMatchesReference(maximal, maximal, "maximal");
  }
}

// The column form used for the verifier's t vector: one accumulator per
// position, a scaled vector added per call, generic and tuned loops alike.
TYPED_TEST(DotProductTest, ColumnFormMatchesScaledSums) {
  using F = TypeParam;
  const F max = TestFixture::Max();
  Prg prg(32);
  const size_t kLen = 5;
  const size_t kScalars = 4097;  // past F245's 2048 maximal terms
  std::vector<typename F::Wide> tuned(kLen), generic(kLen);
  std::vector<F> expect(kLen, F::Zero());
  for (size_t k = 0; k < kScalars; k++) {
    std::vector<F> b = prg.NextFieldVector<F>(kLen);
    b[0] = max;  // position 0 sums maximal products only
    const F a = k % 3 == 0 ? prg.NextField<F>() : max;
    F::MulAddWide(tuned.data(), a, b.data(), kLen);
    F::ColumnLoop(generic.data(), a, b.data(), kLen);
    for (size_t i = 0; i < kLen; i++) {
      expect[i] += a * b[i];
    }
  }
  for (size_t i = 0; i < kLen; i++) {
    EXPECT_EQ(tuned[i], generic[i]) << "position " << i;
    EXPECT_EQ(F::ReduceWide(tuned[i]), expect[i]) << "position " << i;
  }
}

// ReduceWide on accumulators no real sum reaches (all limbs saturated, only
// the top limb set), checked against FromLimbs: the result is the element
// whose Montgomery form is acc·R⁻¹, so its canonical value is acc·R⁻².
TYPED_TEST(DotProductTest, ReduceWideHandlesExtremeAccumulators) {
  using F = TypeParam;
  using Wide = typename F::Wide;
  const F r = F::FromCanonical(F::kMontR);
  std::vector<Wide> cases(4);
  for (uint64_t& limb : cases[1].limbs) {
    limb = ~uint64_t{0};
  }
  cases[2].limbs[Wide::kLimbs - 1] = ~uint64_t{0};
  Prg prg(33);
  for (uint64_t& limb : cases[3].limbs) {
    limb = prg.NextU64();
  }
  for (const Wide& acc : cases) {
    EXPECT_EQ(F::ReduceWide(acc) * r * r,
              F::FromLimbs(acc.limbs.data(), Wide::kLimbs));
  }
}

TEST(FieldParamsTest, ModuliMatchTheDocumentedValues) {
  // q128 = 2^128 - 159.
  F128 v = F128::FromUint(0);
  (void)v;
  BigInt<2> q128 = F128::kModulus;
  q128.AddInPlace(BigInt<2>(uint64_t{159}));
  EXPECT_TRUE(q128.IsZero());  // wrapped around 2^128 exactly
  // q220 = 2^220 - 77.
  BigInt<4> q220 = F220::kModulus;
  q220.AddInPlace(BigInt<4>(uint64_t{77}));
  BigInt<4> two220;
  two220.limbs[3] = uint64_t{1} << (220 - 192);
  EXPECT_EQ(q220, two220);
  EXPECT_EQ(F128::kModulusBits, 128u);
  EXPECT_EQ(F220::kModulusBits, 220u);
}

TEST(PrgFieldTest, SamplesAreWellDistributed) {
  // Crude uniformity check: the top bit of canonical values should be set
  // about half the time for F128 (modulus is just below 2^128).
  Prg prg(18);
  int top = 0;
  const int kSamples = 2000;
  for (int i = 0; i < kSamples; i++) {
    if (prg.NextField<F128>().ToCanonical().Bit(127)) {
      top++;
    }
  }
  EXPECT_GT(top, kSamples / 2 - 200);
  EXPECT_LT(top, kSamples / 2 + 200);
}

}  // namespace
}  // namespace zaatar
