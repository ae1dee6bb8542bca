#include "src/poly/residue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/crypto/prg.h"
#include "src/field/fields.h"
#include "tests/test_util.h"

namespace zaatar {
namespace {

// A synthetic field whose shift bound 2·245 + ceil(log2(m+1)) exhausts the
// 8-prime basis at small m (the production fields need 5 resp. 8 primes at
// every feasible size): F245 = 2^245 - 163.
struct F245Config {
  static constexpr size_t kLimbs = 4;
  static constexpr std::array<uint64_t, 4> kModulus = {
      0xFFFFFFFFFFFFFF5DULL, 0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL,
      0x001FFFFFFFFFFFFFULL};
  static constexpr const char* kName = "F245";
};
using F245 = PrimeField<F245Config>;

static_assert(F245::kModulusBits == 245);

template <typename F>
class ResiduePolyTest : public ::testing::Test {
 protected:
  // Full basis: 495-bit capacity leaves headroom for chained products.
  const CrtBasis<F>& basis_ = CrtBasis<F>::Get(kNumNttPrimes);

  ResiduePoly<F> FromVec(const std::vector<F>& c, size_t workers = 1) {
    return ResiduePoly<F>::FromCoefficients(c.data(), c.size(), basis_,
                                            workers);
  }

  // The whole product a·b: b's images at a transform that covers it, and
  // the offset-0 window.
  ResiduePoly<F> Mul(const std::vector<F>& a, const std::vector<F>& b,
                     size_t workers = 1) {
    const size_t out_len = a.size() + b.size() - 1;
    return ResiduePoly<F>::MulImages(
        FromVec(a, workers),
        FromVec(b, workers).ForwardImages(CeilLog2(out_len), workers), 0,
        out_len, workers);
  }
};

using TestFields = ::testing::Types<F128, F220>;
TYPED_TEST_SUITE(ResiduePolyTest, TestFields);

TYPED_TEST(ResiduePolyTest, RoundTrip) {
  using F = TypeParam;
  Prg prg(900);
  std::vector<F> c = prg.NextFieldVector<F>(57);
  ResiduePoly<F> r = this->FromVec(c);
  EXPECT_TRUE(r.IsCanonical());
  EXPECT_EQ(r.ToCoefficients(1), c);
}

TYPED_TEST(ResiduePolyTest, MulMatchesSchoolbook) {
  using F = TypeParam;
  Prg prg(901);
  for (auto [la, lb] : {std::pair<size_t, size_t>{1, 1},
                        {1, 7},
                        {8, 8},
                        {31, 33},
                        {64, 100}}) {
    std::vector<F> a = prg.NextFieldVector<F>(la);
    std::vector<F> b = prg.NextFieldVector<F>(lb);
    EXPECT_EQ(this->Mul(a, b).ToCoefficients(1), SchoolbookMul(a, b))
        << "lengths " << la << "x" << lb;
  }
}

// The QAP prover's shift: coefficients m..2m of a length-(m+1) by
// length-(2m+1) product, read from a cyclic product of length
// N = 2^ceil(log2(2m+1)), shorter than the linear product's 3m+1, on the
// basis ComputeH sizes for it (2·bits(p) + ceil(log2(m+1))). The wrapped
// tail must land below index m, and the bound must hold even when every
// coefficient is p-1.
TYPED_TEST(ResiduePolyTest, OffsetProductMatchesSchoolbookMiddle) {
  using F = TypeParam;
  Prg prg(910);
  for (size_t m : {size_t{3}, size_t{7}, size_t{60}, size_t{500}}) {
    const size_t log_n = CeilLog2(2 * m + 1);
    ASSERT_LT(size_t{1} << log_n, 3 * m + 1) << "m " << m;
    const CrtBasis<F>& basis = CrtBasis<F>::Get(
        CrtBasisSizeForBound(2 * F::kModulusBits + CeilLog2(m + 1)));
    std::vector<F> max_a(m + 1, F::Zero() - F::One());
    std::vector<F> max_b(2 * m + 1, F::Zero() - F::One());
    for (const auto& [a, b] :
         {std::pair{prg.NextFieldVector<F>(m + 1),
                    prg.NextFieldVector<F>(2 * m + 1)},
          std::pair{max_a, max_b}}) {
      NttImages bimg =
          ResiduePoly<F>::FromCoefficients(b.data(), b.size(), basis, 1)
              .ForwardImages(log_n, 1);
      std::vector<F> got =
          ResiduePoly<F>::MulImages(
              ResiduePoly<F>::FromCoefficients(a.data(), a.size(), basis, 1),
              bimg, m, m + 1, 1)
              .ToCoefficients(1);
      std::vector<F> full = SchoolbookMul(a, b);
      EXPECT_EQ(got, std::vector<F>(full.begin() + m,
                                    full.begin() + 2 * m + 1))
          << "m " << m << (a == max_a ? ", all p-1" : ", random");
    }
  }
}

// The per-residue fan-out must be purely structural: identical results (and
// identical raw residues) regardless of worker count.
TYPED_TEST(ResiduePolyTest, WorkerCountDoesNotChangeResults) {
  using F = TypeParam;
  Prg prg(909);
  std::vector<F> a = prg.NextFieldVector<F>(700);
  std::vector<F> b = prg.NextFieldVector<F>(650);
  ResiduePoly<F> p1 = this->Mul(a, b, 1);
  ResiduePoly<F> p4 = this->Mul(a, b, 4);
  for (size_t pi = 0; pi < this->basis_.k(); pi++) {
    EXPECT_EQ(p1.Residues(pi), p4.Residues(pi)) << "prime " << pi;
  }
  EXPECT_EQ(p1.ToCoefficients(1), p4.ToCoefficients(4));
}

// ----- CRT sizing: the bound ComputeH sizes its basis with -----

// The largest m whose shift bound fits 8 primes, found by scanning the
// predicate ComputeH's basis is sized with: there the offset product must
// still match schoolbook, with random operands and with every coefficient
// at p-1 (the maximum the bound was derived for).
TEST(CrtSizingTest, OffsetProductExactAtLargestFittingDegree) {
  using F = F245;
  auto shift_bound = [](size_t m) {
    return 2 * F::kModulusBits + CeilLog2(m + 1);
  };
  size_t largest = 0;
  for (size_t m = 1; CrtBasisFitsBound(shift_bound(m)); m++) {
    largest = m;
  }
  ASSERT_EQ(largest, 31u);
  const size_t m = largest;
  ASSERT_EQ(CrtBasisSizeForBound(shift_bound(m)), kNumNttPrimes);
  const CrtBasis<F>& basis =
      CrtBasis<F>::Get(CrtBasisSizeForBound(shift_bound(m)));
  Prg prg(920);
  std::vector<F> max_a(m + 1, F::Zero() - F::One());
  std::vector<F> max_b(2 * m + 1, F::Zero() - F::One());
  for (const auto& [a, b] :
       {std::pair{prg.NextFieldVector<F>(m + 1),
                  prg.NextFieldVector<F>(2 * m + 1)},
        std::pair{max_a, max_b}}) {
    NttImages bimg =
        ResiduePoly<F>::FromCoefficients(b.data(), b.size(), basis, 1)
            .ForwardImages(CeilLog2(2 * m + 1), 1);
    std::vector<F> got =
        ResiduePoly<F>::MulImages(
            ResiduePoly<F>::FromCoefficients(a.data(), a.size(), basis, 1),
            bimg, m, m + 1, 1)
            .ToCoefficients(1);
    std::vector<F> full = SchoolbookMul(a, b);
    EXPECT_EQ(got,
              std::vector<F>(full.begin() + m, full.begin() + 2 * m + 1))
        << (a == max_a ? "all p-1" : "random");
  }
}

#ifndef NDEBUG
// Sizing asserts in debug builds (sanitizer CI runs these).
TEST(CrtSizingDeathTest, SizeForBoundAbortsPastCapacity) {
  EXPECT_DEATH(
      CrtBasisSizeForBound(CrtBasis<F245>::Capacity(kNumNttPrimes) + 1),
      "CRT basis");
}
#endif

}  // namespace
}  // namespace zaatar
