#include "src/poly/ntt.h"

#include <gtest/gtest.h>

#include "src/crypto/prg.h"

namespace zaatar {
namespace {

TEST(MontField64Test, BasicArithmetic) {
  MontField64 f(kNttPrimes[0]);
  uint64_t a = f.ToMont(123456789);
  uint64_t b = f.ToMont(987654321);
  EXPECT_EQ(f.FromMont(f.Mul(a, b)),
            static_cast<uint64_t>((static_cast<__uint128_t>(123456789) *
                                   987654321) %
                                  kNttPrimes[0]));
  EXPECT_EQ(f.FromMont(f.Add(a, b)), (123456789ull + 987654321ull));
  EXPECT_EQ(f.FromMont(f.Sub(b, a)), (987654321ull - 123456789ull));
  EXPECT_EQ(f.FromMont(f.One()), 1u);
}

TEST(MontField64Test, InverseAndPow) {
  Prg prg(20);
  for (size_t pi = 0; pi < kNumNttPrimes; pi++) {
    MontField64 f(kNttPrimes[pi]);
    for (int i = 0; i < 20; i++) {
      uint64_t x = prg.NextU64() % kNttPrimes[pi];
      if (x == 0) {
        continue;
      }
      uint64_t xm = f.ToMont(x);
      EXPECT_EQ(f.Mul(xm, f.Inverse(xm)), f.One());
    }
  }
}

TEST(NttPrimesTest, PrimesAreMillerRabinPrime) {
  Prg prg(21);
  for (size_t pi = 0; pi < kNumNttPrimes; pi++) {
    const uint64_t p = kNttPrimes[pi];
    MontField64 f(p);
    uint64_t d = p - 1;
    size_t r = 0;
    while ((d & 1) == 0) {
      d >>= 1;
      r++;
    }
    EXPECT_GE(r, kNttTwoAdicity) << "prime " << pi << " lacks 2-adicity";
    for (int round = 0; round < 16; round++) {
      uint64_t a = prg.NextU64() % (p - 2) + 2;
      uint64_t x = f.Pow(f.ToMont(a), d);
      if (x == f.One() || x == f.Sub(0, f.One())) {
        continue;
      }
      bool witness = true;
      for (size_t i = 0; i + 1 < r; i++) {
        x = f.Mul(x, x);
        if (x == f.Sub(0, f.One())) {
          witness = false;
          break;
        }
      }
      EXPECT_FALSE(witness) << "prime " << pi << " fails Miller-Rabin";
    }
  }
}

TEST(NttPrimesTest, RootsHaveExactOrder) {
  for (size_t pi = 0; pi < kNumNttPrimes; pi++) {
    MontField64 f(kNttPrimes[pi]);
    uint64_t root = f.ToMont(kNttRoots[pi]);
    // root^(2^42) = 1 and root^(2^41) != 1.
    uint64_t x = root;
    for (size_t i = 0; i < kNttTwoAdicity - 1; i++) {
      x = f.Mul(x, x);
    }
    EXPECT_NE(x, f.One()) << "root order too small for prime " << pi;
    x = f.Mul(x, x);
    EXPECT_EQ(x, f.One()) << "root order too large for prime " << pi;
  }
}

TEST(NttPlanTest, ForwardInverseRoundTrip) {
  Prg prg(22);
  for (size_t log_n : {0u, 1u, 4u, 10u}) {
    const NttPlan& plan = GetNttPlan(0, log_n);
    const MontField64& f = plan.field();
    std::vector<uint64_t> data(plan.size());
    for (auto& x : data) {
      x = f.ToMont(prg.NextU64() % f.modulus());
    }
    std::vector<uint64_t> orig = data;
    plan.Forward(data.data());
    plan.Inverse(data.data());
    EXPECT_EQ(data, orig) << "log_n=" << log_n;
  }
}

TEST(NttPlanTest, ForwardMatchesDirectDft) {
  // n = 8: compare against the O(n^2) evaluation at root powers.
  const size_t kLogN = 3, kN = 8;
  const NttPlan& plan = GetNttPlan(1, kLogN);
  const MontField64& f = plan.field();
  Prg prg(23);
  std::vector<uint64_t> coeffs(kN);
  for (auto& c : coeffs) {
    c = prg.NextU64() % f.modulus();
  }
  std::vector<uint64_t> data(kN);
  for (size_t i = 0; i < kN; i++) {
    data[i] = f.ToMont(coeffs[i]);
  }
  plan.Forward(data.data());
  // Recover the order-8 root: root42^(2^(42-3)).
  uint64_t w = f.ToMont(kNttRoots[1]);
  for (size_t i = 0; i < kNttTwoAdicity - kLogN; i++) {
    w = f.Mul(w, w);
  }
  for (size_t k = 0; k < kN; k++) {
    uint64_t wk = f.Pow(w, k);
    uint64_t acc = 0;
    uint64_t pw = f.One();
    for (size_t j = 0; j < kN; j++) {
      acc = f.Add(acc, f.Mul(f.ToMont(coeffs[j]), pw));
      pw = f.Mul(pw, wk);
    }
    EXPECT_EQ(f.FromMont(data[k]), f.FromMont(acc)) << "bin " << k;
  }
}

TEST(TransposeTest, BlockedTransposeMatchesNaive) {
  Prg prg(25);
  for (auto [rows, cols] : {std::pair<size_t, size_t>{1, 1},
                            {7, 3},
                            {32, 32},
                            {33, 65},
                            {128, 64}}) {
    std::vector<uint64_t> src(rows * cols), dst(rows * cols, ~uint64_t{0});
    for (auto& x : src) {
      x = prg.NextU64();
    }
    TransposeBlocked(src.data(), dst.data(), rows, cols);
    for (size_t r = 0; r < rows; r++) {
      for (size_t c = 0; c < cols; c++) {
        ASSERT_EQ(dst[c * rows + r], src[r * cols + c])
            << rows << "x" << cols << " at (" << r << "," << c << ")";
      }
    }
  }
}

// The four-step decomposition must be bit-identical to the radix-2 plans in
// both directions — images produced by either path are mixed freely (cached
// NttImages vs fresh transforms), so ordering compatibility is load-bearing.
TEST(FourStepTest, MatchesRadix2Plans) {
  Prg prg(26);
  for (size_t pi : {size_t{0}, size_t{5}}) {
    const MontField64 f(kNttPrimes[pi]);
    for (size_t log_n : {size_t{2}, size_t{5}, size_t{9}, size_t{12}}) {
      size_t n = size_t{1} << log_n;
      std::vector<uint64_t> a(n);
      for (auto& x : a) {
        x = f.ToMont(prg.NextU64() % f.modulus());
      }
      std::vector<uint64_t> b = a;
      GetNttPlan(pi, log_n).Forward(a.data());
      NttForwardFourStep(pi, b.data(), log_n);
      EXPECT_EQ(a, b) << "forward, prime " << pi << " log_n " << log_n;
      GetNttPlan(pi, log_n).Inverse(a.data());
      NttInverseFourStep(pi, b.data(), log_n);
      EXPECT_EQ(a, b) << "inverse, prime " << pi << " log_n " << log_n;
    }
  }
}

TEST(FourStepTest, RoundTripAtDispatchThreshold) {
  // Exercise the size the dispatcher actually routes to the four-step path.
  const size_t log_n = kNttFourStepMinLogN;
  const MontField64 f(kNttPrimes[2]);
  Prg prg(27);
  size_t n = size_t{1} << log_n;
  std::vector<uint64_t> data(n);
  for (auto& x : data) {
    x = f.ToMont(prg.NextU64() % f.modulus());
  }
  std::vector<uint64_t> orig = data;
  NttForward(2, data.data(), log_n);
  EXPECT_NE(data, orig);
  NttInverse(2, data.data(), log_n);
  EXPECT_EQ(data, orig);
}

}  // namespace
}  // namespace zaatar
