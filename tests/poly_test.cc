#include "src/poly/polynomial.h"

#include <gtest/gtest.h>

#include "src/crypto/prg.h"
#include "src/field/fields.h"
#include "src/poly/algorithms.h"

namespace zaatar {
namespace {

using F = F128;
using P = Polynomial<F>;

P RandomPoly(Prg& prg, size_t coeff_count) {
  return P(prg.NextFieldVector<F>(coeff_count));
}

TEST(PolynomialTest, NormalizationTrimsLeadingZeros) {
  P p({F::FromUint(1), F::FromUint(2), F::Zero(), F::Zero()});
  EXPECT_EQ(p.Degree(), 1);
  EXPECT_EQ(P(std::vector<F>{F::Zero()}).Degree(), -1);
  EXPECT_TRUE(P::Zero().IsZero());
}

TEST(PolynomialTest, EvaluateHorner) {
  // p(x) = 3 + 2x + x^2, p(5) = 38.
  P p({F::FromUint(3), F::FromUint(2), F::FromUint(1)});
  EXPECT_EQ(p.Evaluate(F::FromUint(5)), F::FromUint(38));
  EXPECT_EQ(P::Zero().Evaluate(F::FromUint(5)), F::Zero());
  EXPECT_EQ(P::Constant(F::FromUint(7)).Evaluate(F::FromUint(9)),
            F::FromUint(7));
}

TEST(PolynomialTest, AdditionAndSubtraction) {
  Prg prg(30);
  P a = RandomPoly(prg, 10), b = RandomPoly(prg, 17);
  P sum = a + b;
  F x = prg.NextField<F>();
  EXPECT_EQ(sum.Evaluate(x), a.Evaluate(x) + b.Evaluate(x));
  EXPECT_EQ((a - b).Evaluate(x), a.Evaluate(x) - b.Evaluate(x));
  EXPECT_TRUE((a - a).IsZero());
  EXPECT_EQ((-a) + a, P::Zero());
}

TEST(PolynomialTest, MultiplicationEvaluatesCorrectly) {
  Prg prg(31);
  P a = RandomPoly(prg, 7), b = RandomPoly(prg, 9);
  P prod = a * b;
  EXPECT_EQ(prod.Degree(), a.Degree() + b.Degree());
  for (int i = 0; i < 5; i++) {
    F x = prg.NextField<F>();
    EXPECT_EQ(prod.Evaluate(x), a.Evaluate(x) * b.Evaluate(x));
  }
}

TEST(PolynomialTest, MultiplyByZeroAndScalar) {
  Prg prg(32);
  P a = RandomPoly(prg, 12);
  EXPECT_TRUE((a * P::Zero()).IsZero());
  F s = prg.NextField<F>();
  F x = prg.NextField<F>();
  EXPECT_EQ((a * s).Evaluate(x), a.Evaluate(x) * s);
}

// The CRT/NTT path must agree with schoolbook across the naive-mul cutover.
class CrtMulTest : public ::testing::TestWithParam<std::pair<size_t, size_t>> {
};

TEST_P(CrtMulTest, MatchesNaive) {
  auto [na, nb] = GetParam();
  Prg prg(33 + na * 131 + nb);
  auto a = prg.NextFieldVector<F>(na);
  auto b = prg.NextFieldVector<F>(nb);
  EXPECT_EQ(MulCrt(a.data(), na, b.data(), nb), P::NaiveMul(a, b));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, CrtMulTest,
    ::testing::ValuesIn(std::vector<std::pair<size_t, size_t>>{
        {1, 1}, {2, 3}, {16, 16}, {31, 33}, {32, 32}, {33, 31},
        {64, 100}, {255, 257}, {512, 1}, {1, 512}}));

TEST(CrtMulTest, WorksOverTheWideField) {
  Prg prg(34);
  auto a = prg.NextFieldVector<F220>(80);
  auto b = prg.NextFieldVector<F220>(90);
  EXPECT_EQ(MulCrt(a.data(), a.size(), b.data(), b.size()),
            Polynomial<F220>::NaiveMul(a, b));
}

TEST(NewtonInverseTest, InvertsPowerSeries) {
  Prg prg(35);
  for (size_t count : {1u, 2u, 7u, 33u, 100u}) {
    P f = RandomPoly(prg, 20);
    if (f.CoefficientOrZero(0).IsZero()) {
      f = f + P::Constant(F::One());
    }
    P inv = NewtonInverse(f, count);
    P check = (f * inv).Truncate(count);
    EXPECT_EQ(check, P::Constant(F::One())) << "count=" << count;
  }
}

TEST(DivRemTest, QuotientRemainderIdentity) {
  Prg prg(36);
  for (auto [na, nb] : {std::pair<size_t, size_t>{10, 3},
                        {100, 37},
                        {33, 33},
                        {64, 1},
                        {5, 9}}) {
    P a = RandomPoly(prg, na), b = RandomPoly(prg, nb);
    auto [q, r] = DivRem(a, b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r.Degree(), b.Degree());
  }
}

TEST(DivRemTest, ExactDivisionLeavesZeroRemainder) {
  Prg prg(37);
  P a = RandomPoly(prg, 40), b = RandomPoly(prg, 23);
  auto [q, r] = DivRem(a * b, b);
  EXPECT_TRUE(r.IsZero());
  EXPECT_EQ(q, a);
}

TEST(PolynomialTest, DerivativePowerRule) {
  // d/dx (x^3 + 4x) = 3x^2 + 4.
  P p({F::Zero(), F::FromUint(4), F::Zero(), F::FromUint(1)});
  P d = p.Derivative();
  EXPECT_EQ(d, P({F::FromUint(4), F::Zero(), F::FromUint(3)}));
  EXPECT_TRUE(P::Constant(F::FromUint(9)).Derivative().IsZero());
}

TEST(PolynomialTest, ReverseAndShifts) {
  P p({F::FromUint(1), F::FromUint(2), F::FromUint(3)});
  EXPECT_EQ(p.Reverse(2),
            P({F::FromUint(3), F::FromUint(2), F::FromUint(1)}));
  EXPECT_EQ(p.ShiftUp(2).Degree(), 4);
  EXPECT_EQ(p.ShiftUp(2).ShiftDown(2), p);
}

class SubproductTreeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SubproductTreeTest, MultipointEvaluationMatchesHorner) {
  size_t n = GetParam();
  Prg prg(38);
  std::vector<F> points(n);
  for (size_t i = 0; i < n; i++) {
    points[i] = F::FromUint(i + 1);
  }
  SubproductTree<F> tree(points);
  EXPECT_EQ(tree.Root().Degree(), static_cast<long>(n));
  P f = RandomPoly(prg, n + 3);  // degree above the root's, exercises the
                                 // initial reduction
  auto evals = tree.EvaluateAll(f);
  for (size_t i = 0; i < n; i++) {
    EXPECT_EQ(evals[i], f.Evaluate(points[i])) << "point " << i;
  }
}

TEST_P(SubproductTreeTest, InterpolationRoundTrip) {
  size_t n = GetParam();
  Prg prg(39);
  std::vector<F> points(n);
  for (size_t i = 0; i < n; i++) {
    points[i] = F::FromUint(i * 7 + 5);  // arbitrary distinct points
  }
  SubproductTree<F> tree(points);
  auto values = prg.NextFieldVector<F>(n);
  P interp = tree.Interpolate(values);
  EXPECT_LT(interp.Degree(), static_cast<long>(n));
  for (size_t i = 0; i < n; i++) {
    EXPECT_EQ(interp.Evaluate(points[i]), values[i]) << "point " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SubproductTreeTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 33, 100, 257));

TEST(SubproductTreeTest, MatchesNaiveLagrange) {
  Prg prg(40);
  size_t n = 20;
  std::vector<F> points(n);
  for (size_t i = 0; i < n; i++) {
    points[i] = prg.NextField<F>();
  }
  auto values = prg.NextFieldVector<F>(n);
  SubproductTree<F> tree(points);
  EXPECT_EQ(tree.Interpolate(values), InterpolateNaive(points, values));
}

TEST(SubproductTreeTest, RootVanishesExactlyOnPoints) {
  std::vector<F> points = {F::FromUint(2), F::FromUint(4), F::FromUint(9)};
  SubproductTree<F> tree(points);
  for (const F& pt : points) {
    EXPECT_TRUE(tree.Root().Evaluate(pt).IsZero());
  }
  EXPECT_FALSE(tree.Root().Evaluate(F::FromUint(3)).IsZero());
  EXPECT_TRUE(tree.Root().LeadingCoefficient().IsOne());  // monic
}

// The closed-form weights of the points 0..n-1 against the derivation every
// other point set takes: m'(u_i) evaluated over the tree, then inverted.
// ComputeHNaive interpolates through these weights, so this keeps
// qap_test's ComputeH differential independent of the closed form.
template <typename Field>
void ExpectClosedFormWeightsMatchDerivative(size_t n) {
  std::vector<Field> points(n);
  for (size_t i = 0; i < n; i++) {
    points[i] = Field::FromUint(i);
  }
  SubproductTree<Field> tree(points);
  ASSERT_TRUE(tree.HasConsecutivePoints()) << "n = " << n;
  std::vector<Field> derived = tree.EvaluateAll(tree.Root().Derivative());
  BatchInvert(derived.data(), derived.size());
  EXPECT_EQ(tree.InterpolationWeights(), derived) << "n = " << n;
}

TEST(InterpolationWeightsTest, ClosedFormMatchesDerivativeOnBothFields) {
  for (size_t n : {1, 2, 3, 31, 32, 33, 1000, 2662, 3535}) {
    ExpectClosedFormWeightsMatchDerivative<F128>(n);
    ExpectClosedFormWeightsMatchDerivative<F220>(n);
  }
}

// Any other point set takes the derivative path: the shifted points 1..n
// (whose weights happen to equal those of 0..n-1) and 0..n-1 with the last
// point moved one step.
TEST(InterpolationWeightsTest, OtherPointSetsTakeTheDerivativePath) {
  const size_t n = 33;
  std::vector<F> shifted(n);
  std::vector<F> gapped(n);
  for (size_t i = 0; i < n; i++) {
    shifted[i] = F::FromUint(i + 1);
    gapped[i] = F::FromUint(i + 1 < n ? i : i + 1);
  }
  for (const std::vector<F>& points : {shifted, gapped}) {
    SubproductTree<F> tree(points);
    EXPECT_FALSE(tree.HasConsecutivePoints());
    std::vector<F> derived = tree.EvaluateAll(tree.Root().Derivative());
    BatchInvert(derived.data(), derived.size());
    EXPECT_EQ(tree.InterpolationWeights(), derived);
  }
}

}  // namespace
}  // namespace zaatar
