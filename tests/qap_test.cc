#include "src/constraints/qap.h"

#include <gtest/gtest.h>

#include "src/constraints/transform.h"
#include "src/field/fields.h"
#include "tests/test_util.h"

namespace zaatar {
namespace {

using F = F128;

struct QapFixture {
  RandomSystem<F> rs;
  ZaatarTransform<F> transform;
  std::vector<F> witness;

  static QapFixture Make(Prg& prg, size_t num_unbound = 8,
                         size_t num_constraints = 15) {
    QapFixture f;
    f.rs = MakeRandomSatisfiedSystem<F>(prg, num_unbound, 3, 2,
                                        num_constraints);
    f.transform = GingerToZaatar(f.rs.system);
    f.witness = f.transform.ExtendAssignment(f.rs.assignment);
    return f;
  }
};

TEST(QapTest, HDividesExactlyForSatisfyingAssignment) {
  Prg prg(70);
  auto f = QapFixture::Make(prg);
  Qap<F> qap(f.transform.r1cs);
  auto hr = qap.ComputeH(f.witness);
  EXPECT_TRUE(hr.exact);
  EXPECT_EQ(hr.h.size(), qap.Degree() + 1);
  // H(0) = 0 because P_w vanishes at the extra interpolation point 0.
  EXPECT_TRUE(EvaluatePoly(PolynomialThroughHNodes(hr.h), F::Zero()).IsZero());
}

TEST(QapTest, HDoesNotDivideForBadAssignment) {
  Prg prg(71);
  auto f = QapFixture::Make(prg);
  Qap<F> qap(f.transform.r1cs);
  for (int trial = 0; trial < 5; trial++) {
    auto bad = f.witness;
    bad[prg.NextBounded(f.transform.r1cs.layout.num_unbound)] +=
        prg.NextNonzeroField<F>();
    if (f.transform.r1cs.IsSatisfied(bad)) {
      continue;  // astronomically unlikely
    }
    EXPECT_FALSE(qap.ComputeH(bad).exact);
  }
}

// The core verifier identity: D(tau)·H(tau) = A(tau)·B(tau) - C(tau), where
// the right side is assembled from the evaluation rows and the witness.
TEST(QapTest, DivisibilityIdentityAtRandomPoints) {
  Prg prg(72);
  auto f = QapFixture::Make(prg);
  Qap<F> qap(f.transform.r1cs);
  auto hr = qap.ComputeH(f.witness);
  for (int trial = 0; trial < 5; trial++) {
    F tau = prg.NextField<F>();
    auto ev_or = qap.EvaluateAtTau(tau);
    ASSERT_TRUE(ev_or.ok()) << ev_or.status().ToString();
    const auto& ev = *ev_or;
    F h_tau = F::Zero();
    for (size_t k = 0; k < hr.h.size(); k++) {
      h_tau += hr.h[k] * ev.h_row[k];
    }
    F a = ev.a_rows[0], b = ev.b_rows[0], c = ev.c_rows[0];
    for (size_t i = 0; i < f.witness.size(); i++) {
      a += ev.a_rows[i + 1] * f.witness[i];
      b += ev.b_rows[i + 1] * f.witness[i];
      c += ev.c_rows[i + 1] * f.witness[i];
    }
    EXPECT_EQ(ev.d_tau * h_tau, a * b - c);
  }
}

TEST(QapTest, EvaluationRowsMatchDirectInterpolation) {
  // Cross-check the barycentric fast path against naive Lagrange for one
  // variable's polynomial A_i(t).
  Prg prg(73);
  auto f = QapFixture::Make(prg, /*num_unbound=*/4, /*num_constraints=*/6);
  Qap<F> qap(f.transform.r1cs);
  const auto& cs = f.transform.r1cs;
  size_t m = cs.NumConstraints();
  F tau = prg.NextField<F>();
  auto ev_or = qap.EvaluateAtTau(tau);
  ASSERT_TRUE(ev_or.ok()) << ev_or.status().ToString();
  const auto& ev = *ev_or;

  // Build A_i(t) for every row by naive interpolation through
  // (0,0),(j, a_{i,j}).
  std::vector<F> points(m + 1);
  for (size_t k = 0; k <= m; k++) {
    points[k] = F::FromUint(k);
  }
  size_t rows = cs.NumVariables() + 1;
  for (size_t row = 0; row < rows; row++) {
    std::vector<F> values(m + 1, F::Zero());
    for (size_t j = 0; j < m; j++) {
      const auto& lc = cs.constraints[j].a;
      if (row == 0) {
        values[j + 1] = lc.constant();
      } else {
        for (const auto& [v, coeff] : lc.terms()) {
          if (v + 1 == row) {
            values[j + 1] += coeff;
          }
        }
      }
    }
    EXPECT_EQ(EvaluatePoly(InterpolateLagrange(points, values), tau),
              ev.a_rows[row])
        << "row " << row;
  }
}

TEST(QapTest, DTauMatchesExplicitProduct) {
  Prg prg(74);
  auto f = QapFixture::Make(prg, 4, 7);
  Qap<F> qap(f.transform.r1cs);
  F tau = prg.NextField<F>();
  auto ev_or = qap.EvaluateAtTau(tau);
  ASSERT_TRUE(ev_or.ok()) << ev_or.status().ToString();
  const auto& ev = *ev_or;
  F expect = F::One();
  for (size_t j = 1; j <= qap.Degree(); j++) {
    expect *= tau - F::FromUint(j);
  }
  EXPECT_EQ(ev.d_tau, expect);
}

TEST(QapTest, SingleConstraintSystem) {
  // Minimal QAP: one constraint x*y = z.
  R1cs<F> cs;
  cs.layout = {3, 0, 0};
  R1csConstraint<F> c;
  c.a = LinearCombination<F>::Variable(0);
  c.b = LinearCombination<F>::Variable(1);
  c.c = LinearCombination<F>::Variable(2);
  cs.constraints.push_back(c);
  Qap<F> qap(cs);
  std::vector<F> w = {F::FromUint(5), F::FromUint(8), F::FromUint(40)};
  EXPECT_TRUE(qap.ComputeH(w).exact);
  w[2] = F::FromUint(41);
  EXPECT_FALSE(qap.ComputeH(w).exact);
}

// Regression for the NDEBUG-unsafe assert this used to be: evaluating at a
// point inside the interpolation set {0..m} or at an h node m+1..2m+1 must
// come back as a typed kOutOfRange error, not a release-mode division by
// zero in the barycentric weights. (GenerateQueries resamples tau on this
// error.)
TEST(QapTest, EvaluateAtTauRejectsInterpolationPoints) {
  Prg prg(76);
  auto f = QapFixture::Make(prg, 4, 7);
  Qap<F> qap(f.transform.r1cs);
  for (size_t k = 0; k <= 2 * qap.Degree() + 1; k++) {
    auto ev_or = qap.EvaluateAtTau(F::FromUint(k));
    ASSERT_FALSE(ev_or.ok()) << "tau = " << k << " is a point or an h node";
    EXPECT_EQ(ev_or.status().code(), StatusCode::kOutOfRange);
  }
  // The first point outside the set is fine.
  EXPECT_TRUE(qap.EvaluateAtTau(F::FromUint(2 * qap.Degree() + 2)).ok());
}

// m constraints x0 · x1 = x2: the h row depends on m alone.
template <typename Fd>
R1cs<Fd> RepeatedConstraintSystem(size_t m) {
  R1cs<Fd> cs;
  cs.layout = {3, 0, 0};
  R1csConstraint<Fd> c;
  c.a = LinearCombination<Fd>::Variable(0);
  c.b = LinearCombination<Fd>::Variable(1);
  c.c = LinearCombination<Fd>::Variable(2);
  cs.constraints.assign(m, c);
  return cs;
}

// The verifier's h row is the Lagrange basis over the nodes m+1..2m+1 the
// prover commits h on: for any P of degree <= m, the row applied to P's
// values at the nodes gives P(tau).
template <typename Fd>
void CheckHRowIsTheLagrangeBasis(uint64_t seed) {
  Prg prg(seed);
  for (size_t m : {size_t{1}, size_t{7}, size_t{60}}) {
    R1cs<Fd> cs = RepeatedConstraintSystem<Fd>(m);
    Qap<Fd> qap(cs);
    for (int trial = 0; trial < 3; trial++) {
      const std::vector<Fd> p = prg.NextFieldVector<Fd>(m + 1);
      const Fd tau = prg.NextField<Fd>();
      auto ev_or = qap.EvaluateAtTau(tau);
      ASSERT_TRUE(ev_or.ok()) << ev_or.status().ToString();
      ASSERT_EQ(ev_or->h_row.size(), m + 1);
      Fd via_row = Fd::Zero();
      for (size_t k = 0; k <= m; k++) {
        via_row += EvaluatePoly(p, Fd::FromUint(m + 1 + k)) * ev_or->h_row[k];
      }
      EXPECT_EQ(via_row, EvaluatePoly(p, tau)) << "m = " << m;
    }
  }
}

TEST(QapTest, HRowIsTheLagrangeBasis) {
  CheckHRowIsTheLagrangeBasis<F128>(77);
  CheckHRowIsTheLagrangeBasis<F220>(78);
}

// The shifted-evaluation ComputeH must match the direct reference
// ComputeHNaive bit for bit — same h vector, same exact flag — for
// satisfying, perturbed, fully random and zero assignments, across system
// sizes on both fields; and both exact flags must say whether the assignment
// satisfies the constraints.
template <typename Fd>
void CheckComputeHDifferential(uint64_t seed, size_t num_constraints) {
  Prg prg(seed);
  auto rs = MakeRandomSatisfiedSystem<Fd>(prg, 8, 3, 2, num_constraints);
  auto transform = GingerToZaatar(rs.system);
  const R1cs<Fd>& cs = transform.r1cs;
  auto witness = transform.ExtendAssignment(rs.assignment);
  Qap<Fd> qap(cs);
  SCOPED_TRACE(testing::Message() << "m = " << qap.Degree());
  EXPECT_TRUE(cs.IsSatisfied(witness));

  auto bad = witness;
  bad[prg.NextBounded(cs.layout.num_unbound)] += prg.NextNonzeroField<Fd>();
  auto random_w = prg.NextFieldVector<Fd>(witness.size());
  std::vector<Fd> zero_w(witness.size(), Fd::Zero());
  for (const auto& [kind, w] :
       {std::pair{"satisfying", &witness}, std::pair{"perturbed", &bad},
        std::pair{"random", &random_w}, std::pair{"zero", &zero_w}}) {
    SCOPED_TRACE(kind);
    auto fast = qap.ComputeH(*w);
    auto slow = qap.ComputeHNaive(*w);
    EXPECT_EQ(fast.h, slow.h);
    EXPECT_EQ(fast.exact, cs.IsSatisfied(*w));
    EXPECT_EQ(slow.exact, cs.IsSatisfied(*w));
  }
}

// The largest sizes (|C| = 1011 on F128, 331 on F220) keep the closed-form
// weights ComputeH derives from factorials honest against the reference's
// direct products well past the analyzer's |C| <= 256.
TEST(QapTest, ComputeHMatchesNaiveF128) {
  uint64_t seed = 80;
  for (size_t nc : {1, 2, 5, 15, 33, 60, 920}) {
    CheckComputeHDifferential<F128>(seed++, nc);
  }
}

TEST(QapTest, ComputeHMatchesNaiveF220) {
  uint64_t seed = 90;
  for (size_t nc : {5, 33, 240}) {
    CheckComputeHDifferential<F220>(seed++, nc);
  }
}

TEST(QapTest, ProofVectorLengthIsLinear) {
  // |u| = |Z| + |C| + 1: the paper's headline claim about the encoding.
  Prg prg(75);
  auto f = QapFixture::Make(prg, 16, 30);
  Qap<F> qap(f.transform.r1cs);
  auto hr = qap.ComputeH(f.witness);
  size_t proof_len = f.transform.r1cs.layout.num_unbound + hr.h.size();
  EXPECT_EQ(proof_len, f.transform.r1cs.layout.num_unbound +
                           f.transform.r1cs.NumConstraints() + 1);
}

}  // namespace
}  // namespace zaatar
