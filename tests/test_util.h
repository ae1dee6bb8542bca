// Shared helpers for tests: random satisfiable constraint systems with a
// known witness, used to exercise transforms, QAPs, PCPs, and arguments on
// inputs with no special structure, and coefficient-vector polynomial
// oracles (Horner, schoolbook product, Lagrange interpolation).

#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <array>
#include <vector>

#include "src/constraints/ginger.h"
#include "src/crypto/prg.h"

namespace zaatar {

template <typename F>
struct RandomSystem {
  GingerSystem<F> system;
  std::vector<F> assignment;  // satisfying, layout order (Z, X, Y)

  std::vector<F> BoundValues() const {
    return std::vector<F>(
        assignment.begin() + system.layout.num_unbound, assignment.end());
  }
};

// Builds a satisfiable degree-2 system over random values: each constraint
// mixes a few random linear and quadratic terms and fixes its constant so
// the chosen assignment satisfies it. Every variable appears in at least one
// constraint, so perturbing any variable (or any bound value) violates some
// constraint with overwhelming probability.
template <typename F>
RandomSystem<F> MakeRandomSatisfiedSystem(Prg& prg, size_t num_unbound,
                                          size_t num_inputs,
                                          size_t num_outputs,
                                          size_t num_constraints) {
  RandomSystem<F> out;
  out.system.layout = {num_unbound, num_inputs, num_outputs};
  size_t total = out.system.layout.Total();
  out.assignment = prg.NextFieldVector<F>(total);

  auto random_var = [&] {
    return static_cast<uint32_t>(prg.NextBounded(total));
  };
  for (size_t j = 0; j < num_constraints; j++) {
    GingerConstraint<F> c;
    // Coverage: constraint j always touches variable j mod total.
    c.linear.AddTerm(static_cast<uint32_t>(j % total),
                     prg.NextNonzeroField<F>());
    for (int t = 0; t < 2; t++) {
      c.linear.AddTerm(random_var(), prg.NextField<F>());
    }
    for (int t = 0; t < 2; t++) {
      c.quad.push_back({random_var(), random_var(), prg.NextField<F>()});
    }
    c.linear.Compact();
    F residual = c.Evaluate(out.assignment);
    c.linear.AddConstant(-residual);
    out.system.constraints.push_back(std::move(c));
  }
  return out;
}

// ----- Polynomials as coefficient vectors, low degree first -----

// p(x) by Horner's rule.
template <typename F>
F EvaluatePoly(const std::vector<F>& p, const F& x) {
  F acc = F::Zero();
  for (size_t i = p.size(); i-- > 0;) {
    acc = acc * x + p[i];
  }
  return acc;
}

// a·b term by term; a.size() + b.size() - 1 coefficients.
template <typename F>
std::vector<F> SchoolbookMul(const std::vector<F>& a,
                             const std::vector<F>& b) {
  std::vector<F> out(a.size() + b.size() - 1, F::Zero());
  for (size_t i = 0; i < a.size(); i++) {
    for (size_t j = 0; j < b.size(); j++) {
      out[i + j] += a[i] * b[j];
    }
  }
  return out;
}

// The polynomial of degree < n through (points[i], values[i]), i < n, by
// Lagrange's formula: each basis numerator is M(x)/(x - points[i]) with
// M = prod_j (x - points[j]), and its value at points[i] is the
// denominator. O(n²); the points must be distinct.
template <typename F>
std::vector<F> InterpolateLagrange(const std::vector<F>& points,
                                   const std::vector<F>& values) {
  const size_t n = points.size();
  std::vector<F> master(n + 1, F::Zero());
  master[0] = F::One();
  for (size_t j = 0; j < n; j++) {  // master *= (x - points[j])
    for (size_t d = j + 1; d > 0; d--) {
      master[d] = master[d - 1] - points[j] * master[d];
    }
    master[0] = -points[j] * master[0];
  }
  std::vector<F> out(n, F::Zero()), q(n);
  for (size_t i = 0; i < n; i++) {
    q[n - 1] = master[n];  // q = master / (x - points[i]), synthetically
    for (size_t d = n - 1; d > 0; d--) {
      q[d - 1] = master[d] + points[i] * q[d];
    }
    const F scale = values[i] * EvaluatePoly(q, points[i]).Inverse();
    for (size_t d = 0; d < n; d++) {
      out[d] += q[d] * scale;
    }
  }
  return out;
}

// The polynomial of degree <= m whose values at the h nodes m+1..2m+1 are
// h (m + 1 = h.size()): H itself for Qap::ComputeH's h.
template <typename F>
std::vector<F> PolynomialThroughHNodes(const std::vector<F>& h) {
  const size_t m = h.size() - 1;
  std::vector<F> nodes(m + 1);
  for (size_t k = 0; k <= m; k++) {
    nodes[k] = F::FromUint(m + 1 + k);
  }
  return InterpolateLagrange(nodes, h);
}

// Two h vectors in a basis other than the verifier's, built from an honest
// h: H's coefficients, low degree first (the paper's h), and H's values one
// node off, at m+2..2m+2.
template <typename F>
std::array<std::vector<F>, 2> HInOtherBases(const std::vector<F>& h) {
  const size_t m = h.size() - 1;
  std::array<std::vector<F>, 2> out;
  out[0] = PolynomialThroughHNodes(h);
  for (size_t k = 0; k <= m; k++) {
    out[1].push_back(EvaluatePoly(out[0], F::FromUint(m + 2 + k)));
  }
  return out;
}

}  // namespace zaatar

#endif  // TESTS_TEST_UTIL_H_
