// Linear proof oracles.
//
// A linear PCP proof is conceptually a linear function pi: F^n -> F; the
// prover realizes it as a vector u with pi(q) = <q, u>. The verifier-side
// code only sees the LinearOracle interface, so tests can substitute
// adversarial (non-linear or wrong-vector) oracles to exercise soundness.

#ifndef SRC_PCP_LINEAR_ORACLE_H_
#define SRC_PCP_LINEAR_ORACLE_H_

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace zaatar {

template <typename F>
class LinearOracle {
 public:
  virtual ~LinearOracle() = default;

  // Dimension of the query space.
  virtual size_t Size() const = 0;

  // Answers one query (query.size() == Size()).
  virtual F Query(const std::vector<F>& query) const = 0;

  std::vector<F> QueryAll(const std::vector<std::vector<F>>& queries) const {
    std::vector<F> out;
    out.reserve(queries.size());
    for (const auto& q : queries) {
      out.push_back(Query(q));
    }
    return out;
  }
};

// The honest oracle: pi(q) = <q, u>.
template <typename F>
class VectorOracle : public LinearOracle<F> {
 public:
  explicit VectorOracle(std::vector<F> u) : u_(std::move(u)) {}

  size_t Size() const override { return u_.size(); }

  F Query(const std::vector<F>& query) const override {
    assert(query.size() == u_.size());
    return InnerProduct(query.data(), u_.data(), u_.size());
  }

  const std::vector<F>& vector() const { return u_; }

  // <a, b> through the field's lazily reduced kernel: one reduction per
  // answer, not one per term. Bit-identical to InnerProductNaive.
  static F InnerProduct(const F* a, const F* b, size_t n) {
    return F::DotProduct(a, b, n);
  }

  // The frozen reference: a reduced multiply and a modular add per term.
  // The differential tests compare the kernel with it and bench_fig7 times
  // it beside f_lazy — do not optimize it.
  static F InnerProductNaive(const F* a, const F* b, size_t n) {
    F acc = F::Zero();
    for (size_t i = 0; i < n; i++) {
      acc += a[i] * b[i];
    }
    return acc;
  }

 private:
  std::vector<F> u_;
};

}  // namespace zaatar

#endif  // SRC_PCP_LINEAR_ORACLE_H_
