// Quasi-linear polynomial algorithms: Newton power-series inversion, division
// with remainder, and subproduct-tree multipoint evaluation/interpolation
// (von zur Gathen & Gerhard, ch. 9-10).
//
// These realize the prover steps of the paper's Appendix A.3: interpolating
// A(t), B(t), C(t) from their evaluations at the sigma_j, multiplying them,
// and dividing P_w(t) by D(t) — total cost ~ 3·f·|C|·log^2|C|.

#ifndef SRC_POLY_ALGORITHMS_H_
#define SRC_POLY_ALGORITHMS_H_

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "src/field/prime_field.h"
#include "src/poly/polynomial.h"
#include "src/poly/residue.h"

namespace zaatar {

// Ingests a coefficient-form polynomial into residue form, zero-padded to an
// explicit length (residue pipelines keep uniform shapes; see residue.h).
template <typename F>
ResiduePoly<F> ToResidue(const Polynomial<F>& p, size_t len,
                         const CrtBasis<F>& basis, size_t workers) {
  assert(p.CoefficientCount() <= len);
  std::vector<F> c(len, F::Zero());
  std::copy(p.Coefficients().begin(), p.Coefficients().end(), c.begin());
  return ResiduePoly<F>::FromCoefficients(c.data(), len, basis, workers);
}

// Inverse of f modulo x^count (requires f(0) != 0). Newton iteration:
// g <- g(2 - fg), doubling precision each round.
template <typename F>
Polynomial<F> NewtonInverse(const Polynomial<F>& f, size_t count) {
  assert(!f.IsZero() && !f.CoefficientOrZero(0).IsZero());
  Polynomial<F> g = Polynomial<F>::Constant(f.CoefficientOrZero(0).Inverse());
  size_t precision = 1;
  const Polynomial<F> two = Polynomial<F>::Constant(F::FromUint(2));
  while (precision < count) {
    precision = std::min(2 * precision, count);
    Polynomial<F> fg = (f.Truncate(precision) * g).Truncate(precision);
    g = (g * (two - fg)).Truncate(precision);
  }
  return g.Truncate(count);
}

template <typename F>
struct DivRemResult {
  Polynomial<F> quotient;
  Polynomial<F> remainder;
};

// Division with remainder: a = q·b + r with deg r < deg b. Quasi-linear via
// reversal + Newton inversion.
template <typename F>
DivRemResult<F> DivRem(const Polynomial<F>& a, const Polynomial<F>& b) {
  assert(!b.IsZero());
  if (a.Degree() < b.Degree()) {
    return {Polynomial<F>::Zero(), a};
  }
  size_t da = static_cast<size_t>(a.Degree());
  size_t db = static_cast<size_t>(b.Degree());
  size_t m = da - db + 1;
  Polynomial<F> rev_b = b.Reverse(db);
  Polynomial<F> inv = NewtonInverse(rev_b, m);
  Polynomial<F> q_rev = (a.Reverse(da) * inv).Truncate(m);
  Polynomial<F> q = q_rev.Reverse(m - 1);
  Polynomial<F> r = a - q * b;
  assert(r.Degree() < b.Degree());
  return {std::move(q), std::move(r)};
}

// Residue-domain Newton inversion: inverse of f modulo x^count without
// leaving residue form. Requires canonical bounds and f(0) != 0; the basis
// must carry ~3 bits of headroom over the plain product bound (the 2 - f·g
// step costs two bits of padding before the next product). Callers sizing a
// basis for a division pipeline should budget bound = 2B + log2(n) + 4.
template <typename F>
ResiduePoly<F> ResidueNewtonInverse(const ResiduePoly<F>& f, size_t count,
                                    size_t workers) {
  assert(f.IsCanonical() && f.length() > 0);
  F f0 = f.Coefficient(0);
  assert(!f0.IsZero());
  const CrtBasis<F>& basis = f.basis();
  F g0 = f0.Inverse();
  ResiduePoly<F> g = ResiduePoly<F>::FromCoefficients(&g0, 1, basis, workers);
  F two_f = F::FromUint(2);
  ResiduePoly<F> two =
      ResiduePoly<F>::FromCoefficients(&two_f, 1, basis, workers);
  size_t precision = 1;
  while (precision < count) {
    precision = std::min(2 * precision, count);
    ResiduePoly<F> fg =
        ResiduePoly<F>::Mul(f.Truncate(std::min(precision, f.length())), g,
                            workers)
            .Truncate(precision);
    fg.Renormalize(workers);
    ResiduePoly<F> t = ResiduePoly<F>::Sub(two, fg, workers);
    g = ResiduePoly<F>::Mul(g, t, workers).Truncate(precision);
    g.Renormalize(workers);
  }
  return g.Truncate(count);
}

template <typename F>
struct ResidueDivRemResult {
  ResiduePoly<F> quotient;
  ResiduePoly<F> remainder;  // canonical; zero iff the division was exact
  bool exact;
};

// Division with remainder in residue form: a = q·b + r, deg r < deg b, via
// reversal + ResidueNewtonInverse — the same algorithm as DivRem but the
// operands, quotient, and remainder never leave the residue domain. The QAP
// prover runs the specialization of this with a cached inverse of rev(D)
// (Qap::ComputeH); this general form backs it in tests.
template <typename F>
ResidueDivRemResult<F> ResidueDivRem(const ResiduePoly<F>& a,
                                     const ResiduePoly<F>& b,
                                     size_t workers) {
  assert(a.IsCanonical() && b.IsCanonical());
  long da = a.Degree();
  long db = b.Degree();
  assert(db >= 0 && "division by zero polynomial");
  ResidueDivRemResult<F> out;
  if (da < db) {
    F zero = F::Zero();
    out.quotient =
        ResiduePoly<F>::FromCoefficients(&zero, 1, a.basis(), workers);
    out.remainder = a.Truncate(a.length());
    out.exact = a.IsZero();
    return out;
  }
  size_t m = static_cast<size_t>(da - db) + 1;
  ResiduePoly<F> rev_b = b.Truncate(db + 1).Reverse(db);
  ResiduePoly<F> inv = ResidueNewtonInverse(rev_b, m, workers);
  ResiduePoly<F> rev_a = a.Truncate(da + 1).Reverse(da).Truncate(m);
  ResiduePoly<F> q_rev =
      ResiduePoly<F>::Mul(rev_a, inv, workers).Truncate(m);
  q_rev.Renormalize(workers);
  out.quotient = q_rev.Reverse(m - 1);
  ResiduePoly<F> qb =
      ResiduePoly<F>::Mul(out.quotient, b.Truncate(db + 1), workers);
  ResiduePoly<F> r = ResiduePoly<F>::Sub(a, qb, workers);
  r.Renormalize(workers);
  out.remainder = r.Truncate(db);
  out.exact = out.remainder.IsZero();
  return out;
}

// Subproduct tree over a fixed point set. Level 0 holds the linear leaves
// (x - u_i); each higher level holds pairwise products (an odd trailing node
// is promoted unchanged). Supports multipoint evaluation and interpolation in
// O(M(n) log n).
template <typename F>
class SubproductTree {
 public:
  explicit SubproductTree(std::vector<F> points) : points_(std::move(points)) {
    assert(!points_.empty());
    std::vector<Polynomial<F>> level;
    level.reserve(points_.size());
    for (const F& u : points_) {
      level.push_back(Polynomial<F>::Linear(u));
    }
    levels_.push_back(std::move(level));
    while (levels_.back().size() > 1) {
      const auto& prev = levels_.back();
      std::vector<Polynomial<F>> next;
      next.reserve((prev.size() + 1) / 2);
      for (size_t i = 0; i + 1 < prev.size(); i += 2) {
        next.push_back(prev[i] * prev[i + 1]);
      }
      if (prev.size() % 2 == 1) {
        next.push_back(prev.back());
      }
      levels_.push_back(std::move(next));
    }
  }

  const std::vector<F>& points() const { return points_; }

  // prod_i (x - u_i).
  const Polynomial<F>& Root() const { return levels_.back()[0]; }

  // f(u_i) for every point, in point order.
  std::vector<F> EvaluateAll(const Polynomial<F>& f) const {
    std::vector<F> out(points_.size());
    Polynomial<F> top = f;
    if (f.Degree() >= Root().Degree()) {
      top = DivRem(f, Root()).remainder;
    }
    Down(levels_.size() - 1, 0, top, &out);
    return out;
  }

  // The unique polynomial of degree < n with P(u_i) = values[i]. Requires
  // distinct points (guaranteed if construction points were distinct).
  Polynomial<F> Interpolate(const std::vector<F>& values) const {
    assert(values.size() == points_.size());
    // c_i = values[i] / m'(u_i). The weights depend only on the points and
    // are cached (the QAP prover interpolates A, B, C over the same tree).
    const std::vector<F>& weights = InterpolationWeights();
    std::vector<Polynomial<F>> nodes;
    nodes.reserve(points_.size());
    for (size_t i = 0; i < points_.size(); i++) {
      nodes.push_back(Polynomial<F>::Constant(values[i] * weights[i]));
    }
    // Combine up: parent = left * (right subtree poly) + right * (left
    // subtree poly); this accumulates sum_i c_i * m(x)/(x - u_i).
    for (size_t l = 0; l + 1 < levels_.size(); l++) {
      const auto& polys = levels_[l];
      std::vector<Polynomial<F>> next;
      next.reserve((nodes.size() + 1) / 2);
      for (size_t i = 0; i + 1 < nodes.size(); i += 2) {
        next.push_back(nodes[i] * polys[i + 1] + nodes[i + 1] * polys[i]);
      }
      if (nodes.size() % 2 == 1) {
        next.push_back(nodes.back());
      }
      nodes = std::move(next);
    }
    return nodes[0];
  }

  // Residue-domain interpolation: same value as Interpolate (the unique
  // degree-< n polynomial through the values), computed without leaving
  // residue form above the naive-multiply threshold. The bottom levels
  // (node polynomials of <= kResidueSwitchLen coefficients) combine in F
  // with schoolbook products — cheaper than transforms at those sizes —
  // then each higher level runs one fused mul-add per pair against the
  // cached forward images of this level's subtree polynomials (built once,
  // reused across A/B/C and across every instance of a batch), followed by
  // a renormalize so bounds stay canonical into the next level.
  ResiduePoly<F> InterpolateResidue(const std::vector<F>& values,
                                    const CrtBasis<F>& basis,
                                    size_t workers) const {
    assert(values.size() == points_.size());
    const std::vector<F>& weights = InterpolationWeights();
    std::vector<Polynomial<F>> fnodes;
    fnodes.reserve(points_.size());
    for (size_t i = 0; i < points_.size(); i++) {
      fnodes.push_back(Polynomial<F>::Constant(values[i] * weights[i]));
    }
    const size_t switch_level = ResidueSwitchLevel();
    for (size_t l = 0; l < switch_level; l++) {
      const auto& polys = levels_[l];
      std::vector<Polynomial<F>> next;
      next.reserve((fnodes.size() + 1) / 2);
      for (size_t i = 0; i + 1 < fnodes.size(); i += 2) {
        next.push_back(fnodes[i] * polys[i + 1] + fnodes[i + 1] * polys[i]);
      }
      if (fnodes.size() % 2 == 1) {
        next.push_back(fnodes.back());
      }
      fnodes = std::move(next);
    }
    // Ingest at each subtree's node capacity (deg < deg m_i), so shapes are
    // uniform regardless of zero values.
    const auto& sw_polys = levels_[switch_level];
    assert(fnodes.size() == sw_polys.size());
    std::vector<ResiduePoly<F>> nodes;
    nodes.reserve(fnodes.size());
    for (size_t i = 0; i < fnodes.size(); i++) {
      nodes.push_back(ToResidue(fnodes[i],
                                sw_polys[i].CoefficientCount() - 1, basis,
                                workers));
    }
    for (size_t l = switch_level; l + 1 < levels_.size(); l++) {
      const auto& imgs = ResidueLevelImages(l, basis, workers);
      const auto& polys = levels_[l];
      std::vector<ResiduePoly<F>> next;
      next.reserve((nodes.size() + 1) / 2);
      for (size_t i = 0; i + 1 < nodes.size(); i += 2) {
        size_t out_len = polys[i].CoefficientCount() +
                         polys[i + 1].CoefficientCount() - 2;
        ResiduePoly<F> parent = ResiduePoly<F>::FusedMulAdd(
            nodes[i], imgs[i + 1], nodes[i + 1], imgs[i], out_len, workers);
        parent.Renormalize(workers);
        next.push_back(std::move(parent));
      }
      if (nodes.size() % 2 == 1) {
        next.push_back(std::move(nodes.back()));
      }
      nodes = std::move(next);
    }
    return std::move(nodes[0]);
  }

  // Builds the per-level residue images eagerly (single-threaded contract,
  // like the other lazy caches here): batch pipelines call this once before
  // fanning instances out so the lazy build never races.
  void WarmResidueImages(const CrtBasis<F>& basis, size_t workers) const {
    for (size_t l = ResidueSwitchLevel(); l + 1 < levels_.size(); l++) {
      ResidueLevelImages(l, basis, workers);
    }
  }

  // 1 / m'(u_i) for every point (computed once, then cached). When the
  // points are 0, 1, .., n-1 (the QAP's), m'(j) = prod_{k != j} (j - k) =
  // (-1)^(n-1-j) j! (n-1-j)!, so the weights take one factorial table and
  // one inversion; any other point set evaluates m' over the tree.
  const std::vector<F>& InterpolationWeights() const {
    if (interp_weights_.empty()) {
      if (HasConsecutivePoints()) {
        interp_weights_ = ConsecutivePointWeights(points_.size());
      } else {
        interp_weights_ = EvaluateAll(Root().Derivative());
        BatchInvert(interp_weights_.data(), interp_weights_.size());
      }
    }
    return interp_weights_;
  }

  // True iff the points are exactly 0, 1, .., n-1, in that order.
  bool HasConsecutivePoints() const {
    F expected = F::Zero();
    for (const F& u : points_) {
      if (u != expected) {
        return false;
      }
      expected += F::One();
    }
    return true;
  }

 private:
  // 1 / prod_{k != j} (j - k) = (-1)^(n-1-j) / (j! (n-1-j)!) for j < n.
  // Field elements are canonical, so these are the derivative path's
  // weights bit for bit.
  static std::vector<F> ConsecutivePointWeights(size_t n) {
    F fact = F::One();  // (n-1)!
    for (size_t j = 2; j < n; j++) {
      fact *= F::FromUint(j);
    }
    std::vector<F> inv_fact(n);  // 1 / j!
    inv_fact[n - 1] = fact.Inverse();
    for (size_t j = n - 1; j > 0; j--) {
      inv_fact[j - 1] = inv_fact[j] * F::FromUint(j);
    }
    std::vector<F> weights(n);
    for (size_t j = 0; j < n; j++) {
      weights[j] = inv_fact[j] * inv_fact[n - 1 - j];
      if ((n - 1 - j) % 2 == 1) {
        weights[j] = -weights[j];
      }
    }
    return weights;
  }

  // Node polynomials at or below this coefficient count multiply faster
  // with schoolbook than with transforms (matches Polynomial's naive-mul
  // threshold).
  static constexpr size_t kResidueSwitchLen = 32;

  // First level whose subtree polynomials exceed the threshold — the level
  // where InterpolateResidue switches from F combines to residue combines.
  size_t ResidueSwitchLevel() const {
    size_t l = 0;
    while (l + 1 < levels_.size() &&
           levels_[l][0].CoefficientCount() <= kResidueSwitchLen) {
      l++;
    }
    return l;
  }

  // Forward images of level l's subtree polynomials at each pair's combine
  // size, cached per basis. Trailing promoted nodes carry no image.
  const std::vector<NttImages>& ResidueLevelImages(size_t l,
                                                   const CrtBasis<F>& basis,
                                                   size_t workers) const {
    if (residue_basis_ != &basis) {
      residue_images_.assign(levels_.size(), {});
      residue_basis_ = &basis;
    }
    std::vector<NttImages>& slot = residue_images_[l];
    if (slot.empty()) {
      const auto& polys = levels_[l];
      slot.resize(polys.size());
      for (size_t i = 0; i + 1 < polys.size(); i += 2) {
        size_t out_len = polys[i].CoefficientCount() +
                         polys[i + 1].CoefficientCount() - 2;
        size_t log_n = CeilLog2(out_len);
        slot[i] = ToResidue(polys[i], polys[i].CoefficientCount(), basis,
                            workers)
                      .ForwardImages(log_n, workers);
        slot[i + 1] = ToResidue(polys[i + 1],
                                polys[i + 1].CoefficientCount(), basis,
                                workers)
                          .ForwardImages(log_n, workers);
      }
    }
    return slot;
  }

  void Down(size_t level, size_t index, const Polynomial<F>& r,
            std::vector<F>* out) const {
    if (level == 0) {
      (*out)[index] = r.Evaluate(points_[index]);
      return;
    }
    size_t left = 2 * index;
    size_t right = 2 * index + 1;
    const auto& child_level = levels_[level - 1];
    if (right >= child_level.size()) {
      Down(level - 1, left, r, out);  // promoted node, nothing to reduce
      return;
    }
    Down(level - 1, left, DivRem(r, child_level[left]).remainder, out);
    Down(level - 1, right, DivRem(r, child_level[right]).remainder, out);
  }

  std::vector<F> points_;
  std::vector<std::vector<Polynomial<F>>> levels_;
  mutable std::vector<F> interp_weights_;
  mutable std::vector<std::vector<NttImages>> residue_images_;
  mutable const CrtBasis<F>* residue_basis_ = nullptr;
};

// Quadratic-time Lagrange interpolation, for cross-checking and tiny inputs.
template <typename F>
Polynomial<F> InterpolateNaive(const std::vector<F>& points,
                               const std::vector<F>& values) {
  assert(points.size() == values.size());
  Polynomial<F> acc = Polynomial<F>::Zero();
  for (size_t i = 0; i < points.size(); i++) {
    Polynomial<F> num = Polynomial<F>::Constant(F::One());
    F den = F::One();
    for (size_t j = 0; j < points.size(); j++) {
      if (j == i) {
        continue;
      }
      num = num * Polynomial<F>::Linear(points[j]);
      den *= points[i] - points[j];
    }
    acc = acc + num * (values[i] * den.Inverse());
  }
  return acc;
}

}  // namespace zaatar

#endif  // SRC_POLY_ALGORITHMS_H_
