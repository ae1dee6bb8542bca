// Quadratic Arithmetic Program encoding of a quadratic-form constraint set
// (paper Appendix A.1, after Gennaro et al.).
//
// Interpolation points: sigma_j = j for j = 1..|C| (the arithmetic
// progression that enables the incremental barycentric weights of Appendix
// A.3), plus the extra point 0 at which every A_i/B_i/C_i vanishes.
//
// h's basis: the proof vector h holds H's values at the h nodes
// m+1, .., 2m+1 (m = |C|) rather than its coefficients, the same linear
// PCP up to a fixed change of basis of pi_h (DESIGN.md §15). This header
// alone owns that basis — the prover's values and the verifier's row.
//
//   - Prover side: ComputeH evaluates A(t) = sum_i w_i A_i(t) (and B, C) at
//     the points 0..m, shifts each to the h nodes with one middle product
//     against cached NTT images (Bostan, Gaudry and Schost's shifting of
//     evaluation points), and divides A·B − C by D(t) = prod_j (t - sigma_j)
//     pointwise there. Cost ~ 3 products of length 2^ceil(log2(2|C|+1)).
//   - Reference: ComputeHNaive reaches each h node by the barycentric form
//     with weights and D taken as direct products, O(|C|²) and sharing no
//     code with ComputeH, which must match it bit for bit.
//   - Verifier side: EvaluateAtTau computes {A_i(tau)}, {B_i(tau)},
//     {C_i(tau)} for all rows i (row 0 = constant term), D(tau), and the h
//     row (L_0(tau), .., L_m(tau)) over the h nodes with barycentric
//     Lagrange evaluation, in O(|C| + nnz) field operations plus one
//     batched inversion.

#ifndef SRC_CONSTRAINTS_QAP_H_
#define SRC_CONSTRAINTS_QAP_H_

#include <cassert>
#include <memory>
#include <string>
#include <vector>

#include "src/constraints/r1cs.h"
#include "src/obs/trace.h"
#include "src/poly/residue.h"
#include "src/util/status.h"

namespace zaatar {

template <typename F>
class Qap {
 public:
  explicit Qap(const R1cs<F>& cs) : cs_(&cs) {}

  const R1cs<F>& constraint_system() const { return *cs_; }
  size_t Degree() const { return cs_->NumConstraints(); }

  // ----- Prover -----

  struct HResult {
    std::vector<F> h;  // H(m+1), .., H(2m+1): H at the h nodes
    bool exact;        // true iff D(t) divides P_w(t) (i.e. the assignment
                       // satisfies the constraints)
  };

  // H's values at the h nodes for the given full assignment, H = P_w / D.
  // For an unsatisfying assignment `exact` is false and `h` holds
  // P_w(x) / D(x) at the nodes (useful for building cheating provers in
  // tests).
  //
  // A, B and C have degree <= m, so their values at 0..m fix them, and
  // ShiftToHNodes carries each to m+1..2m+1. There D(m+1+k) = (m+k)!/k!, so
  // H(m+1+k) = (A·B − C)(m+1+k) · k!/(m+k)!. Exactness is read off the
  // values: D | P_w iff P_w vanishes at every point j, i.e.
  // A(j)·B(j) = C(j) for j = 1..m. ComputeHNaive must agree bit for bit
  // (the differential suites in tests/qap_test.cc).
  HResult ComputeH(const std::vector<F>& assignment) const {
    obs::Span span("qap.compute_h");
    const size_t m = Degree();
    const ProverContext& ctx = Prover();

    std::vector<F> ea(m + 1, F::Zero()), eb(m + 1, F::Zero()),
        ec(m + 1, F::Zero());
    for (size_t j = 0; j < m; j++) {
      const auto& c = cs_->constraints[j];
      ea[j + 1] = c.a.Evaluate(assignment);
      eb[j + 1] = c.b.Evaluate(assignment);
      ec[j + 1] = c.c.Evaluate(assignment);
    }
    HResult out;
    out.exact = true;
    for (size_t j = 1; j <= m; j++) {
      if (ea[j] * eb[j] != ec[j]) {
        out.exact = false;
        break;
      }
    }

    std::vector<F> ha, hb, hc;  // A, B, C at the h nodes
    {
      obs::Span shift("qap.shift");
      ha = ShiftToHNodes(std::move(ea));
      hb = ShiftToHNodes(std::move(eb));
      hc = ShiftToHNodes(std::move(ec));
    }
    out.h.resize(m + 1);
    for (size_t k = 0; k <= m; k++) {
      out.h[k] = (ha[k] * hb[k] - hc[k]) * ctx.d_inv[k];
    }
    return out;
  }

  // P(m+1), .., P(2m+1) for the polynomial P of degree <= m with
  // P(j) = values[j], j = 0..m. With w_j = 1/prod_{k != j} (j - k) and
  // g_i = 1/(i+1), the barycentric form at x = m+1+k reads
  //   P(m+1+k) = (m+1+k)!/k! · sum_j P(j)·w_j·g_{m+k-j},
  // coefficient m+k of the product (P(j)·w_j)_j · g. One cyclic product of
  // length N = 2^ceil(log2(2m+1)) against g's cached images yields
  // coefficients m..2m exactly: the linear product has 3m+1 coefficients,
  // and its tail past N wraps onto indices below 3m+1-N <= m. ComputeH's
  // only transform; public so the analyzer can probe the cache.
  std::vector<F> ShiftToHNodes(std::vector<F> values) const {
    const size_t m = Degree();
    assert(values.size() == m + 1);
    const ProverContext& ctx = Prover();
    const size_t workers = PolyWorkers();
    for (size_t j = 0; j <= m; j++) {
      values[j] *= ctx.weights[j];
    }
    std::vector<F> shifted =
        ResiduePoly<F>::MulImages(
            ResiduePoly<F>::FromCoefficients(values.data(), m + 1,
                                             *ctx.basis, workers),
            ctx.g_images, m, m + 1, workers)
            .ToCoefficients(workers);
    for (size_t k = 0; k <= m; k++) {
      shifted[k] *= ctx.scale[k];
    }
    return shifted;
  }

  // The reference ComputeH must reproduce bit for bit, on any assignment
  // (the differential suites in tests/qap_test.cc, the analyzer's ZL020).
  // It shares no code with ComputeH: A, B and C's values at 0..m go to each
  // h node x = m+1+k by the barycentric Lagrange form
  //   P(x) = ell(x) · sum_j P(j)·w_j / (x - j),  ell(x) = x·D(x),
  // with w_j = 1/prod_{k != j} (j - k) and D(x) = prod_{i=1..m} (x - i)
  // taken as direct products, then h_k = (A·B − C)(x) / D(x). O(m²).
  HResult ComputeHNaive(const std::vector<F>& assignment) const {
    obs::Span span("qap.compute_h_naive");
    const size_t m = Degree();
    std::vector<F> pt(2 * m + 2);  // pt[i] = i
    for (size_t i = 0; i < pt.size(); i++) {
      pt[i] = F::FromUint(i);
    }

    std::vector<F> ya(m + 1, F::Zero()), yb(m + 1, F::Zero()),
        yc(m + 1, F::Zero());
    for (size_t j = 0; j < m; j++) {
      const auto& c = cs_->constraints[j];
      ya[j + 1] = c.a.Evaluate(assignment);
      yb[j + 1] = c.b.Evaluate(assignment);
      yc[j + 1] = c.c.Evaluate(assignment);
    }
    HResult out;
    out.exact = true;
    for (size_t j = 1; j <= m; j++) {
      out.exact = out.exact && ya[j] * yb[j] == yc[j];
    }

    // inv[d] = 1/d for every difference d = x - j in 1..2m+1.
    std::vector<F> inv(2 * m + 2);
    for (size_t d = 1; d < inv.size(); d++) {
      inv[d] = pt[d].Inverse();
    }
    for (size_t j = 0; j <= m; j++) {
      F prod = F::One();
      for (size_t k = 0; k <= m; k++) {
        if (k != j) {
          prod *= pt[j] - pt[k];
        }
      }
      const F w = prod.Inverse();
      ya[j] *= w;
      yb[j] *= w;
      yc[j] *= w;
    }

    out.h.resize(m + 1);
    for (size_t k = 0; k <= m; k++) {
      const size_t x = m + 1 + k;
      F d = F::One();
      for (size_t i = 1; i <= m; i++) {
        d *= pt[x - i];
      }
      F sa = F::Zero(), sb = F::Zero(), sc = F::Zero();
      for (size_t j = 0; j <= m; j++) {
        sa += ya[j] * inv[x - j];
        sb += yb[j] * inv[x - j];
        sc += yc[j] * inv[x - j];
      }
      const F ell = pt[x] * d;
      const F a = ell * sa, b = ell * sb, c = ell * sc;
      out.h[k] = (a * b - c) * d.Inverse();
    }
    return out;
  }

  // Builds the prover's per-Qap context (ProverContext below), so batch
  // pipelines pay the one-time setup outside the per-instance loop (and
  // outside the per-instance ParallelFor, keeping the lazy cache
  // single-threaded).
  void WarmProver() const { Prover(); }

  // ----- Verifier -----

  struct Evaluation {
    // Row i+1 corresponds to variable i; row 0 is the constant term.
    std::vector<F> a_rows;
    std::vector<F> b_rows;
    std::vector<F> c_rows;
    F d_tau;
    // L_k(tau), k = 0..m: the Lagrange basis over the h nodes m+1..2m+1,
    // so <h, h_row> = H(tau) for ComputeH's h. The verifier's q_d.
    std::vector<F> h_row;
  };

  // Requires tau outside {0, 1, ..., 2|C|+1}, the interpolation points and
  // the h nodes: a colliding tau would batch-invert a zero and poison every
  // barycentric weight, so it is rejected with a typed error instead
  // (callers resample; the collision probability for a uniform tau is
  // (2|C|+2)/|F|).
  StatusOr<Evaluation> EvaluateAtTau(const F& tau) const {
    obs::Span span("qap.evaluate_at_tau");
    const size_t m = Degree();
    const size_t rows = cs_->NumVariables() + 1;

    // Barycentric pieces over points 0..m and over the h nodes m+1..2m+1:
    //   ell(tau)   = prod_{k=0..m} (tau - k)
    //   ell_h(tau) = prod_{k=0..m} (tau - (m+1+k))
    //   1/v_j      = prod_{k != j} (j - k), built incrementally:
    //                1/v_{j+1} = 1/v_j · (j+1) / (j - m)
    //   c_j        = ell(tau) · v_j / (tau - j)
    //   L_j(tau)   = ell_h(tau) · v_j / (tau - (m+1+j))
    // The v_j serve both node sets, since translating every node by m+1
    // leaves each difference j - k unchanged. We batch-invert the products
    // (1/v_j)·(tau - node) to get every c_j and L_j(tau) with a single
    // field inversion.
    std::vector<F> diff(2 * m + 2);
    F ell = F::One();
    F ell_h = F::One();
    for (size_t k = 0; k < diff.size(); k++) {
      diff[k] = tau - F::FromUint(k);
      if (diff[k].IsZero()) {
        return OutOfRangeError(
            "tau collides with point " + std::to_string(k) +
            " of the QAP's interpolation points {0.." + std::to_string(m) +
            "} and h nodes {" + std::to_string(m + 1) + ".." +
            std::to_string(2 * m + 1) + "}");
      }
      (k <= m ? ell : ell_h) *= diff[k];
    }

    // inverses of 1..m for the incremental weight recurrence
    std::vector<F> small_inv(m + 1);
    for (size_t k = 1; k <= m; k++) {
      small_inv[k] = F::FromUint(k);
    }
    BatchInvert(small_inv.data() + 1, m);

    // Slot 2m+2 carries diff[0] so D(tau)'s inversion rides the same batch
    // instead of paying its own Fermat walk below.
    std::vector<F> denom(2 * m + 3);  // (1/v_j)·(tau - node)
    F iv = F::One();                  // 1/v_0 = (-1)^m · m!
    for (size_t k = 1; k <= m; k++) {
      iv *= -F::FromUint(k);
    }
    for (size_t j = 0; j <= m; j++) {
      denom[j] = iv * diff[j];
      denom[m + 1 + j] = iv * diff[m + 1 + j];
      if (j < m) {
        // 1/v_{j+1} = 1/v_j · (j+1) / (j - m) = -1/v_j · (j+1) · inv(m-j)
        iv = -(iv * F::FromUint(j + 1) * small_inv[m - j]);
      }
    }
    denom[2 * m + 2] = diff[0];
    BatchInvert(denom.data(), denom.size());
    std::vector<F> cj(m + 1);
    Evaluation ev;
    ev.h_row.resize(m + 1);
    for (size_t j = 0; j <= m; j++) {
      cj[j] = ell * denom[j];
      ev.h_row[j] = ell_h * denom[m + 1 + j];
    }

    ev.a_rows.assign(rows, F::Zero());
    ev.b_rows.assign(rows, F::Zero());
    ev.c_rows.assign(rows, F::Zero());
    // All polynomials vanish at point 0, so only j = 1..m contribute.
    for (size_t j = 0; j < m; j++) {
      const auto& c = cs_->constraints[j];
      const F& w = cj[j + 1];
      Accumulate(c.a, w, &ev.a_rows);
      Accumulate(c.b, w, &ev.b_rows);
      Accumulate(c.c, w, &ev.c_rows);
    }
    // D(tau) = ell(tau) / (tau - 0), with 1/(tau - 0) from the batch above.
    ev.d_tau = ell * denom[2 * m + 2];
    return ev;
  }

 private:
  // The prover's per-Qap state, built once and reused across every instance
  // of a batch: the CRT basis for the shift's product bound
  // 2·bits(p) + ceil(log2(m+1)) (m+1 terms, each a product of two canonical
  // values), the forward images of g_i = 1/(i+1), i = 0..2m, at
  // N = 2^ceil(log2(2m+1)), and the per-point weights and scales.
  struct ProverContext {
    const CrtBasis<F>* basis = nullptr;
    NttImages g_images;
    std::vector<F> weights;  // w_j = 1/prod_{k != j} (j - k), j = 0..m
    std::vector<F> scale;    // (m+1+k)!/k! = prod_{j=0..m} (m+1+k - j)
    std::vector<F> d_inv;    // k!/(m+k)! = 1/D(m+1+k)
  };

  const ProverContext& Prover() const {
    if (prover_ == nullptr) {
      const size_t m = Degree();
      const size_t workers = PolyWorkers();
      auto ctx = std::make_unique<ProverContext>();
      ctx->basis = &CrtBasis<F>::Get(
          CrtBasisSizeForBound(2 * F::kModulusBits + CeilLog2(m + 1)));
      // fact[i] = i! and inv_fact[i] = 1/i! for i = 0..2m+1.
      std::vector<F> fact(2 * m + 2), inv_fact(2 * m + 2);
      fact[0] = F::One();
      for (size_t i = 1; i < fact.size(); i++) {
        fact[i] = fact[i - 1] * F::FromUint(i);
      }
      inv_fact.back() = fact.back().Inverse();
      for (size_t i = fact.size() - 1; i > 0; i--) {
        inv_fact[i - 1] = inv_fact[i] * F::FromUint(i);
      }
      std::vector<F> g(2 * m + 1);
      for (size_t i = 0; i < g.size(); i++) {
        g[i] = fact[i] * inv_fact[i + 1];
      }
      ctx->g_images =
          ResiduePoly<F>::FromCoefficients(g.data(), g.size(), *ctx->basis,
                                           workers)
              .ForwardImages(CeilLog2(2 * m + 1), workers);
      ctx->weights.resize(m + 1);
      ctx->scale.resize(m + 1);
      ctx->d_inv.resize(m + 1);
      for (size_t k = 0; k <= m; k++) {
        // w_k = (-1)^(m-k) / (k! (m-k)!): prod_{j != k} (k - j) is the
        // product of k!, and of (m-k)! with m-k negated factors.
        ctx->weights[k] = inv_fact[k] * inv_fact[m - k];
        if ((m - k) % 2 == 1) {
          ctx->weights[k] = -ctx->weights[k];
        }
        ctx->scale[k] = fact[m + 1 + k] * inv_fact[k];
        ctx->d_inv[k] = fact[k] * inv_fact[m + k];
      }
      prover_ = std::move(ctx);
    }
    return *prover_;
  }

  static void Accumulate(const LinearCombination<F>& lc, const F& w,
                         std::vector<F>* rows) {
    (*rows)[0] += lc.constant() * w;
    for (const auto& [v, coeff] : lc.terms()) {
      (*rows)[v + 1] += coeff * w;
    }
  }

  const R1cs<F>* cs_;
  mutable std::unique_ptr<ProverContext> prover_;
};

}  // namespace zaatar

#endif  // SRC_CONSTRAINTS_QAP_H_
