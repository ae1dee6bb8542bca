// Cross-layer pipeline rules: Ginger->Zaatar transform bookkeeping (ZL012)
// and QAP shape invariants (ZL020).
//
// These rules re-derive the invariants the downstream protocol silently
// relies on instead of trusting the producing code: the transform's
// |Z'| = |Z| + K2 / |C'| = |C| + K2 accounting and the structural shape of
// its product rows, and — at the QAP layer — that the verifier's D(tau) is
// the divisor prod_{j=1..|C|} (tau - j) the divisibility argument (paper
// Appendix A.1) assumes, that the verifier-side evaluation produces one row
// per variable plus the constant row, and that the prover's shift to the h
// nodes and the verifier's h row agree on one basis.

#ifndef SRC_ANALYSIS_PIPELINE_RULES_H_
#define SRC_ANALYSIS_PIPELINE_RULES_H_

#include <string>
#include <vector>

#include "src/analysis/finding.h"
#include "src/analysis/rules.h"
#include "src/constraints/ginger.h"
#include "src/constraints/qap.h"
#include "src/constraints/transform.h"
#include "src/crypto/prg.h"

namespace zaatar {

// Checks a transform result against the Ginger system it came from.
template <typename F>
void CheckTransform(const GingerSystem<F>& g, const ZaatarTransform<F>& t,
                    AnalysisReport* report) {
  AnalysisLocation loc;
  loc.layer = AnalysisLayer::kTransform;
  const size_t k2 = t.products.size();

  if (t.ginger_num_unbound != g.layout.num_unbound) {
    report->Add(Severity::kError, kRuleTransformMismatch, loc,
                "transform recorded |Z_ginger| = " +
                    std::to_string(t.ginger_num_unbound) + " but the source "
                    "system has " + std::to_string(g.layout.num_unbound));
  }
  if (t.r1cs.layout.num_unbound != g.layout.num_unbound + k2) {
    report->Add(Severity::kError, kRuleTransformMismatch, loc,
                "layout bookkeeping broken: |Z_zaatar| = " +
                    std::to_string(t.r1cs.layout.num_unbound) +
                    " != |Z_ginger| + K2 = " +
                    std::to_string(g.layout.num_unbound + k2));
  }
  if (t.r1cs.layout.num_inputs != g.layout.num_inputs ||
      t.r1cs.layout.num_outputs != g.layout.num_outputs) {
    report->Add(Severity::kError, kRuleTransformMismatch, loc,
                "transform changed the input/output counts");
  }
  if (t.r1cs.NumConstraints() != g.NumConstraints() + k2) {
    report->Add(Severity::kError, kRuleTransformMismatch, loc,
                "|C_zaatar| = " + std::to_string(t.r1cs.NumConstraints()) +
                    " != |C_ginger| + K2 = " +
                    std::to_string(g.NumConstraints() + k2));
    return;  // product-row positions below assume the count invariant
  }
  if (!t.r1cs.source_lines.empty() &&
      t.r1cs.source_lines.size() != t.r1cs.NumConstraints()) {
    report->Add(Severity::kError, kRuleTransformMismatch, loc,
                "source-line table length does not match the constraint "
                "count");
  }

  // Product rows: constraint |C_ginger| + i must read
  //   (w_{remap(a_i)}) · (w_{remap(b_i)}) = w_aux_i
  // with aux_i landing inside the appended auxiliary region of Z.
  auto is_bare_var = [](const LinearCombination<F>& lc, uint32_t v) {
    return lc.TermCount() == 1 && lc.constant().IsZero() &&
           lc.terms()[0].first == v && lc.terms()[0].second.IsOne();
  };
  for (size_t i = 0; i < k2; i++) {
    const size_t j = g.NumConstraints() + i;
    const R1csConstraint<F>& rc = t.r1cs.constraints[j];
    AnalysisLocation ploc = loc;
    ploc.constraint = static_cast<long>(j);
    const uint32_t aux = static_cast<uint32_t>(g.layout.num_unbound + i);
    if (t.products[i].first >= g.layout.Total() ||
        t.products[i].second >= g.layout.Total()) {
      report->Add(Severity::kError, kRuleTransformMismatch, ploc,
                  "product table entry references a variable outside the "
                  "Ginger layout");
      continue;
    }
    if (!is_bare_var(rc.a, t.Remap(t.products[i].first)) ||
        !is_bare_var(rc.b, t.Remap(t.products[i].second)) ||
        !is_bare_var(rc.c, aux)) {
      report->Add(Severity::kError, kRuleTransformMismatch, ploc,
                  "product row #" + std::to_string(i) +
                      " does not have the shape w_a · w_b = aux_i");
    }
  }
}

// QAP shape invariants, checked against the constraint system the QAP wraps.
template <typename F>
void CheckQapShape(const Qap<F>& qap, AnalysisReport* report) {
  AnalysisLocation loc;
  loc.layer = AnalysisLayer::kQap;
  const R1cs<F>& cs = qap.constraint_system();
  const size_t m = cs.NumConstraints();

  if (qap.Degree() != m) {
    report->Add(Severity::kError, kRuleQapShape, loc,
                "QAP degree " + std::to_string(qap.Degree()) +
                    " does not match the constraint count " +
                    std::to_string(m));
  }

  if (m > 0) {
    // Any point outside {0..2m+1} (the interpolation points and the h
    // nodes) is a valid probe; 2m+2 is deterministic.
    const F tau = F::FromUint(2 * m + 2);
    auto ev_or = qap.EvaluateAtTau(tau);
    if (!ev_or.ok()) {
      report->Add(Severity::kError, kRuleQapShape, loc,
                  "EvaluateAtTau rejected a probe point outside the "
                  "interpolation set: " +
                      ev_or.status().ToString());
      return;
    }
    const auto& ev = *ev_or;
    const size_t rows = cs.NumVariables() + 1;
    if (ev.a_rows.size() != rows || ev.b_rows.size() != rows ||
        ev.c_rows.size() != rows) {
      report->Add(Severity::kError, kRuleQapShape, loc,
                  "EvaluateAtTau produced " + std::to_string(ev.a_rows.size()) +
                      " rows, expected |variables| + 1 = " +
                      std::to_string(rows));
    }
    F d_tau = F::One();  // D(tau) = prod_{j=1..m} (tau - j), directly
    for (size_t j = 1; j <= m; j++) {
      d_tau *= tau - F::FromUint(j);
    }
    if (ev.d_tau.IsZero()) {
      report->Add(Severity::kError, kRuleQapShape, loc,
                  "D(tau) = 0 at a point outside the interpolation set");
    } else if (ev.d_tau != d_tau) {
      report->Add(Severity::kError, kRuleQapShape, loc,
                  "barycentric D(tau) disagrees with prod (tau - j)");
    }

    // Prover probes: ComputeH shifts values through cached NTT images and
    // per-point scales. Re-derive the cache's defining identity instead of
    // trusting it: the probe P(x) = (x + c)^m, shifted from its values at
    // 0..m, must land on its values at m+1..2m+1, and those must meet the
    // verifier's h row in P(tau). A random c catches any wrong shift map
    // except with probability m/|F| (the vectors ((j + c)^m)_j span every
    // value vector), and P takes O(log m) per point where Horner would take
    // O(m).
    Prg probe_prg(0x5eed);
    const F c = probe_prg.NextField<F>();
    auto probe = [&](const F& x) { return (x + c).Pow(m); };
    std::vector<F> at_points(m + 1);
    for (size_t j = 0; j <= m; j++) {
      at_points[j] = probe(F::FromUint(j));
    }
    std::vector<F> shifted = qap.ShiftToHNodes(std::move(at_points));
    bool shift_ok = shifted.size() == m + 1;
    for (size_t k = 0; shift_ok && k <= m; k++) {
      shift_ok = shifted[k] == probe(F::FromUint(m + 1 + k));
    }
    if (!shift_ok) {
      report->Add(Severity::kError, kRuleQapShape, loc,
                  "cached prover shift does not carry a degree-|C| "
                  "polynomial's values at 0..|C| to its values at "
                  "|C|+1..2|C|+1: ComputeH would produce wrong h values");
    } else if (ev.h_row.size() != m + 1 ||
               F::DotProduct(shifted.data(), ev.h_row.data(), m + 1) !=
                   probe(tau)) {
      report->Add(Severity::kError, kRuleQapShape, loc,
                  "verifier h row is not the Lagrange basis over the "
                  "prover's h nodes: honest proofs would be rejected");
    }

    // Small systems get a full end-to-end differential: ComputeH must
    // reproduce the direct O(m²) reference bit for bit on an arbitrary
    // (non-satisfying) assignment.
    if (m <= 256) {
      std::vector<F> w = probe_prg.NextFieldVector<F>(cs.layout.Total());
      auto fast = qap.ComputeH(w);
      auto slow = qap.ComputeHNaive(w);
      if (fast.h != slow.h || fast.exact != slow.exact) {
        report->Add(Severity::kError, kRuleQapShape, loc,
                    "ComputeH diverges from the direct reference on a "
                    "probe assignment");
      }
    }
  }
}

}  // namespace zaatar

#endif  // SRC_ANALYSIS_PIPELINE_RULES_H_
