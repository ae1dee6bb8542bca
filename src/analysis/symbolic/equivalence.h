// The equivalence decider (DESIGN.md §14): per compiled program, decide
// whether the constraint system accepts exactly the input/output relation the
// zlang source computes, and report the strongest verdict the engine can
// justify:
//
//   kEquivalentAlgebraic      both sides reduce to the same polynomial
//                             normal form, the program is total, no residual
//                             domain guards, witness uniqueness proven —
//                             an unconditional theorem.
//   kEquivalentSchwartzZippel both sides evaluate identically at k random
//                             field points; for degree-d maps over F the
//                             miss probability is <= (d/|F|)^k.
//   kEquivalentExhaustive     every input in the declared (small) domain
//                             was enumerated and agrees, including rejects.
//   kConsistent               witness uniqueness proven by the determinism
//                             fixpoint and all differential samples agree —
//                             no proof over the full domain (the program
//                             leaves the polynomial fragment).
//   kMismatch                 a concrete input separates the program from
//                             the constraints (ZL021), attached.
//   kUnderconstrained         a second satisfying witness exists for the
//                             same inputs (ZL022), witness pair attached.
//   kUnknown                  none of the above could be established
//                             (ZL023).

#ifndef SRC_ANALYSIS_SYMBOLIC_EQUIVALENCE_H_
#define SRC_ANALYSIS_SYMBOLIC_EQUIVALENCE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/determinism.h"
#include "src/analysis/rules.h"
#include "src/analysis/symbolic/native_interp.h"
#include "src/analysis/symbolic/second_witness.h"
#include "src/analysis/symbolic/sym_eval.h"
#include "src/analysis/symbolic/sym_solver.h"
#include "src/compiler/compile.h"
#include "src/crypto/prg.h"

namespace zaatar {

enum class EquivStatus {
  kEquivalentAlgebraic,
  kEquivalentSchwartzZippel,
  kEquivalentExhaustive,
  kConsistent,
  kMismatch,
  kUnderconstrained,
  kUnknown,
};

inline const char* EquivStatusName(EquivStatus s) {
  switch (s) {
    case EquivStatus::kEquivalentAlgebraic:
      return "equivalent (algebraic)";
    case EquivStatus::kEquivalentSchwartzZippel:
      return "equivalent (Schwartz-Zippel)";
    case EquivStatus::kEquivalentExhaustive:
      return "equivalent (exhaustive)";
    case EquivStatus::kConsistent:
      return "consistent (unique witness, samples agree)";
    case EquivStatus::kMismatch:
      return "MISMATCH";
    case EquivStatus::kUnderconstrained:
      return "UNDERCONSTRAINED";
    case EquivStatus::kUnknown:
      return "unknown";
  }
  return "unknown";
}

inline bool EquivStatusIsProof(EquivStatus s) {
  return s == EquivStatus::kEquivalentAlgebraic ||
         s == EquivStatus::kEquivalentSchwartzZippel ||
         s == EquivStatus::kEquivalentExhaustive ||
         s == EquivStatus::kConsistent;
}

struct EquivOptions {
  uint64_t seed = 0x5eed;
  size_t num_samples = 48;       // differential typed samples
  size_t exhaustive_cap = 4096;  // max total domain size to enumerate
  size_t mismatch_search = 256;  // sampling budget to concretize a mismatch
};

// Bit bound on the magnitude of each typed sample (SampleNativeInputs).
inline constexpr size_t kEquivSampleMagnitudeBits = 8;

struct EquivResult {
  EquivStatus status = EquivStatus::kUnknown;
  std::string detail;  // human-readable justification
  // Separating input for kMismatch / replay input for kUnderconstrained:
  // one signed value per input slot.
  std::vector<int64_t> counterexample;
  std::string note;
  uint32_t source_line = 0;
  bool unique_witness = false;  // proven by the determinism fixpoint
};

namespace symbolic_internal {

template <typename F>
F EncodeInt128(__int128 v) {
  bool neg = v < 0;
  unsigned __int128 m = neg ? -static_cast<unsigned __int128>(v)
                            : static_cast<unsigned __int128>(v);
  F two64 = F::FromUint(uint64_t{1} << 32);
  two64 = two64 * two64;
  F r = F::FromUint(static_cast<uint64_t>(m >> 64)) * two64 +
        F::FromUint(static_cast<uint64_t>(m));
  return neg ? F::Zero() - r : r;
}

// One differential probe: native interpreter vs. compiled witness solver
// plus satisfiability of both constraint encodings.
template <typename F>
struct ProbeOutcome {
  enum class Kind { kAgree, kDiverge, kSkip } kind = Kind::kSkip;
  std::string note;
};

template <typename F>
ProbeOutcome<F> Probe(const CompiledProgram<F>& prog, NativeInterp* native,
                      const std::vector<int64_t>& inputs) {
  ProbeOutcome<F> out;
  NativeResult nat = native->Run(inputs);
  if (nat.status == NativeResult::Status::kUnsupported) {
    return out;  // kSkip
  }
  bool native_accepts = nat.status == NativeResult::Status::kOk;

  std::vector<F> encoded;
  encoded.reserve(inputs.size());
  for (int64_t v : inputs) {
    encoded.push_back(EncodeSignedInt<F>(v));
  }
  bool constraint_accepts = true;
  std::vector<F> w;
  std::string why;
  try {
    w = prog.SolveGinger(encoded);
    if (!prog.ginger.IsSatisfied(w)) {
      constraint_accepts = false;
      why = "solved witness violates the Ginger constraints";
    } else if (!prog.zaatar.r1cs.IsSatisfied(prog.zaatar.ExtendAssignment(w))) {
      constraint_accepts = false;
      why = "extended witness violates the Zaatar R1CS";
    }
  } catch (const std::exception& e) {
    constraint_accepts = false;
    why = std::string("witness solver rejected: ") + e.what();
  }

  if (native_accepts != constraint_accepts) {
    out.kind = ProbeOutcome<F>::Kind::kDiverge;
    out.note = native_accepts
                   ? (why.empty() ? "constraints reject, program accepts"
                                  : why + "; program accepts")
                   : "constraints accept, program rejects (" + nat.detail +
                         ")";
    return out;
  }
  if (!native_accepts) {
    out.kind = ProbeOutcome<F>::Kind::kAgree;
    return out;
  }
  size_t first_out = prog.ginger.layout.FirstOutput();
  for (size_t i = 0; i < prog.ginger.layout.num_outputs; i++) {
    F want = EncodeInt128<F>(nat.outputs[i]);
    if (!(w[first_out + i] == want)) {
      out.kind = ProbeOutcome<F>::Kind::kDiverge;
      out.note = "output slot " + std::to_string(i) +
                 " differs from the source program";
      return out;
    }
  }
  out.kind = ProbeOutcome<F>::Kind::kAgree;
  return out;
}

// Greedy shrink: try to replace each slot with simpler values while the
// divergence persists.
template <typename F>
std::vector<int64_t> ShrinkCounterexample(const CompiledProgram<F>& prog,
                                          NativeInterp* native,
                                          std::vector<int64_t> inputs) {
  bool changed = true;
  size_t rounds = 0;
  while (changed && rounds++ < 16) {
    changed = false;
    for (size_t i = 0; i < inputs.size(); i++) {
      int64_t orig = inputs[i];
      int64_t candidates[] = {0, 1, orig / 2, orig > 0 ? orig - 1 : orig + 1};
      for (int64_t c : candidates) {
        if (c == orig) {
          continue;
        }
        inputs[i] = c;
        if (Probe(prog, native, inputs).kind ==
            ProbeOutcome<F>::Kind::kDiverge) {
          changed = true;
          break;  // keep the simpler value
        }
        inputs[i] = orig;
      }
    }
  }
  return inputs;
}

// Source line to blame for a divergence at `inputs`: the first violated
// constraint with an attributed line, else the first attributed constraint
// referencing a mismatched output variable.
template <typename F>
uint32_t BlameLine(const CompiledProgram<F>& prog, NativeInterp* native,
                   const std::vector<int64_t>& inputs) {
  std::vector<F> encoded;
  for (int64_t v : inputs) {
    encoded.push_back(EncodeSignedInt<F>(v));
  }
  std::vector<F> w;
  try {
    w = prog.SolveGinger(encoded);
  } catch (const std::exception&) {
    return 0;  // the solver itself rejected; no single constraint to blame
  }
  auto eqs = LowerToIr(prog.ginger);
  for (const auto& eq : eqs) {
    if (!eq.opaque && !EvalQuadEq(eq, w).IsZero() && eq.source_line != 0) {
      return eq.source_line;
    }
  }
  NativeResult nat = native->Run(inputs);
  if (nat.status == NativeResult::Status::kOk) {
    size_t first_out = prog.ginger.layout.FirstOutput();
    for (size_t i = 0; i < prog.ginger.layout.num_outputs; i++) {
      if (!(w[first_out + i] == EncodeInt128<F>(nat.outputs[i]))) {
        uint32_t var = static_cast<uint32_t>(first_out + i);
        for (const auto& eq : eqs) {
          if (eq.source_line == 0 || eq.opaque) {
            continue;
          }
          bool touches = false;
          for (const auto& [v, c] : eq.linear.terms()) {
            touches |= v == var;
          }
          for (const auto& q : eq.quad) {
            touches |= q.a == var || q.b == var;
          }
          if (touches) {
            return eq.source_line;
          }
        }
        break;
      }
    }
  }
  return 0;
}

// Enumerates the full typed input domain when it is small enough.
// Returns nullopt when the domain exceeds `cap`.
inline std::optional<std::vector<std::vector<int64_t>>> EnumerateDomain(
    const std::vector<IoSlotSpec>& slots, size_t cap) {
  std::vector<std::vector<int64_t>> per_slot;
  size_t total = 1;
  for (const auto& s : slots) {
    std::vector<int64_t> vals;
    switch (s.kind) {
      case IoSlotSpec::Kind::kBool:
        vals = {0, 1};
        break;
      case IoSlotSpec::Kind::kInt:
      case IoSlotSpec::Kind::kRatNum: {
        if (s.width > 12) {
          return std::nullopt;
        }
        int64_t hi = (int64_t{1} << s.width) - 1;
        for (int64_t v = -hi; v <= hi; v++) {
          vals.push_back(v);
        }
        break;
      }
      case IoSlotSpec::Kind::kRatDen: {
        if (s.width > 12) {
          return std::nullopt;
        }
        int64_t hi = (int64_t{1} << s.width) - 1;
        for (int64_t v = 1; v <= hi; v++) {
          vals.push_back(v);
        }
        break;
      }
    }
    if (vals.empty()) {
      return std::nullopt;
    }
    if (total > cap / vals.size()) {
      return std::nullopt;
    }
    total *= vals.size();
    per_slot.push_back(std::move(vals));
  }
  std::vector<std::vector<int64_t>> points;
  points.reserve(total);
  std::vector<size_t> odo(per_slot.size(), 0);
  for (;;) {
    std::vector<int64_t> point(per_slot.size());
    for (size_t i = 0; i < per_slot.size(); i++) {
      point[i] = per_slot[i][odo[i]];
    }
    points.push_back(std::move(point));
    size_t i = 0;
    while (i < per_slot.size() && ++odo[i] == per_slot[i].size()) {
      odo[i++] = 0;
    }
    if (i == per_slot.size()) {
      break;
    }
  }
  return points;
}

}  // namespace symbolic_internal

// Proves (or refutes) equivalence of a zlang program and its compilation.
// The AST is re-parsed from source so the reference semantics never touch
// the compiled artifacts.
template <typename F>
EquivResult ProveEquivalence(const std::string& source,
                             const EquivOptions& opt = {}) {
  namespace si = symbolic_internal;
  EquivResult result;
  ProgramAst ast = Parse(source);
  CompiledProgram<F> prog = CompileZlang<F>(source);
  NativeInterp native(ast);
  Prg prg(opt.seed);

  // --- witness uniqueness via the determinism fixpoint ---
  auto ginger_eqs = LowerToIr(prog.ginger);
  DeterminismAnalysis<F> det(ginger_eqs, prog.ginger.layout,
                             AnalysisLayer::kGinger);
  AnalysisReport det_report;
  det.Run(&det_report);
  result.unique_witness = !det_report.HasErrors();

  // --- not provably unique: hunt for a concrete second witness ---
  if (!result.unique_witness) {
    std::vector<uint32_t> free_vars;
    for (size_t v = 0; v < prog.ginger.layout.num_unbound; v++) {
      if (!det.determined()[v] && !det.exempt()[v]) {
        free_vars.push_back(static_cast<uint32_t>(v));
      }
    }
    std::vector<bool> exempt(det.exempt().begin(), det.exempt().end());
    for (size_t attempt = 0; attempt < 8; attempt++) {
      std::vector<int64_t> inputs =
          SampleNativeInputs(prog.inputs, prg, kEquivSampleMagnitudeBits);
      std::vector<F> encoded;
      for (int64_t v : inputs) {
        encoded.push_back(EncodeSignedInt<F>(v));
      }
      std::vector<F> nominal;
      try {
        nominal = prog.SolveGinger(encoded);
      } catch (const std::exception&) {
        continue;  // rejected input: try another sample
      }
      if (!prog.ginger.IsSatisfied(nominal)) {
        continue;
      }
      auto sw = FindSecondWitness(ginger_eqs, prog.ginger.layout, nominal,
                                  free_vars, exempt);
      if (sw.found) {
        result.status = EquivStatus::kUnderconstrained;
        result.counterexample = inputs;
        result.source_line = sw.source_line;
        int64_t a = DecodeSignedInt(nominal[sw.pinned_var]);
        int64_t b = DecodeSignedInt(sw.witness[sw.pinned_var]);
        result.note = "w" + std::to_string(sw.pinned_var) + ": " +
                      std::to_string(a) + " vs " + std::to_string(b);
        result.detail = "second satisfying witness constructed by pinning w" +
                        std::to_string(sw.pinned_var);
        return result;
      }
    }
  }

  // --- algebraic normal forms on both sides ---
  SymEvalResult<F> prog_side = SymEval<F>::Run(ast);
  auto r1cs_eqs = LowerToIr(prog.zaatar.r1cs);
  SymSolveResult<F> cons_side = SymSolve(r1cs_eqs, prog.zaatar.r1cs.layout);

  auto find_mismatch_input = [&]() -> std::optional<std::vector<int64_t>> {
    for (size_t i = 0; i < opt.mismatch_search; i++) {
      std::vector<int64_t> inputs =
          SampleNativeInputs(prog.inputs, prg, kEquivSampleMagnitudeBits);
      if (si::Probe(prog, &native, inputs).kind ==
          si::ProbeOutcome<F>::Kind::kDiverge) {
        return si::ShrinkCounterexample(prog, &native, std::move(inputs));
      }
    }
    return std::nullopt;
  };

  auto report_mismatch = [&](const std::vector<int64_t>& inputs) {
    result.status = EquivStatus::kMismatch;
    result.counterexample = inputs;
    result.note = si::Probe(prog, &native, inputs).note;
    result.source_line = si::BlameLine(prog, &native, inputs);
    result.detail = "concrete separating input found and shrunk";
  };

  if (prog_side.AllValid() && cons_side.AllOutputsValid() &&
      prog_side.outputs.size() == cons_side.outputs.size()) {
    bool all_equal = true;
    size_t first_diff = 0;
    for (size_t i = 0; i < prog_side.outputs.size(); i++) {
      if (!(prog_side.outputs[i] == cons_side.outputs[i])) {
        all_equal = false;
        first_diff = i;
        break;
      }
    }
    if (all_equal && !prog_side.guarded && !cons_side.residual_guards &&
        !cons_side.has_opaque && result.unique_witness) {
      result.status = EquivStatus::kEquivalentAlgebraic;
      result.detail = "both sides normalize to identical polynomials (" +
                      std::to_string(prog_side.outputs.size()) +
                      " output slot(s), degree <= " +
                      std::to_string(prog_side.DegreeBound()) + ")";
      return result;
    }
    if (!all_equal) {
      // The canonical forms separate the sides; concretize the divergence
      // before reporting, so every ZL021 carries a replayable input.
      auto inputs = find_mismatch_input();
      if (inputs.has_value()) {
        report_mismatch(*inputs);
        return result;
      }
      result.status = EquivStatus::kUnknown;
      result.detail = "output slot " + std::to_string(first_diff) +
                      " has differing normal forms, but no concrete "
                      "separating input was found (forms may differ only "
                      "outside the sampled domain)";
      return result;
    }
    // Polynomials agree but the verdict needs domain/uniqueness caveats:
    // fall through to sampling for the reject-set comparison.
  }

  // --- Schwartz–Zippel: program is polynomial-evaluable, the solver runs
  // only affine/product ops, but normal forms overflowed the caps ---
  bool solver_polynomial = true;
  size_t solver_degree = 1;
  {
    std::vector<size_t> deg(prog.ginger.layout.Total(), 0);
    for (size_t i = 0; i < prog.ginger.layout.num_inputs; i++) {
      deg[prog.ginger.layout.FirstInput() + i] = 1;
    }
    for (const auto& op : prog.solver) {
      auto lc_deg = [&](const LinearCombination<F>& lc) {
        size_t d = 0;
        for (const auto& [v, c] : lc.terms()) {
          d = d < deg[v] ? deg[v] : d;
        }
        return d;
      };
      using Kind = typename SolverOp<F>::Kind;
      if (op.kind == Kind::kAffine) {
        deg[op.dst] = lc_deg(op.a);
      } else if (op.kind == Kind::kProduct) {
        deg[op.dst] = lc_deg(op.a) + lc_deg(op.b);
      } else {
        solver_polynomial = false;
        break;
      }
      solver_degree = solver_degree < deg[op.dst] ? deg[op.dst] : solver_degree;
    }
  }
  if (solver_polynomial && !prog_side.guarded && result.unique_witness) {
    size_t d = prog_side.DegreeBound();
    d = d < solver_degree ? solver_degree : d;
    // Miss probability per sample is d/|F|; k samples drive it to
    // (d/|F|)^k. Aim for 2^-128 overall.
    size_t bits_per_sample = F::kModulusBits > 1 ? F::kModulusBits - 1 : 1;
    size_t log_d = 0;
    while ((size_t{1} << log_d) < d) {
      log_d++;
    }
    bits_per_sample = bits_per_sample > log_d ? bits_per_sample - log_d : 1;
    size_t k = (128 + bits_per_sample - 1) / bits_per_sample;
    k = k < 2 ? 2 : (k > 64 ? 64 : k);
    bool ok = true;
    size_t used = 0;
    for (size_t s = 0; s < k && ok; s++) {
      std::vector<F> point;
      point.reserve(prog.ginger.layout.num_inputs);
      for (size_t i = 0; i < prog.ginger.layout.num_inputs; i++) {
        point.push_back(prg.template NextField<F>());
      }
      auto prog_vals = SymEval<F>::RunAt(ast, point);
      if (!prog_vals.has_value()) {
        ok = false;  // program left the evaluable fragment; no SZ claim
        break;
      }
      std::vector<F> w;
      try {
        w = prog.SolveGinger(point);
      } catch (const std::exception&) {
        ok = false;
        break;
      }
      if (!prog.ginger.IsSatisfied(w) ||
          !prog.zaatar.r1cs.IsSatisfied(prog.zaatar.ExtendAssignment(w))) {
        ok = false;
        break;
      }
      size_t first_out = prog.ginger.layout.FirstOutput();
      for (size_t i = 0; i < prog.ginger.layout.num_outputs; i++) {
        if (!(w[first_out + i] == (*prog_vals)[i])) {
          // A random field point separating the sides: almost certainly a
          // real mismatch; concretize over the typed domain if possible.
          auto inputs = find_mismatch_input();
          if (inputs.has_value()) {
            report_mismatch(*inputs);
          } else {
            result.status = EquivStatus::kMismatch;
            result.note = "sides differ at a random field point (output " +
                          std::to_string(i) + ")";
            result.detail = "Schwartz-Zippel sample separated the sides";
          }
          return result;
        }
      }
      used++;
    }
    if (ok && used == k) {
      result.status = EquivStatus::kEquivalentSchwartzZippel;
      result.detail =
          "agreed at " + std::to_string(k) + " random field points; for "
          "degree-" + std::to_string(d) + " maps the miss probability is <= "
          "(d/|F|)^k ~= 2^-128";
      return result;
    }
  }

  // --- exhaustive enumeration over a small declared domain ---
  auto domain = si::EnumerateDomain(prog.inputs, opt.exhaustive_cap);
  if (domain.has_value()) {
    bool all_agree = true;
    size_t skipped = 0;
    for (const auto& point : *domain) {
      auto probe = si::Probe(prog, &native, point);
      if (probe.kind == si::ProbeOutcome<F>::Kind::kDiverge) {
        report_mismatch(si::ShrinkCounterexample(prog, &native, point));
        return result;
      }
      skipped += probe.kind == si::ProbeOutcome<F>::Kind::kSkip ? 1 : 0;
      all_agree &= probe.kind != si::ProbeOutcome<F>::Kind::kSkip;
    }
    if (all_agree && result.unique_witness) {
      result.status = EquivStatus::kEquivalentExhaustive;
      result.detail = "all " + std::to_string(domain->size()) +
                      " inputs in the declared domain agree";
      return result;
    }
  }

  // --- differential sampling fallback ---
  size_t agreed = 0;
  for (size_t s = 0; s < opt.num_samples; s++) {
    std::vector<int64_t> inputs =
        SampleNativeInputs(prog.inputs, prg, kEquivSampleMagnitudeBits);
    auto probe = si::Probe(prog, &native, inputs);
    if (probe.kind == si::ProbeOutcome<F>::Kind::kDiverge) {
      report_mismatch(si::ShrinkCounterexample(prog, &native, inputs));
      return result;
    }
    agreed += probe.kind == si::ProbeOutcome<F>::Kind::kAgree ? 1 : 0;
  }
  if (agreed >= 4 && result.unique_witness) {
    result.status = EquivStatus::kConsistent;
    result.detail = std::to_string(agreed) +
                    " differential samples agree and the witness is "
                    "provably unique";
  } else {
    result.status = EquivStatus::kUnknown;
    result.detail =
        result.unique_witness
            ? "too few effective samples (" + std::to_string(agreed) + ")"
            : "witness uniqueness unproven and no second witness found";
  }
  return result;
}

// Renders an EquivResult into ZL021/ZL022/ZL023 findings. Proof-grade
// verdicts produce no findings.
inline void EmitEquivFindings(const EquivResult& r, AnalysisReport* report) {
  Finding f;
  f.location.layer = AnalysisLayer::kR1cs;
  f.location.source_line = r.source_line;
  for (int64_t v : r.counterexample) {
    f.counterexample.push_back(std::to_string(v));
  }
  f.counterexample_note = r.note;
  switch (r.status) {
    case EquivStatus::kMismatch:
      f.severity = Severity::kError;
      f.rule_id = kRuleEquivMismatch;
      f.message =
          "program and constraint system disagree on a concrete input (" +
          r.detail + ")";
      report->Add(std::move(f));
      break;
    case EquivStatus::kUnderconstrained:
      f.severity = Severity::kError;
      f.rule_id = kRuleUnderconstrainedProven;
      f.message = "constraint system admits a second witness (" + r.detail +
                  ")";
      report->Add(std::move(f));
      break;
    case EquivStatus::kUnknown:
      f.severity = Severity::kWarning;
      f.rule_id = kRuleEquivUnknown;
      f.message = "equivalence undecided: " + r.detail;
      report->Add(std::move(f));
      break;
    default:
      break;
  }
}

}  // namespace zaatar

#endif  // SRC_ANALYSIS_SYMBOLIC_EQUIVALENCE_H_
