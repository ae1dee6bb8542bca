// Top-level analysis entry points: run every zaatar-lint rule over a single
// constraint system, or over a whole compiled program (Ginger constraints,
// the Ginger->Zaatar transform, the R1CS, and the QAP encoding).
//
// The determinism analysis runs on BOTH constraint layers: the Ginger layer
// carries source-line attribution (findings point at program text), while
// the R1CS layer additionally covers the transform output — an
// underconstrained auxiliary product variable introduced by a buggy
// transform is only visible there.

#ifndef SRC_ANALYSIS_ANALYZER_H_
#define SRC_ANALYSIS_ANALYZER_H_

#include <string>
#include <utility>

#include "src/analysis/determinism.h"
#include "src/analysis/finding.h"
#include "src/analysis/pipeline_rules.h"
#include "src/analysis/structure.h"
#include "src/analysis/symbolic/equivalence.h"
#include "src/compiler/compile.h"
#include "src/constraints/ginger.h"
#include "src/constraints/qap.h"
#include "src/constraints/r1cs.h"

namespace zaatar {

struct AnalyzeOptions {
  bool equivalence = false;  // ZL021..ZL023 (source analysis only)
};

// Structure (ZL003..ZL006, ZL010) and determinism (ZL001 / ZL002) rules.
template <typename F>
AnalysisReport AnalyzeSystem(const GingerSystem<F>& g) {
  AnalysisReport report;
  CheckStructure(g, &report);
  DeterminismAnalysis<F> det(LowerToIr(g), g.layout, AnalysisLayer::kGinger);
  det.Run(&report);
  return report;
}

template <typename F>
AnalysisReport AnalyzeR1cs(const R1cs<F>& r) {
  AnalysisReport report;
  CheckStructure(r, &report);
  DeterminismAnalysis<F> det(LowerToIr(r), r.layout, AnalysisLayer::kR1cs);
  det.Run(&report);
  return report;
}

// Analyzes every layer of a compiled program, the QAP's shape (ZL020)
// included.
template <typename F>
AnalysisReport AnalyzeProgram(const CompiledProgram<F>& program) {
  AnalysisReport report = AnalyzeSystem(program.ginger);
  CheckTransform(program.ginger, program.zaatar, &report);
  report.Merge(AnalyzeR1cs(program.zaatar.r1cs));
  Qap<F> qap(program.zaatar.r1cs);
  CheckQapShape(qap, &report);
  return report;
}

// Analyzes a program from source: every compiled-layer rule, plus — when
// options.equivalence is set — the symbolic equivalence checker, which needs
// the source text to re-derive reference semantics independently of the
// compiler. The equivalence verdict is returned through `equiv_out` (when
// non-null) and rendered into ZL021/ZL022/ZL023 findings.
template <typename F>
AnalysisReport AnalyzeSource(const std::string& source,
                             const AnalyzeOptions& options = {},
                             EquivResult* equiv_out = nullptr) {
  CompiledProgram<F> program = CompileZlang<F>(source);
  AnalysisReport report = AnalyzeProgram(program);
  if (options.equivalence) {
    EquivResult r = ProveEquivalence<F>(source);
    EmitEquivFindings(r, &report);
    if (equiv_out != nullptr) {
      *equiv_out = std::move(r);
    }
  }
  return report;
}

}  // namespace zaatar

#endif  // SRC_ANALYSIS_ANALYZER_H_
