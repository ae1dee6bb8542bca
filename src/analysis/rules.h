// The zaatar-lint rule catalog. Rule semantics, the determinism-propagation
// algorithm, and known limits are documented in DESIGN.md §10.
//
// Severity policy: a rule is ERROR when the condition it detects can admit a
// witness for a wrong output (soundness-relevant: an ACCEPTing proof of a
// false statement), and WARNING when it only indicates waste or a likely
// compiler bug that does not by itself widen the accepted set.

#ifndef SRC_ANALYSIS_RULES_H_
#define SRC_ANALYSIS_RULES_H_

#include <cstddef>

#include "src/analysis/finding.h"

namespace zaatar {

// (a) determinism analysis
inline constexpr const char* kRuleUnderconstrained = "ZL001";
// (b) dead variables
inline constexpr const char* kRuleDeadVariable = "ZL002";
// (c) trivial / duplicate / constant-only constraints
inline constexpr const char* kRuleTrivialConstraint = "ZL003";
inline constexpr const char* kRuleDuplicateConstraint = "ZL004";
inline constexpr const char* kRuleConstantConstraint = "ZL005";
inline constexpr const char* kRuleUnsatisfiableConstraint = "ZL006";
// (d) shape invariants
inline constexpr const char* kRuleIndexOutOfBounds = "ZL010";
inline constexpr const char* kRuleTransformMismatch = "ZL012";
inline constexpr const char* kRuleQapShape = "ZL020";
// (e) symbolic equivalence (src/analysis/symbolic/, DESIGN.md §14)
inline constexpr const char* kRuleEquivMismatch = "ZL021";
inline constexpr const char* kRuleUnderconstrainedProven = "ZL022";
inline constexpr const char* kRuleEquivUnknown = "ZL023";

struct RuleInfo {
  const char* id;
  Severity severity;
  const char* summary;
};

inline constexpr RuleInfo kRuleCatalog[] = {
    {"ZL001", Severity::kError,
     "underconstrained variable: a non-input variable is not uniquely "
     "determined from the inputs by the constraint set"},
    {"ZL002", Severity::kWarning,
     "dead variable: allocated in Z but appears in no constraint"},
    {"ZL003", Severity::kWarning,
     "trivial constraint: identically zero on every side (0 = 0)"},
    {"ZL004", Severity::kWarning,
     "duplicate constraint: equal to (or a scalar multiple of) an earlier "
     "constraint"},
    {"ZL005", Severity::kWarning,
     "constant-only constraint: references no variables and holds "
     "identically"},
    {"ZL006", Severity::kError,
     "unsatisfiable constant constraint: references no variables and never "
     "holds"},
    {"ZL010", Severity::kError,
     "variable index out of bounds for the declared layout"},
    {"ZL012", Severity::kError,
     "Ginger->Zaatar transform bookkeeping mismatch"},
    {"ZL020", Severity::kError,
     "QAP shape violation (D(tau) / row dimensions / prover shift)"},
    {"ZL021", Severity::kError,
     "equivalence mismatch: a concrete input separates the source program "
     "from the compiled constraint system"},
    {"ZL022", Severity::kError,
     "underconstrainedness proven: a second satisfying witness exists for "
     "the same inputs (concrete witness pair attached)"},
    {"ZL023", Severity::kWarning,
     "equivalence unknown: the symbolic engine could neither prove "
     "equivalence nor construct a separating input"},
};

inline constexpr size_t kRuleCatalogSize =
    sizeof(kRuleCatalog) / sizeof(kRuleCatalog[0]);

}  // namespace zaatar

#endif  // SRC_ANALYSIS_RULES_H_
