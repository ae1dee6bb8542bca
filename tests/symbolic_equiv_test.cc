// Tests for the symbolic equivalence checker (src/analysis/symbolic):
// every seeded-defect fixture from analysis_test.cc is driven through the
// symbolic layer — underconstrained systems must yield a concrete second
// witness that replays (every equation holds, the assignment differs), the
// structural defects must keep their exact rule IDs, and DropConstraint
// fault injection on compiled programs must be flagged with a replayable
// certificate. The verdict ladder (algebraic / Schwartz-Zippel / exhaustive
// / consistent) is pinned program-by-program.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/analysis/symbolic/equivalence.h"
#include "src/apps/suite.h"
#include "src/compiler/compile.h"
#include "src/constraints/transform.h"
#include "src/crypto/prg.h"
#include "src/field/fields.h"
#include "src/testing/fault_injection.h"

namespace zaatar {
namespace {

using F = F128;
using LC = LinearCombination<F>;

LC Var(uint32_t v) { return LC::Variable(v); }

std::vector<bool> NoExempt(size_t n) { return std::vector<bool>(n, false); }

// ----- second-witness certificates for the underconstrained fixtures -----

// analysis_test fixture: x·x = w0 pins w0; w1² = x admits two roots. The
// symbolic layer must produce the other root as a replayable witness.
TEST(SymbolicEquivTest, SecondWitnessProvesSquareRootAmbiguity) {
  R1cs<F> r;
  r.layout = {2, 1, 0};  // w0, w1, then input x = var 2
  {
    R1csConstraint<F> c;
    c.a = Var(2);
    c.b = Var(2);
    c.c = Var(0);
    r.constraints.push_back(c);
  }
  {
    R1csConstraint<F> c;
    c.a = Var(1);
    c.b = Var(1);
    c.c = Var(2);
    r.constraints.push_back(c);
  }
  auto eqs = LowerToIr(r);
  // Nominal witness for x = 4: w0 = 16, w1 = 2.
  std::vector<F> nominal = {F::FromUint(16), F::FromUint(2), F::FromUint(4)};
  ASSERT_TRUE(symbolic_internal::AllEqsHold(eqs, nominal));

  auto sw = FindSecondWitness(eqs, r.layout, nominal, {1}, NoExempt(3));
  ASSERT_TRUE(sw.found);
  EXPECT_EQ(sw.pinned_var, 1u);
  // Replay the certificate: all equations hold, and the witness is the
  // other square root of 4.
  EXPECT_TRUE(symbolic_internal::AllEqsHold(eqs, sw.witness));
  EXPECT_TRUE(sw.witness[1] == -F::FromUint(2));
  EXPECT_TRUE(sw.witness[2] == nominal[2]) << "inputs must stay fixed";
}

// analysis_test fixture: a variable absent from every constraint. Any value
// works for it, so a second witness always exists.
TEST(SymbolicEquivTest, SecondWitnessProvesDeadVariable) {
  R1cs<F> r;
  r.layout = {2, 1, 0};  // w1 never referenced
  {
    R1csConstraint<F> c;
    c.a = Var(2);
    c.b = Var(2);
    c.c = Var(0);
    r.constraints.push_back(c);
  }
  auto eqs = LowerToIr(r);
  std::vector<F> nominal = {F::FromUint(9), F::Zero(), F::FromUint(3)};
  auto sw = FindSecondWitness(eqs, r.layout, nominal, {1}, NoExempt(3));
  ASSERT_TRUE(sw.found);
  EXPECT_TRUE(symbolic_internal::AllEqsHold(eqs, sw.witness));
  EXPECT_FALSE(sw.witness[1] == nominal[1]);
  // The dead-variable finding itself keeps its rule ID.
  EXPECT_EQ(AnalyzeR1cs(r).CountRule(kRuleDeadVariable), 1u);
}

// analysis_test fixture: the is-zero gadget without v·b = 0. b is free; the
// search must exhibit an assignment with b off-nominal.
TEST(SymbolicEquivTest, SecondWitnessProvesIsZeroMissingProduct) {
  GingerSystem<F> g;
  g.layout = {2, 1, 0};  // m = w0, b = w1, v = input var 2
  GingerConstraint<F> c1;  // v·m + b - 1 = 0
  c1.quad.push_back({2, 0, F::One()});
  c1.linear.AddTerm(1, F::One());
  c1.linear.AddConstant(-F::One());
  g.constraints.push_back(c1);
  auto eqs = LowerToIr(g);
  // Nominal for v = 5: m = 1/5, b = 0.
  F v = F::FromUint(5);
  std::vector<F> nominal = {v.Inverse(), F::Zero(), v};
  ASSERT_TRUE(symbolic_internal::AllEqsHold(eqs, nominal));
  auto sw = FindSecondWitness(eqs, g.layout, nominal, {0, 1}, NoExempt(3));
  ASSERT_TRUE(sw.found);
  EXPECT_TRUE(symbolic_internal::AllEqsHold(eqs, sw.witness));
  EXPECT_TRUE(AnalyzeSystem(g).HasRule(kRuleUnderconstrained));
}

// analysis_test fixture: repeated weight {1,2,2,8} makes subset sums
// collide. The second witness is a different bit pattern for the same input
// — reachable only through the zero-fallback repropagation mode.
TEST(SymbolicEquivTest, SecondWitnessProvesDecompositionCollision) {
  GingerSystem<F> g;
  std::vector<uint64_t> weights = {1, 2, 2, 8};
  g.layout = {weights.size(), 1, 0};
  for (uint32_t i = 0; i < weights.size(); i++) {
    GingerConstraint<F> bc;  // b·b - b = 0
    bc.quad.push_back({i, i, F::One()});
    bc.linear.AddTerm(i, -F::One());
    g.constraints.push_back(bc);
  }
  GingerConstraint<F> sum;  // sum w_i b_i - x = 0
  for (uint32_t i = 0; i < weights.size(); i++) {
    sum.linear.AddTerm(i, F::FromUint(weights[i]));
  }
  sum.linear.AddTerm(4, -F::One());
  g.constraints.push_back(sum);
  auto eqs = LowerToIr(g);
  // x = 2 decomposes as 0·1+1·2+0·2+0·8 or 0·1+0·2+1·2+0·8.
  std::vector<F> nominal = {F::Zero(), F::One(), F::Zero(), F::Zero(),
                           F::FromUint(2)};
  ASSERT_TRUE(symbolic_internal::AllEqsHold(eqs, nominal));
  auto sw =
      FindSecondWitness(eqs, g.layout, nominal, {0, 1, 2, 3}, NoExempt(5));
  ASSERT_TRUE(sw.found);
  EXPECT_TRUE(symbolic_internal::AllEqsHold(eqs, sw.witness));
  // The second witness must still be boolean in every bit (it satisfies
  // b² = b) yet differ — i.e. it is the colliding subset, not noise.
  for (size_t i = 0; i < 4; i++) {
    EXPECT_TRUE(sw.witness[i].IsZero() || sw.witness[i] == F::One());
  }
  EXPECT_TRUE(AnalyzeSystem(g).HasRule(kRuleUnderconstrained));
}

// ----- structural fixtures keep their exact rule IDs, and the symbolic
// layer refuses (rather than crashes on) malformed systems -----

TEST(SymbolicEquivTest, StructuralDefectsKeepRuleIdsAndDoNotCrashSearch) {
  GingerSystem<F> g;
  g.layout = {1, 1, 0};
  g.constraints.emplace_back();  // 0 = 0
  {
    GingerConstraint<F> c;  // 5 = 0
    c.linear.AddConstant(F::FromUint(5));
    g.constraints.push_back(c);
  }
  {
    GingerConstraint<F> c;  // references variable 9 in a 2-variable layout
    c.linear.AddTerm(9, F::One());
    g.constraints.push_back(c);
  }
  AnalysisReport report = AnalyzeSystem(g);
  EXPECT_EQ(report.CountRule(kRuleTrivialConstraint), 1u);
  EXPECT_EQ(report.CountRule(kRuleUnsatisfiableConstraint), 1u);
  EXPECT_EQ(report.CountRule(kRuleIndexOutOfBounds), 1u);

  // The out-of-bounds reference makes the system uncertifiable: the search
  // must return not-found instead of reading past the witness vector.
  auto eqs = LowerToIr(g);
  std::vector<F> nominal = {F::Zero(), F::Zero()};
  auto sw = FindSecondWitness(eqs, g.layout, nominal, {0}, NoExempt(2));
  EXPECT_FALSE(sw.found);
}

TEST(SymbolicEquivTest, DuplicateConstraintKeepsRuleId) {
  R1cs<F> r;
  r.layout = {1, 1, 0};
  {
    R1csConstraint<F> c;
    c.a = Var(1);
    c.b = Var(1);
    c.c = Var(0);
    r.constraints.push_back(c);
  }
  {
    R1csConstraint<F> c;  // (2x)·(3x) = 6·w0
    c.a = Var(1) * F::FromUint(2);
    c.b = Var(1) * F::FromUint(3);
    c.c = Var(0) * F::FromUint(6);
    r.constraints.push_back(c);
  }
  EXPECT_EQ(AnalyzeR1cs(r).CountRule(kRuleDuplicateConstraint), 1u);
}

TEST(SymbolicEquivTest, TransformMismatchKeepsRuleId) {
  GingerSystem<F> g;
  g.layout = {1, 2, 0};
  GingerConstraint<F> c;  // x1·x2 + x1·x1 - w0 = 0
  c.quad.push_back({1, 2, F::One()});
  c.quad.push_back({1, 1, F::One()});
  c.linear.AddTerm(0, -F::One());
  g.constraints.push_back(c);
  ZaatarTransform<F> broken = GingerToZaatar(g);
  broken.r1cs.constraints.pop_back();
  AnalysisReport report;
  CheckTransform(g, broken, &report);
  EXPECT_TRUE(report.HasRule(kRuleTransformMismatch));
  EXPECT_TRUE(report.HasErrors());
}

// Satellite regression: product rows synthesized by the Ginger->Zaatar
// transform must inherit a source line from the constraints that use the
// quadratic pair, so equivalence counterexamples blame a real line instead
// of line 0.
TEST(SymbolicEquivTest, TransformProductRowsCarrySourceLines) {
  auto program = CompileZlang<F>(R"(
program located;
input int32 a;
input int32 b;
output int<70> y;
output int<70> z;
y = a * a + 3 * b;
z = a * b;
)");
  ASSERT_EQ(program.zaatar.r1cs.source_lines.size(),
            program.zaatar.r1cs.NumConstraints());
  for (size_t j = 0; j < program.zaatar.r1cs.source_lines.size(); j++) {
    EXPECT_NE(program.zaatar.r1cs.source_lines[j], 0u)
        << "R1CS row " << j << " lost its source attribution";
  }
}

// ----- DropConstraint fault injection on compiled programs -----

// Deleting any constraint from a gadget-free compiled program must both
// (a) raise an ERROR finding and (b) admit a concrete second witness whose
// replay certifies the underconstrainedness.
TEST(SymbolicEquivTest, DropConstraintAlwaysYieldsReplayableSecondWitness) {
  auto program = CompileZlang<F>(R"(
program dropme;
input int16 a;
input int16 b;
output int<70> y;
var int<34> t;
t = a * b + 2 * a;
y = t * t;
)");
  std::vector<F> inputs = {EncodeSignedInt<F>(3), EncodeSignedInt<F>(4)};
  std::vector<F> nominal = program.SolveGinger(inputs);
  ASSERT_TRUE(program.ginger.IsSatisfied(nominal));

  size_t n = program.ginger.NumConstraints();
  ASSERT_GT(n, 0u);
  for (size_t j = 0; j < n; j++) {
    SCOPED_TRACE("dropped constraint " + std::to_string(j));
    GingerSystem<F> dropped = DropConstraint(program.ginger, j);
    AnalysisReport report = AnalyzeSystem(dropped);
    EXPECT_TRUE(report.HasErrors());

    auto eqs = LowerToIr(dropped);
    DeterminismAnalysis<F> det(eqs, dropped.layout, AnalysisLayer::kGinger);
    AnalysisReport det_report;
    det.Run(&det_report);
    std::vector<uint32_t> free_vars;
    for (size_t v = 0; v < dropped.layout.Total(); v++) {
      if (!det.determined()[v] && !det.exempt()[v]) {
        free_vars.push_back(static_cast<uint32_t>(v));
      }
    }
    std::vector<bool> exempt(det.exempt().begin(), det.exempt().end());
    auto sw = FindSecondWitness(eqs, dropped.layout, nominal, free_vars,
                                exempt);
    EXPECT_TRUE(sw.found);
    if (sw.found) {
      EXPECT_TRUE(symbolic_internal::AllEqsHold(eqs, sw.witness));
      bool differs = false;
      for (size_t i = 0; i < sw.witness.size(); i++) {
        differs |= !(sw.witness[i] == nominal[i]);
      }
      EXPECT_TRUE(differs);
    }
  }
}

// Gadget-bearing programs (idiv/imod) have exempt auxiliaries. Almost every
// single-constraint drop is detected — by a determinism ERROR, by a second
// witness, or both — but a handful of gadget side-condition rows free only
// slack mediated through exempt variables, which the pin-one-variable
// search cannot reach (documented limit, DESIGN.md §14). The test pins the
// exact detection floor so any regression in either detector shows up.
TEST(SymbolicEquivTest, DropConstraintOnGadgetProgramIsDetected) {
  auto program = CompileZlang<F>(R"(
program division;
input int32 a;
input int32 b;
output int32 q;
output int32 r;
q = idiv(a, b);
r = imod(a, b);
)");
  std::vector<F> inputs = {EncodeSignedInt<F>(17), EncodeSignedInt<F>(5)};
  std::vector<F> nominal = program.SolveGinger(inputs);
  ASSERT_TRUE(program.ginger.IsSatisfied(nominal));

  size_t n = program.ginger.NumConstraints();
  size_t found_witness = 0;
  size_t detected = 0;
  for (size_t j = 0; j < n; j++) {
    SCOPED_TRACE("dropped constraint " + std::to_string(j));
    GingerSystem<F> dropped = DropConstraint(program.ginger, j);
    bool has_errors = AnalyzeSystem(dropped).HasErrors();

    auto eqs = LowerToIr(dropped);
    DeterminismAnalysis<F> det(eqs, dropped.layout, AnalysisLayer::kGinger);
    AnalysisReport det_report;
    det.Run(&det_report);
    std::vector<uint32_t> free_vars;
    for (size_t v = 0; v < dropped.layout.Total(); v++) {
      if (!det.determined()[v] && !det.exempt()[v]) {
        free_vars.push_back(static_cast<uint32_t>(v));
      }
    }
    std::vector<bool> exempt(det.exempt().begin(), det.exempt().end());
    auto sw = FindSecondWitness(eqs, dropped.layout, nominal, free_vars,
                                exempt);
    if (sw.found) {
      found_witness++;
      EXPECT_TRUE(symbolic_internal::AllEqsHold(eqs, sw.witness));
    }
    detected += (has_errors || sw.found) ? 1 : 0;
  }
  // 206 of 210 drops in this program are detected; the 4 escapes are
  // gadget side-condition rows (see the test comment).
  EXPECT_GE(detected + 4, n);
  EXPECT_GE(found_witness, n / 2)
      << "second-witness search regressed on gadget programs";
}

// ----- findings carry counterexamples with exact rule IDs -----

TEST(SymbolicEquivTest, EmitEquivFindingsCarriesCounterexamples) {
  {
    EquivResult r;
    r.status = EquivStatus::kMismatch;
    r.detail = "concrete separating input found and shrunk";
    r.counterexample = {3, -4};
    r.note = "output 0: 7 vs 12";
    r.source_line = 9;
    AnalysisReport report;
    EmitEquivFindings(r, &report);
    ASSERT_EQ(report.findings().size(), 1u);
    const Finding& f = report.findings()[0];
    EXPECT_EQ(f.rule_id, kRuleEquivMismatch);
    EXPECT_EQ(f.severity, Severity::kError);
    EXPECT_EQ(f.location.source_line, 9u);
    ASSERT_EQ(f.counterexample.size(), 2u);
    EXPECT_EQ(f.counterexample[0], "3");
    EXPECT_EQ(f.counterexample[1], "-4");
    EXPECT_EQ(f.counterexample_note, "output 0: 7 vs 12");
    // Rendered form exposes the replay input.
    EXPECT_NE(f.Render().find("ZL021"), std::string::npos);
    EXPECT_NE(f.Render().find("3 -4"), std::string::npos);
  }
  {
    EquivResult r;
    r.status = EquivStatus::kUnderconstrained;
    r.counterexample = {5};
    r.note = "w7: 2 vs -2";
    AnalysisReport report;
    EmitEquivFindings(r, &report);
    ASSERT_EQ(report.findings().size(), 1u);
    EXPECT_EQ(report.findings()[0].rule_id, kRuleUnderconstrainedProven);
    EXPECT_EQ(report.findings()[0].severity, Severity::kError);
  }
  {
    EquivResult r;
    r.status = EquivStatus::kUnknown;
    AnalysisReport report;
    EmitEquivFindings(r, &report);
    ASSERT_EQ(report.findings().size(), 1u);
    EXPECT_EQ(report.findings()[0].rule_id, kRuleEquivUnknown);
    EXPECT_EQ(report.findings()[0].severity, Severity::kWarning);
  }
  {
    EquivResult r;  // proof-grade verdicts produce no findings
    r.status = EquivStatus::kEquivalentAlgebraic;
    AnalysisReport report;
    EmitEquivFindings(r, &report);
    EXPECT_TRUE(report.Empty());
  }
}

// ----- the verdict ladder, program by program -----

TEST(SymbolicEquivTest, PolynomialProgramsProveAlgebraically) {
  EquivResult r = ProveEquivalence<F>(R"(
program horner;
const D = 4;
input int16 coeff[D + 1];
input int16 x;
output int<90> y;
var int<90> acc;
acc = coeff[D];
for i in 1..D {
  acc = acc * x + coeff[D - i];
}
y = acc;
)");
  EXPECT_EQ(r.status, EquivStatus::kEquivalentAlgebraic) << r.detail;
  EXPECT_TRUE(r.unique_witness);
  EXPECT_TRUE(EquivStatusIsProof(r.status));
}

// (sum of 8 inputs)^8 has C(15,8) = 6435 monomials — past the normal-form
// cap on both sides — but stays polynomial, so the decider falls through to
// Schwartz-Zippel sampling at random field points.
TEST(SymbolicEquivTest, WideProductsProveBySchwartzZippel) {
  EquivResult r = ProveEquivalence<F>(R"(
program szpow;
input int<8> a0;
input int<8> a1;
input int<8> a2;
input int<8> a3;
input int<8> a4;
input int<8> a5;
input int<8> a6;
input int<8> a7;
output int<100> y;
var int<12> s;
s = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7;
y = s * s * s * s * s * s * s * s;
)");
  EXPECT_EQ(r.status, EquivStatus::kEquivalentSchwartzZippel) << r.detail;
  EXPECT_TRUE(EquivStatusIsProof(r.status));
}

// A dynamic comparison leaves the polynomial fragment, but the declared
// domain (two 3-bit inputs) is small enough to enumerate outright.
TEST(SymbolicEquivTest, TinyDomainsProveExhaustively) {
  EquivResult r = ProveEquivalence<F>(R"(
program tinymin;
input int<3> a;
input int<3> b;
output int<4> y;
y = a < b ? a : b;
)");
  EXPECT_EQ(r.status, EquivStatus::kEquivalentExhaustive) << r.detail;
  EXPECT_TRUE(EquivStatusIsProof(r.status));
}

// A static `>>` by 64 bits or more floors to 0 on both sides of the check,
// so the verdict is proof-grade.
TEST(SymbolicEquivTest, WideStaticRightShiftProves) {
  EquivResult r = ProveEquivalence<F>(R"(
program wide_shift;
input int<8> a;
output int<16> y;
y = a + (1000 >> 66);
)");
  EXPECT_TRUE(EquivStatusIsProof(r.status))
      << EquivStatusName(r.status) << ": " << r.detail;
}

// Each side picks arms from its own static values (DESIGN.md §14, Known
// limits). The compiler calls `q == q` static because the difference of
// its linear combinations is 0, and compiles the then arm alone. The
// checker's q is a mux over an opaque comparison, so it merges both arms
// and the program side leaves the polynomial fragment. Still proof-grade.
TEST(SymbolicEquivTest, ConditionStaticOnlyToTheCompilerStaysProofGrade) {
  const std::string prefix = R"(
program same_q;
input int<8> a;
input int<8> b;
output int<20> y;
var int<2> q;
q = (a < b) ? 1 : 0;
)";
  const std::string source =
      prefix + "if (q == q) { y = a * b; } else { y = a; }\n";
  EXPECT_EQ(CompileZlang<F>(source).CGinger(),
            CompileZlang<F>(prefix + "y = a * b;\n").CGinger());
  EXPECT_FALSE(SymEval<F>::Run(Parse(source)).AllValid());
  EquivResult r = ProveEquivalence<F>(source);
  EXPECT_TRUE(EquivStatusIsProof(r.status))
      << EquivStatusName(r.status) << ": " << r.detail;
}

// The reverse: the checker's polynomial difference a·b − b·a is 0, so it
// takes the then arm alone, while the compiler's two product variables
// differ and it compiles both arms. Still proof-grade.
TEST(SymbolicEquivTest, ConditionStaticOnlyToTheCheckerStaysProofGrade) {
  const std::string prefix = R"(
program commuted;
input int<8> a;
input int<8> b;
output int<20> y;
)";
  const std::string source =
      prefix + "if (a * b == b * a) { y = a + 1; } else { y = b; }\n";
  EXPECT_GT(CompileZlang<F>(source).CGinger(),
            CompileZlang<F>(prefix + "y = a + 1;\n").CGinger());
  EXPECT_TRUE(SymEval<F>::Run(Parse(source)).AllValid());
  EquivResult r = ProveEquivalence<F>(source);
  EXPECT_TRUE(EquivStatusIsProof(r.status))
      << EquivStatusName(r.status) << ": " << r.detail;
}

// The analysis_test example programs must never be flagged: each reaches a
// proof-grade verdict (algebraic, exhaustive, or consistent).
TEST(SymbolicEquivTest, ExampleProgramsReachProofGradeVerdicts) {
  const std::pair<const char*, const char*> programs[] = {
      {"quickstart", R"(
program quickstart;
const N = 4;
input int32 x[N];
output int<70> best;
var int<70> v;
var int<70> b;
b = x[0] * x[0] + 3 * x[0];
for i in 1..N-1 {
  v = x[i] * x[i] + 3 * x[i];
  if (v > b) { b = v; }
}
best = b;
)"},
      {"division", R"(
program division;
input int32 a;
input int32 b;
output int32 q;
output int32 r;
q = idiv(a, b);
r = imod(a, b);
)"},
      {"bitops", R"(
program bitops;
input int32 a;
input int32 b;
output int32 mixed;
var int32 t;
t = a & b;
mixed = t ^ (a | b);
)"},
      {"equality", R"(
program equality;
input int32 a;
input int32 b;
output bool same;
output int32 pick;
same = a == b;
pick = a == 7 ? b : a;
)"},
  };
  for (const auto& [name, source] : programs) {
    SCOPED_TRACE(name);
    EquivResult r = ProveEquivalence<F>(source);
    EXPECT_TRUE(EquivStatusIsProof(r.status))
        << EquivStatusName(r.status) << ": " << r.detail;
    EXPECT_NE(r.status, EquivStatus::kMismatch);
    EXPECT_NE(r.status, EquivStatus::kUnderconstrained);
  }
}

// The analyzer entry point with equivalence enabled: clean programs produce
// zero ZL021/ZL022/ZL023 findings end to end.
TEST(SymbolicEquivTest, AnalyzeSourceWithEquivalenceStaysClean) {
  auto app = MakeLcsApp(4);
  AnalyzeOptions options;
  options.equivalence = true;
  EquivResult equiv;
  AnalysisReport report = AnalyzeSource<F>(app.source, options, &equiv);
  EXPECT_EQ(report.CountRule(kRuleEquivMismatch), 0u);
  EXPECT_EQ(report.CountRule(kRuleUnderconstrainedProven), 0u);
  EXPECT_EQ(report.CountRule(kRuleEquivUnknown), 0u);
  EXPECT_TRUE(EquivStatusIsProof(equiv.status))
      << EquivStatusName(equiv.status) << ": " << equiv.detail;
}

}  // namespace
}  // namespace zaatar
