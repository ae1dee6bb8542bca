// Semantics of compiled programs: every test compiles a zlang snippet, runs
// the witness solver on concrete inputs, checks both constraint systems are
// satisfied, and compares decoded outputs against expectations.
//
// CompiledOutputTest, at the end, pins the compiler's exact output. Each
// program is compiled and every field of the CompiledProgram (both
// constraint systems with their source lines, the Zaatar product
// bookkeeping, the solver ops, the variable layouts and the I/O slots) is
// written out in a canonical text form and hashed (FNV-1a, 64 bit). A
// refactor of the compiler that keeps its output must keep every digest; a
// change that moves one variable, term or source line changes it. Covered:
// the three benchmark workload programs, every suite app at the size
// `zaatar-lint --suite` uses, examples/zlang/*.zl on F128 and F220, and one
// program with constructs none of those reach.
// When a digest changes on purpose, the failure message prints the new one.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/suite.h"
#include "src/compiler/compile.h"
#include "src/field/fields.h"

namespace zaatar {
namespace {

using F = F128;

template <typename Field = F>
std::vector<int64_t> RunProgram(const std::string& source,
                         const std::vector<int64_t>& inputs) {
  auto program = CompileZlang<Field>(source);
  std::vector<Field> in;
  in.reserve(inputs.size());
  for (int64_t v : inputs) {
    in.push_back(EncodeSignedInt<Field>(v));
  }
  auto gw = program.SolveGinger(in);
  EXPECT_TRUE(program.ginger.IsSatisfied(gw))
      << "ginger constraint " << program.ginger.FirstViolated(gw);
  auto zw = program.SolveZaatar(gw);
  EXPECT_TRUE(program.zaatar.r1cs.IsSatisfied(zw))
      << "r1cs constraint " << program.zaatar.r1cs.FirstViolated(zw);
  std::vector<int64_t> out;
  for (const Field& v : program.ExtractOutputs(gw)) {
    out.push_back(DecodeSignedInt<Field>(v));
  }
  return out;
}

TEST(SemanticsTest, ArithmeticAndPrecedence) {
  EXPECT_EQ(RunProgram("input int32 a; input int32 b; output int<70> y;"
                "y = a * b + a - 2 * b;",
                {7, 5}),
            (std::vector<int64_t>{7 * 5 + 7 - 10}));
}

TEST(SemanticsTest, NegativeValuesFlowThrough) {
  EXPECT_EQ(RunProgram("input int32 a; output int<70> y; y = a * a - a;", {-9}),
            (std::vector<int64_t>{81 + 9}));
  EXPECT_EQ(RunProgram("input int32 a; output int32 y; y = -a;", {13}),
            (std::vector<int64_t>{-13}));
}

// Comparison operators across sign combinations and boundaries.
struct CmpCase {
  int64_t a, b;
};
class ComparisonTest : public ::testing::TestWithParam<CmpCase> {};

TEST_P(ComparisonTest, AllOperatorsMatchNative) {
  auto [a, b] = GetParam();
  auto out = RunProgram(
      "input int32 a; input int32 b;"
      "output bool lt; output bool le; output bool gt; output bool ge;"
      "output bool eq; output bool ne;"
      "lt = a < b; le = a <= b; gt = a > b; ge = a >= b;"
      "eq = a == b; ne = a != b;",
      {a, b});
  EXPECT_EQ(out, (std::vector<int64_t>{a < b, a <= b, a > b, a >= b, a == b,
                                       a != b}))
      << "a=" << a << " b=" << b;
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, ComparisonTest,
    ::testing::Values(CmpCase{0, 0}, CmpCase{1, 0}, CmpCase{0, 1},
                      CmpCase{-1, 1}, CmpCase{1, -1}, CmpCase{-5, -5},
                      CmpCase{-5, -4}, CmpCase{123456, 123457},
                      CmpCase{-2147483648, 2147483647},
                      CmpCase{2147483647, 2147483647}));

TEST(SemanticsTest, BooleanOperators) {
  for (int a = 0; a <= 1; a++) {
    for (int b = 0; b <= 1; b++) {
      auto out = RunProgram(
          "input bool a; input bool b;"
          "output bool andv; output bool orv; output bool notv;"
          "output bool eqv;"
          "andv = a && b; orv = a || b; notv = !a; eqv = a == b;",
          {a, b});
      EXPECT_EQ(out, (std::vector<int64_t>{a && b, a || b, !a, a == b}));
    }
  }
}

TEST(SemanticsTest, TernarySelectsOnRuntimeCondition) {
  EXPECT_EQ(RunProgram("input int32 a; output int32 y; y = a > 10 ? 100 : 200;",
                {11}),
            (std::vector<int64_t>{100}));
  EXPECT_EQ(RunProgram("input int32 a; output int32 y; y = a > 10 ? 100 : 200;",
                {10}),
            (std::vector<int64_t>{200}));
}

TEST(SemanticsTest, MinMaxAbsBuiltins) {
  EXPECT_EQ(RunProgram("input int32 a; input int32 b;"
                "output int32 lo; output int32 hi; output int32 m;"
                "lo = min(a, b); hi = max(a, b); m = abs(a - b);",
                {-7, 4}),
            (std::vector<int64_t>{-7, 4, 11}));
}

TEST(SemanticsTest, RuntimeIfMergesOnlyWrittenVariables) {
  auto out = RunProgram(
      "input int32 a;"
      "output int32 x; output int32 y;"
      "var int32 u; var int32 v;"
      "u = 1; v = 2;"
      "if (a > 0) { u = 10; } else { v = 20; }"
      "x = u; y = v;",
      {5});
  EXPECT_EQ(out, (std::vector<int64_t>{10, 2}));
  out = RunProgram(
      "input int32 a;"
      "output int32 x; output int32 y;"
      "var int32 u; var int32 v;"
      "u = 1; v = 2;"
      "if (a > 0) { u = 10; } else { v = 20; }"
      "x = u; y = v;",
      {-5});
  EXPECT_EQ(out, (std::vector<int64_t>{1, 20}));
}

TEST(SemanticsTest, NestedRuntimeConditions) {
  const char* src =
      "input int32 a; output int32 y;"
      "y = 0;"
      "if (a > 0) { if (a > 10) { y = 2; } else { y = 1; } }"
      "else { y = -1; }";
  EXPECT_EQ(RunProgram(src, {20})[0], 2);
  EXPECT_EQ(RunProgram(src, {5})[0], 1);
  EXPECT_EQ(RunProgram(src, {-3})[0], -1);
}

TEST(SemanticsTest, StaticConditionCompilesOneArm) {
  auto p = CompileZlang<F>(
      "output int32 y; if (1 < 2) { y = 7; } else { y = 8; }");
  auto gw = p.SolveGinger({});
  EXPECT_EQ(DecodeSignedInt<F>(p.ExtractOutputs(gw)[0]), 7);
}

TEST(SemanticsTest, LoopsUnrollWithConstBounds) {
  EXPECT_EQ(RunProgram("output int32 y; var int32 s; s = 0;"
                "for i in 1..10 { s = s + i; } y = s;",
                {}),
            (std::vector<int64_t>{55}));
}

TEST(SemanticsTest, NestedLoopsAndLoopVarArithmetic) {
  EXPECT_EQ(RunProgram("output int32 y; var int32 s; s = 0;"
                "for i in 0..3 { for j in 0..i { s = s + i * j; } } y = s;",
                {}),
            (std::vector<int64_t>{25}))  // 0 + 1 + (2+4) + (3+6+9)
      << "sum of i*j for j<=i<=3";
}

TEST(SemanticsTest, StaticArrayIndexing) {
  EXPECT_EQ(RunProgram("input int32 a[4]; output int32 y;"
                "y = a[0] + a[3] * 2;",
                {5, 6, 7, 8}),
            (std::vector<int64_t>{5 + 16}));
}

TEST(SemanticsTest, MultiDimensionalArrays) {
  EXPECT_EQ(RunProgram("input int32 a[2][3]; output int32 y;"
                "y = a[0][0] + a[1][2];",
                {1, 2, 3, 4, 5, 6}),
            (std::vector<int64_t>{1 + 6}));
}

TEST(SemanticsTest, RuntimeArrayRead) {
  const char* src =
      "input int32 a[5]; input int32 i; output int32 y; y = a[i];";
  EXPECT_EQ(RunProgram(src, {10, 20, 30, 40, 50, 3})[0], 40);
  EXPECT_EQ(RunProgram(src, {10, 20, 30, 40, 50, 0})[0], 10);
}

TEST(SemanticsTest, RuntimeArrayWrite) {
  const char* src =
      "input int32 i; output int32 y0; output int32 y1; output int32 y2;"
      "var int32 a[3];"
      "a[0] = 1; a[1] = 2; a[2] = 3;"
      "a[i] = 99;"
      "y0 = a[0]; y1 = a[1]; y2 = a[2];";
  EXPECT_EQ(RunProgram(src, {1}), (std::vector<int64_t>{1, 99, 3}));
  EXPECT_EQ(RunProgram(src, {2}), (std::vector<int64_t>{1, 2, 99}));
}

TEST(SemanticsTest, ArrayOutputs) {
  EXPECT_EQ(RunProgram("input int32 a[3]; output int32 y[3];"
                "for i in 0..2 { y[i] = a[i] * a[i]; }",
                {2, 3, 4}),
            (std::vector<int64_t>{4, 9, 16}));
}

TEST(SemanticsTest, StaticDivisionAndModulo) {
  EXPECT_EQ(RunProgram("output int32 y; output int32 r; const a = 17; const b = 5;"
                "y = a / b; r = a % b;",
                {}),
            (std::vector<int64_t>{3, 2}));
}

TEST(SemanticsTest, FixedPointRationalAssignmentRounds) {
  // r is rational<W, 4>: values round down to multiples of 1/16.
  // 7/3 = 2.333... -> floor(7*16/3)/16 = 37/16.
  auto out = RunProgram(
      "input rational<16, 8> w; output rational<20, 4> r; r = w;",
      {7, 3});
  EXPECT_EQ(out, (std::vector<int64_t>{37, 16}));
}

TEST(SemanticsTest, FixedPointArithmeticIsExactOnTheGrid) {
  // 3/2 + 5/4 = 11/4 representable exactly with 4 fractional bits.
  auto out = RunProgram(
      "input rational<16, 8> a; input rational<16, 8> b;"
      "output rational<24, 4> y;"
      "var rational<20, 4> fa; var rational<20, 4> fb;"
      "fa = a; fb = b; y = fa + fb;",
      {3, 2, 5, 4});
  EXPECT_EQ(out, (std::vector<int64_t>{44, 16}));  // 2.75 * 16 = 44
}

TEST(SemanticsTest, RationalComparisonsCrossMultiply) {
  auto out = RunProgram(
      "input rational<16, 8> a; input rational<16, 8> b;"
      "output bool lt; output bool eq;"
      "lt = a < b; eq = a == b;",
      {1, 3, 1, 2});  // 1/3 < 1/2
  EXPECT_EQ(out, (std::vector<int64_t>{1, 0}));
  out = RunProgram(
      "input rational<16, 8> a; input rational<16, 8> b;"
      "output bool lt; output bool eq;"
      "lt = a < b; eq = a == b;",
      {2, 4, 1, 2});  // 2/4 == 1/2
  EXPECT_EQ(out, (std::vector<int64_t>{0, 1}));
}

TEST(SemanticsTest, RationalMinAndDivisionByConstant) {
  auto out = RunProgram(
      "input rational<16, 8> a; input rational<16, 8> b;"
      "output rational<24, 8> mid;"
      "var rational<20, 8> lo;"
      "lo = min(a, b);"
      "mid = (lo + lo) / 2;",
      {3, 4, 1, 2});  // min(3/4, 1/2) = 1/2; (1/2+1/2)/2 = 1/2
  // lo = 1/2 fixed at 2^-8: 128/256; mid = 128/256 again.
  EXPECT_EQ(out[0] * (int64_t{1} << 8), out[1] * 128);
}

TEST(SemanticsTest, ConstantsAndWidthExpressions) {
  EXPECT_EQ(RunProgram("const w = 30; const n = 2 * 2;"
                "input int<w> a[n]; output int<w + 10> y;"
                "y = a[0] + a[1] + a[2] + a[3];",
                {1, 2, 3, 4}),
            (std::vector<int64_t>{10}));
}

TEST(SemanticsTest, CompileErrors) {
  EXPECT_THROW(CompileZlang<F>("y = 1;"), CompileError);  // undeclared
  EXPECT_THROW(CompileZlang<F>("input int32 x; input int32 x;"),
               CompileError);  // redeclared
  EXPECT_THROW(CompileZlang<F>("var int32 a[2]; var int32 y; y = a[5];"),
               CompileError);  // static out of bounds
  EXPECT_THROW(
      CompileZlang<F>("input int32 a; var int32 y; y = a; y = y && y;"),
      CompileError);  // logical op on ints
  EXPECT_THROW(CompileZlang<F>("input int32 n; for i in 0..n { }"),
               CompileError);  // runtime loop bound
  EXPECT_THROW(CompileZlang<F>("var int<300> x; x = 0;"),
               CompileError);  // width beyond the field
  EXPECT_THROW(CompileZlang<F>("input int32 a; var int32 y; y = a / a;"),
               CompileError);  // runtime division
  EXPECT_THROW(CompileZlang<F>("var int32 y; y = 5 % 0;"),
               CompileError);  // static modulo by zero
  EXPECT_THROW(
      CompileZlang<F>("input int32 a; output rational<100, 63> y; y = a;"),
      CompileError);  // fixed-point precision beyond 62 bits
  EXPECT_THROW(
      CompileZlang<F>("input int32 a; output rational<100, 70> y; y = a;"),
      CompileError);
}

// A static `>>` floors: by 63 bits or more the result is 0 or -1.
TEST(SemanticsTest, StaticRightShiftPastSixtyThreeBitsFloors) {
  EXPECT_EQ(RunProgram("input int32 a; output int<70> y; output int<70> z;"
                       "output int<70> w; y = a + (1000 >> 66);"
                       "z = a + (1000 >> 64); w = a + (-1000 >> 70);",
                       {5}),
            (std::vector<int64_t>{5, 5, 4}));
}

// F220 allows `<<` by up to 215 bits. A static value shifted past the 2^62
// clip stays exact in the constraints and stops being static, so these
// comparisons must not fold to true.
TEST(SemanticsTest, StaticLeftShiftPastTheClipStaysExact) {
  EXPECT_EQ(RunProgram<F220>("output bool p; output bool q; output bool r;"
                             "p = (1 << 130) == 4;"
                             "q = ((1 << 40) << 100) == 0;"
                             "r = ((1 << 40) << 100) == (1 << 140);",
                             {}),
            (std::vector<int64_t>{0, 0, 1}));
}

// A rational<W, q> variable's denominator is the constant 2^q; q = 62 is
// the widest precision (CompileErrors covers q = 63).
TEST(SemanticsTest, FixedPointPrecisionUpTo62Bits) {
  EXPECT_EQ(RunProgram("input int32 a; output rational<100, 62> y; y = a;",
                       {1}),
            (std::vector<int64_t>{int64_t{1} << 62, int64_t{1} << 62}));
}

// An index that inlines a call must see the array as it is after the call.
TEST(SemanticsTest, IndicesMayCallFunctions) {
  EXPECT_EQ(RunProgram("func int32 next(int32 x) { return x + 1; }"
                       "input int32 a[3]; output int32 y; output int32 z[3];"
                       "var int32 t[3];"
                       "y = a[next(0)] + a[next(next(0))];"
                       "t = a; t[next(0)] = 9; z = t;",
                       {10, 20, 30}),
            (std::vector<int64_t>{50, 10, 9, 30}));
}

TEST(SemanticsTest, WidthOverflowFromRepeatedMultiplication) {
  // 32 -> 64 -> 128 bits exceeds F128's capacity: must be caught at compile
  // time, not miscomputed at runtime.
  EXPECT_THROW(CompileZlang<F>("input int32 a; output int32 y;"
                               "var int<130> t; t = a * a; t = t * t;"
                               "y = t > 0 ? 1 : 0;"),
               CompileError);
}

TEST(SemanticsTest, OutputsFollowDeclarationOrder) {
  auto p = CompileZlang<F>(
      "input int32 a; output int32 first; output int32 second;"
      "second = a + 2; first = a + 1;");
  auto gw = p.SolveGinger({EncodeSignedInt<F>(10)});
  auto out = p.ExtractOutputs(gw);
  EXPECT_EQ(DecodeSignedInt<F>(out[0]), 11);
  EXPECT_EQ(DecodeSignedInt<F>(out[1]), 12);
}

TEST(SemanticsTest, ComparisonCostIsLogarithmicInWidth) {
  // The paper: order comparisons expand to O(log |F|) constraints. A single
  // 32-bit comparison should cost tens of constraints, not hundreds.
  auto p8 = CompileZlang<F>(
      "input int<8> a; input int<8> b; output bool y; y = a < b;");
  auto p32 = CompileZlang<F>(
      "input int32 a; input int32 b; output bool y; y = a < b;");
  EXPECT_GT(p8.CGinger(), 8u);
  EXPECT_LT(p8.CGinger(), 20u);
  EXPECT_GT(p32.CGinger(), p8.CGinger());
  EXPECT_LT(p32.CGinger(), 45u);
}

TEST(SemanticsTest, PureArithmeticCostsNoComparisonGadgets) {
  auto p = CompileZlang<F>(
      "input int32 a; input int32 b; output int<70> y; y = a * b + a;");
  // One product + one output binding.
  EXPECT_LE(p.CGinger(), 3u);
}

// ----- exact compiled output -----

template <typename F>
void DumpLc(const LinearCombination<F>& lc, std::string* out) {
  *out += "[" + lc.constant().ToHexString();
  for (const auto& [v, c] : lc.terms()) {
    *out += " " + std::to_string(v) + ":" + c.ToHexString();
  }
  *out += "]";
}

void DumpLayout(const VariableLayout& l, std::string* out) {
  *out += "layout " + std::to_string(l.num_unbound) + " " +
          std::to_string(l.num_inputs) + " " + std::to_string(l.num_outputs) +
          "\n";
}

void DumpLines(const std::vector<uint32_t>& lines, std::string* out) {
  *out += "lines";
  for (uint32_t l : lines) {
    *out += " " + std::to_string(l);
  }
  *out += "\n";
}

void DumpSlots(const char* what, const std::vector<IoSlotSpec>& slots,
               std::string* out) {
  *out += what;
  for (const auto& s : slots) {
    *out += " " + s.name + "/" + std::to_string(static_cast<int>(s.kind)) +
            "/" + std::to_string(s.width);
  }
  *out += "\n";
}

template <typename F>
std::string CanonicalDump(const CompiledProgram<F>& p) {
  std::string out = "program " + p.name + "\n";
  DumpLayout(p.ginger.layout, &out);
  for (const auto& c : p.ginger.constraints) {
    DumpLc(c.linear, &out);
    for (const auto& q : c.quad) {
      out += " " + std::to_string(q.a) + "*" + std::to_string(q.b) + ":" +
             q.coeff.ToHexString();
    }
    out += "\n";
  }
  DumpLines(p.ginger.source_lines, &out);

  DumpLayout(p.zaatar.r1cs.layout, &out);
  for (const auto& c : p.zaatar.r1cs.constraints) {
    DumpLc(c.a, &out);
    DumpLc(c.b, &out);
    DumpLc(c.c, &out);
    out += "\n";
  }
  DumpLines(p.zaatar.r1cs.source_lines, &out);
  out += "products " + std::to_string(p.zaatar.ginger_num_unbound);
  for (const auto& [a, b] : p.zaatar.products) {
    out += " " + std::to_string(a) + "*" + std::to_string(b);
  }
  out += "\n";

  for (const auto& op : p.solver) {
    out += "op " + std::to_string(static_cast<int>(op.kind)) + " " +
           std::to_string(op.dst) + " " + std::to_string(op.dst2) + " ";
    DumpLc(op.a, &out);
    DumpLc(op.b, &out);
    out += " " + op.c0.ToHexString() + " " + op.c1.ToHexString();
    for (uint32_t b : op.bit_dsts) {
      out += " " + std::to_string(b);
    }
    out += "\n";
  }
  DumpSlots("inputs", p.inputs, &out);
  DumpSlots("outputs", p.outputs, &out);
  return out;
}

std::string Fnv1a64(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

template <typename F>
std::string Digest(const std::string& source) {
  return Fnv1a64(CanonicalDump(CompileZlang<F>(source)));
}

std::filesystem::path ExampleDir() {
  return std::filesystem::path(__FILE__).parent_path().parent_path() /
         "examples" / "zlang";
}

std::string ReadExample(const std::string& file) {
  std::filesystem::path dir = ExampleDir();
  std::ifstream in(dir / file);
  EXPECT_TRUE(in.good()) << "cannot read " << (dir / file);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(CompiledOutputTest, BenchmarkWorkloadPrograms) {
  EXPECT_EQ(Digest<F128>(MakeLcsApp(16).source), "8d54ccacf03b9caa")
      << "lcs m=16";
  EXPECT_EQ(Digest<F128>(MakeApspApp(4).source), "6db86a16155d2892")
      << "apsp m=4";
  EXPECT_EQ(Digest<F220>(MakeRootFindApp(6, 8).source), "dfde7cc5f43ec189")
      << "rootfind m=6 L=8";
}

TEST(CompiledOutputTest, SuiteAppsAtLintSizes) {
  EXPECT_EQ(Digest<F128>(MakePamApp(4, 3).source), "0179aeaa400bad89")
      << "pam";
  EXPECT_EQ(Digest<F128>(MakeApspApp(3).source), "84013f273422fd33")
      << "apsp";
  EXPECT_EQ(Digest<F128>(MakeFannkuchApp(3, 4, 8).source),
            "162e5856e6c6b375")
      << "fannkuch";
  EXPECT_EQ(Digest<F128>(MakeLcsApp(6).source), "07adc63736b3515a")
      << "lcs";
  EXPECT_EQ(Digest<F128>(MakeMatMulApp(3).source), "551b728e2d41d09e")
      << "matmul";
  EXPECT_EQ(Digest<F220>(MakeRootFindApp(2, 4).source), "f4862740a5f94dcc")
      << "rootfind";
}

// Constructs the suite programs do not reach: rational comparisons with
// runtime denominators (two product variables each), an inlined rational
// function, a runtime-index write, and a merge over a compound condition.
TEST(CompiledOutputTest, RuntimeRationalsAndIndices) {
  const char* source = R"(
program coverage;
func rational<40, 8> mid(rational<20, 8> x, rational<20, 8> z) {
  return (x + z) / 2;
}
input rational<12, 6> a;
input rational<12, 6> b;
input int<8> v[3];
input int<2> i;
input bool c;
output bool lt;
output bool eq;
output rational<60, 10> m;
output int<40> y[3];
var int<40> w[3];
lt = a < b;
eq = a == b;
m = c ? mid(a, b) : min(a, b);
w = v;
w[i] = v[0] * v[1];
if (c && (v[i] < 3)) { w[0] = w[2] - 1; }
y = w;
)";
  EXPECT_EQ(Digest<F128>(source), "5790a49201934406");
}

TEST(CompiledOutputTest, ExampleProgramsOnBothFields) {
  const struct {
    const char* file;
    const char* f128;
    const char* f220;
  } kExamples[] = {
      {"bitops.zl", "03c04e7eea899b43", "71176a1ced90c329"},
      {"division.zl", "c09f40dff531896b", "b22cccdb3dd2e29b"},
      {"matmul.zl", "90cc707a5141003d", "f4459cb8cc94537b"},
      {"polyeval.zl", "200276842b470799", "dd1f97014b88d16d"},
      {"quickstart.zl", "5a1665a1014c0fc7", "48b8b659e803602b"},
  };
  std::vector<std::string> listed, found;
  for (const auto& e : kExamples) {
    listed.push_back(e.file);
    std::string source = ReadExample(e.file);
    EXPECT_EQ(Digest<F128>(source), e.f128) << e.file << " on F128";
    EXPECT_EQ(Digest<F220>(source), e.f220) << e.file << " on F220";
  }
  for (const auto& entry : std::filesystem::directory_iterator(ExampleDir())) {
    if (entry.path().extension() == ".zl") {
      found.push_back(entry.path().filename().string());
    }
  }
  std::sort(found.begin(), found.end());
  EXPECT_EQ(found, listed) << "every example program needs a pinned digest";
}

}  // namespace
}  // namespace zaatar
