// Differential fuzzer for the zlang->R1CS compiler (DESIGN.md §14): a
// seeded generator emits random well-formed zlang programs, and each one is
// cross-checked four ways —
//
//   1. the native reference interpreter (src/analysis/symbolic/) runs the
//      source directly over 128-bit integers,
//   2. the compiled witness solver solves the constraint system and both
//      encodings (Ginger and Zaatar R1CS) are checked for satisfiability,
//   3. the symbolic equivalence decider issues its verdict, and
//   4. periodically, a full argument round (commit + PCP queries with
//      PcpParams::Light) must ACCEPT the honestly-generated instance.
//
// Any divergence is shrunk by greedily deleting program statements while
// the failure reproduces, so a report carries a minimal source text plus
// the separating input vector.
//
// The generator tracks value widths the same way the compiler does and
// wraps gadget operands defensively (`idiv(a, 1 + abs(b))`, `abs(x) & ...`)
// so generated programs are total: every sampled input must agree, which
// keeps each iteration's signal high.

#ifndef SRC_TESTING_ZLANG_FUZZ_H_
#define SRC_TESTING_ZLANG_FUZZ_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/symbolic/equivalence.h"
#include "src/apps/harness.h"
#include "src/apps/suite.h"
#include "src/crypto/prg.h"

namespace zaatar {

struct ZlangFuzzCase {
  std::string name;
  std::vector<std::string> decls;  // fixed prefix: inputs, outputs, vars
  std::vector<std::string> stmts;  // droppable by the shrinker
  std::vector<std::string> outs;   // output bindings, kept

  std::string Source() const {
    std::string s = "program " + name + ";\n";
    for (const auto& l : decls) {
      s += l + "\n";
    }
    for (const auto& l : stmts) {
      s += l + "\n";
    }
    for (const auto& l : outs) {
      s += l + "\n";
    }
    return s;
  }
};

namespace fuzz_internal {

struct GenVar {
  std::string name;
  size_t width;  // current value-width bound, compiler-style
};

class ExprGen {
 public:
  ExprGen(Prg* prg, std::vector<GenVar>* vars) : prg_(prg), vars_(vars) {}

  // Returns (text, width bound). Width stays <= budget.
  std::pair<std::string, size_t> Gen(size_t depth, size_t budget) {
    if (depth == 0 || budget < 8 || prg_->NextBounded(4) == 0) {
      return Leaf(budget);
    }
    // No isqrt: its bit-by-bit auxiliary chain is beyond the determinism
    // fixpoint (a known analyzer limitation, DESIGN.md §14), so programs
    // using it can never reach a proof-grade verdict.
    switch (prg_->NextBounded(8)) {
      case 0:
      case 1: {  // a + b / a - b
        auto a = Gen(depth - 1, budget - 1);
        auto b = Gen(depth - 1, budget - 1);
        const char* op = prg_->NextBool() ? " + " : " - ";
        size_t w = (a.second > b.second ? a.second : b.second) + 1;
        return {"(" + a.first + op + b.first + ")", w};
      }
      case 2: {  // a * b
        auto a = Gen(depth - 1, budget / 2);
        auto b = Gen(depth - 1, budget - a.second);
        return {"(" + a.first + " * " + b.first + ")", a.second + b.second};
      }
      case 3: {  // comparison ? a : b
        auto c1 = Gen(depth - 1, 16);
        auto c2 = Gen(depth - 1, 16);
        const char* cmp = prg_->NextBool() ? " < " : " == ";
        auto a = Gen(depth - 1, budget);
        auto b = Gen(depth - 1, budget);
        size_t w = a.second > b.second ? a.second : b.second;
        return {"((" + c1.first + cmp + c2.first + ") ? " + a.first + " : " +
                    b.first + ")",
                w};
      }
      case 4: {  // min / max / abs
        auto a = Gen(depth - 1, budget);
        if (prg_->NextBounded(3) == 0) {
          return {"abs(" + a.first + ")", a.second};
        }
        auto b = Gen(depth - 1, budget);
        const char* fn = prg_->NextBool() ? "min" : "max";
        size_t w = a.second > b.second ? a.second : b.second;
        return {std::string(fn) + "(" + a.first + ", " + b.first + ")", w};
      }
      case 5: {  // idiv / imod with a guaranteed-positive small divisor
        auto a = Gen(depth - 1, budget);
        auto d = Gen(depth - 1, 12);
        const char* fn = prg_->NextBool() ? "idiv" : "imod";
        size_t w = fn[1] == 'd' ? a.second : 14;
        return {std::string(fn) + "(" + a.first + ", 1 + abs(" + d.first +
                    "))",
                w};
      }
      case 6: {  // bitwise on absolute values
        auto a = Gen(depth - 1, budget);
        auto b = Gen(depth - 1, budget);
        const char* op = prg_->NextBounded(3) == 0   ? " & "
                         : prg_->NextBounded(2) == 0 ? " | "
                                                     : " ^ ";
        size_t w = a.second > b.second ? a.second : b.second;
        return {"(abs(" + a.first + ")" + op + "abs(" + b.first + "))", w};
      }
      default: {  // shifts by a static amount
        auto a = Gen(depth - 1, budget - 4);
        if (prg_->NextBool()) {
          size_t k = prg_->NextBounded(4);
          return {"(" + a.first + " << " + std::to_string(k) + ")",
                  a.second + k};
        }
        // Three right shifts in four go by 56-70 bits, across the 64-bit
        // boundary where a static operand's fold must floor to 0 or -1.
        size_t k = prg_->NextBounded(4) == 0 ? prg_->NextBounded(56)
                                             : 56 + prg_->NextBounded(15);
        return {"(" + a.first + " >> " + std::to_string(k) + ")", a.second};
      }
    }
  }

  std::pair<std::string, size_t> Leaf(size_t budget) {
    // Prefer variables whose width fits the budget; else a literal.
    std::vector<size_t> fits;
    for (size_t i = 0; i < vars_->size(); i++) {
      if ((*vars_)[i].width <= budget) {
        fits.push_back(i);
      }
    }
    if (!fits.empty() && prg_->NextBounded(5) != 0) {
      const GenVar& v = (*vars_)[fits[prg_->NextBounded(fits.size())]];
      return {v.name, v.width};
    }
    return {std::to_string(prg_->NextBounded(16)), 4};
  }

 private:
  Prg* prg_;
  std::vector<GenVar>* vars_;
};

}  // namespace fuzz_internal

// Generates a random well-formed, total zlang program. Tracked widths are
// upper bounds on the compiler's and never exceed the 100-bit budget, so
// F128 (kMaxWidth = 124) compiles every case.
inline ZlangFuzzCase GenerateZlangCase(Prg& prg, size_t case_id) {
  using fuzz_internal::ExprGen;
  using fuzz_internal::GenVar;
  constexpr size_t kBudget = 100;

  ZlangFuzzCase c;
  c.name = "fuzz_" + std::to_string(case_id);
  std::vector<GenVar> vars;

  size_t num_inputs = 2 + prg.NextBounded(2);
  for (size_t i = 0; i < num_inputs; i++) {
    size_t w = 6 + prg.NextBounded(5);
    std::string name = "x" + std::to_string(i);
    c.decls.push_back("input int<" + std::to_string(w) + "> " + name + ";");
    vars.push_back({name, w});
  }
  size_t num_outputs = 1 + prg.NextBounded(2);
  for (size_t i = 0; i < num_outputs; i++) {
    c.decls.push_back("output int<120> y" + std::to_string(i) + ";");
  }
  size_t num_temps = 3;
  for (size_t i = 0; i < num_temps; i++) {
    std::string name = "t" + std::to_string(i);
    c.decls.push_back("var int<116> " + name + ";");
    vars.push_back({name, 1});
  }

  ExprGen gen(&prg, &vars);
  auto temp_index = [&](size_t k) { return num_inputs + k; };
  size_t num_stmts = 4 + prg.NextBounded(5);
  for (size_t s = 0; s < num_stmts; s++) {
    size_t k = prg.NextBounded(num_temps);
    GenVar& t = vars[temp_index(k)];
    switch (prg.NextBounded(4)) {
      case 0: {  // if/else writing the same temp in both arms
        auto c1 = gen.Gen(1, 16);
        auto c2 = gen.Gen(1, 16);
        auto a = gen.Gen(2, kBudget);
        auto b = gen.Gen(2, kBudget);
        c.stmts.push_back("if (" + c1.first + " < " + c2.first + ") { " +
                          t.name + " = " + a.first + "; } else { " + t.name +
                          " = " + b.first + "; }");
        size_t w = a.second > b.second ? a.second : b.second;
        t.width = t.width > w ? t.width : w;
        break;
      }
      case 1:  // bounded accumulation loop, while the temp has room
        if (t.width + 4 <= kBudget) {
          // The body's expression never reads the accumulator: if it did,
          // its width would compound on every unrolled iteration.
          std::vector<GenVar> others;
          for (const GenVar& v : vars) {
            if (v.name != t.name) {
              others.push_back(v);
            }
          }
          ExprGen body_gen(&prg, &others);
          auto e = body_gen.Gen(2, kBudget - 8);
          std::string loop = "k" + std::to_string(s);
          c.stmts.push_back("for " + loop + " in 0..2 { " + t.name + " = " +
                            t.name + " + " + e.first + " + " + loop + "; }");
          t.width = (t.width > e.second ? t.width : e.second) + 4;
          break;
        }
        [[fallthrough]];
      default: {  // plain assignment
        auto e = gen.Gen(3, kBudget);
        c.stmts.push_back(t.name + " = " + e.first + ";");
        t.width = e.second;
        break;
      }
    }
  }
  for (size_t i = 0; i < num_outputs; i++) {
    auto e = gen.Gen(2, kBudget);
    c.outs.push_back("y" + std::to_string(i) + " = " + e.first + ";");
  }
  return c;
}

struct ZlangFuzzOutcome {
  bool ok = true;
  bool unknown = false;  // verdict was kUnknown (not a divergence)
  std::string detail;
  std::vector<int64_t> counterexample;
};

// Cross-checks one source text. `full_argument` additionally runs a
// commit + PCP round on an honestly-generated instance and requires ACCEPT.
template <typename F>
ZlangFuzzOutcome CheckZlangSource(const std::string& source, uint64_t seed,
                                  bool full_argument) {
  ZlangFuzzOutcome out;
  EquivOptions opt;
  opt.seed = seed;
  opt.num_samples = 12;
  opt.mismatch_search = 64;
  opt.exhaustive_cap = 512;
  EquivResult r;
  try {
    r = ProveEquivalence<F>(source, opt);
  } catch (const std::exception& e) {
    out.ok = false;
    out.detail = std::string("equivalence checker threw: ") + e.what();
    return out;
  }
  if (r.status == EquivStatus::kMismatch ||
      r.status == EquivStatus::kUnderconstrained) {
    out.ok = false;
    out.detail = std::string(EquivStatusName(r.status)) + ": " + r.detail +
                 (r.note.empty() ? "" : " (" + r.note + ")");
    out.counterexample = r.counterexample;
    return out;
  }
  out.unknown = r.status == EquivStatus::kUnknown;

  if (full_argument) {
    try {
      ProgramAst ast = Parse(source);
      CompiledProgram<F> prog = CompileZlang<F>(source);
      NativeInterp native(ast);
      Prg prg(seed ^ 0xF0F0);
      for (size_t tries = 0; tries < 16; tries++) {
        std::vector<int64_t> inputs =
            SampleNativeInputs(prog.inputs, prg, 6);
        NativeResult nat = native.Run(inputs);
        if (nat.status != NativeResult::Status::kOk) {
          continue;
        }
        App<F> app;
        app.name = "fuzz";
        app.source = source;
        std::vector<F> encoded;
        for (int64_t v : inputs) {
          encoded.push_back(EncodeSignedInt<F>(v));
        }
        std::vector<F> expected;
        for (__int128 v : nat.outputs) {
          expected.push_back(symbolic_internal::EncodeInt128<F>(v));
        }
        app.make_instance = [encoded, expected](Prg&) {
          AppInstance<F> inst;
          inst.inputs = encoded;
          inst.expected_outputs = expected;
          return inst;
        };
        MeasureOptions opt;
        opt.measure_native = false;
        opt.prover_threads = 1;
        auto m = MeasureBatch<F, ZaatarHarnessBackend<F>>(
            app, prog, /*beta=*/1, PcpParams::Light(), seed, opt);
        if (!m.all_accepted) {
          out.ok = false;
          out.detail = "full argument REJECTED an honest instance";
          out.counterexample = inputs;
        }
        return out;
      }
    } catch (const std::exception& e) {
      out.ok = false;
      out.detail = std::string("full-argument check threw: ") + e.what();
      return out;
    }
  }
  return out;
}

// Greedy statement-deletion shrink: drops one statement at a time while the
// failure (equivalence-level, cheap) still reproduces.
template <typename F>
ZlangFuzzCase ShrinkZlangCase(ZlangFuzzCase c, uint64_t seed) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < c.stmts.size(); i++) {
      ZlangFuzzCase cand = c;
      cand.stmts.erase(cand.stmts.begin() + static_cast<long>(i));
      ZlangFuzzOutcome probe =
          CheckZlangSource<F>(cand.Source(), seed, /*full_argument=*/false);
      if (!probe.ok) {
        c = std::move(cand);
        changed = true;
        break;
      }
    }
  }
  return c;
}

struct ZlangFuzzReport {
  size_t iterations = 0;
  size_t unknown_verdicts = 0;
  size_t compile_errors = 0;
  // Set on the first divergence: minimal source + outcome.
  std::optional<std::string> failure;
};

// Runs `iters` generate/check cycles; every eighth case also runs the full
// argument round. Stops and shrinks at the first divergence.
template <typename F>
ZlangFuzzReport RunZlangFuzz(size_t iters, uint64_t seed) {
  ZlangFuzzReport report;
  Prg prg(seed);
  for (size_t i = 0; i < iters; i++) {
    report.iterations++;
    ZlangFuzzCase c = GenerateZlangCase(prg, i);
    std::string source = c.Source();
    try {
      CompileZlang<F>(source);
    } catch (const std::exception& e) {
      // A generator-width bug, not a compiler divergence — but it still
      // starves coverage, so surface it.
      report.compile_errors++;
      report.failure = "case " + std::to_string(i) +
                       " failed to compile: " + e.what() + "\n" + source;
      return report;
    }
    uint64_t case_seed = seed * 1000003 + i;
    ZlangFuzzOutcome out =
        CheckZlangSource<F>(source, case_seed, /*full_argument=*/i % 8 == 0);
    report.unknown_verdicts += out.unknown ? 1 : 0;
    if (!out.ok) {
      ZlangFuzzCase shrunk = ShrinkZlangCase<F>(std::move(c), case_seed);
      std::string msg = "case " + std::to_string(i) + ": " + out.detail;
      if (!out.counterexample.empty()) {
        msg += "\ninput =";
        for (int64_t v : out.counterexample) {
          msg += " " + std::to_string(v);
        }
      }
      msg += "\nshrunk reproducer:\n" + shrunk.Source();
      report.failure = std::move(msg);
      return report;
    }
  }
  return report;
}

}  // namespace zaatar

#endif  // SRC_TESTING_ZLANG_FUZZ_H_
