// The evaluator: lowering a zlang AST into constraints.
//
// ZlangWalker (walker.h) walks the program; Evaluator is the domain it
// drives: integers and booleans are linear combinations over the
// CircuitBuilder with tracked widths, and every operation below emits the
// gadget that computes it. Control flow is resolved at compile time
// wherever possible — loops have static bounds and are unrolled; `if` over
// a static condition compiles one arm. Runtime conditions compile both arms
// and merge every written variable with a mux (b + c·(a-b)), which is free
// for values the branches agree on. Array accesses with static indices are
// direct; runtime indices expand to equality-selector chains (one IsZero
// per slot) — the "excessive number of constraints" for indirect memory
// access that §5.4 discusses.

#ifndef SRC_COMPILER_EVALUATOR_H_
#define SRC_COMPILER_EVALUATOR_H_

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/compiler/ast.h"
#include "src/compiler/builder.h"
#include "src/compiler/values.h"
#include "src/compiler/walker.h"

namespace zaatar {

// Where an input/output field element comes from, for runtime encoding.
struct IoSlotSpec {
  enum class Kind { kInt, kBool, kRatNum, kRatDen };
  std::string name;
  Kind kind = Kind::kInt;
  size_t width = 32;
};

template <typename F>
struct EvaluationResult {
  GingerSystem<F> system;
  std::vector<SolverOp<F>> solver;
  std::vector<IoSlotSpec> inputs;
  std::vector<IoSlotSpec> outputs;
};

template <typename F>
class Evaluator {
 public:
  using LC = LinearCombination<F>;
  using IV = IntVal<F>;
  using BV = BoolVal<F>;
  using RV = RatVal<F>;
  // The walker's names for the scalar types, and its value over them.
  using Int = IV;
  using Bool = BV;
  using Rat = RV;
  using Value = ZlangValue<IV, BV, RV>;

  // Comparisons need width+1 decomposition plus shift headroom.
  static constexpr double kMaxWidth = static_cast<double>(F::kModulusBits - 4);

  explicit Evaluator(const ProgramAst& ast) : ast_(&ast) {}

  EvaluationResult<F> Run() {
    ZlangWalker<Evaluator>(*ast_, this).Run();
    auto fin = builder_.Finalize();
    EvaluationResult<F> r;
    r.system = std::move(fin.system);
    r.solver = std::move(fin.solver);
    r.inputs = std::move(input_slots_);
    r.outputs = std::move(output_slots_);
    return r;
  }

 private:
  friend class ZlangWalker<Evaluator>;

  // ----- the walker's hooks -----

  void SetSourceLine(size_t line) { builder_.SetSourceLine(line); }

  static std::optional<int64_t> StaticInt(const IV& v) {
    return v.static_value;
  }
  static std::optional<bool> StaticBool(const BV& v) { return v.static_value; }

  static IV IntConst(int64_t v) { return IV::Constant(v); }
  static BV BoolConst(bool v) { return BV::Constant(v); }

  IV IntInput(size_t width) {
    IV v;
    v.lc = LC::Variable(builder_.NewInput());
    v.width = static_cast<double>(width);
    return v;
  }

  BV BoolInput() {
    BV v;
    v.lc = LC::Variable(builder_.NewInput());
    return v;
  }

  // Inputs get their slots before their variables; outputs fix their
  // variables now (and so the output order) and bind after the body runs.
  void DeclareIo(const std::string& name, const TypeNode& type,
                 bool is_output) {
    if (is_output) {
      size_t scalars = type.ElementCount() *
                       (type.kind == TypeNode::Kind::kRational ? 2 : 1);
      for (size_t i = 0; i < scalars; i++) {
        output_vars_.push_back(builder_.NewOutput());
      }
    }
    std::vector<IoSlotSpec>* slots = is_output ? &output_slots_ : &input_slots_;
    for (size_t i = 0; i < type.ElementCount(); i++) {
      std::string slot_name =
          type.IsArray() ? name + "[" + std::to_string(i) + "]" : name;
      switch (type.kind) {
        case TypeNode::Kind::kInt:
          slots->push_back({slot_name, IoSlotSpec::Kind::kInt, type.width});
          break;
        case TypeNode::Kind::kBool:
          slots->push_back({slot_name, IoSlotSpec::Kind::kBool, 1});
          break;
        case TypeNode::Kind::kRational:
          slots->push_back(
              {slot_name, IoSlotSpec::Kind::kRatNum, type.width});
          slots->push_back(
              {slot_name, IoSlotSpec::Kind::kRatDen, type.den_width});
          break;
      }
    }
  }

  void BindOutput(const IV& v) { BindOutputLc(v.lc); }
  void BindOutput(const BV& v) { BindOutputLc(v.lc); }
  void BindOutputLc(const LC& lc) {
    builder_.BindOutput(output_vars_[next_output_++], lc);
  }

  // assert cond; — one linear constraint on the boolean wire. A dynamically
  // false assertion makes the constraints unsatisfiable, so no valid proof
  // exists for the offending input.
  void Assert(const BV& c) { builder_.AssertEqual(c.lc, LC(F::One())); }

  // ----- fixed-point rationals -----
  //
  // Assignment to a variable declared rational<W, q> *rounds* the value to
  // denominator 2^q (floor semantics) and bounds the numerator by 2^W. This
  // is zlang's realization of Ginger's primitive floating-point: without it,
  // rational widths compound across loop iterations (e.g. Floyd-Warshall's
  // m^3 chained relaxations) and exceed any fixed field. Once a value is
  // fixed-point its denominator is a compile-time constant, so subsequent
  // +/- and scalar ops cost no constraints beyond the next rounding.

  static std::optional<size_t> StaticPowerOfTwo(const IV& v) {
    if (!v.IsStatic() || *v.static_value <= 0) {
      return std::nullopt;
    }
    uint64_t x = static_cast<uint64_t>(*v.static_value);
    if ((x & (x - 1)) != 0) {
      return std::nullopt;
    }
    return static_cast<size_t>(__builtin_ctzll(x));
  }

  // q <= 62: the walker rejects wider fixed-point declarations.
  RV FixRational(const RV& x, size_t w, size_t q, size_t line) {
    auto e = StaticPowerOfTwo(x.den);
    RV out;
    out.den = IV::Constant(int64_t{1} << q);
    if (e.has_value() && *e <= q) {
      // Exact rescale: n' = n · 2^(q-e); no constraints.
      out.num = x.num;
      out.num.lc = x.num.lc * PowerOfTwo(q - *e);
      out.num.width = x.num.width + static_cast<double>(q - *e);
      if (out.num.static_value.has_value()) {
        out.num.static_value =
            ClipStatic(static_cast<__int128>(*x.num.static_value)
                       << (q - *e));
      }
      if (out.num.width > static_cast<double>(w)) {
        throw CompileError("fixed-point value exceeds declared width", line,
                           0);
      }
      return out;
    }
    if (e.has_value()) {
      // Static power-of-two denominator, shift down by s = e - q:
      // n' = floor(n / 2^s) via bit decomposition (no division needed).
      size_t s = *e - q;
      size_t kbits = static_cast<size_t>(std::ceil(x.num.width));
      CheckWidth(static_cast<double>(kbits + 1), line);
      LC shifted = x.num.lc;
      shifted.AddConstant(PowerOfTwo(kbits));
      shifted.Compact();
      std::vector<LC> bits = builder_.Decompose(shifted, kbits + 1);
      LC high;
      F pw = F::One();
      for (size_t i = s; i <= kbits; i++) {
        high = high + bits[i] * pw;
        pw = pw.Double();
      }
      high.AddConstant(-PowerOfTwo(kbits - s));
      high.Compact();
      out.num.lc = high;
      out.num.width = std::max(1.0, x.num.width - static_cast<double>(s));
      return out;
    }
    // Dynamic denominator: full division gadget.
    // n2 = n·2^q; n' = floor(n2 / d) with n2 = n'·d + r, 0 <= r < d.
    LC n2 = x.num.lc * PowerOfTwo(q);
    auto [quot, rem] = builder_.DivFloor(n2, x.den.lc);
    // r in [0, 2^wd) and r < d.
    size_t wd = static_cast<size_t>(std::ceil(x.den.width));
    builder_.Decompose(rem, wd);
    IV r_iv;
    r_iv.lc = rem;
    r_iv.width = static_cast<double>(wd);
    BV r_less = IntLess(r_iv, x.den, line);
    builder_.AssertEqual(r_less.lc, LC(F::One()));
    // n' in [-2^w, 2^w).
    LC shifted_q = quot;
    shifted_q.AddConstant(PowerOfTwo(w));
    builder_.Decompose(shifted_q, w + 1);
    out.num.lc = quot;
    out.num.width = static_cast<double>(w);
    return out;
  }

  // Runtime integer division: a = q·b + r with 0 <= r < b; requires b > 0
  // at runtime (the witness solver enforces it).
  std::pair<IV, IV> IntDivMod(const IV& a, const IV& b, size_t line) {
    if (a.IsStatic() && b.IsStatic() && *b.static_value > 0) {
      int64_t av = *a.static_value, bv = *b.static_value;
      int64_t q = av / bv, r = av % bv;
      if (r < 0) {  // floor semantics
        q -= 1;
        r += bv;
      }
      return {IV::Constant(q), IV::Constant(r)};
    }
    auto [quot, rem] = builder_.DivFloor(a.lc, b.lc);
    size_t wb = static_cast<size_t>(std::ceil(b.width));
    CheckWidth(static_cast<double>(wb), line);
    builder_.Decompose(rem, wb);
    IV r_iv;
    r_iv.lc = rem;
    r_iv.width = static_cast<double>(wb);
    BV r_less = IntLess(r_iv, b, line);
    builder_.AssertEqual(r_less.lc, LC(F::One()));
    size_t wq = static_cast<size_t>(std::ceil(a.width));
    CheckWidth(static_cast<double>(wq + 1), line);
    LC shifted = quot;
    shifted.AddConstant(PowerOfTwo(wq));
    builder_.Decompose(shifted, wq + 1);
    IV q_iv;
    q_iv.lc = quot;
    q_iv.width = static_cast<double>(wq);
    return {q_iv, r_iv};
  }

  // Integer square root: s with s^2 <= x < (s+1)^2; requires x >= 0.
  IV IntSqrt(const IV& x, size_t line) {
    if (x.IsStatic() && *x.static_value >= 0) {
      int64_t v = *x.static_value;
      int64_t s = static_cast<int64_t>(std::sqrt(static_cast<double>(v)));
      while (s > 0 && s * s > v) {
        s--;
      }
      while ((s + 1) * (s + 1) <= v) {
        s++;
      }
      return IV::Constant(s);
    }
    size_t w = static_cast<size_t>(std::ceil(x.width));
    CheckWidth(static_cast<double>(w + 2), line);
    LC s = builder_.SqrtWitness(x.lc);
    LC s_sq = builder_.Product(s, s);
    // x - s^2 in [0, 2^w).
    LC low = x.lc + s_sq * (-F::One());
    low.Compact();
    builder_.Decompose(low, w);
    // (s+1)^2 - x - 1 = s^2 + 2s - x >= 0.
    LC high = s_sq + s + s + x.lc * (-F::One());
    high.Compact();
    builder_.Decompose(high, w);
    IV out;
    out.lc = s;
    out.width = static_cast<double>(w / 2 + 1);
    return out;
  }

  // ----- integer ops -----

  void CheckWidth(double width, size_t line) {
    if (width > kMaxWidth) {
      throw CompileError(
          "integer width " + std::to_string(width) +
              " exceeds field capacity (" + std::to_string(kMaxWidth) + ")",
          line, 0);
    }
  }

  // log2(2^a + 2^b), the width of a sum of magnitudes.
  static double AddWidth(double a, double b) {
    double hi = std::max(a, b), lo = std::min(a, b);
    if (hi - lo > 60) {
      return hi;
    }
    return hi + std::log2(1.0 + std::exp2(lo - hi));
  }

  static std::optional<int64_t> ClipStatic(__int128 v) {
    const __int128 kLimit = static_cast<__int128>(1) << 62;
    if (v >= kLimit || v <= -kLimit) {
      return std::nullopt;
    }
    return static_cast<int64_t>(v);
  }

  IV IntAdd(const IV& a, const IV& b, bool subtract, size_t line) {
    IV r;
    r.lc = subtract ? a.lc + b.lc * (-F::One()) : a.lc + b.lc;
    r.lc.Compact();
    r.width = AddWidth(a.width, b.width);
    CheckWidth(r.width, line);
    if (a.IsStatic() && b.IsStatic()) {
      __int128 v = static_cast<__int128>(*a.static_value) +
                   (subtract ? -static_cast<__int128>(*b.static_value)
                             : static_cast<__int128>(*b.static_value));
      r.static_value = ClipStatic(v);
    }
    return r;
  }

  IV IntMul(const IV& a, const IV& b, size_t line) {
    IV r;
    r.width = a.width + b.width;
    CheckWidth(r.width, line);
    r.lc = builder_.Product(a.lc, b.lc);
    if (a.IsStatic() && b.IsStatic()) {
      r.static_value = ClipStatic(static_cast<__int128>(*a.static_value) *
                                  *b.static_value);
    }
    return r;
  }

  IV IntNeg(const IV& a) {
    IV r;
    r.lc = a.lc * (-F::One());
    r.width = a.width;
    if (a.IsStatic()) {
      r.static_value = -*a.static_value;
    }
    return r;
  }

  // a < b via shifted bit decomposition (O(width) constraints).
  BV IntLess(const IV& a, const IV& b, size_t line) {
    if (a.IsStatic() && b.IsStatic()) {
      return BV::Constant(*a.static_value < *b.static_value);
    }
    size_t w = static_cast<size_t>(std::ceil(AddWidth(a.width, b.width)));
    CheckWidth(static_cast<double>(w + 1), line);
    // d = a - b + 2^w is in (0, 2^{w+1}); a < b iff d < 2^w iff bit w clear.
    LC d = a.lc + b.lc * (-F::One());
    d.AddConstant(PowerOfTwo(w));
    d.Compact();
    std::vector<LC> bits = builder_.Decompose(d, w + 1);
    BV r;
    r.lc = LinearCombination<F>(F::One()) + bits[w] * (-F::One());
    r.lc.Compact();
    return r;
  }

  // Static when both sides are, or when their difference is a constant
  // linear combination (`q == q` for any q). IsZero is width-free, so
  // `line` is unused.
  BV IntEq(const IV& a, const IV& b, size_t /*line*/ = 0) {
    if (a.IsStatic() && b.IsStatic()) {
      return BV::Constant(*a.static_value == *b.static_value);
    }
    LC d = a.lc + b.lc * (-F::One());
    d.Compact();
    if (d.IsConstant()) {
      return BV::Constant(d.constant().IsZero());
    }
    BV r;
    r.lc = builder_.IsZero(d);
    return r;
  }

  // Bitwise ops on nonnegative integers via bit decomposition. AND pays one
  // product per bit; OR and XOR derive from it arithmetically:
  //   a|b = a + b - (a&b),   a^b = a + b - 2(a&b).
  IV IntBitwise(TokenKind op, const IV& a, const IV& b, size_t line) {
    if (a.IsStatic() && b.IsStatic() && *a.static_value >= 0 &&
        *b.static_value >= 0) {
      int64_t av = *a.static_value, bv = *b.static_value;
      int64_t r = op == TokenKind::kAmp   ? (av & bv)
                  : op == TokenKind::kPipe ? (av | bv)
                                           : (av ^ bv);
      return IV::Constant(r);
    }
    size_t w = static_cast<size_t>(
        std::ceil(std::max(a.width, b.width)));
    CheckWidth(static_cast<double>(w), line);
    std::vector<LC> abits = builder_.Decompose(a.lc, w);
    std::vector<LC> bbits = builder_.Decompose(b.lc, w);
    LC and_acc;
    F pow = F::One();
    for (size_t i = 0; i < w; i++) {
      and_acc = and_acc + builder_.Product(abits[i], bbits[i]) * pow;
      pow = pow.Double();
    }
    and_acc.Compact();
    IV r;
    r.width = static_cast<double>(w);
    switch (op) {
      case TokenKind::kAmp:
        r.lc = and_acc;
        break;
      case TokenKind::kPipe:
        r.lc = a.lc + b.lc + and_acc * (-F::One());
        break;
      default:  // kCaret
        r.lc = a.lc + b.lc + and_acc * (-F::FromUint(2));
        break;
    }
    r.lc.Compact();
    return r;
  }

  // The LC is exact for any k the width allows; the static value is kept
  // only while |v|·2^k stays under the 2^62 clip.
  IV IntShl(const IV& a, size_t k, size_t line) {
    IV r;
    r.lc = a.lc * PowerOfTwo(k);
    r.width = a.width + static_cast<double>(k);
    CheckWidth(r.width, line);
    if (a.IsStatic() && (*a.static_value == 0 || k < 62)) {
      r.static_value = *a.static_value == 0
                           ? 0
                           : ClipStatic(static_cast<__int128>(*a.static_value) *
                                        (static_cast<__int128>(1) << k));
    }
    return r;
  }

  // Arithmetic (floor) right shift, valid for negative values too. A static
  // value shifted by 63 or more is 0 or -1.
  IV IntShr(const IV& a, size_t k, size_t line) {
    if (a.IsStatic()) {
      return IV::Constant(*a.static_value >> std::min<size_t>(k, 63));
    }
    size_t kbits = static_cast<size_t>(std::ceil(a.width));
    if (k >= kbits) {
      // Result is 0 for nonnegative, -1 for negative: floor(a / 2^k).
      kbits = k;  // decompose wide enough to capture the sign
    }
    CheckWidth(static_cast<double>(kbits + 1), line);
    LC shifted = a.lc;
    shifted.AddConstant(PowerOfTwo(kbits));
    std::vector<LC> bits = builder_.Decompose(shifted, kbits + 1);
    LC high;
    F pow = F::One();
    for (size_t i = k; i <= kbits; i++) {
      high = high + bits[i] * pow;
      pow = pow.Double();
    }
    high.AddConstant(-PowerOfTwo(kbits - k));
    high.Compact();
    IV r;
    r.lc = high;
    r.width = std::max(1.0, a.width - static_cast<double>(k));
    return r;
  }

  static F PowerOfTwo(size_t w) {
    F r = F::One();
    for (size_t i = 0; i < w; i++) {
      r = r.Double();
    }
    return r;
  }

  // ----- bool ops -----

  BV BoolNot(const BV& a) {
    BV r;
    r.lc = LinearCombination<F>(F::One()) + a.lc * (-F::One());
    r.lc.Compact();
    if (a.IsStatic()) {
      r.static_value = !*a.static_value;
    }
    return r;
  }

  BV BoolAnd(const BV& a, const BV& b) {
    if (a.IsStatic()) {
      return *a.static_value ? b : BV::Constant(false);
    }
    if (b.IsStatic()) {
      return *b.static_value ? a : BV::Constant(false);
    }
    BV r;
    r.lc = builder_.Product(a.lc, b.lc);
    return r;
  }

  BV BoolOr(const BV& a, const BV& b) {
    if (a.IsStatic()) {
      return *a.static_value ? BV::Constant(true) : b;
    }
    if (b.IsStatic()) {
      return *b.static_value ? BV::Constant(true) : a;
    }
    BV r;
    LC prod = builder_.Product(a.lc, b.lc);
    r.lc = a.lc + b.lc + prod * (-F::One());
    r.lc.Compact();
    return r;
  }

  // 1 - a - b + 2ab.
  BV BoolEq(const BV& x, const BV& y) {
    if (x.IsStatic() && y.IsStatic()) {
      return BV::Constant(*x.static_value == *y.static_value);
    }
    BV r;
    LC prod = builder_.Product(x.lc, y.lc);
    r.lc = LinearCombination<F>(F::One()) + x.lc * (-F::One()) +
           y.lc * (-F::One()) + prod + prod;
    r.lc.Compact();
    return r;
  }

  // ----- muxes and runtime indexing -----

  IV MuxInt(const BV& c, const IV& a, const IV& b) {
    IV r;
    r.lc = MuxLc(c.lc, a.lc, b.lc);
    r.width = std::max(a.width, b.width);
    return r;
  }

  BV MuxBool(const BV& c, const BV& a, const BV& b) {
    BV r;
    r.lc = MuxLc(c.lc, a.lc, b.lc);
    return r;
  }

  // b + c·(a - b); free when the arms agree.
  LC MuxLc(const LC& c, const LC& a, const LC& b) {
    LC diff = a + b * (-F::One());
    diff.Compact();
    if (diff.IsConstant() && diff.constant().IsZero()) {
      return b;
    }
    LC r = b + builder_.Product(c, diff);
    r.Compact();
    return r;
  }

  BV IndexSelector(const IV& index, size_t i, size_t line = 0) {
    return IntEq(index, IV::Constant(static_cast<int64_t>(i)), line);
  }

  // result = sum_i (index == i) · elem_i, per scalar component.
  Value IndexRead(const typename Value::Array& arr, const IV& index,
                  size_t line) {
    std::vector<LC> sels;
    sels.reserve(arr.elems.size());
    for (size_t i = 0; i < arr.elems.size(); i++) {
      sels.push_back(IndexSelector(index, i, line).lc);
    }
    const Value& first = arr.elems[0];
    if (first.IsInt() || first.IsBool()) {
      LC acc;
      double width = 1;
      for (size_t i = 0; i < arr.elems.size(); i++) {
        const LC& elem_lc =
            first.IsInt() ? arr.elems[i].AsInt().lc : arr.elems[i].AsBool().lc;
        acc = acc + builder_.Product(sels[i], elem_lc);
        if (first.IsInt()) {
          width = std::max(width, arr.elems[i].AsInt().width);
        }
      }
      acc.Compact();
      if (first.IsBool()) {
        BV r;
        r.lc = acc;
        return r;
      }
      IV r;
      r.lc = acc;
      r.width = width;
      return r;
    }
    if (first.IsRational()) {
      LC num_acc, den_acc;
      double nw = 1, dw = 1;
      for (size_t i = 0; i < arr.elems.size(); i++) {
        const RV& rv = arr.elems[i].AsRational();
        num_acc = num_acc + builder_.Product(sels[i], rv.num.lc);
        den_acc = den_acc + builder_.Product(sels[i], rv.den.lc);
        nw = std::max(nw, rv.num.width);
        dw = std::max(dw, rv.den.width);
      }
      num_acc.Compact();
      den_acc.Compact();
      RV r;
      r.num.lc = num_acc;
      r.num.width = nw;
      r.den.lc = den_acc;
      r.den.width = dw;
      return r;
    }
    throw CompileError("runtime indexing of nested arrays is unsupported",
                       line, 0);
  }

  const ProgramAst* ast_;
  CircuitBuilder<F> builder_;
  std::vector<IoSlotSpec> input_slots_;
  std::vector<IoSlotSpec> output_slots_;
  std::vector<uint32_t> output_vars_;
  size_t next_output_ = 0;
};

}  // namespace zaatar

#endif  // SRC_COMPILER_EVALUATOR_H_
