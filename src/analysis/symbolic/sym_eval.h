// Program-side symbolic evaluator: walks the zlang AST over symbolic inputs
// and reduces each output slot to a SymPoly normal form when the program
// stays inside the polynomial fragment of the language.
//
// The walk itself is the compiler's (ZlangWalker, src/compiler/walker.h);
// SymEval is the value domain it drives. The fragment: field arithmetic
// (+, -, *, unary -), compile-time-static control flow and indexing,
// bounded `for` loops, inlined function calls, boolean algebra (a·b,
// a+b-ab, 1-a, 1-a-b+2ab), muxes over conditions that themselves have
// polynomial form, and exact power-of-two fixed-point rescaling. Everything
// else — bit decompositions, comparisons on runtime values, floor division,
// square roots, runtime array indexing — is not a polynomial over the
// inputs; the affected value degrades to SymPoly::Invalid() and the
// equivalence decider falls back from algebraic comparison to randomized /
// differential testing (DESIGN.md §14).
//
// `guarded` is set whenever the program can reject an input at runtime (an
// assert not identically true, or a gadget with a precondition: floor
// division, bitwise on possibly-negative values, isqrt, dynamic fixed-point
// rounding). An algebraic-equality verdict is only an unconditional
// input/output theorem when the program is unguarded; otherwise it holds on
// the accepted domain and the decider caps the verdict accordingly.
//
// Static values are this domain's own folding, with the compiler's 2^62
// clip; the walker asks it, not the compiler, where to branch. That is the
// reference the checker holds the compiler to, so it stays independent of
// the lowering, and the two arm choices can differ. The compiler also calls
// `x == y` static when the linear-combination difference is the constant 0
// (`q == q` for a mux q), which this side cannot see; this side calls it
// static when the polynomial difference is constant (`a * b == b * a`),
// where the compiler's two product variables differ. Either way the checker
// walks different arms from the ones compiled; DESIGN.md §14 lists this
// under Known limits.

#ifndef SRC_ANALYSIS_SYMBOLIC_SYM_EVAL_H_
#define SRC_ANALYSIS_SYMBOLIC_SYM_EVAL_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/symbolic/sym_poly.h"
#include "src/compiler/ast.h"
#include "src/compiler/walker.h"

namespace zaatar {

template <typename F>
struct SymEvalResult {
  // One entry per output slot, in slot order. Invalid entries mean "outside
  // the polynomial fragment"; the decider samples instead.
  std::vector<SymPoly<F>> outputs;
  bool guarded = false;
  // True when every output slot has a valid polynomial.
  bool AllValid() const {
    if (outputs.empty()) {
      return false;
    }
    for (const auto& p : outputs) {
      if (!p.valid()) {
        return false;
      }
    }
    return true;
  }
  // Degree bound over all outputs; invalid polynomials contribute the bound
  // accumulated through the operations that overflowed the term caps.
  size_t DegreeBound() const {
    size_t d = 1;
    for (const auto& p : outputs) {
      if (p.DegreeBound() > d) {
        d = p.DegreeBound();
      }
    }
    return d;
  }
};

template <typename F>
class SymEval {
 public:
  static SymEvalResult<F> Run(const ProgramAst& ast) {
    SymEval ev;
    SymEvalResult<F> result;
    try {
      ZlangWalker<SymEval>(ast, &ev).Run();
      result.outputs = std::move(ev.outputs_);
      result.guarded = ev.guarded_;
    } catch (const std::exception&) {
      // Outside what the symbolic domain models (e.g. a loop bound that is
      // not static here): degrade every output to Invalid.
      result.guarded = true;
    }
    return result;
  }

  // Evaluates the program at a concrete field point (one element per input
  // slot) by rebinding the input symbols to constants — the program side of
  // a Schwartz–Zippel sample. Inputs carry no static value, so `<`, loop
  // bounds and indices treat them as runtime values, as Run does; `==` is
  // the exception, because a constant polynomial difference counts as
  // static, so RunAt takes the arm the point selects where Run merges both.
  // Returns one value per output slot, or nullopt when some output passes
  // through a non-polynomial construct.
  static std::optional<std::vector<F>> RunAt(const ProgramAst& ast,
                                             const std::vector<F>& point) {
    SymEval ev;
    ev.point_ = &point;
    try {
      ZlangWalker<SymEval>(ast, &ev).Run();
    } catch (const std::exception&) {
      return std::nullopt;
    }
    std::vector<F> values;
    values.reserve(ev.outputs_.size());
    for (const auto& p : ev.outputs_) {
      if (!p.valid() || !p.IsConstant()) {
        return std::nullopt;
      }
      values.push_back(p.ConstantValue());
    }
    return values;
  }

 private:
  friend class ZlangWalker<SymEval>;

  struct Unsupported : std::runtime_error {
    Unsupported() : std::runtime_error("symbolic eval unsupported") {}
  };

  static constexpr int64_t kStaticClip = int64_t{1} << 62;

  struct SInt {
    SymPoly<F> poly;
    std::optional<int64_t> sv;  // this domain's static value
  };
  struct SBool {
    SymPoly<F> poly;  // 0/1-valued when valid
    std::optional<bool> sv;
  };
  struct SRat {
    SInt num;
    SInt den;
  };

  // ----- the walker's hooks -----

  using Int = SInt;
  using Bool = SBool;
  using Rat = SRat;
  using Value = ZlangValue<SInt, SBool, SRat>;

  // The compiler's bound on declared widths; declarations it rejects are
  // rejected here too.
  static constexpr double kMaxWidth = static_cast<double>(F::kModulusBits - 4);

  static void SetSourceLine(size_t) {}
  static void DeclareIo(const std::string&, const TypeNode&, bool) {}
  void BindOutput(const SInt& v) { outputs_.push_back(v.poly); }
  void BindOutput(const SBool& v) { outputs_.push_back(v.poly); }

  static std::optional<int64_t> StaticInt(const SInt& v) { return v.sv; }
  static std::optional<bool> StaticBool(const SBool& v) { return v.sv; }

  static std::optional<int64_t> ClipStatic(__int128 v) {
    if (v >= kStaticClip || v <= -kStaticClip) {
      return std::nullopt;
    }
    return static_cast<int64_t>(v);
  }
  static SymPoly<F> One() { return SymPoly<F>::Constant(F::One()); }

  static SInt IntConst(int64_t v) {
    return SInt{SymPoly<F>::Constant(F::FromInt(v)), ClipStatic(v)};
  }
  static SBool BoolConst(bool v) { return SBool{v ? One() : SymPoly<F>(), v}; }
  static SInt OpaqueInt() { return SInt{SymPoly<F>::Invalid(), std::nullopt}; }
  static SBool OpaqueBool() {
    return SBool{SymPoly<F>::Invalid(), std::nullopt};
  }

  SymPoly<F> InputSymbol() {
    uint32_t id = next_symbol_++;
    if (point_ != nullptr) {
      if (id >= point_->size()) {
        throw Unsupported();
      }
      return SymPoly<F>::Constant((*point_)[id]);
    }
    return SymPoly<F>::Symbol(id);
  }
  SInt IntInput(size_t /*width*/) { return SInt{InputSymbol(), std::nullopt}; }
  SBool BoolInput() { return SBool{InputSymbol(), std::nullopt}; }

  // assert cond; — the compiled assert can reject inputs unless the
  // condition is identically true.
  void Assert(const SBool& c) {
    if (!(c.poly.valid() && c.poly.IsConstant() &&
          c.poly.ConstantValue() == F::One())) {
      guarded_ = true;
    }
  }

  // Exact power-of-two rescale stays polynomial; every other FixRational
  // path runs a bit-decomposition or DivFloor gadget.
  SRat FixRational(const SRat& x, size_t /*width*/, size_t q, size_t) {
    SRat out;
    out.den = SInt{SymPoly<F>::Constant(F::FromInt(int64_t{1} << q)),
                   int64_t{1} << q};
    const std::optional<int64_t>& d = x.den.sv;
    if (d.has_value() && *d > 0 && (*d & (*d - 1)) == 0) {
      auto e = static_cast<size_t>(__builtin_ctzll(static_cast<uint64_t>(*d)));
      if (e <= q) {
        int64_t scale = int64_t{1} << (q - e);
        out.num.poly = x.num.poly * F::FromInt(scale);
        if (x.num.sv.has_value()) {
          out.num.sv = ClipStatic(static_cast<__int128>(*x.num.sv) * scale);
        }
        return out;
      }
      // Static down-shift uses a bit decomposition (cannot reject, but not
      // polynomial).
      out.num.poly = SymPoly<F>::Invalid();
      return out;
    }
    guarded_ = true;  // DivFloor gadget: rejects non-positive denominators
    out.num.poly = SymPoly<F>::Invalid();
    return out;
  }

  // ----- integer / boolean algebra -----

  static SInt IntAdd(const SInt& a, const SInt& b, bool subtract, size_t) {
    SInt r;
    r.poly = subtract ? a.poly - b.poly : a.poly + b.poly;
    if (a.sv.has_value() && b.sv.has_value()) {
      r.sv = ClipStatic(static_cast<__int128>(*a.sv) +
                        (subtract ? -static_cast<__int128>(*b.sv)
                                  : static_cast<__int128>(*b.sv)));
    }
    return r;
  }

  static SInt IntMul(const SInt& a, const SInt& b, size_t = 0) {
    SInt r;
    r.poly = a.poly * b.poly;
    if (a.sv.has_value() && b.sv.has_value()) {
      r.sv = ClipStatic(static_cast<__int128>(*a.sv) * *b.sv);
    }
    return r;
  }

  static SInt IntNeg(const SInt& a) {
    SInt r;
    r.poly = a.poly * (-F::One());
    if (a.sv.has_value()) {
      r.sv = -*a.sv;  // no clip, like the compiler's IntNeg
    }
    return r;
  }

  // Comparisons compile to decomposition gadgets: only the compile-time
  // static path (and the difference-is-constant == shortcut) survive
  // symbolically.
  static SBool IntLess(const SInt& a, const SInt& b, size_t) {
    if (a.sv.has_value() && b.sv.has_value()) {
      return BoolConst(*a.sv < *b.sv);
    }
    return OpaqueBool();
  }

  // Static when the polynomial difference is a constant (e.g. `x == x`),
  // else when both sides are static.
  static SBool IntEq(const SInt& a, const SInt& b, size_t) {
    SymPoly<F> diff = a.poly - b.poly;
    if (diff.valid() && diff.IsConstant()) {
      return BoolConst(diff.IsZero());
    }
    if (a.sv.has_value() && b.sv.has_value()) {
      return BoolConst(*a.sv == *b.sv);
    }
    return OpaqueBool();
  }

  // 1 - a - b + 2ab
  static SBool BoolEq(const SBool& x, const SBool& y) {
    SBool r;
    r.poly = One() - x.poly - y.poly + x.poly * y.poly * F::FromInt(2);
    if (x.sv.has_value() && y.sv.has_value()) {
      r.sv = *x.sv == *y.sv;
    }
    return r;
  }

  static SBool BoolNot(const SBool& x) {
    SBool r;
    r.poly = One() - x.poly;
    if (x.sv.has_value()) {
      r.sv = !*x.sv;
    }
    return r;
  }

  static SBool BoolAnd(const SBool& x, const SBool& y) {
    if (x.sv.has_value()) {
      return *x.sv ? y : BoolConst(false);
    }
    if (y.sv.has_value()) {
      return *y.sv ? x : BoolConst(false);
    }
    return SBool{x.poly * y.poly, std::nullopt};
  }

  static SBool BoolOr(const SBool& x, const SBool& y) {
    if (x.sv.has_value()) {
      return *x.sv ? BoolConst(true) : y;
    }
    if (y.sv.has_value()) {
      return *y.sv ? BoolConst(true) : x;
    }
    return SBool{x.poly + y.poly - x.poly * y.poly, std::nullopt};
  }

  SInt IntBitwise(TokenKind op, const SInt& x, const SInt& y, size_t) {
    if (x.sv.has_value() && y.sv.has_value() && *x.sv >= 0 && *y.sv >= 0) {
      return IntConst(op == TokenKind::kAmp    ? (*x.sv & *y.sv)
                      : op == TokenKind::kPipe ? (*x.sv | *y.sv)
                                               : (*x.sv ^ *y.sv));
    }
    guarded_ = true;  // decomposition gadgets reject negatives
    return OpaqueInt();
  }

  static SInt IntShl(const SInt& x, size_t k, size_t) {
    if (k >= 62) {
      throw Unsupported();
    }
    return IntMul(x, IntConst(int64_t{1} << k));
  }

  static SInt IntShr(const SInt& x, size_t k, size_t) {
    if (x.sv.has_value()) {
      return IntConst(*x.sv >> std::min<size_t>(k, 63));
    }
    return OpaqueInt();  // dynamic >> runs a bit decomposition
  }

  std::pair<SInt, SInt> IntDivMod(const SInt& a, const SInt& b, size_t) {
    if (a.sv.has_value() && b.sv.has_value() && *b.sv > 0) {
      int64_t q = *a.sv / *b.sv;
      if ((*a.sv % *b.sv) != 0 && *a.sv < 0) {
        q--;
      }
      return {IntConst(q), IntConst(*a.sv - q * *b.sv)};
    }
    guarded_ = true;  // DivFloor gadget precondition
    return {OpaqueInt(), OpaqueInt()};
  }

  SInt IntSqrt(const SInt& a, size_t) {
    if (a.sv.has_value() && *a.sv >= 0) {
      int64_t s = 0;
      for (int bit = 31; bit >= 0; bit--) {
        int64_t cand = s + (int64_t{1} << bit);
        if (cand <= (int64_t{1} << 31) && cand * cand <= *a.sv) {
          s = cand;
        }
      }
      return IntConst(s);
    }
    guarded_ = true;
    return OpaqueInt();
  }

  // mux(c, a, b) = b + c·(a - b); degrades to Invalid when the condition
  // has no polynomial form and the arms differ.
  static SymPoly<F> MuxPoly(const SBool& c, const SymPoly<F>& a,
                            const SymPoly<F>& b) {
    if (a.valid() && b.valid() && a == b) {
      return a;  // same either way: condition form irrelevant
    }
    return b + c.poly * (a - b);
  }
  static SInt MuxInt(const SBool& c, const SInt& a, const SInt& b) {
    return SInt{MuxPoly(c, a.poly, b.poly), std::nullopt};
  }
  static SBool MuxBool(const SBool& c, const SBool& a, const SBool& b) {
    return SBool{MuxPoly(c, a.poly, b.poly), std::nullopt};
  }

  // Runtime indexing runs IsZero selectors, outside the fragment.
  static SBool IndexSelector(const SInt&, size_t) { return OpaqueBool(); }
  static Value IndexRead(const typename Value::Array& arr, const SInt&,
                         size_t) {
    const Value& v = arr.elems[0];
    if (v.IsBool()) {
      return OpaqueBool();
    }
    if (v.IsRational()) {
      return SRat{OpaqueInt(), OpaqueInt()};
    }
    return OpaqueInt();
  }

  std::vector<SymPoly<F>> outputs_;
  uint32_t next_symbol_ = 0;
  bool guarded_ = false;
  const std::vector<F>* point_ = nullptr;  // set in RunAt mode
};

}  // namespace zaatar

#endif  // SRC_ANALYSIS_SYMBOLIC_SYM_EVAL_H_
