// One walk over a zlang AST, shared by the compiler and by the symbolic
// checker that audits it (DESIGN.md §14).
//
// ZlangWalker<Domain> owns the shape of a run: the function table and
// inlining, declarations and the environment, every statement (blocks,
// assignment, `if` with one static arm or both arms merged through write
// logs, unrolled `for`, `assert`, `return`), expression dispatch, indexing
// with its bounds checks, the array value, rational arithmetic built from
// integer operations, and output collection. A Domain supplies the scalar
// values and what each operation means on them:
//
//   Evaluator<F>  (evaluator.h)          linear combinations and widths over
//                                        the CircuitBuilder: the compiler
//   SymEval<F>    (symbolic/sym_eval.h)  SymPoly normal forms: the checker
//
// Static values stay per domain. Wherever the walk branches — `if`, `?:`,
// muxes, loop bounds, indices, `const` initializers, declared widths and
// dimensions, shift amounts, `/` and `%` — the walker asks the domain
// (StaticInt, StaticBool); what it computes from the answers (loop
// counters, `/` and `%` of two static integers) goes back through the
// domain's IntConst. So each side picks arms from its own folding.
// symbolic/native_interp.h stays a separate walker on purpose: it is the
// checker's independent oracle.
//
// A Domain provides (`line` arguments are for error positions):
//
//   types Int, Bool, Rat            Rat is an aggregate {Int num; Int den;}
//   kMaxWidth                       declared widths above it are rejected
//   StaticInt(Int), StaticBool(Bool)            -> std::optional
//   IntConst(int64_t), BoolConst(bool), IntInput(width), BoolInput()
//   IntAdd(a, b, subtract, line), IntMul(a, b, line), IntNeg(a)
//   IntLess(a, b, line), IntEq(a, b, line), BoolEq(a, b)
//   BoolNot(a), BoolAnd(a, b), BoolOr(a, b)
//   IntBitwise(op, a, b, line), IntShl(a, k, line), IntShr(a, k, line)
//   IntDivMod(a, b, line) -> {q, r}, IntSqrt(a, line)
//   MuxInt(c, a, b), MuxBool(c, a, b)           c not static
//   FixRational(x, width, q, line)              assignment to rational<W, q>
//   Assert(c)                                   c not static
//   IndexSelector(index, i)                     runtime write: index == i
//   IndexRead(array, index, line)               runtime read
//   SetSourceLine(line)
//   DeclareIo(name, type, is_output)            before the value exists
//   BindOutput(Int), BindOutput(Bool)           output scalars, in order
//
// Evaluation order is the compiler's, operand by operand: the constraint
// system's variable and row order follow it.

#ifndef SRC_COMPILER_WALKER_H_
#define SRC_COMPILER_WALKER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/compiler/ast.h"
#include "src/compiler/lexer.h"

namespace zaatar {

// A zlang value: a scalar leaf of the domain, or an array of values.
template <typename Int, typename Bool, typename Rat>
struct ZlangValue {
  struct Array {
    std::vector<size_t> dims;       // outermost first
    std::vector<ZlangValue> elems;  // row-major, dims product elements
  };
  std::variant<Int, Bool, Rat, Array> v;

  ZlangValue() = default;
  ZlangValue(Int x) : v(std::move(x)) {}    // NOLINT(runtime/explicit)
  ZlangValue(Bool x) : v(std::move(x)) {}   // NOLINT(runtime/explicit)
  ZlangValue(Rat x) : v(std::move(x)) {}    // NOLINT(runtime/explicit)
  ZlangValue(Array x) : v(std::move(x)) {}  // NOLINT(runtime/explicit)

  bool IsInt() const { return std::holds_alternative<Int>(v); }
  bool IsBool() const { return std::holds_alternative<Bool>(v); }
  bool IsRational() const { return std::holds_alternative<Rat>(v); }
  bool IsArray() const { return std::holds_alternative<Array>(v); }

  const Int& AsInt() const { return std::get<Int>(v); }
  const Bool& AsBool() const { return std::get<Bool>(v); }
  const Rat& AsRational() const { return std::get<Rat>(v); }
  const Array& AsArray() const { return std::get<Array>(v); }
  Array& AsArray() { return std::get<Array>(v); }
};

template <typename D>
class ZlangWalker {
 public:
  using Int = typename D::Int;
  using Bool = typename D::Bool;
  using Rat = typename D::Rat;
  using Value = ZlangValue<Int, Bool, Rat>;
  using Array = typename Value::Array;

  ZlangWalker(const ProgramAst& ast, D* domain) : ast_(ast), d_(*domain) {}

  // Declares, runs the body, then hands every output scalar to the domain
  // in declaration order.
  void Run() {
    for (const auto& f : ast_.functions) {
      if (functions_.count(f.name) != 0) {
        throw CompileError("redefinition of function '" + f.name + "'",
                           f.line, f.column);
      }
      functions_.emplace(f.name, &f);
    }
    for (const auto& decl : ast_.decls) {
      Declare(decl);
    }
    for (const auto& s : ast_.body) {
      Exec(*s);
    }
    BindOutputs();
  }

 private:
  // ----- declarations -----

  void Declare(const Declaration& decl) {
    if (env_.count(decl.name) != 0) {
      throw CompileError("redeclaration of '" + decl.name + "'", decl.line,
                         decl.column);
    }
    if (decl.kind == Declaration::Kind::kConstant) {
      Value v = Eval(*decl.init);
      if (!StaticOperand(v).has_value()) {
        throw CompileError("'const' requires a compile-time integer",
                           decl.line, decl.column);
      }
      env_.emplace(decl.name, std::move(v));
      return;
    }

    TypeNode type = decl.type;
    if (decl.width_expr != nullptr) {
      type.width = static_cast<size_t>(StaticIntOf(*decl.width_expr));
    }
    if (decl.den_width_expr != nullptr) {
      type.den_width = static_cast<size_t>(StaticIntOf(*decl.den_width_expr));
    }
    for (const auto& e : decl.dim_exprs) {
      int64_t dim = StaticIntOf(*e);
      if (dim <= 0) {
        throw CompileError("array dimension must be positive", decl.line,
                           decl.column);
      }
      type.dims.push_back(static_cast<size_t>(dim));
    }
    if (type.width > D::kMaxWidth || type.den_width > D::kMaxWidth) {
      throw CompileError("declared width exceeds field capacity", decl.line,
                         decl.column);
    }
    if (type.kind == TypeNode::Kind::kRational &&
        type.den_width > kMaxFixedPointBits) {
      throw CompileError("rational<W, q> needs q <= 62", decl.line,
                         decl.column);
    }

    Value value;
    switch (decl.kind) {
      case Declaration::Kind::kInput:
        d_.DeclareIo(decl.name, type, /*is_output=*/false);
        value = Filled(type, [&] { return Input(type); });
        break;
      case Declaration::Kind::kOutput:
        // The domain fixes output slots now; values bind after the body.
        d_.DeclareIo(decl.name, type, /*is_output=*/true);
        outputs_.push_back({&decl, type});
        value = Default(type);
        break;
      case Declaration::Kind::kLocal:
        value = decl.init != nullptr ? Coerce(Eval(*decl.init), type, decl.line)
                                     : Default(type);
        break;
      case Declaration::Kind::kConstant:
        break;  // handled above
    }
    env_.emplace(decl.name, std::move(value));
    decl_types_.emplace(decl.name, type);
  }

  // A scalar from make(), or an array of type.ElementCount() of them.
  template <typename Make>
  static Value Filled(const TypeNode& type, Make make) {
    if (!type.IsArray()) {
      return make();
    }
    Array arr;
    arr.dims = type.dims;
    size_t count = type.ElementCount();
    arr.elems.reserve(count);
    for (size_t i = 0; i < count; i++) {
      arr.elems.push_back(make());
    }
    return Value(std::move(arr));
  }

  Value Input(const TypeNode& type) {
    switch (type.kind) {
      case TypeNode::Kind::kInt:
        return d_.IntInput(type.width);
      case TypeNode::Kind::kBool:
        return d_.BoolInput();
      case TypeNode::Kind::kRational:
        return Rat{d_.IntInput(type.width), d_.IntInput(type.den_width)};
    }
    return Value();
  }

  Value Default(const TypeNode& type) {
    Value scalar;
    switch (type.kind) {
      case TypeNode::Kind::kInt: scalar = d_.IntConst(0); break;
      case TypeNode::Kind::kBool: scalar = d_.BoolConst(false); break;
      case TypeNode::Kind::kRational: scalar = FromInt(d_.IntConst(0)); break;
    }
    return Filled(type, [&] { return scalar; });
  }

  // Type adaptation on initialization: ints promote to rationals; everything
  // else must match kinds. Declared widths bound *inputs*; computed values
  // keep their tracked widths.
  Value Coerce(Value v, const TypeNode& type, size_t line) {
    if (type.kind == TypeNode::Kind::kRational && v.IsInt()) {
      return FromInt(v.AsInt());
    }
    bool ok = (type.kind == TypeNode::Kind::kInt && v.IsInt()) ||
              (type.kind == TypeNode::Kind::kBool && v.IsBool()) ||
              (type.kind == TypeNode::Kind::kRational && v.IsRational()) ||
              v.IsArray();
    if (!ok) {
      throw CompileError("type mismatch in assignment", line, 0);
    }
    return v;
  }

  // Assignment to a variable declared rational<W, q> rounds the value to
  // denominator 2^q (D::FixRational), element-wise for whole arrays.
  Value CoerceAssign(const std::string& name, Value rhs, size_t line) {
    auto dt = decl_types_.find(name);
    if (dt == decl_types_.end() ||
        dt->second.kind != TypeNode::Kind::kRational) {
      return rhs;
    }
    const TypeNode& type = dt->second;
    auto fix = [&](const Value& v) -> Value {
      return d_.FixRational(ToRational(v, line), type.width, type.den_width,
                            line);
    };
    if (!rhs.IsArray()) {
      return fix(rhs);
    }
    Array arr = rhs.AsArray();
    for (auto& elem : arr.elems) {
      elem = fix(elem);
    }
    return Value(std::move(arr));
  }

  // ----- statements -----

  void Exec(const Stmt& s) {
    d_.SetSourceLine(s.line);
    switch (s.kind) {
      case Stmt::Kind::kBlock:
        ExecAll(s.body);
        break;
      case Stmt::Kind::kAssign:
        ExecAssign(s);
        break;
      case Stmt::Kind::kIf:
        ExecIf(s);
        break;
      case Stmt::Kind::kFor:
        ExecFor(s);
        break;
      case Stmt::Kind::kAssert:
        ExecAssert(s);
        break;
      case Stmt::Kind::kVarDecl:
        // Statement-level `var`: redeclaration re-initializes (the same
        // statement executes repeatedly in unrolled loops and inlined
        // functions).
        env_.erase(s.decl->name);
        decl_types_.erase(s.decl->name);
        Declare(*s.decl);
        RecordWrite(s.decl->name);
        break;
      case Stmt::Kind::kReturn:
        if (call_depth_ == 0) {
          throw CompileError("'return' outside a function", s.line, s.column);
        }
        return_value_ = Eval(*s.value);
        break;
    }
  }

  void ExecAll(const std::vector<StmtPtr>& body) {
    for (const auto& child : body) {
      Exec(*child);
    }
  }

  // assert cond; — statically false is a compile error, statically true
  // costs nothing, anything else goes to the domain.
  void ExecAssert(const Stmt& s) {
    Value cond = Eval(*s.value);
    if (!cond.IsBool()) {
      throw CompileError("assert requires a bool expression", s.line,
                         s.column);
    }
    if (auto known = d_.StaticBool(cond.AsBool())) {
      if (!*known) {
        throw CompileError("assertion is statically false", s.line, s.column);
      }
      return;
    }
    d_.Assert(cond.AsBool());
  }

  void ExecAssign(const Stmt& s) {
    if (env_.find(s.name) == env_.end()) {
      throw CompileError("assignment to undeclared '" + s.name + "'", s.line,
                         s.column);
    }
    RecordWrite(s.name);
    Value rhs = CoerceAssign(s.name, Eval(*s.value), s.line);
    // Look the target up only now: evaluating the RHS may inline a call,
    // which swaps env_ wholesale.
    auto it = env_.find(s.name);
    if (it == env_.end()) {
      throw CompileError("assignment target vanished (internal)", s.line,
                         s.column);
    }
    if (s.indices.empty()) {
      it->second = std::move(rhs);
      return;
    }
    auto [arr, index] =
        Locate(s.name, s.indices, 0, s.line, s.column, s.column);
    if (auto off = d_.StaticInt(index)) {
      arr->elems[CheckedOffset(*off, *arr, s.line, s.column)] = std::move(rhs);
      return;
    }
    // Runtime index: mux every slot on its selector.
    for (size_t i = 0; i < arr->elems.size(); i++) {
      arr->elems[i] =
          Mux(d_.IndexSelector(index, i), rhs, arr->elems[i], s.line);
    }
  }

  void ExecIf(const Stmt& s) {
    Value cond = Eval(*s.value);
    if (!cond.IsBool()) {
      throw CompileError("if condition must be bool", s.line, s.column);
    }
    const Bool& c = cond.AsBool();
    if (auto known = d_.StaticBool(c)) {
      ExecAll(*known ? s.body : s.else_body);
      return;
    }
    // Runtime condition: run both arms against copies, then merge writes.
    std::map<std::string, Value> before = env_;
    std::set<std::string> then_writes = LoggedWrites(s.body);
    std::map<std::string, Value> then_env = std::move(env_);
    env_ = std::move(before);
    std::set<std::string> written = LoggedWrites(s.else_body);
    written.insert(then_writes.begin(), then_writes.end());
    for (const auto& name : written) {
      RecordWrite(name);
      env_[name] = Mux(c, then_env.at(name), env_.at(name), s.line);
    }
  }

  std::set<std::string> LoggedWrites(const std::vector<StmtPtr>& arm) {
    write_logs_.emplace_back();
    ExecAll(arm);
    std::set<std::string> writes = std::move(write_logs_.back());
    write_logs_.pop_back();
    return writes;
  }

  void ExecFor(const Stmt& s) {
    int64_t lo = StaticIntOf(*s.lo);
    int64_t hi = StaticIntOf(*s.hi);
    auto shadowed = env_.find(s.name);
    std::optional<Value> shadow;
    if (shadowed != env_.end()) {
      shadow = shadowed->second;
    }
    for (int64_t k = lo; k <= hi; k++) {
      env_[s.name] = d_.IntConst(k);
      ExecAll(s.body);
    }
    if (shadow.has_value()) {
      env_[s.name] = std::move(*shadow);
    } else {
      env_.erase(s.name);
    }
  }

  void RecordWrite(const std::string& name) {
    for (auto& log : write_logs_) {
      log.insert(name);
    }
  }

  // ----- expressions -----

  Value Eval(const Expr& e) {
    if (e.line != 0) {
      d_.SetSourceLine(e.line);
    }
    switch (e.kind) {
      case Expr::Kind::kIntLit:
        return d_.IntConst(e.int_value);
      case Expr::Kind::kBoolLit:
        return d_.BoolConst(e.int_value != 0);
      case Expr::Kind::kVarRef: {
        auto it = env_.find(e.name);
        if (it == env_.end()) {
          throw CompileError("undeclared identifier '" + e.name + "'", e.line,
                             e.column);
        }
        return it->second;
      }
      case Expr::Kind::kIndex:
        return EvalIndex(e);
      case Expr::Kind::kBinary:
        return EvalBinary(e);
      case Expr::Kind::kUnary:
        return EvalUnary(e);
      case Expr::Kind::kTernary: {
        Value cond = Eval(*e.children[0]);
        if (!cond.IsBool()) {
          throw CompileError("ternary condition must be bool", e.line,
                             e.column);
        }
        if (auto known = d_.StaticBool(cond.AsBool())) {
          return Eval(*known ? *e.children[1] : *e.children[2]);
        }
        Value a = Eval(*e.children[1]);
        Value b = Eval(*e.children[2]);
        return Mux(cond.AsBool(), a, b, e.line);
      }
      case Expr::Kind::kCall:
        return EvalCall(e);
    }
    throw CompileError("internal: unknown expression kind", e.line, e.column);
  }

  int64_t StaticIntOf(const Expr& e) {
    std::optional<int64_t> known = StaticOperand(Eval(e));
    if (!known.has_value()) {
      throw CompileError("expression must be a compile-time integer", e.line,
                         e.column);
    }
    return *known;
  }

  Value EvalCall(const Expr& e) {
    auto arity = [&](size_t n, const char* what) {
      if (e.children.size() != n) {
        throw CompileError(e.name + what, e.line, e.column);
      }
    };
    auto arg = [&](size_t i) { return Eval(*e.children[i]); };
    if (e.name == "min" || e.name == "max") {
      arity(2, " takes two arguments");
      Value a = arg(0), b = arg(1);
      Bool a_less = Less(a, b, e.line);
      return e.name == "min" ? Mux(a_less, a, b, e.line)
                             : Mux(a_less, b, a, e.line);
    }
    if (e.name == "abs") {
      arity(1, " takes one argument");
      Value a = arg(0);
      Value neg = Negate(a, e.line);
      Bool is_neg = Less(a, d_.IntConst(0), e.line);
      return Mux(is_neg, neg, a, e.line);
    }
    if (e.name == "idiv" || e.name == "imod") {
      arity(2, " takes two arguments");
      Value a = arg(0), b = arg(1);
      if (!a.IsInt() || !b.IsInt()) {
        throw CompileError(e.name + " requires integer arguments", e.line,
                           e.column);
      }
      auto [q, r] = d_.IntDivMod(a.AsInt(), b.AsInt(), e.line);
      return e.name == "idiv" ? q : r;
    }
    if (e.name == "isqrt") {
      arity(1, " takes one argument");
      Value a = arg(0);
      if (!a.IsInt()) {
        throw CompileError("isqrt requires an integer argument", e.line,
                           e.column);
      }
      return d_.IntSqrt(a.AsInt(), e.line);
    }
    auto fn = functions_.find(e.name);
    if (fn != functions_.end()) {
      return CallFunction(*fn->second, e);
    }
    throw CompileError("unknown function '" + e.name + "'", e.line, e.column);
  }

  // Inlines a user function: arguments bind into a saved-and-restored copy
  // of the environment, so writes inside the function stay local.
  Value CallFunction(const FunctionDecl& f, const Expr& call) {
    if (call.children.size() != f.params.size()) {
      throw CompileError("function '" + f.name + "' expects " +
                             std::to_string(f.params.size()) + " arguments",
                         call.line, call.column);
    }
    if (call_depth_ >= kMaxCallDepth) {
      throw CompileError("call depth limit exceeded (recursion?)", call.line,
                         call.column);
    }
    std::vector<Value> args;
    args.reserve(f.params.size());
    for (const auto& child : call.children) {
      args.push_back(Eval(*child));
    }
    std::map<std::string, Value> saved_env = env_;
    auto saved_decl_types = decl_types_;
    for (size_t i = 0; i < f.params.size(); i++) {
      const auto& p = f.params[i];
      Value& v = args[i];
      if (p.type.kind == TypeNode::Kind::kRational && v.IsInt()) {
        v = FromInt(v.AsInt());
      }
      env_[p.name] = std::move(v);
      decl_types_.erase(p.name);  // param widths are advisory, not rounding
    }
    call_depth_++;
    return_value_.reset();
    ExecAll(f.body);
    call_depth_--;
    if (!return_value_.has_value()) {
      throw CompileError("function '" + f.name + "' did not return",
                         call.line, call.column);
    }
    Value result = std::move(*return_value_);
    return_value_.reset();
    env_ = std::move(saved_env);
    decl_types_ = std::move(saved_decl_types);
    return result;
  }

  Value EvalIndex(const Expr& e) {
    auto [arr, index] =
        Locate(e.children[0]->name, e.children, 1, e.line, e.column, 0);
    if (auto off = d_.StaticInt(index)) {
      return arr->elems[CheckedOffset(*off, *arr, e.line, e.column)];
    }
    return d_.IndexRead(*arr, index, e.line);
  }

  // The array `name` and the row-major offset of indices[first..] into it.
  // The array is looked up again after the indices are evaluated: an index
  // may inline a call, which swaps env_ wholesale.
  std::pair<Array*, Int> Locate(const std::string& name,
                                const std::vector<ExprPtr>& indices,
                                size_t first, size_t line, size_t column,
                                size_t index_column) {
    auto it = env_.find(name);
    if (it == env_.end() || !it->second.IsArray()) {
      throw CompileError("'" + name + "' is not an array", line, column);
    }
    std::vector<size_t> dims = it->second.AsArray().dims;
    if (indices.size() - first != dims.size()) {
      throw CompileError("wrong number of indices", line, column);
    }
    Int idx = d_.IntConst(0);
    for (size_t k = 0; k < dims.size(); k++) {
      Value v = Eval(*indices[first + k]);
      if (!v.IsInt()) {
        throw CompileError("array index must be an integer", line,
                           index_column);
      }
      idx = d_.IntMul(idx, d_.IntConst(static_cast<int64_t>(dims[k])), line);
      idx = d_.IntAdd(idx, v.AsInt(), /*subtract=*/false, line);
    }
    return {&env_.at(name).AsArray(), std::move(idx)};
  }

  static size_t CheckedOffset(int64_t off, const Array& arr, size_t line,
                              size_t column) {
    if (off < 0 || static_cast<size_t>(off) >= arr.elems.size()) {
      throw CompileError("array index out of bounds", line, column);
    }
    return static_cast<size_t>(off);
  }

  Value EvalBinary(const Expr& e) {
    // Short-circuitable bool ops still evaluate both sides (no side effects
    // in expressions), so plain dispatch is fine.
    Value a = Eval(*e.children[0]);
    Value b = Eval(*e.children[1]);
    size_t line = e.line;
    switch (e.op) {
      case TokenKind::kPlus:
      case TokenKind::kMinus: {
        bool sub = e.op == TokenKind::kMinus;
        if (a.IsInt() && b.IsInt()) {
          return d_.IntAdd(a.AsInt(), b.AsInt(), sub, line);
        }
        return RatAdd(ToRational(a, line), ToRational(b, line), sub, line);
      }
      case TokenKind::kStar: {
        if (a.IsInt() && b.IsInt()) {
          return d_.IntMul(a.AsInt(), b.AsInt(), line);
        }
        Rat x = ToRational(a, line), y = ToRational(b, line);
        Int num = d_.IntMul(x.num, y.num, line);
        Int den = d_.IntMul(x.den, y.den, line);
        return Rat{std::move(num), std::move(den)};
      }
      case TokenKind::kSlash:
        return Divide(a, b, e);
      case TokenKind::kPercent: {
        auto x = StaticOperand(a), y = StaticOperand(b);
        if (!x.has_value() || !y.has_value()) {
          throw CompileError("'%' requires compile-time integers", line,
                             e.column);
        }
        if (*y == 0) {
          throw CompileError("division by zero", line, e.column);
        }
        return d_.IntConst(*x % *y);
      }
      case TokenKind::kLess:
        return Less(a, b, line);
      case TokenKind::kGreater:
        return Less(b, a, line);
      case TokenKind::kLessEq:
        return d_.BoolNot(Less(b, a, line));
      case TokenKind::kGreaterEq:
        return d_.BoolNot(Less(a, b, line));
      case TokenKind::kEqEq:
        return Equal(a, b, line);
      case TokenKind::kNotEq:
        return d_.BoolNot(Equal(a, b, line));
      case TokenKind::kAndAnd:
      case TokenKind::kOrOr:
        if (!a.IsBool() || !b.IsBool()) {
          throw CompileError("logical operator requires bool operands", line,
                             e.column);
        }
        return e.op == TokenKind::kAndAnd
                   ? d_.BoolAnd(a.AsBool(), b.AsBool())
                   : d_.BoolOr(a.AsBool(), b.AsBool());
      case TokenKind::kAmp:
      case TokenKind::kPipe:
      case TokenKind::kCaret:
        if (!a.IsInt() || !b.IsInt()) {
          throw CompileError("bitwise operator requires integers", line,
                             e.column);
        }
        return d_.IntBitwise(e.op, a.AsInt(), b.AsInt(), line);
      case TokenKind::kShl:
      case TokenKind::kShr: {
        auto k = StaticOperand(b);
        if (!a.IsInt() || !k.has_value() || *k < 0) {
          throw CompileError(
              "shift amount must be a nonnegative compile-time integer", line,
              e.column);
        }
        size_t bits = static_cast<size_t>(*k);
        return e.op == TokenKind::kShl ? d_.IntShl(a.AsInt(), bits, line)
                                       : d_.IntShr(a.AsInt(), bits, line);
      }
      default:
        throw CompileError("internal: unknown binary operator", line,
                           e.column);
    }
  }

  // The domain's static value of an integer, if it has one.
  std::optional<int64_t> StaticOperand(const Value& v) {
    return v.IsInt() ? d_.StaticInt(v.AsInt()) : std::nullopt;
  }

  // Integer division is compile-time only; a rational divides by a positive
  // compile-time integer, which scales its denominator.
  Value Divide(const Value& a, const Value& b, const Expr& e) {
    auto x = StaticOperand(a), k = StaticOperand(b);
    if (x.has_value() && k.has_value()) {
      if (*k == 0) {
        throw CompileError("division by zero", e.line, e.column);
      }
      return d_.IntConst(*x / *k);
    }
    if (k.has_value()) {
      if (*k <= 0) {
        throw CompileError("rational division requires a positive constant",
                           e.line, e.column);
      }
      Rat r = ToRational(a, e.line);
      r.den = d_.IntMul(r.den, d_.IntConst(*k), e.line);
      return r;
    }
    throw CompileError(
        "unsupported division (only by compile-time constants)", e.line,
        e.column);
  }

  Value EvalUnary(const Expr& e) {
    Value a = Eval(*e.children[0]);
    if (e.op == TokenKind::kMinus) {
      return Negate(a, e.line);
    }
    if (e.op == TokenKind::kNot) {
      if (!a.IsBool()) {
        throw CompileError("'!' requires a bool", e.line, e.column);
      }
      return d_.BoolNot(a.AsBool());
    }
    throw CompileError("internal: unknown unary operator", e.line, e.column);
  }

  // ----- generic operations over values -----

  Rat FromInt(const Int& v) { return Rat{v, d_.IntConst(1)}; }

  Rat ToRational(const Value& v, size_t line) {
    if (v.IsRational()) {
      return v.AsRational();
    }
    if (v.IsInt()) {
      return FromInt(v.AsInt());
    }
    throw CompileError("expected a numeric value", line, 0);
  }

  Rat RatAdd(const Rat& a, const Rat& b, bool subtract, size_t line) {
    Int n1d2 = d_.IntMul(a.num, b.den, line);
    Int n2d1 = d_.IntMul(b.num, a.den, line);
    Int num = d_.IntAdd(n1d2, n2d1, subtract, line);
    Int den = d_.IntMul(a.den, b.den, line);
    return Rat{std::move(num), std::move(den)};
  }

  // Rationals compare by cross-multiplying (denominators are positive):
  // returns {n1·d2, n2·d1}. n2·d1 is emitted first: with runtime
  // denominators both are product variables, and their order is the
  // compiled program's (CompiledOutputTest.RuntimeRationalsAndIndices).
  std::pair<Int, Int> CrossProducts(const Value& a, const Value& b,
                                    size_t line) {
    Rat x = ToRational(a, line), y = ToRational(b, line);
    Int rhs = d_.IntMul(y.num, x.den, line);
    Int lhs = d_.IntMul(x.num, y.den, line);
    return {std::move(lhs), std::move(rhs)};
  }

  Bool Less(const Value& a, const Value& b, size_t line) {
    if (a.IsInt() && b.IsInt()) {
      return d_.IntLess(a.AsInt(), b.AsInt(), line);
    }
    auto [lhs, rhs] = CrossProducts(a, b, line);
    return d_.IntLess(lhs, rhs, line);
  }

  Bool Equal(const Value& a, const Value& b, size_t line) {
    if (a.IsBool() && b.IsBool()) {
      return d_.BoolEq(a.AsBool(), b.AsBool());
    }
    if (a.IsInt() && b.IsInt()) {
      return d_.IntEq(a.AsInt(), b.AsInt(), line);
    }
    auto [lhs, rhs] = CrossProducts(a, b, line);
    return d_.IntEq(lhs, rhs, line);
  }

  Value Negate(const Value& a, size_t line) {
    if (a.IsInt()) {
      return d_.IntNeg(a.AsInt());
    }
    if (a.IsRational()) {
      Rat r = a.AsRational();
      r.num = d_.IntNeg(r.num);
      return r;
    }
    throw CompileError("cannot negate this type", line, 0);
  }

  // c ? a : b, element-wise over arrays.
  Value Mux(const Bool& c, const Value& a, const Value& b, size_t line) {
    if (auto known = d_.StaticBool(c)) {
      return *known ? a : b;
    }
    if (a.IsArray() || b.IsArray()) {
      if (!a.IsArray() || !b.IsArray() ||
          a.AsArray().dims != b.AsArray().dims) {
        throw CompileError("mux over mismatched arrays", line, 0);
      }
      Array out;
      out.dims = a.AsArray().dims;
      out.elems.reserve(a.AsArray().elems.size());
      for (size_t i = 0; i < a.AsArray().elems.size(); i++) {
        out.elems.push_back(
            Mux(c, a.AsArray().elems[i], b.AsArray().elems[i], line));
      }
      return Value(std::move(out));
    }
    if (a.IsBool() && b.IsBool()) {
      return d_.MuxBool(c, a.AsBool(), b.AsBool());
    }
    if (a.IsInt() && b.IsInt()) {
      return d_.MuxInt(c, a.AsInt(), b.AsInt());
    }
    if ((a.IsRational() || a.IsInt()) && (b.IsRational() || b.IsInt())) {
      Rat x = ToRational(a, line), y = ToRational(b, line);
      Int num = d_.MuxInt(c, x.num, y.num);
      Int den = d_.MuxInt(c, x.den, y.den);
      return Rat{std::move(num), std::move(den)};
    }
    throw CompileError("mux over mismatched types", line, 0);
  }

  // ----- outputs -----

  struct Output {
    const Declaration* decl;
    TypeNode type;
  };

  // Every output's scalars (a rational gives num then den), checked against
  // the declared type and shape, then bound in declaration order.
  void BindOutputs() {
    for (const auto& out : outputs_) {
      std::vector<Value> scalars;
      CollectScalars(env_.at(out.decl->name), out.type, out.decl->line,
                     &scalars);
      size_t expected = out.type.ElementCount() *
                        (out.type.kind == TypeNode::Kind::kRational ? 2 : 1);
      if (scalars.size() != expected) {
        throw CompileError(
            "output '" + out.decl->name + "' shape mismatch", out.decl->line,
            out.decl->column);
      }
      for (const auto& s : scalars) {
        if (s.IsInt()) {
          d_.BindOutput(s.AsInt());
        } else {
          d_.BindOutput(s.AsBool());
        }
      }
    }
  }

  void CollectScalars(const Value& v, const TypeNode& type, size_t line,
                      std::vector<Value>* out) {
    if (v.IsArray()) {
      for (const auto& elem : v.AsArray().elems) {
        CollectScalars(elem, type, line, out);
      }
      return;
    }
    switch (type.kind) {
      case TypeNode::Kind::kInt:
        if (!v.IsInt()) {
          throw CompileError("output type mismatch (expected int)", line, 0);
        }
        out->push_back(v);
        break;
      case TypeNode::Kind::kBool:
        if (!v.IsBool()) {
          throw CompileError("output type mismatch (expected bool)", line, 0);
        }
        out->push_back(v);
        break;
      case TypeNode::Kind::kRational: {
        Rat r = ToRational(v, line);
        out->push_back(r.num);
        out->push_back(r.den);
        break;
      }
    }
  }

  static constexpr size_t kMaxCallDepth = 64;
  // A rational<W, q> variable's denominator is the constant 2^q, which must
  // stay a static int64_t under the 2^62 clip.
  static constexpr size_t kMaxFixedPointBits = 62;

  const ProgramAst& ast_;
  D& d_;
  std::map<std::string, Value> env_;
  std::map<std::string, TypeNode> decl_types_;
  std::map<std::string, const FunctionDecl*> functions_;
  std::vector<Output> outputs_;
  std::vector<std::set<std::string>> write_logs_;
  std::optional<Value> return_value_;
  size_t call_depth_ = 0;
};

}  // namespace zaatar

#endif  // SRC_COMPILER_WALKER_H_
