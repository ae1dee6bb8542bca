// Scalar values of the constraint domain (evaluator.h); arrays of them are
// the walker's ZlangValue (walker.h).
//
// Integers are field elements with a tracked magnitude bound: |v| < 2^width.
// Widths grow through arithmetic (add: +1 bit, mul: sum) and gate the
// comparison gadgets; exceeding the field capacity is a compile error (the
// paper's compiler has the same bounded-width model). A value known at
// compile time additionally carries `static_value`, which is what loop
// bounds and array indices require.
//
// Rationals follow Ginger's primitive floating-point representation: a pair
// (numerator, denominator) of integers with the denominator positive by
// construction (inputs are declared positive; +, -, *, and division by a
// positive constant preserve positivity). Comparisons cross-multiply.

#ifndef SRC_COMPILER_VALUES_H_
#define SRC_COMPILER_VALUES_H_

#include <cmath>
#include <cstdint>
#include <optional>

#include "src/constraints/linear_combination.h"

namespace zaatar {

template <typename F>
struct IntVal {
  LinearCombination<F> lc;
  // Magnitude bound: |value| < 2^width. A real number, so long accumulation
  // chains grow by log2(#terms), not by one bit per addition.
  double width = 1;
  std::optional<int64_t> static_value;

  static IntVal Constant(int64_t v) {
    IntVal r;
    r.lc = LinearCombination<F>(F::FromInt(v));
    uint64_t mag = v >= 0 ? static_cast<uint64_t>(v)
                          : static_cast<uint64_t>(-(v + 1)) + 1;
    size_t bits = 1;
    while ((uint64_t{1} << bits) <= mag && bits < 63) {
      bits++;
    }
    r.width = static_cast<double>(bits);
    r.static_value = v;
    return r;
  }

  bool IsStatic() const { return static_value.has_value(); }
};

template <typename F>
struct BoolVal {
  LinearCombination<F> lc;  // guaranteed 0 or 1
  std::optional<bool> static_value;

  static BoolVal Constant(bool v) {
    BoolVal r;
    r.lc = LinearCombination<F>(v ? F::One() : F::Zero());
    r.static_value = v;
    return r;
  }

  bool IsStatic() const { return static_value.has_value(); }
};

template <typename F>
struct RatVal {
  IntVal<F> num;
  IntVal<F> den;  // positive by construction
};

}  // namespace zaatar

#endif  // SRC_COMPILER_VALUES_H_
