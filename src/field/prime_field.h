// Montgomery-form prime fields over fixed-width big integers.
//
// PrimeField<Config> implements F_p for a compile-time modulus p supplied by
// Config. Elements are stored in Montgomery form (x·R mod p, R = 2^(64·N)).
// All Montgomery constants are computed at compile time from the modulus, so
// adding a field is just declaring a Config (see src/field/fields.h).
//
// Config requirements:
//   static constexpr size_t kLimbs;                       // limb count N
//   static constexpr std::array<uint64_t, kLimbs> kModulus;  // odd prime, LE
//   static constexpr const char* kName;                   // for diagnostics

#ifndef SRC_FIELD_PRIME_FIELD_H_
#define SRC_FIELD_PRIME_FIELD_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "src/field/bigint.h"

namespace zaatar {

namespace field_internal {

// *out = a + b + carry (carry 0 or 1); returns the carry out. On x86 the
// intrinsic keeps a limb chain in adc instructions, which the __uint128_t
// form does not reliably compile to.
__attribute__((always_inline)) inline unsigned char AddCarry(
    unsigned char carry, uint64_t a, uint64_t b, uint64_t* out) {
#if defined(__x86_64__) && defined(__GNUC__)
  unsigned long long r = 0;
  carry = _addcarry_u64(carry, a, b, &r);
  *out = r;
  return carry;
#else
  __uint128_t s = static_cast<__uint128_t>(a) + b + carry;
  *out = static_cast<uint64_t>(s);
  return static_cast<unsigned char>(s >> 64);
#endif
}

// -p^{-1} mod 2^64 via Newton iteration (p odd).
constexpr uint64_t NegInvModWord(uint64_t p) {
  uint64_t x = 1;
  for (int i = 0; i < 6; i++) {
    x *= 2 - p * x;  // doubles the number of correct low bits
  }
  return ~x + 1;  // -x
}

// Runtime CPU feature probe for the tuned wide-field kernels. The build uses
// no -march flags, so mulx-emitting code paths carry function-level target
// attributes and are entered only behind this check.
inline bool HasBmi2() {
#if defined(__x86_64__) && defined(__GNUC__)
  static const bool kHas = __builtin_cpu_supports("bmi2");
  return kHas;
#else
  return false;
#endif
}

// 2^bits mod p by repeated doubling, starting from start < p.
template <size_t N>
constexpr BigInt<N> ShiftedMod(BigInt<N> start, size_t bits,
                               const BigInt<N>& p) {
  BigInt<N> r = start;
  for (size_t i = 0; i < bits; i++) {
    r = DoubleMod(r, p);
  }
  return r;
}

// p - 2, the Fermat inversion exponent (p > 2 for every Config here).
template <size_t N>
constexpr BigInt<N> MinusTwo(BigInt<N> p) {
  p.SubInPlace(BigInt<N>(uint64_t{2}));
  return p;
}

}  // namespace field_internal

template <typename Config>
class PrimeField {
 public:
  static constexpr size_t kLimbs = Config::kLimbs;
  static constexpr const char* kName = Config::kName;
  using Repr = BigInt<kLimbs>;

  static constexpr Repr kModulus = Repr(Config::kModulus);
  static constexpr size_t kModulusBits = kModulus.BitLength();
  static constexpr uint64_t kN0Inv =
      field_internal::NegInvModWord(Config::kModulus[0]);
  // R mod p and R^2 mod p, R = 2^(64N).
  static constexpr Repr kMontR =
      field_internal::ShiftedMod(Repr::One(), 64 * kLimbs, kModulus);
  static constexpr Repr kMontR2 =
      field_internal::ShiftedMod(kMontR, 64 * kLimbs, kModulus);
  // Hoisted Fermat exponent p - 2: Inverse() (and the ElGamal decryption
  // path) used to rebuild this with a SubInPlace on every call.
  static constexpr Repr kFermatExponent = field_internal::MinusTwo(kModulus);

  constexpr PrimeField() = default;

  static constexpr PrimeField Zero() { return PrimeField(); }
  static constexpr PrimeField One() { return FromMontgomery(kMontR); }

  // Builds an element from a canonical (non-Montgomery) residue < p.
  static constexpr PrimeField FromCanonical(const Repr& x) {
    PrimeField r;
    r.v_ = MontMulAuto(x, kMontR2);
    return r;
  }

  static constexpr PrimeField FromUint(uint64_t x) {
    return FromCanonical(Repr(x));
  }

  static constexpr PrimeField FromInt(int64_t x) {
    if (x >= 0) {
      return FromUint(static_cast<uint64_t>(x));
    }
    return Zero() - FromUint(static_cast<uint64_t>(-(x + 1)) + 1);
  }

  // Reduces an arbitrary little-endian limb span into the field:
  // sum_i limbs[i] * (2^64)^i mod p.
  static PrimeField FromLimbs(const uint64_t* limbs, size_t count) {
    PrimeField shift = FromCanonical(
        field_internal::ShiftedMod(Repr::One(), 64, kModulus));  // 2^64
    PrimeField acc = Zero();
    for (size_t i = count; i-- > 0;) {
      acc = acc * shift + FromUint(limbs[i]);
    }
    return acc;
  }

  // Wraps a raw Montgomery-form value (must be < p).
  static constexpr PrimeField FromMontgomery(const Repr& m) {
    PrimeField r;
    r.v_ = m;
    return r;
  }

  constexpr const Repr& Montgomery() const { return v_; }

  constexpr Repr ToCanonical() const { return MontMulAuto(v_, Repr::One()); }

  constexpr uint64_t ToUint64() const { return ToCanonical().limbs[0]; }

  constexpr bool IsZero() const { return v_.IsZero(); }
  constexpr bool IsOne() const { return v_ == kMontR; }

  constexpr bool operator==(const PrimeField& o) const { return v_ == o.v_; }
  constexpr bool operator!=(const PrimeField& o) const { return v_ != o.v_; }

  constexpr PrimeField operator+(const PrimeField& o) const {
    return FromMontgomery(AddMod(v_, o.v_, kModulus));
  }
  constexpr PrimeField operator-(const PrimeField& o) const {
    return FromMontgomery(SubMod(v_, o.v_, kModulus));
  }
  constexpr PrimeField operator-() const {
    return FromMontgomery(v_.IsZero() ? v_ : kModulus.Sub(v_));
  }
  constexpr PrimeField operator*(const PrimeField& o) const {
    return FromMontgomery(MontMulAuto(v_, o.v_));
  }
  constexpr PrimeField& operator+=(const PrimeField& o) {
    v_ = AddMod(v_, o.v_, kModulus);
    return *this;
  }
  constexpr PrimeField& operator-=(const PrimeField& o) {
    v_ = SubMod(v_, o.v_, kModulus);
    return *this;
  }
  constexpr PrimeField& operator*=(const PrimeField& o) {
    v_ = MontMulAuto(v_, o.v_);
    return *this;
  }

  constexpr PrimeField Square() const { return FromMontgomery(MontSqrAuto(v_)); }

  constexpr PrimeField Double() const {
    return FromMontgomery(DoubleMod(v_, kModulus));
  }

  // x^e for an arbitrary-width exponent: sliding-window exponentiation over
  // precomputed odd powers x^1, x^3, ..., x^(2^w - 1). Squarings stay at
  // ~|e|, but multiplies drop from ~|e|/2 (bit-at-a-time) to ~|e|/(w+1).
  template <size_t M>
  constexpr PrimeField Pow(const BigInt<M>& e) const {
    size_t top = e.BitLength();
    if (top == 0) {
      return One();
    }
    if (top <= 3) {  // tiny exponents: the table costs more than it saves
      return PowNaive(e);
    }
    const size_t w = top > 512 ? 6 : top > 128 ? 5 : top > 24 ? 4 : 2;
    // Odd powers: tbl[i] = x^(2i+1), 2^(w-1) entries (<= 32 for w = 6).
    PrimeField tbl[32];
    tbl[0] = *this;
    const PrimeField sq = Square();
    const size_t half = size_t{1} << (w - 1);
    for (size_t i = 1; i < half; i++) {
      tbl[i] = tbl[i - 1] * sq;
    }
    PrimeField r;
    bool started = false;
    size_t i = top;  // bits [0, i) of e remain to be consumed
    while (i > 0) {
      if (!e.Bit(i - 1)) {
        if (started) {
          r = r.Square();
        }
        i--;
        continue;
      }
      // Take a window [j, i) of at most w bits that starts and ends on a set
      // bit, so its value is odd and indexes the table directly.
      size_t j = i >= w ? i - w : 0;
      while (!e.Bit(j)) {
        j++;
      }
      uint64_t digit = 0;
      for (size_t k = i; k-- > j;) {
        digit = (digit << 1) | e.Bit(k);
      }
      if (started) {
        for (size_t k = 0; k < i - j; k++) {
          r = r.Square();
        }
        r = r * tbl[digit >> 1];
      } else {
        r = tbl[digit >> 1];
        started = true;
      }
      i = j;
    }
    return r;
  }

  constexpr PrimeField Pow(uint64_t e) const { return Pow(BigInt<1>(e)); }

  // The frozen pre-window reference: bit-at-a-time square-and-multiply over
  // the generic CIOS MontMul only. This is the yardstick the cross-PR
  // speedup trajectory (BENCH_multiexp.json "naive" rows) is measured
  // against, and the oracle the differential tests compare every tuned
  // exponentiation path to — do not optimize it.
  template <size_t M>
  constexpr PrimeField PowNaive(const BigInt<M>& e) const {
    PrimeField r = One();
    for (size_t i = e.BitLength(); i-- > 0;) {
      r.v_ = MontMul(r.v_, r.v_);
      if (e.Bit(i)) {
        r.v_ = MontMul(r.v_, v_);
      }
    }
    return r;
  }

  // Multiplicative inverse via Fermat: x^(p-2). Inverse of zero is zero
  // (callers that care must check; this matches the convention used by the
  // constraint gadgets, where 0^{-1} never reaches a constraint unguarded).
  constexpr PrimeField Inverse() const { return Pow(kFermatExponent); }

  constexpr PrimeField operator/(const PrimeField& o) const {
    return *this * o.Inverse();
  }

  std::string ToHexString() const { return ToCanonical().ToHex(); }

  // Montgomery product: a·b·R^{-1} mod p (CIOS).
  static constexpr Repr MontMul(const Repr& a, const Repr& b) {
    constexpr size_t N = kLimbs;
    // Accumulator of N+2 limbs.
    uint64_t t[N + 2] = {};
    for (size_t i = 0; i < N; i++) {
      // t += a[i] * b
      uint64_t carry = 0;
      for (size_t j = 0; j < N; j++) {
        __uint128_t cur =
            static_cast<__uint128_t>(a.limbs[i]) * b.limbs[j] + t[j] + carry;
        t[j] = static_cast<uint64_t>(cur);
        carry = static_cast<uint64_t>(cur >> 64);
      }
      __uint128_t cur = static_cast<__uint128_t>(t[N]) + carry;
      t[N] = static_cast<uint64_t>(cur);
      t[N + 1] = static_cast<uint64_t>(cur >> 64);

      // m = t[0] * n0inv mod 2^64; t += m*p; t >>= 64
      uint64_t m = t[0] * kN0Inv;
      __uint128_t cur2 =
          static_cast<__uint128_t>(m) * kModulus.limbs[0] + t[0];
      carry = static_cast<uint64_t>(cur2 >> 64);
      for (size_t j = 1; j < N; j++) {
        cur2 = static_cast<__uint128_t>(m) * kModulus.limbs[j] + t[j] + carry;
        t[j - 1] = static_cast<uint64_t>(cur2);
        carry = static_cast<uint64_t>(cur2 >> 64);
      }
      cur2 = static_cast<__uint128_t>(t[N]) + carry;
      t[N - 1] = static_cast<uint64_t>(cur2);
      t[N] = t[N + 1] + static_cast<uint64_t>(cur2 >> 64);
      t[N + 1] = 0;
    }
    Repr r;
    for (size_t i = 0; i < N; i++) {
      r.limbs[i] = t[i];
    }
    if (t[N] != 0 || r >= kModulus) {
      r.SubInPlace(kModulus);
    }
    return r;
  }

  // Montgomery squaring: a·a·R^{-1} mod p. The off-diagonal partial products
  // a_i·a_j (i < j) are computed once and shift-doubled instead of twice,
  // then the diagonals are added and the double-width result is reduced SOS-
  // style with a single deferred top carry (no data-dependent inner loops).
  static constexpr Repr MontSqr(const Repr& a) {
    constexpr size_t N = kLimbs;
    uint64_t t[2 * N + 1] = {};
    for (size_t i = 0; i < N; i++) {
      uint64_t ai = a.limbs[i];
      uint64_t carry = 0;
      for (size_t j = i + 1; j < N; j++) {
        __uint128_t cur =
            static_cast<__uint128_t>(ai) * a.limbs[j] + t[i + j] + carry;
        t[i + j] = static_cast<uint64_t>(cur);
        carry = static_cast<uint64_t>(cur >> 64);
      }
      t[i + N] = carry;
    }
    uint64_t top = 0;
    for (size_t k = 0; k < 2 * N; k++) {
      uint64_t nt = t[k] >> 63;
      t[k] = (t[k] << 1) | top;
      top = nt;
    }
    uint64_t c = 0;
    for (size_t i = 0; i < N; i++) {
      __uint128_t cur =
          static_cast<__uint128_t>(a.limbs[i]) * a.limbs[i] + t[2 * i] + c;
      t[2 * i] = static_cast<uint64_t>(cur);
      __uint128_t cur2 =
          static_cast<__uint128_t>(t[2 * i + 1]) + static_cast<uint64_t>(cur >> 64);
      t[2 * i + 1] = static_cast<uint64_t>(cur2);
      c = static_cast<uint64_t>(cur2 >> 64);
    }
    // Montgomery reduction of the 2N-limb square; per-row carries into the
    // upper half are deferred through `pend` so each row is one fixed pass.
    uint64_t pend = 0;
    for (size_t i = 0; i < N; i++) {
      uint64_t m = t[i] * kN0Inv;
      uint64_t cc = 0;
      for (size_t j = 0; j < N; j++) {
        __uint128_t cur =
            static_cast<__uint128_t>(m) * kModulus.limbs[j] + t[i + j] + cc;
        t[i + j] = static_cast<uint64_t>(cur);
        cc = static_cast<uint64_t>(cur >> 64);
      }
      __uint128_t s = static_cast<__uint128_t>(t[i + N]) + cc + pend;
      t[i + N] = static_cast<uint64_t>(s);
      pend = static_cast<uint64_t>(s >> 64);
    }
    t[2 * N] += pend;
    Repr r;
    for (size_t i = 0; i < N; i++) {
      r.limbs[i] = t[N + i];
    }
    if (t[2 * N] != 0 || r >= kModulus) {
      r.SubInPlace(kModulus);
    }
    return r;
  }

  // Dispatching product/square: compile-time evaluation and narrow fields use
  // the generic kernels inline; wide fields (the 1024-bit ElGamal groups)
  // take the mulx-emitting tuned kernels when the CPU has BMI2. Results are
  // bit-identical across all paths (tests/field_test.cc).
  static constexpr Repr MontMulAuto(const Repr& a, const Repr& b) {
    if constexpr (kLimbs >= 8) {
      if (!std::is_constant_evaluated() && field_internal::HasBmi2()) {
        return MontMulTuned(a, b);
      }
    }
    return MontMul(a, b);
  }

  static constexpr Repr MontSqrAuto(const Repr& a) {
    if constexpr (kLimbs >= 8) {
      if (!std::is_constant_evaluated() && field_internal::HasBmi2()) {
        return MontSqrTuned(a);
      }
    }
    return MontSqr(a);
  }

  // ---- Lazily reduced dot products ----
  //
  // An unreduced sum of full 2N-limb products of Montgomery values. Each
  // product is below p² < R², so 2N+1 limbs hold any sum of fewer than 2^64
  // of them.
  using Wide = BigInt<2 * kLimbs + 1>;

  // Σ a[i]·b[i] with one reduction for the whole sum instead of a REDC and
  // a modular add per term. Bit-identical to the `acc += a[i] * b[i]` loop
  // for every config and length (tests/field_test.cc).
  static PrimeField DotProduct(const PrimeField* a, const PrimeField* b,
                               size_t n) {
    Wide acc;
    if (field_internal::HasBmi2()) {
      DotLoopTuned(acc, a, b, n);
    } else {
      DotLoop(acc, a, b, n);
    }
    return ReduceWide(acc);
  }

  // acc[i] += a·b[i] for i < n, unreduced: DotProduct's column form, for a
  // sum of scaled vectors kept as one accumulator per position.
  static void MulAddWide(Wide* acc, const PrimeField& a, const PrimeField* b,
                         size_t n) {
    if (field_internal::HasBmi2()) {
      ColumnLoopTuned(acc, a, b, n);
    } else {
      ColumnLoop(acc, a, b, n);
    }
  }

  // The element acc·R⁻¹ mod p: the reduced sum of the products acc holds.
  // Writing acc = c·R² + hi·R + lo (c one limb, hi and lo N limbs each),
  // acc·R⁻¹ ≡ c·R + hi + lo·R⁻¹. CIOS MontMul lands a·b·R⁻¹ below p for any
  // a < R once b < p, so each term is one multiply by a constant below p.
  // A single REDC of acc would not do: its result is below acc/R + p, so
  // once the sum passes p·R (two terms on F128, 32 maximal terms on a
  // 59-bit modulus) one conditional subtraction no longer lands below p.
  static PrimeField ReduceWide(const Wide& acc) {
    constexpr size_t N = kLimbs;
    Repr lo, hi;
    for (size_t i = 0; i < N; i++) {
      lo.limbs[i] = acc.limbs[i];
      hi.limbs[i] = acc.limbs[N + i];
    }
    Repr r = MontMul(lo, Repr::One());
    r = AddMod(r, MontMul(hi, kMontR), kModulus);
    r = AddMod(r, MontMul(Repr(acc.limbs[2 * N]), kMontR2), kModulus);
    return FromMontgomery(r);
  }

  // The generic lazy loops: out = Σ a[i]·b[i], and acc[i] += a·b[i]. They
  // are always inlined, so each tuned copy below compiles the same body
  // under its own target and optimization attributes.
  __attribute__((always_inline)) static void DotLoop(Wide& out,
                                                     const PrimeField* a,
                                                     const PrimeField* b,
                                                     size_t n) {
    Wide acc;  // a local, so its limbs stay in registers across the loop
    for (size_t i = 0; i < n; i++) {
      MulAddTerm(acc, a[i].v_, b[i].v_);
    }
    out = acc;
  }
  __attribute__((always_inline)) static void ColumnLoop(Wide* acc,
                                                        const PrimeField& a,
                                                        const PrimeField* b,
                                                        size_t n) {
    const Repr x = a.v_;
    for (size_t i = 0; i < n; i++) {
      Wide w = acc[i];
      MulAddTerm(w, x, b[i].v_);
      acc[i] = w;
    }
  }

#if defined(__x86_64__) && defined(__GNUC__)
  // Fused CIOS: one pass per row with two interleaved carry chains (a_i·b and
  // m·p). At default build flags this form loses to the plain CIOS, but with
  // mulx codegen it is the fastest scalar multiply measured on this kernel
  // shape — hence the target attribute + HasBmi2 dispatch.
  __attribute__((target("bmi2"), optimize("O3"))) static Repr MontMulTuned(
      const Repr& a, const Repr& b) {
    constexpr size_t N = kLimbs;
    uint64_t t[N + 1] = {};
    for (size_t i = 0; i < N; i++) {
      uint64_t ai = a.limbs[i];
      __uint128_t x = static_cast<__uint128_t>(ai) * b.limbs[0] + t[0];
      uint64_t m = static_cast<uint64_t>(x) * kN0Inv;
      __uint128_t y = static_cast<__uint128_t>(m) * kModulus.limbs[0] +
                      static_cast<uint64_t>(x);
      uint64_t ca = static_cast<uint64_t>(x >> 64);
      uint64_t cm = static_cast<uint64_t>(y >> 64);
      for (size_t j = 1; j < N; j++) {
        x = static_cast<__uint128_t>(ai) * b.limbs[j] + t[j] + ca;
        ca = static_cast<uint64_t>(x >> 64);
        y = static_cast<__uint128_t>(m) * kModulus.limbs[j] +
            static_cast<uint64_t>(x) + cm;
        cm = static_cast<uint64_t>(y >> 64);
        t[j - 1] = static_cast<uint64_t>(y);
      }
      __uint128_t fin = static_cast<__uint128_t>(t[N]) + ca + cm;
      t[N - 1] = static_cast<uint64_t>(fin);
      t[N] = static_cast<uint64_t>(fin >> 64);
    }
    Repr r;
    for (size_t i = 0; i < N; i++) {
      r.limbs[i] = t[i];
    }
    if (t[N] != 0 || r >= kModulus) {
      r.SubInPlace(kModulus);
    }
    return r;
  }

  // MontSqr body under mulx codegen.
  __attribute__((target("bmi2"), optimize("O3"))) static Repr MontSqrTuned(
      const Repr& a) {
    constexpr size_t N = kLimbs;
    uint64_t t[2 * N + 1] = {};
    for (size_t i = 0; i < N; i++) {
      uint64_t ai = a.limbs[i];
      uint64_t carry = 0;
      for (size_t j = i + 1; j < N; j++) {
        __uint128_t cur =
            static_cast<__uint128_t>(ai) * a.limbs[j] + t[i + j] + carry;
        t[i + j] = static_cast<uint64_t>(cur);
        carry = static_cast<uint64_t>(cur >> 64);
      }
      t[i + N] = carry;
    }
    uint64_t top = 0;
    for (size_t k = 0; k < 2 * N; k++) {
      uint64_t nt = t[k] >> 63;
      t[k] = (t[k] << 1) | top;
      top = nt;
    }
    uint64_t c = 0;
    for (size_t i = 0; i < N; i++) {
      __uint128_t cur =
          static_cast<__uint128_t>(a.limbs[i]) * a.limbs[i] + t[2 * i] + c;
      t[2 * i] = static_cast<uint64_t>(cur);
      __uint128_t cur2 = static_cast<__uint128_t>(t[2 * i + 1]) +
                         static_cast<uint64_t>(cur >> 64);
      t[2 * i + 1] = static_cast<uint64_t>(cur2);
      c = static_cast<uint64_t>(cur2 >> 64);
    }
    uint64_t pend = 0;
    for (size_t i = 0; i < N; i++) {
      uint64_t m = t[i] * kN0Inv;
      uint64_t cc = 0;
      for (size_t j = 0; j < N; j++) {
        __uint128_t cur =
            static_cast<__uint128_t>(m) * kModulus.limbs[j] + t[i + j] + cc;
        t[i + j] = static_cast<uint64_t>(cur);
        cc = static_cast<uint64_t>(cur >> 64);
      }
      __uint128_t s = static_cast<__uint128_t>(t[i + N]) + cc + pend;
      t[i + N] = static_cast<uint64_t>(s);
      pend = static_cast<uint64_t>(s >> 64);
    }
    t[2 * N] += pend;
    Repr r;
    for (size_t i = 0; i < N; i++) {
      r.limbs[i] = t[N + i];
    }
    if (t[2 * N] != 0 || r >= kModulus) {
      r.SubInPlace(kModulus);
    }
    return r;
  }

  // The lazy loops under mulx codegen and O3 unrolling: 1.6-2x the
  // generic loops' throughput on F128 and F220.
  __attribute__((target("bmi2"), optimize("O3"))) static void DotLoopTuned(
      Wide& out, const PrimeField* a, const PrimeField* b, size_t n) {
    DotLoop(out, a, b, n);
  }
  __attribute__((target("bmi2"), optimize("O3"))) static void ColumnLoopTuned(
      Wide* acc, const PrimeField& a, const PrimeField* b, size_t n) {
    ColumnLoop(acc, a, b, n);
  }
#else
  static Repr MontMulTuned(const Repr& a, const Repr& b) { return MontMul(a, b); }
  static Repr MontSqrTuned(const Repr& a) { return MontSqr(a); }
  static void DotLoopTuned(Wide& out, const PrimeField* a, const PrimeField* b,
                           size_t n) {
    DotLoop(out, a, b, n);
  }
  static void ColumnLoopTuned(Wide* acc, const PrimeField& a,
                              const PrimeField* b, size_t n) {
    ColumnLoop(acc, a, b, n);
  }
#endif

 private:
  // acc += a·b: the full 2N-limb product, added without reduction. The one
  // per-term body of every lazy loop.
  __attribute__((always_inline)) static void MulAddTerm(Wide& acc,
                                                        const Repr& a,
                                                        const Repr& b) {
    constexpr size_t N = kLimbs;
    const BigInt<2 * N> p = a.MulWide(b);
    unsigned char c = 0;
    for (size_t k = 0; k < 2 * N; k++) {
      c = field_internal::AddCarry(c, acc.limbs[k], p.limbs[k], &acc.limbs[k]);
    }
    acc.limbs[2 * N] += c;
  }

  Repr v_{};  // Montgomery form
};

// In-place batch inversion (Montgomery's trick): one field inversion plus
// 3(n-1) multiplications. Zero entries are left as zero.
template <typename F>
void BatchInvert(F* elems, size_t n) {
  if (n == 0) {
    return;
  }
  std::vector<F> prefix(n);
  F acc = F::One();
  for (size_t i = 0; i < n; i++) {
    prefix[i] = acc;
    if (!elems[i].IsZero()) {
      acc *= elems[i];
    }
  }
  F inv = acc.Inverse();
  for (size_t i = n; i-- > 0;) {
    if (elems[i].IsZero()) {
      continue;
    }
    F orig = elems[i];
    elems[i] = inv * prefix[i];
    inv *= orig;
  }
}

}  // namespace zaatar

#endif  // SRC_FIELD_PRIME_FIELD_H_
