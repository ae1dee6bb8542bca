// Number-theoretic transforms over 62-bit primes with runtime Montgomery
// arithmetic. These are the workhorse of the residue products
// (src/poly/residue.h) that shift the QAP prover's values over the big
// verified-computation fields — the "operations based on the FFT" of the
// paper's Appendix A.3.
//
// The primes are of the form k·2^42 + 1 (2-adicity 42), generated offline
// with hard-coded 2^42-th roots of unity; tests verify both properties.

#ifndef SRC_POLY_NTT_H_
#define SRC_POLY_NTT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace zaatar {

// Single-word Montgomery arithmetic with a runtime modulus (odd, < 2^63).
class MontField64 {
 public:
  constexpr explicit MontField64(uint64_t p) : p_(p) {
    uint64_t x = 1;
    for (int i = 0; i < 6; i++) {
      x *= 2 - p * x;
    }
    n0inv_ = ~x + 1;
    // r = 2^64 mod p, r2 = 2^128 mod p by doubling.
    uint64_t r = 1 % p;
    for (int i = 0; i < 64; i++) {
      r = AddRaw(r, r);
    }
    r_ = r;
    uint64_t r2 = r;
    for (int i = 0; i < 64; i++) {
      r2 = AddRaw(r2, r2);
    }
    r2_ = r2;
  }

  constexpr uint64_t modulus() const { return p_; }
  constexpr uint64_t One() const { return r_; }

  constexpr uint64_t ToMont(uint64_t x) const { return Mul(x, r2_); }
  constexpr uint64_t FromMont(uint64_t x) const { return Reduce(x); }

  constexpr uint64_t Add(uint64_t a, uint64_t b) const { return AddRaw(a, b); }
  constexpr uint64_t Sub(uint64_t a, uint64_t b) const {
    return a >= b ? a - b : a + p_ - b;
  }

  // Montgomery product a·b·2^{-64} mod p.
  constexpr uint64_t Mul(uint64_t a, uint64_t b) const {
    __uint128_t t = static_cast<__uint128_t>(a) * b;
    uint64_t m = static_cast<uint64_t>(t) * n0inv_;
    __uint128_t u = (t + static_cast<__uint128_t>(m) * p_) >> 64;
    uint64_t r = static_cast<uint64_t>(u);
    return r >= p_ ? r - p_ : r;
  }

  constexpr uint64_t Pow(uint64_t base_mont, uint64_t e) const {
    uint64_t r = r_;
    uint64_t b = base_mont;
    while (e != 0) {
      if (e & 1) {
        r = Mul(r, b);
      }
      b = Mul(b, b);
      e >>= 1;
    }
    return r;
  }

  constexpr uint64_t Inverse(uint64_t x_mont) const {
    return Pow(x_mont, p_ - 2);
  }

 private:
  constexpr uint64_t AddRaw(uint64_t a, uint64_t b) const {
    uint64_t s = a + b;  // p < 2^63 so no word overflow
    return s >= p_ ? s - p_ : s;
  }
  constexpr uint64_t Reduce(uint64_t a) const {
    uint64_t m = a * n0inv_;
    __uint128_t u = (static_cast<__uint128_t>(a) +
                     static_cast<__uint128_t>(m) * p_) >>
                    64;
    uint64_t r = static_cast<uint64_t>(u);
    return r >= p_ ? r - p_ : r;
  }

  uint64_t p_;
  uint64_t n0inv_ = 0;
  uint64_t r_ = 0;
  uint64_t r2_ = 0;
};

// CRT basis: primes k·2^42 + 1 just above 2^62, with generators of the 2^42
// subgroup. Up to 8 primes cover coefficient magnitudes beyond
// 2·220 + log2(n) bits, enough for F220 products of length 2^42.
inline constexpr size_t kNumNttPrimes = 8;
inline constexpr std::array<uint64_t, kNumNttPrimes> kNttPrimes = {
    0x4000380000000001ULL, 0x4000980000000001ULL, 0x4000d80000000001ULL,
    0x4001280000000001ULL, 0x4001440000000001ULL, 0x4001700000000001ULL,
    0x4001b00000000001ULL, 0x4001c40000000001ULL};
// 2^42-th roots of unity for each prime (standard representation).
inline constexpr std::array<uint64_t, kNumNttPrimes> kNttRoots = {
    0x0b9d71e0d419973aULL, 0x2995b1e066b9c59aULL, 0x019d0f85d56e5e4fULL,
    0x2fa3bf8fdd000cc9ULL, 0x024e4706f0564548ULL, 0x33ca6cb3b983405eULL,
    0x3b8486e31d59ca76ULL, 0x333bd2cf1e0af47aULL};
inline constexpr size_t kNttTwoAdicity = 42;

// A transform plan for one prime at one power-of-two size: cached twiddles.
class NttPlan {
 public:
  NttPlan(size_t prime_index, size_t log_n);

  size_t size() const { return size_t{1} << log_n_; }
  const MontField64& field() const { return field_; }

  // In-place forward/inverse transform of `data` (Montgomery form), length
  // size(). Inverse includes the 1/n scaling.
  void Forward(uint64_t* data) const;
  void Inverse(uint64_t* data) const;

 private:
  void Transform(uint64_t* data, const std::vector<uint64_t>& twiddles) const;

  MontField64 field_;
  size_t log_n_;
  std::vector<uint64_t> fwd_twiddles_;  // bit-reversed order per stage
  std::vector<uint64_t> inv_twiddles_;
  uint64_t n_inv_mont_;
};

// Cached plan lookup (plans are immutable once built).
const NttPlan& GetNttPlan(size_t prime_index, size_t log_n);

// Sizes at or above 2^kNttFourStepMinLogN switch from the cached radix-2
// plans (whose 2n-entry twiddle tables overflow L2 there) to a four-step
// n1×n2 decomposition: blocked transpose, row transforms through the small
// cached plans, an on-the-fly twiddle pass, and transposes back to natural
// order. Output ordering is identical to the radix-2 path, so images
// produced at different times by either path stay pointwise-compatible.
inline constexpr size_t kNttFourStepMinLogN = 15;

// In-place transforms of 2^log_n Montgomery-form words, natural order in and
// out, dispatching on size as above. Inverse includes the 1/n scaling.
void NttForward(size_t prime_index, uint64_t* data, size_t log_n);
void NttInverse(size_t prime_index, uint64_t* data, size_t log_n);

// The four-step path directly, any size with log_n >= 2 (exposed so tests
// can cross-check it against the radix-2 plans below the dispatch
// threshold).
void NttForwardFourStep(size_t prime_index, uint64_t* data, size_t log_n);
void NttInverseFourStep(size_t prime_index, uint64_t* data, size_t log_n);

// Out-of-place cache-blocked matrix transpose of rows×cols 64-bit words:
// dst[c·rows + r] = src[r·cols + c], tiled so both sides stay in L1.
void TransposeBlocked(const uint64_t* src, uint64_t* dst, size_t rows,
                      size_t cols);

}  // namespace zaatar

#endif  // SRC_POLY_NTT_H_
