// Seeded pseudorandom generator producing words, bounded integers, and
// uniform field elements (rejection sampling), backed by ChaCha20.
//
// The stream is the ChaCha20 keystream under the (expanded) key at nonce 0
// from block counter 0, read as little-endian 64-bit words and refilled 16
// blocks at a time. Every draw consumes whole words, so the words do not
// depend on the refill size.
//
// The verifier's PCP queries, its ElGamal key, r, the alphas and the
// encryption nonces all come from one Prg in this order (MeasureBatch's
// `Prg prg(seed)`, and the daemon's per-Ψ material). That stream must stay
// secret: whoever knows its key can replay it past the queries and read r.

#ifndef SRC_CRYPTO_PRG_H_
#define SRC_CRYPTO_PRG_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/crypto/chacha.h"
#include "src/field/bigint.h"

namespace zaatar {

class Prg {
 public:
  // Expands a 64-bit convenience seed into a full 256-bit ChaCha key using
  // four rounds of splitmix64. Copying the raw seed into the low 8 bytes
  // (the previous behavior) left 24 of the 32 key bytes zero, so the entire
  // keyspace reachable from this constructor was 2^64 keys that all shared a
  // 192-bit all-zero suffix — trivially distinguishable, and adjacent seeds
  // produced nearly identical key schedules. splitmix64's finalizer
  // decorrelates the four words from each other and from the seed.
  static std::array<uint8_t, ChaCha20::kKeyBytes> ExpandSeed(uint64_t seed) {
    std::array<uint8_t, ChaCha20::kKeyBytes> key{};
    uint64_t state = seed;
    for (size_t i = 0; i < ChaCha20::kKeyBytes / 8; i++) {
      state += 0x9e3779b97f4a7c15ULL;
      uint64_t z = state;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      z ^= z >> 31;
      std::memcpy(key.data() + i * 8, &z, 8);
    }
    return key;
  }

  explicit Prg(uint64_t seed) : Prg(ExpandSeed(seed)) {}

  explicit Prg(const std::array<uint8_t, ChaCha20::kKeyBytes>& key)
      : cipher_(key, /*nonce=*/{}, /*initial_counter=*/0) {}

  uint64_t NextU64() {
    if (pos_ + 8 > buf_.size()) {
      Refill();
    }
    uint64_t v;
    std::memcpy(&v, &buf_[pos_], 8);
    pos_ += 8;
    return v;
  }

  // Uniform in [0, bound); bound > 0. Rejection sampling, no modulo bias.
  uint64_t NextBounded(uint64_t bound) {
    if (bound <= 1) {
      return 0;
    }
    uint64_t mask = ~uint64_t{0} >> __builtin_clzll((bound - 1) | 1);
    for (;;) {
      uint64_t v = NextU64() & mask;
      if (v < bound) {
        return v;
      }
    }
  }

  bool NextBool() { return (NextU64() & 1) != 0; }

  // Uniform field element (rejection sampling against the modulus).
  template <typename F>
  F NextField() {
    using Repr = typename F::Repr;
    constexpr size_t kTopBits = F::kModulusBits % 64;
    constexpr uint64_t kTopMask =
        kTopBits == 0 ? ~uint64_t{0} : ((uint64_t{1} << kTopBits) - 1);
    constexpr size_t kWords = (F::kModulusBits + 63) / 64;
    for (;;) {
      Repr r;
      for (size_t i = 0; i < kWords; i++) {
        r.limbs[i] = NextU64();
      }
      r.limbs[kWords - 1] &= kTopMask;
      if (r < F::kModulus) {
        return F::FromCanonical(r);
      }
    }
  }

  // Uniform nonzero field element.
  template <typename F>
  F NextNonzeroField() {
    for (;;) {
      F v = NextField<F>();
      if (!v.IsZero()) {
        return v;
      }
    }
  }

  template <typename F>
  std::vector<F> NextFieldVector(size_t n) {
    std::vector<F> v(n);
    for (size_t i = 0; i < n; i++) {
      v[i] = NextField<F>();
    }
    return v;
  }

 private:
  // Blocks per refill: one pass of ChaCha20::NextBlocks' 16-block kernel.
  static constexpr size_t kRefillBlocks = 16;

  void Refill() {
    cipher_.NextBlocks(buf_.data(), kRefillBlocks);
    pos_ = 0;
  }

  ChaCha20 cipher_{std::array<uint8_t, ChaCha20::kKeyBytes>{},
                   std::array<uint8_t, ChaCha20::kNonceBytes>{}, 0};
  std::array<uint8_t, kRefillBlocks * ChaCha20::kBlockBytes> buf_{};
  size_t pos_ = buf_.size();  // force refill on first use
};

}  // namespace zaatar

#endif  // SRC_CRYPTO_PRG_H_
