#include "src/crypto/chacha.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define ZAATAR_CHACHA_AVX512 1
#include <immintrin.h>
#endif

namespace zaatar {

namespace {

inline uint32_t Rotl(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

inline void QuarterRound(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d) {
  a += b;
  d = Rotl(d ^ a, 16);
  c += d;
  b = Rotl(b ^ c, 12);
  a += b;
  d = Rotl(d ^ a, 8);
  c += d;
  b = Rotl(b ^ c, 7);
}

inline uint32_t Load32Le(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

inline void Store32Le(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

#ifdef ZAATAR_CHACHA_AVX512
// Does this CPU run the 16-block kernel? (Cached after first call.) The
// kernel is compiled with a target attribute, so the build needs no -m flag.
bool Avx512Available() {
  static const bool kHas = __builtin_cpu_supports("avx512f");
  return kHas;
}

// The two pragmas silence GCC's bogus -Wuninitialized on the
// _mm512_undefined-based system-header helpers (_mm512_rol_epi32) that the
// target attribute forces to inline here, as in ifma52.h.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// QuarterRound on 16 blocks at once, one block per 32-bit lane.
__attribute__((target("avx512f"), always_inline)) inline void QuarterRound16(
    __m512i& a, __m512i& b, __m512i& c, __m512i& d) {
  a = _mm512_add_epi32(a, b);
  d = _mm512_rol_epi32(_mm512_xor_si512(d, a), 16);
  c = _mm512_add_epi32(c, d);
  b = _mm512_rol_epi32(_mm512_xor_si512(b, c), 12);
  a = _mm512_add_epi32(a, b);
  d = _mm512_rol_epi32(_mm512_xor_si512(d, a), 8);
  c = _mm512_add_epi32(c, d);
  b = _mm512_rol_epi32(_mm512_xor_si512(b, c), 7);
}

// Writes the 16 blocks at counters state[12] + 0..15 (mod 2^32) to out.
// Register i holds state word i of all 16 blocks, lane j that of block j;
// after the rounds a 16x16 transpose turns the words into blocks.
__attribute__((target("avx512f"))) void Blocks16(const uint32_t state[16],
                                                 uint8_t* out) {
  const __m512i lane =
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  __m512i x[16];
#pragma GCC unroll 16
  for (int i = 0; i < 16; i++) {
    x[i] = _mm512_set1_epi32(static_cast<int>(state[i]));
  }
  x[12] = _mm512_add_epi32(x[12], lane);
  for (int round = 0; round < 10; round++) {
    QuarterRound16(x[0], x[4], x[8], x[12]);
    QuarterRound16(x[1], x[5], x[9], x[13]);
    QuarterRound16(x[2], x[6], x[10], x[14]);
    QuarterRound16(x[3], x[7], x[11], x[15]);
    QuarterRound16(x[0], x[5], x[10], x[15]);
    QuarterRound16(x[1], x[6], x[11], x[12]);
    QuarterRound16(x[2], x[7], x[8], x[13]);
    QuarterRound16(x[3], x[4], x[9], x[14]);
  }
#pragma GCC unroll 16
  for (int i = 0; i < 16; i++) {
    x[i] = _mm512_add_epi32(x[i],
                            _mm512_set1_epi32(static_cast<int>(state[i])));
  }
  x[12] = _mm512_add_epi32(x[12], lane);
  // a[4g + r]'s 128-bit lane k holds words 4g..4g+3 of block 4k + r.
  __m512i a[16];
#pragma GCC unroll 4
  for (int g = 0; g < 4; g++) {
    const __m512i t0 = _mm512_unpacklo_epi32(x[4 * g], x[4 * g + 1]);
    const __m512i t1 = _mm512_unpackhi_epi32(x[4 * g], x[4 * g + 1]);
    const __m512i t2 = _mm512_unpacklo_epi32(x[4 * g + 2], x[4 * g + 3]);
    const __m512i t3 = _mm512_unpackhi_epi32(x[4 * g + 2], x[4 * g + 3]);
    a[4 * g] = _mm512_unpacklo_epi64(t0, t2);
    a[4 * g + 1] = _mm512_unpackhi_epi64(t0, t2);
    a[4 * g + 2] = _mm512_unpacklo_epi64(t1, t3);
    a[4 * g + 3] = _mm512_unpackhi_epi64(t1, t3);
  }
  // Block 4k + r is lane k of a[r], a[4 + r], a[8 + r] and a[12 + r].
#pragma GCC unroll 4
  for (int r = 0; r < 4; r++) {
    const __m512i v0 = _mm512_shuffle_i32x4(a[r], a[4 + r], 0x44);
    const __m512i v1 = _mm512_shuffle_i32x4(a[r], a[4 + r], 0xEE);
    const __m512i v2 = _mm512_shuffle_i32x4(a[8 + r], a[12 + r], 0x44);
    const __m512i v3 = _mm512_shuffle_i32x4(a[8 + r], a[12 + r], 0xEE);
    uint8_t* block = out + r * ChaCha20::kBlockBytes;
    _mm512_storeu_si512(block, _mm512_shuffle_i32x4(v0, v2, 0x88));
    _mm512_storeu_si512(block + 4 * ChaCha20::kBlockBytes,
                        _mm512_shuffle_i32x4(v0, v2, 0xDD));
    _mm512_storeu_si512(block + 8 * ChaCha20::kBlockBytes,
                        _mm512_shuffle_i32x4(v1, v3, 0x88));
    _mm512_storeu_si512(block + 12 * ChaCha20::kBlockBytes,
                        _mm512_shuffle_i32x4(v1, v3, 0xDD));
  }
}
#pragma GCC diagnostic pop
#endif  // ZAATAR_CHACHA_AVX512

}  // namespace

ChaCha20::ChaCha20(const std::array<uint8_t, kKeyBytes>& key,
                   const std::array<uint8_t, kNonceBytes>& nonce,
                   uint32_t initial_counter) {
  state_[0] = 0x61707865;
  state_[1] = 0x3320646e;
  state_[2] = 0x79622d32;
  state_[3] = 0x6b206574;
  for (int i = 0; i < 8; i++) {
    state_[4 + i] = Load32Le(&key[4 * i]);
  }
  state_[12] = initial_counter;
  for (int i = 0; i < 3; i++) {
    state_[13 + i] = Load32Le(&nonce[4 * i]);
  }
}

void ChaCha20::NextBlock(uint8_t out[kBlockBytes]) {
  std::array<uint32_t, 16> x = state_;
  for (int round = 0; round < 10; round++) {
    QuarterRound(x[0], x[4], x[8], x[12]);
    QuarterRound(x[1], x[5], x[9], x[13]);
    QuarterRound(x[2], x[6], x[10], x[14]);
    QuarterRound(x[3], x[7], x[11], x[15]);
    QuarterRound(x[0], x[5], x[10], x[15]);
    QuarterRound(x[1], x[6], x[11], x[12]);
    QuarterRound(x[2], x[7], x[8], x[13]);
    QuarterRound(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; i++) {
    Store32Le(&out[4 * i], x[i] + state_[i]);
  }
  state_[12]++;  // block counter
}

void ChaCha20::NextBlocks(uint8_t* out, size_t blocks) {
#ifdef ZAATAR_CHACHA_AVX512
  if (Avx512Available()) {
    for (; blocks >= 16; blocks -= 16) {
      Blocks16(state_.data(), out);
      state_[12] += 16;
      out += 16 * kBlockBytes;
    }
  }
#endif
  for (; blocks > 0; blocks--) {
    NextBlock(out);
    out += kBlockBytes;
  }
}

const char* ChaCha20::Kernel() {
#ifdef ZAATAR_CHACHA_AVX512
  if (Avx512Available()) {
    return "avx512";
  }
#endif
  return "scalar";
}

void ChaCha20::Block(const std::array<uint8_t, kKeyBytes>& key,
                     const std::array<uint8_t, kNonceBytes>& nonce,
                     uint32_t counter, uint8_t out[kBlockBytes]) {
  ChaCha20 c(key, nonce, counter);
  c.NextBlock(out);
}

}  // namespace zaatar
