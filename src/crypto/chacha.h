// ChaCha20 stream cipher (RFC 8439 block function), used as the protocol's
// pseudorandom generator — the paper (§5.1) uses ChaCha for this role.

#ifndef SRC_CRYPTO_CHACHA_H_
#define SRC_CRYPTO_CHACHA_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace zaatar {

class ChaCha20 {
 public:
  static constexpr size_t kKeyBytes = 32;
  static constexpr size_t kNonceBytes = 12;
  static constexpr size_t kBlockBytes = 64;

  ChaCha20(const std::array<uint8_t, kKeyBytes>& key,
           const std::array<uint8_t, kNonceBytes>& nonce,
           uint32_t initial_counter = 0);

  // Writes the keystream block for the current counter and advances it.
  void NextBlock(uint8_t out[kBlockBytes]);

  // Writes `blocks` consecutive keystream blocks (blocks · kBlockBytes
  // bytes) and advances the counter by `blocks`, mod 2^32: the same bytes
  // as `blocks` calls of NextBlock. On a host with AVX-512 it makes 16
  // blocks per vector pass; the remainder, and every block on other hosts,
  // goes through NextBlock.
  void NextBlocks(uint8_t* out, size_t blocks);

  // The kernel NextBlocks runs here: "avx512" or "scalar".
  static const char* Kernel();

  // Computes one block without mutating state (RFC 8439 §2.3 test support).
  static void Block(const std::array<uint8_t, kKeyBytes>& key,
                    const std::array<uint8_t, kNonceBytes>& nonce,
                    uint32_t counter, uint8_t out[kBlockBytes]);

 private:
  std::array<uint32_t, 16> state_{};
};

}  // namespace zaatar

#endif  // SRC_CRYPTO_CHACHA_H_
