#include "src/poly/ntt.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

namespace zaatar {

namespace {

// Decimation-in-time butterflies expect bit-reversed input ordering.
void BitReverse(uint64_t* data, size_t log_n) {
  size_t n = size_t{1} << log_n;
  for (size_t i = 0, j = 0; i < n; i++) {
    if (i < j) {
      std::swap(data[i], data[j]);
    }
    size_t bit = n >> 1;
    while ((j & bit) != 0) {
      j ^= bit;
      bit >>= 1;
    }
    j |= bit;
  }
}

}  // namespace

NttPlan::NttPlan(size_t prime_index, size_t log_n)
    : field_(kNttPrimes[prime_index]), log_n_(log_n) {
  assert(prime_index < kNumNttPrimes);
  assert(log_n <= kNttTwoAdicity);
  size_t n = size();

  // Root of order n: root42^(2^(42 - log_n)).
  uint64_t root = field_.ToMont(kNttRoots[prime_index]);
  for (size_t i = 0; i < kNttTwoAdicity - log_n; i++) {
    root = field_.Mul(root, root);
  }
  uint64_t inv_root = field_.Inverse(root);

  // Twiddle layout: for each stage with half-block size m, powers w^0..w^{m-1}
  // of the order-2m root. Total n-1 entries.
  fwd_twiddles_.resize(n);
  inv_twiddles_.resize(n);
  for (uint64_t* tw : {fwd_twiddles_.data(), inv_twiddles_.data()}) {
    uint64_t r = (tw == fwd_twiddles_.data()) ? root : inv_root;
    size_t pos = 0;
    for (size_t m = n / 2; m >= 1; m /= 2) {
      // Root of order 2m for this stage: r^(n / (2m)).
      uint64_t stage_root = r;
      for (size_t k = 2 * m; k < n; k *= 2) {
        stage_root = field_.Mul(stage_root, stage_root);
      }
      uint64_t w = field_.One();
      for (size_t j = 0; j < m; j++) {
        tw[pos++] = w;
        w = field_.Mul(w, stage_root);
      }
    }
  }

  uint64_t n_mont = field_.ToMont(n % field_.modulus());
  n_inv_mont_ = field_.Inverse(n_mont);
}

void NttPlan::Transform(uint64_t* data,
                        const std::vector<uint64_t>& twiddles) const {
  size_t n = size();
  BitReverse(data, log_n_);
  // Stages from block size 2 upward; twiddles were stored from the widest
  // stage (m = n/2) down, so index from the tail.
  for (size_t m = 1; m < n; m *= 2) {
    // Twiddle block for this stage starts where the stage with half-size m
    // was stored. Stage order in storage: m = n/2 first (offset 0), then
    // n/4, ..., 1. Stage with half-size m sits at offset n - 2m.
    const uint64_t* w = &twiddles[n - 2 * m];
    for (size_t block = 0; block < n; block += 2 * m) {
      for (size_t j = 0; j < m; j++) {
        uint64_t u = data[block + j];
        uint64_t t = field_.Mul(data[block + j + m], w[j]);
        data[block + j] = field_.Add(u, t);
        data[block + j + m] = field_.Sub(u, t);
      }
    }
  }
}

void NttPlan::Forward(uint64_t* data) const { Transform(data, fwd_twiddles_); }

void NttPlan::Inverse(uint64_t* data) const {
  Transform(data, inv_twiddles_);
  size_t n = size();
  for (size_t i = 0; i < n; i++) {
    data[i] = field_.Mul(data[i], n_inv_mont_);
  }
}

void TransposeBlocked(const uint64_t* src, uint64_t* dst, size_t rows,
                      size_t cols) {
  constexpr size_t kTile = 32;  // 2 × 8KB tiles, comfortably inside L1
  for (size_t r0 = 0; r0 < rows; r0 += kTile) {
    size_t r1 = std::min(rows, r0 + kTile);
    for (size_t c0 = 0; c0 < cols; c0 += kTile) {
      size_t c1 = std::min(cols, c0 + kTile);
      for (size_t r = r0; r < r1; r++) {
        for (size_t c = c0; c < c1; c++) {
          dst[c * rows + r] = src[r * cols + c];
        }
      }
    }
  }
}

namespace {

// Six-step NTT over the n1×n2 split of n (n1 = 2^⌊log/2⌋ rows): transpose,
// n2 column transforms of size n1, twiddle by w^(i2·k1), transpose, n1 row
// transforms of size n2, and a final transpose back to natural order. Row
// transforms recurse through the dispatcher, so they always hit the small
// cached plans. The identity used (w_n1 = w_n^n2, w_n2 = w_n^n1) holds
// because every plan derives its root from the same 2^42 generator.
void FourStep(size_t prime_index, uint64_t* data, size_t log_n,
              bool inverse) {
  assert(log_n >= 2 && log_n <= kNttTwoAdicity);
  size_t l1 = log_n / 2;
  size_t l2 = log_n - l1;
  size_t n1 = size_t{1} << l1;
  size_t n2 = size_t{1} << l2;
  size_t n = size_t{1} << log_n;
  const MontField64 f(kNttPrimes[prime_index]);

  uint64_t root = f.ToMont(kNttRoots[prime_index]);
  for (size_t i = 0; i < kNttTwoAdicity - log_n; i++) {
    root = f.Mul(root, root);
  }
  if (inverse) {
    root = f.Inverse(root);
  }

  std::vector<uint64_t> scratch(n);
  // scratch[i2·n1 + i1] = data[i1·n2 + i2]
  TransposeBlocked(data, scratch.data(), n1, n2);
  for (size_t r = 0; r < n2; r++) {
    uint64_t* row = scratch.data() + r * n1;
    if (inverse) {
      NttInverse(prime_index, row, l1);
    } else {
      NttForward(prime_index, row, l1);
    }
  }
  // Twiddle correction w^(i2·k1), computed row by row (no n-entry table).
  uint64_t wrow = f.One();  // w^(i2)
  for (size_t i2 = 0; i2 < n2; i2++) {
    uint64_t* row = scratch.data() + i2 * n1;
    uint64_t w = f.One();
    for (size_t k1 = 0; k1 < n1; k1++) {
      row[k1] = f.Mul(row[k1], w);
      w = f.Mul(w, wrow);
    }
    wrow = f.Mul(wrow, root);
  }
  // data[k1·n2 + i2] = scratch[i2·n1 + k1]
  TransposeBlocked(scratch.data(), data, n2, n1);
  for (size_t r = 0; r < n1; r++) {
    uint64_t* row = data + r * n2;
    if (inverse) {
      NttInverse(prime_index, row, l2);
    } else {
      NttForward(prime_index, row, l2);
    }
  }
  // Natural order: out[k1 + n1·k2] = current[k1·n2 + k2].
  TransposeBlocked(data, scratch.data(), n1, n2);
  std::copy(scratch.begin(), scratch.end(), data);
}

}  // namespace

void NttForwardFourStep(size_t prime_index, uint64_t* data, size_t log_n) {
  FourStep(prime_index, data, log_n, /*inverse=*/false);
}

void NttInverseFourStep(size_t prime_index, uint64_t* data, size_t log_n) {
  FourStep(prime_index, data, log_n, /*inverse=*/true);
}

void NttForward(size_t prime_index, uint64_t* data, size_t log_n) {
  if (log_n >= kNttFourStepMinLogN) {
    NttForwardFourStep(prime_index, data, log_n);
    return;
  }
  GetNttPlan(prime_index, log_n).Forward(data);
}

void NttInverse(size_t prime_index, uint64_t* data, size_t log_n) {
  if (log_n >= kNttFourStepMinLogN) {
    NttInverseFourStep(prime_index, data, log_n);
    return;
  }
  GetNttPlan(prime_index, log_n).Inverse(data);
}

const NttPlan& GetNttPlan(size_t prime_index, size_t log_n) {
  static std::mutex mu;
  static std::map<std::pair<size_t, size_t>, std::unique_ptr<NttPlan>> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto key = std::make_pair(prime_index, log_n);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, std::make_unique<NttPlan>(prime_index, log_n))
             .first;
  }
  return *it->second;
}

}  // namespace zaatar
