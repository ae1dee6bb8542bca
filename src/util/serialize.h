// Byte-level serialization for protocol messages.
//
// Bounds-checked little-endian encoding for field elements, big integers
// and length-prefixed vectors: the primitives the three protocol messages
// of src/protocol/messages.h are built from. Those carry the queries as
// plaintext rows in the setup frame; the paper's alternative (§A.1, "a
// random seed from which V and P derive the PCP queries pseudorandomly") is
// not implemented yet.
//
// Decoding is hardened against a malicious peer: every read returns a typed
// Status instead of throwing, length prefixes are validated against both the
// bytes actually present and a hard element cap before any allocation, and
// every field/group element is checked to be in canonical range (< modulus)
// rather than silently reduced.

#ifndef SRC_UTIL_SERIALIZE_H_
#define SRC_UTIL_SERIALIZE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/field/bigint.h"
#include "src/util/status.h"

namespace zaatar {

// Hard cap on elements per wire vector, independent of the claimed message
// size: the largest honest oracle is |u| elements, far below this, while a
// hostile 0xFFFFFFFF length prefix would otherwise request a multi-GB
// reserve() before the per-element reads could fail.
inline constexpr uint32_t kMaxWireVectorElements = 1u << 24;

class ByteWriter {
 public:
  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; i++) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; i++) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  template <size_t N>
  void PutBigInt(const BigInt<N>& v) {
    for (size_t i = 0; i < N; i++) {
      PutU64(v.limbs[i]);
    }
  }

  void PutBytes(const uint8_t* data, size_t n) {
    buf_.insert(buf_.end(), data, data + n);
  }

  const std::vector<uint8_t>& bytes() const { return buf_; }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::vector<uint8_t>& bytes) : bytes_(&bytes) {}

  StatusOr<uint32_t> GetU32() {
    ZAATAR_RETURN_IF_ERROR(Require(4));
    uint32_t v = 0;
    for (int i = 0; i < 4; i++) {
      v |= static_cast<uint32_t>((*bytes_)[pos_++]) << (8 * i);
    }
    return v;
  }

  StatusOr<uint64_t> GetU64() {
    ZAATAR_RETURN_IF_ERROR(Require(8));
    uint64_t v = 0;
    for (int i = 0; i < 8; i++) {
      v |= static_cast<uint64_t>((*bytes_)[pos_++]) << (8 * i);
    }
    return v;
  }

  template <size_t N>
  StatusOr<BigInt<N>> GetBigInt() {
    ZAATAR_RETURN_IF_ERROR(Require(N * 8));
    BigInt<N> v;
    for (size_t i = 0; i < N; i++) {
      uint64_t limb = 0;
      for (int b = 0; b < 8; b++) {
        limb |= static_cast<uint64_t>((*bytes_)[pos_++]) << (8 * b);
      }
      v.limbs[i] = limb;
    }
    return v;
  }

  Status GetBytes(uint8_t* out, size_t n) {
    ZAATAR_RETURN_IF_ERROR(Require(n));
    std::memcpy(out, bytes_->data() + pos_, n);
    pos_ += n;
    return Status::Ok();
  }

  // Steps over n bytes without reading them.
  Status Skip(size_t n) {
    ZAATAR_RETURN_IF_ERROR(Require(n));
    pos_ += n;
    return Status::Ok();
  }

  // Reads a u32 element count and validates it against the cap and the bytes
  // actually remaining (`elem_bytes` per element), so a hostile length prefix
  // fails here — before any allocation proportional to it.
  StatusOr<uint32_t> GetLength(size_t elem_bytes,
                               uint32_t max_elements = kMaxWireVectorElements) {
    ZAATAR_ASSIGN_OR_RETURN(uint32_t n, GetU32());
    if (n > max_elements) {
      return LengthOverflowError("vector length exceeds element cap");
    }
    if (static_cast<uint64_t>(n) * elem_bytes > remaining()) {
      return LengthOverflowError("vector length exceeds message size");
    }
    return n;
  }

  // Decoders call this last: trailing bytes mean the peer sent a different
  // structure than claimed, which is rejected rather than ignored.
  Status ExpectEnd() const {
    if (!AtEnd()) {
      return MalformedError("trailing bytes after message");
    }
    return Status::Ok();
  }

  bool AtEnd() const { return pos_ == bytes_->size(); }
  size_t remaining() const { return bytes_->size() - pos_; }
  size_t position() const { return pos_; }

 private:
  Status Require(size_t n) const {
    if (n > remaining()) {
      return TruncatedError("serialized message truncated");
    }
    return Status::Ok();
  }

  const std::vector<uint8_t>* bytes_;
  size_t pos_ = 0;
};

// Field and group elements travel in canonical (non-Montgomery) form and are
// validated against the modulus on decode — a malformed message cannot
// smuggle an out-of-range residue into the protocol, and non-canonical
// encodings of a valid residue are rejected rather than silently reduced.
// P is any PrimeField instantiation (a verified-computation field F or an
// ElGamal group Zp).
template <typename P>
void PutField(ByteWriter* w, const P& v) {
  w->PutBigInt(v.ToCanonical());
}

template <typename P>
StatusOr<P> GetField(ByteReader* r) {
  ZAATAR_ASSIGN_OR_RETURN(typename P::Repr canonical,
                          r->template GetBigInt<P::kLimbs>());
  if (!(canonical < P::kModulus)) {
    return OutOfRangeError("element not in canonical range");
  }
  return P::FromCanonical(canonical);
}

// Writes the 4 bytes ByteWriter::PutU32 would append.
inline void StoreU32(uint8_t* out, uint32_t v) {
  for (int i = 0; i < 4; i++) {
    out[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

// The same encoding on raw memory, for codecs that lay out a whole frame
// first and fill it in place: StoreField writes exactly the P::kLimbs * 8
// bytes PutField would append, and LoadField reads them back, returning
// false (and leaving *out alone) when the value is not below the modulus.
template <typename P>
void StoreField(uint8_t* out, const P& v) {
  const typename P::Repr canonical = v.ToCanonical();
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, canonical.limbs.data(), P::kLimbs * 8);
  } else {
    for (size_t i = 0; i < P::kLimbs; i++) {
      for (size_t b = 0; b < 8; b++) {
        out[8 * i + b] = static_cast<uint8_t>(canonical.limbs[i] >> (8 * b));
      }
    }
  }
}

template <typename P>
bool LoadField(const uint8_t* in, P* out) {
  typename P::Repr canonical;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(canonical.limbs.data(), in, P::kLimbs * 8);
  } else {
    for (size_t i = 0; i < P::kLimbs; i++) {
      uint64_t limb = 0;
      for (size_t b = 0; b < 8; b++) {
        limb |= static_cast<uint64_t>(in[8 * i + b]) << (8 * b);
      }
      canonical.limbs[i] = limb;
    }
  }
  if (!(canonical < P::kModulus)) {
    return false;
  }
  *out = P::FromCanonical(canonical);
  return true;
}

template <typename P>
void PutFieldVector(ByteWriter* w, const std::vector<P>& v) {
  w->PutU32(static_cast<uint32_t>(v.size()));
  for (const P& x : v) {
    PutField(w, x);
  }
}

template <typename P>
StatusOr<std::vector<P>> GetFieldVector(ByteReader* r) {
  ZAATAR_ASSIGN_OR_RETURN(uint32_t n, r->GetLength(P::kLimbs * 8));
  std::vector<P> v;
  v.reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    ZAATAR_ASSIGN_OR_RETURN(P x, GetField<P>(r));
    v.push_back(x);
  }
  return v;
}

}  // namespace zaatar

#endif  // SRC_UTIL_SERIALIZE_H_
