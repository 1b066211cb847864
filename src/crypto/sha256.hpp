// SHA-256 (FIPS 180-4), implemented from scratch. This is the only hash in
// the repo: credential signatures, channel MACs, and key derivation all go
// through it.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.hpp"

namespace psf::crypto {

using Digest256 = std::array<std::uint8_t, 32>;

/// The eight-word chaining value between 64-byte blocks.
using Sha256Midstate = std::array<std::uint32_t, 8>;

class Sha256 {
 public:
  Sha256();

  /// Resume a hash whose first `blocks` whole 64-byte blocks were absorbed
  /// into `midstate` (HMAC keeps its pad blocks this way, RFC 2104 §4).
  Sha256(const Sha256Midstate& midstate, std::uint64_t blocks);

  /// The chaining value; meaningful only after whole blocks (the bytes
  /// absorbed so far are a multiple of 64).
  const Sha256Midstate& midstate() const { return state_; }

  void update(const std::uint8_t* data, std::size_t len);
  void update(const util::Bytes& data) { update(data.data(), data.size()); }

  /// Finish and return the digest. The object must not be reused afterwards.
  Digest256 finish();

 private:
  void process_blocks(const std::uint8_t* data, std::size_t blocks);

  Sha256Midstate state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// One-shot convenience.
Digest256 sha256(const util::Bytes& data);

/// Digest as a Bytes vector (handy for concatenation into payloads).
util::Bytes sha256_bytes(const util::Bytes& data);

}  // namespace psf::crypto
