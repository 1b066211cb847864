// HMAC-SHA-256 (RFC 2104). Used for channel frame authentication, heartbeat
// replay protection, and deterministic nonce derivation in signing.
//
// Two APIs: the one-shot helpers below, and the keyed HmacSha256 seed. The
// seed exists for the Switchboard frame hot path: the key schedule (pad
// derivation + the two pad compression blocks) runs once at construction,
// and the seed keeps only the two resulting SHA-256 midstates (RFC 2104 §4
// precomputation), 64 bytes. Each MAC afterwards costs the message blocks
// plus one outer block, and the seed is never modified, so one seed serves
// every frame of its direction.
#pragma once

#include "crypto/sha256.hpp"
#include "util/bytes.hpp"

namespace psf::crypto {

class HmacSha256 {
 public:
  /// Unkeyed; usable only after assignment from a keyed instance.
  HmacSha256() = default;

  /// Derive the inner/outer pad midstates from `key` (hashed first when
  /// longer than the SHA-256 block size).
  explicit HmacSha256(const util::Bytes& key);

  /// The MAC of `data[0, len)`.
  Digest256 mac(const std::uint8_t* data, std::size_t len) const;
  Digest256 mac(const util::Bytes& data) const {
    return mac(data.data(), data.size());
  }

 private:
  Sha256Midstate inner_{};  // after the ipad block
  Sha256Midstate outer_{};  // after the opad block
};

Digest256 hmac_sha256(const util::Bytes& key, const util::Bytes& message);

util::Bytes hmac_sha256_bytes(const util::Bytes& key,
                              const util::Bytes& message);

}  // namespace psf::crypto
