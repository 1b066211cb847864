// HMAC-SHA-256 (RFC 2104). Used for channel frame authentication, heartbeat
// replay protection, and deterministic nonce derivation in signing.
//
// Two APIs: the one-shot helpers below, and the streaming HmacSha256 class.
// The streaming form exists for the Switchboard frame hot path: the key
// schedule (pad derivation + the two pad compression blocks) is done once at
// construction, and each MAC afterwards only costs the message blocks plus
// one finalization block — callers keep a keyed seed object per direction
// and copy it per frame (a small, allocation-free struct copy). A keyed seed
// is never finished itself, so its running inner hash doubles as the inner
// pad midstate and one object holds just two SHA-256 states.
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

  void update(const std::uint8_t* data, std::size_t len) {
    inner_.update(data, len);
  }
  void update(const util::Bytes& data) { update(data.data(), data.size()); }

  /// Finish the MAC. The object must not be updated or finished afterwards;
  /// MAC the next message from a fresh copy of the keyed seed.
  Digest256 final();

  /// Write the 32-byte MAC directly at `out` (e.g. into a frame tail).
  void final_into(std::uint8_t* out);

 private:
  Sha256 outer_seed_;  // midstate after the opad block
  Sha256 inner_;       // running inner hash; the ipad midstate while unused
};

Digest256 hmac_sha256(const util::Bytes& key, const util::Bytes& message);

util::Bytes hmac_sha256_bytes(const util::Bytes& key,
                              const util::Bytes& message);

}  // namespace psf::crypto
