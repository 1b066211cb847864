#include "crypto/hmac.hpp"

namespace psf::crypto {

HmacSha256::HmacSha256(const util::Bytes& key) {
  constexpr std::size_t kBlock = 64;
  util::Bytes k = key;
  if (k.size() > kBlock) {
    k = sha256_bytes(k);
  }
  k.resize(kBlock, 0);

  std::uint8_t inner_pad[kBlock];
  std::uint8_t outer_pad[kBlock];
  for (std::size_t i = 0; i < kBlock; ++i) {
    inner_pad[i] = k[i] ^ 0x36;
    outer_pad[i] = k[i] ^ 0x5c;
  }
  Sha256 inner, outer;
  inner.update(inner_pad, kBlock);
  outer.update(outer_pad, kBlock);
  inner_ = inner.midstate();
  outer_ = outer.midstate();
}

Digest256 HmacSha256::mac(const std::uint8_t* data, std::size_t len) const {
  Sha256 inner(inner_, 1);
  inner.update(data, len);
  const Digest256 inner_digest = inner.finish();
  Sha256 outer(outer_, 1);
  outer.update(inner_digest.data(), inner_digest.size());
  return outer.finish();
}

Digest256 hmac_sha256(const util::Bytes& key, const util::Bytes& message) {
  return HmacSha256(key).mac(message);
}

util::Bytes hmac_sha256_bytes(const util::Bytes& key,
                              const util::Bytes& message) {
  const Digest256 d = hmac_sha256(key, message);
  return util::Bytes(d.begin(), d.end());
}

}  // namespace psf::crypto
