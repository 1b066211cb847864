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
  inner_.update(inner_pad, kBlock);
  outer_seed_.update(outer_pad, kBlock);
}

Digest256 HmacSha256::final() {
  const Digest256 inner_digest = inner_.finish();
  Sha256 outer = outer_seed_;
  outer.update(inner_digest.data(), inner_digest.size());
  return outer.finish();
}

void HmacSha256::final_into(std::uint8_t* out) {
  const Digest256 d = final();
  std::copy(d.begin(), d.end(), out);
}

Digest256 hmac_sha256(const util::Bytes& key, const util::Bytes& message) {
  HmacSha256 mac(key);
  mac.update(message);
  return mac.final();
}

util::Bytes hmac_sha256_bytes(const util::Bytes& key,
                              const util::Bytes& message) {
  const Digest256 d = hmac_sha256(key, message);
  return util::Bytes(d.begin(), d.end());
}

}  // namespace psf::crypto
