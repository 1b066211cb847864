#include "crypto/sha256.hpp"

#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define PSF_SHA256_X86 1
#include <immintrin.h>
#endif

namespace psf::crypto {

namespace {

constexpr std::uint32_t kInit[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

alignas(16) constexpr std::uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

void process_blocks_portable(std::uint32_t* state, const std::uint8_t* data,
                             std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(data[4 * i]) << 24 |
             static_cast<std::uint32_t>(data[4 * i + 1]) << 16 |
             static_cast<std::uint32_t>(data[4 * i + 2]) << 8 |
             static_cast<std::uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kRound[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#ifdef PSF_SHA256_X86

// SHA-NI compression: the x86 SHA extensions retire four rounds per
// sha256rnds2 pair, an order of magnitude over the portable path. Round
// constants are loaded straight from kRound so both paths share one table.
__attribute__((target("sha,sse4.1,ssse3")))
void process_blocks_shani(std::uint32_t* state, const std::uint8_t* data,
                          std::size_t blocks) {
  const __m128i kShuffle =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const auto k4 = [](int i) {
    return _mm_load_si128(reinterpret_cast<const __m128i*>(kRound + i));
  };

  // state[0..7] = {a,b,c,d,e,f,g,h}; the instructions want ABEF / CDGH.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);        // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);  // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);     // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);          // CDGH

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;
    __m128i msg, msgtmp;

    __m128i msg0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 0));
    msg0 = _mm_shuffle_epi8(msg0, kShuffle);
    msg = _mm_add_epi32(msg0, k4(0));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    __m128i msg1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16));
    msg1 = _mm_shuffle_epi8(msg1, kShuffle);
    msg = _mm_add_epi32(msg1, k4(4));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    __m128i msg2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32));
    msg2 = _mm_shuffle_epi8(msg2, kShuffle);
    msg = _mm_add_epi32(msg2, k4(8));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    __m128i msg3 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48));
    msg3 = _mm_shuffle_epi8(msg3, kShuffle);
    msg = _mm_add_epi32(msg3, k4(12));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg3, msg2, 4);
    msg0 = _mm_add_epi32(msg0, msgtmp);
    msg0 = _mm_sha256msg2_epu32(msg0, msg3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    // Rounds 16..63: the schedule pipeline repeats with the four message
    // registers rotating roles every four rounds.
    msg = _mm_add_epi32(msg0, k4(16));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg0, msg3, 4);
    msg1 = _mm_add_epi32(msg1, msgtmp);
    msg1 = _mm_sha256msg2_epu32(msg1, msg0);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);

    msg = _mm_add_epi32(msg1, k4(20));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg1, msg0, 4);
    msg2 = _mm_add_epi32(msg2, msgtmp);
    msg2 = _mm_sha256msg2_epu32(msg2, msg1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    msg = _mm_add_epi32(msg2, k4(24));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg2, msg1, 4);
    msg3 = _mm_add_epi32(msg3, msgtmp);
    msg3 = _mm_sha256msg2_epu32(msg3, msg2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    msg = _mm_add_epi32(msg3, k4(28));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg3, msg2, 4);
    msg0 = _mm_add_epi32(msg0, msgtmp);
    msg0 = _mm_sha256msg2_epu32(msg0, msg3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    msg = _mm_add_epi32(msg0, k4(32));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg0, msg3, 4);
    msg1 = _mm_add_epi32(msg1, msgtmp);
    msg1 = _mm_sha256msg2_epu32(msg1, msg0);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);

    msg = _mm_add_epi32(msg1, k4(36));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg1, msg0, 4);
    msg2 = _mm_add_epi32(msg2, msgtmp);
    msg2 = _mm_sha256msg2_epu32(msg2, msg1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    msg = _mm_add_epi32(msg2, k4(40));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg2, msg1, 4);
    msg3 = _mm_add_epi32(msg3, msgtmp);
    msg3 = _mm_sha256msg2_epu32(msg3, msg2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    msg = _mm_add_epi32(msg3, k4(44));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg3, msg2, 4);
    msg0 = _mm_add_epi32(msg0, msgtmp);
    msg0 = _mm_sha256msg2_epu32(msg0, msg3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    msg = _mm_add_epi32(msg0, k4(48));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg0, msg3, 4);
    msg1 = _mm_add_epi32(msg1, msgtmp);
    msg1 = _mm_sha256msg2_epu32(msg1, msg0);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);

    msg = _mm_add_epi32(msg1, k4(52));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg1, msg0, 4);
    msg2 = _mm_add_epi32(msg2, msgtmp);
    msg2 = _mm_sha256msg2_epu32(msg2, msg1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    msg = _mm_add_epi32(msg2, k4(56));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg2, msg1, 4);
    msg3 = _mm_add_epi32(msg3, msgtmp);
    msg3 = _mm_sha256msg2_epu32(msg3, msg2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    msg = _mm_add_epi32(msg3, k4(60));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);     // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);  // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);        // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);           // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}

bool has_sha_ni() {
  static const bool supported = __builtin_cpu_supports("sha") &&
                                __builtin_cpu_supports("sse4.1") &&
                                __builtin_cpu_supports("ssse3");
  return supported;
}

#endif  // PSF_SHA256_X86

}  // namespace

Sha256::Sha256() {
  std::memcpy(state_.data(), kInit, sizeof(kInit));
}

Sha256::Sha256(const Sha256Midstate& midstate, std::uint64_t blocks)
    : state_(midstate), total_len_(64 * blocks) {}

void Sha256::process_blocks(const std::uint8_t* data, std::size_t blocks) {
#ifdef PSF_SHA256_X86
  if (has_sha_ni()) {
    process_blocks_shani(state_.data(), data, blocks);
    return;
  }
#endif
  process_blocks_portable(state_.data(), data, blocks);
}

void Sha256::update(const std::uint8_t* data, std::size_t len) {
  total_len_ += len;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(len, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ == buffer_.size()) {
      process_blocks(buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  // Full blocks stream straight from the caller's buffer — no staging copy.
  const std::size_t blocks = len / 64;
  if (blocks > 0) {
    process_blocks(data, blocks);
    data += blocks * 64;
    len -= blocks * 64;
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), data, len);
    buffer_len_ = len;
  }
}

Digest256 Sha256::finish() {
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    process_blocks(buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  process_blocks(buffer_.data(), 1);

  Digest256 out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest256 sha256(const util::Bytes& data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

util::Bytes sha256_bytes(const util::Bytes& data) {
  const Digest256 d = sha256(data);
  return util::Bytes(d.begin(), d.end());
}

}  // namespace psf::crypto
