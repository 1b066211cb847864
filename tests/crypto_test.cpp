#include <gtest/gtest.h>

#include "crypto/biguint.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/dh.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/fe25519.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sign.hpp"
#include "util/rng.hpp"

namespace psf::crypto {
namespace {

using util::Bytes;
using util::from_hex;
using util::to_bytes;
using util::to_hex;

std::string hex_of(const Digest256& d) {
  return to_hex(Bytes(d.begin(), d.end()));
}

// ---------------------------------------------------------------- SHA-256

TEST(Sha256, Fips180EmptyString) {
  EXPECT_EQ(hex_of(sha256({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Fips180Abc) {
  EXPECT_EQ(hex_of(sha256(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, Fips180TwoBlocks) {
  EXPECT_EQ(hex_of(sha256(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_of(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes msg = to_bytes("incremental hashing must match one-shot");
  Sha256 h;
  for (std::size_t i = 0; i < msg.size(); ++i) h.update(&msg[i], 1);
  EXPECT_EQ(h.finish(), sha256(msg));
}

// ------------------------------------------------------------------ HMAC

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hex_of(hmac_sha256(key, to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(hex_of(hmac_sha256(to_bytes("Jefe"),
                               to_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes msg(50, 0xdd);
  EXPECT_EQ(hex_of(hmac_sha256(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(
      hex_of(hmac_sha256(
          key, to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, CopiedSeedMacsIndependently) {
  // The frame codec keys one seed per direction and MACs every frame from
  // it: a copy MACs like the original, and MACing never moves the seed off
  // its keyed midstates.
  const Bytes key = to_bytes("session mac key");
  const Bytes first = to_bytes("frame one");
  const Bytes second(300, 0x5a);  // spans several SHA-256 blocks
  const HmacSha256 seed(key);
  const HmacSha256 a = seed;
  const HmacSha256 b = seed;
  EXPECT_EQ(hex_of(a.mac(first)), hex_of(hmac_sha256(key, first)));
  EXPECT_EQ(hex_of(b.mac(second)), hex_of(hmac_sha256(key, second)));
  EXPECT_EQ(hex_of(seed.mac(first)), hex_of(a.mac(first)));
  EXPECT_EQ(hex_of(a.mac(first)), hex_of(hmac_sha256(key, first)));
  EXPECT_EQ(sizeof(HmacSha256), 64u) << "two 32-byte midstates";
}

/// HMAC as RFC 2104 §2 writes it, over whole SHA-256 hashes:
/// H((K0 ^ opad) | H((K0 ^ ipad) | m)). No midstates are involved.
Digest256 textbook_hmac(const Bytes& key, const Bytes& message) {
  Bytes k0 = key.size() > 64 ? sha256_bytes(key) : key;
  k0.resize(64, 0);
  Bytes inner(64), outer(64);
  for (std::size_t i = 0; i < 64; ++i) {
    inner[i] = k0[i] ^ 0x36;
    outer[i] = k0[i] ^ 0x5c;
  }
  inner.insert(inner.end(), message.begin(), message.end());
  const Digest256 inner_digest = sha256(inner);
  outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
  return sha256(outer);
}

TEST(Hmac, CompactSeedMatchesTextbookHmac) {
  util::Rng rng(2104);
  for (const std::size_t key_len : {0, 32, 64, 65, 200}) {
    const Bytes key = rng.next_bytes(key_len);
    const HmacSha256 seed(key);
    for (std::size_t msg_len = 0; msg_len <= 200; ++msg_len) {
      const Bytes message = rng.next_bytes(msg_len);
      const std::string want = hex_of(textbook_hmac(key, message));
      ASSERT_EQ(hex_of(seed.mac(message)), want)
          << "key " << key_len << " B, message " << msg_len << " B";
      ASSERT_EQ(hex_of(hmac_sha256(key, message)), want);
    }
  }
}

TEST(Sha256, ResumesFromAMidstate) {
  // Absorb whole blocks, keep only the chaining value, and resume: the
  // digest matches hashing everything in one object.
  util::Rng rng(180);
  const Bytes data = rng.next_bytes(64 * 3 + 17);
  for (std::uint64_t blocks = 1; blocks <= 3; ++blocks) {
    Sha256 prefix;
    prefix.update(data.data(), 64 * blocks);
    Sha256 resumed(prefix.midstate(), blocks);
    resumed.update(data.data() + 64 * blocks, data.size() - 64 * blocks);
    EXPECT_EQ(hex_of(resumed.finish()), hex_of(sha256(data)))
        << blocks << " blocks";
  }
}

// --------------------------------------------------------------- ChaCha20

TEST(ChaCha20, Rfc8439BlockVector) {
  ChaChaKey key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  ChaChaNonce nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                       0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const auto block = chacha20_block(key, nonce, 1);
  EXPECT_EQ(to_hex(Bytes(block.begin(), block.end())),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20, Rfc8439EncryptionVector) {
  ChaChaKey key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  ChaChaNonce nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                       0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const Bytes plaintext = to_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  const Bytes ciphertext = chacha20_xor(key, nonce, 1, plaintext);
  EXPECT_EQ(to_hex(ciphertext).substr(0, 64),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b");
  // Symmetric: decrypting recovers the plaintext.
  EXPECT_EQ(chacha20_xor(key, nonce, 1, ciphertext), plaintext);
}

TEST(ChaCha20, DifferentNonceDifferentStream) {
  ChaChaKey key{};
  ChaChaNonce n1{}, n2{};
  n2[0] = 1;
  const Bytes msg(64, 0);
  EXPECT_NE(chacha20_xor(key, n1, 0, msg), chacha20_xor(key, n2, 0, msg));
}

// ---------------------------------------------------------------- BigUInt

TEST(BigUInt, ByteRoundTrip) {
  Bytes le(32, 0);
  le[0] = 0xef;
  le[31] = 0x12;
  const BigUInt a = BigUInt::from_le_bytes(le);
  EXPECT_EQ(a.to_le_bytes32(), le);
}

TEST(BigUInt, AddSubInverse) {
  util::Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const BigUInt a = BigUInt::from_le_bytes(rng.next_bytes(32));
    const BigUInt b = BigUInt::from_le_bytes(rng.next_bytes(32));
    const BigUInt sum = BigUInt::add(a, b);
    EXPECT_EQ(BigUInt::sub(sum, b), a);
    EXPECT_EQ(BigUInt::sub(sum, a), b);
  }
}

TEST(BigUInt, MulMatchesRepeatedAdd) {
  const BigUInt a(123456789);
  BigUInt acc;
  for (int i = 0; i < 37; ++i) acc = BigUInt::add(acc, a);
  EXPECT_EQ(BigUInt::mul256(a, BigUInt(37)), acc);
}

TEST(BigUInt, ModBasics) {
  const BigUInt m(97);
  EXPECT_EQ(BigUInt::mod(BigUInt(100), m), BigUInt(3));
  EXPECT_EQ(BigUInt::mod(BigUInt(97), m), BigUInt(0));
  EXPECT_EQ(BigUInt::mod(BigUInt(5), m), BigUInt(5));
}

TEST(BigUInt, ModDistributesOverMul) {
  util::Rng rng(6);
  const BigUInt m = group_order();
  for (int i = 0; i < 20; ++i) {
    const BigUInt a = BigUInt::mod(BigUInt::from_le_bytes(rng.next_bytes(32)), m);
    const BigUInt b = BigUInt::mod(BigUInt::from_le_bytes(rng.next_bytes(32)), m);
    // (a*b) mod m computed two ways.
    const BigUInt direct = BigUInt::mul_mod(a, b, m);
    const BigUInt via_full = BigUInt::mod(BigUInt::mul256(a, b), m);
    EXPECT_EQ(direct, via_full);
  }
}

TEST(BigUInt, NegMod) {
  const BigUInt m(97);
  EXPECT_EQ(BigUInt::neg_mod(BigUInt(0), m), BigUInt(0));
  EXPECT_EQ(BigUInt::add_mod(BigUInt(41), BigUInt::neg_mod(BigUInt(41), m), m),
            BigUInt(0));
}

TEST(BigUInt, BitLength) {
  EXPECT_EQ(BigUInt(0).bit_length(), 0u);
  EXPECT_EQ(BigUInt(1).bit_length(), 1u);
  EXPECT_EQ(BigUInt(255).bit_length(), 8u);
  EXPECT_EQ(BigUInt(256).bit_length(), 9u);
}

// ---------------------------------------------------------------- fe25519

TEST(Fe25519, ByteRoundTrip) {
  util::Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    Bytes b = rng.next_bytes(32);
    b[31] &= 0x7f;  // clear the ignored top bit
    // Values >= p are not canonical; skip them by clearing more top bits.
    b[31] &= 0x3f;
    const Fe f = fe_from_bytes(b);
    EXPECT_EQ(fe_to_bytes(f), b) << "iteration " << i;
  }
}

TEST(Fe25519, AddSubInverse) {
  util::Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    Bytes ab = rng.next_bytes(32);
    ab[31] &= 0x3f;
    Bytes bb = rng.next_bytes(32);
    bb[31] &= 0x3f;
    const Fe a = fe_from_bytes(ab);
    const Fe b = fe_from_bytes(bb);
    EXPECT_TRUE(fe_equal(fe_sub(fe_add(a, b), b), a));
  }
}

TEST(Fe25519, MulCommutativeAssociative) {
  util::Rng rng(8);
  for (int i = 0; i < 20; ++i) {
    Bytes ab = rng.next_bytes(32); ab[31] &= 0x3f;
    Bytes bb = rng.next_bytes(32); bb[31] &= 0x3f;
    Bytes cb = rng.next_bytes(32); cb[31] &= 0x3f;
    const Fe a = fe_from_bytes(ab), b = fe_from_bytes(bb), c = fe_from_bytes(cb);
    EXPECT_TRUE(fe_equal(fe_mul(a, b), fe_mul(b, a)));
    EXPECT_TRUE(fe_equal(fe_mul(fe_mul(a, b), c), fe_mul(a, fe_mul(b, c))));
  }
}

TEST(Fe25519, InvertIsInverse) {
  util::Rng rng(9);
  for (int i = 0; i < 10; ++i) {
    Bytes ab = rng.next_bytes(32);
    ab[31] &= 0x3f;
    ab[0] |= 1;  // ensure nonzero
    const Fe a = fe_from_bytes(ab);
    EXPECT_TRUE(fe_equal(fe_mul(a, fe_invert(a)), fe_one()));
  }
}

TEST(Fe25519, SqrtMinusOneSquaresToMinusOne) {
  const Fe i = fe_sqrt_m1();
  EXPECT_TRUE(fe_equal(fe_sq(i), fe_neg(fe_one())));
}

TEST(Fe25519, SqrtOfSquares) {
  util::Rng rng(10);
  for (int i = 0; i < 10; ++i) {
    Bytes ab = rng.next_bytes(32);
    ab[31] &= 0x3f;
    const Fe a = fe_from_bytes(ab);
    const Fe a2 = fe_sq(a);
    Fe root;
    ASSERT_TRUE(fe_sqrt(a2, root));
    EXPECT_TRUE(fe_equal(fe_sq(root), a2));
  }
}

TEST(Fe25519, NonResidueHasNoRoot) {
  // 2 is a non-residue mod p iff sqrt fails; check consistency instead:
  // for u = 2, either sqrt succeeds and root^2 == 2, or it fails.
  Fe root;
  const Fe two = fe_from_u64(2);
  if (fe_sqrt(two, root)) {
    EXPECT_TRUE(fe_equal(fe_sq(root), two));
  } else {
    SUCCEED();
  }
}

// ---------------------------------------------------------------- Ed25519

TEST(Ed25519, BasePointOnCurve) {
  EXPECT_TRUE(point_on_curve(point_base()));
}

TEST(Ed25519, BasePointMatchesRfc8032Encoding) {
  // The standard compressed base point; this cross-checks our derived
  // constants against the published curve.
  EXPECT_EQ(to_hex(point_encode(point_base())),
            "5866666666666666666666666666666666666666666666666666666666666666");
}

TEST(Ed25519, IdentityIsNeutral) {
  const Point b = point_base();
  EXPECT_TRUE(point_equal(point_add(b, point_identity()), b));
  EXPECT_TRUE(point_equal(point_add(point_identity(), b), b));
}

TEST(Ed25519, AdditionCommutes) {
  const Point b = point_base();
  const Point b2 = point_double(b);
  EXPECT_TRUE(point_equal(point_add(b, b2), point_add(b2, b)));
}

TEST(Ed25519, AdditionAssociates) {
  const Point b = point_base();
  const Point p = point_mul(BigUInt(7), b);
  const Point q = point_mul(BigUInt(11), b);
  const Point r = point_mul(BigUInt(13), b);
  EXPECT_TRUE(point_equal(point_add(point_add(p, q), r),
                          point_add(p, point_add(q, r))));
}

TEST(Ed25519, NegationCancels) {
  const Point p = point_mul(BigUInt(42), point_base());
  EXPECT_TRUE(point_is_identity(point_add(p, point_neg(p))));
}

TEST(Ed25519, ScalarMulDistributes) {
  const Point b = point_base();
  // (7 + 11) * B == 7*B + 11*B
  EXPECT_TRUE(point_equal(point_mul(BigUInt(18), b),
                          point_add(point_mul(BigUInt(7), b),
                                    point_mul(BigUInt(11), b))));
}

TEST(Ed25519, GroupOrderAnnihilatesBase) {
  EXPECT_TRUE(point_is_identity(point_mul(group_order(), point_base())));
}

TEST(Ed25519, OrderMinusOneGivesNegation) {
  const BigUInt l_minus_1 = BigUInt::sub(group_order(), BigUInt(1));
  EXPECT_TRUE(point_equal(point_mul(l_minus_1, point_base()),
                          point_neg(point_base())));
}

TEST(Ed25519, FixedBaseTableMatchesGenericMul) {
  util::Rng rng(77);
  // Edge scalars plus random ones.
  std::vector<BigUInt> scalars = {BigUInt(0), BigUInt(1), BigUInt(15),
                                  BigUInt(16), BigUInt(255),
                                  BigUInt::sub(group_order(), BigUInt(1))};
  for (int i = 0; i < 20; ++i) {
    scalars.push_back(scalar_from_wide_bytes(rng.next_bytes(64)));
  }
  for (const auto& k : scalars) {
    EXPECT_TRUE(point_equal(point_mul_base(k), point_mul(k, point_base())))
        << k.to_hex();
  }
}

TEST(Ed25519, EncodeDecodeRoundTrip) {
  util::Rng rng(12);
  for (int i = 0; i < 10; ++i) {
    const BigUInt k = scalar_from_wide_bytes(rng.next_bytes(64));
    const Point p = point_mul(k, point_base());
    Point decoded;
    ASSERT_TRUE(point_decode(point_encode(p), decoded));
    EXPECT_TRUE(point_equal(p, decoded));
  }
}

TEST(Ed25519, DecodeRejectsGarbage) {
  Point p;
  EXPECT_FALSE(point_decode(Bytes(31, 0xab), p));  // wrong length
}

// ------------------------------------------------------------- Signatures

TEST(Sign, RoundTrip) {
  util::Rng rng(100);
  const KeyPair kp = generate_keypair(rng);
  const Bytes msg = to_bytes("credential payload");
  const Signature sig = sign(kp, msg);
  EXPECT_TRUE(verify(kp.public_key, msg, sig));
}

TEST(Sign, RejectsTamperedMessage) {
  util::Rng rng(101);
  const KeyPair kp = generate_keypair(rng);
  const Bytes msg = to_bytes("credential payload");
  const Signature sig = sign(kp, msg);
  Bytes tampered = msg;
  tampered[0] ^= 1;
  EXPECT_FALSE(verify(kp.public_key, tampered, sig));
}

TEST(Sign, RejectsTamperedSignature) {
  util::Rng rng(102);
  const KeyPair kp = generate_keypair(rng);
  const Bytes msg = to_bytes("credential payload");
  Signature sig = sign(kp, msg);
  for (std::size_t i = 0; i < sig.bytes.size(); i += 7) {
    Signature bad = sig;
    bad.bytes[i] ^= 0x40;
    EXPECT_FALSE(verify(kp.public_key, msg, bad)) << "flip at byte " << i;
  }
}

TEST(Sign, RejectsWrongKey) {
  util::Rng rng(103);
  const KeyPair kp1 = generate_keypair(rng);
  const KeyPair kp2 = generate_keypair(rng);
  const Bytes msg = to_bytes("credential payload");
  EXPECT_FALSE(verify(kp2.public_key, msg, sign(kp1, msg)));
}

TEST(Sign, DeterministicNonce) {
  util::Rng rng(104);
  const KeyPair kp = generate_keypair(rng);
  const Bytes msg = to_bytes("same message");
  EXPECT_EQ(sign(kp, msg).bytes, sign(kp, msg).bytes);
}

TEST(Sign, FingerprintStable) {
  util::Rng rng(105);
  const KeyPair kp = generate_keypair(rng);
  EXPECT_EQ(kp.public_key.fingerprint().size(), 16u);
  EXPECT_EQ(kp.public_key.fingerprint(), kp.public_key.fingerprint());
}

// -------------------------------------------------------------------- DH

TEST(Dh, SharedSecretAgrees) {
  util::Rng rng(200);
  const DhKeyPair a = dh_generate(rng);
  const DhKeyPair b = dh_generate(rng);
  Bytes sa, sb;
  ASSERT_TRUE(dh_shared_secret(a, b.public_point, sa));
  ASSERT_TRUE(dh_shared_secret(b, a.public_point, sb));
  EXPECT_EQ(sa, sb);
}

TEST(Dh, DifferentPeersDifferentSecret) {
  util::Rng rng(201);
  const DhKeyPair a = dh_generate(rng);
  const DhKeyPair b = dh_generate(rng);
  const DhKeyPair c = dh_generate(rng);
  Bytes sab, sac;
  ASSERT_TRUE(dh_shared_secret(a, b.public_point, sab));
  ASSERT_TRUE(dh_shared_secret(a, c.public_point, sac));
  EXPECT_NE(sab, sac);
}

TEST(Dh, RejectsGarbagePeerKey) {
  util::Rng rng(202);
  const DhKeyPair a = dh_generate(rng);
  Bytes out;
  EXPECT_FALSE(dh_shared_secret(a, Bytes(5, 1), out));
}

TEST(Dh, DerivedKeysDifferByLabel) {
  util::Rng rng(203);
  const DhKeyPair a = dh_generate(rng);
  const DhKeyPair b = dh_generate(rng);
  Bytes secret;
  ASSERT_TRUE(dh_shared_secret(a, b.public_point, secret));
  EXPECT_NE(derive_channel_key(secret, "c2s"), derive_channel_key(secret, "s2c"));
}

}  // namespace
}  // namespace psf::crypto
