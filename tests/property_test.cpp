// Property-based suites over randomized inputs (DESIGN.md §6 invariants):
//  - dRBAC: on random delegation graphs, every proof the engine returns
//    re-validates, attenuation only narrows, revocation kills proofs.
//  - Network: Dijkstra path properties on random topologies.
//  - Coherence: extract/merge round-trips on random field states.
//  - Crypto: sign/verify and cipher round-trips across message sizes.
#include <gtest/gtest.h>

#include "crypto/chacha20.hpp"
#include "crypto/sign.hpp"
#include "drbac/engine.hpp"
#include "mail/components.hpp"
#include "minilang/interp.hpp"
#include "minilang/parser.hpp"
#include "switchboard/network.hpp"
#include "util/rng.hpp"
#include "views/cache.hpp"
#include "views/vig.hpp"

namespace psf {
namespace {

using drbac::Principal;
using minilang::Value;

// ------------------------------------------------- dRBAC on random graphs

class RandomGraphProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGraphProperty, ProofsSoundAttenuationMonotoneRevocationFatal) {
  util::Rng rng(GetParam());
  drbac::Repository repo;

  // Random world: `E` entities each owning role "r"; random grant edges
  // between roles; a user granted a random subset of roots.
  const int entity_count = 4 + static_cast<int>(rng.next_below(8));
  std::vector<drbac::Entity> entities;
  for (int i = 0; i < entity_count; ++i) {
    entities.push_back(
        drbac::Entity::create("E" + std::to_string(i), rng));
  }
  drbac::Entity user = drbac::Entity::create("user", rng);

  // Direct grants to the user from ~2 entities.
  for (int i = 0; i < 2; ++i) {
    const auto& owner = entities[rng.next_below(entities.size())];
    repo.add(drbac::issue(
        owner, Principal::of_entity(user), drbac::role_of(owner, "r"),
        {{"CPU", drbac::Attribute::make_cap(
                     "CPU", 50 + static_cast<std::int64_t>(rng.next_below(100)))}},
        false, 0, 0, repo.next_serial()));
  }
  // Random role-to-role mapping edges (~2x entities).
  for (int i = 0; i < 2 * entity_count; ++i) {
    const auto& from = entities[rng.next_below(entities.size())];
    const auto& to = entities[rng.next_below(entities.size())];
    repo.add(drbac::issue(
        to, Principal::of_role(from, "r"), drbac::role_of(to, "r"),
        {{"CPU", drbac::Attribute::make_cap(
                     "CPU", 30 + static_cast<std::int64_t>(rng.next_below(120)))}},
        false, 0, 0, repo.next_serial()));
  }

  drbac::Engine engine(&repo);
  int proofs_found = 0;
  for (const auto& goal_owner : entities) {
    auto proof = engine.prove(Principal::of_entity(user),
                              drbac::role_of(goal_owner, "r"), 0);
    if (!proof.ok()) continue;
    ++proofs_found;
    const drbac::Proof& p = proof.value();

    // Soundness: the engine's own validator accepts it.
    EXPECT_TRUE(engine.validate(p, 0));

    // Structural: chain links subject->...->target.
    EXPECT_TRUE(p.credentials.front()->subject ==
                Principal::of_entity(user));
    EXPECT_TRUE(p.credentials.back()->target ==
                drbac::role_of(goal_owner, "r"));

    // Attenuation monotone: the effective CPU cap never exceeds any
    // credential's cap along the chain.
    if (p.effective_attributes.count("CPU") > 0) {
      const std::int64_t effective = p.effective_attributes.at("CPU").hi;
      for (const auto& credential : p.credentials) {
        auto it = credential->attributes.find("CPU");
        if (it != credential->attributes.end()) {
          EXPECT_LE(effective, it->second.hi);
        }
      }
    }

    // Revocation of a random chain credential invalidates the proof.
    const auto& victim =
        p.credentials[rng.next_below(p.credentials.size())];
    repo.revoke(victim->serial);
    EXPECT_FALSE(engine.validate(p, 0));
  }
  // Direct grants exist, so at least one goal must be provable.
  EXPECT_GE(proofs_found, 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphProperty,
                         ::testing::Range<std::uint64_t>(1, 16));

// ------------------------------------------------- network path properties

class RandomTopologyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTopologyProperty, PathsAreConsistent) {
  util::Rng rng(GetParam() * 977);
  switchboard::Network net;
  const int host_count = 4 + static_cast<int>(rng.next_below(10));
  for (int i = 0; i < host_count; ++i) {
    net.add_host("h" + std::to_string(i));
  }
  // Random links.
  for (int i = 0; i < 2 * host_count; ++i) {
    const std::string a = "h" + std::to_string(rng.next_below(host_count));
    const std::string b = "h" + std::to_string(rng.next_below(host_count));
    if (a == b) continue;
    net.connect(a, b,
                {static_cast<util::SimTime>(1 + rng.next_below(50)) *
                     util::kMillisecond,
                 static_cast<std::int64_t>(100 + rng.next_below(1000)),
                 rng.next_below(2) == 0});
  }

  for (int i = 0; i < host_count; ++i) {
    for (int j = 0; j < host_count; ++j) {
      const std::string a = "h" + std::to_string(i);
      const std::string b = "h" + std::to_string(j);
      auto forward = net.path(a, b);
      auto backward = net.path(b, a);
      // Symmetry of reachability and optimal latency.
      EXPECT_EQ(forward.has_value(), backward.has_value());
      if (!forward.has_value()) continue;
      EXPECT_EQ(forward->latency, backward->latency);
      // Path endpoints and per-hop consistency.
      EXPECT_EQ(forward->hops.front(), a);
      EXPECT_EQ(forward->hops.back(), b);
      util::SimTime sum = 0;
      std::int64_t min_bw = 0;
      bool secure = true;
      for (std::size_t h = 0; h + 1 < forward->hops.size(); ++h) {
        auto link = net.link(forward->hops[h], forward->hops[h + 1]);
        ASSERT_TRUE(link.has_value());
        sum += link->latency;
        if (!link->secure) secure = false;
        if (link->bandwidth_kbps != 0 &&
            (min_bw == 0 || link->bandwidth_kbps < min_bw)) {
          min_bw = link->bandwidth_kbps;
        }
      }
      EXPECT_EQ(forward->latency, sum);
      EXPECT_EQ(forward->secure, secure);
      EXPECT_EQ(forward->bandwidth_kbps, min_bw);
      // Optimality vs any 2-hop alternative through a shared neighbor.
      for (int k = 0; k < host_count; ++k) {
        const std::string via = "h" + std::to_string(k);
        auto leg1 = net.link(a, via);
        auto leg2 = net.link(via, b);
        if (leg1.has_value() && leg2.has_value()) {
          EXPECT_LE(forward->latency, leg1->latency + leg2->latency);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTopologyProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

// --------------------------------------------- coherence image round-trips

class CoherenceProperty : public ::testing::TestWithParam<std::uint64_t> {};

Value random_value(util::Rng& rng, int depth = 0) {
  switch (rng.next_below(depth > 2 ? 5 : 7)) {
    case 0: return Value::null();
    case 1: return Value::boolean(rng.next_below(2) == 0);
    case 2: return Value::integer(static_cast<std::int64_t>(rng.next_u64()));
    case 3: return Value::string("s" + std::to_string(rng.next_below(1000)));
    case 4: return Value::bytes(rng.next_bytes(rng.next_below(16)));
    case 5: {
      minilang::ValueList items;
      for (std::size_t i = 0; i < rng.next_below(4); ++i) {
        items.push_back(random_value(rng, depth + 1));
      }
      return Value::list(std::move(items));
    }
    default: {
      minilang::ValueMap items;
      for (std::size_t i = 0; i < rng.next_below(4); ++i) {
        items["k" + std::to_string(i)] = random_value(rng, depth + 1);
      }
      return Value::map(std::move(items));
    }
  }
}

TEST_P(CoherenceProperty, ExtractMergeRoundTripsRandomStates) {
  util::Rng rng(GetParam() * 131);
  minilang::ClassRegistry registry;
  mail::register_all(registry);
  views::Vig vig(&registry);
  auto def = views::ViewDefinition::from_xml(mail::view_xml_member());
  ASSERT_TRUE(vig.generate(def.value()).ok());

  auto a = minilang::instantiate(registry, "ViewMailClient_Member");
  auto b = minilang::instantiate(registry, "ViewMailClient_Member");
  // Randomize a's serializable fields.
  for (const char* field : {"accounts", "inbox", "outbox", "notes", "meetings"}) {
    if (rng.next_below(2) == 0) {
      a->set_field(field, random_value(rng));
    }
  }
  const Value image = a->call("extractImageFromView", {});
  b->call("mergeImageIntoView", {image});
  for (const char* field : {"accounts", "inbox", "outbox", "notes", "meetings"}) {
    EXPECT_TRUE(b->get_field(field).equals(a->get_field(field))) << field;
  }
  // Idempotence: merging the same image twice changes nothing further. The
  // bodies (the encoded field maps) match; the headers carry each
  // instance's own uid.
  b->call("mergeImageIntoView", {image});
  const Value image_b = b->call("extractImageFromView", {});
  const auto body = [](const Value& v) {
    const util::Bytes& bytes = v.as_bytes();
    return util::Bytes(bytes.begin() + views::kImageHeaderSize, bytes.end());
  };
  EXPECT_EQ(body(image), body(image_b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoherenceProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

// ------------------------------------------------------- crypto size sweeps

class CryptoSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(CryptoSizeSweep, SignVerifyAndCipherAcrossSizes) {
  const int size = GetParam();
  util::Rng rng(size + 7);
  const util::Bytes message = rng.next_bytes(static_cast<std::size_t>(size));

  const crypto::KeyPair kp = crypto::generate_keypair(rng);
  const crypto::Signature sig = crypto::sign(kp, message);
  EXPECT_TRUE(crypto::verify(kp.public_key, message, sig));
  if (size > 0) {
    util::Bytes tampered = message;
    tampered[static_cast<std::size_t>(size) / 2] ^= 0x10;
    EXPECT_FALSE(crypto::verify(kp.public_key, tampered, sig));
  }

  crypto::ChaChaKey key{};
  std::copy_n(rng.next_bytes(32).begin(), 32, key.begin());
  crypto::ChaChaNonce nonce{};
  const util::Bytes ciphertext = crypto::chacha20_xor(key, nonce, 0, message);
  EXPECT_EQ(crypto::chacha20_xor(key, nonce, 0, ciphertext), message);
  if (size >= 8) EXPECT_NE(ciphertext, message);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CryptoSizeSweep,
                         ::testing::Values(0, 1, 63, 64, 65, 1000, 65536));

// --------------------------------------- interpreter determinism under seeds

class InterpreterDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InterpreterDeterminism, SameProgramSameResult) {
  // Interpreters share no hidden state: two registries running the same
  // random program produce identical results.
  util::Rng rng(GetParam() * 3 + 1);
  const std::int64_t a = static_cast<std::int64_t>(rng.next_below(100));
  const std::int64_t b = static_cast<std::int64_t>(rng.next_below(100)) + 1;
  const std::string source =
      "var acc = 0; var i = 0; while (i < " + std::to_string(a) +
      ") { acc = acc + i * " + std::to_string(b) +
      " % 7; i = i + 1; } return acc;";

  auto run = [&]() {
    minilang::ClassRegistry registry;
    auto cls = std::make_shared<minilang::ClassDef>();
    cls->name = "P";
    minilang::MethodDef m;
    m.name = "go";
    m.source = source;
    m.body = std::move(minilang::parse_block_source(source)).take();
    cls->methods.push_back(std::move(m));
    registry.register_class(cls);
    auto obj = minilang::instantiate(registry, "P");
    return obj->call("go", {}).as_int();
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterpreterDeterminism,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace psf
