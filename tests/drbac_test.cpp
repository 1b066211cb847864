#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "drbac/attribute.hpp"
#include "drbac/credential.hpp"
#include "drbac/engine.hpp"
#include "drbac/entity.hpp"
#include "drbac/repository.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace psf::drbac {
namespace {

using util::SimTime;

// -------------------------------------------------------------- Attributes

TEST(Attribute, ParseRange) {
  auto a = parse_attribute("Trust=(0,10)");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->kind, Attribute::Kind::kRange);
  EXPECT_EQ(a->lo, 0);
  EXPECT_EQ(a->hi, 10);
  EXPECT_EQ(a->to_string(), "Trust=(0,10)");
}

TEST(Attribute, ParseSet) {
  auto a = parse_attribute("Secure={true,false}");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->kind, Attribute::Kind::kSet);
  EXPECT_EQ(a->set_values.size(), 2u);
  EXPECT_EQ(a->to_string(), "Secure={false,true}");  // set order
}

TEST(Attribute, ParseScalarAsCap) {
  auto a = parse_attribute("CPU=100");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->kind, Attribute::Kind::kRange);
  EXPECT_EQ(a->lo, 0);
  EXPECT_EQ(a->hi, 100);
}

TEST(Attribute, ParseWithSpaces) {
  auto a = parse_attribute(" Trust = (3, 7) ");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->lo, 3);
  EXPECT_EQ(a->hi, 7);
}

TEST(Attribute, ParseRejectsMalformed) {
  EXPECT_FALSE(parse_attribute("NoEquals").has_value());
  EXPECT_FALSE(parse_attribute("=5").has_value());
  EXPECT_FALSE(parse_attribute("X=").has_value());
  EXPECT_FALSE(parse_attribute("X={}").has_value());
  EXPECT_FALSE(parse_attribute("X=(5)").has_value());
  EXPECT_FALSE(parse_attribute("X=(9,2)").has_value());  // inverted range
  EXPECT_FALSE(parse_attribute("X=12abc").has_value());
}

TEST(Attribute, IntersectRanges) {
  auto r = intersect(Attribute::make_range("T", 0, 10),
                     Attribute::make_range("T", 5, 20));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->lo, 5);
  EXPECT_EQ(r->hi, 10);
}

TEST(Attribute, IntersectDisjointRangesEmpty) {
  EXPECT_FALSE(intersect(Attribute::make_range("T", 0, 3),
                         Attribute::make_range("T", 5, 9))
                   .has_value());
}

TEST(Attribute, IntersectSets) {
  auto r = intersect(Attribute::make_set("S", {"a", "b", "c"}),
                     Attribute::make_set("S", {"b", "c", "d"}));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->set_values, (std::set<std::string>{"b", "c"}));
}

TEST(Attribute, IntersectMismatchedNamesOrKinds) {
  EXPECT_FALSE(intersect(Attribute::make_range("A", 0, 1),
                         Attribute::make_range("B", 0, 1))
                   .has_value());
  EXPECT_FALSE(intersect(Attribute::make_range("A", 0, 1),
                         Attribute::make_set("A", {"x"}))
                   .has_value());
}

TEST(Attribute, AttenuateKeepsDisjointNames) {
  AttributeMap chain{{"CPU", Attribute::make_cap("CPU", 100)}};
  AttributeMap next{{"Trust", Attribute::make_range("Trust", 0, 5)}};
  auto out = attenuate(chain, next);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->size(), 2u);
}

TEST(Attribute, AttenuateNarrowsCommonNames) {
  // Paper Table 2: Comp.NY.Executable CPU=100 chained through
  // Comp.SD.Executable CPU=80 yields an effective cap of 80.
  AttributeMap chain{{"CPU", Attribute::make_cap("CPU", 100)}};
  AttributeMap next{{"CPU", Attribute::make_cap("CPU", 80)}};
  auto out = attenuate(chain, next);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->at("CPU").hi, 80);
}

TEST(Attribute, AttenuateEmptyIntersectionFails) {
  AttributeMap chain{{"S", Attribute::make_set("S", {"a"})}};
  AttributeMap next{{"S", Attribute::make_set("S", {"b"})}};
  EXPECT_FALSE(attenuate(chain, next).has_value());
}

TEST(Attribute, SatisfiesSubset) {
  AttributeMap granted{{"Secure", Attribute::make_set("Secure", {"true", "false"})},
                       {"Trust", Attribute::make_range("Trust", 0, 10)}};
  AttributeMap required{{"Secure", Attribute::make_set("Secure", {"true"})},
                        {"Trust", Attribute::make_range("Trust", 5, 5)}};
  EXPECT_TRUE(satisfies(granted, required));
}

TEST(Attribute, SatisfiesFailsOnMissingAttr) {
  AttributeMap granted{};
  AttributeMap required{{"Secure", Attribute::make_set("Secure", {"true"})}};
  EXPECT_FALSE(satisfies(granted, required));
}

TEST(Attribute, SatisfiesFailsOnNarrowGrant) {
  AttributeMap granted{{"Trust", Attribute::make_range("Trust", 0, 1)}};
  AttributeMap required{{"Trust", Attribute::make_range("Trust", 5, 5)}};
  EXPECT_FALSE(satisfies(granted, required));
}

TEST(Attribute, EmptyRequirementAlwaysSatisfied) {
  EXPECT_TRUE(satisfies({}, {}));
}

// -------------------------------------------------------------- Credential

struct World {
  util::Rng rng{42};
  Entity comp_ny = Entity::create("Comp.NY", rng);
  Entity comp_sd = Entity::create("Comp.SD", rng);
  Entity inc_se = Entity::create("Inc.SE", rng);
  Entity mail = Entity::create("Mail", rng);
  Entity dell = Entity::create("Dell", rng);
  Entity ibm = Entity::create("IBM", rng);
  Entity alice = Entity::create("Alice", rng);
  Entity bob = Entity::create("Bob", rng);
  Entity charlie = Entity::create("Charlie", rng);
  Repository repo;

  DelegationPtr add(const Entity& issuer, const Principal& subject,
                    const RoleRef& target, AttributeMap attrs = {},
                    bool assignment = false, SimTime expires = 0) {
    auto d = issue(issuer, subject, target, std::move(attrs), assignment,
                   /*issued_at=*/0, expires, repo.next_serial());
    repo.add(d);
    return d;
  }
};

TEST(Credential, SignatureVerifies) {
  World w;
  auto d = issue(w.comp_ny, Principal::of_entity(w.alice),
                 role_of(w.comp_ny, "Member"), {}, false, 0, 0, 1);
  EXPECT_TRUE(d->verify_signature());
}

TEST(Credential, TamperedPayloadFailsVerification) {
  World w;
  auto d = issue(w.comp_ny, Principal::of_entity(w.alice),
                 role_of(w.comp_ny, "Member"), {}, false, 0, 0, 1);
  Delegation tampered = *d;
  tampered.subject = Principal::of_entity(w.bob);  // swap the subject
  EXPECT_FALSE(tampered.verify_signature());
}

TEST(Credential, TamperedAttributesFailVerification) {
  World w;
  auto d = issue(w.comp_sd, Principal::of_entity(w.bob),
                 role_of(w.comp_sd, "Executable"),
                 {{"CPU", Attribute::make_cap("CPU", 40)}}, false, 0, 0, 1);
  Delegation tampered = *d;
  tampered.attributes["CPU"] = Attribute::make_cap("CPU", 100);  // escalate
  EXPECT_FALSE(tampered.verify_signature());
}

TEST(Credential, TypeClassificationMatchesTable1) {
  World w;
  // Self-certifying: [Alice -> Comp.NY.Member] Comp.NY
  auto self_cert = issue(w.comp_ny, Principal::of_entity(w.alice),
                         role_of(w.comp_ny, "Member"), {}, false, 0, 0, 1);
  EXPECT_EQ(self_cert->type(), DelegationType::kSelfCertifying);

  // Third-party: [Inc.SE.Member -> Comp.NY.Partner] Comp.SD
  auto third = issue(w.comp_sd, Principal::of_role(w.inc_se, "Member"),
                     role_of(w.comp_ny, "Partner"), {}, false, 0, 0, 2);
  EXPECT_EQ(third->type(), DelegationType::kThirdParty);

  // Assignment: [Comp.SD -> Comp.NY.Partner '] Comp.NY
  auto assign = issue(w.comp_ny, Principal::of_entity(w.comp_sd),
                      role_of(w.comp_ny, "Partner"), {}, true, 0, 0, 3);
  EXPECT_EQ(assign->type(), DelegationType::kAssignment);
}

TEST(Credential, DisplayMatchesPaperNotation) {
  World w;
  auto d = issue(w.comp_ny, Principal::of_role(w.comp_sd, "Member"),
                 role_of(w.comp_ny, "Member"), {}, false, 0, 0, 1);
  EXPECT_EQ(d->display(), "[ Comp.SD.Member -> Comp.NY.Member ] Comp.NY");

  auto a = issue(w.comp_ny, Principal::of_entity(w.comp_sd),
                 role_of(w.comp_ny, "Partner"), {}, true, 0, 0, 2);
  EXPECT_EQ(a->display(), "[ Comp.SD -> Comp.NY.Partner ' ] Comp.NY");

  auto with_attrs = issue(
      w.mail, Principal::of_role(w.dell, "Linux"), role_of(w.mail, "Node"),
      {{"Secure", Attribute::make_set("Secure", {"true", "false"})},
       {"Trust", Attribute::make_range("Trust", 0, 10)}},
      false, 0, 0, 3);
  EXPECT_EQ(with_attrs->display(),
            "[ Dell.Linux -> Mail.Node ] Mail with Secure={false,true} "
            "Trust=(0,10)");
}

TEST(Credential, ExpiryIsChecked) {
  World w;
  auto d = issue(w.comp_ny, Principal::of_entity(w.alice),
                 role_of(w.comp_ny, "Member"), {}, false, 0,
                 /*expires_at=*/100, 1);
  EXPECT_FALSE(d->expired_at(50));
  EXPECT_FALSE(d->expired_at(100));
  EXPECT_TRUE(d->expired_at(101));
}

// -------------------------------------------------------------- Repository

TEST(Repository, IndexesByTargetAndSubject) {
  World w;
  auto d = w.add(w.comp_ny, Principal::of_entity(w.alice),
                 role_of(w.comp_ny, "Member"));
  EXPECT_EQ(w.repo.by_target(role_of(w.comp_ny, "Member")).size(), 1u);
  EXPECT_EQ(w.repo.by_subject(Principal::of_entity(w.alice)).size(), 1u);
  EXPECT_TRUE(w.repo.by_target(role_of(w.comp_ny, "Partner")).empty());
  EXPECT_EQ(w.repo.size(), 1u);
  EXPECT_EQ(d->serial, 1u);
}

TEST(Repository, DiscoveryTagsFilterQueries) {
  World w;
  DiscoveryTags tags;
  tags.searchable_from_object = false;
  auto d = issue(w.comp_ny, Principal::of_entity(w.alice),
                 role_of(w.comp_ny, "Member"), {}, false, 0, 0,
                 w.repo.next_serial(), tags);
  w.repo.add(d);
  EXPECT_TRUE(w.repo.by_target(role_of(w.comp_ny, "Member")).empty());
  EXPECT_EQ(w.repo.by_target(role_of(w.comp_ny, "Member"), false).size(), 1u);
  EXPECT_EQ(w.repo.by_subject(Principal::of_entity(w.alice)).size(), 1u);
}

TEST(Repository, RevocationNotifiesSubscribers) {
  World w;
  std::vector<std::uint64_t> seen;
  const auto sub = w.repo.subscribe([&](std::uint64_t s) { seen.push_back(s); });
  w.repo.revoke(7);
  w.repo.revoke(7);  // duplicate: no second notification
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{7}));
  EXPECT_TRUE(w.repo.is_revoked(7));
  w.repo.unsubscribe(sub);
  w.repo.revoke(9);
  EXPECT_EQ(seen.size(), 1u);
}

TEST(Repository, ReAddingIdenticalCredentialIsNoOp) {
  World w;
  auto d = w.add(w.comp_ny, Principal::of_entity(w.alice),
                 role_of(w.comp_ny, "Member"));
  Engine engine(&w.repo);
  ASSERT_TRUE(engine
                  .prove(Principal::of_entity(w.alice),
                         role_of(w.comp_ny, "Member"), 0)
                  .ok());
  const std::uint64_t epoch = w.repo.epoch();

  // The same object, and a decoded copy of the same bytes.
  EXPECT_FALSE(w.repo.add(d));
  auto copy = decode_delegation(encode_delegation(*d));
  ASSERT_TRUE(copy.ok());
  EXPECT_FALSE(w.repo.add(copy.value()));

  EXPECT_EQ(w.repo.size(), 1u);
  EXPECT_EQ(w.repo.by_target(role_of(w.comp_ny, "Member")).size(), 1u);
  EXPECT_EQ(w.repo.by_subject(Principal::of_entity(w.alice)).size(), 1u);
  EXPECT_EQ(w.repo.epoch(), epoch);
  auto& hits = obs::counter("psf.drbac.proofcache.hits");
  const std::uint64_t hits0 = hits.value();
  EXPECT_TRUE(engine
                  .prove(Principal::of_entity(w.alice),
                         role_of(w.comp_ny, "Member"), 0)
                  .ok());
  EXPECT_EQ(hits.value(), hits0 + 1);
}

TEST(Repository, ReAddedRevokedCredentialStaysRevoked) {
  World w;
  auto d = w.add(w.comp_ny, Principal::of_entity(w.alice),
                 role_of(w.comp_ny, "Member"));
  w.repo.revoke(d->serial);
  EXPECT_FALSE(w.repo.add(d));  // the holder presents it again
  EXPECT_TRUE(w.repo.is_revoked(d->serial));
  Engine engine(&w.repo);
  EXPECT_FALSE(engine
                   .prove(Principal::of_entity(w.alice),
                          role_of(w.comp_ny, "Member"), 0)
                   .ok());
}

TEST(Repository, SameSerialDifferentBytesStillStored) {
  World w;
  auto member = w.add(w.comp_ny, Principal::of_entity(w.alice),
                      role_of(w.comp_ny, "Member"));
  auto partner = issue(w.comp_ny, Principal::of_entity(w.alice),
                       role_of(w.comp_ny, "Partner"), {}, false, 0, 0,
                       member->serial);
  const std::uint64_t epoch = w.repo.epoch();
  EXPECT_TRUE(w.repo.add(partner));
  EXPECT_EQ(w.repo.size(), 2u);
  EXPECT_GT(w.repo.epoch(), epoch);
  EXPECT_EQ(w.repo.by_target(role_of(w.comp_ny, "Partner")).size(), 1u);
}

TEST(Repository, ConcurrentIdenticalAddsStoreOnce) {
  World w;
  auto d = issue(w.comp_ny, Principal::of_entity(w.alice),
                 role_of(w.comp_ny, "Member"), {}, false, 0, 0,
                 w.repo.next_serial());
  const std::uint64_t epoch = w.repo.epoch();
  std::atomic<int> stored{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      if (w.repo.add(d)) ++stored;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(stored.load(), 1);
  EXPECT_EQ(w.repo.size(), 1u);
  EXPECT_EQ(w.repo.epoch(), epoch + 1);
}

// ------------------------------------------------------------ Proof engine

TEST(Engine, DirectCredentialProves) {
  World w;
  w.add(w.comp_ny, Principal::of_entity(w.alice), role_of(w.comp_ny, "Member"));
  Engine engine(&w.repo);
  auto proof = engine.prove(Principal::of_entity(w.alice),
                            role_of(w.comp_ny, "Member"), 0);
  ASSERT_TRUE(proof.ok()) << proof.error().message;
  EXPECT_EQ(proof.value().credentials.size(), 1u);
  EXPECT_TRUE(engine.validate(proof.value(), 0));
}

TEST(Engine, NoCredentialNoProof) {
  World w;
  Engine engine(&w.repo);
  auto proof = engine.prove(Principal::of_entity(w.bob),
                            role_of(w.comp_ny, "Member"), 0);
  EXPECT_FALSE(proof.ok());
  EXPECT_EQ(proof.error().code, "no-proof");
}

TEST(Engine, TwoHopChainBobScenario) {
  // Paper §3.3 client authorization: Bob holds (11) [Bob -> Comp.SD.Member]
  // Comp.SD, and (2) [Comp.SD.Member -> Comp.NY.Member] Comp.NY maps the
  // role across domains.
  World w;
  w.add(w.comp_sd, Principal::of_entity(w.bob), role_of(w.comp_sd, "Member"));
  w.add(w.comp_ny, Principal::of_role(w.comp_sd, "Member"),
        role_of(w.comp_ny, "Member"));
  Engine engine(&w.repo);
  auto proof = engine.prove(Principal::of_entity(w.bob),
                            role_of(w.comp_ny, "Member"), 0);
  ASSERT_TRUE(proof.ok()) << proof.error().message;
  EXPECT_EQ(proof.value().credentials.size(), 2u);
  // Chain is subject-end first.
  EXPECT_EQ(proof.value().credentials[0]->subject.display(), "Bob");
  EXPECT_EQ(proof.value().credentials[1]->target.display(), "Comp.NY.Member");
  EXPECT_TRUE(engine.validate(proof.value(), 0));
}

TEST(Engine, ThirdPartyRequiresAssignmentRight) {
  // Paper credentials (3), (12), (15): Charlie -> Inc.SE.Member (by Inc.SE),
  // Inc.SE.Member -> Comp.NY.Partner (issued by Comp.SD, a third party!),
  // valid only because of [Comp.SD -> Comp.NY.Partner '] Comp.NY.
  World w;
  w.add(w.inc_se, Principal::of_entity(w.charlie),
        role_of(w.inc_se, "Member"));  // (15)
  w.add(w.comp_sd, Principal::of_role(w.inc_se, "Member"),
        role_of(w.comp_ny, "Partner"));  // (12) third-party

  Engine engine(&w.repo);
  // Without the assignment credential the proof must fail.
  auto without = engine.prove(Principal::of_entity(w.charlie),
                              role_of(w.comp_ny, "Partner"), 0);
  EXPECT_FALSE(without.ok());

  w.add(w.comp_ny, Principal::of_entity(w.comp_sd),
        role_of(w.comp_ny, "Partner"), {}, /*assignment=*/true);  // (3)
  auto with = engine.prove(Principal::of_entity(w.charlie),
                           role_of(w.comp_ny, "Partner"), 0);
  ASSERT_TRUE(with.ok()) << with.error().message;
  EXPECT_EQ(with.value().credentials.size(), 2u);
  ASSERT_EQ(with.value().support.size(), 1u);
  EXPECT_TRUE(with.value().support[0]->assignment);
  EXPECT_TRUE(engine.validate(with.value(), 0));
}

TEST(Engine, AttenuationAlongChain) {
  // CPU=100 at the NY grant, capped to 80 by SD: effective cap 80.
  World w;
  Entity mail_client = Entity::create("Mail.MailClient", w.rng);
  w.add(w.comp_ny, Principal::of_entity(mail_client),
        role_of(w.comp_ny, "Executable"),
        {{"CPU", Attribute::make_cap("CPU", 100)}});  // (8)
  w.add(w.comp_sd, Principal::of_role(w.comp_ny, "Executable"),
        role_of(w.comp_sd, "Executable"),
        {{"CPU", Attribute::make_cap("CPU", 80)}});  // (14)
  Engine engine(&w.repo);
  auto proof = engine.prove(Principal::of_entity(mail_client),
                            role_of(w.comp_sd, "Executable"), 0);
  ASSERT_TRUE(proof.ok()) << proof.error().message;
  EXPECT_EQ(proof.value().effective_attributes.at("CPU").hi, 80);
}

TEST(Engine, RequiredAttributesEnforced) {
  World w;
  w.add(w.mail, Principal::of_role(w.ibm, "Windows"), role_of(w.mail, "Node"),
        {{"Secure", Attribute::make_set("Secure", {"false"})},
         {"Trust", Attribute::make_range("Trust", 0, 1)}});  // (6)
  w.add(w.ibm, Principal::of_role(w.inc_se, "PC"), role_of(w.ibm, "Windows"));  // (16)
  Entity pc_owner = w.inc_se;
  Engine engine(&w.repo);

  ProveOptions needs_secure;
  needs_secure.required = {{"Secure", Attribute::make_set("Secure", {"true"})}};
  auto fail = engine.prove(Principal::of_role(w.inc_se, "PC"),
                           role_of(w.mail, "Node"), 0, needs_secure);
  EXPECT_FALSE(fail.ok());
  EXPECT_EQ(fail.error().code, "attributes-unsatisfied");

  ProveOptions needs_low_trust;
  needs_low_trust.required = {
      {"Trust", Attribute::make_range("Trust", 0, 1)}};
  auto ok = engine.prove(Principal::of_role(w.inc_se, "PC"),
                         role_of(w.mail, "Node"), 0, needs_low_trust);
  EXPECT_TRUE(ok.ok()) << ok.error().message;
}

TEST(Engine, ExpiredCredentialUnusable) {
  World w;
  w.add(w.comp_ny, Principal::of_entity(w.alice), role_of(w.comp_ny, "Member"),
        {}, false, /*expires=*/100);
  Engine engine(&w.repo);
  EXPECT_TRUE(engine
                  .prove(Principal::of_entity(w.alice),
                         role_of(w.comp_ny, "Member"), 50)
                  .ok());
  EXPECT_FALSE(engine
                   .prove(Principal::of_entity(w.alice),
                          role_of(w.comp_ny, "Member"), 200)
                   .ok());
}

TEST(Engine, RevokedCredentialUnusable) {
  World w;
  auto d = w.add(w.comp_ny, Principal::of_entity(w.alice),
                 role_of(w.comp_ny, "Member"));
  Engine engine(&w.repo);
  auto proof = engine.prove(Principal::of_entity(w.alice),
                            role_of(w.comp_ny, "Member"), 0);
  ASSERT_TRUE(proof.ok());
  w.repo.revoke(d->serial);
  EXPECT_FALSE(engine.validate(proof.value(), 0));
  EXPECT_FALSE(engine
                   .prove(Principal::of_entity(w.alice),
                          role_of(w.comp_ny, "Member"), 0)
                   .ok());
}

TEST(Engine, RevokedSupportCredentialInvalidatesProof) {
  World w;
  w.add(w.inc_se, Principal::of_entity(w.charlie), role_of(w.inc_se, "Member"));
  w.add(w.comp_sd, Principal::of_role(w.inc_se, "Member"),
        role_of(w.comp_ny, "Partner"));
  auto assignment = w.add(w.comp_ny, Principal::of_entity(w.comp_sd),
                          role_of(w.comp_ny, "Partner"), {}, true);
  Engine engine(&w.repo);
  auto proof = engine.prove(Principal::of_entity(w.charlie),
                            role_of(w.comp_ny, "Partner"), 0);
  ASSERT_TRUE(proof.ok());
  w.repo.revoke(assignment->serial);
  EXPECT_FALSE(engine.validate(proof.value(), 0));
}

TEST(Engine, CyclicDelegationsTerminate) {
  World w;
  // A.r1 <- B.r2 <- A.r1 (cycle), plus nothing grants either to Alice.
  Entity a = Entity::create("A", w.rng);
  Entity b = Entity::create("B", w.rng);
  w.add(a, Principal::of_role(b, "r2"), role_of(a, "r1"));
  w.add(b, Principal::of_role(a, "r1"), role_of(b, "r2"));
  Engine engine(&w.repo);
  auto proof =
      engine.prove(Principal::of_entity(w.alice), role_of(a, "r1"), 0);
  EXPECT_FALSE(proof.ok());
}

TEST(Engine, DeepChainWithinDepthBound) {
  World w;
  // alice -> E0.r, Ei.r -> Ei+1.r for i in [0,10): prove alice is E9.r.
  std::vector<Entity> entities;
  for (int i = 0; i < 10; ++i) {
    entities.push_back(Entity::create("E" + std::to_string(i), w.rng));
  }
  w.add(entities[0], Principal::of_entity(w.alice), role_of(entities[0], "r"));
  for (int i = 0; i + 1 < 10; ++i) {
    w.add(entities[i + 1], Principal::of_role(entities[i], "r"),
          role_of(entities[i + 1], "r"));
  }
  Engine engine(&w.repo);
  auto proof = engine.prove(Principal::of_entity(w.alice),
                            role_of(entities[9], "r"), 0);
  ASSERT_TRUE(proof.ok()) << proof.error().message;
  EXPECT_EQ(proof.value().credentials.size(), 10u);

  ProveOptions shallow;
  shallow.max_depth = 4;
  EXPECT_FALSE(engine
                   .prove(Principal::of_entity(w.alice),
                          role_of(entities[9], "r"), 0, shallow)
                   .ok());
}

TEST(Engine, DisabledDiscoveryTagsStillProves) {
  World w;
  w.add(w.comp_sd, Principal::of_entity(w.bob), role_of(w.comp_sd, "Member"));
  w.add(w.comp_ny, Principal::of_role(w.comp_sd, "Member"),
        role_of(w.comp_ny, "Member"));
  Engine engine(&w.repo);
  ProveOptions opts;
  opts.use_discovery_tags = false;
  auto proof = engine.prove(Principal::of_entity(w.bob),
                            role_of(w.comp_ny, "Member"), 0, opts);
  EXPECT_TRUE(proof.ok());
}

TEST(Engine, ValidateRejectsForgedChainLink) {
  World w;
  w.add(w.comp_sd, Principal::of_entity(w.bob), role_of(w.comp_sd, "Member"));
  w.add(w.comp_ny, Principal::of_role(w.comp_sd, "Member"),
        role_of(w.comp_ny, "Member"));
  Engine engine(&w.repo);
  auto proof = engine.prove(Principal::of_entity(w.bob),
                            role_of(w.comp_ny, "Member"), 0);
  ASSERT_TRUE(proof.ok());

  // Swap the chain order: structural link check must fail.
  Proof broken = proof.value();
  std::swap(broken.credentials[0], broken.credentials[1]);
  EXPECT_FALSE(engine.validate(broken, 0));

  // Empty chain is invalid.
  Proof empty = proof.value();
  empty.credentials.clear();
  EXPECT_FALSE(engine.validate(empty, 0));
}

TEST(Engine, ProofDisplayListsChain) {
  World w;
  w.add(w.comp_sd, Principal::of_entity(w.bob), role_of(w.comp_sd, "Member"));
  w.add(w.comp_ny, Principal::of_role(w.comp_sd, "Member"),
        role_of(w.comp_ny, "Member"));
  Engine engine(&w.repo);
  auto proof = engine.prove(Principal::of_entity(w.bob),
                            role_of(w.comp_ny, "Member"), 0);
  ASSERT_TRUE(proof.ok());
  const std::string text = proof.value().display();
  EXPECT_NE(text.find("Bob is Comp.NY.Member"), std::string::npos);
  EXPECT_NE(text.find("[ Bob -> Comp.SD.Member ] Comp.SD"), std::string::npos);
}

// ---------------------------------------------------------- Proof monitors

TEST(ProofMonitor, FiresOnRevocationOfChainCredential) {
  World w;
  auto d1 = w.add(w.comp_sd, Principal::of_entity(w.bob),
                  role_of(w.comp_sd, "Member"));
  w.add(w.comp_ny, Principal::of_role(w.comp_sd, "Member"),
        role_of(w.comp_ny, "Member"));
  Engine engine(&w.repo);
  auto proof = engine.prove(Principal::of_entity(w.bob),
                            role_of(w.comp_ny, "Member"), 0);
  ASSERT_TRUE(proof.ok());

  int fired = 0;
  std::uint64_t revoked_serial = 0;
  ProofMonitor monitor(&w.repo, proof.value(),
                       [&](const Proof&, std::uint64_t serial) {
                         ++fired;
                         revoked_serial = serial;
                       });
  EXPECT_FALSE(monitor.invalidated());
  w.repo.revoke(d1->serial);
  EXPECT_TRUE(monitor.invalidated());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(revoked_serial, d1->serial);
}

TEST(ProofMonitor, IgnoresUnrelatedRevocations) {
  World w;
  auto d1 = w.add(w.comp_ny, Principal::of_entity(w.alice),
                  role_of(w.comp_ny, "Member"));
  auto unrelated = w.add(w.comp_ny, Principal::of_entity(w.bob),
                         role_of(w.comp_ny, "Partner"));
  Engine engine(&w.repo);
  auto proof = engine.prove(Principal::of_entity(w.alice),
                            role_of(w.comp_ny, "Member"), 0);
  ASSERT_TRUE(proof.ok());
  int fired = 0;
  ProofMonitor monitor(&w.repo, proof.value(),
                       [&](const Proof&, std::uint64_t) { ++fired; });
  w.repo.revoke(unrelated->serial);
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(monitor.invalidated());
  (void)d1;
}

TEST(ProofMonitor, UnsubscribesOnDestruction) {
  World w;
  auto d1 = w.add(w.comp_ny, Principal::of_entity(w.alice),
                  role_of(w.comp_ny, "Member"));
  Engine engine(&w.repo);
  auto proof = engine.prove(Principal::of_entity(w.alice),
                            role_of(w.comp_ny, "Member"), 0);
  ASSERT_TRUE(proof.ok());
  int fired = 0;
  {
    ProofMonitor monitor(&w.repo, proof.value(),
                         [&](const Proof&, std::uint64_t) { ++fired; });
  }
  w.repo.revoke(d1->serial);
  EXPECT_EQ(fired, 0);
}

// ---------------------------------------- Property-style parameterized sweep

// Chain-length sweep: proofs across k-hop role mappings always validate and
// attenuate CPU to the minimum cap on the chain.
class ChainLengthSweep : public ::testing::TestWithParam<int> {};

TEST_P(ChainLengthSweep, ProofFoundAndAttenuationIsMinimum) {
  const int hops = GetParam();
  util::Rng rng(1000 + hops);
  Repository repo;
  Entity user = Entity::create("User", rng);
  std::vector<Entity> guards;
  for (int i = 0; i < hops; ++i) {
    guards.push_back(Entity::create("G" + std::to_string(i), rng));
  }
  std::int64_t min_cap = 1'000'000;
  util::Rng cap_rng(7 * hops + 1);
  // user -> G0.r with some cap; Gi.r -> Gi+1.r with decreasing-ish caps.
  std::int64_t cap = 50 + static_cast<std::int64_t>(cap_rng.next_below(100));
  min_cap = std::min(min_cap, cap);
  repo.add(issue(guards[0], Principal::of_entity(user), role_of(guards[0], "r"),
                 {{"CPU", Attribute::make_cap("CPU", cap)}}, false, 0, 0,
                 repo.next_serial()));
  for (int i = 0; i + 1 < hops; ++i) {
    cap = 50 + static_cast<std::int64_t>(cap_rng.next_below(100));
    min_cap = std::min(min_cap, cap);
    repo.add(issue(guards[i + 1], Principal::of_role(guards[i], "r"),
                   role_of(guards[i + 1], "r"),
                   {{"CPU", Attribute::make_cap("CPU", cap)}}, false, 0, 0,
                   repo.next_serial()));
  }
  Engine engine(&repo);
  auto proof = engine.prove(Principal::of_entity(user),
                            role_of(guards[hops - 1], "r"), 0);
  ASSERT_TRUE(proof.ok()) << proof.error().message;
  EXPECT_EQ(proof.value().credentials.size(), static_cast<std::size_t>(hops));
  EXPECT_EQ(proof.value().effective_attributes.at("CPU").hi, min_cap);
  EXPECT_TRUE(engine.validate(proof.value(), 0));

  // Revoking any single credential on the chain kills the proof.
  const std::size_t victim =
      cap_rng.next_below(static_cast<std::uint64_t>(hops));
  repo.revoke(proof.value().credentials[victim]->serial);
  EXPECT_FALSE(engine.validate(proof.value(), 0));
}

INSTANTIATE_TEST_SUITE_P(Depths, ChainLengthSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 12));

}  // namespace
}  // namespace psf::drbac
