// Whole-deployment analysis (DESIGN.md §4l): reachability over the Table 4
// role→view matrices and the live dRBAC repository (PSA080), matrix gaps
// (PSA081), first-match shadowing (PSA082), default-view exposure inversion
// (PSA083), per-call-site monomorphism facts, the deployment-v1 JSON report,
// and VIG's generation-time inline-cache seeding from those facts.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/deployment.hpp"
#include "drbac/credential.hpp"
#include "drbac/repository.hpp"
#include "mail/components.hpp"
#include "minilang/interp.hpp"
#include "util/rng.hpp"
#include "views/vig.hpp"

namespace psf {
namespace {

using analysis::AccessRule;
using analysis::CallSiteFact;
using analysis::DeployedView;
using analysis::DeploymentInput;
using analysis::DeploymentResult;
using analysis::Diagnostic;
using analysis::ServiceMatrix;
using minilang::Value;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string fixture(const std::string& name) {
  return read_file(std::string(PSF_DEPLOYMENT_FIXTURE_DIR) + "/" + name);
}

views::ViewDefinition parse_view(const std::string& xml) {
  auto def = views::ViewDefinition::from_xml(xml);
  EXPECT_TRUE(def.ok()) << (def.ok() ? "" : def.error().message);
  return def.value();
}

std::set<std::string> codes_of(const DeploymentResult& result) {
  std::set<std::string> codes;
  for (const Diagnostic& d : result.diagnostics) codes.insert(d.code);
  return codes;
}

// The builtin mail deployment as mail::build_scenario wires it: client
// views behind the "mail" matrix with the anonymous default, the server
// cache behind "mailbox", the replica pinned by the planner. Roles carry a
// fixed fingerprint; tests that need provability checks add a repository.
struct TestDeployment {
  minilang::ClassRegistry registry;
  drbac::Entity comp;
  DeploymentInput input;

  TestDeployment() : comp(make_comp()) {
    mail::register_all(registry);
    input.registry = &registry;
    input.views = {
        {parse_view(mail::view_xml_member()), false},
        {parse_view(mail::view_xml_partner()), false},
        {parse_view(mail::view_xml_anonymous()), false},
        {parse_view(mail::view_xml_mail_server_cache()), false},
        {parse_view(mail::view_xml_client_replica()), true},
    };
    ServiceMatrix mail_service;
    mail_service.service = "mail";
    mail_service.rules = {{role("Member"), "ViewMailClient_Member"},
                          {role("Partner"), "ViewMailClient_Partner"}};
    mail_service.default_view = "ViewMailClient_Anonymous";
    ServiceMatrix mailbox;
    mailbox.service = "mailbox";
    mailbox.rules = {{role("Member"), "ViewMailServer"}};
    input.services = {mail_service, mailbox};
  }

  drbac::RoleRef role(const std::string& name) const {
    return drbac::role_of(comp, name);
  }

 private:
  static drbac::Entity make_comp() {
    util::Rng rng(7);
    return drbac::Entity::create("Comp.NY", rng);
  }
};

// ----------------------------------------------------------- reachability

TEST(Deployment, CleanBuiltinDeploymentHasNoFindings) {
  TestDeployment d;
  const DeploymentResult result = analysis::analyze_deployment(d.input);
  EXPECT_TRUE(result.diagnostics.empty())
      << result.diagnostics.front().display();
  EXPECT_EQ(result.errors, 0u);
  for (const auto& reach : result.reachability) {
    EXPECT_TRUE(reach.reachable) << reach.view;
  }
}

TEST(Deployment, UnservedViewIsDead) {
  TestDeployment d;
  d.input.views.push_back({parse_view(fixture("dead_view.xml")), false});
  const DeploymentResult result = analysis::analyze_deployment(d.input);
  ASSERT_TRUE(codes_of(result).count("PSA080"));
  bool found = false;
  for (const auto& reach : result.reachability) {
    if (reach.view != "ViewMailClient_Dead") continue;
    found = true;
    EXPECT_FALSE(reach.reachable);
  }
  EXPECT_TRUE(found);
  // Warnings, not errors: a dead view wastes resources but serves nobody
  // anything they should not see.
  EXPECT_EQ(result.errors, 0u);
}

TEST(Deployment, PinnedViewIsNeverDead) {
  TestDeployment d;  // the replica has no matrix row, only the pin
  const DeploymentResult result = analysis::analyze_deployment(d.input);
  for (const auto& reach : result.reachability) {
    if (reach.view != "ViewMailClientReplica") continue;
    EXPECT_TRUE(reach.pinned);
    EXPECT_TRUE(reach.reachable);
  }
  EXPECT_FALSE(codes_of(result).count("PSA080"));
}

TEST(Deployment, RuleToUnknownViewIsMatrixGapError) {
  TestDeployment d;
  d.input.services[0].rules.push_back({d.role("Auditor"), "NoSuchView"});
  const DeploymentResult result = analysis::analyze_deployment(d.input);
  ASSERT_TRUE(codes_of(result).count("PSA081"));
  EXPECT_GE(result.errors, 1u);
  const Diagnostic* gap = nullptr;
  for (const auto& diag : result.diagnostics) {
    if (diag.code == "PSA081") gap = &diag;
  }
  ASSERT_NE(gap, nullptr);
  EXPECT_EQ(gap->severity, analysis::Severity::kError);
  EXPECT_NE(gap->message.find("NoSuchView"), std::string::npos);
}

TEST(Deployment, UnknownDefaultViewIsMatrixGapError) {
  TestDeployment d;
  d.input.services[0].default_view = "GhostView";
  const DeploymentResult result = analysis::analyze_deployment(d.input);
  EXPECT_TRUE(codes_of(result).count("PSA081"));
  EXPECT_GE(result.errors, 1u);
}

TEST(Deployment, DuplicateRoleRowIsShadowedGrant) {
  TestDeployment d;
  // Second Member row in the mail matrix: first match wins, so this row can
  // never be selected — and it must not make the partner view reachable.
  d.input.services[0].rules.push_back(
      {d.role("Member"), "ViewMailClient_Partner"});
  // Drop the original partner row so the shadowed row is its only mention.
  d.input.services[0].rules.erase(d.input.services[0].rules.begin() + 1);
  const DeploymentResult result = analysis::analyze_deployment(d.input);
  EXPECT_TRUE(codes_of(result).count("PSA082"));
  EXPECT_TRUE(codes_of(result).count("PSA080"));  // partner now dead
  for (const auto& reach : result.reachability) {
    if (reach.view == "ViewMailClient_Partner") {
      EXPECT_FALSE(reach.reachable);
    }
  }
}

TEST(Deployment, ShadowingIsPerService) {
  TestDeployment d;  // Member appears in both matrices already: no finding
  const DeploymentResult result = analysis::analyze_deployment(d.input);
  EXPECT_FALSE(codes_of(result).count("PSA082"));
}

// ------------------------------------------------- credential provability

TEST(Deployment, UnprovableRoleDoesNotServeItsView) {
  TestDeployment d;
  drbac::Repository repository;
  util::Rng rng(11);
  drbac::Entity alice = drbac::Entity::create("alice", rng);
  // Only Member is grounded; Partner has no delegation at all.
  repository.add(drbac::issue(d.comp, drbac::Principal::of_entity(alice),
                              d.role("Member"), {}, false, 0, 0,
                              repository.next_serial()));
  d.input.repository = &repository;
  const DeploymentResult result = analysis::analyze_deployment(d.input);
  EXPECT_TRUE(codes_of(result).count("PSA080"));
  for (const auto& reach : result.reachability) {
    if (reach.view == "ViewMailClient_Partner") {
      EXPECT_FALSE(reach.reachable);
    }
    if (reach.view == "ViewMailClient_Member") {
      EXPECT_TRUE(reach.reachable);
    }
  }
  // The per-view credential pass reports the dead ACL row too.
  bool psa070 = false;
  for (const auto& per_view : result.per_view) {
    for (const auto& diag : per_view.diagnostics) {
      psa070 = psa070 || diag.code == "PSA070";
    }
  }
  EXPECT_TRUE(psa070);
}

TEST(Deployment, RevokedGrantKillsReachability) {
  TestDeployment d;
  drbac::Repository repository;
  util::Rng rng(13);
  drbac::Entity bob = drbac::Entity::create("bob", rng);
  const std::uint64_t serial = repository.next_serial();
  repository.add(drbac::issue(d.comp, drbac::Principal::of_entity(bob),
                              d.role("Member"), {}, false, 0, 0, serial));
  repository.revoke(serial);
  d.input.repository = &repository;
  const DeploymentResult result = analysis::analyze_deployment(d.input);
  for (const auto& reach : result.reachability) {
    if (reach.view == "ViewMailClient_Member") {
      EXPECT_FALSE(reach.reachable);
    }
  }
}

// ------------------------------------------------------ exposure inversion

TEST(Deployment, DefaultServingRemovedMemberIsInversion) {
  TestDeployment d;
  d.input.views.push_back({parse_view(fixture("remove_leak.xml")), false});
  d.input.services[0].rules.push_back(
      {d.role("Auditor"), "ViewMailClient_RemoveLeak"});
  const DeploymentResult result = analysis::analyze_deployment(d.input);
  ASSERT_TRUE(codes_of(result).count("PSA083"));
  const Diagnostic* inversion = nullptr;
  for (const auto& diag : result.diagnostics) {
    if (diag.code == "PSA083") inversion = &diag;
  }
  ASSERT_NE(inversion, nullptr);
  EXPECT_EQ(inversion->span.view, "ViewMailClient_Anonymous");
  EXPECT_EQ(inversion->span.where, "method getPhone");
}

TEST(Deployment, StrongerDefaultBindingIsInversion) {
  TestDeployment d;
  // Invert the bindings: a service whose *default* serves AddressI locally
  // while the role-gated view only gets the switchboard stub.
  ServiceMatrix inverted;
  inverted.service = "inverted";
  inverted.rules = {{d.role("Member"), "ViewMailClient_Anonymous"}};
  inverted.default_view = "ViewMailClient_Member";  // AddressI local
  d.input.services.push_back(inverted);
  const DeploymentResult result = analysis::analyze_deployment(d.input);
  bool binding_inversion = false;
  for (const auto& diag : result.diagnostics) {
    binding_inversion =
        binding_inversion ||
        (diag.code == "PSA083" &&
         diag.message.find("stronger binding") != std::string::npos);
  }
  EXPECT_TRUE(binding_inversion);
}

TEST(Deployment, NarrowerGatedViewIsNotInversion) {
  TestDeployment d;
  // The anonymous default exposes only AddressI via switchboard; the member
  // view exposes strictly more — no finding in the builtin wiring.
  const DeploymentResult result = analysis::analyze_deployment(d.input);
  EXPECT_FALSE(codes_of(result).count("PSA083"));
}

// ------------------------------------------------------ monomorphism facts

TEST(Deployment, MemberCallOnUniqueDeclarerIsMonomorphic) {
  TestDeployment d;
  d.input.views.push_back({parse_view(fixture("dead_view.xml")), false});
  const DeploymentResult result = analysis::analyze_deployment(d.input);
  const CallSiteFact* fact = nullptr;
  for (const auto& site : result.call_sites) {
    if (site.member == "addAccount") fact = &site;
  }
  ASSERT_NE(fact, nullptr);
  EXPECT_TRUE(fact->monomorphic);
  EXPECT_EQ(fact->receiver_class, "MailClient");
  EXPECT_EQ(fact->view, "ViewMailClient_Dead");
  EXPECT_EQ(fact->method, "relayAccount");
}

TEST(Deployment, SharedMemberNameIsPolymorphic) {
  TestDeployment d;
  // getPhone resolves on MailClient, MailServer, and several view models —
  // any site calling it must not be treated as monomorphic.
  d.input.views.push_back({parse_view(R"(
      <View name="ViewPhoneProbe">
        <Represents name="MailClient"/>
        <Restricts><Interface name="AddressI" type="switchboard"/></Restricts>
        <Adds_Methods>
          <MSign>constructor()</MSign>
          <MBody><![CDATA[return null;]]></MBody>
          <MSign>probe(target, name)</MSign>
          <MBody><![CDATA[return target.getPhone(name);]]></MBody>
        </Adds_Methods>
      </View>)"),
                           false});
  const DeploymentResult result = analysis::analyze_deployment(d.input);
  const CallSiteFact* fact = nullptr;
  for (const auto& site : result.call_sites) {
    if (site.view == "ViewPhoneProbe" && site.member == "getPhone") {
      fact = &site;
    }
  }
  ASSERT_NE(fact, nullptr);
  EXPECT_FALSE(fact->monomorphic);
  EXPECT_EQ(fact->receiver_class, "");
}

// ---------------------------------------------------------------- reports

TEST(Deployment, JsonIsStableAndSchemaTagged) {
  TestDeployment d;
  d.input.views.push_back({parse_view(fixture("dead_view.xml")), false});
  const std::string first = analysis::analyze_deployment(d.input).json();
  const std::string second = analysis::analyze_deployment(d.input).json();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.rfind("{\"schema\":\"deployment-v1\"", 0), 0u);
  EXPECT_NE(first.find("\"dead_views\":[\"ViewMailClient_Dead\"]"),
            std::string::npos);
  EXPECT_NE(first.find("\"call_sites\":["), std::string::npos);
}

TEST(Deployment, DiagnosticsSortedByStableKey) {
  TestDeployment d;
  d.input.views.push_back({parse_view(fixture("dead_view.xml")), false});
  d.input.views.push_back({parse_view(fixture("remove_leak.xml")), false});
  d.input.services[0].rules.push_back(
      {d.role("Auditor"), "ViewMailClient_RemoveLeak"});
  d.input.services[0].rules.push_back({d.role("Auditor"), "NoSuchView"});
  const DeploymentResult result = analysis::analyze_deployment(d.input);
  ASSERT_GE(result.diagnostics.size(), 3u);
  for (std::size_t i = 1; i < result.diagnostics.size(); ++i) {
    const Diagnostic& a = result.diagnostics[i - 1];
    const Diagnostic& b = result.diagnostics[i];
    EXPECT_LE(std::tie(a.code, a.span.view, a.span.where, a.span.line),
              std::tie(b.code, b.span.view, b.span.where, b.span.line));
  }
}

// ------------------------------------------------- VIG inline-cache seeding

TEST(Deployment, VigSeedsInlineCachesFromFacts) {
  TestDeployment d;
  d.input.views.push_back({parse_view(fixture("dead_view.xml")), false});
  const DeploymentResult analysis_result =
      analysis::analyze_deployment(d.input);

  minilang::ClassRegistry registry;
  mail::register_all(registry);
  views::VigOptions options;
  options.deployment_facts = &analysis_result.call_sites;
  options.strip = false;  // relayAccount is interface-dead; keep the site
  views::Vig seeded_vig(&registry, options);
  auto cls = seeded_vig.generate(parse_view(fixture("dead_view.xml")));
  ASSERT_TRUE(cls.ok()) << cls.error().message;
  EXPECT_GE(seeded_vig.stats().caches_seeded, 1u);

  // A seeded cache must behave exactly like a cold one: the right receiver
  // hits, everything else falls back to the named slow path.
  auto view = minilang::instantiate(registry, cls.value()->name);
  auto client = minilang::instantiate(registry, "MailClient");
  const Value ok = view->call(
      "relayAccount", {Value::object(client), Value::string("dana"),
                       Value::string("555"), Value::string("dana@x")});
  EXPECT_TRUE(ok.is_null());
  EXPECT_EQ(client->call("getPhone", {Value::string("dana")})
                .to_display_string(),
            "555");

  // Guard miss: a receiver of a different class (MailServer has no
  // addAccount) gets the same error as the same view generated without
  // facts, whose cache starts cold.
  auto guard_miss_error = [](minilang::ClassRegistry& reg,
                             const std::string& view_class) {
    auto v = minilang::instantiate(reg, view_class);
    auto server = minilang::instantiate(reg, "MailServer");
    try {
      v->call("relayAccount", {Value::object(server), Value::string("x"),
                               Value::string("y"), Value::string("z")});
    } catch (const minilang::EvalError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  minilang::ClassRegistry cold_registry;
  mail::register_all(cold_registry);
  views::VigOptions cold_options;
  cold_options.strip = false;
  views::Vig cold_vig(&cold_registry, cold_options);
  auto cold_cls = cold_vig.generate(parse_view(fixture("dead_view.xml")));
  ASSERT_TRUE(cold_cls.ok()) << cold_cls.error().message;
  EXPECT_EQ(cold_vig.stats().caches_seeded, 0u);
  const std::string seeded_error =
      guard_miss_error(registry, cls.value()->name);
  EXPECT_FALSE(seeded_error.empty());
  EXPECT_EQ(seeded_error,
            guard_miss_error(cold_registry, cold_cls.value()->name));
}

TEST(Deployment, SeedingRefusesFactsTheClassCannotBack) {
  minilang::ClassRegistry registry;
  mail::register_all(registry);
  // A wrong fact: claims the addAccount site resolves on MailServer, which
  // has no such method. Seeding must refuse (and dispatch still works).
  std::vector<CallSiteFact> facts{{"ViewMailClient_Dead", "relayAccount",
                                   "addAccount", 1, true, "MailServer"}};
  views::VigOptions options;
  options.deployment_facts = &facts;
  options.strip = false;
  views::Vig vig(&registry, options);
  auto cls = vig.generate(parse_view(fixture("dead_view.xml")));
  ASSERT_TRUE(cls.ok()) << cls.error().message;
  EXPECT_EQ(vig.stats().caches_seeded, 0u);

  auto view = minilang::instantiate(registry, cls.value()->name);
  auto client = minilang::instantiate(registry, "MailClient");
  const Value ok = view->call(
      "relayAccount", {Value::object(client), Value::string("eve"),
                       Value::string("111"), Value::string("eve@x")});
  EXPECT_TRUE(ok.is_null());
}

TEST(Deployment, RoleProvableFollowsDelegationChains) {
  util::Rng rng(17);
  drbac::Entity comp = drbac::Entity::create("Comp.NY", rng);
  drbac::Entity branch = drbac::Entity::create("Comp.SD", rng);
  drbac::Entity carol = drbac::Entity::create("carol", rng);
  drbac::Repository repository;
  // Comp.SD.Member -> Comp.NY.Member (role-to-role), carol -> Comp.SD.Member.
  repository.add(drbac::issue(
      comp, drbac::Principal::of_role(branch, "Member"),
      drbac::role_of(comp, "Member"), {}, false, 0, 0,
      repository.next_serial()));
  EXPECT_FALSE(analysis::role_provable(repository,
                                       drbac::role_of(comp, "Member")))
      << "role-to-role chain with no grounded subject";
  repository.add(drbac::issue(branch, drbac::Principal::of_entity(carol),
                              drbac::role_of(branch, "Member"), {}, false, 0,
                              0, repository.next_serial()));
  EXPECT_TRUE(analysis::role_provable(repository,
                                      drbac::role_of(comp, "Member")));
}

}  // namespace
}  // namespace psf
