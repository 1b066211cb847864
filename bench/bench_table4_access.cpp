// Table 4 reproduction: the access rules restricting client access to the
// mail service (role -> view), evaluated for each of the paper's users, and
// the *single sign-on* claim of §4.2: once a view is instantiated over an
// established Switchboard channel, requests proceed without additional
// access checks. Timed comparison:
//   - SSO path: call through the view (channel established once);
//   - baseline: re-prove the client's role on every request (per-request
//     ACL check, what a view-less gateway would do).
// The reproduction also repeats the paper's three requests and writes
// BENCH_table4_access.json: repeated single sign-on must not grow the
// credential repository (derived/repo_growth_per_request, gated at 0).
#include "bench_util.hpp"
#include "drbac/engine.hpp"
#include "mail/scenario.hpp"

namespace {

using namespace psf;
using drbac::Principal;
using mail::Scenario;
using minilang::Value;

struct Fixture {
  Scenario s = mail::build_scenario();
  framework::ClientSession charlie_session;

  Fixture() {
    auto session =
        s.psf->request(s.request_for(s.charlie, Scenario::kSePc));
    charlie_session = std::move(session).take();
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void reproduce() {
  Fixture& f = fixture();
  std::cout << "  Role                 View name\n";
  for (const auto& [role, view] : f.s.ny->access_rules()) {
    std::cout << "  Comp.NY." << role << "\t" << view << "\n";
  }
  std::cout << "  others       \tViewMailClient_Anonymous\n\n";

  struct UserRow {
    const char* who;
    const drbac::Entity* entity;
  };
  const UserRow rows[] = {{"Alice", &f.s.alice},
                          {"Bob", &f.s.bob},
                          {"Charlie", &f.s.charlie}};
  for (const auto& row : rows) {
    auto decision = f.s.ny->select_view(Principal::of_entity(*row.entity), 0);
    std::cout << "  " << row.who << " -> " << decision.value().view_name
              << "  (matched role: "
              << (decision.value().matched_role.empty()
                      ? "none (default)"
                      : decision.value().matched_role)
              << ")\n";
  }
  drbac::Entity eve = drbac::Entity::create("Eve", f.s.psf->rng());
  auto anon = f.s.ny->select_view(Principal::of_entity(eve), 0);
  std::cout << "  Eve (no credentials) -> " << anon.value().view_name << "\n";

  // Repeated sign-on: Alice, Bob and Charlie request the mail service
  // again and again. After one warm-up round every credential involved is
  // already held, so the repository must stay the same size.
  Scenario world = mail::build_scenario();
  const std::pair<const drbac::Entity*, const char*> requests[] = {
      {&world.alice, Scenario::kNyPc},
      {&world.bob, Scenario::kSdPc},
      {&world.charlie, Scenario::kSePc}};
  const std::int64_t view_cpu = framework::ServiceConfig{}.view_cpu;
  auto round = [&] {
    for (const auto& [who, node] : requests) {
      auto session = world.psf->request(world.request_for(*who, node));
      if (!session.ok()) {
        std::cerr << "table4: request failed: " << session.error().message
                  << "\n";
        std::exit(1);
      }
      session.value().connection->close("table4 round done");
      world.psf->node(node)->release_cpu(view_cpu);
    }
  };
  round();
  constexpr int kRounds = 32;
  const std::size_t size_before = world.psf->repository().size();
  const double request_us = bench::time_us(kRounds, round) / 3.0;
  const double growth =
      static_cast<double>(world.psf->repository().size() - size_before) /
      (3.0 * kRounds);
  std::cout << "\n  " << kRounds << " repeated rounds of the three requests: "
            << request_us << " us per request, repository growth " << growth
            << " credentials per request\n";

  bench::Report report("table4_access");
  report.add("repeated_request_us", request_us, "us", 3 * kRounds);
  report.derived("repo_growth_per_request", growth);
  report.write();
}

void BM_SingleSignOnCall(benchmark::State& state) {
  // The paper's SSO path: authorization happened at view instantiation;
  // each call is just an (encrypted) request through the channel.
  Fixture& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.charlie_session.view->call("getPhone", {Value::string("alice")}));
  }
}
BENCHMARK(BM_SingleSignOnCall);

void BM_PerRequestAclBaseline(benchmark::State& state) {
  // Baseline: an ACL check (full dRBAC proof) before every request.
  Fixture& f = fixture();
  drbac::Engine engine(&f.s.psf->repository());
  for (auto _ : state) {
    auto proof = engine.prove(Principal::of_entity(f.s.charlie),
                              f.s.ny->role("Partner"), 0);
    benchmark::DoNotOptimize(proof);
    benchmark::DoNotOptimize(
        f.charlie_session.view->call("getPhone", {Value::string("alice")}));
  }
}
BENCHMARK(BM_PerRequestAclBaseline);

void BM_AclSelectView(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    auto decision =
        f.s.ny->select_view(Principal::of_entity(f.s.charlie), 0);
    benchmark::DoNotOptimize(decision);
  }
}
BENCHMARK(BM_AclSelectView);

void BM_AclSelectViewCached(benchmark::State& state) {
  // Guard decision cache (invalidated on revocation): the amortized
  // single-sign-on lookup.
  static Scenario cached_world = mail::build_scenario();
  cached_world.ny->enable_decision_cache();
  (void)cached_world.ny->select_view(
      Principal::of_entity(cached_world.charlie), 0);
  for (auto _ : state) {
    auto decision = cached_world.ny->select_view(
        Principal::of_entity(cached_world.charlie), 0);
    benchmark::DoNotOptimize(decision);
  }
}
BENCHMARK(BM_AclSelectViewCached);

void BM_LocalViewMethodCall(benchmark::State& state) {
  // Fine-grained access control at zero marginal cost: a local method on
  // the restricted view (receiveMessages drains, so state stays bounded).
  Fixture& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.charlie_session.view->call("receiveMessages", {}));
  }
}
BENCHMARK(BM_LocalViewMethodCall);

}  // namespace

int main(int argc, char** argv) {
  return psf::bench::run(
      argc, argv,
      "Table 4: access rules and single sign-on vs per-request checks",
      reproduce);
}
