// The paper's full case study (§2.2, §3.3): the Comp mail service across
// New York, San Diego, and Seattle. Reproduces Table 2's credential set,
// then walks Alice, Bob, Charlie, and an anonymous user through the
// ACL-driven view selection of Table 4, cross-domain authorization, and
// continuous authorization (revocation mid-session).
#include <iostream>

#include "mail/scenario.hpp"
#include "obs/export.hpp"
#include "obs/health.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

int main() {
  using namespace psf;
  using mail::Scenario;
  using minilang::Value;

  // Dump-on-fault: if anything below terminates the process, the flight
  // recorder's newest events go to stderr (and $PSF_JOURNAL_FAULT_DUMP).
  obs::journal::install_terminate_handler();
  // Health checks before the story, so the latency objectives
  // (slo.<name>) judge every RPC, proof and sync it runs.
  obs::install_builtin_checks();

  mail::Scenario s = mail::build_scenario();
  framework::Psf& psf = *s.psf;

  std::cout << "== Table 2: the credentials generated by the Guards ==\n";
  for (int i = 1; i <= 17; ++i) {
    std::cout << "  (" << i << ")\t" << s.cred(i)->display() << "\n";
  }

  std::cout << "\n== Alice (New York): Comp.NY.Member via credential (1) ==\n";
  auto alice = psf.request(s.request_for(s.alice, Scenario::kNyPc));
  std::cout << "  view: " << alice.value().view_name << "  (matched role "
            << alice.value().matched_role << "), provider "
            << alice.value().provider_node << "\n";
  std::cout << "  addMeeting(bob) -> "
            << alice.value()
                   .view->call("addMeeting", {Value::string("bob")})
                   .to_display_string()
            << "  (full functionality)\n";

  std::cout << "\n== Bob (San Diego): cross-domain member via (11)+(2) ==\n";
  auto bob = psf.request(s.request_for(s.bob, Scenario::kSdPc));
  std::cout << "  view: " << bob.value().view_name << ", provider "
            << bob.value().provider_node << "\n";
  bob.value().view->call(
      "sendMessage", {mail::make_message("bob", "alice", "hi", "lunch?")});
  std::cout << "  sendMessage synced to origin; origin outbox = "
            << psf.origin_instance("mail")
                   ->get_field("outbox")
                   .as_list()
                   ->size()
            << "\n";

  std::cout << "\n== Charlie (Seattle): partner via (15)+(12), third-party "
               "issuer authorized by (3) ==\n";
  auto charlie = psf.request(s.request_for(s.charlie, Scenario::kSePc));
  std::cout << "  view: " << charlie.value().view_name << "\n";
  std::cout << "  getPhone(alice) [switchboard to origin] -> "
            << charlie.value()
                   .view->call("getPhone", {Value::string("alice")})
                   .as_string()
            << "\n";
  std::cout << "  addMeeting(alice) -> "
            << charlie.value()
                   .view->call("addMeeting", {Value::string("alice")})
                   .to_display_string()
            << "  (reduced to a request)\n";

  std::cout << "\n== Anonymous user: default ('others') row of Table 4 ==\n";
  drbac::Entity eve = drbac::Entity::create("Eve", psf.rng());
  framework::ClientRequest anon;
  anon.identity = eve;
  anon.client_node = Scenario::kSePc;
  anon.service = "mail";
  auto eve_session = psf.request(anon);
  std::cout << "  view: " << eve_session.value().view_name << "\n";
  std::cout << "  getEmail(bob) -> "
            << eve_session.value()
                   .view->call("getEmail", {Value::string("bob")})
                   .as_string()
            << "\n";
  try {
    eve_session.value().view->call(
        "sendMessage", {mail::make_message("eve", "alice", "s", "b")});
  } catch (const minilang::EvalError& e) {
    std::cout << "  sendMessage -> DENIED (" << e.what() << ")\n";
  }

  std::cout << "\n== Continuous authorization: SD-Guard revokes (11) ==\n";
  bob.value().connection->set_authorization_listener(
      [](switchboard::Connection::End, const std::string& reason) {
        std::cout << "  AuthorizationMonitor fired: " << reason << "\n";
      });
  psf.repository().revoke(s.cred(11)->serial);
  try {
    bob.value().view->call("getPhone", {Value::string("alice")});
  } catch (const minilang::EvalError& e) {
    std::cout << "  Bob's next request -> " << e.what() << "\n";
  }
  std::cout << "  SD-Guard re-issues Bob's membership...\n";
  auto fresh = s.sd->grant(drbac::Principal::of_entity(s.bob), "Member");
  (void)fresh;
  const bool restored =
      bob.value().connection->revalidate(switchboard::Connection::End::kA);
  std::cout << "  revalidation "
            << (restored ? "succeeded; service restored" : "failed") << "\n";
  std::cout << "  getPhone(alice) -> "
            << bob.value()
                   .view->call("getPhone", {Value::string("alice")})
                   .as_string()
            << "\n";

  // Observability epilogue: everything above was instrumented, so the
  // process-wide registry now holds dRBAC proof-search, view-coherence, and
  // Switchboard channel metrics, and the span collector holds the traces.
  // One heartbeat round so the liveness RTT gauge is populated too.
  alice.value().connection->heartbeat();
  std::cout << "\n== Observability: metrics snapshot (JSON) ==\n"
            << obs::dump_json() << "\n";
  std::cout << "\n== Observability: metrics snapshot (Prometheus text) ==\n"
            << obs::dump_prometheus();

  // Pick a trace that crossed hosts (its dispatch span ran on the provider
  // after the trace context traveled inside a sealed Switchboard frame).
  const auto spans = obs::SpanCollector::instance().snapshot();
  for (auto it = spans.rbegin(); it != spans.rend(); ++it) {
    if (it->name == "switchboard.dispatch" && it->parent_id != 0) {
      std::cout << "\n== Observability: one cross-host trace ==\n"
                << obs::format_trace(spans, it->trace_id);
      break;
    }
  }
  // And one full request trace: ACL -> plan -> VIG -> handshake ->
  // authorization -> proof search, all under a single trace ID.
  for (auto it = spans.rbegin(); it != spans.rend(); ++it) {
    if (it->name == "psf.request") {
      std::cout << "\n== Observability: one end-to-end request trace ==\n"
                << obs::format_trace(spans, it->trace_id);
      break;
    }
  }

  // Flight recorder: the discrete edges of the story above — channel
  // establishes, the revocation, the epoch bumps, coherence fallbacks —
  // as typed events with trace correlation (taxonomy in DESIGN.md §4f).
  std::cout << "\n== Observability: flight-recorder journal (newest 12) ==\n";
  for (const auto& event : obs::journal::tail(12)) {
    std::cout << "  " << obs::journal::format_event(event) << "\n";
  }

  // Health plane: per-connection and metrics-derived checks rolled up into
  // one node status. Bob's suspended-then-revalidated connection is OK
  // again; the revocation-lag check remembers nothing is outstanding.
  std::cout << "\n== Observability: node health ==\n"
            << obs::health_to_text(obs::HealthRegistry::instance().report());
  return 0;
}
