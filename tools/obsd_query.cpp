// obsd_query: remote introspection client for the view-served observability
// surface (ISSUE 4 tentpole, part c).
//
// Builds the mail scenario, runs a representative workload on it, installs
// the Introspect service on ny-server, then queries it *remotely* — the
// query client runs on ny-pc and every byte travels through an
// authenticated, sealed Switchboard connection into a VIG-generated view of
// the Introspect component.
//
//   obsd_query [--as admin|viewer|anonymous] [status|journal [n]|
//               spans [trace-id]|profile|all]
//
//   --as admin      holds Admin.Monitor: full surface (default)
//   --as viewer     holds Admin.Viewer: the status view only; the deep
//                   methods (journal/spans/profile) do not exist on the
//                   generated view class
//   --as anonymous  no Admin credential: the ACL denies the request
//
// Unknown arguments, a second command, a journal count that is not a whole
// non-negative number and a trace id that is not hex exit 2; denied access
// or failed queries exit 1.
#include <cctype>
#include <charconv>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "mail/scenario.hpp"
#include "obs/journal.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "psf/introspect.hpp"

namespace {

using psf::framework::ClientRequest;
using psf::mail::Scenario;
using psf::minilang::Value;

void print_usage(std::ostream& out) {
  out << "usage: obsd_query [--as admin|viewer|anonymous] "
         "[status|journal [n]|spans [trace-id]|profile|all]\n"
         "\n"
         "Remotely queries the view-served observability surface of the mail\n"
         "scenario over an authenticated, sealed Switchboard connection.\n"
         "\n"
         "options:\n"
         "  --help          print this help and exit 0\n"
         "  --as admin      holds Admin.Monitor: full surface (default)\n"
         "  --as viewer     holds Admin.Viewer: status only\n"
         "  --as anonymous  no Admin credential: the ACL denies the request\n"
         "\n"
         "commands:\n"
         "  status          the status-v1 document: health checks with\n"
         "                  reasons (latency objectives as slo.<name>),\n"
         "                  metrics with tail exemplars, profiler counters\n"
         "  journal [n]     last n journal events (default 64)\n"
         "  spans [trace-id] spans for a hex trace id (default: latest\n"
         "                  dispatch)\n"
         "  profile         speedscope-JSON flamegraph of the workload;\n"
         "                  lock waits show as lock:<site> frames\n"
         "  all             every section above\n"
         "\n"
         "Unknown arguments, a second command, a journal count that is\n"
         "not a whole non-negative number and a trace id that is not hex\n"
         "exit 2; denied access or failed queries exit 1.\n";
}

int usage() {
  print_usage(std::cerr);
  return 2;
}

// A representative workload: three clients, RPC + coherence traffic,
// heartbeats, and a revocation, so the journal/spans have real content for
// the introspection surface to report.
void run_workload(Scenario& s) {
  psf::framework::Psf& psf = *s.psf;
  auto alice = psf.request(s.request_for(s.alice, Scenario::kNyPc));
  auto bob = psf.request(s.request_for(s.bob, Scenario::kSdPc));
  auto charlie = psf.request(s.request_for(s.charlie, Scenario::kSePc));
  alice.value().view->call("addMeeting", {Value::string("bob")});
  bob.value().view->call(
      "sendMessage",
      {psf::mail::make_message("bob", "alice", "hi", "lunch?")});
  charlie.value().view->call("getPhone", {Value::string("alice")});
  alice.value().connection->heartbeat();
  bob.value().connection->heartbeat();
  psf.repository().revoke(s.cred(11)->serial);
  try {
    bob.value().view->call("getPhone", {Value::string("alice")});
  } catch (const psf::minilang::EvalError&) {
    // Expected: the revocation suspended Bob's end.
  }
}

// The kernel services CPU-time timers at scheduler-tick granularity (~4-10
// ms), so one ~30 ms workload pass yields a sample or two; a profiled run
// repeats scenario build + workload this many times in all.
constexpr int kProfiledPasses = 25;

/// A whole non-negative decimal count, or nothing.
std::optional<std::int64_t> parse_count(const std::string& s) {
  std::int64_t n = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, n);
  if (s.empty() || s[0] == '-' || ec != std::errc() || ptr != end) {
    return std::nullopt;
  }
  return n;
}

/// One to sixteen hex digits, optionally 0x-prefixed.
bool is_trace_hex(const std::string& s) {
  const std::size_t skip =
      s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') ? 2 : 0;
  const std::size_t digits = s.size() - skip;
  if (digits == 0 || digits > 16) return false;
  for (std::size_t i = skip; i < s.size(); ++i) {
    if (std::isxdigit(static_cast<unsigned char>(s[i])) == 0) return false;
  }
  return true;
}

std::string latest_dispatch_trace_hex() {
  const auto spans = psf::obs::SpanCollector::instance().snapshot();
  for (auto it = spans.rbegin(); it != spans.rend(); ++it) {
    if (it->name == "switchboard.dispatch") {
      char buffer[17];
      std::snprintf(buffer, sizeof(buffer), "%016llx",
                    static_cast<unsigned long long>(it->trace_id));
      return buffer;
    }
  }
  return "0";
}

}  // namespace

int main(int argc, char** argv) {
  std::string role = "admin";
  std::string command;
  std::string argument;
  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--help" || args[i] == "-h") {
      print_usage(std::cout);
      return 0;
    } else if (args[i] == "--as") {
      if (i + 1 >= args.size()) return usage();
      role = args[++i];
    } else if (args[i] == "status" || args[i] == "journal" ||
               args[i] == "spans" || args[i] == "profile" ||
               args[i] == "all") {
      if (!command.empty()) return usage();  // one command per run
      command = args[i];
      // journal/spans take the next token unless it is an option; whatever
      // they take must be a count or a trace id, never another command.
      if ((command == "journal" || command == "spans") &&
          i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
        argument = args[++i];
        const bool valid = command == "journal"
                               ? parse_count(argument).has_value()
                               : is_trace_hex(argument);
        if (!valid) return usage();
      }
    } else {
      return usage();
    }
  }
  if (role != "admin" && role != "viewer" && role != "anonymous") {
    return usage();
  }
  if (command.empty()) command = "all";

  Scenario s = psf::mail::build_scenario();
  psf::framework::Psf& psf = *s.psf;

  auto installed =
      psf::framework::install_introspection(psf, Scenario::kNyServer);
  if (!installed.ok()) {
    std::cerr << "install_introspection: " << installed.error().message
              << "\n";
    return 1;
  }

  // Sample the workload when the profile surface is being queried, so
  // profile_dump reports real folded stacks. A dense interval (200 us CPU)
  // and repeated passes on fresh scenarios keep the short workload
  // statistically useful.
  const bool profiling = command == "profile" || command == "all";
  if (profiling) {
    psf::obs::profile::register_thread("main");
    psf::obs::profile::start({.interval_us = 200});
    for (int pass = 1; pass < kProfiledPasses; ++pass) {
      Scenario extra = psf::mail::build_scenario();
      run_workload(extra);
    }
  }

  run_workload(s);
  if (profiling) psf::obs::profile::stop();

  // Operator principals, credentialed in the Admin domain.
  psf::framework::Guard* admin_guard =
      psf.guard(psf::framework::kIntrospectDomain);
  ClientRequest request;
  request.client_node = Scenario::kNyPc;  // remote from the introspected node
  request.service = installed.value();
  if (role == "admin") {
    request.identity = admin_guard->create_principal("Operator");
    request.credentials = {admin_guard->grant(
        psf::drbac::Principal::of_entity(request.identity), "Monitor")};
  } else if (role == "viewer") {
    request.identity = admin_guard->create_principal("Auditor");
    request.credentials = {admin_guard->grant(
        psf::drbac::Principal::of_entity(request.identity), "Viewer")};
  } else {
    request.identity = psf::drbac::Entity::create("Nobody", psf.rng());
  }

  auto session = psf.request(request);
  if (!session.ok()) {
    std::cerr << "request denied: " << session.error().message << "\n";
    return 1;
  }
  std::cerr << "connected: view " << session.value().view_name << " on "
            << session.value().client_node << " -> "
            << session.value().provider_node << " (switchboard)\n";
  auto& view = *session.value().view;

  auto query = [&](const std::string& method,
                   std::vector<Value> call_args) -> int {
    try {
      const Value out = view.call(method, std::move(call_args));
      std::cout << out.as_string() << "\n";
      return 0;
    } catch (const psf::minilang::EvalError& e) {
      std::cerr << method << ": denied by view (" << e.what() << ")\n";
      return 1;
    }
  };

  int rc = 0;
  const std::int64_t tail_n =
      command == "journal" && !argument.empty() ? *parse_count(argument) : 64;
  const std::string trace_hex =
      argument.empty() ? latest_dispatch_trace_hex() : argument;
  if (command == "status" || command == "all") {
    if (command == "all") std::cout << "==== status ====\n";
    rc |= query("status", {});
  }
  if (command == "journal" || command == "all") {
    if (command == "all") std::cout << "==== journal ====\n";
    rc |= query("journal_tail", {Value::integer(tail_n)});
  }
  if (command == "spans" || command == "all") {
    if (command == "all") std::cout << "==== spans ====\n";
    rc |= query("spans_for_trace", {Value::string(trace_hex)});
  }
  if (command == "profile" || command == "all") {
    if (command == "all") std::cout << "==== profile ====\n";
    rc |= query("profile_dump", {});
  }
  return rc;
}
