// session_churn: the control plane under credential churn.
//
// mail::build_scenario() gives the paper's three sites, Table 2's
// credentials and Table 4's rules. 48 seeded client principals (16 per
// client site) hold a personal Member credential from their site's Guard
// plus the site's Table 2 chain; one in eight holds nothing and lands on
// the default (Anonymous) row. A single closed-loop client runs
// Psf::request, makes four verified calls through ClientSession.view, and
// keeps a window of live sessions that fits each client node's CPU budget,
// closing the oldest with Connection::close + Node::release_cpu. Every
// kRevokeEvery-th session it revokes a live session's credential, calls
// until the call is denied, closes that session, and re-grants.
#include <cmath>
#include <deque>
#include <iostream>
#include <map>
#include <stdexcept>

#include "drbac/proof_cache.hpp"
#include "mail/scenario.hpp"
#include "obs/journal.hpp"
#include "workloads.hpp"

namespace psfbench {
namespace {

using namespace psf;
using minilang::Value;

constexpr int kPrincipalsPerSite = 16;
constexpr std::size_t kWindowPerSite = 8;
constexpr int kCallsPerSession = 4;
constexpr std::uint64_t kRevokeEvery = 8;
constexpr int kMaxDenyAttempts = 3;
// CPU a client view holds on its node (the mail service's default).
const std::int64_t kViewCpu = framework::ServiceConfig{}.view_cpu;
const char* const kContacts[] = {"alice", "bob", "charlie"};

struct Site {
  const char* node;
  framework::Guard* guard;
  std::vector<drbac::DelegationPtr> chain;  // Table 2 credentials to present
  const char* view;                         // the view Table 4 should select
};

struct Client {
  drbac::Entity identity;
  std::size_t site = 0;
  drbac::DelegationPtr personal;  // null: anonymous
  bool live = false;
};

struct Live {
  framework::ClientSession session;
  std::size_t client = 0;
};

/// Per-iteration timings, split the way the ledger reports them.
struct Iteration {
  std::uint64_t request_ns = 0, calls_ns = 0, close_ns = 0, churn_ns = 0;
};

class Churn {
 public:
  explicit Churn(std::uint64_t seed);

  /// One closed-loop step: make room, open a session, call through it,
  /// and on every kRevokeEvery-th session revoke one. Returns false when
  /// the request itself failed.
  bool step(bool measured, bool traced);
  /// Revoke a live session's credential, call until denied, close it and
  /// re-grant. No-op when no credentialed session is live.
  void revoke_one(bool measured, bool traced);

  mail::Scenario scenario;
  Slice* slice = nullptr;  // where measured calls and sessions are counted
  Samples session_ms, revoke_us, deny_us;
  Samples t_iteration, t_request, t_calls, t_close, t_churn;
  std::vector<Span> spans;
  std::uint64_t attempted = 0, failed = 0, calls = 0, sessions = 0;

 private:
  bool open_session(bool measured, bool traced, Iteration& it);
  void close(Live& live);
  bool check_call(Live& live, bool measured, bool traced);

  util::Rng rng_;
  std::vector<Site> sites_;
  std::vector<Client> clients_;
  std::vector<std::deque<Live>> windows_;
  std::map<std::string, std::string> phone_, email_;
  std::uint64_t opened_ = 0;
  int reported_ = 0;
};

Churn::Churn(std::uint64_t seed) : scenario(mail::build_scenario()), rng_(seed) {
  mail::Scenario& s = scenario;
  sites_ = {{mail::Scenario::kNyPc, s.ny, {}, "ViewMailClient_Member"},
            {mail::Scenario::kSdPc, s.sd, {s.cred(2)}, "ViewMailClient_Member"},
            {mail::Scenario::kSePc, s.se, {s.cred(12), s.cred(3)},
             "ViewMailClient_Partner"}};
  windows_.resize(sites_.size());
  for (std::size_t site = 0; site < sites_.size(); ++site) {
    for (int i = 0; i < kPrincipalsPerSite; ++i) {
      Client c;
      c.identity = drbac::Entity::create(
          "churn-" + std::to_string(site) + "-" + std::to_string(i), rng_);
      c.site = site;
      if (i % 8 != 7) {  // two of a site's sixteen hold no credential
        c.personal = sites_[site].guard->grant(
            drbac::Principal::of_entity(c.identity), "Member");
      }
      clients_.push_back(std::move(c));
    }
  }
  auto origin = s.psf->origin_instance("mail");
  for (const char* name : kContacts) {
    phone_[name] = origin->call("getPhone", {Value::string(name)}).as_string();
    email_[name] = origin->call("getEmail", {Value::string(name)}).as_string();
  }
}

bool Churn::check_call(Live& live, bool measured, bool traced) {
  const char* name = kContacts[rng_.next_below(3)];
  const bool phone = rng_.next_below(2) == 0;
  bool good = false;
  const std::uint64_t t0 = now_ns();
  try {
    const Value answer = live.session.view->call(
        phone ? "getPhone" : "getEmail", {Value::string(name)});
    good = answer.equals(Value::string(phone ? phone_[name] : email_[name]));
  } catch (const std::exception& e) {
    if (reported_++ < 3) std::cerr << "psfbench: call failed: " << e.what() << "\n";
  }
  const std::uint64_t t1 = now_ns();
  if (measured) {
    ++attempted;
    ++calls;
    if (!good) ++failed;
    ++slice->calls;
    if (!traced) slice->call_us.add(static_cast<double>(t1 - t0) / 1000.0);
    if (traced) spans.push_back({"view.call", "session", opened_, t0, t1});
  }
  return good;
}

bool Churn::open_session(bool measured, bool traced, Iteration& it) {
  // A principal of a random site with no live session, so one revocation
  // never strands a second session of the same principal.
  const std::size_t site = rng_.next_below(sites_.size());
  std::vector<std::size_t> idle;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    if (clients_[i].site == site && !clients_[i].live) idle.push_back(i);
  }
  const std::size_t index = idle[rng_.next_below(idle.size())];
  Client& client = clients_[index];
  const std::uint64_t c0 = now_ns();
  if (windows_[site].size() == kWindowPerSite) {
    close(windows_[site].front());
    windows_[site].pop_front();
  }
  const std::uint64_t c1 = now_ns();
  it.close_ns += c1 - c0;

  framework::ClientRequest request;
  request.identity = client.identity;
  if (client.personal) {
    request.credentials = {client.personal};
    request.credentials.insert(request.credentials.end(),
                               sites_[site].chain.begin(),
                               sites_[site].chain.end());
  }
  request.client_node = sites_[site].node;
  request.service = "mail";
  ++opened_;
  const std::uint64_t t0 = now_ns();
  auto session = scenario.psf->request(request);
  const std::uint64_t t1 = now_ns();
  it.request_ns = t1 - t0;
  if (measured) {
    ++attempted;
    ++sessions;
    ++slice->cpu_ops;
    session_ms.add(static_cast<double>(t1 - t0) / 1e6);
    if (traced) spans.push_back({"session", nullptr, opened_, t0, t1});
  }
  const char* expected =
      client.personal ? sites_[site].view : "ViewMailClient_Anonymous";
  if (!session.ok() || session.value().view_name != expected) {
    if (measured) ++failed;
    if (reported_++ < 3) {
      std::cerr << "psfbench: request for " << client.identity.name << " -> "
                << (session.ok() ? session.value().view_name
                                 : session.error().message)
                << "\n";
    }
    if (session.ok()) {
      Live wrong{std::move(session).take(), index};
      close(wrong);
    }
    return false;
  }
  Live live{std::move(session).take(), index};
  const std::uint64_t k0 = now_ns();
  for (int i = 0; i < kCallsPerSession; ++i) check_call(live, measured, traced);
  it.calls_ns = now_ns() - k0;
  client.live = true;
  windows_[site].push_back(std::move(live));
  return true;
}

void Churn::close(Live& live) {
  live.session.connection->close("session churn");
  scenario.psf->node(live.session.client_node)->release_cpu(kViewCpu);
  clients_[live.client].live = false;
}

void Churn::revoke_one(bool measured, bool traced) {
  std::vector<std::pair<std::size_t, std::size_t>> candidates;
  for (std::size_t site = 0; site < windows_.size(); ++site) {
    for (std::size_t i = 0; i < windows_[site].size(); ++i) {
      if (clients_[windows_[site][i].client].personal) {
        candidates.emplace_back(site, i);
      }
    }
  }
  if (candidates.empty()) return;
  const auto [site, slot] = candidates[rng_.next_below(candidates.size())];
  Live& live = windows_[site][slot];
  Client& client = clients_[live.client];

  const std::uint64_t r0 = now_ns();
  scenario.psf->repository().revoke(client.personal->serial);
  const std::uint64_t r1 = now_ns();
  bool denied = false;
  std::uint64_t d1 = r1;
  for (int i = 0; i < kMaxDenyAttempts && !denied; ++i) {
    try {
      live.session.view->call("getPhone", {Value::string("alice")});
    } catch (const minilang::EvalError&) {
      denied = true;  // the expected answer after a revocation
    }
    d1 = now_ns();
  }
  if (measured) {
    ++attempted;
    if (!denied) ++failed;
    revoke_us.add(static_cast<double>(r1 - r0) / 1000.0);
    if (denied) deny_us.add(static_cast<double>(d1 - r0) / 1000.0);
    if (traced) spans.push_back({"revoke", nullptr, opened_, r0, r1});
  }
  close(live);
  windows_[site].erase(windows_[site].begin() +
                       static_cast<std::ptrdiff_t>(slot));
  const std::uint64_t g0 = now_ns();
  client.personal = sites_[site].guard->grant(
      drbac::Principal::of_entity(client.identity), "Member");
  if (measured && traced) {
    spans.push_back({"grant", nullptr, opened_, g0, now_ns()});
  }
}

bool Churn::step(bool measured, bool traced) {
  Iteration it;
  const std::uint64_t t0 = now_ns();
  const bool ok = open_session(measured, traced, it);
  if (ok && opened_ % kRevokeEvery == 0) {
    const std::uint64_t r0 = now_ns();
    revoke_one(measured, traced);
    it.churn_ns = now_ns() - r0;
  }
  if (measured && traced) {
    auto us = [](std::uint64_t ns) { return static_cast<double>(ns) / 1000.0; };
    t_iteration.add(us(now_ns() - t0));
    t_request.add(us(it.request_ns));
    t_calls.add(us(it.calls_ns));
    t_close.add(us(it.close_ns));
    t_churn.add(us(it.churn_ns));
  }
  return ok;
}

}  // namespace

RunResult run_churn(const Options& options) {
  RunResult result;
  Report& report = result.report;
  std::unique_ptr<Churn> churn;
  repeat_setup(options, report, [&] {
    churn.reset();
    drbac::SignatureCache::instance().clear();
    churn = std::make_unique<Churn>(options.seed);
  });
  std::cout << "psfbench session_churn: 3 sites x " << kPrincipalsPerSite
            << " principals, window " << kWindowPerSite
            << " per site, revoke every " << kRevokeEvery << "th session, seed "
            << options.seed << "\n";

  auto run_for = [&](double seconds, bool measured, bool traced) {
    const std::uint64_t start = now_ns();
    const auto end = start + static_cast<std::uint64_t>(seconds * 1e9);
    while (now_ns() < end) churn->step(measured, traced);
    return static_cast<double>(now_ns() - start) / 1e9;
  };
  run_for(options.smoke ? 0.2 : 1.0, false, false);

  // One-second slices; a traced run alternates them in ABBA order.
  const ObsWindow window;
  const std::uint64_t journal0 = obs::journal::emitted();
  const std::uint64_t hard0 = obs::journal::hard_dropped();
  const auto count = static_cast<std::size_t>(
      options.trace ? trace_slices(options.seconds)
                    : std::max(1L, std::lround(options.seconds)));
  std::vector<Slice> slices(count);
  double wall = 0;
  double rate[2] = {0, 0}, rate_seconds[2] = {0, 0};  // untraced, traced
  for (std::size_t i = 0; i < slices.size(); ++i) {
    Slice& slice = slices[i];
    slice.traced = options.trace && traced_slice(i);
    churn->slice = &slice;
    const double cpu0 = cpu_seconds();
    slice.seconds = run_for(options.seconds / static_cast<double>(count), true,
                            slice.traced);
    slice.cpu_seconds = cpu_seconds() - cpu0;
    wall += slice.seconds;
    rate[slice.traced] += static_cast<double>(slice.cpu_ops);
    rate_seconds[slice.traced] += slice.seconds;
  }
  churn->slice = nullptr;
  Churn& c = *churn;
  result.attempted = c.attempted;
  result.failed = c.failed;
  const double calls = static_cast<double>(c.calls);
  const double sessions = static_cast<double>(c.sessions);

  report_slices(report, slices);
  report.set("peak_rss_mb", peak_rss_mb(), 1);
  report_program_counters(report, window, c.calls, c.sessions);
  report.set("psf.session_p50_ms", c.session_ms.percentile(50),
             c.session_ms.size());
  report.set("psf.session_p99_ms", c.session_ms.percentile(99),
             c.session_ms.size());
  report.set("psf.sessions_per_s", ratio(sessions, wall), c.sessions);
  report.set("psf.revoke_to_deny_p50_us", c.deny_us.percentile(50),
             c.deny_us.size());
  report.set("drbac.revoke_p50_us", c.revoke_us.percentile(50),
             c.revoke_us.size());
  report.set("drbac.repo_credentials_end",
             static_cast<double>(c.scenario.psf->repository().size()), 1);
  const auto handshake = window.histogram("psf.switchboard.handshake_us");
  report.set("switchboard.handshake_p50_us",
             static_cast<double>(handshake.percentile(50)), handshake.count);
  report.set("switchboard.bytes_per_call",
             ratio(static_cast<double>(window.counter("psf.switchboard.bytes")),
                   calls),
             c.calls);
  const double vig_hits =
      static_cast<double>(window.counter("psf.views.vig.cache_hits"));
  const double vig_generated =
      static_cast<double>(window.counter("psf.views.vig.generated"));
  report.set("views.vig_cache_hit_frac",
             ratio(vig_hits, vig_hits + vig_generated),
             static_cast<std::uint64_t>(vig_hits + vig_generated));
  const auto request = window.histogram("psf.framework.request_us");
  const double attributed =
      static_cast<double>(window.histogram("psf.planner.plan_us").sum +
                          handshake.sum +
                          window.histogram("psf.views.vig.generate_us").sum);
  report.set("psf.request_unattributed_frac",
             1.0 - ratio(attributed, static_cast<double>(request.sum)),
             request.count);
  report.set("obs.journal_events_per_op",
             ratio(static_cast<double>(obs::journal::emitted() - journal0),
                   sessions),
             c.sessions);
  report.set("obs.journal_hard_drops",
             static_cast<double>(obs::journal::hard_dropped() - hard0), 1);
  report.set("bench.failed_frac",
             ratio(static_cast<double>(result.failed),
                   static_cast<double>(result.attempted)),
             result.attempted);

  if (options.trace) {
    const std::uint64_t n = c.t_iteration.size();
    std::cout << "session ledger (one closed-loop iteration):\n";
    const double residual = print_ledger(
        std::cout, c.t_iteration,
        {{"psf.request", &c.t_request}, {"view.call x4", &c.t_calls},
         {"close", &c.t_close}, {"revoke+grant", &c.t_churn}});
    report.set("bench.ledger_residual_frac", residual, n);
    const double untraced = ratio(rate[0], rate_seconds[0]);
    report.set("bench.trace_overhead_pct",
               100.0 * ratio(untraced - ratio(rate[1], rate_seconds[1]),
                             untraced),
               c.sessions);
    if (!options.trace_out.empty()) {
      SpanLog log(1);
      for (const Span& span : c.spans) log.add(0, span);
      if (!log.write_chrome(options.trace_out)) {
        std::cerr << "psfbench: cannot write " << options.trace_out << "\n";
      }
    }
  }
  return result;
}

void run_revoke_layer(const Options& options, Report& report) {
  Churn churn(options.seed);
  for (int i = 0; i < 24; ++i) churn.step(false, false);  // fill the windows
  constexpr std::size_t kRevocations = 200;
  while (churn.revoke_us.size() < kRevocations) {
    churn.revoke_one(true, false);
    churn.step(false, false);
  }
  report.set("drbac.revoke_p50_us", churn.revoke_us.percentile(50),
             churn.revoke_us.size());
  report.set("revoke.revoke_p99_us", churn.revoke_us.percentile(99),
             churn.revoke_us.size(), "us");
  report.set("psf.revoke_to_deny_p50_us", churn.deny_us.percentile(50),
             churn.deny_us.size());
  report.set("revoke.not_denied", static_cast<double>(churn.failed),
             churn.attempted, "count");
}

}  // namespace psfbench
