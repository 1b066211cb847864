// ISSUE 6 tentpole, part 5: the mail load ramp. Simulated mail clients ramp
// from 1k to 10k+ (more in full mode), driven by a small pool of worker
// threads, each owning a complete share-nothing fixture (its own Network,
// Switchboards, repository, and sealed connection) so the only cross-thread
// state is the observability plane itself — which is exactly what this bench
// is about. Per ramp step it reports p50/p99 secure-RPC latency (from
// psf.switchboard.rpc_us bucket deltas) and sustained RPS, then:
//
//  - re-arms the rpc histogram's exemplar threshold at the warmup step's
//    observed p90 (adaptive: the tail is defined by this machine's real
//    latency, not a hardcoded guess) and asserts a captured exemplar still
//    resolves to spans via SpanCollector::spans_for_trace;
//  - sizes the journal overflow ring ahead of each step from the projected
//    event burst (adaptive ring), drains between steps like a scraping
//    collector, and asserts the soft/hard split shows zero hard drops;
//  - measures the §4f observability-overhead gate AT LOAD: alternating
//    min-of-N passes with the full load plane (journal + per-request events
//    + exemplars) on vs off, and exits nonzero if the overhead exceeds 5%.
//
// Writes BENCH_mail_load.json (psf-bench-v1).
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <future>

#include "bench_util.hpp"
#include "mail/components.hpp"
#include "mail/sharded.hpp"
#include "minilang/interp.hpp"
#include "minilang/value_codec.hpp"
#include "obs/health.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "switchboard/channel.hpp"
#include "switchboard/event_loop.hpp"
#include "switchboard/reactor.hpp"

namespace {

using namespace psf;
using drbac::Principal;
using minilang::Value;
using switchboard::AcceptAllAuthorizer;
using switchboard::AuthorizationSuite;
using switchboard::Connection;
using switchboard::RoleAuthorizer;

// One mail client's worth of framework: the same secure-channel fixture as
// bench_obs_overhead, but constructed per worker thread so the workers share
// nothing except the process-wide observability plane.
struct WorkerFixture {
  explicit WorkerFixture(unsigned seed) : rng(seed) {
    net.connect("client", "server", {util::kMillisecond, 0, false});
    mail::register_all(registry);
    auto service = minilang::instantiate(registry, "MailServer");
    service->call("registerAccount",
                  {Value::string("alice"), Value::string("555"),
                   Value::string("a@x")});
    server_board.register_service("mail", service);
    client_cred = drbac::issue(guard, Principal::of_entity(client),
                               drbac::role_of(guard, "Member"), {}, false, 0,
                               0, repo.next_serial());
    repo.add(client_cred);
    AuthorizationSuite server_suite;
    server_suite.identity = server;
    server_suite.authorizer = std::make_shared<RoleAuthorizer>(
        &repo, drbac::role_of(guard, "Member"));
    server_board.set_suite(server_suite);
    AuthorizationSuite suite;
    suite.identity = client;
    suite.credentials = {client_cred};
    suite.authorizer = std::make_shared<AcceptAllAuthorizer>();
    conn = client_board.connect(server_board, suite, rng).value();
  }

  // One logical client request. `chatty` adds the per-request journal event
  // a debug-verbosity deployment would emit — the burst volume the overflow
  // ring has to absorb during the ramp. The product's own journaling is
  // edge-triggered (healthy RPCs emit nothing), which is what the overhead
  // gate measures.
  void one_request(std::int64_t worker, std::int64_t i, bool chatty) {
    conn->call(Connection::End::kA, "mail", "getPhone",
               {Value::string("alice")});
    if (chatty) {
      obs::journal::emit(obs::journal::Subsystem::kObs, 97, worker, i, 0, 0);
    }
  }

  util::Rng rng;
  std::shared_ptr<util::SimClock> clock = std::make_shared<util::SimClock>();
  switchboard::Network net;
  drbac::Repository repo;
  drbac::Entity guard = drbac::Entity::create("Guard", rng);
  drbac::Entity client = drbac::Entity::create("Client", rng);
  drbac::Entity server = drbac::Entity::create("Server", rng);
  switchboard::Switchboard client_board{"client", &net, clock};
  switchboard::Switchboard server_board{"server", &net, clock};
  minilang::ClassRegistry registry;
  drbac::DelegationPtr client_cred;
  std::shared_ptr<Connection> conn;
};

int worker_count() {
  const unsigned hc = std::thread::hardware_concurrency();
  return static_cast<int>(std::min(4u, std::max(2u, hc)));
}

/// Drives `total_requests` across the workers (fresh threads per call, so
/// each burst starts with empty per-thread journal rings) and returns the
/// wall-clock seconds for the whole burst.
double run_loaded(std::vector<std::unique_ptr<WorkerFixture>>& workers,
                  long total_requests, bool chatty) {
  const long per_worker =
      (total_requests + static_cast<long>(workers.size()) - 1) /
      static_cast<long>(workers.size());
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(workers.size());
  for (std::size_t w = 0; w < workers.size(); ++w) {
    threads.emplace_back([&fixture = *workers[w], w, per_worker, chatty] {
      for (long i = 0; i < per_worker; ++i) {
        fixture.one_request(static_cast<std::int64_t>(w), i, chatty);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
      .count();
}

/// Percentile of only the observations between two snapshots of the same
/// histogram: subtract the bucket counts and reuse Snapshot::percentile.
std::int64_t delta_percentile(const obs::Histogram::Snapshot& before,
                              const obs::Histogram::Snapshot& after,
                              double p) {
  obs::Histogram::Snapshot delta = after;
  delta.count = after.count - before.count;
  for (std::size_t i = 0; i < delta.bucket_counts.size(); ++i) {
    delta.bucket_counts[i] -= before.bucket_counts[i];
  }
  return delta.percentile(p);
}

// Set when the reproduction phase fails one of its asserted gates; main()
// turns it into a nonzero exit so CI smoke catches a regression even though
// bench::run itself returned 0.
int g_gate_failures = 0;

// ----------------------------------------------------------------------
// ISSUE 7: the event-core ramp. The thread-per-connection ramp above tops
// out where threads do; this section drives the same mail workload through
// the readiness-driven Reactor — derived sessions multiplexed over one
// trunk Connection per worker, mail state sharded by mailbox hash — and
// ramps client count to 100k while OS thread count stays O(workers).

// One in-flight request per driver chain (strict closed loop). Each worker
// loop is single-threaded, so one busy chain per worker already saturates
// it; a deeper window adds pure queueing delay (latency = K x service time
// by Little's law) without adding throughput on in-process conduits. K=1
// keeps p99 an honest per-request service latency, comparable to the
// thread-per-connection ramp above.
constexpr int kInflightWindow = 1;

/// One worker's closed-loop driver: completions issue the next request
/// until the step quota is spent. Callbacks run on the worker's loop.
struct Drive {
  std::vector<switchboard::EventChannel*> channels;
  std::vector<util::Bytes> requests;  // pre-encoded getPhone per channel
  std::atomic<long> to_issue{0};
  std::atomic<long> completed{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::size_t> rr{0};
  long total = 0;
  std::int64_t worker = 0;
  bool chatty = false;  // per-request journal emit, as in one_request()
  std::promise<void> done;
};

void issue_next(const std::shared_ptr<Drive>& drive, obs::Histogram& rpc_us) {
  if (drive->to_issue.fetch_sub(1) <= 0) return;
  const std::size_t idx =
      drive->rr.fetch_add(1) % drive->channels.size();
  const std::uint64_t start = switchboard::EventLoop::now_ns();
  drive->channels[idx]->submit(
      drive->requests[idx],
      [drive, start, &rpc_us](util::Result<util::Bytes> r) {
        {
          // Observe inside a live span so a tail capture carries a
          // resolvable trace — the same exemplar discipline as the
          // thread-per-connection path's ScopedTimerUs-inside-ScopedSpan.
          obs::ScopedSpan span("switchboard.call");
          rpc_us.observe(static_cast<std::int64_t>(
              (switchboard::EventLoop::now_ns() - start) / 1000));
        }
        if (!r.ok()) drive->errors.fetch_add(1);
        const long finished = drive->completed.fetch_add(1) + 1;
        if (drive->chatty) {
          // The debug-verbosity per-request journal event the old-core ramp
          // emits too: this is the burst the overflow ring must absorb, and
          // what makes the zero-hard-drop gate meaningful at 100k sessions.
          obs::journal::emit(obs::journal::Subsystem::kObs, 97, drive->worker,
                             finished, 0, 0);
        }
        if (finished == drive->total) {
          drive->done.set_value();
        } else {
          issue_next(drive, rpc_us);
        }
      });
}

/// Drive `total_requests` across the per-worker chains; returns wall-clock
/// seconds. Requests are spread proportionally to each worker's session
/// count so every shard stays busy.
double run_event_loaded(
    std::vector<std::vector<switchboard::EventChannel*>>& by_worker,
    std::vector<std::vector<util::Bytes>>& requests_by_worker,
    long total_requests, obs::Histogram& rpc_us, bool chatty = false) {
  std::size_t total_channels = 0;
  for (const auto& channels : by_worker) total_channels += channels.size();
  std::vector<std::shared_ptr<Drive>> drives;
  long assigned = 0;
  for (std::size_t w = 0; w < by_worker.size(); ++w) {
    if (by_worker[w].empty()) continue;
    auto drive = std::make_shared<Drive>();
    drive->channels = by_worker[w];
    drive->requests = requests_by_worker[w];
    drive->worker = static_cast<std::int64_t>(w);
    drive->chatty = chatty;
    drive->total = static_cast<long>(
        static_cast<double>(total_requests) *
        static_cast<double>(by_worker[w].size()) /
        static_cast<double>(total_channels));
    if (drive->total <= 0) drive->total = 1;
    assigned += drive->total;
    drives.push_back(std::move(drive));
  }
  // Rounding remainder lands on the first worker.
  if (!drives.empty() && assigned != total_requests) {
    drives[0]->total += total_requests - assigned;
  }
  const auto start = std::chrono::steady_clock::now();
  for (auto& drive : drives) {
    drive->to_issue.store(drive->total);
    for (int k = 0; k < kInflightWindow; ++k) issue_next(drive, rpc_us);
  }
  for (auto& drive : drives) {
    drive->done.get_future().wait();
    if (drive->errors.load() != 0) {
      std::cout << "  WARNING: " << drive->errors.load()
                << " event-core requests failed\n";
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
      .count();
}

void reproduce_event_core(
    bench::Report& report,
    std::vector<std::unique_ptr<WorkerFixture>>& fixtures,
    obs::Histogram& rpc_us) {
  using switchboard::EventChannel;
  using switchboard::Reactor;

  const int kWorkers = static_cast<int>(fixtures.size());
  const int threads_before = switchboard::count_os_threads();

  // Sharded backend: one share-nothing MailServer per reactor worker, a
  // pool of pre-registered accounts spread across shards by mailbox hash.
  constexpr int kAccountPool = 1024;
  mail::ShardedMailBackend backend(static_cast<std::size_t>(kWorkers));
  for (int i = 0; i < kAccountPool; ++i) {
    const std::string user = "u" + std::to_string(i);
    backend.register_account(user, "555-" + std::to_string(i), user + "@x");
  }

  Reactor reactor({.workers = kWorkers});
  reactor.start();

  // Heartbeats for the per-worker trunks ride the timer wheel: zero
  // dedicated threads.
  std::vector<switchboard::HeartbeatHandle> heartbeats;
  for (auto& fixture : fixtures) {
    heartbeats.push_back(reactor.schedule_heartbeats(
        fixture->conn, std::chrono::milliseconds(250)));
  }

  struct Session {
    std::shared_ptr<EventChannel> client;
    std::shared_ptr<EventChannel> server;
  };
  std::vector<Session> sessions;
  std::vector<std::vector<EventChannel*>> by_worker(
      static_cast<std::size_t>(kWorkers));
  std::vector<std::vector<util::Bytes>> requests_by_worker(
      static_cast<std::size_t>(kWorkers));

  // Sessions persist across ramp steps (a real fleet doesn't reconnect
  // between load levels); each step only adds the delta.
  auto grow_sessions = [&](long target) {
    sessions.reserve(static_cast<std::size_t>(target));
    while (static_cast<long>(sessions.size()) < target) {
      const std::size_t i = sessions.size();
      const std::string mailbox = "u" + std::to_string(i % kAccountPool);
      const int worker = static_cast<int>(backend.shard_of(mailbox));
      auto& shard = backend.shard(static_cast<std::size_t>(worker));
      auto pair = switchboard::make_memory_conduit_pair();
      Session session;
      session.server = reactor.serve(
          worker, std::move(pair.b), fixtures[worker]->conn,
          [&shard](const util::Bytes& request, util::Bytes& response) {
            shard.handle(request, response);
          });
      session.client = reactor.open(worker, std::move(pair.a),
                                    fixtures[worker]->conn,
                                    static_cast<std::uint64_t>(i) + 1,
                                    mailbox);
      by_worker[static_cast<std::size_t>(worker)].push_back(
          session.client.get());
      std::vector<Value> request;
      request.push_back(Value::string("mail"));
      request.push_back(Value::string("getPhone"));
      request.push_back(Value::string(mailbox));
      util::Bytes plain;
      obs::append_trace_header(obs::SpanContext{}, plain);
      minilang::encode_values_into(request, plain);
      requests_by_worker[static_cast<std::size_t>(worker)].push_back(
          std::move(plain));
      sessions.push_back(std::move(session));
    }
    // Handshakes are asynchronous; wait until the whole fleet is
    // established before measuring.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(300);
    std::size_t established = 0;
    while (established < sessions.size()) {
      if (sessions[established].client->state() ==
          EventChannel::State::kEstablished) {
        ++established;
        continue;
      }
      if (std::chrono::steady_clock::now() > deadline) {
        std::cout << "  GATE FAILED: only " << established << "/"
                  << sessions.size() << " sessions established\n";
        ++g_gate_failures;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  const int kRequestsPerClient = 2;
  const std::vector<long> ramp =
      bench::smoke_mode() ? std::vector<long>{10'000, 100'000}
                          : std::vector<long>{10'000, 25'000, 50'000,
                                              100'000};
  std::cout << "\n  [event core] " << kWorkers << " workers, ramping to "
            << ramp.back() << " sessions\n";

  obs::journal::set_enabled(true);
  // ISSUE 9: the continuous profiler rides the whole event section. The
  // loop threads registered themselves in EventLoop::run() at
  // reactor.start(); default cadence (997 us CPU, tick-floored to ~4-10 ms
  // by the kernel) still lands hundreds of samples over the ramp.
  obs::profile::clear();
  const bool profiler_on = obs::profile::start();
  const std::uint64_t hard_before = obs::journal::hard_dropped();
  std::int64_t event_threshold_us = 0;
  obs::Histogram& sojourn_us = obs::histogram("psf.loop.task_sojourn_us");

  for (std::size_t step = 0; step < ramp.size(); ++step) {
    const long clients = ramp[step];
    const long requests = clients * kRequestsPerClient;
    const auto grow_start = std::chrono::steady_clock::now();
    grow_sessions(clients);
    const double grow_secs =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            std::chrono::steady_clock::now() - grow_start)
            .count();

    // Same adaptive-overflow discipline as the thread-core ramp: journal
    // emits land on kWorkers loop threads, so project the per-thread ring
    // overshoot and grow the shared overflow ring before the burst.
    const long per_worker = (requests + kWorkers - 1) / kWorkers;
    const long projected =
        kWorkers *
        std::max<long>(0, per_worker -
                              static_cast<long>(obs::journal::kRingCapacity));
    if (projected > static_cast<long>(obs::journal::overflow_capacity())) {
      obs::journal::set_overflow_capacity(static_cast<std::size_t>(projected));
      std::cout << "  [event core] [ring] grew overflow to "
                << obs::journal::overflow_capacity() << " for a projected "
                << projected << "-event burst\n";
    }

    const auto before = rpc_us.snapshot();
    const auto sojourn_before = sojourn_us.snapshot();
    const double secs = run_event_loaded(by_worker, requests_by_worker,
                                         requests, rpc_us, /*chatty=*/true);
    const auto after = rpc_us.snapshot();
    const auto sojourn_after = sojourn_us.snapshot();

    const std::int64_t p50 = delta_percentile(before, after, 50.0);
    const std::int64_t p99 = delta_percentile(before, after, 99.0);
    // Loop lag = post->run sojourn of tasks posted during the step (the
    // loop.lag SLO input): how long cross-thread work waits for the loop.
    const std::int64_t lag_p99 =
        delta_percentile(sojourn_before, sojourn_after, 99.0);
    const double rps = secs > 0 ? static_cast<double>(requests) / secs : 0.0;
    const int threads_now = switchboard::count_os_threads();
    const std::string tag = "event_ramp_" + std::to_string(clients);
    report.add(tag + ".p50_us", static_cast<double>(p50), "us", requests);
    report.add(tag + ".p99_us", static_cast<double>(p99), "us", requests);
    report.add(tag + ".rps", rps, "req/s", requests);
    report.add(tag + ".threads", static_cast<double>(threads_now), "threads",
               requests);
    report.add(tag + ".loop_lag_p99_us", static_cast<double>(lag_p99), "us",
               requests);
    const std::size_t drained = obs::journal::drain().size();
    obs::journal::reset();

    std::cout << "  [event core] " << clients << " sessions (" << requests
              << " requests, +" << static_cast<long>(grow_secs * 1000)
              << " ms setup): p50 " << p50 << " us, p99 " << p99 << " us, "
              << "loop lag p99 " << lag_p99 << " us, "
              << static_cast<long>(rps) << " req/s, " << threads_now
              << " OS threads, journal drained " << drained << "\n";

    if (step == 0) {
      event_threshold_us =
          std::max<std::int64_t>(1, delta_percentile(before, after, 90.0));
      rpc_us.set_exemplar_threshold(event_threshold_us);
      std::cout << "  [event core] exemplar threshold armed at warmup p90 = "
                << event_threshold_us << " us\n";
    }
  }

  // Gate: OS threads stay O(workers) — the reactor plus a small constant
  // (main, gtest/benchmark plumbing) regardless of session count.
  const int threads_at_peak = switchboard::count_os_threads();
  const bool threads_ok =
      threads_at_peak >= 0 && threads_before >= 0 &&
      threads_at_peak <= threads_before + kWorkers + 2;
  report.derived("event_thread_gate_ok", threads_ok ? 1.0 : 0.0);
  report.derived("event_threads_at_peak",
                 static_cast<double>(threads_at_peak));
  if (!threads_ok) {
    std::cout << "  GATE FAILED: " << threads_at_peak << " OS threads at "
              << sessions.size() << " sessions (allowed: " << threads_before
              << " base + " << kWorkers << " workers + 2)\n";
    ++g_gate_failures;
  } else {
    std::cout << "  [event core] thread gate: " << threads_at_peak
              << " OS threads at " << sessions.size() << " sessions\n";
  }

  // Gate: exemplars captured from event-core traffic resolve to spans.
  bool exemplar_resolved = false;
  const auto final_snapshot = rpc_us.snapshot();
  for (const auto& exemplar : final_snapshot.exemplars) {
    if (!exemplar.valid) continue;
    if (!obs::SpanCollector::instance()
             .spans_for_trace(exemplar.trace_id)
             .empty()) {
      exemplar_resolved = true;
      break;
    }
  }
  report.derived("event_exemplar_resolved", exemplar_resolved ? 1.0 : 0.0);
  if (!exemplar_resolved) {
    std::cout << "  GATE FAILED: no event-core exemplar resolved to spans\n";
    ++g_gate_failures;
  }

  // Gate: the §4f observability-overhead budget holds at the event core
  // too. Same min-of-7 alternating discipline as the thread-per-connection
  // gate above; the load plane is fully on vs fully off.
  const long gate_requests = 20'000;
  const int passes = 7;
  double on_s = 1e300, off_s = 1e300;
  const auto run_off = [&] {
    obs::journal::set_enabled(false);
    rpc_us.set_exemplar_threshold(INT64_MAX);
    off_s = std::min(off_s, run_event_loaded(by_worker, requests_by_worker,
                                             gate_requests, rpc_us));
  };
  const auto run_on = [&] {
    obs::journal::set_enabled(true);
    rpc_us.set_exemplar_threshold(event_threshold_us);
    on_s = std::min(on_s, run_event_loaded(by_worker, requests_by_worker,
                                           gate_requests, rpc_us));
  };
  for (int pass = 0; pass < passes; ++pass) {
    if (pass % 2 == 0) {
      run_off();
      run_on();
    } else {
      run_on();
      run_off();
    }
  }
  obs::journal::set_enabled(true);
  const double on_us = on_s / static_cast<double>(gate_requests) * 1e6;
  const double off_us = off_s / static_cast<double>(gate_requests) * 1e6;
  const double overhead_pct =
      off_us > 0 ? (on_us / off_us - 1.0) * 100.0 : 0.0;
  report.add("event_loaded_rpc.obs_on_us", on_us, "us", gate_requests);
  report.add("event_loaded_rpc.obs_off_us", off_us, "us", gate_requests);
  report.derived("event_overhead_at_load_pct", overhead_pct);
  std::cout << "  [event core] loaded RPC: obs on " << on_us << " us, off "
            << off_us << " us (" << overhead_pct
            << "% overhead, budget 5%)\n";
  if (overhead_pct > 5.0) {
    std::cout << "  GATE FAILED: event-core observability overhead "
              << overhead_pct << "% > 5%\n";
    ++g_gate_failures;
  }

  // Gate (ISSUE 9): the profiler's top span-attributed folded stack names a
  // real operation — CPU is attributed to logical span paths like
  // loop.N > switchboard.dispatch, not just bare thread roots.
  {
    const obs::profile::Report prof = obs::profile::report();
    report.derived("profile_samples", static_cast<double>(prof.samples));
    static const char* const kKnownSpans[] = {
        "switchboard.dispatch", "switchboard.call", "switchboard.authorize",
        "switchboard.handshake", "drbac.prove", "psf.request"};
    std::string top_line;
    bool top_ok = false;
    for (const auto& entry : prof.entries) {  // highest count first
      bool has_span = false;
      for (const auto& frame : entry.frames) {
        for (const char* known : kKnownSpans) {
          if (frame == known) has_span = true;
        }
      }
      if (!has_span) continue;
      top_ok = true;
      for (const auto& frame : entry.frames) {
        if (!top_line.empty()) top_line += ';';
        top_line += frame;
      }
      top_line += ' ' + std::to_string(entry.count);
      break;
    }
    report.derived("profile_top_stack_ok",
                   profiler_on && top_ok ? 1.0 : 0.0);
    if (!profiler_on || !top_ok) {
      std::cout << "  GATE FAILED: profiler " << (profiler_on ? "found" : "off,")
                << " no span-attributed stack in " << prof.samples
                << " samples\n";
      ++g_gate_failures;
    } else {
      std::cout << "  [event core] profiler: " << prof.samples
                << " samples, top span stack: " << top_line << "\n";
    }
  }

  // Gate (ISSUE 9): profiler overhead at load <= 5%. Same min-of-7
  // alternating discipline; both arms keep the rest of the obs plane fully
  // on, so the delta isolates the SIGPROF + ring-append cost.
  double prof_on_s = 1e300, prof_off_s = 1e300;
  const auto run_prof_off = [&] {
    obs::profile::stop();
    prof_off_s =
        std::min(prof_off_s, run_event_loaded(by_worker, requests_by_worker,
                                              gate_requests, rpc_us));
  };
  const auto run_prof_on = [&] {
    obs::profile::start();
    prof_on_s =
        std::min(prof_on_s, run_event_loaded(by_worker, requests_by_worker,
                                             gate_requests, rpc_us));
  };
  for (int pass = 0; pass < passes; ++pass) {
    if (pass % 2 == 0) {
      run_prof_off();
      run_prof_on();
    } else {
      run_prof_on();
      run_prof_off();
    }
  }
  obs::profile::stop();
  const double prof_on_us =
      prof_on_s / static_cast<double>(gate_requests) * 1e6;
  const double prof_off_us =
      prof_off_s / static_cast<double>(gate_requests) * 1e6;
  const double profiler_pct =
      prof_off_us > 0 ? (prof_on_us / prof_off_us - 1.0) * 100.0 : 0.0;
  report.add("event_loaded_rpc.profiler_on_us", prof_on_us, "us",
             gate_requests);
  report.add("event_loaded_rpc.profiler_off_us", prof_off_us, "us",
             gate_requests);
  report.derived("profiler_overhead_at_load_pct", profiler_pct);
  std::cout << "  [event core] loaded RPC: profiler on " << prof_on_us
            << " us, off " << prof_off_us << " us (" << profiler_pct
            << "% overhead, budget 5%)\n";
  if (profiler_pct > 5.0) {
    std::cout << "  GATE FAILED: profiler overhead " << profiler_pct
              << "% > 5%\n";
    ++g_gate_failures;
  }

  // Gate: zero hard journal drops across the whole event section.
  const std::uint64_t hard_drops =
      obs::journal::hard_dropped() - hard_before;
  report.derived("event_journal_hard_drops",
                 static_cast<double>(hard_drops));
  if (hard_drops != 0) {
    std::cout << "  GATE FAILED: " << hard_drops
              << " journal events hard-dropped during the event ramp\n";
    ++g_gate_failures;
  }

  // Graceful teardown: drain every session (BYE, flush, close) before the
  // reactor stops, exercising the kDraining path at fleet scale.
  for (auto& heartbeat : heartbeats) heartbeat.cancel();
  for (auto& session : sessions) session.client->begin_drain();
  const auto drain_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  std::size_t closed = 0;
  while (closed < sessions.size() &&
         std::chrono::steady_clock::now() < drain_deadline) {
    if (sessions[closed].client->state() == EventChannel::State::kClosed) {
      ++closed;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  report.derived("event_sessions_drained",
                 closed == sessions.size() ? 1.0 : 0.0);
  if (closed != sessions.size()) {
    std::cout << "  GATE FAILED: only " << closed << "/" << sessions.size()
              << " sessions drained cleanly\n";
    ++g_gate_failures;
  }
  reactor.stop();
  std::cout << "  [event core] backend served " << backend.total_requests()
            << " requests across " << backend.shards() << " shards\n";
}

void reproduce() {
  obs::install_builtin_checks();  // slo.switchboard.rpc over rpc_us
  obs::journal::set_enabled(true);
  obs::journal::reset();

  const int kWorkers = worker_count();
  std::vector<std::unique_ptr<WorkerFixture>> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.push_back(std::make_unique<WorkerFixture>(100 + w));
  }
  obs::Histogram& rpc_us = obs::histogram("psf.switchboard.rpc_us");

  bench::Report report("mail_load");
  const int kRequestsPerClient = 2;
  const std::vector<long> ramp = bench::smoke_mode()
                                     ? std::vector<long>{1000, 10000}
                                     : std::vector<long>{1000, 5000, 10000,
                                                         20000};
  std::cout << "\n  " << kWorkers << " workers, "
            << (ramp.size()) << " ramp steps, " << kRequestsPerClient
            << " requests per client\n\n";

  const std::uint64_t soft_before = obs::journal::soft_dropped();
  const std::uint64_t hard_before = obs::journal::hard_dropped();
  std::int64_t adaptive_threshold_us = 0;

  for (std::size_t step = 0; step < ramp.size(); ++step) {
    const long clients = ramp[step];
    const long requests = clients * kRequestsPerClient;

    // Adaptive overflow ring: project the journal burst this step will push
    // past the fixed per-thread rings and grow the shared overflow ring
    // before — not after — the burst would hard-drop.
    const long per_worker = (requests + kWorkers - 1) / kWorkers;
    const long projected =
        kWorkers * std::max<long>(0, per_worker -
                                         static_cast<long>(
                                             obs::journal::kRingCapacity));
    if (projected > static_cast<long>(obs::journal::overflow_capacity())) {
      obs::journal::set_overflow_capacity(static_cast<std::size_t>(projected));
      std::cout << "  [ring] grew overflow to "
                << obs::journal::overflow_capacity() << " for a projected "
                << projected << "-event burst\n";
    }

    const auto before = rpc_us.snapshot();
    const double secs = run_loaded(workers, requests, /*chatty=*/true);
    const auto after = rpc_us.snapshot();

    const std::int64_t p50 = delta_percentile(before, after, 50.0);
    const std::int64_t p99 = delta_percentile(before, after, 99.0);
    const double rps = secs > 0 ? static_cast<double>(requests) / secs : 0.0;
    const std::string tag = "ramp_" + std::to_string(clients);
    report.add(tag + ".p50_us", static_cast<double>(p50), "us", requests);
    report.add(tag + ".p99_us", static_cast<double>(p99), "us", requests);
    report.add(tag + ".rps", rps, "req/s", requests);

    // Scraping-collector behavior: drain the journal between steps, then
    // reset the rings so every step's soft/hard accounting is its own.
    const std::size_t drained = obs::journal::drain().size();
    report.add(tag + ".journal_drained", static_cast<double>(drained),
               "events", requests);
    obs::journal::reset();

    std::cout << "  " << clients << " clients (" << requests
              << " requests): p50 " << p50 << " us, p99 " << p99 << " us, "
              << static_cast<long>(rps) << " req/s, journal drained "
              << drained << "\n";

    if (step == 0) {
      // Adaptive exemplar threshold: the warmup step's p90 defines "tail"
      // for the rest of the ramp (the builtin objective armed a fixed 500us,
      // which healthy RPCs never reach on this fixture).
      adaptive_threshold_us =
          std::max<std::int64_t>(1, delta_percentile(before, after, 90.0));
      rpc_us.set_exemplar_threshold(adaptive_threshold_us);
      std::cout << "  [exemplar] threshold armed at warmup p90 = "
                << adaptive_threshold_us << " us\n";
    }
  }

  // Tail exemplars captured during the loaded steps must resolve to real
  // spans: pick any bucket exemplar whose trace the SpanCollector can still
  // produce (the most recent captures are always in the ring; pinned ones
  // additionally survive eviction).
  bool exemplar_resolved = false;
  const auto final_snapshot = rpc_us.snapshot();
  const auto tail = final_snapshot.tail_exemplar();
  for (const auto& exemplar : final_snapshot.exemplars) {
    if (!exemplar.valid) continue;
    if (!obs::SpanCollector::instance()
             .spans_for_trace(exemplar.trace_id)
             .empty()) {
      exemplar_resolved = true;
      break;
    }
  }
  std::cout << "  [exemplar] tail capture "
            << (tail.valid ? "present" : "absent") << ", resolves to spans: "
            << (exemplar_resolved ? "yes" : "NO") << "\n";

  const std::uint64_t soft_drops = obs::journal::soft_dropped() - soft_before;
  const std::uint64_t hard_drops = obs::journal::hard_dropped() - hard_before;
  report.add("journal.soft_drops", static_cast<double>(soft_drops), "events");
  report.add("journal.hard_drops", static_cast<double>(hard_drops), "events");
  std::cout << "  [ring] " << soft_drops
            << " events absorbed by the overflow ring, " << hard_drops
            << " lost\n";

  // Latency objective after the ramp: at 500us the secure-RPC objective
  // should not be burning error budget under this (healthy) load.
  for (const auto& entry : obs::HealthRegistry::instance().report().entries) {
    if (entry.name == "slo.switchboard.rpc") {
      std::cout << "  [slo] switchboard.rpc "
                << obs::health_level_name(entry.result.level) << ": "
                << entry.result.reason << "\n";
    }
  }

  // The §4f gate, measured at load: alternate full-load-plane-on and -off
  // passes and keep each configuration's best wall clock; the minima cancel
  // scheduler and frequency jitter the way bench_obs_overhead's do. Passes
  // are long (tens of ms) and the on/off order flips every pass — on this
  // class of small shared machine, short passes measure the scheduler, not
  // the load plane.
  const long gate_requests = 20000;
  const int passes = 7;  // min-of-7: the estimator has to outlast scheduler
                         // noise even in CI smoke, where the gate is asserted
  double on_s = 1e300, off_s = 1e300, chatty_s = 1e300;
  const auto run_off = [&] {
    obs::journal::set_enabled(false);
    rpc_us.set_exemplar_threshold(INT64_MAX);
    off_s = std::min(off_s, run_loaded(workers, gate_requests, false));
  };
  const auto load_plane_on = [&] {
    obs::journal::set_enabled(true);
    rpc_us.set_exemplar_threshold(adaptive_threshold_us);
  };
  const auto run_on = [&] {
    load_plane_on();
    on_s = std::min(on_s, run_loaded(workers, gate_requests, false));
  };
  // Diagnostic (reported, not gated): the same load with a per-request
  // journal event — debug-verbosity journaling at a volume that displaces
  // most events into the shared overflow ring, i.e. the worst case the
  // adaptive ring is for.
  const auto run_chatty = [&] {
    load_plane_on();
    chatty_s = std::min(chatty_s, run_loaded(workers, gate_requests, true));
    // Scrape and rewind so every chatty pass pays the same ring-salvage
    // cost instead of compounding overflow laps across passes.
    obs::journal::drain();
    obs::journal::reset();
  };
  for (int pass = 0; pass < passes; ++pass) {
    // Flip the order every pass so slow drift (thermal, noisy neighbors)
    // hits each configuration's minimum equally.
    if (pass % 2 == 0) {
      run_off();
      run_on();
      run_chatty();
    } else {
      run_chatty();
      run_on();
      run_off();
    }
  }
  const double on_us = on_s / static_cast<double>(gate_requests) * 1e6;
  const double off_us = off_s / static_cast<double>(gate_requests) * 1e6;
  const double chatty_us = chatty_s / static_cast<double>(gate_requests) * 1e6;
  const double overhead_pct = off_us > 0 ? (on_us / off_us - 1.0) * 100.0 : 0.0;
  const double chatty_pct =
      off_us > 0 ? (chatty_us / off_us - 1.0) * 100.0 : 0.0;

  report.add("loaded_rpc.obs_on_us", on_us, "us", gate_requests);
  report.add("loaded_rpc.obs_off_us", off_us, "us", gate_requests);
  report.add("loaded_rpc.obs_chatty_us", chatty_us, "us", gate_requests);
  report.derived("journal_overhead_at_load_pct", overhead_pct);
  report.derived("chatty_journal_overhead_pct", chatty_pct);
  report.derived("exemplar_resolved", exemplar_resolved ? 1.0 : 0.0);
  report.derived("exemplar_threshold_us",
                 static_cast<double>(adaptive_threshold_us));
  report.derived("journal_hard_drops", static_cast<double>(hard_drops));

  // The same workload through the readiness-driven core, ramped to 100k
  // sessions.
  reproduce_event_core(report, workers, rpc_us);
  report.write();

  std::cout << "  loaded RPC: obs on " << on_us << " us, off " << off_us
            << " us (" << overhead_pct << "% overhead, budget 5%)\n"
            << "  loaded RPC, per-request journaling: " << chatty_us
            << " us (" << chatty_pct << "% over off; diagnostic, not gated)\n";
  if (overhead_pct > 5.0) {
    std::cout << "  GATE FAILED: observability overhead at load "
              << overhead_pct << "% > 5%\n";
    ++g_gate_failures;
  }
  if (hard_drops != 0) {
    std::cout << "  GATE FAILED: " << hard_drops
              << " journal events hard-dropped despite the adaptive ring\n";
    ++g_gate_failures;
  }
  if (!exemplar_resolved) {
    std::cout << "  GATE FAILED: no captured exemplar resolved to spans\n";
    ++g_gate_failures;
  }
}

void BM_LoadedRpcObsOn(benchmark::State& state) {
  static WorkerFixture f(7);
  obs::journal::set_enabled(true);
  for (auto _ : state) f.one_request(0, 0, false);
}
BENCHMARK(BM_LoadedRpcObsOn);

void BM_LoadedRpcObsOff(benchmark::State& state) {
  static WorkerFixture f(8);
  obs::journal::set_enabled(false);
  for (auto _ : state) f.one_request(0, 0, false);
  obs::journal::set_enabled(true);
}
BENCHMARK(BM_LoadedRpcObsOff);

void BM_LoadedRpcChattyJournal(benchmark::State& state) {
  static WorkerFixture f(9);
  obs::journal::set_enabled(true);
  std::int64_t i = 0;
  for (auto _ : state) f.one_request(0, i++, true);
}
BENCHMARK(BM_LoadedRpcChattyJournal);

}  // namespace

int main(int argc, char** argv) {
  const int rc = psf::bench::run(
      argc, argv, "ISSUE 6: mail load ramp (SLOs, exemplars, adaptive ring)",
      reproduce);
  return rc != 0 ? rc : (g_gate_failures != 0 ? 1 : 0);
}
