// Claim C3 (paper §4.3): Switchboard connection costs — handshake (key
// exchange + identity signatures + mutual authorization), per-call overhead
// of the secure channel vs the plaintext rmi baseline, raw frame
// seal/unseal throughput by payload size, heartbeat cost, the latency
// from credential revocation to AuthorizationMonitor notification, and the
// per-session bytes ledger of the event transport.
#include <atomic>
#include <future>
#include <thread>

#include "bench_util.hpp"
#include "mail/components.hpp"
#include "minilang/interp.hpp"
#include "switchboard/channel.hpp"
#include "switchboard/reactor.hpp"

namespace {

using namespace psf;
using drbac::Principal;
using minilang::Value;
using switchboard::AcceptAllAuthorizer;
using switchboard::AuthorizationSuite;
using switchboard::Connection;
using switchboard::RoleAuthorizer;

struct Fixture {
  util::Rng rng{77};
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

  Fixture() {
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
    conn = connect();
  }

  AuthorizationSuite client_suite() {
    AuthorizationSuite suite;
    suite.identity = client;
    suite.credentials = {client_cred};
    suite.authorizer = std::make_shared<AcceptAllAuthorizer>();
    return suite;
  }

  std::shared_ptr<Connection> connect() {
    auto r = client_board.connect(server_board, client_suite(), rng);
    return r.value();
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

/// Blocks until every worker has run all the tasks queued before this call.
void quiesce(switchboard::Reactor& reactor) {
  for (int w = 0; w < reactor.workers(); ++w) {
    std::promise<void> done;
    reactor.loop(w).post([&done] { done.set_value(); });
    done.get_future().wait();
  }
}

/// Per-session bytes ledger: heap bytes (mallinfo2 deltas) that one
/// memory-conduit session pair — a client and a server EventChannel plus
/// their conduit — holds after its handshake and one 64 B round trip, split
/// by owner:
///   conduit   the idle pipe pair, measured before any channel exists;
///   buffers   read and write buffer capacity (EventChannel::Stats);
///   crypto    the four SessionCryptos of a pair (data and control, each
///             end), each after opening one frame, measured on their own;
///   channel   the rest: channel objects less their embedded SessionCryptos,
///             shared_ptr control blocks, callbacks, and any capacity the
///             pipes kept.
void session_ledger(Fixture& f, bench::Report& report) {
  using switchboard::EventChannel;
  constexpr int kPairs = 10000;
  switchboard::Reactor reactor({.workers = 2});
  reactor.start();
  const auto trunk = f.conn;
  const util::Bytes request(64, 0x42);
  auto echo = [](const util::Bytes& in, util::Bytes& out) { out = in; };
  std::atomic<int> answered{0};
  auto run_pairs = [&](std::vector<switchboard::ConduitPair>& conduits,
                       std::vector<std::shared_ptr<EventChannel>>& channels,
                       std::uint64_t first_session) {
    for (std::size_t i = 0; i < conduits.size(); ++i) {
      const int worker = static_cast<int>(i % 2);
      channels.push_back(reactor.serve(worker, std::move(conduits[i].b),
                                       trunk, echo));
      channels.push_back(reactor.open(worker, std::move(conduits[i].a), trunk,
                                      first_session + i, "ledger"));
      channels.back()->submit(request, [&answered](util::Result<util::Bytes>) {
        answered.fetch_add(1);
      });
    }
  };

  // A first pair pays the one-time costs (metric registration, each loop's
  // read scratch) outside the measured window.
  std::vector<switchboard::ConduitPair> warm(1);
  warm[0] = switchboard::make_memory_conduit_pair();
  std::vector<std::shared_ptr<EventChannel>> warm_channels;
  run_pairs(warm, warm_channels, 1);
  while (answered.load() < 1) std::this_thread::yield();
  quiesce(reactor);

  std::vector<switchboard::ConduitPair> conduits(kPairs);
  std::vector<std::shared_ptr<EventChannel>> channels;
  channels.reserve(2 * kPairs);
  const std::size_t base = bench::heap_in_use();
  for (auto& pair : conduits) pair = switchboard::make_memory_conduit_pair();
  const std::size_t with_conduits = bench::heap_in_use();
  run_pairs(conduits, channels, 1000);
  while (answered.load() < 1 + kPairs) std::this_thread::yield();
  quiesce(reactor);
  const std::size_t with_channels = bench::heap_in_use();
  std::uint64_t buffered = 0;
  for (const auto& channel : channels) {
    buffered += channel->stats().buffered_capacity;
  }
  reactor.stop();

  // A pair holds two SessionCryptos, one per channel, and each opens
  // frames in its own receive direction.
  std::vector<std::unique_ptr<switchboard::SessionCrypto>> cryptos;
  cryptos.reserve(2 * kPairs);
  const auto material = trunk->derive_session_keys(1);
  switchboard::SessionCrypto sender(material);
  util::Bytes frames[2], plain;
  for (int dir = 0; dir < 2; ++dir) {
    sender.seal_into(dir, request.data(), request.size(), frames[dir]);
  }
  const std::size_t before_crypto = bench::heap_in_use();
  for (int i = 0; i < 2 * kPairs; ++i) {
    cryptos.push_back(std::make_unique<switchboard::SessionCrypto>(material));
    const util::Bytes& frame = frames[i % 2];
    (void)cryptos.back()->unseal_into(i % 2, frame.data(), frame.size(),
                                      plain);
  }
  const std::size_t after_crypto = bench::heap_in_use();

  const auto per_pair = [](std::size_t bytes) {
    return static_cast<double>(bytes) / kPairs;
  };
  const double total = per_pair(with_channels - base);
  const double conduit = per_pair(with_conduits - base);
  const double buffers = per_pair(buffered);
  const double crypto = per_pair(after_crypto - before_crypto);
  const double channel = total - conduit - buffers - crypto;
  report.add("session_pair_bytes", total, "bytes", kPairs);
  report.add("session_pair.conduit_bytes", conduit, "bytes", kPairs);
  report.add("session_pair.buffer_bytes", buffers, "bytes", kPairs);
  report.add("session_pair.crypto_bytes", crypto, "bytes", kPairs);
  report.add("session_pair.channel_bytes", channel, "bytes", kPairs);
  report.add("sizeof_event_channel", sizeof(EventChannel), "bytes");
  report.add("sizeof_session_crypto", sizeof(switchboard::SessionCrypto),
             "bytes");
  std::cout << "  per-session ledger (" << kPairs
            << " memory-conduit pairs, handshake + one round trip): "
            << total << " B/pair = conduit " << conduit << " + buffers "
            << buffers << " + SessionCrypto " << crypto << " + channel "
            << channel << "\n";
}

void reproduce() {
  Fixture& f = fixture();
  std::cout << "  connection established: open=" << f.conn->open()
            << ", simulated handshake time = "
            << f.conn->stats().handshake_time / util::kMillisecond
            << " ms (3 flights over a 1 ms link)\n";
  f.conn->call(Connection::End::kA, "mail", "getPhone",
               {Value::string("alice")});
  std::cout << "  one RPC: " << f.conn->stats().bytes
            << " encrypted+MACed bytes, simulated RTT = "
            << f.conn->stats().last_rtt / util::kMillisecond << " ms\n";
  f.conn->heartbeat();
  std::cout << "  heartbeat: replay-resistant, RTT = "
            << f.conn->stats().last_rtt / util::kMillisecond << " ms\n";

  // Revocation-to-notification latency (in calls, not time: the monitor is
  // push-based, so notification is immediate and synchronous). Use a
  // dedicated demo identity so the fixture's own connection is untouched.
  drbac::Entity demo = drbac::Entity::create("Demo", f.rng);
  auto demo_cred = drbac::issue(f.guard, Principal::of_entity(demo),
                                drbac::role_of(f.guard, "Member"), {}, false,
                                0, 0, f.repo.next_serial());
  f.repo.add(demo_cred);
  AuthorizationSuite demo_suite;
  demo_suite.identity = demo;
  demo_suite.credentials = {demo_cred};
  demo_suite.authorizer = std::make_shared<AcceptAllAuthorizer>();
  auto conn = f.client_board.connect(f.server_board, demo_suite, f.rng).value();
  bool notified = false;
  conn->set_authorization_listener(
      [&](Connection::End, const std::string&) { notified = true; });
  f.repo.revoke(demo_cred->serial);
  std::cout << "  revocation -> AuthorizationMonitor fired synchronously: "
            << (notified ? "yes" : "no")
            << " (vs SSL/TLS: never, until renegotiation)\n";

  // Perf trajectory (BENCH_switchboard.json): the zero-copy frame path —
  // HMAC from keyed midstates, in-place ChaCha20, scratch-buffer reuse,
  // the trunk's O(1) replay bitmap — is tracked here across PRs.
  bench::Report report("switchboard");
  const int call_iters = bench::iterations(2000);
  const double secure_us = bench::time_us(call_iters, [&] {
    f.conn->call(Connection::End::kA, "mail", "getPhone",
                 {Value::string("alice")});
  });
  report.add("secure_rpc_call", secure_us, "us", call_iters);
  switchboard::RmiStub stub(&f.net, "client", &f.server_board, "mail");
  const double rmi_us = bench::time_us(call_iters, [&] {
    stub.call("getPhone", {Value::string("alice")});
  });
  report.add("plaintext_rmi_call", rmi_us, "us", call_iters);
  for (const std::size_t size : {std::size_t{64}, std::size_t{1024},
                                 std::size_t{16384}, std::size_t{262144}}) {
    const util::Bytes payload = f.rng.next_bytes(size);
    util::Bytes frame, plain;
    const int iters = bench::iterations(size >= 262144 ? 200 : 2000);
    const double us = bench::time_us(iters, [&] {
      f.conn->seal_into(Connection::End::kA, payload.data(), payload.size(),
                        frame);
      auto r = f.conn->unseal_into(Connection::End::kB, frame, plain);
      benchmark::DoNotOptimize(r);
    });
    report.add("seal_unseal_" + std::to_string(size), us, "us", iters);
    if (us > 0) {
      report.derived("seal_unseal_" + std::to_string(size) + "_mb_s",
                     static_cast<double>(size) / us);
    }
  }
  const double hb_us = bench::time_us(call_iters, [&] { f.conn->heartbeat(); });
  report.add("heartbeat", hb_us, "us", call_iters);
  if (secure_us > 0 && rmi_us > 0) {
    report.derived("secure_over_rmi", secure_us / rmi_us);
  }
  session_ledger(f, report);
  report.write();
  std::cout << "  call path: secure=" << secure_us << " us, rmi=" << rmi_us
            << " us, heartbeat=" << hb_us << " us\n";
}

void BM_HandshakeFull(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    auto conn = f.connect();
    benchmark::DoNotOptimize(conn);
  }
}
BENCHMARK(BM_HandshakeFull);

void BM_SecureRpcCall(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.conn->call(Connection::End::kA, "mail",
                                          "getPhone",
                                          {Value::string("alice")}));
  }
}
BENCHMARK(BM_SecureRpcCall);

void BM_PlaintextRmiCall(benchmark::State& state) {
  Fixture& f = fixture();
  switchboard::RmiStub stub(&f.net, "client", &f.server_board, "mail");
  for (auto _ : state) {
    benchmark::DoNotOptimize(stub.call("getPhone", {Value::string("alice")}));
  }
}
BENCHMARK(BM_PlaintextRmiCall);

void BM_FrameSealUnseal(benchmark::State& state) {
  Fixture& f = fixture();
  const util::Bytes payload = f.rng.next_bytes(
      static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const util::Bytes frame = f.conn->seal(Connection::End::kA, payload);
    auto plain = f.conn->unseal(Connection::End::kB, frame);
    benchmark::DoNotOptimize(plain);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FrameSealUnseal)->Arg(64)->Arg(1024)->Arg(16384)->Arg(262144);

void BM_Heartbeat(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    f.conn->heartbeat();
  }
}
BENCHMARK(BM_Heartbeat);

void BM_RevocationNotification(benchmark::State& state) {
  // Cost of revoking a watched credential and delivering the notification.
  Fixture& f = fixture();
  for (auto _ : state) {
    state.PauseTiming();
    auto cred = drbac::issue(f.guard, Principal::of_entity(f.client),
                             drbac::role_of(f.guard, "Member"), {}, false, 0,
                             0, f.repo.next_serial());
    f.repo.add(cred);
    auto conn = f.connect();
    state.ResumeTiming();
    f.repo.revoke(cred->serial);
    benchmark::DoNotOptimize(conn->suspended(Connection::End::kA));
  }
}
BENCHMARK(BM_RevocationNotification);

}  // namespace

int main(int argc, char** argv) {
  return psf::bench::run(
      argc, argv, "Claim C3: Switchboard channel costs vs rmi baseline",
      reproduce);
}
