// Reactor / EventChannel / sharded-mail tests: session key derivation,
// golden sealed-frame vectors for the trunk and derived sessions, the
// connection state machine over memory and socket conduits, draining
// teardown, cross-worker shard routing, wheel-scheduled heartbeats, and a
// value-level check that Connection::call and an EventChannel agree on mail
// results.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <map>
#include <thread>

#include "drbac/credential.hpp"
#include "mail/components.hpp"
#include "mail/sharded.hpp"
#include "minilang/interp.hpp"
#include "minilang/value_codec.hpp"
#include "obs/trace.hpp"
#include "switchboard/authorizer.hpp"
#include "switchboard/channel.hpp"
#include "switchboard/network.hpp"
#include "switchboard/reactor.hpp"

namespace psf::switchboard {
namespace {

using namespace std::chrono_literals;
using drbac::Principal;
using drbac::role_of;
using minilang::Value;
using util::kMillisecond;

template <typename Pred>
bool eventually(Pred pred) {
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

/// The switchboard_test ChannelWorld, reproduced here with a seed parameter:
/// every Rng draw (entity keys, DH) replays identically, so two instances
/// with one seed hold byte-identical key material and the golden frames
/// are reproducible.
struct TrunkWorld {
  explicit TrunkWorld(std::uint64_t seed = 2024) : rng(seed) {
    net.connect("client-host", "server-host", {1 * kMillisecond, 0, false});
    client_cred = drbac::issue(guard, Principal::of_entity(client),
                               role_of(guard, "Member"), {}, false, 0, 0,
                               repo.next_serial());
    AuthorizationSuite server_suite;
    server_suite.identity = server_id;
    server_suite.authorizer = std::make_shared<RoleAuthorizer>(
        &repo, role_of(guard, "Member"));
    server_board.set_suite(server_suite);
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
    EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().message);
    return r.value();
  }

  util::Rng rng;
  std::shared_ptr<util::SimClock> clock = std::make_shared<util::SimClock>();
  Network net;
  drbac::Repository repo;
  drbac::Entity guard{drbac::Entity::create("Comp.NY", rng)};
  drbac::Entity client{drbac::Entity::create("Alice", rng)};
  drbac::Entity server_id{drbac::Entity::create("Mail.Server", rng)};
  Switchboard client_board{"client-host", &net, clock};
  Switchboard server_board{"server-host", &net, clock};
  drbac::DelegationPtr client_cred;
};

/// Encode a request the way Connection::call does: trace header + values
/// [service, method, args...]. The event transport carries the same
/// plaintext, so both paths are protocol-compatible end to end.
util::Bytes encode_request(const std::string& service,
                           const std::string& method,
                           std::vector<Value> args) {
  std::vector<Value> request;
  request.push_back(Value::string(service));
  request.push_back(Value::string(method));
  for (auto& a : args) request.push_back(std::move(a));
  util::Bytes plain;
  obs::append_trace_header(obs::SpanContext{}, plain);
  minilang::encode_values_into(request, plain);
  return plain;
}

/// Decode a [ok, payload] response; fails the test on application errors.
Value decode_response(const util::Bytes& plain) {
  auto decoded = minilang::decode_values(plain);
  EXPECT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().size(), 2u);
  EXPECT_TRUE(decoded.value()[0].as_bool())
      << decoded.value()[1].as_string();
  return decoded.value()[1];
}

/// Round-trip helper: submit and synchronously await the decoded payload.
Value call_via(const std::shared_ptr<EventChannel>& channel,
               const std::string& method, std::vector<Value> args) {
  std::promise<util::Result<util::Bytes>> promise;
  auto future = promise.get_future();
  channel->submit(encode_request("mail", method, std::move(args)),
                  [&promise](util::Result<util::Bytes> r) {
                    promise.set_value(std::move(r));
                  });
  EXPECT_EQ(future.wait_for(5s), std::future_status::ready);
  auto result = future.get();
  EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.error().message);
  return decode_response(result.value());
}

// ------------------------------------------------------- session derivation

TEST(SessionKeys, DeterministicAndLabelSeparated) {
  TrunkWorld w;
  auto conn = w.connect();
  const auto a = conn->derive_session_keys(42, "data");
  const auto b = conn->derive_session_keys(42, "data");
  EXPECT_EQ(a.cipher[0], b.cipher[0]);
  EXPECT_EQ(a.mac_key[1], b.mac_key[1]);
  // Different sessions, directions, and labels all get distinct keys.
  const auto other = conn->derive_session_keys(43, "data");
  EXPECT_NE(a.cipher[0], other.cipher[0]);
  EXPECT_NE(a.cipher[0], a.cipher[1]);
  const auto ctl = conn->derive_session_keys(42, "ctl");
  EXPECT_NE(a.cipher[0], ctl.cipher[0]);
  EXPECT_NE(a.mac_key[0], ctl.mac_key[0]);
}

TEST(SessionKeys, BothTrunkEndsDeriveIdenticalMaterial) {
  // Two identically-seeded worlds stand in for the two ends: establishment
  // is deterministic, so the resumption secrets (and hence every derived
  // session key) must match.
  TrunkWorld w1(7), w2(7);
  auto c1 = w1.connect();
  auto c2 = w2.connect();
  const auto k1 = c1->derive_session_keys(5, "data");
  const auto k2 = c2->derive_session_keys(5, "data");
  EXPECT_EQ(k1.cipher[0], k2.cipher[0]);
  EXPECT_EQ(k1.cipher[1], k2.cipher[1]);
  EXPECT_EQ(k1.mac_key[0], k2.mac_key[0]);
  EXPECT_EQ(k1.mac_key[1], k2.mac_key[1]);
}

TEST(SessionCrypto, SealUnsealRoundTripAndReplayRejection) {
  TrunkWorld w;
  auto conn = w.connect();
  SessionCrypto sender(conn->derive_session_keys(9, "data"));
  SessionCrypto receiver(conn->derive_session_keys(9, "data"));

  const util::Bytes plain = util::to_bytes("hello sharded world");
  util::Bytes frame, out;
  sender.seal_into(0, plain.data(), plain.size(), frame);
  EXPECT_EQ(frame.size(), plain.size() + 40) << "seq(8) | ct | hmac(32)";
  auto r = receiver.unseal_into(0, frame.data(), frame.size(), out);
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(out, plain);

  // Replay of the same frame is rejected by the per-session window.
  auto replay = receiver.unseal_into(0, frame.data(), frame.size(), out);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.error().code, "replay");

  // Tampering breaks the MAC before the window is consulted.
  sender.seal_into(0, plain.data(), plain.size(), frame);
  frame[10] ^= 1;
  auto bad = receiver.unseal_into(0, frame.data(), frame.size(), out);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, "mac");

  // Wrong direction = wrong keys.
  sender.seal_into(0, plain.data(), plain.size(), frame);
  auto wrong_dir = receiver.unseal_into(1, frame.data(), frame.size(), out);
  EXPECT_FALSE(wrong_dir.ok());
}

// ------------------------------------------------------------ state machine

TEST(EventChannel, HandshakeAndRpcOverMemoryConduit) {
  TrunkWorld w;
  auto trunk = w.connect();
  EventLoop loop;
  loop.start();

  auto pair = make_memory_conduit_pair();
  ASSERT_TRUE(pair.a && pair.b);
  auto server = EventChannel::serve(
      loop, std::move(pair.b), trunk,
      [](const util::Bytes& request, util::Bytes& response) {
        response = request;  // echo
        response.push_back('!');
      });
  auto client =
      EventChannel::open(loop, std::move(pair.a), trunk, /*session_id=*/17,
                         "alice");
  ASSERT_TRUE(eventually([&] {
    return client->state() == EventChannel::State::kEstablished;
  }));
  EXPECT_EQ(server->state(), EventChannel::State::kEstablished);
  EXPECT_EQ(server->session_id(), 17u);
  EXPECT_EQ(server->mailbox(), "alice") << "HELLO carries the mailbox";

  std::promise<util::Bytes> promise;
  auto future = promise.get_future();
  client->submit(util::to_bytes("ping"), [&](util::Result<util::Bytes> r) {
    ASSERT_TRUE(r.ok()) << r.error().message;
    promise.set_value(r.value());
  });
  ASSERT_EQ(future.wait_for(5s), std::future_status::ready);
  EXPECT_EQ(future.get(), util::to_bytes("ping!"));

  const auto stats = client->stats();
  EXPECT_GE(stats.frames_out, 2u);  // HELLO + DATA
  EXPECT_GE(stats.frames_in, 2u);   // WELCOME + response
  loop.stop();
}

TEST(EventChannel, SubmitsQueuedDuringHandshakeAreSentOnEstablish) {
  TrunkWorld w;
  auto trunk = w.connect();
  EventLoop loop;
  loop.start();
  auto pair = make_memory_conduit_pair();
  auto server = EventChannel::serve(
      loop, std::move(pair.b), trunk,
      [](const util::Bytes& request, util::Bytes& response) {
        response = request;
      });
  auto client = EventChannel::open(loop, std::move(pair.a), trunk, 3, "bob");
  // Submit immediately — very likely before WELCOME lands.
  std::atomic<int> answered{0};
  for (int i = 0; i < 10; ++i) {
    client->submit(util::to_bytes("q" + std::to_string(i)),
                   [&answered, i](util::Result<util::Bytes> r) {
                     ASSERT_TRUE(r.ok());
                     EXPECT_EQ(r.value(),
                               util::to_bytes("q" + std::to_string(i)))
                         << "responses must match FIFO";
                     answered.fetch_add(1);
                   });
  }
  EXPECT_TRUE(eventually([&] { return answered.load() == 10; }));
  loop.stop();
}

#ifdef __linux__
TEST(EventChannel, SocketConduitWithWriteBacklog) {
  TrunkWorld w;
  auto trunk = w.connect();
  EventLoop loop;
  loop.start();
  auto pair = make_socket_conduit_pair();
  ASSERT_TRUE(pair.a && pair.b) << "socketpair failed";
  EXPECT_GE(pair.a->fd(), 0);
  auto server = EventChannel::serve(
      loop, std::move(pair.b), trunk,
      [](const util::Bytes& request, util::Bytes& response) {
        response = request;
      });
  auto client = EventChannel::open(loop, std::move(pair.a), trunk, 4, "carol");
  // 2 MB round trip: far beyond the AF_UNIX buffer, so both directions must
  // take the want-write path (partial writes, poller-driven resume).
  util::Bytes big(2u << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 31);
  }
  std::promise<util::Bytes> promise;
  auto future = promise.get_future();
  client->submit(big, [&](util::Result<util::Bytes> r) {
    ASSERT_TRUE(r.ok()) << r.error().message;
    promise.set_value(r.value());
  });
  ASSERT_EQ(future.wait_for(5s), std::future_status::ready);
  EXPECT_EQ(future.get(), big);
  loop.stop();
}
#endif

TEST(EventChannel, DrainingTeardown) {
  TrunkWorld w;
  auto trunk = w.connect();
  EventLoop loop;
  loop.start();
  auto pair = make_memory_conduit_pair();
  auto server = EventChannel::serve(
      loop, std::move(pair.b), trunk,
      [](const util::Bytes& request, util::Bytes& response) {
        response = request;
      });
  auto client = EventChannel::open(loop, std::move(pair.a), trunk, 6, "dave");
  ASSERT_TRUE(eventually([&] {
    return client->state() == EventChannel::State::kEstablished;
  }));
  // One echo round trip so the drain has real traffic behind it.
  std::promise<util::Bytes> echoed;
  client->submit(util::to_bytes("traffic"), [&](util::Result<util::Bytes> r) {
    ASSERT_TRUE(r.ok());
    echoed.set_value(r.value());
  });
  ASSERT_EQ(echoed.get_future().wait_for(5s), std::future_status::ready);
  client->begin_drain();
  ASSERT_TRUE(eventually([&] {
    return client->state() == EventChannel::State::kClosed &&
           server->state() == EventChannel::State::kClosed;
  })) << "BYE must tear down both ends";

  // Post-drain submits fail fast instead of hanging.
  std::promise<util::Result<util::Bytes>> promise;
  auto future = promise.get_future();
  client->submit(util::to_bytes("late"), [&](util::Result<util::Bytes> r) {
    promise.set_value(std::move(r));
  });
  ASSERT_EQ(future.wait_for(5s), std::future_status::ready);
  auto result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "closed");
  loop.stop();
}

// ------------------------------------------------------------ golden frames

// Sealed frames pinned byte for byte in tests/fixtures/frames/golden.txt
// ("<name> <hex>" per line): the seq8|ciphertext|hmac32 layout, the trunk's
// key schedule and the session key derivation must never drift. Frame n of
// each direction (n = 1..3) carries golden_payload(n): empty, short text,
// then 1100 patterned bytes.
util::Bytes golden_payload(int n) {
  if (n == 1) return {};
  if (n == 2) return util::to_bytes("golden frame");
  util::Bytes big(1100);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  return big;
}

using GoldenFrames = std::vector<std::pair<std::string, util::Bytes>>;

/// Trunk frames: Connection::seal from both ends of the seed-99 TrunkWorld.
GoldenFrames trunk_golden_frames(Connection& conn) {
  GoldenFrames frames;
  for (const auto& [end, name] :
       {std::pair{Connection::End::kA, "a"}, std::pair{Connection::End::kB, "b"}}) {
    for (int n = 1; n <= 3; ++n) {
      frames.emplace_back(std::string("trunk.") + name + "." + std::to_string(n),
                          conn.seal(end, golden_payload(n)));
    }
  }
  return frames;
}

/// Derived-session frames: session 17 under the "data" and "ctl" labels,
/// both directions, from the same trunk.
GoldenFrames session_golden_frames(const Connection& conn) {
  GoldenFrames frames;
  for (const char* label : {"data", "ctl"}) {
    SessionCrypto sender(conn.derive_session_keys(17, label));
    for (int dir = 0; dir < 2; ++dir) {
      for (int n = 1; n <= 3; ++n) {
        const util::Bytes plain = golden_payload(n);
        util::Bytes frame;
        sender.seal_into(dir, plain.data(), plain.size(), frame);
        frames.emplace_back(std::string("session17.") + label +
                                (dir == 0 ? ".a2b." : ".b2a.") +
                                std::to_string(n),
                            std::move(frame));
      }
    }
  }
  return frames;
}

std::map<std::string, std::string> load_golden_frames() {
  std::ifstream in(std::string(PSF_FRAME_GOLDEN_DIR) + "/golden.txt");
  std::map<std::string, std::string> golden;
  std::string name, hex;
  while (in >> name >> hex) golden[name] = hex;
  return golden;
}

void expect_golden(const GoldenFrames& frames) {
  const auto golden = load_golden_frames();
  ASSERT_FALSE(golden.empty()) << "missing tests/fixtures/frames/golden.txt";
  for (const auto& [name, frame] : frames) {
    auto it = golden.find(name);
    ASSERT_NE(it, golden.end()) << "no golden vector " << name;
    EXPECT_EQ(util::to_hex(frame), it->second) << name;
  }
}

TEST(GoldenFrames, TrunkSealIsPinned) {
  TrunkWorld w(99);
  auto conn = w.connect();
  const GoldenFrames frames = trunk_golden_frames(*conn);
  expect_golden(frames);
  // The pinned bytes also open: each end decodes the other's frames.
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto receiver = i < 3 ? Connection::End::kB : Connection::End::kA;
    auto plain = conn->unseal(receiver, frames[i].second);
    ASSERT_TRUE(plain.ok()) << frames[i].first;
    EXPECT_EQ(plain.value(), golden_payload(static_cast<int>(i % 3) + 1));
  }
}

TEST(GoldenFrames, DerivedSessionSealIsPinned) {
  TrunkWorld w(99);
  auto conn = w.connect();
  const GoldenFrames frames = session_golden_frames(*conn);
  expect_golden(frames);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    // Frames run data.a2b, data.b2a, ctl.a2b, ctl.b2a; three of each.
    SessionCrypto receiver(
        conn->derive_session_keys(17, i < 6 ? "data" : "ctl"));
    const int dir = static_cast<int>(i / 3) % 2;
    util::Bytes plain;
    for (std::size_t j = i - i % 3; j <= i; ++j) {
      const util::Bytes& frame = frames[j].second;
      ASSERT_TRUE(
          receiver.unseal_into(dir, frame.data(), frame.size(), plain).ok())
          << frames[j].first;
    }
    EXPECT_EQ(plain, golden_payload(static_cast<int>(i % 3) + 1));
  }
}

// ------------------------------------------------------------ differential

TEST(Differential, OldAndNewTransportsAgreeOnMailResults) {
  // Value-level differential: the same logical request served by the
  // thread-per-connection path (Connection::call into a registered service)
  // and by the event path (EventChannel into a ShardedMailBackend) must
  // produce the same application result.
  TrunkWorld w;
  minilang::ClassRegistry registry;
  mail::register_all(registry);
  auto service = minilang::instantiate(registry, "MailServer");
  w.server_board.register_service("mail", service);
  auto conn = w.connect();
  conn->call(Connection::End::kA, "mail", "registerAccount",
             {Value::string("alice"), Value::string("555"),
              Value::string("a@x")});
  const Value old_phone = conn->call(Connection::End::kA, "mail", "getPhone",
                                     {Value::string("alice")});

  mail::ShardedMailBackend backend(2);
  backend.register_account("alice", "555", "a@x");
  Reactor reactor({.workers = 2});
  reactor.start();
  const int worker = static_cast<int>(backend.shard_of("alice"));
  auto pair = make_memory_conduit_pair();
  mail::MailShard& shard = backend.shard(static_cast<std::size_t>(worker));
  auto server = reactor.serve(
      worker, std::move(pair.b), conn,
      [&shard](const util::Bytes& request, util::Bytes& response) {
        shard.handle(request, response);
      });
  auto client = reactor.open(worker, std::move(pair.a), conn, 1, "alice");
  const Value new_phone = call_via(client, "getPhone",
                                   {Value::string("alice")});
  EXPECT_EQ(new_phone.as_string(), old_phone.as_string());
  reactor.stop();
}

// ---------------------------------------------------------- shard routing

TEST(Sharding, ReactorAndBackendAgreeOnPlacement) {
  Reactor reactor({.workers = 3});
  mail::ShardedMailBackend backend(3);
  for (const char* name :
       {"alice", "bob", "carol", "dave", "erin", "frank", "mallory",
        "peggy", "trent", "victor", "walter", "a", "zz-top"}) {
    EXPECT_EQ(reactor.shard_of(name), backend.shard_of(name))
        << "placement must be one pure function across tiers: " << name;
  }
  // Not all mailboxes on one shard (sanity on the hash spread).
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 100; ++i) {
    ++counts[backend.shard_of("mailbox-" + std::to_string(i))];
  }
  for (int c : counts) EXPECT_GT(c, 0);
}

TEST(Sharding, RequestsLandOnTheOwningShard) {
  TrunkWorld w;
  auto trunk = w.connect();
  mail::ShardedMailBackend backend(2);
  Reactor reactor({.workers = 2});
  reactor.start();

  const std::vector<std::string> users = {"alice", "bob", "carol", "dave"};
  for (const auto& user : users) {
    backend.register_account(user, "ph-" + user, user + "@x");
  }
  std::vector<std::shared_ptr<EventChannel>> channels;
  std::uint64_t session = 1;
  for (const auto& user : users) {
    const int worker = static_cast<int>(backend.shard_of(user));
    auto pair = make_memory_conduit_pair();
    mail::MailShard& shard = backend.shard(static_cast<std::size_t>(worker));
    channels.push_back(reactor.serve(
        worker, std::move(pair.b), trunk,
        [&shard](const util::Bytes& request, util::Bytes& response) {
          shard.handle(request, response);
        }));
    auto client = reactor.open(worker, std::move(pair.a), trunk, session++,
                               user);
    const Value phone = call_via(client, "getPhone", {Value::string(user)});
    EXPECT_EQ(phone.as_string(), "ph-" + user);
    channels.push_back(std::move(client));
  }
  for (auto& channel : channels) channel->begin_drain();
  ASSERT_TRUE(eventually([&] {
    for (const auto& channel : channels) {
      if (channel->state() != EventChannel::State::kClosed) return false;
    }
    return true;
  }));
  reactor.stop();
  // Every shard served exactly its own mailboxes.
  std::vector<std::uint64_t> expected(2, 0);
  for (const auto& user : users) ++expected[backend.shard_of(user)];
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(backend.shard(s).requests(), expected[s]) << "shard " << s;
  }
  EXPECT_EQ(backend.total_requests(), users.size());
}

// -------------------------------------------------------------- heartbeats

TEST(Reactor, WheelScheduledHeartbeatsReplaceDriverThreads) {
  TrunkWorld w;
  auto conn = w.connect();
  Reactor reactor({.workers = 2});
  reactor.start();
  const std::uint64_t beats_before = conn->stats().heartbeats;
  auto handle = reactor.schedule_heartbeats(conn, 5ms);
  ASSERT_TRUE(eventually([&] { return handle.beats() >= 3; }));
  EXPECT_GT(conn->stats().heartbeats, beats_before)
      << "probes must reach Connection::heartbeat";
  handle.cancel();
  EXPECT_FALSE(handle.active());
  const std::uint64_t at_cancel = handle.beats();
  std::this_thread::sleep_for(30ms);
  EXPECT_LE(handle.beats(), at_cancel + 1) << "cancel must stop the schedule";
  reactor.stop();
}

TEST(Reactor, WheelHeartbeatsStopWhenConnectionDies) {
  TrunkWorld w;
  auto conn = w.connect();
  Reactor reactor({.workers = 1});
  reactor.start();
  auto handle = reactor.schedule_heartbeats(conn, 5ms);
  ASSERT_TRUE(eventually([&] { return handle.beats() >= 1; }));
  w.net.disconnect("client-host", "server-host");
  // The next probe finds no route, closes the connection and ends the
  // schedule.
  ASSERT_TRUE(eventually([&] { return !handle.active(); }));
  EXPECT_FALSE(conn->open());
  EXPECT_NE(conn->close_reason().find("liveness"), std::string::npos);
  const std::uint64_t at_death = handle.beats();
  std::this_thread::sleep_for(30ms);
  EXPECT_EQ(handle.beats(), at_death) << "a dead connection is not probed";
  reactor.stop();
}

TEST(Reactor, ThreadCountStaysBoundedByWorkers) {
  // Sanitizer runtimes (TSan) lazily spawn a persistent helper thread on the
  // first pthread_create; force that before taking the baseline so the
  // worker-count arithmetic below is exact under every build flavor.
  std::thread([] {}).join();
  const int base = count_os_threads();
  if (base < 0) GTEST_SKIP() << "no /proc/self/status";
  TrunkWorld w;
  auto trunk = w.connect();
  Reactor reactor({.workers = 2});
  reactor.start();
  const int with_reactor = count_os_threads();
  EXPECT_EQ(with_reactor, base + 2) << "one OS thread per worker";

  // 32 sessions + heartbeat monitoring: zero additional threads.
  std::vector<std::shared_ptr<EventChannel>> channels;
  for (int i = 0; i < 32; ++i) {
    auto pair = make_memory_conduit_pair();
    const int worker = i % 2;
    channels.push_back(reactor.serve(
        worker, std::move(pair.b), trunk,
        [](const util::Bytes& request, util::Bytes& response) {
          response = request;
        }));
    channels.push_back(reactor.open(worker, std::move(pair.a), trunk,
                                    static_cast<std::uint64_t>(i + 1),
                                    "user-" + std::to_string(i)));
  }
  auto heartbeats = reactor.schedule_heartbeats(trunk, 10ms);
  ASSERT_TRUE(eventually([&] {
    for (const auto& channel : channels) {
      if (channel->state() != EventChannel::State::kEstablished) return false;
    }
    return true;
  }));
  EXPECT_EQ(count_os_threads(), with_reactor)
      << "sessions and heartbeats must not spawn threads";
  heartbeats.cancel();
  reactor.stop();
  EXPECT_LE(count_os_threads(), base) << "stop() joins the workers";
}

}  // namespace
}  // namespace psf::switchboard
