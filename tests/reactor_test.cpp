// Reactor / EventChannel / sharded-mail tests: session key derivation and
// the in-order sequence rule, golden sealed-frame and wire-message vectors
// for the trunk and derived sessions, the connection state machine over
// memory and socket conduits, draining teardown, the read path (split
// frames, batch continuations, re-entrant dispatch, drained buffers, a
// hostile wire-stream fuzz), the wire protocol (forged and relabelled
// messages, skipped and replayed frames, an exhaustive mutant fuzz of both
// directions), cross-worker shard routing, wheel-scheduled heartbeats, and
// a value-level check that Connection::call and an EventChannel agree on
// mail results.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <thread>

#include "drbac/credential.hpp"
#include "mail/components.hpp"
#include "mail/sharded.hpp"
#include "minilang/interp.hpp"
#include "minilang/value_codec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "switchboard/authorizer.hpp"
#include "switchboard/channel.hpp"
#include "switchboard/network.hpp"
#include "switchboard/reactor.hpp"
#include "util/rng.hpp"

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

TEST(SessionKeys, DeterministicAndSessionSeparated) {
  TrunkWorld w;
  auto conn = w.connect();
  const auto a = conn->derive_session_keys(42);
  const auto b = conn->derive_session_keys(42);
  EXPECT_EQ(a.cipher[0], b.cipher[0]);
  EXPECT_EQ(a.mac_key[1], b.mac_key[1]);
  // Different sessions and directions get distinct keys.
  const auto other = conn->derive_session_keys(43);
  EXPECT_NE(a.cipher[0], other.cipher[0]);
  EXPECT_NE(a.mac_key[0], other.mac_key[0]);
  EXPECT_NE(a.cipher[0], a.cipher[1]);
  EXPECT_NE(a.mac_key[0], a.mac_key[1]);
  // "data" is the one derivation label: naming it changes nothing, and
  // there is no other.
  const auto named = conn->derive_session_keys(42, "data");
  EXPECT_EQ(named.cipher[0], a.cipher[0]);
  EXPECT_EQ(named.mac_key[1], a.mac_key[1]);
  EXPECT_THROW(conn->derive_session_keys(42, "ctl"), std::invalid_argument);
}

TEST(SessionKeys, BothTrunkEndsDeriveIdenticalMaterial) {
  // Two identically-seeded worlds stand in for the two ends: establishment
  // is deterministic, so the resumption secrets (and hence every derived
  // session key) must match.
  TrunkWorld w1(7), w2(7);
  auto c1 = w1.connect();
  auto c2 = w2.connect();
  const auto k1 = c1->derive_session_keys(5);
  const auto k2 = c2->derive_session_keys(5);
  EXPECT_EQ(k1.cipher[0], k2.cipher[0]);
  EXPECT_EQ(k1.cipher[1], k2.cipher[1]);
  EXPECT_EQ(k1.mac_key[0], k2.mac_key[0]);
  EXPECT_EQ(k1.mac_key[1], k2.mac_key[1]);
}

TEST(SessionCrypto, SealUnsealRoundTripAndReplayRejection) {
  TrunkWorld w;
  auto conn = w.connect();
  SessionCrypto sender(conn->derive_session_keys(9));
  SessionCrypto receiver(conn->derive_session_keys(9));

  const util::Bytes plain = util::to_bytes("hello sharded world");
  util::Bytes frame, out;
  sender.seal_into(0, plain.data(), plain.size(), frame);
  EXPECT_EQ(frame.size(), plain.size() + 40) << "seq(8) | ct | hmac(32)";
  auto r = receiver.unseal_into(0, frame.data(), frame.size(), out);
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(out, plain);

  // Replay of the same frame fails the in-order check.
  auto replay = receiver.unseal_into(0, frame.data(), frame.size(), out);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.error().code, "replay");

  // Tampering breaks the MAC before the sequence is consulted.
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

TEST(SessionCrypto, DirectionsKeepIndependentSequences) {
  TrunkWorld w;
  auto conn = w.connect();
  SessionCrypto sender(conn->derive_session_keys(11));
  SessionCrypto receiver(conn->derive_session_keys(11));
  const util::Bytes plain = util::to_bytes("both ways");
  // Each direction numbers its frames from 1, so both first frames carry
  // seq 1; each opens once, in its own direction's sequence.
  util::Bytes a2b, b2a, out;
  sender.seal_into(0, plain.data(), plain.size(), a2b);
  sender.seal_into(1, plain.data(), plain.size(), b2a);
  ASSERT_TRUE(receiver.unseal_into(0, a2b.data(), a2b.size(), out).ok());
  ASSERT_TRUE(receiver.unseal_into(1, b2a.data(), b2a.size(), out).ok());
  for (const auto& [dir, frame] : {std::pair{0, &a2b}, std::pair{1, &b2a}}) {
    auto replay = receiver.unseal_into(dir, frame->data(), frame->size(), out);
    ASSERT_FALSE(replay.ok()) << "direction " << dir;
    EXPECT_EQ(replay.error().code, "replay");
    EXPECT_TRUE(out.empty());
  }

  // Only seq == last + 1 opens. Direction 0 skips ahead: seq 3 is refused
  // and leaves the expected seq at 2, so seq 2 and then seq 3 still open.
  // Direction 1 is untouched and opens its seq 2.
  util::Bytes second, third, frame;
  sender.seal_into(0, plain.data(), plain.size(), second);
  sender.seal_into(0, plain.data(), plain.size(), third);
  auto ahead = receiver.unseal_into(0, third.data(), third.size(), out);
  ASSERT_FALSE(ahead.ok());
  EXPECT_EQ(ahead.error().code, "replay");
  sender.seal_into(1, plain.data(), plain.size(), frame);
  EXPECT_TRUE(receiver.unseal_into(1, frame.data(), frame.size(), out).ok());
  EXPECT_TRUE(receiver.unseal_into(0, second.data(), second.size(), out).ok());
  EXPECT_TRUE(receiver.unseal_into(0, third.data(), third.size(), out).ok());
  auto stale = receiver.unseal_into(0, second.data(), second.size(), out);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.error().code, "replay");
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

// --------------------------------------------------------------- read path

/// Test-only conduit that hands the channel 1..max_read bytes per read
/// (seeded), so frames arrive split at arbitrary byte boundaries.
class ChoppyConduit final : public Conduit {
 public:
  ChoppyConduit(std::unique_ptr<Conduit> inner, std::size_t max_read,
                std::uint64_t seed)
      : inner_(std::move(inner)), max_read_(max_read), rng_(seed) {}

  std::size_t read_some(std::uint8_t* buf, std::size_t len) override {
    const std::size_t cap = 1 + rng_.next_below(max_read_);
    return inner_->read_some(buf, std::min(len, cap));
  }
  std::size_t write_some(const std::uint8_t* data, std::size_t len) override {
    return inner_->write_some(data, len);
  }
  void close() override { inner_->close(); }
  bool peer_closed() const override { return inner_->peer_closed(); }
  void set_data_callback(std::function<void()> fn) override {
    inner_->set_data_callback(std::move(fn));
  }

 private:
  std::unique_ptr<Conduit> inner_;
  std::size_t max_read_;
  util::Rng rng_;  // loop thread only
};

void echo(const util::Bytes& request, util::Bytes& response) {
  response = request;
}

/// Distinct request payloads of varied sizes (including empty).
std::vector<util::Bytes> numbered_requests(int count, std::size_t stride) {
  std::vector<util::Bytes> requests;
  for (int i = 0; i < count; ++i) {
    util::Bytes request(static_cast<std::size_t>(i) * stride % 997);
    for (std::size_t j = 0; j < request.size(); ++j) {
      request[j] = static_cast<std::uint8_t>(i * 7 + j);
    }
    requests.push_back(std::move(request));
  }
  return requests;
}

/// Submits every request in one loop task, so they leave the client as one
/// pipelined burst, and returns the answers in arrival order (an error
/// answer becomes "error: <message>").
std::vector<util::Bytes> burst(EventLoop& loop,
                               const std::shared_ptr<EventChannel>& client,
                               std::vector<util::Bytes> requests) {
  struct Answers {
    std::vector<util::Bytes> got;
    std::size_t expected = 0;
    std::promise<void> done;
  };
  auto answers = std::make_shared<Answers>();
  answers->expected = requests.size();
  auto done = answers->done.get_future();
  loop.run_on_loop([client, answers, requests = std::move(requests)] {
    for (const auto& request : requests) {
      client->submit(request, [answers](util::Result<util::Bytes> r) {
        answers->got.push_back(
            r.ok() ? r.value() : util::to_bytes("error: " + r.error().message));
        if (answers->got.size() == answers->expected) {
          answers->done.set_value();
        }
      });
    }
  });
  if (done.wait_for(5s) != std::future_status::ready) {
    ADD_FAILURE() << "burst timed out";
    return {};
  }
  return answers->got;
}

// The wire protocol's message types: the last byte of the sealed plaintext.
constexpr std::uint8_t kWireHello = 0;
constexpr std::uint8_t kWireWelcome = 1;
constexpr std::uint8_t kWireData = 2;
constexpr std::uint8_t kWireBye = 3;

/// One wire message sealed as the next frame of `dir` (0 = the client's
/// direction, 1 = the server's): u32_be length | [u64_be session id] |
/// seal(payload | type).
util::Bytes wire_message(SessionCrypto& keys, std::uint8_t type,
                         const util::Bytes& payload,
                         const std::uint64_t* session_id = nullptr,
                         int dir = 0) {
  util::Bytes plain = payload;
  plain.push_back(type);
  util::Bytes sealed;
  keys.seal_into(dir, plain.data(), plain.size(), sealed);
  util::Bytes message;
  util::put_u32_be(message, static_cast<std::uint32_t>(
                                (session_id ? 8 : 0) + sealed.size()));
  if (session_id) util::put_u64_be(message, *session_id);
  message.insert(message.end(), sealed.begin(), sealed.end());
  return message;
}

/// The HELLO a client opening `session_id` sends (A->B).
util::Bytes hello_message(SessionCrypto& keys, std::uint64_t session_id,
                          const std::string& mailbox) {
  return wire_message(keys, kWireHello, util::to_bytes(mailbox), &session_id);
}

/// A client DATA message carrying `payload` (A->B).
util::Bytes data_message(SessionCrypto& keys, const util::Bytes& payload) {
  return wire_message(keys, kWireData, payload);
}

TEST(EventChannel, FramesSplitAtEveryByteBoundary) {
  TrunkWorld w;
  auto trunk = w.connect();
  EventLoop loop;
  loop.start();
  // With max_read 1 every read returns one byte, so every byte boundary of
  // every frame (HELLO, WELCOME and DATA, both ways) is a split point. The
  // larger caps mix splits with whole frames per read.
  std::uint64_t session = 100;
  for (const std::size_t max_read : {1, 2, 3, 7, 61}) {
    auto pair = make_memory_conduit_pair();
    auto server = EventChannel::serve(
        loop,
        std::make_unique<ChoppyConduit>(std::move(pair.b), max_read, session),
        trunk, echo);
    auto client = EventChannel::open(
        loop,
        std::make_unique<ChoppyConduit>(std::move(pair.a), max_read,
                                        session + 1),
        trunk, session, "split");
    const auto requests = numbered_requests(20, 53);
    EXPECT_EQ(burst(loop, client, requests), requests)
        << "max_read " << max_read;
    EXPECT_EQ(server->stats().frames_in, 21u) << "HELLO + 20 DATA frames";
    EXPECT_EQ(server->state(), EventChannel::State::kEstablished);
    session += 2;
  }
  loop.stop();
}

TEST(EventChannel, BurstBeyondBatchBoundSurvivesContinuation) {
  TrunkWorld w;
  auto trunk = w.connect();
  EventLoop loop;
  loop.start();
  auto pair = make_memory_conduit_pair();
  auto server = EventChannel::serve(loop, std::move(pair.b), trunk, echo,
                                    /*max_batch_frames=*/4);
  auto client = EventChannel::open(loop, std::move(pair.a), trunk, 7, "erin",
                                   /*max_batch_frames=*/4);
  ASSERT_TRUE(eventually([&] {
    return client->state() == EventChannel::State::kEstablished;
  }));
  const auto requests = numbered_requests(50, 31);
  EXPECT_EQ(burst(loop, client, requests), requests)
      << "every answer arrives, in order";
  const auto stats = server->stats();
  EXPECT_EQ(stats.max_batch, 4u) << "the bound caps each dispatch";
  EXPECT_GE(stats.batches, 1u + 50u / 4u) << "HELLO + 50 frames, 4 at a time";
  EXPECT_LE(client->stats().max_batch, 4u);
  loop.stop();
}

TEST(EventChannel, ReentrantOpenFromCallbackKeepsFraming) {
  TrunkWorld w;
  auto trunk = w.connect();
  EventLoop loop;
  loop.start();

  // The outer server's handler serves a nested channel on the same loop.
  // A HELLO and four 1 KiB DATA frames already wait in the nested pipe, so
  // serve() reads them inside this dispatch (register_with_loop runs
  // on_readable inline) while the outer batch still has frames to parse.
  std::unique_ptr<Conduit> nested_peer;
  std::shared_ptr<EventChannel> nested_server;
  std::vector<util::Bytes> nested_seen;
  std::promise<void> nested_opened;
  SessionCrypto nested_keys(trunk->derive_session_keys(99));
  const auto nested_requests = numbered_requests(4, 1024);
  bool first = true;
  auto pair = make_memory_conduit_pair();
  auto server = EventChannel::serve(
      loop, std::move(pair.b), trunk,
      [&](const util::Bytes& request, util::Bytes& response) {
        response = request;
        if (!first) return;
        first = false;
        auto nested = make_memory_conduit_pair();
        util::Bytes wire = hello_message(nested_keys, 99, "nested");
        for (const auto& payload : nested_requests) {
          const util::Bytes message = data_message(nested_keys, payload);
          wire.insert(wire.end(), message.begin(), message.end());
        }
        nested.a->write_some(wire.data(), wire.size());
        nested_peer = std::move(nested.a);
        nested_server = EventChannel::serve(
            loop, std::move(nested.b), trunk,
            [&nested_seen](const util::Bytes& req, util::Bytes& resp) {
              nested_seen.push_back(req);
              resp = req;
            });
        nested_opened.set_value();
      });
  auto client = EventChannel::open(loop, std::move(pair.a), trunk, 98, "outer");
  ASSERT_TRUE(eventually([&] {
    return client->state() == EventChannel::State::kEstablished;
  }));
  const auto requests = numbered_requests(8, 211);
  EXPECT_EQ(burst(loop, client, requests), requests)
      << "the outer batch must keep parsing its own bytes";
  EXPECT_EQ(server->stats().max_batch, 8u)
      << "all eight frames were parsed in the one dispatch that re-entered";
  ASSERT_EQ(nested_opened.get_future().wait_for(5s),
            std::future_status::ready);
  EXPECT_EQ(nested_server->state(), EventChannel::State::kEstablished);
  EXPECT_EQ(nested_seen, nested_requests);
  EXPECT_EQ(client->state(), EventChannel::State::kEstablished);
  loop.stop();
}

TEST(EventChannel, DrainedChannelHoldsNoBuffers) {
  TrunkWorld w;
  auto trunk = w.connect();
  EventLoop loop;
  loop.start();
  auto pair = make_memory_conduit_pair();
  auto server = EventChannel::serve(loop, std::move(pair.b), trunk, echo);
  auto client = EventChannel::open(loop, std::move(pair.a), trunk, 8, "frank");
  std::vector<util::Bytes> requests(50, util::Bytes(1024, 0x42));
  EXPECT_EQ(burst(loop, client, requests), requests);
  EXPECT_GT(server->stats().bytes_in, 50u * 1024u);
  EXPECT_TRUE(eventually([&] {
    return client->stats().buffered_capacity == 0 &&
           server->stats().buffered_capacity == 0;
  })) << "client " << client->stats().buffered_capacity << " B, server "
      << server->stats().buffered_capacity << " B still buffered";
  loop.stop();
}

TEST(EventChannel, HostileWireStreamClosesWithReason) {
  // A seeded mutator corrupts one message of a well-formed client stream,
  // which is then fed to a server channel in random chunks. Whatever the
  // mutation, the channel must close with a reason, and exactly the DATA
  // frames before the corruption must reach the handler, once each. (A
  // second copy of the HELLO does not authenticate once the session is
  // established: it is dropped, and every DATA frame still arrives.)
  TrunkWorld w;
  auto trunk = w.connect();
  EventLoop loop;
  loop.start();
  enum Mutation {
    kNone,
    kTruncate,
    kFlipByte,
    kZeroLength,
    kHugeLength,
    kUnknownType,
    kDuplicate,
    kMutations
  };
  util::Rng rng(20261017);
  for (int round = 0; round < 300; ++round) {
    const std::uint64_t session = 1000 + static_cast<std::uint64_t>(round);
    const int frames = 1 + static_cast<int>(rng.next_below(10));
    const auto mutation = static_cast<Mutation>(rng.next_below(kMutations));
    const std::size_t victim = rng.next_below(1 + frames);
    // The victim of kUnknownType is sealed, in its place in the sequence,
    // with a type the protocol does not define.
    const std::uint8_t unknown_type =
        static_cast<std::uint8_t>(4 + rng.next_below(252));
    SessionCrypto keys(trunk->derive_session_keys(session));
    std::vector<util::Bytes> messages;
    messages.push_back(
        mutation == kUnknownType && victim == 0
            ? wire_message(keys, unknown_type, util::to_bytes("fuzz"), &session)
            : hello_message(keys, session, "fuzz"));
    for (int i = 0; i < frames; ++i) {
      util::Bytes payload = rng.next_bytes(rng.next_below(200));
      payload.insert(payload.begin(), static_cast<std::uint8_t>(i));
      const bool relabel =
          mutation == kUnknownType && victim == messages.size();
      messages.push_back(relabel ? wire_message(keys, unknown_type, payload)
                                 : data_message(keys, payload));
    }

    util::Bytes stream;
    for (std::size_t m = 0; m < messages.size(); ++m) {
      util::Bytes message = messages[m];
      if (m == victim) {
        switch (mutation) {
          case kTruncate:
            message.resize(rng.next_below(message.size()));
            break;
          case kFlipByte:
            message[rng.next_below(message.size())] ^=
                static_cast<std::uint8_t>(1 + rng.next_below(255));
            break;
          case kZeroLength:
            std::fill(message.begin(), message.begin() + 4, 0);
            break;
          case kHugeLength: {
            util::Bytes prefix;
            util::put_u32_be(prefix, static_cast<std::uint32_t>(
                                         (16u << 20) + 1 +
                                         rng.next_below(1u << 20)));
            std::copy(prefix.begin(), prefix.end(), message.begin());
            break;
          }
          case kDuplicate:
            stream.insert(stream.end(), message.begin(), message.end());
            break;
          case kNone:
          case kUnknownType:
          case kMutations:
            break;
        }
      }
      stream.insert(stream.end(), message.begin(), message.end());
      if (m == victim && mutation == kTruncate) break;
    }
    // DATA frames (messages 1..) wholly before the corruption; a duplicate
    // corrupts only its second copy, and a second HELLO is dropped.
    const bool harmless =
        mutation == kNone || (mutation == kDuplicate && victim == 0);
    const std::size_t intact = harmless                 ? messages.size() - 1
                               : mutation == kDuplicate ? victim
                               : victim == 0            ? 0
                                                        : victim - 1;

    struct Seen {
      std::vector<int> frames;
    };
    auto seen = std::make_shared<Seen>();
    auto pair = make_memory_conduit_pair();
    auto server = EventChannel::serve(
        loop,
        std::make_unique<ChoppyConduit>(std::move(pair.b),
                                        1 + rng.next_below(32),
                                        rng.next_u64()),
        trunk,
        [seen](const util::Bytes& request, util::Bytes& response) {
          seen->frames.push_back(request.empty() ? -1 : request[0]);
          response = util::to_bytes("ok");
        },
        /*max_batch_frames=*/1 + rng.next_below(4));
    for (std::size_t pos = 0; pos < stream.size();) {
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng.next_below(64), stream.size() - pos);
      pair.a->write_some(stream.data() + pos, chunk);
      pos += chunk;
    }
    pair.a->close();

    ASSERT_TRUE(eventually([&] {
      return server->state() == EventChannel::State::kClosed;
    })) << "round " << round << " mutation " << mutation;
    EXPECT_FALSE(server->close_reason().empty()) << "round " << round;
    std::vector<int> expected;
    for (std::size_t i = 0; i < intact; ++i) {
      expected.push_back(static_cast<int>(i));
    }
    EXPECT_EQ(seen->frames, expected)
        << "round " << round << " mutation " << mutation << " victim "
        << victim << " closed: " << server->close_reason();
  }
  loop.stop();
}

// ------------------------------------------------------------ wire protocol

/// Returns once every task posted to `loop` before the call has run.
void settle(EventLoop& loop) {
  std::promise<void> done;
  loop.post([&done] { done.set_value(); });
  done.get_future().wait();
}

/// What a channel made of a scripted stream from its peer: the DATA
/// payloads it acted on, in order, and why it closed ("" if still open).
struct Outcome {
  std::vector<util::Bytes> applied;
  std::string close_reason;
};

util::Bytes concat(const std::vector<util::Bytes>& messages) {
  util::Bytes stream;
  for (const auto& m : messages) {
    stream.insert(stream.end(), m.begin(), m.end());
  }
  return stream;
}

/// Feeds `stream`, then EOF, to a fresh server channel. Its handler records
/// each request it runs.
Outcome feed_server(EventLoop& loop, const std::shared_ptr<Connection>& trunk,
                    const util::Bytes& stream) {
  auto pair = make_memory_conduit_pair();
  pair.a->write_some(stream.data(), stream.size());
  pair.a->close();
  auto applied = std::make_shared<std::vector<util::Bytes>>();
  auto server = EventChannel::serve(
      loop, std::move(pair.b), trunk,
      [applied](const util::Bytes& request, util::Bytes& response) {
        applied->push_back(request);
        response = request;
      });
  settle(loop);
  return {*applied, server->close_reason()};
}

/// Opens a client channel for `session_id` with `requests` submits queued,
/// then feeds it `stream` and EOF as the server's side. The answers that
/// reach a callback are the applied payloads.
Outcome feed_client(EventLoop& loop, const std::shared_ptr<Connection>& trunk,
                    std::uint64_t session_id, int requests,
                    const util::Bytes& stream) {
  auto pair = make_memory_conduit_pair();
  auto client =
      EventChannel::open(loop, std::move(pair.a), trunk, session_id, "fuzz");
  auto applied = std::make_shared<std::vector<util::Bytes>>();
  for (int i = 0; i < requests; ++i) {
    client->submit(util::to_bytes("request"),
                   [applied](util::Result<util::Bytes> r) {
                     if (r.ok()) applied->push_back(r.value());
                   });
  }
  settle(loop);  // registered, HELLO written, submits queued
  pair.b->write_some(stream.data(), stream.size());
  pair.b->close();
  settle(loop);
  return {*applied, client->close_reason()};
}

/// One direction's messages, sealed in order under session `session_id`'s
/// keys; the first names the session in clear.
std::vector<util::Bytes> seal_script(
    const Connection& trunk, std::uint64_t session_id, int dir,
    const std::vector<std::pair<std::uint8_t, util::Bytes>>& script) {
  SessionCrypto keys(trunk.derive_session_keys(session_id));
  std::vector<util::Bytes> messages;
  for (const auto& [type, payload] : script) {
    messages.push_back(wire_message(keys, type, payload,
                                    messages.empty() ? &session_id : nullptr,
                                    dir));
  }
  return messages;
}

/// Flips bits of a wire message's sealed type byte: the last plaintext byte
/// sits just before the 32-byte MAC.
util::Bytes flip_sealed_type(util::Bytes message, std::uint8_t mask) {
  message[message.size() - 33] ^= mask;
  return message;
}

TEST(EventChannel, ForgedByeIsDroppedAndRealByeTearsDown) {
  TrunkWorld w;
  auto trunk = w.connect();
  EventLoop loop;
  loop.start();
  auto pair = make_memory_conduit_pair();
  Conduit* to_server = pair.a.get();
  Conduit* to_client = pair.b.get();
  auto server = EventChannel::serve(loop, std::move(pair.b), trunk, echo);
  auto client = EventChannel::open(loop, std::move(pair.a), trunk, 21, "gina");
  ASSERT_TRUE(eventually([&] {
    return client->state() == EventChannel::State::kEstablished;
  }));
  EXPECT_EQ(burst(loop, client, {util::to_bytes("before")}),
            std::vector<util::Bytes>{util::to_bytes("before")});

  // Forged BYEs injected into both directions: the old layout's five-byte
  // BYE, and one shaped like a sealed frame. Neither authenticates.
  obs::Counter& dropped = obs::counter("psf.switchboard.session.dropped");
  const std::uint64_t dropped_before = dropped.value();
  util::Bytes forged{0, 0, 0, 1, kWireBye};
  util::Bytes shaped;
  util::put_u32_be(shaped, static_cast<std::uint32_t>(kFrameOverhead + 1));
  util::put_u64_be(shaped, 3);  // the next sequence number either way
  shaped.push_back(kWireBye);
  shaped.resize(4 + kFrameOverhead + 1, 0);
  loop.run_on_loop([&] {
    for (const util::Bytes* message : {&forged, &shaped}) {
      to_server->write_some(message->data(), message->size());
      to_client->write_some(message->data(), message->size());
    }
  });
  settle(loop);  // the injection ran and posted each channel's read
  settle(loop);  // the reads ran
  EXPECT_EQ(client->state(), EventChannel::State::kEstablished);
  EXPECT_EQ(server->state(), EventChannel::State::kEstablished);
  EXPECT_EQ(dropped.value() - dropped_before, 4u);
  EXPECT_EQ(burst(loop, client, {util::to_bytes("after")}),
            std::vector<util::Bytes>{util::to_bytes("after")})
      << "both ends still answer";

  // A real BYE authenticates as the client's next frame and tears down
  // both ends.
  client->begin_drain();
  ASSERT_TRUE(eventually([&] {
    return client->state() == EventChannel::State::kClosed &&
           server->state() == EventChannel::State::kClosed;
  }));
  EXPECT_EQ(client->close_reason(), "drained");
  EXPECT_EQ(server->close_reason(), "peer bye");
  loop.stop();
}

TEST(EventChannel, RelabelledFramesNeverReachTheHandler) {
  TrunkWorld w;
  auto trunk = w.connect();
  EventLoop loop;
  loop.start();
  const util::Bytes d1 = util::to_bytes("first request");
  const util::Bytes d2 = util::to_bytes("second request");
  const std::uint64_t sid = 31;
  const auto genuine = seal_script(
      *trunk, sid, 0,
      {{kWireHello, util::to_bytes("relabel")}, {kWireData, d1},
       {kWireData, d2}, {kWireBye, util::to_bytes("bye")}});
  const util::Bytes &hello = genuine[0], &data1 = genuine[1],
                    &data2 = genuine[2], &bye = genuine[3];

  // Flipping the sealed type breaks the MAC: the frame is dropped, and the
  // next genuine frame leaves a gap in the sequence.
  for (const std::uint8_t to : {kWireBye, kWireHello}) {
    const Outcome out = feed_server(
        loop, trunk,
        concat({hello, flip_sealed_type(data1, kWireData ^ to), data2}));
    EXPECT_TRUE(out.applied.empty()) << "DATA relabelled as " << int{to};
    EXPECT_EQ(out.close_reason, "frame replay");
  }
  // The reverse: a BYE relabelled as DATA is dropped, so neither the
  // handler nor the teardown runs; EOF ends the session.
  Outcome out = feed_server(
      loop, trunk,
      concat({hello, data1, flip_sealed_type(bye, kWireBye ^ kWireData)}));
  EXPECT_EQ(out.applied, std::vector<util::Bytes>{d1});
  EXPECT_EQ(out.close_reason, "peer eof");
  // A HELLO relabelled as DATA: nothing authenticates, nothing runs.
  out = feed_server(
      loop, trunk,
      concat({flip_sealed_type(hello, kWireHello ^ kWireData), data1}));
  EXPECT_TRUE(out.applied.empty());
  EXPECT_EQ(out.close_reason, "peer eof");

  // A holder of the keys who seals the wrong type for the session's state
  // gets a typed close; the retired PING (4) and PONG (5) are unknown.
  const std::vector<std::pair<std::uint8_t, std::string>> relabels{
      {kWireHello, "unexpected HELLO"},
      {kWireWelcome, "unexpected WELCOME"},
      {4, "unknown message type"},
      {5, "unknown message type"}};
  for (const auto& [type, reason] : relabels) {
    const auto messages = seal_script(
        *trunk, sid, 0, {{kWireHello, util::to_bytes("relabel")}, {type, d1}});
    out = feed_server(loop, trunk, concat(messages));
    EXPECT_TRUE(out.applied.empty()) << int{type};
    EXPECT_EQ(out.close_reason, reason);
  }
  const auto data_first =
      seal_script(*trunk, sid, 0, {{kWireData, d1}, {kWireData, d2}});
  out = feed_server(loop, trunk, concat(data_first));
  EXPECT_TRUE(out.applied.empty());
  EXPECT_EQ(out.close_reason, "DATA before establishment");
  loop.stop();
}

TEST(EventChannel, SkippedAndReplayedFramesCloseWithReplay) {
  TrunkWorld w;
  auto trunk = w.connect();
  EventLoop loop;
  loop.start();
  const util::Bytes d1 = util::to_bytes("one"), d2 = util::to_bytes("two"),
                    d3 = util::to_bytes("three");
  const auto messages = seal_script(
      *trunk, 41, 0,
      {{kWireHello, util::to_bytes("seq")}, {kWireData, d1}, {kWireData, d2},
       {kWireData, d3}});
  obs::Counter& rejections = obs::counter("psf.switchboard.replay.rejections");
  const std::uint64_t before = rejections.value();

  Outcome out = feed_server(loop, trunk,
                            concat({messages[0], messages[1], messages[3]}));
  EXPECT_EQ(out.applied, std::vector<util::Bytes>{d1}) << "skip-ahead";
  EXPECT_EQ(out.close_reason, "frame replay");

  out = feed_server(loop, trunk,
                    concat({messages[0], messages[1], messages[2],
                            messages[1]}));
  EXPECT_EQ(out.applied, (std::vector<util::Bytes>{d1, d2})) << "replayed";
  EXPECT_EQ(out.close_reason, "frame replay");

  out = feed_server(loop, trunk,
                    concat({messages[0], messages[2], messages[1]}));
  EXPECT_TRUE(out.applied.empty()) << "reordered";
  EXPECT_EQ(out.close_reason, "frame replay");
  EXPECT_EQ(rejections.value() - before, 3u);
  loop.stop();
}

// One direction of a session as a list of (type, payload) messages, and the
// typed reasons a channel may close with.
using Script = std::vector<std::pair<std::uint8_t, util::Bytes>>;

const std::set<std::string>& typed_close_reasons() {
  static const std::set<std::string> reasons{
      "peer eof",           "peer eof mid-frame",
      "peer bye",           "frame replay",
      "corrupt length prefix", "unexpected HELLO",
      "unexpected WELCOME", "DATA before establishment",
      "unknown message type", "unsolicited response"};
  return reasons;
}

/// The DATA payloads among script[0, end).
std::vector<util::Bytes> data_before(const Script& script, std::size_t end) {
  std::vector<util::Bytes> data;
  for (std::size_t i = 0; i < end; ++i) {
    if (script[i].first == kWireData) data.push_back(script[i].second);
  }
  return data;
}

/// Runs every mutant of one direction's genuine `script` through `feed`
/// and checks that each is applied, or not, as the protocol says, and that
/// the channel always ends with one typed reason.
void fuzz_direction(const Connection& trunk, std::uint64_t session_id,
                    int dir, const Script& script,
                    const std::function<Outcome(const util::Bytes&)>& feed) {
  const auto genuine = seal_script(trunk, session_id, dir, script);
  const std::vector<util::Bytes> all_data = data_before(script, script.size());
  int mutants = 0;
  auto check = [&](const util::Bytes& stream,
                   const std::vector<util::Bytes>& applied,
                   const std::string& what) {
    const Outcome out = feed(stream);
    ++mutants;
    EXPECT_EQ(typed_close_reasons().count(out.close_reason), 1u)
        << what << ": closed with \"" << out.close_reason << "\"";
    EXPECT_EQ(out.applied, applied) << what << " (" << out.close_reason << ")";
  };

  check(concat(genuine), all_data, "unmutated");
  for (std::size_t m = 0; m < genuine.size(); ++m) {
    const std::vector<util::Bytes> before = data_before(script, m);
    const std::string name = "message " + std::to_string(m);
    const auto at_m = genuine.begin() + static_cast<std::ptrdiff_t>(m);
    // Every truncation: the stream ends inside message m.
    for (std::size_t len = 0; len < genuine[m].size(); ++len) {
      std::vector<util::Bytes> messages(genuine.begin(), at_m);
      messages.emplace_back(
          genuine[m].begin(),
          genuine[m].begin() + static_cast<std::ptrdiff_t>(len));
      check(concat(messages), before,
            name + " cut at " + std::to_string(len));
    }
    // One flipped bit at every byte, the rest of the stream intact.
    for (std::size_t at = 0; at < genuine[m].size(); ++at) {
      auto messages = genuine;
      messages[m][at] ^= static_cast<std::uint8_t>(1u << (at % 8));
      check(concat(messages), before, name + " flipped at " +
                                          std::to_string(at));
    }
    // Resealed with every other type, in the same place in the sequence:
    // only DATA after the first message is applied.
    for (const std::uint8_t type :
         {kWireHello, kWireWelcome, kWireData, kWireBye, std::uint8_t{4},
          std::uint8_t{5}, std::uint8_t{255}}) {
      if (type == script[m].first) continue;
      Script relabelled = script;
      relabelled[m].first = type;
      std::vector<util::Bytes> applied = before;
      if (type == kWireData && m > 0) {
        applied = data_before(relabelled, relabelled.size());
      }
      check(concat(seal_script(trunk, session_id, dir, relabelled)), applied,
            name + " relabelled " + std::to_string(type));
    }
    // Duplicated: a second first message no longer authenticates and is
    // dropped; a second DATA is a replay; nothing is read after a BYE.
    {
      auto messages = genuine;
      messages.insert(messages.begin() + (at_m - genuine.begin()), *at_m);
      const bool dropped = m == 0 || script[m].first == kWireBye;
      check(concat(messages), dropped ? all_data : data_before(script, m + 1),
            name + " duplicated");
    }
    // Swapped with its successor: the later frame arrives first.
    if (m + 1 < genuine.size()) {
      auto messages = genuine;
      std::swap(messages[m], messages[m + 1]);
      check(concat(messages), before, name + " swapped with the next");
    }
  }
  EXPECT_GT(mutants, 100);
}

TEST(SessionWireFuzz, ClientStreamMutantsApplyOrCloseWithOneReason) {
  TrunkWorld w;
  auto trunk = w.connect();
  EventLoop loop;
  loop.start();
  const Script script{{kWireHello, util::to_bytes("fuzz")},
                      {kWireData, util::to_bytes("first")},
                      {kWireData, util::Bytes(70, 0x5a)},
                      {kWireBye, util::to_bytes("bye")}};
  fuzz_direction(*trunk, 51, 0, script, [&](const util::Bytes& stream) {
    return feed_server(loop, trunk, stream);
  });
  loop.stop();
}

TEST(SessionWireFuzz, ServerStreamMutantsApplyOrCloseWithOneReason) {
  TrunkWorld w;
  auto trunk = w.connect();
  EventLoop loop;
  loop.start();
  const Script script{{kWireWelcome, util::to_bytes("fuzz")},
                      {kWireData, util::to_bytes("answer one")},
                      {kWireData, util::Bytes(70, 0xa5)},
                      {kWireBye, util::to_bytes("bye")}};
  // One request more than the script answers, so a BYE resealed as DATA
  // has a caller to answer.
  fuzz_direction(*trunk, 52, 1, script, [&](const util::Bytes& stream) {
    return feed_client(loop, trunk, 52, 3, stream);
  });
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

/// Derived-session frames: session 17, both directions, from the same
/// trunk.
GoldenFrames session_golden_frames(const Connection& conn) {
  GoldenFrames frames;
  SessionCrypto sender(conn.derive_session_keys(17));
  for (int dir = 0; dir < 2; ++dir) {
    for (int n = 1; n <= 3; ++n) {
      const util::Bytes plain = golden_payload(n);
      util::Bytes frame;
      sender.seal_into(dir, plain.data(), plain.size(), frame);
      frames.emplace_back(std::string("session17.data") +
                              (dir == 0 ? ".a2b." : ".b2a.") +
                              std::to_string(n),
                          std::move(frame));
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
    ASSERT_NE(it, golden.end())
        << "no golden vector " << name << " (sealed: " << util::to_hex(frame)
        << ")";
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
    // Frames run a2b then b2a, three of each.
    SessionCrypto receiver(conn->derive_session_keys(17));
    const int dir = static_cast<int>(i / 3);
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

TEST(GoldenFrames, SessionWireMessagesArePinned) {
  // The bytes a client channel writes for session 17: HELLO with mailbox
  // "golden", then one DATA message per golden payload. Each is
  // length | [session id] | seal(payload | type) under the session's one
  // key set, numbered 1..4 in the client's direction.
  TrunkWorld w(99);
  auto trunk = w.connect();
  const std::uint64_t sid = 17;
  SessionCrypto keys(trunk->derive_session_keys(sid));
  GoldenFrames expected{
      {"session17.wire.hello", hello_message(keys, sid, "golden")}};
  for (int n = 1; n <= 3; ++n) {
    expected.emplace_back("session17.wire.data." + std::to_string(n),
                          data_message(keys, golden_payload(n)));
  }
  expect_golden(expected);
  const util::Bytes& hello = expected[0].second;
  EXPECT_EQ(util::to_hex(util::Bytes(hello.begin() + 4, hello.begin() + 20)),
            "0000000000000011"
            "0000000000000001")
      << "the session id, then seq 1, in clear";
  EXPECT_EQ(hello.size(), 4 + 8 + kFrameOverhead + 6 + 1);

  // A real client channel writes exactly these bytes.
  EventLoop loop;
  loop.start();
  auto pair = make_memory_conduit_pair();
  auto client = EventChannel::open(loop, std::move(pair.a), trunk, sid,
                                   "golden");
  for (int n = 1; n <= 3; ++n) {
    client->submit(golden_payload(n), [](util::Result<util::Bytes>) {});
  }
  SessionCrypto server_keys(trunk->derive_session_keys(sid));
  const util::Bytes welcome = wire_message(
      server_keys, kWireWelcome, util::to_bytes("golden"), &sid, /*dir=*/1);
  pair.b->write_some(welcome.data(), welcome.size());
  util::Bytes want;
  for (const auto& [name, message] : expected) {
    want.insert(want.end(), message.begin(), message.end());
  }
  util::Bytes wire;
  EXPECT_TRUE(eventually([&] {
    std::uint8_t chunk[512];
    for (std::size_t n; (n = pair.b->read_some(chunk, sizeof chunk)) > 0;) {
      wire.insert(wire.end(), chunk, chunk + n);
    }
    return wire.size() >= want.size();
  }));
  EXPECT_EQ(util::to_hex(wire), util::to_hex(want));
  loop.stop();
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

// ----------------------------------------------------------- worker count

TEST(Reactor, WorkerCountFromEnvAcceptsOnlySmallPositiveNumbers) {
  // Pure parsing: no Reactor is built and no loop thread starts.
  EXPECT_EQ(worker_count_from_env(nullptr, 3), 3);
  EXPECT_EQ(worker_count_from_env("", 3), 3);
  EXPECT_EQ(worker_count_from_env("1", 3), 1);
  EXPECT_EQ(worker_count_from_env("8", 3), 8);
  EXPECT_EQ(worker_count_from_env("64", 3), kMaxEnvWorkers);
  for (const char* rejected :
       {"0", "-1", "-64", "65", "100000", "99999999999999999999", "four",
        "4x", " ", "0x10", "2.5"}) {
    EXPECT_EQ(worker_count_from_env(rejected, 3), 3) << rejected;
  }
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
