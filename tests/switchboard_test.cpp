#include <gtest/gtest.h>

#include <thread>

#include "drbac/credential.hpp"
#include "mail/components.hpp"
#include "minilang/interp.hpp"
#include "switchboard/authorizer.hpp"
#include "switchboard/channel.hpp"
#include "switchboard/network.hpp"
#include "switchboard/replay_window.hpp"
#include "views/cache.hpp"
#include "views/vig.hpp"

namespace psf::switchboard {
namespace {

using drbac::Principal;
using drbac::role_of;
using minilang::Value;
using util::kMillisecond;

// ---------------------------------------------------------------- Network

TEST(Network, LinkAndPathBasics) {
  Network net;
  net.connect("a", "b", {5 * kMillisecond, 1000, true});
  net.connect("b", "c", {10 * kMillisecond, 500, false});
  auto path = net.path("a", "c");
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->hops, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(path->latency, 15 * kMillisecond);
  EXPECT_EQ(path->bandwidth_kbps, 500);  // min over links
  EXPECT_FALSE(path->secure);            // any insecure link taints the path
}

TEST(Network, PathToSelfIsTrivial) {
  Network net;
  net.add_host("solo");
  auto path = net.path("solo", "solo");
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->latency, 0);
  EXPECT_TRUE(path->secure);
}

TEST(Network, UnreachableHostsHaveNoPath) {
  Network net;
  net.add_host("a");
  net.add_host("b");
  EXPECT_FALSE(net.path("a", "b").has_value());
}

TEST(Network, PicksLowestLatencyRoute) {
  Network net;
  net.connect("a", "b", {100 * kMillisecond, 0, true});
  net.connect("a", "m", {10 * kMillisecond, 0, true});
  net.connect("m", "b", {10 * kMillisecond, 0, true});
  auto path = net.path("a", "b");
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->hops.size(), 3u);  // via m
  EXPECT_EQ(path->latency, 20 * kMillisecond);
}

TEST(Network, TransferAccountsBandwidthAndStats) {
  Network net;
  net.connect("a", "b", {1 * kMillisecond, 8, true});  // 8 kbps = 1000 B/s
  auto t = net.transfer("a", "b", 1000);
  ASSERT_TRUE(t.has_value());
  // 1 ms latency + 1 s serialization.
  EXPECT_NEAR(static_cast<double>(*t), 1e9 + 1e6, 1e6);
  EXPECT_EQ(net.stats("a", "b").messages, 1u);
  EXPECT_EQ(net.stats("a", "b").bytes, 1000u);
}

TEST(Network, DisconnectSeversRoute) {
  Network net;
  net.connect("a", "b", {1 * kMillisecond, 0, true});
  ASSERT_TRUE(net.path("a", "b").has_value());
  net.disconnect("a", "b");
  EXPECT_FALSE(net.path("a", "b").has_value());
}

// ------------------------------------------------------ Connection fixture

struct ChannelWorld {
  util::Rng rng{2024};
  std::shared_ptr<util::SimClock> clock = std::make_shared<util::SimClock>();
  Network net;
  drbac::Repository repo;
  drbac::Entity guard{drbac::Entity::create("Comp.NY", rng)};
  drbac::Entity client{drbac::Entity::create("Alice", rng)};
  drbac::Entity server_id{drbac::Entity::create("Mail.Server", rng)};
  Switchboard client_board{"client-host", &net, clock};
  Switchboard server_board{"server-host", &net, clock};
  drbac::DelegationPtr client_cred;

  ChannelWorld() {
    net.connect("client-host", "server-host",
                {5 * kMillisecond, 10'000, false});
    client_cred = drbac::issue(guard, Principal::of_entity(client),
                               role_of(guard, "Member"), {}, false, 0, 0,
                               repo.next_serial());
    // The server requires clients to hold Comp.NY.Member; clients accept any
    // server (they authenticated its identity already).
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
};

TEST(Connection, EstablishesWithMutualAuthorization) {
  ChannelWorld w;
  auto conn = w.connect();
  EXPECT_TRUE(conn->open());
  // The server side's proof about the client names the required role.
  EXPECT_EQ(conn->proof_of(Connection::End::kA).target.display(),
            "Comp.NY.Member");
  EXPECT_GT(conn->stats().handshake_time, 0);
}

TEST(Connection, RefusesUnauthorizedClient) {
  ChannelWorld w;
  AuthorizationSuite no_creds;
  no_creds.identity = drbac::Entity::create("Mallory", w.rng);
  no_creds.authorizer = std::make_shared<AcceptAllAuthorizer>();
  auto r = w.client_board.connect(w.server_board, no_creds, w.rng);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "authorization-denied");
}

TEST(Connection, RefusesWhenNoRoute) {
  ChannelWorld w;
  w.net.disconnect("client-host", "server-host");
  auto r = w.client_board.connect(w.server_board, w.client_suite(), w.rng);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "no-route");
}

TEST(Connection, RefusesWithoutRemoteSuite) {
  ChannelWorld w;
  Switchboard bare{"bare-host", &w.net, w.clock};
  w.net.connect("client-host", "bare-host", {1 * kMillisecond, 0, true});
  auto r = w.client_board.connect(bare, w.client_suite(), w.rng);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "no-suite");
}

TEST(Connection, RpcRoundTripThroughRegisteredService) {
  ChannelWorld w;
  minilang::ClassRegistry registry;
  mail::register_all(registry);
  auto server = minilang::instantiate(registry, "MailServer");
  w.server_board.register_service("mail", server);

  auto conn = w.connect();
  conn->call(Connection::End::kA, "mail", "registerAccount",
             {Value::string("alice"), Value::string("555"),
              Value::string("a@x")});
  const Value phone = conn->call(Connection::End::kA, "mail", "getPhone",
                                 {Value::string("alice")});
  EXPECT_EQ(phone.as_string(), "555");
  EXPECT_EQ(conn->stats().calls, 2u);
  EXPECT_GT(conn->stats().bytes, 0u);
  EXPECT_GT(conn->stats().last_rtt, 0);
}

TEST(Connection, ApplicationErrorsPropagate) {
  ChannelWorld w;
  minilang::ClassRegistry registry;
  mail::register_all(registry);
  w.server_board.register_service("mail",
                                  minilang::instantiate(registry, "MailServer"));
  auto conn = w.connect();
  EXPECT_THROW(conn->call(Connection::End::kA, "mail", "noSuchMethod", {}),
               minilang::EvalError);
  EXPECT_THROW(conn->call(Connection::End::kA, "ghost-service", "m", {}),
               minilang::EvalError);
  // The connection survives application errors.
  EXPECT_TRUE(conn->open());
}

TEST(Connection, FramesAreEncrypted) {
  ChannelWorld w;
  auto conn = w.connect();
  const util::Bytes plaintext = util::to_bytes("top secret mail body");
  const util::Bytes frame = conn->seal(Connection::End::kA, plaintext);
  // The plaintext must not appear in the framed bytes.
  const std::string frame_str(frame.begin(), frame.end());
  EXPECT_EQ(frame_str.find("top secret"), std::string::npos);
  auto unsealed = conn->unseal(Connection::End::kB, frame);
  ASSERT_TRUE(unsealed.ok());
  EXPECT_EQ(unsealed.value(), plaintext);
}

TEST(Connection, ReplayedFramesRejected) {
  ChannelWorld w;
  auto conn = w.connect();
  const util::Bytes frame =
      conn->seal(Connection::End::kA, util::to_bytes("once"));
  ASSERT_TRUE(conn->unseal(Connection::End::kB, frame).ok());
  auto replay = conn->unseal(Connection::End::kB, frame);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.error().code, "replay");
}

TEST(Connection, TamperedFramesRejected) {
  ChannelWorld w;
  auto conn = w.connect();
  util::Bytes frame = conn->seal(Connection::End::kA, util::to_bytes("data"));
  frame[10] ^= 0x01;
  auto r = conn->unseal(Connection::End::kB, frame);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "mac");
}

TEST(Connection, HeartbeatMeasuresRttAndCounts) {
  ChannelWorld w;
  minilang::ClassRegistry registry;
  mail::register_all(registry);
  w.server_board.register_service("mail",
                                  minilang::instantiate(registry, "MailServer"));
  auto conn = w.connect();
  for (std::uint64_t n = 1; n <= 3; ++n) {
    conn->heartbeat();
    EXPECT_EQ(conn->stats().heartbeats, 2 * n) << "one probe per direction";
  }
  // RTT = 2x link latency plus a little serialization time for the frame.
  const util::SimTime heartbeat_rtt = conn->stats().last_heartbeat_rtt;
  EXPECT_GT(heartbeat_rtt, 0);
  EXPECT_GE(heartbeat_rtt, 2 * 5 * kMillisecond);
  EXPECT_LT(heartbeat_rtt, 2 * 6 * kMillisecond);
  EXPECT_EQ(conn->stats().last_rtt, heartbeat_rtt);

  // An RPC over a slower link moves last_rtt, not last_heartbeat_rtt.
  w.net.set_link("client-host", "server-host",
                 {20 * kMillisecond, 10'000, false});
  conn->call(Connection::End::kA, "mail", "registerAccount",
             {Value::string("alice"), Value::string("555"),
              Value::string("a@x")});
  EXPECT_GE(conn->stats().last_rtt, 2 * 20 * kMillisecond);
  EXPECT_EQ(conn->stats().last_heartbeat_rtt, heartbeat_rtt);
  EXPECT_EQ(conn->stats().heartbeats, 6u) << "an RPC is not a heartbeat";
  EXPECT_TRUE(conn->open());
}

TEST(Connection, HeartbeatDetectsLivenessLoss) {
  ChannelWorld w;
  auto conn = w.connect();
  w.net.disconnect("client-host", "server-host");
  conn->heartbeat();
  EXPECT_FALSE(conn->open());
  EXPECT_NE(conn->close_reason().find("liveness"), std::string::npos);
}

TEST(Connection, RevocationSuspendsEndAndNotifies) {
  // Paper §4.3: a change in credentials invalidates the dRBAC proofs and
  // results in notification to the AuthorizationMonitors at either end.
  ChannelWorld w;
  minilang::ClassRegistry registry;
  mail::register_all(registry);
  w.server_board.register_service("mail",
                                  minilang::instantiate(registry, "MailServer"));
  auto conn = w.connect();

  std::vector<std::string> notifications;
  conn->set_authorization_listener(
      [&](Connection::End, const std::string& reason) {
        notifications.push_back(reason);
      });

  // Works before revocation.
  conn->call(Connection::End::kA, "mail", "getPhone", {Value::string("x")});

  w.repo.revoke(w.client_cred->serial);
  ASSERT_EQ(notifications.size(), 1u);
  EXPECT_NE(notifications[0].find("revoked"), std::string::npos);
  EXPECT_TRUE(conn->suspended(Connection::End::kA));

  // Requests from the suspended end are refused; the channel stays open.
  EXPECT_THROW(
      conn->call(Connection::End::kA, "mail", "getPhone", {Value::string("x")}),
      minilang::EvalError);
  EXPECT_TRUE(conn->open());
}

TEST(Connection, RevalidationRestoresService) {
  ChannelWorld w;
  minilang::ClassRegistry registry;
  mail::register_all(registry);
  w.server_board.register_service("mail",
                                  minilang::instantiate(registry, "MailServer"));
  auto conn = w.connect();
  w.repo.revoke(w.client_cred->serial);
  ASSERT_TRUE(conn->suspended(Connection::End::kA));

  // Revalidation without fresh credentials fails.
  EXPECT_FALSE(conn->revalidate(Connection::End::kA));

  // The Guard issues a fresh credential; revalidation then succeeds.
  auto fresh = drbac::issue(w.guard, Principal::of_entity(w.client),
                            role_of(w.guard, "Member"), {}, false, 0, 0,
                            w.repo.next_serial());
  w.repo.add(fresh);
  EXPECT_TRUE(conn->revalidate(Connection::End::kA));
  EXPECT_FALSE(conn->suspended(Connection::End::kA));
  conn->call(Connection::End::kA, "mail", "getPhone", {Value::string("x")});
  SUCCEED();
}

TEST(Connection, HeartbeatCatchesExpiredCredentials) {
  ChannelWorld w;
  // Re-issue the client credential with an expiry.
  w.client_cred = drbac::issue(w.guard, Principal::of_entity(w.client),
                               role_of(w.guard, "Member"), {}, false, 0,
                               /*expires=*/100 * kMillisecond,
                               w.repo.next_serial());
  auto conn = w.connect();
  EXPECT_FALSE(conn->suspended(Connection::End::kA));
  w.clock->set(200 * kMillisecond);  // past expiry
  conn->heartbeat();
  EXPECT_TRUE(conn->suspended(Connection::End::kA));
}

TEST(Connection, CloseIsIdempotentAndRefusesCalls) {
  ChannelWorld w;
  auto conn = w.connect();
  conn->close("test close");
  conn->close("second reason ignored");
  EXPECT_EQ(conn->close_reason(), "test close");
  EXPECT_THROW(conn->call(Connection::End::kA, "s", "m", {}),
               minilang::EvalError);
}

TEST(Connection, ConcurrentCallsAreSafe) {
  ChannelWorld w;
  minilang::ClassRegistry registry;
  mail::register_all(registry);
  auto server = minilang::instantiate(registry, "MailServer");
  w.server_board.register_service("mail", server);
  auto conn = w.connect();
  conn->call(Connection::End::kA, "mail", "registerAccount",
             {Value::string("u"), Value::string("p"), Value::string("e")});

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        try {
          conn->call(Connection::End::kA, "mail", "getPhone",
                     {Value::string("u")});
        } catch (...) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(conn->stats().calls, 201u);
}

// ----------------------------------------------------------------- stubs

TEST(Stubs, ChannelStubDrivesViewRemoteInterface) {
  // End-to-end: a VIG-generated Partner view whose switchboard-bound
  // AddressI routes through a real secure connection.
  ChannelWorld w;
  minilang::ClassRegistry registry;
  mail::register_all(registry);
  views::Vig vig(&registry);
  auto def = views::ViewDefinition::from_xml(mail::view_xml_partner());
  ASSERT_TRUE(def.ok());
  ASSERT_TRUE(vig.generate(def.value()).ok());

  auto original = minilang::instantiate(registry, "MailClient");
  original->call("addAccount", {Value::string("alice"), Value::string("555"),
                                Value::string("a@x")});
  w.server_board.register_service("MailClient", original);

  auto conn = w.connect();
  auto view = minilang::instantiate(registry, "ViewMailClient_Partner");
  view->set_field("addressI_switch",
                  Value::object(std::make_shared<ChannelStub>(
                      conn, Connection::End::kA, "MailClient")));
  view->set_field("notesI_rmi",
                  Value::object(std::make_shared<RmiStub>(
                      &w.net, "client-host", &w.server_board, "MailClient")));
  views::attach_cache_manager(view, Value::null());

  EXPECT_EQ(view->call("getPhone", {Value::string("alice")}).as_string(),
            "555");
  view->call("addNote", {Value::string("note via rmi")});
  EXPECT_EQ(original->get_field("notes").as_list()->size(), 1u);
  EXPECT_GT(conn->stats().calls, 0u);
}

TEST(Stubs, RmiStubFailsWithoutRoute) {
  ChannelWorld w;
  minilang::ClassRegistry registry;
  mail::register_all(registry);
  w.server_board.register_service("mail",
                                  minilang::instantiate(registry, "MailServer"));
  RmiStub stub(&w.net, "client-host", &w.server_board, "mail");
  w.net.disconnect("client-host", "server-host");
  EXPECT_THROW(stub.call("getPhone", {Value::string("x")}),
               minilang::EvalError);
}

TEST(Stubs, RmiStubChargesNetwork) {
  ChannelWorld w;
  minilang::ClassRegistry registry;
  mail::register_all(registry);
  w.server_board.register_service("mail",
                                  minilang::instantiate(registry, "MailServer"));
  RmiStub stub(&w.net, "client-host", &w.server_board, "mail");
  const auto before = w.net.stats("client-host", "server-host").messages;
  stub.call("getPhone", {Value::string("x")});
  EXPECT_EQ(w.net.stats("client-host", "server-host").messages, before + 2);
}

// ---------------------------------------------------------- ReplayWindow

TEST(ReplayWindowTest, BasicAcceptAndDuplicate) {
  ReplayWindow win;
  EXPECT_FALSE(win.check_and_insert(0));  // seq 0 is never valid
  EXPECT_TRUE(win.check_and_insert(1));
  EXPECT_FALSE(win.check_and_insert(1));  // duplicate
  EXPECT_TRUE(win.check_and_insert(3));   // gap is fine
  EXPECT_TRUE(win.check_and_insert(2));   // late arrival inside the window
  EXPECT_FALSE(win.check_and_insert(2));  // duplicate within window
  EXPECT_EQ(win.max_seen(), 3u);
}

TEST(ReplayWindowTest, StaleSequenceRejected) {
  ReplayWindow win;
  const std::uint64_t head = ReplayWindow::kSize + 100;
  EXPECT_TRUE(win.check_and_insert(head));
  // Exactly kSize behind the head has fallen off the window — stale even
  // though it was never seen.
  EXPECT_FALSE(win.check_and_insert(head - ReplayWindow::kSize));
  // One inside the boundary is still acceptable.
  EXPECT_TRUE(win.check_and_insert(head - ReplayWindow::kSize + 1));
}

TEST(ReplayWindowTest, EvictionAtWindowBoundary) {
  ReplayWindow win;
  // Fill seqs 1..kSize, then slide by one: seq kSize+1 reuses the bitmap
  // slot of seq 1, which must have been evicted, while seq 2 (still in
  // range but already recorded) stays a duplicate.
  for (std::uint64_t s = 1; s <= ReplayWindow::kSize; ++s) {
    ASSERT_TRUE(win.check_and_insert(s)) << s;
  }
  EXPECT_TRUE(win.check_and_insert(ReplayWindow::kSize + 1));
  EXPECT_FALSE(win.check_and_insert(1));  // now stale
  EXPECT_FALSE(win.check_and_insert(2));  // in range, already seen
  EXPECT_FALSE(win.check_and_insert(ReplayWindow::kSize + 1));  // duplicate
}

TEST(ReplayWindowTest, FarAheadJumpClearsWindow) {
  ReplayWindow win;
  for (std::uint64_t s = 1; s <= 10; ++s) win.check_and_insert(s);
  // Jump several windows ahead: all old bits must be wiped, and the fresh
  // in-window range behind the new head must be accepted exactly once.
  const std::uint64_t head = 10 * ReplayWindow::kSize;
  EXPECT_TRUE(win.check_and_insert(head));
  EXPECT_EQ(win.max_seen(), head);
  EXPECT_TRUE(win.check_and_insert(head - 1));
  EXPECT_FALSE(win.check_and_insert(head - 1));
  EXPECT_FALSE(win.check_and_insert(10));  // ancient seq stays dead
  // The slot seq 5 used to occupy is reused by head - kSize + 5's hash
  // position; a fresh in-window seq mapping there must not be mistaken for
  // a replay after the wipe.
  EXPECT_TRUE(win.check_and_insert(head - ReplayWindow::kSize + 5));
}

TEST(ReplayWindowTest, ConnectionRejectsReplayedAndStaleFrames) {
  // End-to-end through the sealed channel: replaying a captured frame and
  // delivering one that has aged out of the window must both fail closed.
  ChannelWorld w;
  auto conn = w.connect();
  const util::Bytes payload = util::to_bytes("frame");
  const util::Bytes first = conn->seal(Connection::End::kA, payload);
  ASSERT_TRUE(conn->unseal(Connection::End::kB, first).ok());
  auto replay = conn->unseal(Connection::End::kB, first);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.error().code, "replay");

  // Age the captured frame out: push the window kSize frames ahead.
  util::Bytes stale = conn->seal(Connection::End::kA, payload);
  for (std::uint64_t i = 0; i < ReplayWindow::kSize; ++i) {
    ASSERT_TRUE(
        conn->unseal(Connection::End::kB, conn->seal(Connection::End::kA,
                                                     payload))
            .ok());
  }
  auto aged = conn->unseal(Connection::End::kB, stale);
  ASSERT_FALSE(aged.ok());
  EXPECT_EQ(aged.error().code, "replay");
}

}  // namespace
}  // namespace psf::switchboard
