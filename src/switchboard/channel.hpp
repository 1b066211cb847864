// Switchboard (paper §4.3): host-level communication resource establishing
// secure, authenticated, and *continuously* authorized connections between
// component pairs.
//
//  - Key exchange: ephemeral Diffie-Hellman on the Ed25519 group; transcript
//    signed by each side's PKI identity.
//  - Cipher: per-direction ChaCha20 keys; frames are MACed (HMAC-SHA-256)
//    and carry sequence numbers: the trunk checks them against a sliding
//    replay window, a derived session accepts only the next one in order.
//    One frame codec (below) serves the trunk and every derived session.
//  - Authorization: each side's Authorizer evaluates the partner's dRBAC
//    credentials into a proof; AuthorizationMonitors (dRBAC ProofMonitors)
//    fire when a credential is revoked mid-connection, suspending the
//    offending end until it revalidates — the property that distinguishes
//    Switchboard from SSL/TLS.
//  - Heartbeats: replay-resistant, measure RTT, detect liveness loss, and
//    re-validate both proofs.
//  - RPC: a two-way procedure-call interface on top, used by views' stub
//    fields (ChannelStub) — the `switchboard` interface binding. RmiStub is
//    the plaintext, connectionless baseline (the `rmi` binding).
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>

#include "crypto/chacha20.hpp"
#include "crypto/hmac.hpp"
#include "drbac/engine.hpp"
#include "minilang/value.hpp"
#include "minilang/value_codec.hpp"
#include "switchboard/authorizer.hpp"
#include "switchboard/network.hpp"
#include "switchboard/replay_window.hpp"
#include "util/lock_rank.hpp"
#include "util/rng.hpp"
#include "util/sim_clock.hpp"

namespace psf::switchboard {

// ------------------------------------------------------------- frame codec
//
// Every sealed frame (trunk RPCs and heartbeats, derived-session data and
// control) has one layout and one implementation, in channel.cpp:
//
//   seq(8, big-endian) | ChaCha20(plaintext) | HMAC-SHA-256(seq|ciphertext)
//
// The nonce is the direction byte plus the little-endian seq. Opening checks
// the length, then the MAC (constant time), then decrypts; the owner's
// sequence check runs last. A rejection carries exactly one code: `frame`
// (shorter than kFrameOverhead), `mac` (tag mismatch: tampered, truncated,
// extended, or wrong key or direction) or `replay` (replayed, stale or, on
// a session, out of order).

/// Bytes a sealed frame adds to its plaintext: seq(8) + hmac(32).
inline constexpr std::size_t kFrameOverhead = 8 + 32;

/// Raw per-direction key material ([0]=A->B, [1]=B->A), as the trunk
/// handshake and Connection::derive_session_keys produce it.
struct SessionKeyMaterial {
  crypto::ChaChaKey cipher[2];
  util::Bytes mac_key[2];
};

/// The codec's keyed form of SessionKeyMaterial: HMAC midstates with each
/// MAC key's ipad/opad blocks absorbed once, so a frame streams only its own
/// bytes. 192 bytes: two ChaCha20 keys and two 64-byte HMAC seeds.
struct FrameKeys {
  FrameKeys() = default;
  explicit FrameKeys(const SessionKeyMaterial& material);
  crypto::ChaChaKey cipher[2]{};
  crypto::HmacSha256 mac_seed[2];
};

/// Per-session framing state for the event transport (reactor.hpp): the
/// codec keyed by derived session material plus a send and a receive
/// counter per direction. Owned by exactly one EventChannel and only
/// touched from its loop thread, so unlike the trunk it needs no locks.
///
/// A session runs over a reliable in-order conduit (a memory pipe or a
/// socketpair), so its frames arrive in the order they were sealed: only
/// seq == last + 1 opens (the TLS 1.3 rule for a stream, RFC 8446 §5.3),
/// and a skipped, repeated or reordered frame is a `replay` error. No
/// window is kept.
class SessionCrypto {
 public:
  SessionCrypto() = default;
  SessionCrypto(const SessionKeyMaterial& keys);

  /// Seal `plain` as the next frame in direction `dir` (0 = A->B, 1 = B->A)
  /// into `frame` (capacity reused across calls).
  void seal_into(int dir, const std::uint8_t* plain, std::size_t len,
                 util::Bytes& frame);

  /// Open the next frame received in direction `dir`: the plaintext length,
  /// with the plaintext in `plain`, or a frame/mac/replay error (`plain`
  /// empty, and the expected sequence number unchanged).
  util::Result<std::size_t> unseal_into(int dir, const std::uint8_t* frame,
                                        std::size_t len, util::Bytes& plain);

 private:
  FrameKeys keys_;
  std::uint64_t send_seq_[2] = {0, 0};
  std::uint64_t recv_seq_[2] = {0, 0};  // last frame opened
};

class Connection;

/// One per host: the service registry plus the connection factory.
class Switchboard {
 public:
  Switchboard(std::string host, Network* network,
              std::shared_ptr<util::Clock> clock);

  const std::string& host() const { return host_; }
  Network& network() { return *network_; }
  util::Clock& clock() { return *clock_; }

  /// Publish a call target under `name` (later registration wins).
  void register_service(const std::string& name,
                        std::shared_ptr<minilang::CallTarget> target);
  /// The target registered under `name`, or nullptr. Shared-lock read:
  /// sits on every RPC dispatch.
  std::shared_ptr<minilang::CallTarget> lookup(const std::string& name) const;

  /// Suite used when remote parties connect to this switchboard.
  void set_suite(AuthorizationSuite suite);
  const AuthorizationSuite* suite() const;

  /// Establish a secure connection from this host to `remote`, using
  /// `local_suite` on our side and the remote's configured suite.
  util::Result<std::shared_ptr<Connection>> connect(
      Switchboard& remote, const AuthorizationSuite& local_suite,
      util::Rng& rng);

 private:
  std::string host_;
  Network* network_;
  std::shared_ptr<util::Clock> clock_;
  // Reader-writer lock: lookup()/suite() sit on every RPC dispatch and only
  // read, so they take shared locks; registration (rare) takes exclusive.
  mutable util::RankedMutex<std::shared_mutex> mutex_{
      util::LockRank::kSwitchboard, "switchboard.services"};
  std::map<std::string, std::shared_ptr<minilang::CallTarget>> services_;
  std::unique_ptr<AuthorizationSuite> suite_;
};

struct ConnectionStats {
  std::uint64_t calls = 0;
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t heartbeats = 0;
  util::SimTime last_rtt = 0;       // simulated; last call or heartbeat
  // RTT from the most recent heartbeat round only — unlike last_rtt it is
  // never clobbered by RPC traffic, so liveness dashboards stay fresh.
  util::SimTime last_heartbeat_rtt = 0;  // simulated
  util::SimTime handshake_time = 0; // simulated
};

class Connection : public std::enable_shared_from_this<Connection> {
 public:
  enum class End { kA, kB };  // A initiated the connection

  /// Full handshake: route check, DH, identity signatures, mutual
  /// authorization, monitor installation.
  static util::Result<std::shared_ptr<Connection>> establish(
      Switchboard& a, Switchboard& b, const AuthorizationSuite& suite_a,
      const AuthorizationSuite& suite_b, util::Rng& rng);

  ~Connection();

  /// Two-way RPC: invoke `service.method(args)` on the opposite end.
  /// Throws minilang::EvalError on transport, authorization, or application
  /// errors.
  minilang::Value call(End from, const std::string& service,
                       const std::string& method,
                       std::vector<minilang::Value> args);

  /// Replay-resistant liveness + RTT probe; also re-validates both proofs.
  /// Safe to call from a timer thread.
  void heartbeat();

  /// Tear down both ends; idempotent (the first reason sticks). Journals a
  /// teardown event for the flight recorder.
  void close(const std::string& reason);
  bool open() const { return open_.load(); }
  /// Why close() was called ("" while still open).
  std::string close_reason() const;

  /// The proof authorizing `end`'s identity (produced by the other side's
  /// Authorizer at establishment or the latest revalidation).
  const drbac::Proof& proof_of(End end) const;

  /// Is `end` currently suspended pending revalidation?
  bool suspended(End end) const;

  /// Try to re-authorize `end` (fresh credentials may have been issued).
  bool revalidate(End end);

  /// Listener fired when an end's authorization changes (revocation or
  /// successful revalidation). Args: which end, human-readable reason.
  void set_authorization_listener(
      std::function<void(End, const std::string&)> listener);

  /// Point-in-time copy of the traffic counters (calls, frames, bytes,
  /// heartbeats, RTTs).
  ConnectionStats stats() const;

  /// The switchboard (host) behind one end, e.g. for network accounting by
  /// layered transports (SwitchboardStream).
  Switchboard& board(End end) const { return *boards_[end == End::kA ? 0 : 1]; }

  // --- session key derivation (event-driven core, reactor.hpp) ---
  //
  // The readiness-driven transport multiplexes many lightweight sessions
  // over one fully-handshaked trunk Connection (the same idea as TLS session
  // resumption / QUIC connection IDs): each session gets one set of per-
  // direction ChaCha20 and HMAC keys and its own sequence space, derived
  // deterministically from a resumption secret that only the two ends of
  // this connection share. A 100k-client ramp therefore costs one DH +
  // signature handshake per trunk, not per client, while each session
  // still has cryptographically independent framing.

  /// Derive the session keys for `session_id` (any value; ids must be unique
  /// per trunk). Pure function of the connection's resumption secret: both
  /// ends compute identical material without a round trip. Every message of
  /// a session (HELLO, WELCOME, DATA, BYE) is sealed with this one set.
  SessionKeyMaterial derive_session_keys(std::uint64_t session_id) const;
  /// The same keys, for callers that still name the derivation label.
  /// "data" is the only label; any other throws std::invalid_argument.
  SessionKeyMaterial derive_session_keys(std::uint64_t session_id,
                                         std::string_view label) const;

  // --- raw frame sealing with replay protection ---
  //
  // The frame codec above, keyed by the trunk's own material: seal_into
  // takes the next sequence number without a lock, unseal_into checks the
  // replay window under mutex_ (concurrent calls may deliver out of order).
  // seal/unseal are thin allocating wrappers kept for tests and one-shot
  // callers.
  void seal_into(End sender, const std::uint8_t* plaintext, std::size_t len,
                 util::Bytes& frame);
  util::Result<std::size_t> unseal_into(End receiver, const util::Bytes& frame,
                                        util::Bytes& plain);
  util::Bytes seal(End sender, const util::Bytes& plaintext);
  util::Result<util::Bytes> unseal(End receiver, const util::Bytes& frame);

 private:
  Connection() = default;

  static End other(End end) { return end == End::kA ? End::kB : End::kA; }
  int index(End end) const { return end == End::kA ? 0 : 1; }

  Switchboard* boards_[2] = {nullptr, nullptr};
  AuthorizationSuite suites_[2];
  drbac::Proof proofs_[2];
  std::unique_ptr<drbac::ProofMonitor> monitors_[2];
  std::atomic<bool> suspended_[2] = {false, false};

  FrameKeys keys_;  // [0]=A->B, [1]=B->A
  // HMAC(shared secret, "session-resume-v1"): the root from which
  // derive_session_keys() grows per-session keys for the event transport.
  util::Bytes resumption_secret_;
  std::atomic<std::uint64_t> send_seq_[2] = {0, 0};
  // Replay protection per direction: O(1) sliding bitmap (concurrent calls
  // may deliver frames out of order). Guarded by mutex_.
  ReplayWindow recv_window_[2];

  std::atomic<bool> open_{false};
  // Health-plane registration ("switchboard.conn.<a>-<b>"), made at establish
  // and removed by the destructor. 0 = never registered.
  std::uint64_t health_token_ = 0;
  mutable util::RankedMutex<std::mutex> mutex_{
      util::LockRank::kConnection, "switchboard.connection"};
  std::string close_reason_;
  std::function<void(End, const std::string&)> listener_;
  ConnectionStats stats_;

  void install_monitor(End end);
  minilang::Value dispatch(End at, const util::Bytes& plaintext_request);
};

/// View stub for `switchboard`-bound interfaces: routes calls through a
/// secure connection.
class ChannelStub : public minilang::CallTarget {
 public:
  ChannelStub(std::shared_ptr<Connection> connection, Connection::End local,
              std::string service);
  minilang::Value call(const std::string& method,
                       std::vector<minilang::Value> args) override;
  std::string type_name() const override;

 private:
  std::shared_ptr<Connection> connection_;
  Connection::End local_;
  std::string service_;
};

/// View stub for `rmi`-bound interfaces: plaintext, unauthenticated RPC with
/// network accounting but no channel state.
class RmiStub : public minilang::CallTarget {
 public:
  RmiStub(Network* network, std::string from_host, Switchboard* remote,
          std::string service);
  minilang::Value call(const std::string& method,
                       std::vector<minilang::Value> args) override;
  std::string type_name() const override;

 private:
  Network* network_;
  std::string from_host_;
  Switchboard* remote_;
  std::string service_;
};

}  // namespace psf::switchboard
