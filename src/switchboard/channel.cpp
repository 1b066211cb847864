#include "switchboard/channel.hpp"

#include <stdexcept>

#include "crypto/chacha20.hpp"
#include "crypto/dh.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "obs/health.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace psf::switchboard {

using minilang::EvalError;
using minilang::Value;

// ------------------------------------------------------------- Switchboard

Switchboard::Switchboard(std::string host, Network* network,
                         std::shared_ptr<util::Clock> clock)
    : host_(std::move(host)), network_(network), clock_(std::move(clock)) {
  network_->add_host(host_);
}

void Switchboard::register_service(
    const std::string& name, std::shared_ptr<minilang::CallTarget> target) {
  std::unique_lock lock(mutex_);
  services_[name] = std::move(target);
}

std::shared_ptr<minilang::CallTarget> Switchboard::lookup(
    const std::string& name) const {
  std::shared_lock lock(mutex_);
  auto it = services_.find(name);
  return it == services_.end() ? nullptr : it->second;
}

void Switchboard::set_suite(AuthorizationSuite suite) {
  std::unique_lock lock(mutex_);
  suite_ = std::make_unique<AuthorizationSuite>(std::move(suite));
}

const AuthorizationSuite* Switchboard::suite() const {
  std::shared_lock lock(mutex_);
  return suite_.get();
}

util::Result<std::shared_ptr<Connection>> Switchboard::connect(
    Switchboard& remote, const AuthorizationSuite& local_suite,
    util::Rng& rng) {
  const AuthorizationSuite* remote_suite = remote.suite();
  if (remote_suite == nullptr) {
    return util::Result<std::shared_ptr<Connection>>::failure(
        "no-suite", "remote switchboard on " + remote.host() +
                        " has no authorization suite configured");
  }
  return Connection::establish(*this, remote, local_suite, *remote_suite, rng);
}

// ------------------------------------------------------------- frame codec

namespace {

crypto::ChaChaNonce nonce_for(int direction, std::uint64_t seq) {
  crypto::ChaChaNonce nonce{};
  nonce[0] = static_cast<std::uint8_t>(direction);
  for (int i = 0; i < 8; ++i) {
    nonce[4 + i] = static_cast<std::uint8_t>(seq >> (8 * i));
  }
  return nonce;
}

// Codec instrumentation, shared by the trunk and every session. A scratch
// "reuse" is a seal/open served entirely from existing buffer capacity; a
// "grow" is a (re)allocation. After warm-up, reuses should dominate.
struct FrameMetrics {
  obs::Counter& scratch_reuses =
      obs::counter("psf.switchboard.scratch.reuses");
  obs::Counter& scratch_grows = obs::counter("psf.switchboard.scratch.grows");
  obs::Counter& replay_rejections =
      obs::counter("psf.switchboard.replay.rejections");
  void note_scratch(const util::Bytes& buffer, std::size_t needed) {
    (buffer.capacity() < needed ? scratch_grows : scratch_reuses).inc();
  }
  static FrameMetrics& get() {
    static FrameMetrics m;
    return m;
  }
};

// `plain` must not alias `frame`: the frame is rebuilt from scratch (only
// its capacity survives across calls). The plaintext is encrypted where it
// sits in the frame, then the frame bytes are MACed from the keyed
// midstates, so there are no mac_input, body or ciphertext temporaries.
void seal_frame(const FrameKeys& keys, int dir, std::uint64_t seq,
                const std::uint8_t* plain, std::size_t len,
                util::Bytes& frame) {
  const std::size_t total = kFrameOverhead + len;
  FrameMetrics::get().note_scratch(frame, total);
  frame.clear();
  frame.reserve(total);
  util::put_u64_be(frame, seq);
  frame.insert(frame.end(), plain, plain + len);
  crypto::chacha20_xor_inplace(keys.cipher[dir], nonce_for(dir, seq), 1,
                               frame.data() + 8, len);
  const crypto::Digest256 tag = keys.mac_seed[dir].mac(frame.data(), 8 + len);
  frame.insert(frame.end(), tag.begin(), tag.end());
}

// Returns the frame's sequence number with the plaintext in `plain` (which
// must not alias `frame`); on failure `plain` is left empty. The replay
// check is the owner's.
util::Result<std::uint64_t> open_frame(const FrameKeys& keys, int dir,
                                       const std::uint8_t* frame,
                                       std::size_t len, util::Bytes& plain) {
  using Fail = util::Result<std::uint64_t>;
  plain.clear();
  if (len < kFrameOverhead) return Fail::failure("frame", "short frame");
  const std::size_t body_len = len - 32;
  const crypto::Digest256 expected = keys.mac_seed[dir].mac(frame, body_len);
  if (!util::equal_ct(frame + body_len, expected.data(), expected.size())) {
    return Fail::failure("mac", "MAC verification failed");
  }
  std::uint64_t seq = 0;
  for (int i = 0; i < 8; ++i) seq = (seq << 8) | frame[i];
  const std::size_t plain_len = len - kFrameOverhead;
  FrameMetrics::get().note_scratch(plain, plain_len);
  plain.assign(frame + 8, frame + 8 + plain_len);
  crypto::chacha20_xor_inplace(keys.cipher[dir], nonce_for(dir, seq), 1,
                               plain.data(), plain_len);
  return seq;
}

util::Result<std::size_t> replay_rejected(std::uint64_t seq, int dir,
                                          util::Bytes& plain) {
  plain.clear();
  FrameMetrics::get().replay_rejections.inc();
  obs::journal::emit(obs::journal::Subsystem::kSwitchboard,
                     obs::journal::kSwReplayReject, seq,
                     static_cast<std::uint64_t>(dir));
  return util::Result<std::size_t>::failure(
      "replay", "replayed or stale frame (seq " + std::to_string(seq) + ")");
}

}  // namespace

FrameKeys::FrameKeys(const SessionKeyMaterial& material) {
  for (int dir = 0; dir < 2; ++dir) {
    cipher[dir] = material.cipher[dir];
    mac_seed[dir] = crypto::HmacSha256(material.mac_key[dir]);
  }
}

SessionCrypto::SessionCrypto(const SessionKeyMaterial& keys) : keys_(keys) {}

void SessionCrypto::seal_into(int dir, const std::uint8_t* plain,
                              std::size_t len, util::Bytes& frame) {
  seal_frame(keys_, dir, ++send_seq_[dir], plain, len, frame);
}

util::Result<std::size_t> SessionCrypto::unseal_into(int dir,
                                                     const std::uint8_t* frame,
                                                     std::size_t len,
                                                     util::Bytes& plain) {
  auto opened = open_frame(keys_, dir, frame, len, plain);
  if (!opened.ok()) return opened.error();
  if (opened.value() != recv_seq_[dir] + 1) {
    return replay_rejected(opened.value(), dir, plain);
  }
  recv_seq_[dir] = opened.value();
  return plain.size();
}

// -------------------------------------------------------------- Connection

namespace {

util::Bytes handshake_transcript(const util::Bytes& dh_a,
                                 const util::Bytes& dh_b) {
  util::Bytes transcript;
  util::append(transcript, "switchboard-handshake-v1|");
  util::append(transcript, dh_a);
  util::append(transcript, dh_b);
  return transcript;
}

// Channel instrumentation (psf.switchboard.*). Simulated durations use the
// _sim_ns suffix; wall-clock ones use _us.
struct ChannelMetrics {
  obs::Counter& handshakes = obs::counter("psf.switchboard.handshakes");
  obs::Counter& handshake_failures =
      obs::counter("psf.switchboard.handshake.failures");
  obs::Histogram& handshake_us =
      obs::histogram("psf.switchboard.handshake_us");
  obs::Histogram& handshake_sim_ns =
      obs::histogram("psf.switchboard.handshake_sim_ns");
  obs::Counter& calls = obs::counter("psf.switchboard.calls");
  obs::Counter& frames = obs::counter("psf.switchboard.frames");
  obs::Counter& bytes = obs::counter("psf.switchboard.bytes");
  obs::Histogram& call_rtt_sim_ns =
      obs::histogram("psf.switchboard.call.rtt_sim_ns");
  // Wall-clock end-to-end secure RPC latency: the histogram the
  // switchboard.rpc SLO and the mail load bench key on.
  obs::Histogram& rpc_us = obs::histogram("psf.switchboard.rpc_us");
  obs::Counter& heartbeats = obs::counter("psf.switchboard.heartbeats");
  obs::Gauge& heartbeat_rtt_ns =
      obs::gauge("psf.switchboard.heartbeat.rtt_ns");
  obs::Counter& suspensions = obs::counter("psf.switchboard.suspensions");
  obs::Counter& revalidations = obs::counter("psf.switchboard.revalidations");
  obs::Counter& teardowns = obs::counter("psf.switchboard.teardowns");
  static ChannelMetrics& get() {
    static ChannelMetrics m;
    return m;
  }
};

}  // namespace

util::Result<std::shared_ptr<Connection>> Connection::establish(
    Switchboard& a, Switchboard& b, const AuthorizationSuite& suite_a,
    const AuthorizationSuite& suite_b, util::Rng& rng) {
  using Fail = util::Result<std::shared_ptr<Connection>>;
  ChannelMetrics& metrics = ChannelMetrics::get();
  obs::ScopedSpan span("switchboard.handshake");
  obs::ScopedTimerUs timer(metrics.handshake_us);
  auto fail = [&](const char* code, std::string message) {
    timer.cancel();
    metrics.handshake_failures.inc();
    obs::journal::emit(obs::journal::Subsystem::kSwitchboard,
                       obs::journal::kSwEstablishFailed,
                       obs::journal::tag(a.host()), obs::journal::tag(b.host()),
                       obs::journal::tag(code));
    return Fail::failure(code, std::move(message));
  };

  // Route check: connections span the network, so there must be a path.
  auto route = a.network().path(a.host(), b.host());
  if (!route.has_value()) {
    return fail("no-route", "no network path between " + a.host() + " and " +
                                b.host());
  }

  // Ephemeral DH + identity signatures over the shared transcript.
  const crypto::DhKeyPair dh_a = crypto::dh_generate(rng);
  const crypto::DhKeyPair dh_b = crypto::dh_generate(rng);
  const util::Bytes transcript =
      handshake_transcript(dh_a.public_point, dh_b.public_point);
  const crypto::Signature sig_a = crypto::sign(suite_a.identity.keys, transcript);
  const crypto::Signature sig_b = crypto::sign(suite_b.identity.keys, transcript);
  if (!crypto::verify(suite_a.identity.keys.public_key, transcript, sig_a) ||
      !crypto::verify(suite_b.identity.keys.public_key, transcript, sig_b)) {
    return fail("auth-failed", "identity signature did not verify");
  }
  util::Bytes secret;
  if (!crypto::dh_shared_secret(dh_a, dh_b.public_point, secret)) {
    return fail("key-exchange", "DH key agreement failed");
  }

  // Mutual authorization: each side evaluates the partner's credentials.
  const util::SimTime now = a.clock().now();
  auto proof_of_a = suite_b.authorizer->authorize(
      drbac::Principal::of_entity(suite_a.identity), suite_a.credentials, now);
  if (!proof_of_a.ok()) {
    return fail("authorization-denied",
                b.host() + " rejected " + suite_a.identity.name + ": " +
                    proof_of_a.error().message);
  }
  auto proof_of_b = suite_a.authorizer->authorize(
      drbac::Principal::of_entity(suite_b.identity), suite_b.credentials, now);
  if (!proof_of_b.ok()) {
    return fail("authorization-denied",
                a.host() + " rejected " + suite_b.identity.name + ": " +
                    proof_of_b.error().message);
  }

  auto connection = std::shared_ptr<Connection>(new Connection());
  connection->boards_[0] = &a;
  connection->boards_[1] = &b;
  connection->suites_[0] = suite_a;
  connection->suites_[1] = suite_b;
  connection->proofs_[0] = std::move(proof_of_a).take();
  connection->proofs_[1] = std::move(proof_of_b).take();
  SessionKeyMaterial trunk_keys;
  trunk_keys.cipher[0] = crypto::derive_channel_key(secret, "a2b");
  trunk_keys.cipher[1] = crypto::derive_channel_key(secret, "b2a");
  trunk_keys.mac_key[0] =
      crypto::hmac_sha256_bytes(secret, util::to_bytes("mac-a2b"));
  trunk_keys.mac_key[1] =
      crypto::hmac_sha256_bytes(secret, util::to_bytes("mac-b2a"));
  connection->keys_ = FrameKeys(trunk_keys);
  connection->resumption_secret_ =
      crypto::hmac_sha256_bytes(secret, util::to_bytes("session-resume-v1"));
  connection->open_.store(true);

  // Continuous authorization: watch every credential both proofs rest on.
  connection->install_monitor(End::kA);
  connection->install_monitor(End::kB);

  // Charge the three handshake flights against the network.
  std::size_t handshake_bytes = 32 + 64 + 32 + 64;  // keys + signatures
  for (const auto& c : suite_a.credentials) handshake_bytes += c->payload().size();
  for (const auto& c : suite_b.credentials) handshake_bytes += c->payload().size();
  util::SimTime elapsed = 0;
  for (int flight = 0; flight < 3; ++flight) {
    auto t = a.network().transfer(flight % 2 == 0 ? a.host() : b.host(),
                                  flight % 2 == 0 ? b.host() : a.host(),
                                  handshake_bytes / 3);
    if (!t.has_value()) {
      return fail("no-route", "network lost during handshake");
    }
    elapsed += *t;
  }
  connection->stats_.handshake_time = elapsed;
  metrics.handshakes.inc();
  metrics.handshake_sim_ns.observe(elapsed);
  obs::journal::emit(obs::journal::Subsystem::kSwitchboard,
                     obs::journal::kSwEstablish, obs::journal::tag(a.host()),
                     obs::journal::tag(b.host()),
                     static_cast<std::uint64_t>(elapsed));

  // Per-connection health row. The weak_ptr keeps the check safe against a
  // probe racing connection destruction (the destructor also removes it).
  std::weak_ptr<Connection> weak = connection;
  connection->health_token_ = obs::HealthRegistry::instance().add(
      "switchboard.conn." + a.host() + "-" + b.host(), [weak] {
        auto conn = weak.lock();
        if (conn == nullptr) return obs::CheckResult::ok("connection gone");
        if (!conn->open()) {
          return obs::CheckResult::failing("closed: " + conn->close_reason());
        }
        if (conn->suspended(End::kA) || conn->suspended(End::kB)) {
          return obs::CheckResult::degraded(
              "end suspended pending revalidation");
        }
        return obs::CheckResult::ok("open");
      });
  return util::Result<std::shared_ptr<Connection>>(std::move(connection));
}

Connection::~Connection() {
  if (health_token_ != 0) {
    obs::HealthRegistry::instance().remove(health_token_);
  }
}

void Connection::install_monitor(End end) {
  const int i = index(end);
  // The *other* side's authorizer produced this proof; its repository is the
  // revocation home to watch.
  drbac::Repository* repo = suites_[index(other(end))].authorizer->repository();
  if (repo == nullptr || proofs_[i].credentials.empty()) {
    monitors_[i].reset();
    return;
  }
  monitors_[i] = std::make_unique<drbac::ProofMonitor>(
      repo, proofs_[i],
      [this, end](const drbac::Proof&, std::uint64_t serial) {
        suspended_[index(end)].store(true);
        ChannelMetrics::get().suspensions.inc();
        obs::journal::emit(obs::journal::Subsystem::kSwitchboard,
                           obs::journal::kSwRevocation, serial,
                           static_cast<std::uint64_t>(index(end)));
        std::function<void(End, const std::string&)> listener;
        {
          std::lock_guard lock(mutex_);
          listener = listener_;
        }
        if (listener) {
          listener(end, "credential " + std::to_string(serial) +
                            " revoked; revalidation required");
        }
      });
}

SessionKeyMaterial Connection::derive_session_keys(
    std::uint64_t session_id) const {
  SessionKeyMaterial keys;
  static constexpr const char* kDirection[2] = {"a2b", "b2a"};
  for (int dir = 0; dir < 2; ++dir) {
    util::Bytes info;
    util::append(info, "data-cipher-");
    util::append(info, kDirection[dir]);
    util::put_u64_be(info, session_id);
    const auto cipher = crypto::hmac_sha256(resumption_secret_, info);
    std::copy(cipher.begin(), cipher.end(), keys.cipher[dir].begin());
    info.clear();
    util::append(info, "data-mac-");
    util::append(info, kDirection[dir]);
    util::put_u64_be(info, session_id);
    keys.mac_key[dir] = crypto::hmac_sha256_bytes(resumption_secret_, info);
  }
  return keys;
}

SessionKeyMaterial Connection::derive_session_keys(
    std::uint64_t session_id, std::string_view label) const {
  if (label != "data") {
    throw std::invalid_argument("session keys derive under \"data\" only");
  }
  return derive_session_keys(session_id);
}

void Connection::seal_into(End sender, const std::uint8_t* plaintext,
                           std::size_t len, util::Bytes& frame) {
  const int dir = index(sender);
  seal_frame(keys_, dir, ++send_seq_[dir], plaintext, len, frame);
}

util::Result<std::size_t> Connection::unseal_into(End receiver,
                                                  const util::Bytes& frame,
                                                  util::Bytes& plain) {
  // Receiver decodes the *other* end's direction.
  const int dir = index(other(receiver));
  auto opened = open_frame(keys_, dir, frame.data(), frame.size(), plain);
  if (!opened.ok()) return opened.error();
  bool fresh = false;
  {
    std::lock_guard lock(mutex_);
    fresh = recv_window_[dir].check_and_insert(opened.value());
  }
  if (!fresh) return replay_rejected(opened.value(), dir, plain);
  return plain.size();
}

util::Bytes Connection::seal(End sender, const util::Bytes& plaintext) {
  util::Bytes frame;
  seal_into(sender, plaintext.data(), plaintext.size(), frame);
  return frame;
}

util::Result<util::Bytes> Connection::unseal(End receiver,
                                             const util::Bytes& frame) {
  util::Bytes plain;
  auto unsealed = unseal_into(receiver, frame, plain);
  if (!unsealed.ok()) {
    return util::Result<util::Bytes>::failure(unsealed.error().code,
                                              unsealed.error().message);
  }
  return util::Result<util::Bytes>(std::move(plain));
}

Value Connection::dispatch(End at, const util::Bytes& plaintext_request) {
  auto decoded = minilang::decode_values(plaintext_request);
  if (!decoded.ok() || decoded.value().size() < 2) {
    throw EvalError("switchboard: malformed request");
  }
  const std::string service = decoded.value()[0].as_string();
  const std::string method = decoded.value()[1].as_string();
  std::vector<Value> args(decoded.value().begin() + 2, decoded.value().end());

  auto target = boards_[index(at)]->lookup(service);
  if (target == nullptr) {
    throw EvalError("switchboard: no service '" + service + "' on " +
                    boards_[index(at)]->host());
  }
  return target->call(method, std::move(args));
}

Value Connection::call(End from, const std::string& service,
                       const std::string& method, std::vector<Value> args) {
  if (!open_.load()) {
    throw EvalError("switchboard: connection closed (" + close_reason() + ")");
  }
  if (suspended_[index(from)].load()) {
    throw EvalError(
        "switchboard: authorization revoked; revalidation required before "
        "further requests");
  }
  const End to = other(from);
  ChannelMetrics& metrics = ChannelMetrics::get();
  obs::ScopedSpan span("switchboard.call");
  // Declared after the span so the timer's destructor runs first: an
  // exemplar captured at observe() time still sees this call's SpanContext.
  obs::ScopedTimerUs rpc_timer(metrics.rpc_us);

  // Request: encode (trace header + values) straight into a reusable
  // plaintext scratch, then seal into a reusable frame scratch. The buffers
  // are thread_local so concurrent calls stay lock-free; their contents are
  // never live across dispatch(), which may re-enter call() on this thread
  // (chained replicas), so re-entrant use only resets capacity-warm buffers.
  // The trace header travels inside the sealed plaintext so the frame layout
  // (seq + ciphertext + hmac) is unchanged.
  thread_local util::Bytes plain_buf;
  thread_local util::Bytes frame_buf;
  thread_local util::Bytes request_plain;

  std::vector<Value> request;
  request.reserve(args.size() + 2);
  request.push_back(Value::string(service));
  request.push_back(Value::string(method));
  for (auto& a : args) request.push_back(std::move(a));
  plain_buf.clear();
  plain_buf.reserve(obs::kTraceHeaderSize +
                    minilang::encoded_values_size(request));
  obs::append_trace_header(span.context(), plain_buf);
  minilang::encode_values_into(request, plain_buf);
  seal_into(from, plain_buf.data(), plain_buf.size(), frame_buf);
  const std::size_t request_frame_size = frame_buf.size();

  auto forward_time = boards_[index(from)]->network().transfer(
      boards_[index(from)]->host(), boards_[index(to)]->host(),
      frame_buf.size());
  if (!forward_time.has_value()) {
    close("network partition");
    throw EvalError("switchboard: network partition");
  }
  auto unsealed = unseal_into(to, frame_buf, plain_buf);
  if (!unsealed.ok()) {
    close("frame corruption: " + unsealed.error().message);
    throw EvalError("switchboard: " + unsealed.error().message);
  }

  // Receiving end: recover the caller's trace context so the dispatch span
  // links into the same trace even though it runs "on" the remote host.
  obs::SpanContext remote_context;
  if (!obs::strip_trace_header(plain_buf, remote_context, request_plain)) {
    request_plain = plain_buf;
  }

  Value result;
  std::string app_error;
  {
    obs::ContextGuard remote_guard(remote_context);
    obs::ScopedSpan dispatch_span("switchboard.dispatch");
    try {
      result = dispatch(to, request_plain);
    } catch (const EvalError& e) {
      app_error = e.what();
    }
  }

  // Response: ok flag + payload (or error text), sealed in the reverse
  // direction. The request's scratch buffers are dead by now (dispatch
  // decoded everything out of them), so they are reused verbatim.
  std::vector<Value> response;
  response.push_back(Value::boolean(app_error.empty()));
  if (app_error.empty()) {
    response.push_back(result);
  } else {
    response.push_back(Value::string(app_error));
  }
  plain_buf.clear();
  plain_buf.reserve(minilang::encoded_values_size(response));
  minilang::encode_values_into(response, plain_buf);
  seal_into(to, plain_buf.data(), plain_buf.size(), frame_buf);
  const std::size_t response_frame_size = frame_buf.size();
  auto back_time = boards_[index(to)]->network().transfer(
      boards_[index(to)]->host(), boards_[index(from)]->host(),
      frame_buf.size());
  if (!back_time.has_value()) {
    close("network partition");
    throw EvalError("switchboard: network partition");
  }
  auto response_plain = unseal_into(from, frame_buf, plain_buf);
  if (!response_plain.ok()) {
    close("frame corruption: " + response_plain.error().message);
    throw EvalError("switchboard: " + response_plain.error().message);
  }
  auto decoded = minilang::decode_values(plain_buf);
  if (!decoded.ok() || decoded.value().size() != 2) {
    throw EvalError("switchboard: malformed response");
  }

  {
    std::lock_guard lock(mutex_);
    ++stats_.calls;
    stats_.frames += 2;
    stats_.bytes += request_frame_size + response_frame_size;
    stats_.last_rtt = *forward_time + *back_time;
  }
  metrics.calls.inc();
  metrics.frames.inc(2);
  metrics.bytes.inc(
      static_cast<std::int64_t>(request_frame_size + response_frame_size));
  metrics.call_rtt_sim_ns.observe(*forward_time + *back_time);

  if (!decoded.value()[0].as_bool()) {
    throw EvalError(decoded.value()[1].as_string());
  }
  return decoded.value()[1];
}

void Connection::heartbeat() {
  if (!open_.load()) return;
  const util::SimTime now = boards_[0]->clock().now();

  // Liveness + RTT probe in both directions (sealed, so replay-resistant:
  // each heartbeat consumes a fresh sequence number). The two one-way
  // transfer times sum into a true round-trip estimate; earlier versions
  // doubled each direction in turn, so the stored RTT reflected only the
  // last probe and was wrong on asymmetric links.
  thread_local util::Bytes payload;
  thread_local util::Bytes frame;
  thread_local util::Bytes plain;
  util::SimTime round_trip = 0;
  for (const End end : {End::kA, End::kB}) {
    payload.clear();
    util::append(payload, "heartbeat|");
    util::put_u64_be(payload, static_cast<std::uint64_t>(now));
    seal_into(end, payload.data(), payload.size(), frame);
    auto t = boards_[index(end)]->network().transfer(
        boards_[index(end)]->host(), boards_[index(other(end))]->host(),
        frame.size());
    if (!t.has_value()) {
      obs::journal::emit(obs::journal::Subsystem::kSwitchboard,
                         obs::journal::kSwHeartbeatMiss,
                         obs::journal::tag(boards_[0]->host()),
                         obs::journal::tag(boards_[1]->host()),
                         obs::journal::tag("no-route"));
      close("liveness lost: no route");
      return;
    }
    auto unsealed = unseal_into(other(end), frame, plain);
    if (!unsealed.ok()) {
      obs::journal::emit(obs::journal::Subsystem::kSwitchboard,
                         obs::journal::kSwHeartbeatMiss,
                         obs::journal::tag(boards_[0]->host()),
                         obs::journal::tag(boards_[1]->host()),
                         obs::journal::tag("corruption"));
      close("heartbeat corruption: " + unsealed.error().message);
      return;
    }
    round_trip += *t;
  }
  // One locked section for the whole probe (both directions counted at
  // once) instead of three separate lock acquisitions per heartbeat.
  {
    std::lock_guard lock(mutex_);
    stats_.heartbeats += 2;
    stats_.last_rtt = round_trip;
    stats_.last_heartbeat_rtt = round_trip;
  }
  ChannelMetrics& metrics = ChannelMetrics::get();
  metrics.heartbeats.inc();
  metrics.heartbeat_rtt_ns.set(round_trip);

  // Continuous authorization: re-validate both proofs at the current time
  // (catches expiry as well as revocations the monitors already flagged).
  for (const End end : {End::kA, End::kB}) {
    const int i = index(end);
    drbac::Repository* repo =
        suites_[index(other(end))].authorizer->repository();
    if (repo == nullptr || proofs_[i].credentials.empty()) continue;
    drbac::Engine engine(repo);
    if (!engine.validate(proofs_[i], now) && !suspended_[i].load()) {
      suspended_[i].store(true);
      obs::journal::emit(obs::journal::Subsystem::kSwitchboard,
                         obs::journal::kSwSuspend,
                         static_cast<std::uint64_t>(i),
                         obs::journal::tag("proof-invalid"));
      std::function<void(End, const std::string&)> listener;
      {
        std::lock_guard lock(mutex_);
        listener = listener_;
      }
      if (listener) listener(end, "proof no longer validates");
    }
  }
}

bool Connection::revalidate(End end) {
  const int i = index(end);
  const AuthorizationSuite& evaluator = suites_[index(other(end))];
  auto proof = evaluator.authorizer->authorize(
      drbac::Principal::of_entity(suites_[i].identity),
      suites_[i].credentials, boards_[0]->clock().now());
  if (!proof.ok()) return false;
  proofs_[i] = std::move(proof).take();
  suspended_[i].store(false);
  ChannelMetrics::get().revalidations.inc();
  obs::journal::emit(obs::journal::Subsystem::kSwitchboard,
                     obs::journal::kSwRevalidate,
                     static_cast<std::uint64_t>(i));
  install_monitor(end);
  std::function<void(End, const std::string&)> listener;
  {
    std::lock_guard lock(mutex_);
    listener = listener_;
  }
  if (listener) listener(end, "revalidated");
  return true;
}

void Connection::close(const std::string& reason) {
  bool was_open = open_.exchange(false);
  if (!was_open) return;
  ChannelMetrics::get().teardowns.inc();
  obs::journal::emit(obs::journal::Subsystem::kSwitchboard,
                     obs::journal::kSwTeardown,
                     obs::journal::tag(boards_[0]->host()),
                     obs::journal::tag(boards_[1]->host()),
                     obs::journal::tag(reason));
  std::lock_guard lock(mutex_);
  close_reason_ = reason;
}

std::string Connection::close_reason() const {
  std::lock_guard lock(mutex_);
  return close_reason_;
}

const drbac::Proof& Connection::proof_of(End end) const {
  return proofs_[end == End::kA ? 0 : 1];
}

bool Connection::suspended(End end) const {
  return suspended_[end == End::kA ? 0 : 1].load();
}

void Connection::set_authorization_listener(
    std::function<void(End, const std::string&)> listener) {
  std::lock_guard lock(mutex_);
  listener_ = std::move(listener);
}

ConnectionStats Connection::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

// ------------------------------------------------------------------- stubs

ChannelStub::ChannelStub(std::shared_ptr<Connection> connection,
                         Connection::End local, std::string service)
    : connection_(std::move(connection)),
      local_(local),
      service_(std::move(service)) {}

Value ChannelStub::call(const std::string& method, std::vector<Value> args) {
  return connection_->call(local_, service_, method, std::move(args));
}

std::string ChannelStub::type_name() const {
  return "switchboard:" + service_;
}

RmiStub::RmiStub(Network* network, std::string from_host, Switchboard* remote,
                 std::string service)
    : network_(network),
      from_host_(std::move(from_host)),
      remote_(remote),
      service_(std::move(service)) {}

Value RmiStub::call(const std::string& method, std::vector<Value> args) {
  // Wire accounting without marshalling: the request size is the value-list
  // count prefix plus the method name and each live argument's encoded size
  // (no throwaway request vector, no cloned args, no encoded buffer).
  // encoded_size throws the same EvalError encode_values would on object
  // arguments, preserving RMI-style serialization failures.
  std::size_t payload_size = 4 + minilang::encoded_size(Value::string(method));
  for (const auto& a : args) payload_size += minilang::encoded_size(a);
  if (!network_->transfer(from_host_, remote_->host(), payload_size)
           .has_value()) {
    throw EvalError("rmi: no route to " + remote_->host());
  }
  auto target = remote_->lookup(service_);
  if (target == nullptr) {
    throw EvalError("rmi: no service '" + service_ + "' on " +
                    remote_->host());
  }
  Value result = target->call(method, std::move(args));
  // Response transfer: size the result for accounting purposes; objects
  // cannot cross (RMI-style serialization failure).
  const std::size_t response_size = minilang::encoded_size(result);
  if (!network_->transfer(remote_->host(), from_host_, response_size)
           .has_value()) {
    throw EvalError("rmi: no route back from " + remote_->host());
  }
  return result;
}

std::string RmiStub::type_name() const { return "rmi:" + service_; }

}  // namespace psf::switchboard
