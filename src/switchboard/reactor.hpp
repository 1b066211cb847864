// Reactor: the event-driven Switchboard transport.
//
// A fixed pool of EventLoop workers multiplexes many thousands of secure
// sessions, so high-fanout deployments need no thread per connection:
//
//   Reactor ── owns ──> EventLoop[0..W)          one OS thread each
//                          │  fd poller (epoll/poll) + timer wheel + tasks
//                          └─ EventChannel*      many per worker
//                                │  per-session state machine + buffers
//                                └─ Conduit      non-blocking byte pipe
//
// Sessions are multiplexed over a fully-handshaked trunk `Connection`
// (Connection::derive_session_keys): the DH + signature + authorization
// handshake is paid once per trunk, while every session keeps one set of
// per-direction ChaCha20/HMAC keys and an in-order sequence per direction.
// Sessions and the trunk share one frame codec (channel.hpp: seq8 |
// ciphertext | hmac32); seal and read scratch buffers are per loop thread
// and reused across every channel on that worker.
//
// Wire message: u32_be length | [u64_be session id] | sealed frame, where
// the sealed plaintext is payload | u8 type (HELLO 0, WELCOME 1, DATA 2,
// BYE 3). Only the first message each way (HELLO, WELCOME) carries the
// session id. All four types share the direction's sequence, so no two
// messages reuse a nonce, and a BYE is honoured only once it authenticates
// as the peer's next frame.
//
// Connection state machine (one EventChannel per end):
//
//   kHandshaking ──HELLO/WELCOME──> kEstablished ──begin_drain()──> kDraining
//        │                              │                              │
//        └──────── close_now() ────────┴──── flushed + BYE sent ──────┘
//                                                                      │
//                                                                   kClosed
//
// Batching rules: one readiness dispatch reads the conduit in 16 KiB chunks
// into the loop thread's read scratch and unseals and dispatches complete
// frames straight out of it, until the conduit would block or
// kMaxBatchFrames (128) frames were handled. Responses are sealed into the
// channel's write buffer and flushed with a single write, so a burst of B
// requests costs O(1) syscalls/wakes, not O(B). When the bound cuts a
// dispatch short the channel yields the loop and continues in a fresh
// dispatch; the bytes it already read wait in the channel's own read buffer.
//
// Per-session memory: an idle channel holds no byte buffers. The read
// buffer keeps only a partial frame or frames left over by the batch bound;
// the write buffer keeps a batch's sealed messages until its flush, and
// after it only bytes the conduit refused. Both are freed as soon as they
// drain, and a memory pipe frees its buffer once the reader has drained it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "switchboard/channel.hpp"
#include "switchboard/event_loop.hpp"

namespace psf::switchboard {

// ------------------------------------------------------------------ conduits

/// A non-blocking duplex byte pipe endpoint — the reactor's socket
/// abstraction. Two implementations:
///  - socket conduits wrap a real non-blocking fd (socketpair) and surface
///    readiness through the worker's epoll/poll set;
///  - memory conduits are in-process rings whose readiness is injected into
///    the owning loop via post(), letting a 100k-session ramp run inside one
///    process without 200k file descriptors (the fd-based path is exercised
///    by the unit tests at smaller scale).
class Conduit {
 public:
  virtual ~Conduit() = default;

  /// Read up to `len` bytes. Returns bytes read; 0 means would-block (check
  /// `peer_closed()` to distinguish EOF).
  virtual std::size_t read_some(std::uint8_t* buf, std::size_t len) = 0;

  /// Write up to `len` bytes; returns bytes accepted (may be short when the
  /// transport is backed up — the channel re-arms for writability).
  virtual std::size_t write_some(const std::uint8_t* data,
                                 std::size_t len) = 0;

  /// Half-close: no more writes from this end; the peer sees EOF after
  /// draining buffered bytes.
  virtual void close() = 0;

  /// True once the peer closed and all buffered bytes were consumed.
  virtual bool peer_closed() const = 0;

  /// The pollable fd, or -1 for memory conduits.
  virtual int fd() const { return -1; }

  /// Memory conduits call `fn` (from the writer's thread) whenever bytes
  /// or EOF become available; fd conduits ignore it (epoll covers them).
  virtual void set_data_callback(std::function<void()> fn) { (void)fn; }
};

/// A connected pair of conduits (two ends of one pipe).
struct ConduitPair {
  std::unique_ptr<Conduit> a;
  std::unique_ptr<Conduit> b;
};

/// socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK). Returns empty
/// unique_ptrs when the fd budget is exhausted.
ConduitPair make_socket_conduit_pair();

/// In-process pipe; never blocks. Each direction buffers only the bytes
/// its reader has not yet taken, and frees that buffer once drained.
ConduitPair make_memory_conduit_pair();

// ------------------------------------------------------------- EventChannel

/// FIFO over a vector and a read cursor. Unlike std::deque (which allocates
/// a map and a node even while empty) it allocates nothing until the first
/// push, and frees its storage each time it drains.
template <typename T>
class DrainingFifo {
 public:
  bool empty() const { return head_ == items_.size(); }
  void push(T item) { items_.push_back(std::move(item)); }
  T pop() {
    T item = std::move(items_[head_++]);
    if (head_ == items_.size()) {
      std::vector<T>().swap(items_);
      head_ = 0;
    } else if (head_ >= 64 && 2 * head_ >= items_.size()) {
      // Never empty under steady pipelining: drop the consumed prefix.
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return item;
  }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;
};

/// Per-session connection state machine living on one EventLoop worker.
/// All mutation happens on the loop thread; the public API posts.
class EventChannel : public std::enable_shared_from_this<EventChannel> {
 public:
  enum class State { kHandshaking, kEstablished, kDraining, kClosed };
  enum class Role { kServer, kClient };

  /// Server-side request hook: decode `request_plain`, produce
  /// `response_plain`. Runs on the loop thread; must not block.
  using RequestHandler =
      std::function<void(const util::Bytes& request_plain,
                         util::Bytes& response_plain)>;
  /// Client-side completion: the response plaintext, or an error (transport
  /// teardown, frame corruption). Runs on the loop thread.
  using ResponseCallback = std::function<void(util::Result<util::Bytes>)>;

  struct Stats {
    std::uint64_t frames_in = 0;
    std::uint64_t frames_out = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t batches = 0;      // readiness dispatches that moved data
    std::uint64_t max_batch = 0;    // most frames handled in one dispatch
    // Bytes of read and write buffer capacity the channel holds; 0 while
    // nothing is in flight.
    std::uint64_t buffered_capacity = 0;
  };

  /// Frames one readiness dispatch handles before the channel yields the
  /// loop and continues in a fresh dispatch. Tests pass smaller bounds to
  /// serve()/open() to exercise the continuation.
  static constexpr std::size_t kMaxBatchFrames = 128;

  /// Build the server end. The channel registers with `loop` asynchronously;
  /// it answers the peer's HELLO with WELCOME and then dispatches every DATA
  /// frame through `handler`.
  static std::shared_ptr<EventChannel> serve(
      EventLoop& loop, std::unique_ptr<Conduit> conduit,
      std::shared_ptr<Connection> trunk, RequestHandler handler,
      std::size_t max_batch_frames = kMaxBatchFrames);

  /// Build the client end and start the session handshake. `session_id`
  /// must be unique per trunk. `mailbox` rides in the HELLO so the server
  /// can assert shard placement.
  static std::shared_ptr<EventChannel> open(
      EventLoop& loop, std::unique_ptr<Conduit> conduit,
      std::shared_ptr<Connection> trunk, std::uint64_t session_id,
      std::string mailbox, std::size_t max_batch_frames = kMaxBatchFrames);

  ~EventChannel();

  /// Queue one request (client role). Accepted in kHandshaking (sent once
  /// established) and kEstablished; fails immediately in kDraining/kClosed.
  /// Thread-safe.
  void submit(util::Bytes request_plain, ResponseCallback callback);

  /// Graceful teardown: stop accepting submits, flush buffered frames, send
  /// BYE, then close. Thread-safe.
  void begin_drain();

  /// Hard close (also what BYE and conduit EOF funnel into). Thread-safe.
  void close();

  State state() const { return state_.load(); }
  Role role() const { return role_; }
  std::uint64_t session_id() const { return session_id_; }
  const std::string& mailbox() const { return mailbox_; }
  /// Why the channel closed ("peer eof", "frame mac", ...); "" until
  /// state() reads kClosed.
  std::string close_reason() const;
  Stats stats() const;

  /// Fired on the loop thread when the handshake completes (client only).
  void set_established_callback(std::function<void()> fn);

 private:
  EventChannel(EventLoop& loop, std::unique_ptr<Conduit> conduit,
               std::shared_ptr<Connection> trunk, Role role,
               std::uint64_t session_id, std::string mailbox,
               std::size_t max_batch_frames);

  // Loop-thread internals.
  void register_with_loop();
  class Scratch;  // the loop thread's per-dispatch buffers (reactor.cpp)
  void on_readable();
  void read_and_dispatch(Scratch& scratch, std::size_t& handled);
  std::size_t dispatch_frames(Scratch& scratch, const std::uint8_t* data,
                              std::size_t len, std::size_t& handled);
  std::size_t top_up_partial_frame(const std::uint8_t* data, std::size_t len);
  void note_batch(std::size_t handled);
  void note_buffers();
  bool handle_message(Scratch& scratch, const std::uint8_t* body,
                      std::size_t len);
  void derive_session_keys();
  void send_hello();
  void send_message(std::uint8_t type, const util::Bytes& payload);
  void flush();
  void maybe_finish_drain();
  void fail_pending(const std::string& reason);
  void close_on_loop(const std::string& reason);
  int dir_send() const { return role_ == Role::kClient ? 0 : 1; }
  int dir_recv() const { return role_ == Role::kClient ? 1 : 0; }

  EventLoop& loop_;
  std::unique_ptr<Conduit> conduit_;
  std::shared_ptr<Connection> trunk_;
  const Role role_;
  std::uint64_t session_id_;  // servers learn theirs from the HELLO header
  std::string mailbox_;
  const std::size_t max_batch_frames_;

  SessionCrypto session_;  // seals and opens every message of the session
  std::atomic<State> state_{State::kHandshaking};

  // A partial frame, or whole frames the batch bound left for the next
  // dispatch; empty (no capacity) otherwise.
  util::Bytes read_buf_;
  // Sealed messages the conduit has not yet accepted, from write_pos_ on.
  util::Bytes write_buf_;
  std::size_t write_pos_ = 0;
  std::string close_reason_;  // set once, before state_ turns kClosed
  bool want_write_armed_ = false;
  std::atomic<bool> notify_pending_{false};  // memory-conduit readiness edge

  RequestHandler handler_;                       // server role
  DrainingFifo<ResponseCallback> pending_;       // client role, FIFO matching
  std::vector<std::pair<util::Bytes, ResponseCallback>> queued_submits_;
  std::function<void()> established_callback_;

  // Stats: written on the loop thread, read from anywhere.
  std::atomic<std::uint64_t> frames_in_{0}, frames_out_{0};
  std::atomic<std::uint64_t> bytes_in_{0}, bytes_out_{0};
  std::atomic<std::uint64_t> batches_{0}, max_batch_{0};
  std::atomic<std::uint64_t> buffered_capacity_{0};
};

// ------------------------------------------------------------------ reactor

/// Sizing for a Reactor pool. Each worker loop polls with the platform's
/// default backend (epoll on Linux, poll(2) elsewhere).
struct ReactorOptions {
  int workers = 0;  // 0 = $PSF_LOOP_WORKERS (see worker_count_from_env)
};

/// Most worker loops $PSF_LOOP_WORKERS may ask for: one OS thread each, so
/// a typo such as 100000 must not start that many threads.
inline constexpr int kMaxEnvWorkers = 64;

/// The worker count `env` (the value of $PSF_LOOP_WORKERS, or null) asks
/// for: a whole decimal number in [1, kMaxEnvWorkers]. Anything else —
/// unset, empty, zero, negative, out of range or not a number — yields
/// `fallback`. Pure: reads no environment and starts nothing.
int worker_count_from_env(const char* env, int fallback);

/// Cancellation handle for wheel-scheduled heartbeats; beats() observes
/// progress. Copyable; cancel() is idempotent and thread-safe.
class HeartbeatHandle {
 public:
  HeartbeatHandle() = default;
  void cancel() {
    if (active_) active_->store(false);
  }
  std::uint64_t beats() const { return beats_ ? beats_->load() : 0; }
  bool active() const { return active_ && active_->load(); }

 private:
  friend class Reactor;
  std::shared_ptr<std::atomic<bool>> active_;
  std::shared_ptr<std::atomic<std::uint64_t>> beats_;
  // Owns the self-rescheduling tick closure; the wheel holds only a weak
  // reference, so dropping every handle copy also stops the schedule.
  std::shared_ptr<void> keepalive_;
};

/// The worker pool. One Reactor serves a host (or a whole benchmark
/// process); sessions are placed on workers by mailbox hash so the mail
/// backend stays share-nothing (see mail/sharded.hpp).
class Reactor {
 public:
  explicit Reactor(ReactorOptions options = {});
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  void start();
  void stop();
  bool running() const { return running_.load(); }

  int workers() const { return static_cast<int>(loops_.size()); }
  EventLoop& loop(int worker) { return *loops_[static_cast<std::size_t>(worker)]; }

  /// FNV-1a shard placement: which worker owns `key` (a mailbox name).
  std::size_t shard_of(std::string_view key) const;

  /// Attach a server-end channel to `worker`.
  std::shared_ptr<EventChannel> serve(int worker,
                                      std::unique_ptr<Conduit> conduit,
                                      std::shared_ptr<Connection> trunk,
                                      EventChannel::RequestHandler handler);

  /// Open a client-end session on `worker`.
  std::shared_ptr<EventChannel> open(int worker,
                                     std::unique_ptr<Conduit> conduit,
                                     std::shared_ptr<Connection> trunk,
                                     std::uint64_t session_id,
                                     std::string mailbox);

  /// Drive Connection::heartbeat() from the timer wheel: O(1) threads for
  /// any number of monitored connections. The probe runs on a worker loop;
  /// the schedule ends when the connection closes (the handle turns
  /// inactive), on cancel, or at Reactor::stop. Connections are spread
  /// across workers round-robin.
  HeartbeatHandle schedule_heartbeats(std::shared_ptr<Connection> connection,
                                      std::chrono::milliseconds period);

 private:
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> next_heartbeat_worker_{0};
};

/// Linux: current OS thread count of this process (reads /proc/self/status);
/// -1 where unavailable. The bench's "threads stay O(workers)" gate.
int count_os_threads();

}  // namespace psf::switchboard
