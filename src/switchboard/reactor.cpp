#include "switchboard/reactor.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/bytes.hpp"

#ifdef __linux__
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace psf::switchboard {

namespace {

// Wire message types: the last byte of a message's sealed plaintext.
constexpr std::uint8_t kHello = 0;
constexpr std::uint8_t kWelcome = 1;
constexpr std::uint8_t kData = 2;
constexpr std::uint8_t kBye = 3;

// A frame larger than this is corruption, not load: the mail workloads top
// out in the tens of kilobytes.
constexpr std::size_t kMaxMessage = 16u << 20;

// Bytes one conduit read asks for.
constexpr std::size_t kReadChunk = 16u << 10;

/// Frees `buffer`'s storage, not just its contents.
void release(util::Bytes& buffer) { util::Bytes().swap(buffer); }

/// Body length of the message whose u32_be length prefix starts at `p`.
std::size_t body_length(const std::uint8_t* p) {
  return (std::size_t{p[0]} << 24) | (std::size_t{p[1]} << 16) |
         (std::size_t{p[2]} << 8) | std::size_t{p[3]};
}

struct ReactorMetrics {
  static ReactorMetrics& get() {
    static ReactorMetrics metrics;
    return metrics;
  }
  obs::Counter& sessions_opened =
      obs::counter("psf.switchboard.session.opened");
  obs::Counter& sessions_closed =
      obs::counter("psf.switchboard.session.closed");
  obs::Counter& session_frames =
      obs::counter("psf.switchboard.session.frames");
  obs::Counter& session_bytes = obs::counter("psf.switchboard.session.bytes");
  // Messages that failed to authenticate and were dropped (see
  // handle_message).
  obs::Counter& session_dropped =
      obs::counter("psf.switchboard.session.dropped");
  obs::Histogram& batch_frames =
      obs::histogram("psf.switchboard.loop.batch_frames");
};

}  // namespace

/// The loop thread's dispatch scratch: every channel on the worker reads its
/// conduit into `chunk()`, opens frames into `plain()` and builds answers in
/// `response()`. Dispatch can nest — a callback that opens a channel on the
/// same loop runs register_with_loop, and so on_readable, inline — so each
/// nesting depth leases its own set, and an outer dispatch never has its
/// unparsed bytes or the request its handler is reading overwritten.
class EventChannel::Scratch {
 public:
  Scratch() : depth_(depth()++) {
    auto& sets = pool();
    if (sets.size() == depth_) sets.push_back(std::make_unique<Set>());
    set_ = sets[depth_].get();
  }
  ~Scratch() { --depth(); }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  std::uint8_t* chunk() const { return set_->chunk.get(); }
  util::Bytes& plain() { return set_->plain; }
  util::Bytes& response() { return set_->response; }

 private:
  struct Set {
    std::unique_ptr<std::uint8_t[]> chunk{new std::uint8_t[kReadChunk]};
    util::Bytes plain;
    util::Bytes response;
  };
  static std::size_t& depth() {
    thread_local std::size_t depth = 0;
    return depth;
  }
  static std::vector<std::unique_ptr<Set>>& pool() {
    thread_local std::vector<std::unique_ptr<Set>> sets;
    return sets;
  }

  std::size_t depth_;
  Set* set_;
};

// ------------------------------------------------------------------ conduits

#ifdef __linux__
namespace {

/// One end of a socketpair; non-blocking from birth.
class SocketConduit final : public Conduit {
 public:
  explicit SocketConduit(int fd) : fd_(fd) {}
  ~SocketConduit() override {
    if (fd_ >= 0) ::close(fd_);
  }

  std::size_t read_some(std::uint8_t* buf, std::size_t len) override {
    const ssize_t n = ::recv(fd_, buf, len, 0);
    if (n > 0) return static_cast<std::size_t>(n);
    if (n == 0) {
      peer_closed_ = true;  // orderly shutdown
    } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      peer_closed_ = true;  // hard error: surface as EOF
    }
    return 0;
  }

  std::size_t write_some(const std::uint8_t* data, std::size_t len) override {
    const ssize_t n = ::send(fd_, data, len, MSG_NOSIGNAL);
    if (n > 0) return static_cast<std::size_t>(n);
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      peer_closed_ = true;  // EPIPE et al: the channel tears down on flush
    }
    return 0;
  }

  void close() override { ::shutdown(fd_, SHUT_WR); }
  bool peer_closed() const override { return peer_closed_; }
  int fd() const override { return fd_; }

 private:
  int fd_;
  bool peer_closed_ = false;
};

}  // namespace

ConduitPair make_socket_conduit_pair() {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0,
                   sv) != 0) {
    return {};
  }
  return {std::make_unique<SocketConduit>(sv[0]),
          std::make_unique<SocketConduit>(sv[1])};
}
#else
ConduitPair make_socket_conduit_pair() { return {}; }
#endif

namespace {

/// One direction of an in-process pipe. The reader's data callback is fired
/// by the writer *after* releasing the lock, so readers re-entering
/// read_some from the callback cannot deadlock.
struct MemoryPipe {
  std::mutex mutex;
  util::Bytes buf;
  std::size_t head = 0;
  bool closed = false;
  std::function<void()> on_data;
};

class MemoryConduit final : public Conduit {
 public:
  MemoryConduit(std::shared_ptr<MemoryPipe> in, std::shared_ptr<MemoryPipe> out)
      : in_(std::move(in)), out_(std::move(out)) {}

  ~MemoryConduit() override { MemoryConduit::close(); }

  std::size_t read_some(std::uint8_t* buf, std::size_t len) override {
    std::lock_guard<std::mutex> lock(in_->mutex);
    const std::size_t avail = in_->buf.size() - in_->head;
    const std::size_t n = std::min(len, avail);
    if (n > 0) {
      std::memcpy(buf, in_->buf.data() + in_->head, n);
      in_->head += n;
      if (in_->head == in_->buf.size()) {
        release(in_->buf);
        in_->head = 0;
      } else if (in_->head > (64u << 10)) {
        in_->buf.erase(in_->buf.begin(),
                       in_->buf.begin() + static_cast<std::ptrdiff_t>(in_->head));
        in_->head = 0;
      }
    }
    return n;
  }

  std::size_t write_some(const std::uint8_t* data, std::size_t len) override {
    std::function<void()> notify;
    {
      std::lock_guard<std::mutex> lock(out_->mutex);
      if (out_->closed) return 0;
      out_->buf.insert(out_->buf.end(), data, data + len);
      notify = out_->on_data;
    }
    if (notify) notify();
    return len;
  }

  void close() override {
    std::function<void()> notify;
    {
      std::lock_guard<std::mutex> lock(out_->mutex);
      if (out_->closed) return;
      out_->closed = true;
      notify = out_->on_data;
    }
    if (notify) notify();  // wake the reader so it observes EOF
  }

  bool peer_closed() const override {
    std::lock_guard<std::mutex> lock(in_->mutex);
    return in_->closed && in_->head == in_->buf.size();
  }

  void set_data_callback(std::function<void()> fn) override {
    std::lock_guard<std::mutex> lock(in_->mutex);
    in_->on_data = std::move(fn);
  }

 private:
  std::shared_ptr<MemoryPipe> in_;   // peer writes here, we read
  std::shared_ptr<MemoryPipe> out_;  // we write here, peer reads
};

}  // namespace

ConduitPair make_memory_conduit_pair() {
  auto a_to_b = std::make_shared<MemoryPipe>();
  auto b_to_a = std::make_shared<MemoryPipe>();
  return {std::make_unique<MemoryConduit>(b_to_a, a_to_b),
          std::make_unique<MemoryConduit>(a_to_b, b_to_a)};
}

// ------------------------------------------------------------- EventChannel

EventChannel::EventChannel(EventLoop& loop, std::unique_ptr<Conduit> conduit,
                           std::shared_ptr<Connection> trunk, Role role,
                           std::uint64_t session_id, std::string mailbox,
                           std::size_t max_batch_frames)
    : loop_(loop),
      conduit_(std::move(conduit)),
      trunk_(std::move(trunk)),
      role_(role),
      session_id_(session_id),
      mailbox_(std::move(mailbox)),
      max_batch_frames_(max_batch_frames) {}

EventChannel::~EventChannel() = default;

std::shared_ptr<EventChannel> EventChannel::serve(
    EventLoop& loop, std::unique_ptr<Conduit> conduit,
    std::shared_ptr<Connection> trunk, RequestHandler handler,
    std::size_t max_batch_frames) {
  auto channel = std::shared_ptr<EventChannel>(
      new EventChannel(loop, std::move(conduit), std::move(trunk),
                       Role::kServer, 0, {}, max_batch_frames));
  channel->handler_ = std::move(handler);
  loop.run_on_loop([channel] { channel->register_with_loop(); });
  return channel;
}

std::shared_ptr<EventChannel> EventChannel::open(
    EventLoop& loop, std::unique_ptr<Conduit> conduit,
    std::shared_ptr<Connection> trunk, std::uint64_t session_id,
    std::string mailbox, std::size_t max_batch_frames) {
  auto channel = std::shared_ptr<EventChannel>(new EventChannel(
      loop, std::move(conduit), std::move(trunk), Role::kClient, session_id,
      std::move(mailbox), max_batch_frames));
  loop.run_on_loop([channel] { channel->register_with_loop(); });
  return channel;
}

void EventChannel::register_with_loop() {
  loop_.assert_in_loop();
  ReactorMetrics::get().sessions_opened.inc();
  // Servers learn the session id, and so their keys, from the HELLO.
  if (role_ == Role::kClient) derive_session_keys();
  std::weak_ptr<EventChannel> weak = weak_from_this();
  const int fd = conduit_->fd();
  if (fd >= 0) {
    EventLoop* loop = &loop_;
    loop_.add_fd(fd, /*want_read=*/true, /*want_write=*/false,
                 [weak, fd, loop](bool readable, bool writable, bool error) {
                   auto self = weak.lock();
                   if (!self) {
                     loop->del_fd(fd);  // channel died while registered
                     return;
                   }
                   if (error) {
                     self->close_on_loop("poll error");
                     return;
                   }
                   if (writable) self->flush();
                   if (readable) self->on_readable();
                 });
  } else {
    // Memory conduit: the writer thread injects readiness. The atomic edge
    // coalesces bursts — at most one wake is in flight per channel, so 100k
    // chatty sessions do not flood the task queue.
    conduit_->set_data_callback([weak] {
      auto self = weak.lock();
      if (!self) return;
      if (self->notify_pending_.exchange(true)) return;
      self->loop_.post([weak] {
        auto inner = weak.lock();
        if (!inner) return;
        inner->notify_pending_.store(false);
        inner->on_readable();
      });
    });
  }
  if (role_ == Role::kClient) send_hello();
  // Bytes (or EOF) may have arrived before registration completed.
  on_readable();
}

void EventChannel::derive_session_keys() {
  session_ = SessionCrypto(trunk_->derive_session_keys(session_id_));
}

void EventChannel::send_hello() {
  send_message(kHello, util::to_bytes(mailbox_));
  flush();
}

void EventChannel::send_message(std::uint8_t type, const util::Bytes& payload) {
  // The type is sealed with the payload (payload | type, as TLS 1.3 seals
  // its inner content type), so nobody without the keys can relabel it.
  thread_local util::Bytes inner, frame;
  inner.assign(payload.begin(), payload.end());
  inner.push_back(type);
  session_.seal_into(dir_send(), inner.data(), inner.size(), frame);
  // u32_be length | [u64_be session_id] | sealed frame. Only the first
  // message each way (HELLO, WELCOME) names the session in clear.
  const bool with_session = type == kHello || type == kWelcome;
  const std::size_t body = (with_session ? 8 : 0) + frame.size();
  // The buffer starts empty after every flush: size it once per message
  // rather than growing it field by field.
  const std::size_t needed = write_buf_.size() + 4 + body;
  if (write_buf_.capacity() < needed) {
    write_buf_.reserve(std::max(needed, 2 * write_buf_.capacity()));
  }
  util::put_u32_be(write_buf_, static_cast<std::uint32_t>(body));
  if (with_session) util::put_u64_be(write_buf_, session_id_);
  write_buf_.insert(write_buf_.end(), frame.begin(), frame.end());
  frames_out_.fetch_add(1, std::memory_order_relaxed);
  ReactorMetrics::get().session_frames.inc();
}

void EventChannel::on_readable() {
  loop_.assert_in_loop();
  if (state_.load() == State::kClosed) return;
  std::size_t handled = 0;
  {
    // One span per dispatch batch (not per frame): reads, unseal, parse and
    // handler all run inside it, so sampling profiles attribute event-core
    // CPU to switchboard.dispatch rather than to a bare loop-thread root.
    obs::ScopedSpan span("switchboard.dispatch");
    Scratch scratch;
    read_and_dispatch(scratch, handled);
  }
  note_batch(handled);
  if (state_.load() != State::kClosed) flush();
  if (state_.load() == State::kClosed) {
    release(read_buf_);
  } else if (handled == max_batch_frames_) {
    // The bound cut this dispatch short and frames may wait in read_buf_ or
    // the conduit: yield the loop and continue in a fresh dispatch.
    std::weak_ptr<EventChannel> weak = weak_from_this();
    loop_.post([weak] {
      if (auto self = weak.lock()) self->on_readable();
    });
  } else if (conduit_->peer_closed()) {
    close_on_loop(!read_buf_.empty()                   ? "peer eof mid-frame"
                  : state_.load() == State::kDraining ? "drained"
                                                       : "peer eof");
    release(read_buf_);
  }
  note_buffers();
}

void EventChannel::read_and_dispatch(Scratch& scratch,
                                     std::size_t& handled) {
  // Frames an earlier dispatch left behind go first. Once they are
  // dispatched (and the bound is not hit), read_buf_ holds at most a
  // partial frame.
  if (!read_buf_.empty()) {
    const std::size_t used =
        dispatch_frames(scratch, read_buf_.data(), read_buf_.size(), handled);
    if (state_.load() == State::kClosed) return;
    if (used == read_buf_.size()) {
      release(read_buf_);
    } else if (used > 0) {
      read_buf_.erase(read_buf_.begin(),
                      read_buf_.begin() + static_cast<std::ptrdiff_t>(used));
    }
  }
  while (handled < max_batch_frames_) {
    const std::size_t n = conduit_->read_some(scratch.chunk(), kReadChunk);
    if (n == 0) return;
    bytes_in_.fetch_add(n, std::memory_order_relaxed);
    ReactorMetrics::get().session_bytes.inc(n);
    const std::uint8_t* data = scratch.chunk();
    std::size_t len = n;
    if (!read_buf_.empty()) {
      // Complete the carried partial frame from the front of the chunk.
      const std::size_t taken = top_up_partial_frame(data, len);
      data += taken;
      len -= taken;
      if (dispatch_frames(scratch, read_buf_.data(), read_buf_.size(),
                          handled) == 0) {
        if (state_.load() == State::kClosed) return;
        continue;  // still partial: the whole chunk went into read_buf_
      }
      if (state_.load() == State::kClosed) return;
      release(read_buf_);
    }
    const std::size_t used = dispatch_frames(scratch, data, len, handled);
    if (state_.load() == State::kClosed) return;
    // A partial frame, or frames beyond the bound, wait in read_buf_.
    if (used < len) read_buf_.assign(data + used, data + len);
  }
}

std::size_t EventChannel::dispatch_frames(Scratch& scratch,
                                          const std::uint8_t* data,
                                          std::size_t len,
                                          std::size_t& handled) {
  std::size_t pos = 0;
  while (handled < max_batch_frames_ && len - pos >= 4) {
    const std::size_t body_len = body_length(data + pos);
    if (body_len == 0 || body_len > kMaxMessage) {
      close_on_loop("corrupt length prefix");
      return pos;
    }
    if (len - pos - 4 < body_len) break;
    const std::uint8_t* body = data + pos + 4;
    pos += 4 + body_len;
    ++handled;
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    if (!handle_message(scratch, body, body_len) ||
        state_.load() == State::kClosed) {
      return pos;
    }
  }
  return pos;
}

std::size_t EventChannel::top_up_partial_frame(const std::uint8_t* data,
                                               std::size_t len) {
  std::size_t taken = 0;
  if (read_buf_.size() < 4) {
    taken = std::min(len, 4 - read_buf_.size());
    read_buf_.insert(read_buf_.end(), data, data + taken);
    if (read_buf_.size() < 4) return taken;
  }
  const std::size_t body_len = body_length(read_buf_.data());
  // A corrupt prefix takes nothing more; dispatch_frames rejects it.
  if (body_len == 0 || body_len > kMaxMessage) return taken;
  const std::size_t missing = 4 + body_len - read_buf_.size();
  const std::size_t more = std::min(len - taken, missing);
  read_buf_.insert(read_buf_.end(), data + taken, data + taken + more);
  return taken + more;
}

void EventChannel::note_batch(std::size_t handled) {
  if (handled == 0) return;
  batches_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t prev = max_batch_.load(std::memory_order_relaxed);
  while (handled > prev && !max_batch_.compare_exchange_weak(prev, handled)) {
  }
  ReactorMetrics::get().batch_frames.observe(
      static_cast<std::int64_t>(handled));
}

void EventChannel::note_buffers() {
  buffered_capacity_.store(read_buf_.capacity() + write_buf_.capacity(),
                           std::memory_order_relaxed);
}

bool EventChannel::handle_message(Scratch& scratch, const std::uint8_t* body,
                                  std::size_t len) {
  // A message that does not authenticate under the session's keys was not
  // sealed by the peer (injected, or a genuine frame altered in transit).
  // It is dropped without acting on it, so forged bytes can neither steer
  // nor end the session. A genuine frame lost that way leaves a gap, and
  // the peer's next frame then fails the in-order check.
  auto drop = [] {
    ReactorMetrics::get().session_dropped.inc();
    return true;
  };
  const bool first = state_.load() == State::kHandshaking;
  if (first) {
    // The first message each way (HELLO to a server, WELCOME to a client)
    // opens with the session id in clear; a server derives its keys from it.
    if (len < 8) return drop();
    std::uint64_t sid = 0;
    for (int i = 0; i < 8; ++i) sid = (sid << 8) | body[i];
    body += 8;
    len -= 8;
    if (role_ == Role::kServer) {
      session_id_ = sid;
      derive_session_keys();
    } else if (sid != session_id_) {
      return drop();
    }
  }
  util::Bytes& plain = scratch.plain();
  auto unsealed = session_.unseal_into(dir_recv(), body, len, plain);
  if (!unsealed.ok()) {
    if (unsealed.error().code != "replay") return drop();
    close_on_loop("frame replay");
    return false;
  }
  if (plain.empty()) {
    close_on_loop("unknown message type");
    return false;
  }
  const std::uint8_t type = plain.back();
  plain.pop_back();
  switch (type) {
    case kHello: {
      if (role_ != Role::kServer || !first) {
        close_on_loop("unexpected HELLO");
        return false;
      }
      mailbox_.assign(plain.begin(), plain.end());
      send_message(kWelcome, plain);  // echo the mailbox back, sealed
      state_.store(State::kEstablished);
      return true;
    }
    case kWelcome: {
      if (role_ != Role::kClient || !first) {
        close_on_loop("unexpected WELCOME");
        return false;
      }
      state_.store(State::kEstablished);
      for (auto& [request, callback] : queued_submits_) {
        pending_.push(std::move(callback));
        send_message(kData, request);
      }
      queued_submits_ = {};
      if (established_callback_) established_callback_();
      return true;
    }
    case kData: {
      if (first) {
        close_on_loop("DATA before establishment");
        return false;
      }
      if (role_ == Role::kServer) {
        util::Bytes& response = scratch.response();
        response.clear();
        handler_(plain, response);
        send_message(kData, response);
      } else {
        if (pending_.empty()) {
          close_on_loop("unsolicited response");
          return false;
        }
        ResponseCallback callback = pending_.pop();
        callback(util::Result<util::Bytes>(util::Bytes(plain)));
      }
      return true;
    }
    case kBye:
      close_on_loop("peer bye");
      return false;
    default:
      close_on_loop("unknown message type");
      return false;
  }
}

void EventChannel::submit(util::Bytes request_plain,
                          ResponseCallback callback) {
  auto self = shared_from_this();
  loop_.run_on_loop([self, request = std::move(request_plain),
                     cb = std::move(callback)]() mutable {
    switch (self->state_.load()) {
      case State::kHandshaking:
        self->queued_submits_.emplace_back(std::move(request), std::move(cb));
        break;
      case State::kEstablished:
        self->pending_.push(std::move(cb));
        self->send_message(kData, request);
        self->flush();
        break;
      case State::kDraining:
      case State::kClosed:
        cb(util::Result<util::Bytes>::failure("closed",
                                              "channel is shutting down"));
        break;
    }
  });
}

void EventChannel::begin_drain() {
  auto self = shared_from_this();
  loop_.run_on_loop([self] {
    const State state = self->state_.load();
    if (state == State::kDraining || state == State::kClosed) return;
    if (state == State::kHandshaking) {
      self->close_on_loop("drained before establishment");
      return;
    }
    self->state_.store(State::kDraining);
    self->send_message(kBye, util::to_bytes("bye"));
    self->flush();
    self->maybe_finish_drain();
  });
}

void EventChannel::close() {
  auto self = shared_from_this();
  loop_.run_on_loop([self] { self->close_on_loop("closed by caller"); });
}

void EventChannel::flush() {
  loop_.assert_in_loop();
  if (state_.load() == State::kClosed) return;
  while (write_pos_ < write_buf_.size()) {
    const std::size_t n = conduit_->write_some(write_buf_.data() + write_pos_,
                                               write_buf_.size() - write_pos_);
    if (n == 0) {
      if (conduit_->peer_closed()) {
        close_on_loop("write to closed peer");
        return;
      }
      // Transport backlog: arm writability and resume from the poller.
      if (conduit_->fd() >= 0 && !want_write_armed_) {
        loop_.mod_fd(conduit_->fd(), true, true);
        want_write_armed_ = true;
      }
      note_buffers();
      return;
    }
    write_pos_ += n;
    bytes_out_.fetch_add(n, std::memory_order_relaxed);
    ReactorMetrics::get().session_bytes.inc(n);
  }
  release(write_buf_);
  write_pos_ = 0;
  note_buffers();
  if (want_write_armed_) {
    loop_.mod_fd(conduit_->fd(), true, false);
    want_write_armed_ = false;
  }
  maybe_finish_drain();
}

void EventChannel::maybe_finish_drain() {
  if (state_.load() == State::kDraining && write_pos_ >= write_buf_.size()) {
    close_on_loop("drained");
  }
}

void EventChannel::fail_pending(const std::string& reason) {
  for (auto& [request, callback] : queued_submits_) {
    (void)request;
    callback(util::Result<util::Bytes>::failure("closed", reason));
  }
  queued_submits_ = {};
  while (!pending_.empty()) {
    ResponseCallback callback = pending_.pop();
    callback(util::Result<util::Bytes>::failure("closed", reason));
  }
}

void EventChannel::close_on_loop(const std::string& reason) {
  loop_.assert_in_loop();
  if (state_.load() == State::kClosed) return;
  close_reason_ = reason;
  state_.store(State::kClosed);
  if (conduit_->fd() >= 0) loop_.del_fd(conduit_->fd());
  conduit_->close();
  // read_buf_ may be mid-dispatch here; on_readable frees it on exit.
  release(write_buf_);
  write_pos_ = 0;
  note_buffers();
  fail_pending(reason);
  ReactorMetrics::get().sessions_closed.inc();
}

EventChannel::Stats EventChannel::stats() const {
  Stats stats;
  stats.frames_in = frames_in_.load(std::memory_order_relaxed);
  stats.frames_out = frames_out_.load(std::memory_order_relaxed);
  stats.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  stats.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.max_batch = max_batch_.load(std::memory_order_relaxed);
  stats.buffered_capacity = buffered_capacity_.load(std::memory_order_relaxed);
  return stats;
}

std::string EventChannel::close_reason() const {
  return state_.load() == State::kClosed ? close_reason_ : std::string();
}

void EventChannel::set_established_callback(std::function<void()> fn) {
  auto self = shared_from_this();
  loop_.run_on_loop([self, fn = std::move(fn)]() mutable {
    if (self->state_.load() == State::kEstablished) {
      fn();
    } else {
      self->established_callback_ = std::move(fn);
    }
  });
}

// ------------------------------------------------------------------ reactor

int worker_count_from_env(const char* env, int fallback) {
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || errno != 0 || parsed < 1 ||
      parsed > kMaxEnvWorkers) {
    return fallback;
  }
  return static_cast<int>(parsed);
}

Reactor::Reactor(ReactorOptions options) {
  int workers = options.workers;
  if (workers <= 0) {
    const unsigned hc = std::thread::hardware_concurrency();
    workers = worker_count_from_env(
        std::getenv("PSF_LOOP_WORKERS"),
        static_cast<int>(std::min(4u, std::max(2u, hc))));
  }
  loops_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    loops_.push_back(std::make_unique<EventLoop>());
    // Number the pool: loop i exports psf.loop.<i>.* gauges and shows up in
    // profiles as "loop.<i>".
    loops_.back()->set_worker_index(i);
  }
}

Reactor::~Reactor() { stop(); }

void Reactor::start() {
  if (running_.exchange(true)) return;
  for (auto& loop : loops_) loop->start();
}

void Reactor::stop() {
  if (!running_.exchange(false)) return;
  for (auto& loop : loops_) loop->stop();
}

std::size_t Reactor::shard_of(std::string_view key) const {
  // FNV-1a 64: stable across runs, so a mailbox always lands on one worker.
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : key) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return static_cast<std::size_t>(hash % loops_.size());
}

std::shared_ptr<EventChannel> Reactor::serve(
    int worker, std::unique_ptr<Conduit> conduit,
    std::shared_ptr<Connection> trunk, EventChannel::RequestHandler handler) {
  return EventChannel::serve(loop(worker), std::move(conduit),
                             std::move(trunk), std::move(handler));
}

std::shared_ptr<EventChannel> Reactor::open(int worker,
                                            std::unique_ptr<Conduit> conduit,
                                            std::shared_ptr<Connection> trunk,
                                            std::uint64_t session_id,
                                            std::string mailbox) {
  return EventChannel::open(loop(worker), std::move(conduit), std::move(trunk),
                            session_id, std::move(mailbox));
}

HeartbeatHandle Reactor::schedule_heartbeats(
    std::shared_ptr<Connection> connection, std::chrono::milliseconds period) {
  HeartbeatHandle handle;
  handle.active_ = std::make_shared<std::atomic<bool>>(true);
  handle.beats_ = std::make_shared<std::atomic<std::uint64_t>>(0);

  const std::size_t worker =
      next_heartbeat_worker_.fetch_add(1) % loops_.size();
  EventLoop* loop = loops_[worker].get();
  const auto period_ns =
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(period)
              .count());

  // Self-rescheduling wheel tick. The wheel holds only weak references to
  // the closure: dropping every HeartbeatHandle (or cancel()) stops the
  // schedule, and the Connection is held weakly so monitoring never extends
  // its lifetime.
  auto tick = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_tick = tick;
  std::weak_ptr<Connection> weak_connection = connection;
  *tick = [loop, period_ns, weak_tick, weak_connection,
           active = handle.active_, beats = handle.beats_] {
    if (!active->load()) return;
    auto conn = weak_connection.lock();
    if (conn && conn->open()) {
      conn->heartbeat();
      beats->fetch_add(1);
    }
    if (!conn || !conn->open()) {  // gone, or this probe found it dead
      active->store(false);
      return;
    }
    loop->schedule(period_ns, [weak_tick] {
      if (auto self = weak_tick.lock()) (*self)();
    });
  };
  handle.keepalive_ = tick;
  loop->run_on_loop([loop, period_ns, weak_tick] {
    loop->schedule(period_ns, [weak_tick] {
      if (auto self = weak_tick.lock()) (*self)();
    });
  });
  return handle;
}

int count_os_threads() {
#ifdef __linux__
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<int>(std::strtol(line.c_str() + 8, nullptr, 10));
    }
  }
#endif
  return -1;
}

}  // namespace psf::switchboard
