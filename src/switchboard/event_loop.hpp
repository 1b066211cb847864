// Readiness-driven I/O core for the Switchboard (ISSUE 7 tentpole).
//
// One `EventLoop` is one worker thread multiplexing many connections: an OS
// readiness poller (epoll on Linux, poll(2) everywhere as a fallback), a
// hashed timer wheel that absorbs heartbeat and retry scheduling, and an
// MPSC task queue for cross-thread work submission. A fixed pool of these
// loops (see reactor.hpp) replaces the thread-per-connection transport: OS
// thread count stays O(workers) while connection count grows O(100k).
//
// Threading model
//  - Everything except `post()`, `stop()`, and the stats accessors must run
//    on the loop thread (`assert_in_loop()` enforces this in debug builds).
//  - `post(fn)` is the only cross-thread entry point: it enqueues under a
//    plain leaf mutex that is never held while user code runs, then wakes
//    the poller through an eventfd (pipe on non-Linux). Posted tasks run on
//    the loop thread in submission order.
//  - Timer callbacks and fd handlers therefore never race each other: the
//    loop thread is the single writer for all connection state it owns.
//
// Lock-rank interaction: the task-queue mutex is a leaf — acquired only for
// queue push/swap, with no ranked mutex held and none acquired under it, so
// it needs no rank of its own. Handlers running on the loop are free to take
// ranked locks (e.g. Connection rank 20 inside trunk unseal) exactly as they
// would on a dedicated thread. The journal's lock-free emit path is safe
// from any loop callback.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <thread>
#include <vector>

namespace psf::switchboard {

/// Which OS readiness primitive backs a Poller. `kEpoll` is the default on
/// Linux; `kPoll` is the portable fallback, and tests run it on Linux too.
enum class PollerKind { kEpoll, kPoll };

#ifdef __linux__
inline constexpr PollerKind kDefaultPoller = PollerKind::kEpoll;
#else
inline constexpr PollerKind kDefaultPoller = PollerKind::kPoll;
#endif

/// True when this build can service `kind` (epoll is Linux-only).
bool poller_available(PollerKind kind);

/// One readiness report from Poller::wait.
struct PollerEvent {
  std::uint64_t token = 0;
  bool readable = false;
  bool writable = false;
  bool error = false;  // HUP / ERR — the handler should tear down
};

/// Minimal readiness-poller interface over a set of registered fds. Not
/// thread-safe; owned and driven by one EventLoop.
class Poller {
 public:
  virtual ~Poller() = default;

  /// Register `fd` under `token`. Level-triggered: as long as the condition
  /// holds the fd is reported on every wait().
  virtual bool add(int fd, std::uint64_t token, bool want_read,
                   bool want_write) = 0;
  /// Change the interest set of a registered fd.
  virtual bool mod(int fd, std::uint64_t token, bool want_read,
                   bool want_write) = 0;
  virtual bool del(int fd) = 0;

  /// Block up to `timeout_ms` (-1 = forever, 0 = poll) and append ready fds
  /// to `out`. Returns the number of events appended (0 on timeout).
  virtual int wait(int timeout_ms, std::vector<PollerEvent>& out) = 0;

  virtual PollerKind kind() const = 0;

  /// Factory; falls back to poll(2) when `kind` is unavailable.
  static std::unique_ptr<Poller> create(PollerKind kind);
};

/// Hashed timer wheel: O(1) schedule/cancel, expiry processed in deadline
/// order within one advance(). Resolution is one tick (default 1 ms) — ample
/// for heartbeat periods measured in seconds, and two orders of magnitude
/// cheaper than a std::priority_queue re-heap per armed connection when
/// 100k sessions each keep a liveness timer armed.
///
/// Single-threaded: all methods must be called from the owning loop thread.
class TimerWheel {
 public:
  using TimerId = std::uint64_t;

  explicit TimerWheel(std::uint64_t tick_ns = 1'000'000,  // 1 ms
                      std::size_t slots = 256);

  /// Arm `fn` to fire `delay_ns` from `now_ns`. Returns a cancellation id.
  TimerId schedule(std::uint64_t now_ns, std::uint64_t delay_ns,
                   std::function<void()> fn);

  /// Disarm. Returns false when the timer already fired or never existed.
  bool cancel(TimerId id);

  /// Fire everything due at `now_ns`, in (deadline, id) order. Returns the
  /// number fired. Callbacks may re-schedule (periodic timers reschedule
  /// themselves); re-armed timers due in the same advance() still wait for
  /// the next one — the wheel never spins in place.
  std::size_t advance(std::uint64_t now_ns);

  /// Nanoseconds until the nearest armed deadline (nullopt = nothing armed).
  /// The loop uses this to bound its poll timeout. O(1) amortized: deadlines
  /// are tracked in a lazy min-heap (cancelled timers leave stale heap
  /// entries behind, which at worst cause one early wakeup each — never a
  /// late fire).
  std::optional<std::uint64_t> next_delay(std::uint64_t now_ns);

  std::size_t armed() const { return armed_; }
  std::uint64_t fired() const { return fired_; }

 private:
  struct Entry {
    TimerId id;
    std::uint64_t deadline_ns;
    std::function<void()> fn;
  };

  std::size_t slot_of(std::uint64_t deadline_ns) const {
    return static_cast<std::size_t>((deadline_ns / tick_ns_) % slots_.size());
  }

  std::uint64_t tick_ns_;
  std::vector<std::vector<Entry>> slots_;
  // Lazy deadline min-heap backing next_delay(); may hold entries for
  // timers that were cancelled or already fired (popped on sight).
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      deadlines_;
  std::uint64_t last_tick_ = 0;  // last fully-processed tick index
  TimerId next_id_ = 1;
  std::size_t armed_ = 0;
  std::uint64_t fired_ = 0;
};

/// One worker: a thread running poll → dispatch fd handlers → drain posted
/// tasks → advance the timer wheel, until stop().
class EventLoop {
 public:
  /// Callback for fd readiness. `readable`/`writable` report the level;
  /// `error` means HUP/ERR and the handler should begin teardown.
  using FdHandler = std::function<void(bool readable, bool writable,
                                       bool error)>;

  struct Stats {
    std::uint64_t iterations = 0;
    std::uint64_t wakeups = 0;        // eventfd pokes from post()
    std::uint64_t tasks_run = 0;
    std::uint64_t timers_fired = 0;
    std::uint64_t fd_dispatches = 0;
  };

  /// Give this loop a stable worker index (the Reactor numbers its pool).
  /// An indexed loop exports its Stats as psf.loop.<n>.* gauges each
  /// iteration and registers with the sampling profiler as "loop.<n>";
  /// unindexed loops (tests, ad-hoc) register as "loop" and export no
  /// per-worker gauges. Call before start().
  void set_worker_index(int index) { worker_index_ = index; }
  int worker_index() const { return worker_index_; }

  /// The timer wheel ticks every 1 ms.
  explicit EventLoop(PollerKind kind = kDefaultPoller);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Spawn the loop thread. Idempotent.
  void start();

  /// Ask the loop to exit after the current iteration and join the thread.
  /// Pending posted tasks are drained before exit; armed timers are dropped.
  void stop();

  /// Thread-safe: enqueue `fn` to run on the loop thread. The only EventLoop
  /// entry point other threads may call while the loop runs.
  void post(std::function<void()> fn);

  /// Run `fn` inline when already on the loop thread, otherwise post it.
  void run_on_loop(std::function<void()> fn);

  // --- loop-thread-only API ---

  /// Register `fd`; the handler fires on readiness. Returns false when the
  /// poller rejects the fd. Loop thread only.
  bool add_fd(int fd, bool want_read, bool want_write, FdHandler handler);
  bool mod_fd(int fd, bool want_read, bool want_write);
  bool del_fd(int fd);

  /// Arm a one-shot timer on the wheel. Loop thread only; cross-thread
  /// callers wrap in post().
  TimerWheel::TimerId schedule(std::uint64_t delay_ns,
                               std::function<void()> fn);
  bool cancel_timer(TimerWheel::TimerId id);

  bool in_loop_thread() const {
    return std::this_thread::get_id() == thread_id_.load();
  }
  void assert_in_loop() const { assert(in_loop_thread()); }

  bool running() const { return running_.load(); }
  PollerKind poller_kind() const { return poller_->kind(); }

  /// Monotonic nanoseconds (steady clock) — the wheel's time base.
  static std::uint64_t now_ns();

  Stats stats() const;

 private:
  void run();
  std::size_t drain_tasks();
  void wake();

  std::unique_ptr<Poller> poller_;
  TimerWheel wheel_;

  int wake_fd_ = -1;       // eventfd (or pipe read end)
  int wake_fd_write_ = -1; // == wake_fd_ for eventfd; pipe write end otherwise

  struct FdEntry {
    int fd;
    FdHandler handler;
  };
  std::map<std::uint64_t, FdEntry> fds_;  // token -> entry
  std::map<int, std::uint64_t> fd_tokens_;
  std::uint64_t next_token_ = 1;  // 0 is reserved for the wake fd

  // Leaf mutex: guards only the pending-task vector; never held while a
  // task, fd handler, or timer callback runs. Each task carries its post
  // timestamp so drain_tasks() can observe queue sojourn (post→run) into
  // psf.loop.task_sojourn_us — the latency-anatomy signal behind the
  // loop.lag SLO.
  struct PostedTask {
    std::function<void()> fn;
    std::uint64_t post_ns;
  };
  std::mutex tasks_mutex_;
  std::vector<PostedTask> tasks_;

  int worker_index_ = -1;

  std::thread thread_;
  std::atomic<std::thread::id> thread_id_{};
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  // Stats are written by the loop thread, read from anywhere.
  std::atomic<std::uint64_t> iterations_{0};
  std::atomic<std::uint64_t> wakeups_{0};
  std::atomic<std::uint64_t> tasks_run_{0};
  std::atomic<std::uint64_t> timers_fired_{0};
  std::atomic<std::uint64_t> fd_dispatches_{0};
};

}  // namespace psf::switchboard
