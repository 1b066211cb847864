#include "obs/profile.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <utility>

#ifdef __linux__
#include <csignal>
#include <ctime>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "obs/seqlock.hpp"
#include "obs/trace.hpp"
#include "util/bytes.hpp"
#include "util/lock_rank.hpp"

namespace psf::obs::profile {

const char* loop_phase_name(LoopPhase phase) {
  switch (phase) {
    case LoopPhase::kNone:
      return "none";
    case LoopPhase::kPollWait:
      return "poll_wait";
    case LoopPhase::kFdDispatch:
      return "fd_dispatch";
    case LoopPhase::kTaskRun:
      return "task_run";
    case LoopPhase::kTimerFire:
      return "timer_fire";
  }
  return "unknown";
}

namespace {

// ----------------------------------------------------------- sample rings
//
// Per-thread single-writer seqlock ring (obs/seqlock.hpp), so a concurrent
// report() skips torn and stale samples without blocking the writer. The
// writer is the owning thread (its signal handler, or the synchronous test
// hook); signals on one thread are serialized and an `appending` flag drops
// the one pathological interleaving (SIGPROF landing inside a synchronous
// sample) instead of corrupting the slot.

constexpr std::size_t kRingCapacity = 2048;  // samples per thread

// Sample layout, in 64-bit words: [0] steady time ns, [1] packed
// depth|phase|truncated, [2] lock-site pointer, [3..3+kMaxFrames) span-name
// pointers (outermost first).
using SampleRing = seqlock::Ring<3 + kMaxFrames>;
static_assert(sizeof(seqlock::Slot<3 + kMaxFrames>) == 128,
              "a profiler slot is fifteen sample words plus its generation");

constexpr std::uint64_t pack_meta(std::uint32_t depth, std::uint8_t phase,
                                  bool truncated) {
  return static_cast<std::uint64_t>(depth) |
         (static_cast<std::uint64_t>(phase) << 8) |
         (static_cast<std::uint64_t>(truncated ? 1 : 0) << 16);
}

std::atomic<std::uint8_t>& phase_slot() {
  thread_local std::atomic<std::uint8_t> slot{0};
  return slot;
}

struct ThreadState {
  // Publication surfaces, resolved by the owning thread at registration so
  // the signal handler never touches TLS machinery.
  obs::detail::SpanNameStack* spans = nullptr;
  util::contention::detail::WaitSlot* lock = nullptr;
  std::atomic<std::uint8_t>* phase = nullptr;

  std::string name;  // written/read under the registry mutex
#ifdef __linux__
  pid_t tid = 0;  // 0 = thread exited; guarded by the control mutex
  timer_t timer{};
#endif
  bool timer_created = false;  // guarded by the control mutex

  std::atomic<bool> armed{false};
  std::atomic<bool> appending{false};
  std::atomic<std::uint64_t> samples{0};
  std::atomic<std::uint64_t> truncated{0};
  std::atomic<std::uint64_t> dropped{0};

  SampleRing ring{kRingCapacity};
};

struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadState>> states;

  static Registry& get() {
    static Registry* registry = new Registry();  // never destroyed
    return *registry;
  }
};

// Serializes start/stop/reconfigure, arming, and timer lifetime. Lock
// order: control.mutex before Registry.mutex, never the reverse.
struct Control {
  std::mutex mutex;
  std::atomic<bool> running{false};
  std::atomic<std::uint64_t> interval_us{0};

  static Control& get() {
    static Control* control = new Control();  // never destroyed
    return *control;
  }
};

std::int64_t steady_now_ns() {
#ifdef __linux__
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
#else
  return 0;
#endif
}

// The one function shared by signal and synchronous contexts. Only
// async-signal-safe operations: relaxed/fenced atomics on lock-free types,
// clock_gettime, plain loads of pointers resolved at registration, and the
// seqlock ring's append.
void take_sample(ThreadState& st) {
  if (st.appending.exchange(true, std::memory_order_relaxed)) {
    // A SIGPROF landed inside a synchronous sample on the same thread;
    // dropping it is the only slot-safe choice for a single-writer ring.
    st.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::int64_t t_ns = steady_now_ns();

  std::uint32_t depth = st.spans->depth.load(std::memory_order_relaxed);
  std::atomic_signal_fence(std::memory_order_acquire);
  bool truncated = false;
  if (depth > kMaxFrames) {
    truncated = true;
    depth = static_cast<std::uint32_t>(
        std::min(kMaxFrames, obs::detail::kSpanStackDepth));
  }
  SampleRing::Record sample{};
  sample[0] = static_cast<std::uint64_t>(t_ns);
  sample[1] = pack_meta(depth, st.phase->load(std::memory_order_relaxed),
                        truncated);
  sample[2] = reinterpret_cast<std::uintptr_t>(
      st.lock->site.load(std::memory_order_relaxed));
  for (std::uint32_t i = 0; i < depth; ++i) {
    sample[3 + i] = reinterpret_cast<std::uintptr_t>(st.spans->names[i]);
  }
  st.ring.append(sample);

  st.samples.fetch_add(1, std::memory_order_relaxed);
  if (truncated) st.truncated.fetch_add(1, std::memory_order_relaxed);
  st.appending.store(false, std::memory_order_relaxed);
}

// --------------------------------------------------------- signal plumbing

#ifdef __linux__

#ifndef SIGEV_THREAD_ID
#define SIGEV_THREAD_ID 4
#endif
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

// The handler identifies its ThreadState through the timer's sigev value —
// no TLS, no globals beyond errno preservation. It stays installed for the
// life of the process (states are never freed), so a late signal after
// stop() just sees armed == false and returns.
void on_sigprof(int /*signo*/, siginfo_t* info, void* /*ucontext*/) {
  if (info == nullptr) return;
  auto* st = static_cast<ThreadState*>(info->si_value.sival_ptr);
  if (st == nullptr || !st->armed.load(std::memory_order_relaxed)) return;
  const int saved_errno = errno;
  take_sample(*st);
  errno = saved_errno;
}

bool install_handler() {
  static const bool ok = [] {
    struct sigaction sa{};
    sa.sa_sigaction = &on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    return sigaction(SIGPROF, &sa, nullptr) == 0;
  }();
  return ok;
}

#endif  // __linux__

// Callers hold the control mutex.
bool arm(ThreadState& st, std::uint64_t us) {
#ifdef __linux__
  if (st.tid == 0) return false;  // thread already exited
  if (!install_handler()) return false;
  if (!st.timer_created) {
    sigevent sev{};
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGPROF;
    sev.sigev_value.sival_ptr = &st;
    sev.sigev_notify_thread_id = st.tid;
    if (timer_create(CLOCK_THREAD_CPUTIME_ID, &sev, &st.timer) != 0) {
      return false;
    }
    st.timer_created = true;
  }
  itimerspec spec{};
  spec.it_interval.tv_sec = static_cast<time_t>(us / 1'000'000);
  spec.it_interval.tv_nsec = static_cast<long>((us % 1'000'000) * 1000);
  spec.it_value = spec.it_interval;
  st.armed.store(true, std::memory_order_release);
  if (timer_settime(st.timer, 0, &spec, nullptr) != 0) {
    st.armed.store(false, std::memory_order_relaxed);
    return false;
  }
  return true;
#else
  (void)st;
  (void)us;
  return false;
#endif
}

// Callers hold the control mutex.
void disarm(ThreadState& st) {
  st.armed.store(false, std::memory_order_relaxed);
#ifdef __linux__
  if (st.timer_created) {
    itimerspec zero{};
    timer_settime(st.timer, 0, &zero, nullptr);
  }
#endif
}

// Callers hold the control mutex.
void retire(ThreadState& st) {
  disarm(st);
#ifdef __linux__
  if (st.timer_created) {
    timer_delete(st.timer);
    st.timer_created = false;
  }
  st.tid = 0;
#endif
}

// TLS anchor: keeps the state alive for this thread and retires the timer
// when the thread exits without calling unregister_thread(). The registry
// keeps the state (and its ring) readable afterwards.
struct StateHandle {
  std::shared_ptr<ThreadState> state;
  ~StateHandle() {
    if (!state) return;
    std::lock_guard<std::mutex> lock(Control::get().mutex);
    retire(*state);
  }
};

StateHandle& state_handle() {
  thread_local StateHandle handle;
  return handle;
}

std::uint64_t resolve_interval_us(std::uint64_t requested) {
  std::uint64_t us = requested;
  if (us == 0) {
    if (const char* env = std::getenv("PSF_PROFILE_INTERVAL_US")) {
      us = std::strtoull(env, nullptr, 10);
    }
  }
  if (us == 0) us = 997;
  return std::clamp<std::uint64_t>(us, 50, 10'000'000);
}

}  // namespace

void set_thread_phase(LoopPhase phase) {
  phase_slot().store(static_cast<std::uint8_t>(phase),
                     std::memory_order_relaxed);
}

void register_thread(const char* name) {
  StateHandle& handle = state_handle();
  Control& control = Control::get();
  Registry& registry = Registry::get();
  if (!handle.state) {
    auto created = std::make_shared<ThreadState>();
    created->spans = &obs::detail::span_name_stack();
    created->lock = &util::contention::thread_wait_slot();
    created->phase = &phase_slot();
#ifdef __linux__
    created->tid = static_cast<pid_t>(::syscall(SYS_gettid));
#endif
    handle.state = created;
    std::lock_guard<std::mutex> lock(registry.mutex);
    registry.states.push_back(created);
  }
  {
    std::lock_guard<std::mutex> lock(registry.mutex);
    handle.state->name = (name != nullptr && *name != '\0') ? name : "thread";
  }
  std::lock_guard<std::mutex> lock(control.mutex);
  if (control.running.load(std::memory_order_relaxed)) {
    arm(*handle.state,
        control.interval_us.load(std::memory_order_relaxed));
  }
}

void unregister_thread() {
  StateHandle& handle = state_handle();
  if (!handle.state) return;
  std::lock_guard<std::mutex> lock(Control::get().mutex);
  retire(*handle.state);
}

bool start(Options options) {
  Control& control = Control::get();
  std::lock_guard<std::mutex> lock(control.mutex);
  const std::uint64_t us = resolve_interval_us(options.interval_us);
  control.interval_us.store(us, std::memory_order_relaxed);
#ifdef __linux__
  Registry& registry = Registry::get();
  std::lock_guard<std::mutex> rlock(registry.mutex);
  for (const auto& st : registry.states) arm(*st, us);
  control.running.store(true, std::memory_order_relaxed);
  return true;
#else
  return false;
#endif
}

void stop() {
  Control& control = Control::get();
  std::lock_guard<std::mutex> lock(control.mutex);
  control.running.store(false, std::memory_order_relaxed);
  Registry& registry = Registry::get();
  std::lock_guard<std::mutex> rlock(registry.mutex);
  for (const auto& st : registry.states) disarm(*st);
}

bool running() {
  return Control::get().running.load(std::memory_order_relaxed);
}

std::uint64_t interval_us() {
  return Control::get().interval_us.load(std::memory_order_relaxed);
}

bool sample_current_thread() {
  StateHandle& handle = state_handle();
  if (!handle.state) return false;
  take_sample(*handle.state);
  return true;
}

void clear() {
  Registry& registry = Registry::get();
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (const auto& st : registry.states) st->ring.rewind();
}

Report report() {
  Report out;
  Control& control = Control::get();
  out.running = control.running.load(std::memory_order_relaxed);
  out.interval_us = control.interval_us.load(std::memory_order_relaxed);

  struct Folded {
    std::vector<std::string> frames;
    std::uint64_t count = 0;
  };
  std::map<std::string, Folded> folded;

  Registry& registry = Registry::get();
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (const auto& st : registry.states) {
    ThreadStatus status;
    status.name = st->name;
    status.samples = st->samples.load(std::memory_order_relaxed);
    status.truncated = st->truncated.load(std::memory_order_relaxed);
    status.dropped = st->dropped.load(std::memory_order_relaxed);
    status.armed = st->armed.load(std::memory_order_relaxed);
    out.samples += status.samples;
    out.truncated += status.truncated;
    out.dropped += status.dropped;

    st->ring.for_each([&](const SampleRing::Record& words) {
      const std::uint32_t depth =
          static_cast<std::uint32_t>(words[1] & 0xff);
      const auto phase = static_cast<std::uint8_t>((words[1] >> 8) & 0xff);
      std::vector<std::string> frames;
      frames.reserve(3 + depth);
      frames.push_back("thread:" + status.name);
      if (phase != 0) {
        frames.push_back(
            std::string("phase:") +
            loop_phase_name(static_cast<LoopPhase>(phase)));
      }
      for (std::uint32_t f = 0; f < depth && f < kMaxFrames; ++f) {
        const char* frame =
            reinterpret_cast<const char*>(static_cast<std::uintptr_t>(
                words[3 + f]));
        if (frame != nullptr) frames.emplace_back(frame);
      }
      if (const char* site = reinterpret_cast<const char*>(
              static_cast<std::uintptr_t>(words[2]))) {
        frames.push_back(std::string("lock:") + site);
      }
      std::string key;
      for (const auto& frame : frames) {
        if (!key.empty()) key += ';';
        key += frame;
      }
      Folded& entry = folded[key];
      if (entry.count == 0) entry.frames = std::move(frames);
      ++entry.count;
    });
    out.threads.push_back(std::move(status));
  }

  out.entries.reserve(folded.size());
  for (auto& [key, entry] : folded) {
    (void)key;
    out.entries.push_back({std::move(entry.frames), entry.count});
  }
  std::sort(out.entries.begin(), out.entries.end(),
            [](const Report::Entry& a, const Report::Entry& b) {
              return a.count > b.count;
            });
  return out;
}

// ------------------------------------------------------------- formatting

std::string to_speedscope_json(const Report& report) {
  // One shared frame table; each folded entry becomes `count` identical
  // samples of weight 1 — speedscope's "sampled" profile type.
  std::map<std::string, std::size_t> frame_index;
  std::vector<std::string> frame_names;
  for (const auto& entry : report.entries) {
    for (const auto& frame : entry.frames) {
      if (frame_index.emplace(frame, frame_names.size()).second) {
        frame_names.push_back(frame);
      }
    }
  }
  std::ostringstream out;
  out << "{\"$schema\":\"https://www.speedscope.app/file-format-schema.json\","
      << "\"name\":\"psf logical cpu profile\","
      << "\"exporter\":\"psf::obs::profile\","
      << "\"activeProfileIndex\":0,"
      << "\"shared\":{\"frames\":[";
  for (std::size_t i = 0; i < frame_names.size(); ++i) {
    if (i > 0) out << ',';
    out << "{\"name\":\"" << util::json_escape(frame_names[i]) << "\"}";
  }
  out << "]},\"profiles\":[{\"type\":\"sampled\","
      << "\"name\":\"cpu (logical spans)\",\"unit\":\"none\","
      << "\"startValue\":0,";
  std::uint64_t total = 0;
  for (const auto& entry : report.entries) total += entry.count;
  out << "\"endValue\":" << total << ",\"samples\":[";
  for (std::size_t i = 0; i < report.entries.size(); ++i) {
    if (i > 0) out << ',';
    out << '[';
    const auto& frames = report.entries[i].frames;
    for (std::size_t f = 0; f < frames.size(); ++f) {
      if (f > 0) out << ',';
      out << frame_index[frames[f]];
    }
    out << ']';
  }
  out << "],\"weights\":[";
  for (std::size_t i = 0; i < report.entries.size(); ++i) {
    if (i > 0) out << ',';
    out << report.entries[i].count;
  }
  out << "]}]}";
  return out.str();
}

}  // namespace psf::obs::profile
