// Continuous sampling profiler (ISSUE 9 tentpole): logical flamegraphs
// without libunwind.
//
// Each registered thread owns a POSIX per-thread interval timer
// (timer_create with CLOCK_THREAD_CPUTIME_ID + SIGEV_THREAD_ID) that
// delivers SIGPROF to that thread on a CPU-time cadence. The handler — the
// only code that runs in signal context — reads three thread-local
// publication surfaces that were pre-resolved to plain pointers at
// registration time (a signal handler must not touch TLS machinery or
// locks):
//
//   - the span-name stack maintained by obs::ScopedSpan (trace.hpp), giving
//     the logical call path, e.g. switchboard.dispatch > drbac.prove;
//   - the ranked-lock wait slot (util/lock_rank.hpp), naming the site the
//     thread is currently blocked on, if any;
//   - the loop-phase slot published by EventLoop (set_thread_phase), naming
//     which part of the event-loop iteration the thread is in.
//
// The sample is appended to a per-thread seqlock ring (obs/seqlock.hpp) so
// a concurrent report() on another thread folds a consistent snapshot
// without ever blocking the handler. All frame strings are static-storage
// literals, so storing raw pointers in the ring is safe for the life of the
// process.
//
// Because the sampling clock is the thread's CPU clock, profiles attribute
// *CPU time*: a thread parked in poll-wait accrues almost no samples. The
// wall-clock anatomy of the event loop (poll wait vs dispatch vs sojourn
// vs timer slip) is covered by the psf.loop.* histograms instead; the two
// surfaces are complementary (DESIGN.md §4k).
//
// Folded-stack frame vocabulary (root first):
//   thread:<name> ; phase:<loop phase> ; <span names...> ; lock:<site>
// phase: appears only when the thread published a phase, lock: only when
// the sample caught the thread blocked on a ranked mutex.
//
// Non-Linux builds keep the surfaces but cannot arm timers — start()
// returns false, the synchronous sample_current_thread() hook still works.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace psf::obs::profile {

/// Which part of an event-loop iteration a thread is in. Published by
/// EventLoop::run() around each section; kNone outside a loop.
enum class LoopPhase : std::uint8_t {
  kNone = 0,
  kPollWait = 1,
  kFdDispatch = 2,
  kTaskRun = 3,
  kTimerFire = 4,
};

const char* loop_phase_name(LoopPhase phase);

/// Publish the calling thread's current loop phase (one relaxed store).
void set_thread_phase(LoopPhase phase);

/// Span frames captured per sample (deeper stacks are truncated root-first:
/// the outermost frames are kept, and the sample is flagged).
inline constexpr std::size_t kMaxFrames = 12;

struct Options {
  /// Sampling interval in CPU-microseconds per thread. 0 means: take
  /// $PSF_PROFILE_INTERVAL_US, or 997 (a prime, so samplers do not phase-
  /// lock with millisecond-periodic work) when unset.
  std::uint64_t interval_us = 0;
};

/// Register the calling thread for sampling under `name` (shown as the
/// folded-stack root, e.g. "loop.0"). Idempotent; re-registering renames.
/// If the profiler is running the thread's timer is armed immediately.
void register_thread(const char* name);

/// Disarm and delete the calling thread's timer. The thread's ring stays
/// readable by report(). Threads that exit while registered are disarmed
/// automatically via a TLS destructor.
void unregister_thread();

/// Arm every registered thread's timer and arm future registrations.
/// Calling start() while running reconfigures the interval in place.
/// Returns false when no timer could be created (non-Linux).
bool start(Options options = {});

/// Disarm all timers. Rings keep their contents for a post-mortem report().
void stop();

bool running();
std::uint64_t interval_us();

/// Take one sample of the calling thread synchronously, through the same
/// append path as the signal handler — the deterministic hook used by tests
/// and benches. Returns false when the thread is not registered.
bool sample_current_thread();

/// Rewind every thread's sample ring (the cumulative counters keep
/// counting). Used between bench phases.
void clear();

struct ThreadStatus {
  std::string name;
  std::uint64_t samples = 0;    // total ever taken on this thread
  std::uint64_t truncated = 0;  // samples whose span stack overflowed
  std::uint64_t dropped = 0;    // handler re-entry collisions (skipped)
  bool armed = false;
};

struct Report {
  bool running = false;
  std::uint64_t interval_us = 0;
  std::uint64_t samples = 0;  // cumulative, across all threads
  std::uint64_t truncated = 0;
  std::uint64_t dropped = 0;
  struct Entry {
    std::vector<std::string> frames;  // root first; see vocabulary above
    std::uint64_t count = 0;
  };
  std::vector<Entry> entries;  // folded stacks, highest count first
  std::vector<ThreadStatus> threads;
};

/// Fold the current ring contents of every registered thread.
Report report();

/// speedscope.app file-format JSON ("sampled" profile, unit "none": one
/// weight unit per sample).
std::string to_speedscope_json(const Report& report);

}  // namespace psf::obs::profile
