// Debug-only lock-rank enforcement (DESIGN.md §4g). Every cross-thread
// mutex that participates in the framework's locking discipline is wrapped
// in a RankedMutex carrying a LockRank. A thread may only acquire a mutex
// whose rank is STRICTLY greater than every rank it already holds —
// acquiring equal-or-lower catches both lock-order inversions (the ABBA
// deadlock shape) and double-acquisition of same-rank peers, at the moment
// the bad acquisition happens rather than on the unlucky schedule where two
// threads interleave.
//
// The codebase's discipline is deliberately flat: subsystem locks are not
// held across calls into other subsystems (Repository::revoke collects its
// subscribers under the lock and notifies after releasing; Guard drops its
// cache lock before proving). The rank table encodes the one direction that
// WOULD be legal if nesting ever becomes necessary, so a future change that
// nests the other way fails loudly in Debug.
//
// Cost model: in Debug (and whenever PSF_LOCK_RANK is defined explicitly,
// e.g. for the lock_rank_test target in release CI) each lock/unlock does a
// thread-local vector push/pop. With NDEBUG and no PSF_LOCK_RANK the
// wrapper keeps no rank state, so release builds pay only the try_lock
// described below.
//
// Obs-layer mutexes (metrics shards, journal ring registry, health) are
// intentionally unranked: they are leaf locks acquired from everywhere,
// including inside ranked critical sections, and never call out.
//
// Lock waits are visible to the sampling profiler (obs/profile) in BOTH
// build flavors: lock() first try_locks, and only when that fails (the lock
// is actually contended) does it publish the site in the thread's WaitSlot
// for the duration of the blocking acquire, so a sample taken while blocked
// ends in a `lock:<site>` frame. The uncontended path pays one try_lock.
#pragma once

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <vector>

#if !defined(NDEBUG) || defined(PSF_LOCK_RANK)
#define PSF_LOCK_RANK_ENABLED 1
#else
#define PSF_LOCK_RANK_ENABLED 0
#endif

namespace psf::util {

/// Acquisition order, lowest first. Gaps leave room for new layers; append
/// with care — a rank states "may be held while acquiring anything larger".
enum class LockRank : int {
  kSwitchboard = 10,     // Switchboard service/suite registry
  kConnection = 20,      // per-Connection replay window + close state
  kRepository = 30,      // dRBAC credential store
  kGuardCache = 40,      // Guard access-decision cache
  kProofCache = 50,      // proof-fragment cache
  kSignatureCache = 60,  // Schnorr verdict shards
};

namespace contention {

namespace detail {

/// Published for the sampling profiler (obs/profile): the ranked site the
/// calling thread is currently blocked on, nullptr when not waiting. Written
/// only by this thread around a blocking acquire and read by the SIGPROF
/// handler on the same thread, so relaxed atomics suffice; the fields are
/// atomics so a cross-thread report() reader would also be defined.
struct WaitSlot {
  std::atomic<const char*> site{nullptr};
  std::atomic<int> rank{0};
};

inline WaitSlot& wait_slot() {
  thread_local WaitSlot slot;
  return slot;
}

/// RAII publication bracketing one blocking acquire of a contended site.
class ScopedWait {
 public:
  ScopedWait(const char* site, int rank) {
    WaitSlot& slot = wait_slot();
    slot.rank.store(rank, std::memory_order_relaxed);
    slot.site.store(site, std::memory_order_relaxed);
  }
  ~ScopedWait() { wait_slot().site.store(nullptr, std::memory_order_relaxed); }
  ScopedWait(const ScopedWait&) = delete;
  ScopedWait& operator=(const ScopedWait&) = delete;
};

}  // namespace detail

/// Profiler access point: the calling thread's blocked-on-lock slot (see
/// obs/profile.hpp). Resolved once at thread registration.
inline detail::WaitSlot& thread_wait_slot() { return detail::wait_slot(); }

}  // namespace contention

#if PSF_LOCK_RANK_ENABLED

namespace lock_rank {

/// Called instead of abort when a violation is detected; tests install a
/// recording handler. Returning (not aborting) lets the offending lock
/// proceed so the test itself does not deadlock.
using ViolationHandler = void (*)(const char* acquiring, int acquiring_rank,
                                  const char* held, int held_rank);

namespace detail {

struct Held {
  const void* owner;
  int rank;
  const char* name;
};

inline thread_local std::vector<Held> t_held;

inline ViolationHandler& handler_slot() {
  static ViolationHandler handler = nullptr;
  return handler;
}

inline void check(int rank, const char* name) {
  if (t_held.empty()) return;
  const Held& top = t_held.back();
  if (rank > top.rank) return;
  if (ViolationHandler handler = handler_slot()) {
    handler(name, rank, top.name, top.rank);
    return;
  }
  std::fprintf(stderr,
               "lock-rank violation: acquiring '%s' (rank %d) while holding "
               "'%s' (rank %d); locks must be taken in strictly increasing "
               "rank order\n",
               name, rank, top.name, top.rank);
  std::abort();
}

inline void push(const void* owner, int rank, const char* name) {
  t_held.push_back({owner, rank, name});
}

inline void pop(const void* owner) {
  // Usually LIFO; scan from the back so out-of-order unlock (moved
  // unique_lock) still removes the right entry.
  for (std::size_t i = t_held.size(); i-- > 0;) {
    if (t_held[i].owner == owner) {
      t_held.erase(t_held.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

}  // namespace detail

/// Ranks currently held by the calling thread (tests/assertions).
inline std::size_t held_count() { return detail::t_held.size(); }

/// Install a handler, returning the previous one (nullptr = abort).
inline ViolationHandler set_violation_handler(ViolationHandler handler) {
  ViolationHandler previous = detail::handler_slot();
  detail::handler_slot() = handler;
  return previous;
}

}  // namespace lock_rank

/// Drop-in mutex wrapper satisfying Lockable (and SharedLockable when
/// MutexT does): std::lock_guard, std::unique_lock, std::shared_lock and
/// std::condition_variable_any all work unchanged via CTAD.
template <typename MutexT>
class RankedMutex {
 public:
  RankedMutex(LockRank rank, const char* name)
      : rank_(static_cast<int>(rank)), name_(name) {}
  RankedMutex(const RankedMutex&) = delete;
  RankedMutex& operator=(const RankedMutex&) = delete;

  void lock() {
    lock_rank::detail::check(rank_, name_);
    if (!mutex_.try_lock()) {
      contention::detail::ScopedWait waiting(name_, rank_);
      mutex_.lock();
    }
    lock_rank::detail::push(this, rank_, name_);
  }
  void unlock() {
    lock_rank::detail::pop(this);
    mutex_.unlock();
  }
  bool try_lock() {
    // No rank check: try_lock is the deadlock-avoidance idiom; a failed
    // attempt never blocks, so only successful holds are recorded.
    if (!mutex_.try_lock()) return false;
    lock_rank::detail::push(this, rank_, name_);
    return true;
  }

  template <typename M = MutexT>
  void lock_shared() {
    lock_rank::detail::check(rank_, name_);
    if (!static_cast<M&>(mutex_).try_lock_shared()) {
      contention::detail::ScopedWait waiting(name_, rank_);
      static_cast<M&>(mutex_).lock_shared();
    }
    lock_rank::detail::push(this, rank_, name_);
  }
  template <typename M = MutexT>
  void unlock_shared() {
    lock_rank::detail::pop(this);
    static_cast<M&>(mutex_).unlock_shared();
  }
  template <typename M = MutexT>
  bool try_lock_shared() {
    if (!static_cast<M&>(mutex_).try_lock_shared()) return false;
    lock_rank::detail::push(this, rank_, name_);
    return true;
  }

 private:
  MutexT mutex_;
  int rank_;
  const char* name_;
};

#else  // !PSF_LOCK_RANK_ENABLED — passthrough (no rank state, but waits
       // are still published to the profiler; see header comment)

template <typename MutexT>
class RankedMutex {
 public:
  RankedMutex(LockRank rank, const char* name)
      : rank_(static_cast<int>(rank)), name_(name) {}
  RankedMutex(const RankedMutex&) = delete;
  RankedMutex& operator=(const RankedMutex&) = delete;

  void lock() {
    if (mutex_.try_lock()) return;
    contention::detail::ScopedWait waiting(name_, rank_);
    mutex_.lock();
  }
  void unlock() { mutex_.unlock(); }
  bool try_lock() { return mutex_.try_lock(); }

  template <typename M = MutexT>
  void lock_shared() {
    if (static_cast<M&>(mutex_).try_lock_shared()) return;
    contention::detail::ScopedWait waiting(name_, rank_);
    static_cast<M&>(mutex_).lock_shared();
  }
  template <typename M = MutexT>
  void unlock_shared() {
    static_cast<M&>(mutex_).unlock_shared();
  }
  template <typename M = MutexT>
  bool try_lock_shared() {
    return static_cast<M&>(mutex_).try_lock_shared();
  }

 private:
  MutexT mutex_;
  int rank_;
  const char* name_;
};

#endif  // PSF_LOCK_RANK_ENABLED

}  // namespace psf::util
