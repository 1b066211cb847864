#include "obs/journal.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <tuple>

#include "obs/metrics.hpp"

namespace psf::obs::journal {

namespace {

// Ring size per thread (journal.hpp exports the constant): 4096 * 64 B =
// 256 KiB per writer thread — deep enough to hold the interesting window
// around a fault, small enough that a pool of worker threads stays cheap.
static_assert((kRingCapacity & (kRingCapacity - 1)) == 0,
              "ring indexing relies on a power-of-two capacity");

std::atomic<bool> g_enabled{true};

struct JournalMetrics {
  Counter& events = counter("psf.obs.journal.events");
  Counter& dropped = counter("psf.obs.journal.dropped");
  Counter& soft_drops = counter("psf.obs.journal.soft_drops");
  Counter& hard_drops = counter("psf.obs.journal.hard_drops");
  Counter& drains = counter("psf.obs.journal.drains");
  static JournalMetrics& get() {
    static JournalMetrics m;
    return m;
  }
};

// ------------------------------------------------------- seqlock slot codec
//
// Both ring kinds share one slot protocol. A slot is eight relaxed atomic
// payload words plus a generation counter: 0 = never written, 2*(i+1) =
// logical index i fully written, odd = write in flight. Writer: publish the
// odd generation, release-fence, store the payload, release-store the even
// generation. Reader: acquire-load the generation, copy the payload,
// acquire-fence, re-load — accept only an unchanged even match for the
// expected index. The fence pair is the [atomics.fences] seqlock recipe: if
// the reader saw any payload word of a newer write, the re-load is
// guaranteed to see at least that write's odd generation and rejects.

constexpr std::size_t kWordsPerEvent = 8;
static_assert(sizeof(Event) == kWordsPerEvent * sizeof(std::uint64_t),
              "Event must pack into exactly eight 64-bit ring words");

constexpr std::uint64_t seq_writing(std::uint64_t index) {
  return 2 * index + 1;
}
constexpr std::uint64_t seq_complete(std::uint64_t index) {
  return 2 * index + 2;
}

void store_words(std::atomic<std::uint64_t>* base, const Event& event) {
  base[0].store(static_cast<std::uint64_t>(event.t_ns),
                std::memory_order_relaxed);
  base[1].store(event.trace_id, std::memory_order_relaxed);
  base[2].store(event.span_id, std::memory_order_relaxed);
  for (std::size_t a = 0; a < 4; ++a) {
    base[3 + a].store(event.args[a], std::memory_order_relaxed);
  }
  base[7].store(static_cast<std::uint64_t>(event.thread) |
                    (static_cast<std::uint64_t>(event.subsystem) << 32) |
                    (static_cast<std::uint64_t>(event.code) << 48),
                std::memory_order_relaxed);
}

Event load_words(const std::atomic<std::uint64_t>* base) {
  Event event;
  event.t_ns =
      static_cast<std::int64_t>(base[0].load(std::memory_order_relaxed));
  event.trace_id = base[1].load(std::memory_order_relaxed);
  event.span_id = base[2].load(std::memory_order_relaxed);
  for (std::size_t a = 0; a < 4; ++a) {
    event.args[a] = base[3 + a].load(std::memory_order_relaxed);
  }
  const std::uint64_t packed = base[7].load(std::memory_order_relaxed);
  event.thread = static_cast<std::uint32_t>(packed & 0xFFFFFFFFu);
  event.subsystem = static_cast<std::uint16_t>((packed >> 32) & 0xFFFFu);
  event.code = static_cast<std::uint16_t>(packed >> 48);
  return event;
}

/// Seqlock read of one slot. True (and `out` filled) only when the slot
/// holds logical `index`, completely written, unchanged across the copy.
bool read_slot(const std::atomic<std::uint64_t>* seq,
               const std::atomic<std::uint64_t>* words, std::uint64_t index,
               Event& out) {
  const std::uint64_t s1 = seq->load(std::memory_order_acquire);
  if (s1 != seq_complete(index)) return false;
  out = load_words(words);
  std::atomic_thread_fence(std::memory_order_acquire);
  return seq->load(std::memory_order_relaxed) == s1;
}

// --------------------------------------------------------- shared overflow
//
// One bounded multi-producer ring absorbing events displaced from any
// thread ring. Producers claim a logical index with a fetch_add, then CAS
// the slot generation from the previous lap's even value to "writing" —
// the Vyukov-style discipline that makes a producer lapped by a faster one
// fail loudly (hard drop) instead of mixing two events in one slot.
struct OverflowRing {
  explicit OverflowRing(std::size_t capacity) {
    std::size_t rounded = 1;
    while (rounded < capacity) rounded <<= 1;
    this->capacity = rounded;
    seq = std::make_unique<std::atomic<std::uint64_t>[]>(rounded);
    words =
        std::make_unique<std::atomic<std::uint64_t>[]>(rounded * kWordsPerEvent);
    for (std::size_t i = 0; i < rounded; ++i) seq[i].store(0);
    for (std::size_t i = 0; i < rounded * kWordsPerEvent; ++i) {
      words[i].store(0);
    }
  }

  /// Absorb one displaced event. Returns false when a slot race loses the
  /// migration; sets `overwrote` when the push displaced a previously
  /// absorbed event (which is now hard-lost).
  bool push(const Event& event, bool& overwrote) {
    const std::uint64_t index = head.fetch_add(1, std::memory_order_relaxed);
    const std::size_t p = index & (capacity - 1);
    std::uint64_t expected =
        index >= capacity ? seq_complete(index - capacity) : 0;
    if (!seq[p].compare_exchange_strong(expected, seq_writing(index),
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
      return false;
    }
    overwrote = index >= capacity;
    std::atomic_thread_fence(std::memory_order_release);
    store_words(&words[p * kWordsPerEvent], event);
    seq[p].store(seq_complete(index), std::memory_order_release);
    return true;
  }

  void snapshot_into(std::vector<Event>& out) const {
    const std::uint64_t h = head.load(std::memory_order_acquire);
    const std::uint64_t begin = h > capacity ? h - capacity : 0;
    out.reserve(out.size() + static_cast<std::size_t>(h - begin));
    Event event;
    for (std::uint64_t i = begin; i < h; ++i) {
      const std::size_t p = i & (capacity - 1);
      if (read_slot(&seq[p], &words[p * kWordsPerEvent], i, event)) {
        out.push_back(event);
      }
    }
  }

  /// Rewind in place (reset()). Concurrent pushers lose their CAS against
  /// the zeroed generations and report hard drops — consistent, not torn.
  void rewind() {
    head.store(0, std::memory_order_release);
    for (std::size_t i = 0; i < capacity; ++i) {
      seq[i].store(0, std::memory_order_relaxed);
    }
  }

  alignas(64) std::atomic<std::uint64_t> head{0};
  std::size_t capacity = 0;
  std::unique_ptr<std::atomic<std::uint64_t>[]> seq;
  std::unique_ptr<std::atomic<std::uint64_t>[]> words;
};

constexpr std::size_t kDefaultOverflowCapacity = 16384;

/// The live overflow ring. Swapped wholesale by set_overflow_capacity();
/// superseded rings are intentionally leaked (a racing pusher may still
/// hold the old pointer, and reconfiguration is a rare, explicit act).
std::atomic<OverflowRing*>& overflow_slot() {
  static std::atomic<OverflowRing*> ring{
      new OverflowRing(kDefaultOverflowCapacity)};
  return ring;
}

/// One thread's ring. The owning thread is the only writer; drainers read
/// concurrently through the per-slot seqlock protocol above, so a slot
/// overwritten mid-copy is rejected by its generation mismatch rather than
/// returned torn.
struct ThreadRing {
  // Monotonic write position, published with release after the slot
  // completes so a drainer's acquire load only considers finished slots.
  alignas(64) std::atomic<std::uint64_t> head{0};
  std::array<std::atomic<std::uint64_t>, kRingCapacity> seq{};
  std::array<std::atomic<std::uint64_t>, kRingCapacity * kWordsPerEvent> words;
  std::uint32_t thread_number = 0;

  void append(const Event& event, JournalMetrics& metrics) {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    const std::size_t p = h & (kRingCapacity - 1);
    if (h >= kRingCapacity) {
      // Salvage the event this write displaces. Single writer: the old
      // payload is this thread's own earlier store, safe to read plainly.
      const Event old = load_words(&words[p * kWordsPerEvent]);
      OverflowRing* overflow =
          overflow_slot().load(std::memory_order_acquire);
      bool overwrote = false;
      if (overflow != nullptr && overflow->push(old, overwrote)) {
        metrics.soft_drops.inc();
        if (overwrote) {
          // The push itself evicted an older absorbed event for good.
          metrics.hard_drops.inc();
          metrics.dropped.inc();
        }
      } else {
        metrics.hard_drops.inc();
        metrics.dropped.inc();
      }
    }
    seq[p].store(seq_writing(h), std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    store_words(&words[p * kWordsPerEvent], event);
    seq[p].store(seq_complete(h), std::memory_order_release);
    head.store(h + 1, std::memory_order_release);
  }

  void snapshot_into(std::vector<Event>& out) const {
    const std::uint64_t h = head.load(std::memory_order_acquire);
    const std::uint64_t begin = h > kRingCapacity ? h - kRingCapacity : 0;
    out.reserve(out.size() + static_cast<std::size_t>(h - begin));
    Event event;
    for (std::uint64_t i = begin; i < h; ++i) {
      const std::size_t p = i & (kRingCapacity - 1);
      if (read_slot(&seq[p], &words[p * kWordsPerEvent], i, event)) {
        out.push_back(event);
      }
    }
  }
};

/// Registry of every ring ever created. Rings are kept alive by shared_ptr
/// after their threads exit so late drains still see their events.
struct RingRegistry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadRing>> rings;
  std::uint32_t next_thread_number = 0;

  static RingRegistry& get() {
    static RingRegistry* r = new RingRegistry();  // never destroyed
    return *r;
  }
};

ThreadRing& local_ring() {
  thread_local std::shared_ptr<ThreadRing> ring = [] {
    auto created = std::make_shared<ThreadRing>();
    RingRegistry& registry = RingRegistry::get();
    std::lock_guard<std::mutex> lock(registry.mutex);
    created->thread_number = registry.next_thread_number++;
    registry.rings.push_back(created);
    return created;
  }();
  return *ring;
}

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Terminate-handler chain state.
std::terminate_handler g_previous_terminate = nullptr;
std::atomic<bool> g_terminate_installed{false};

[[noreturn]] void terminate_with_dump() {
  write_fault_dump(std::cerr);
  if (const char* path = std::getenv("PSF_JOURNAL_FAULT_DUMP");
      path != nullptr && *path != '\0') {
    dump(path);
  }
  if (g_previous_terminate != nullptr) g_previous_terminate();
  std::abort();
}

}  // namespace

std::uint64_t tag(std::string_view name) {
  std::uint64_t h = 14695981039346656037ULL;  // FNV-1a offset basis
  for (const char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

void emit(Subsystem subsystem, std::uint16_t code, std::uint64_t a0,
          std::uint64_t a1, std::uint64_t a2, std::uint64_t a3) {
#ifdef PSF_OBS_NO_JOURNAL
  (void)subsystem; (void)code; (void)a0; (void)a1; (void)a2; (void)a3;
  return;
#else
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  ThreadRing& ring = local_ring();
  const SpanContext ctx = current_context();
  Event event;
  event.t_ns = steady_now_ns();
  event.trace_id = ctx.trace_id;
  event.span_id = ctx.span_id;
  event.args[0] = a0;
  event.args[1] = a1;
  event.args[2] = a2;
  event.args[3] = a3;
  event.thread = ring.thread_number;
  event.subsystem = static_cast<std::uint16_t>(subsystem);
  event.code = code;
  JournalMetrics& metrics = JournalMetrics::get();
  ring.append(event, metrics);
  metrics.events.inc();
#endif
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

namespace {
auto event_key(const Event& e) {
  return std::tie(e.t_ns, e.thread, e.subsystem, e.code, e.args[0], e.args[1],
                  e.args[2], e.args[3], e.trace_id, e.span_id);
}
bool same_event(const Event& a, const Event& b) {
  return event_key(a) == event_key(b);
}
}  // namespace

std::vector<Event> drain() {
  std::vector<Event> merged;
  // Overflow first, then the live rings: an event caught mid-migration can
  // appear in both, and the dedupe pass below removes the twin.
  if (OverflowRing* overflow = overflow_slot().load(std::memory_order_acquire)) {
    overflow->snapshot_into(merged);
  }
  {
    RingRegistry& registry = RingRegistry::get();
    std::lock_guard<std::mutex> lock(registry.mutex);
    for (const auto& ring : registry.rings) ring->snapshot_into(merged);
  }
  // Full lexicographic order (t_ns first) makes exact duplicates adjacent;
  // distinct events legitimately sharing a timestamp are kept.
  std::sort(merged.begin(), merged.end(), [](const Event& a, const Event& b) {
    return event_key(a) < event_key(b);
  });
  merged.erase(std::unique(merged.begin(), merged.end(), same_event),
               merged.end());
  JournalMetrics::get().drains.inc();
  return merged;
}

std::vector<Event> tail(std::size_t n) {
  std::vector<Event> merged = drain();
  if (merged.size() > n) {
    merged.erase(merged.begin(),
                 merged.end() - static_cast<std::ptrdiff_t>(n));
  }
  return merged;
}

std::uint64_t emitted() { return JournalMetrics::get().events.value(); }
std::uint64_t dropped() { return JournalMetrics::get().hard_drops.value(); }
std::uint64_t soft_dropped() {
  return JournalMetrics::get().soft_drops.value();
}
std::uint64_t hard_dropped() {
  return JournalMetrics::get().hard_drops.value();
}

void set_overflow_capacity(std::size_t capacity) {
  OverflowRing* replacement =
      capacity == 0 ? nullptr : new OverflowRing(capacity);
  // The superseded ring is leaked on purpose: a pusher racing the swap may
  // still hold its pointer, and resizing is a rare, explicit config act.
  overflow_slot().store(replacement, std::memory_order_release);
}

std::size_t overflow_capacity() {
  OverflowRing* overflow = overflow_slot().load(std::memory_order_acquire);
  return overflow == nullptr ? 0 : overflow->capacity;
}

void reset() {
  RingRegistry& registry = RingRegistry::get();
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (const auto& ring : registry.rings) {
    // Restarting the generation sequence at 0 invalidates every old slot:
    // a drainer mid-copy sees a generation mismatch and rejects, never a
    // torn mix of old and new.
    for (auto& s : ring->seq) s.store(0, std::memory_order_relaxed);
    ring->head.store(0, std::memory_order_release);
  }
  if (OverflowRing* overflow =
          overflow_slot().load(std::memory_order_acquire)) {
    overflow->rewind();
  }
}

// --------------------------------------------------------------- formatting

std::string subsystem_name(std::uint16_t subsystem) {
  switch (static_cast<Subsystem>(subsystem)) {
    case Subsystem::kObs: return "Obs";
    case Subsystem::kSwitchboard: return "Switchboard";
    case Subsystem::kDrbac: return "dRBAC";
    case Subsystem::kViews: return "Views";
    case Subsystem::kPsf: return "PSF";
  }
  return std::to_string(subsystem);
}

std::string event_name(std::uint16_t subsystem, std::uint16_t code) {
  switch (static_cast<Subsystem>(subsystem)) {
    case Subsystem::kSwitchboard:
      switch (code) {
        case kSwEstablish: return "establish";
        case kSwEstablishFailed: return "establish-failed";
        case kSwTeardown: return "teardown";
        case kSwReplayReject: return "replay-reject";
        case kSwHeartbeatMiss: return "heartbeat-miss";
        case kSwRevocation: return "revocation";
        case kSwSuspend: return "suspend";
        case kSwRevalidate: return "revalidate";
      }
      break;
    case Subsystem::kDrbac:
      switch (code) {
        case kDrEpochBump: return "epoch-bump";
      }
      break;
    case Subsystem::kViews:
      switch (code) {
        case kViFullImageFallback: return "full-image-fallback";
        case kViVigGenerate: return "vig-generate";
        case kViMemberStrip: return "member-strip";
      }
      break;
    case Subsystem::kPsf:
      switch (code) {
        case kPsRequestOk: return "request-ok";
        case kPsRequestFailed: return "request-failed";
      }
      break;
    case Subsystem::kObs:
      switch (code) {
        case kObFaultDump: return "fault-dump";
        case kObLockContended: return "lock-contended";
      }
      break;
  }
  return std::to_string(code);
}

namespace {
void append_hex(std::ostringstream& os, std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  os << "0x";
  bool started = false;
  for (int shift = 60; shift >= 0; shift -= 4) {
    const unsigned nibble = (v >> shift) & 0xF;
    if (!started && nibble == 0 && shift != 0) continue;
    started = true;
    os << digits[nibble];
  }
}
}  // namespace

std::string format_event(const Event& event) {
  std::ostringstream os;
  os << "t=" << event.t_ns << " thread=" << event.thread << " ["
     << subsystem_name(event.subsystem) << "/"
     << event_name(event.subsystem, event.code) << "]";
  for (const std::uint64_t a : event.args) {
    os << ' ';
    append_hex(os, a);
  }
  if (event.trace_id != 0) {
    os << " trace=";
    append_hex(os, event.trace_id);
    os << "/";
    append_hex(os, event.span_id);
  }
  return os.str();
}

void write_events(std::ostream& os, const std::vector<Event>& events) {
  for (const Event& event : events) os << format_event(event) << "\n";
}

bool dump(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<Event> events = drain();
  out << "# psf journal dump: " << events.size() << " events ("
      << dropped() << " older events overwritten)\n";
  write_events(out, events);
  emit(Subsystem::kObs, kObFaultDump, events.size());
  return true;
}

void write_fault_dump(std::ostream& os, std::size_t max_events) {
  const std::vector<Event> events = tail(max_events);
  os << "==== psf flight recorder (" << events.size() << " newest events, "
     << emitted() << " emitted, " << dropped() << " overwritten) ====\n";
  write_events(os, events);
  os << "==== end flight recorder ====" << std::endl;
}

void install_terminate_handler() {
  bool expected = false;
  if (!g_terminate_installed.compare_exchange_strong(expected, true)) return;
  g_previous_terminate = std::set_terminate(&terminate_with_dump);
}

}  // namespace psf::obs::journal
