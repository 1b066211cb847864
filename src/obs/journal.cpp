#include "obs/journal.hpp"

#include <algorithm>
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
#include "obs/seqlock.hpp"

namespace psf::obs::journal {

namespace {

// Ring size per thread (journal.hpp exports the constant): 4096 * 72 B
// (a 64-byte event plus its generation word) = 288 KiB per writer thread —
// deep enough to hold the interesting window around a fault, small enough
// that a pool of worker threads stays cheap.
static_assert((kRingCapacity & (kRingCapacity - 1)) == 0,
              "ring indexing relies on a power-of-two capacity");

std::atomic<bool> g_enabled{true};

struct JournalMetrics {
  Counter& events = counter("psf.obs.journal.events");
  Counter& soft_drops = counter("psf.obs.journal.soft_drops");
  Counter& hard_drops = counter("psf.obs.journal.hard_drops");
  Counter& drains = counter("psf.obs.journal.drains");
  static JournalMetrics& get() {
    static JournalMetrics m;
    return m;
  }
};

// Both ring kinds store an Event as one eight-word seqlock record
// (obs/seqlock.hpp), so drains never return a torn event. pack() builds the
// words from the fields, not from the Event's bytes: copying a just-built
// struct through memory stalls store forwarding on the emit path.
using EventRing = seqlock::Ring<8>;
using Record = EventRing::Record;
static_assert(sizeof(seqlock::Slot<8>) == 72,
              "a journal slot is one 64-byte event plus its generation");

Record pack(const Event& event) {
  return {static_cast<std::uint64_t>(event.t_ns), event.trace_id,
          event.span_id, event.args[0], event.args[1], event.args[2],
          event.args[3],
          static_cast<std::uint64_t>(event.thread) |
              (static_cast<std::uint64_t>(event.subsystem) << 32) |
              (static_cast<std::uint64_t>(event.code) << 48)};
}

Event unpack(const Record& record) {
  Event event;
  event.t_ns = static_cast<std::int64_t>(record[0]);
  event.trace_id = record[1];
  event.span_id = record[2];
  for (std::size_t a = 0; a < 4; ++a) event.args[a] = record[3 + a];
  event.thread = static_cast<std::uint32_t>(record[7]);
  event.subsystem = static_cast<std::uint16_t>(record[7] >> 32);
  event.code = static_cast<std::uint16_t>(record[7] >> 48);
  return event;
}

// --------------------------------------------------------- shared overflow
//
// One bounded multi-producer ring absorbing events displaced from any
// thread ring. A producer lapped by a faster one fails its slot claim (a
// hard drop) instead of mixing two events in one slot.
constexpr std::size_t kDefaultOverflowCapacity = 16384;

/// The live overflow ring. Swapped wholesale by set_overflow_capacity();
/// superseded rings are never freed (a racing pusher may still hold the
/// old pointer, and reconfiguration is a rare, explicit act).
std::atomic<EventRing*>& overflow_slot() {
  static std::atomic<EventRing*> ring{new EventRing(kDefaultOverflowCapacity)};
  return ring;
}

/// One thread's ring. The owning thread is the only writer; drainers read
/// concurrently through the seqlock slots.
struct ThreadRing {
  EventRing ring{kRingCapacity};
  std::uint32_t thread_number = 0;

  void append(const Event& event, JournalMetrics& metrics) {
    const std::uint64_t h = ring.head();
    if (h >= kRingCapacity) {
      // Salvage the event this write displaces into the overflow ring.
      EventRing* overflow = overflow_slot().load(std::memory_order_acquire);
      bool displaced = false;
      if (overflow != nullptr && overflow->try_push(ring.peek(h), displaced)) {
        metrics.soft_drops.inc();
        // The push itself evicted an older absorbed event for good.
        if (displaced) metrics.hard_drops.inc();
      } else {
        metrics.hard_drops.inc();
      }
    }
    ring.append(pack(event));
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
  const auto collect = [&merged](const Record& r) {
    merged.push_back(unpack(r));
  };
  if (EventRing* overflow = overflow_slot().load(std::memory_order_acquire)) {
    overflow->for_each(collect);
  }
  {
    RingRegistry& registry = RingRegistry::get();
    std::lock_guard<std::mutex> lock(registry.mutex);
    for (const auto& ring : registry.rings) ring->ring.for_each(collect);
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
std::uint64_t soft_dropped() {
  return JournalMetrics::get().soft_drops.value();
}
std::uint64_t hard_dropped() {
  return JournalMetrics::get().hard_drops.value();
}

void set_overflow_capacity(std::size_t capacity) {
  EventRing* replacement = capacity == 0 ? nullptr : new EventRing(capacity);
  // The superseded ring is never freed: a pusher racing the swap may still
  // hold its pointer, and resizing is a rare, explicit config act. Parking
  // it in a never-destroyed list keeps it reachable, so leak checkers do
  // not report it.
  static std::mutex parked_mutex;
  static auto* parked = new std::vector<EventRing*>;
  EventRing* superseded =
      overflow_slot().exchange(replacement, std::memory_order_acq_rel);
  if (superseded != nullptr) {
    std::lock_guard<std::mutex> lock(parked_mutex);
    parked->push_back(superseded);
  }
}

std::size_t overflow_capacity() {
  EventRing* overflow = overflow_slot().load(std::memory_order_acquire);
  return overflow == nullptr ? 0 : overflow->capacity();
}

void reset() {
  RingRegistry& registry = RingRegistry::get();
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (const auto& ring : registry.rings) ring->ring.rewind();
  if (EventRing* overflow = overflow_slot().load(std::memory_order_acquire)) {
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
      << hard_dropped() << " older events lost)\n";
  write_events(out, events);
  emit(Subsystem::kObs, kObFaultDump, events.size());
  return true;
}

void write_fault_dump(std::ostream& os, std::size_t max_events) {
  const std::vector<Event> events = tail(max_events);
  os << "==== psf flight recorder (" << events.size() << " newest events, "
     << emitted() << " emitted, " << hard_dropped() << " lost) ====\n";
  write_events(os, events);
  os << "==== end flight recorder ====" << std::endl;
}

void install_terminate_handler() {
  bool expected = false;
  if (!g_terminate_installed.compare_exchange_strong(expected, true)) return;
  g_previous_terminate = std::set_terminate(&terminate_with_dump);
}

}  // namespace psf::obs::journal
