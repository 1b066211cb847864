// Flight recorder (ISSUE 4 tentpole, journal third): a lock-free per-thread
// ring of typed binary events recording the discrete edges that metrics
// flatten away — which connection tore down, which credential fired a
// revocation, which coherence sync fell back to a full image.
//
//  - Hot path: one relaxed head bump plus plain stores into the thread's own
//    ring slot (single writer per ring), then a release publish. No locks,
//    no allocation, no formatting.
//  - Per-thread rings are registered process-wide on first use and outlive
//    their threads; drain() merges every ring's retained tail into one
//    time-ordered vector without stopping writers (the seqlock slots of
//    obs/seqlock.hpp discard slots overwritten mid-copy, never returning
//    them torn).
//  - Overflow ring (ISSUE 6): when a thread ring wraps, the event it is
//    about to overwrite is salvaged into one shared bounded overflow ring
//    before the slot is reused, so bursts that outrun a ring are absorbed
//    rather than lost. Drop accounting is split: `soft` = displaced from a
//    thread ring but absorbed (still drainable), `hard` = gone for good
//    (overflow lapped its oldest, or a multi-producer slot race). The
//    drop-rate health check keys on hard drops only.
//  - Events are fixed-size (64 bytes): subsystem id, event code, up to four
//    u64 arguments, a steady-clock timestamp, and the thread's current
//    SpanContext so journal lines join up with distributed traces.
//  - Strings do not cross the hot path: name-like arguments are carried as
//    64-bit FNV-1a tags (journal::tag); the taxonomy tables in DESIGN.md §4f
//    say which argument of which event is a tag.
//  - Dump-on-fault: install_terminate_handler() chains a std::terminate
//    handler that writes the merged tail to stderr (and to
//    $PSF_JOURNAL_FAULT_DUMP when set) before the process dies; dump(path)
//    is the explicit form.
//
// Metrics: psf.obs.journal.{events,soft_drops,hard_drops,drains}.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace psf::obs::journal {

/// Slots per thread ring. Exposed so load generators can project how much
/// of a burst will displace into the overflow ring and size it ahead of
/// time (bench_mail_load's adaptive-ring step does exactly that).
inline constexpr std::size_t kRingCapacity = 4096;

/// Originating layer of an event. Values are wire/format stable — they are
/// what drain consumers and the taxonomy tables key on; append, don't renumber.
enum class Subsystem : std::uint16_t {
  kObs = 0,
  kSwitchboard = 1,
  kDrbac = 2,
  kViews = 3,
  kPsf = 4,
};

// Event codes, one namespace per subsystem (DESIGN.md §4f has the argument
// tables). Same stability rule: append, never renumber.
enum SwitchboardEvent : std::uint16_t {
  kSwEstablish = 1,       // a0=tag(host A), a1=tag(host B), a2=sim handshake ns
  kSwEstablishFailed = 2, // a0=tag(host A), a1=tag(host B), a2=tag(error code)
  kSwTeardown = 3,        // a0=tag(host A), a1=tag(host B), a2=tag(reason)
  kSwReplayReject = 4,    // a0=rejected seq, a1=direction (0=A->B)
  kSwHeartbeatMiss = 5,   // a0=tag(host A), a1=tag(host B), a2=tag(reason)
  kSwRevocation = 6,      // a0=revoked serial, a1=suspended end (0=A)
  kSwSuspend = 7,         // a0=suspended end, a1=tag(reason)
  kSwRevalidate = 8,      // a0=revalidated end
};
enum DrbacEvent : std::uint16_t {
  kDrEpochBump = 1,  // a0=new epoch, a1=credential serial, a2=kind (0=add,
                     //   1=revoke), a3=repository instance tag
};
enum ViewsEvent : std::uint16_t {
  kViFullImageFallback = 1,  // a0=instance uid, a1=image bytes
  kViVigGenerate = 2,        // a0=tag(view name), a1=tag(represented class)
  // 3 is retired (bytecode-fallback); codes are never reused.
  kViMemberStrip = 4,        // a0=tag(view name), a1=methods stripped,
                             //   a2=fields stripped
};
enum PsfEvent : std::uint16_t {
  kPsRequestOk = 1,      // a0=tag(service), a1=tag(client node), a2=tag(view)
  kPsRequestFailed = 2,  // a0=tag(service), a1=tag(client node), a2=tag(code)
};
enum ObsEvent : std::uint16_t {
  kObFaultDump = 1,      // a0=events written
  kObLockContended = 2,  // a0=tag(site), a1=rank, a2=wait ns
};

/// One recorded event (fixed 64-byte layout; args beyond the event's arity
/// are zero).
struct Event {
  std::int64_t t_ns = 0;  // steady-clock, same scale as SpanRecord::start_ns
  TraceId trace_id = 0;   // SpanContext current at emit time (0 = none)
  SpanId span_id = 0;
  std::uint64_t args[4] = {0, 0, 0, 0};
  std::uint32_t thread = 0;  // dense per-process thread number
  std::uint16_t subsystem = 0;
  std::uint16_t code = 0;
};

/// 64-bit FNV-1a of a name, the journal's string stand-in. Stable across
/// runs and hosts, so drains from different nodes can be correlated.
std::uint64_t tag(std::string_view name);

/// Record one event on the calling thread's ring. Safe from any thread at
/// any time; a disabled journal (set_enabled(false)) reduces to a relaxed
/// load + branch.
void emit(Subsystem subsystem, std::uint16_t code, std::uint64_t a0 = 0,
          std::uint64_t a1 = 0, std::uint64_t a2 = 0, std::uint64_t a3 = 0);

/// Runtime gate (default on). The bench ablation flips this to measure the
/// journal's cost.
bool enabled();
void set_enabled(bool on);

/// Merge every thread's retained events plus the overflow ring into one
/// vector ordered by t_ns. Non-destructive: the rings keep their contents
/// (the journal is a flight recorder, not a queue). Writers are not
/// blocked; slots overwritten while being copied are discarded, never
/// returned torn, and an event caught mid-migration into the overflow ring
/// is returned once, not twice.
std::vector<Event> drain();

/// The newest `n` events of drain() (still oldest-first).
std::vector<Event> tail(std::size_t n);

/// Total events ever emitted, process-wide (mirrors psf.obs.journal.events).
std::uint64_t emitted();
/// Events displaced from a thread ring but absorbed by the overflow ring —
/// still drainable; the flight recorder working as designed under a burst.
std::uint64_t soft_dropped();
/// Events gone for good: the overflow ring lapped them, the overflow ring
/// is disabled, or a multi-producer slot race lost the migration.
std::uint64_t hard_dropped();

/// Size the shared overflow ring (rounded up to a power of two; 0 disables
/// absorption — every displacement becomes a hard drop). Existing absorbed
/// events are discarded. Default: 16384 slots.
void set_overflow_capacity(std::size_t capacity);
std::size_t overflow_capacity();

/// Rewind every ring (tests and bench phases; concurrent writers may keep
/// appending afterwards). The emitted/dropped counters are monotonic like
/// every metric and are not rewound — measure deltas across a reset.
void reset();

// ------------------------------------------------------------- formatting

/// "Switchboard"/"dRBAC"/... and the event's symbolic name ("establish",
/// "epoch-bump", ...); unknown codes render as decimal.
std::string subsystem_name(std::uint16_t subsystem);
std::string event_name(std::uint16_t subsystem, std::uint16_t code);

/// One line: `t=... thread=... [Switchboard/establish] args... trace=...`.
std::string format_event(const Event& event);

/// Write `events` one format_event line per event.
void write_events(std::ostream& os, const std::vector<Event>& events);

/// Drain and write the full merged journal to `path` (explicit fault dump;
/// returns false when the file cannot be opened).
bool dump(const std::string& path);

/// Write the newest `max_events` merged events to `os` with a banner —
/// the body of the terminate handler, exposed for tests (calling the real
/// handler would end the process).
void write_fault_dump(std::ostream& os, std::size_t max_events = 256);

/// Install a std::terminate handler that write_fault_dump()s to stderr (and
/// to $PSF_JOURNAL_FAULT_DUMP when set) before chaining to the previous
/// handler. Idempotent.
void install_terminate_handler();

}  // namespace psf::obs::journal
