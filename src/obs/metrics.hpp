// Process-wide metrics registry (ISSUE 1 tentpole): named counters, gauges,
// and fixed-boundary histograms that every subsystem increments on its hot
// paths. Design constraints:
//
//  - Hot-path cost is a single relaxed atomic op. Call sites hold a
//    reference obtained once (usually through a function-local static), so
//    the name lookup never repeats.
//  - The registry itself is lock-sharded: names hash to one of kShards
//    buckets, each with its own mutex, so concurrent registration from many
//    threads does not serialize on one lock.
//  - Metric objects are never destroyed or moved once registered; references
//    stay valid for the process lifetime. Registry::reset() zeroes values
//    (for tests) but keeps the objects.
//
// Naming scheme: `psf.<subsystem>.<name>`, e.g. `psf.drbac.proofs.attempted`
// (see README "Observability"). Exporters live in obs/export.hpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/seqlock.hpp"

namespace psf::obs {

class Registry;

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

 private:
  friend class Registry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  void reset() { value_.store(0, std::memory_order_relaxed); }

  std::string name_;
  alignas(64) std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time signed value (e.g. last heartbeat RTT, repository size).
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

 private:
  friend class Registry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  void reset() { value_.store(0, std::memory_order_relaxed); }

  std::string name_;
  alignas(64) std::atomic<std::int64_t> value_{0};
};

/// Fixed-boundary histogram. `bounds` are inclusive upper bucket edges in
/// ascending order; an implicit +Inf bucket catches the rest. observe() is
/// one relaxed atomic add on the matching bucket plus count/sum bookkeeping
/// (all relaxed; snapshots are advisory, not linearizable).
///
/// Exemplars (ISSUE 6): when an exemplar threshold is set, an observation at
/// or above it whose thread has an active SpanContext stamps its bucket's
/// exemplar slot (trace id, span id, value) via a per-bucket seqlock slot and
/// pins the trace in the SpanCollector — the p99 tail of a latency
/// histogram links directly to the trace that caused it. Captures are
/// rate-limited to one per bucket per millisecond so a busy tail cannot
/// turn the capture (and its trace pin) into hot-path cost. Disabled by
/// default (threshold INT64_MAX): the hot path then pays one extra relaxed
/// load + branch.
class Histogram {
 public:
  void observe(std::int64_t v);

  /// Observations >= `v` capture an exemplar. INT64_MAX disables capture.
  void set_exemplar_threshold(std::int64_t v) {
    exemplar_threshold_.store(v, std::memory_order_relaxed);
  }
  std::int64_t exemplar_threshold() const {
    return exemplar_threshold_.load(std::memory_order_relaxed);
  }

  struct Exemplar {
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    std::int64_t value = 0;   // the observation that was captured
    std::int64_t t_ns = 0;    // steady-clock capture time
    bool valid = false;
  };

  struct Snapshot {
    std::vector<std::int64_t> bounds;        // upper edges, ascending
    std::vector<std::uint64_t> bucket_counts;  // bounds.size() + 1 entries
    std::vector<Exemplar> exemplars;           // bounds.size() + 1 entries
    std::uint64_t count = 0;
    std::int64_t sum = 0;
    std::int64_t min = 0;  // observed extrema (0 when count == 0)
    std::int64_t max = 0;

    /// Percentile estimate (p in [0,100]) by linear interpolation inside the
    /// owning bucket; the overflow bucket reports the observed max.
    std::int64_t percentile(double p) const;
    /// The exemplar of the highest bucket that holds one (the tail's trace),
    /// invalid Exemplar when none captured.
    Exemplar tail_exemplar() const;
  };
  Snapshot snapshot() const;

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Convenience percentile on a fresh snapshot.
  std::int64_t percentile(double p) const { return snapshot().percentile(p); }
  const std::string& name() const { return name_; }

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

 private:
  friend class Registry;
  Histogram(std::string name, std::vector<std::int64_t> bounds);
  void reset();
  void capture_exemplar(std::size_t bucket, std::int64_t v);

  // Per-bucket exemplar record: [trace_id, span_id, value, t_ns].
  using ExemplarSlot = seqlock::Slot<4>;
  static_assert(sizeof(ExemplarSlot) == 40,
                "an exemplar slot is four words plus its generation");

  std::string name_;
  std::vector<std::int64_t> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_.size()+1
  std::unique_ptr<ExemplarSlot[]> exemplars_;              // bounds_.size()+1
  std::atomic<std::int64_t> exemplar_threshold_{INT64_MAX};
  alignas(64) std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  // Sentinels until the first observation; snapshot() reports 0 when empty.
  std::atomic<std::int64_t> min_{INT64_MAX};
  std::atomic<std::int64_t> max_{INT64_MIN};
};

/// `{1, 2, 5} x 10^k` boundaries spanning [1, 10^decades); the default shape
/// for latency histograms (values in microseconds).
std::vector<std::int64_t> decade_bounds(int decades = 7);

/// Flat view of every registered metric, for the exporters.
struct MetricsSnapshot {
  struct Entry {
    enum class Kind { kCounter, kGauge, kHistogram };
    Kind kind;
    std::string name;
    std::int64_t value = 0;            // counter/gauge
    Histogram::Snapshot histogram;     // kind == kHistogram
  };
  std::vector<Entry> entries;  // sorted by name
};

class Registry {
 public:
  /// The process-wide registry every instrumented subsystem uses.
  static Registry& instance();

  /// Find-or-create. The returned reference is valid for the process
  /// lifetime. Registering the same name with a different metric kind
  /// returns a distinct metric (kinds have separate namespaces).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` applies only on first registration; later calls with the same
  /// name ignore it.
  Histogram& histogram(const std::string& name,
                       std::vector<std::int64_t> bounds = decade_bounds());

  MetricsSnapshot snapshot() const;

  /// Zero every metric's value (objects stay registered and references
  /// remain valid). For tests and between bench runs.
  void reset();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  static constexpr std::size_t kShards = 16;
  struct Shard {
    mutable std::mutex mutex;
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
  };
  Shard& shard_for(const std::string& name);
  const Shard& shard_for(const std::string& name) const;

  Shard shards_[kShards];
};

// --------------------------------------------------------- hot-path helpers
// Look up once, then cache the reference in a function-local static:
//   static auto& c = obs::counter("psf.drbac.proofs.attempted");
//   c.inc();

inline Counter& counter(const std::string& name) {
  return Registry::instance().counter(name);
}
inline Gauge& gauge(const std::string& name) {
  return Registry::instance().gauge(name);
}
inline Histogram& histogram(const std::string& name,
                            std::vector<std::int64_t> bounds = decade_bounds()) {
  return Registry::instance().histogram(name, std::move(bounds));
}

/// Wall-clock stopwatch for duration histograms (microseconds). RAII:
/// observes on destruction unless cancel()ed.
class ScopedTimerUs {
 public:
  explicit ScopedTimerUs(Histogram& histogram);
  ~ScopedTimerUs();
  void cancel() { armed_ = false; }
  /// Microseconds elapsed so far.
  std::int64_t elapsed_us() const;

  ScopedTimerUs(const ScopedTimerUs&) = delete;
  ScopedTimerUs& operator=(const ScopedTimerUs&) = delete;

 private:
  Histogram& histogram_;
  std::int64_t start_ns_;
  bool armed_ = true;
};

}  // namespace psf::obs
