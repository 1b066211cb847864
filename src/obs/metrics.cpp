#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <functional>

#include "obs/trace.hpp"

namespace psf::obs {

namespace {
std::int64_t metrics_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

// ---------------------------------------------------------------- Histogram

Histogram::Histogram(std::string name, std::vector<std::int64_t> bounds)
    : name_(std::move(name)), bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  exemplars_ = std::make_unique<ExemplarSlot[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::capture_exemplar(std::size_t bucket, std::int64_t v) {
  const SpanContext ctx = current_context();
  if (!ctx.valid()) return;  // no trace to link — nothing worth capturing
  ExemplarSlot& slot = exemplars_[bucket];
  // Rate limit: a slot refreshed within the last millisecond is fresh
  // enough, and skipping keeps the capture (and its trace pin, which takes
  // the span collector's lock) off the hot path when the tail is busy.
  constexpr std::int64_t kMinPeriodNs = 1'000'000;
  const std::int64_t now_ns = metrics_now_ns();
  ExemplarSlot::Record last{};
  if (slot.read(last) &&
      now_ns - static_cast<std::int64_t>(last[3]) < kMinPeriodNs) {
    return;
  }
  // Skip on contention: losing one tail exemplar to a race is fine.
  if (!slot.try_write(slot.next_index(),
                      {ctx.trace_id, ctx.span_id, static_cast<std::uint64_t>(v),
                       static_cast<std::uint64_t>(now_ns)})) {
    return;
  }
  // Keep the trace resolvable after the span ring wraps (tail retention).
  SpanCollector::instance().pin_trace(ctx.trace_id);
}

void Histogram::observe(std::int64_t v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  // Extrema via CAS loops; contention here is rare (only on new records).
  std::int64_t seen = min_.load(std::memory_order_relaxed);
  while (v < seen &&
         !min_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (v > seen &&
         !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
  if (v >= exemplar_threshold_.load(std::memory_order_relaxed)) {
    capture_exemplar(idx, v);
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot out;
  out.bounds = bounds_;
  out.bucket_counts.resize(bounds_.size() + 1);
  out.exemplars.resize(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    out.bucket_counts[i] = buckets_[i].load(std::memory_order_relaxed);
    ExemplarSlot::Record r{};
    if (!exemplars_[i].read(r)) continue;
    out.exemplars[i] = {r[0], r[1], static_cast<std::int64_t>(r[2]),
                        static_cast<std::int64_t>(r[3]), true};
  }
  out.count = count_.load(std::memory_order_relaxed);
  out.sum = sum_.load(std::memory_order_relaxed);
  out.min = out.count == 0 ? 0 : min_.load(std::memory_order_relaxed);
  out.max = out.count == 0 ? 0 : max_.load(std::memory_order_relaxed);
  return out;
}

Histogram::Exemplar Histogram::Snapshot::tail_exemplar() const {
  for (std::size_t i = exemplars.size(); i-- > 0;) {
    if (exemplars[i].valid) return exemplars[i];
  }
  return {};
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
    exemplars_[i].rewind();
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(INT64_MAX, std::memory_order_relaxed);
  max_.store(INT64_MIN, std::memory_order_relaxed);
}

std::int64_t Histogram::Snapshot::percentile(double p) const {
  if (count == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the target observation (1-based, ceil).
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(p / 100.0 * static_cast<double>(count) + 0.999999));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < bucket_counts.size(); ++i) {
    const std::uint64_t in_bucket = bucket_counts[i];
    if (cumulative + in_bucket < rank) {
      cumulative += in_bucket;
      continue;
    }
    if (i == bounds.size()) return max;  // overflow bucket
    const std::int64_t hi = bounds[i];
    // Lower edge: previous bound (exclusive) or the observed min.
    const std::int64_t lo = i == 0 ? std::min(min, hi) : bounds[i - 1];
    if (in_bucket == 0) return hi;
    const double frac = static_cast<double>(rank - cumulative) /
                        static_cast<double>(in_bucket);
    return lo + static_cast<std::int64_t>(frac * static_cast<double>(hi - lo));
  }
  return max;
}

std::vector<std::int64_t> decade_bounds(int decades) {
  std::vector<std::int64_t> out;
  std::int64_t base = 1;
  for (int d = 0; d < decades; ++d) {
    out.push_back(base);
    out.push_back(2 * base);
    out.push_back(5 * base);
    base *= 10;
  }
  return out;
}

// ----------------------------------------------------------------- Registry

Registry& Registry::instance() {
  static Registry* registry = new Registry();  // never destroyed: metric
  return *registry;                            // refs outlive static dtors
}

Registry::Shard& Registry::shard_for(const std::string& name) {
  return shards_[std::hash<std::string>{}(name) % kShards];
}

const Registry::Shard& Registry::shard_for(const std::string& name) const {
  return shards_[std::hash<std::string>{}(name) % kShards];
}

Counter& Registry::counter(const std::string& name) {
  Shard& shard = shard_for(name);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.counters.find(name);
  if (it == shard.counters.end()) {
    it = shard.counters
             .emplace(name, std::unique_ptr<Counter>(new Counter(name)))
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(const std::string& name) {
  Shard& shard = shard_for(name);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.gauges.find(name);
  if (it == shard.gauges.end()) {
    it = shard.gauges.emplace(name, std::unique_ptr<Gauge>(new Gauge(name)))
             .first;
  }
  return *it->second;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<std::int64_t> bounds) {
  Shard& shard = shard_for(name);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.histograms.find(name);
  if (it == shard.histograms.end()) {
    it = shard.histograms
             .emplace(name, std::unique_ptr<Histogram>(
                                new Histogram(name, std::move(bounds))))
             .first;
  }
  return *it->second;
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [name, c] : shard.counters) {
      MetricsSnapshot::Entry e;
      e.kind = MetricsSnapshot::Entry::Kind::kCounter;
      e.name = name;
      e.value = static_cast<std::int64_t>(c->value());
      out.entries.push_back(std::move(e));
    }
    for (const auto& [name, g] : shard.gauges) {
      MetricsSnapshot::Entry e;
      e.kind = MetricsSnapshot::Entry::Kind::kGauge;
      e.name = name;
      e.value = g->value();
      out.entries.push_back(std::move(e));
    }
    for (const auto& [name, h] : shard.histograms) {
      MetricsSnapshot::Entry e;
      e.kind = MetricsSnapshot::Entry::Kind::kHistogram;
      e.name = name;
      e.histogram = h->snapshot();
      out.entries.push_back(std::move(e));
    }
  }
  std::sort(out.entries.begin(), out.entries.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return out;
}

void Registry::reset() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto& [name, c] : shard.counters) c->reset();
    for (auto& [name, g] : shard.gauges) g->reset();
    for (auto& [name, h] : shard.histograms) h->reset();
  }
}

// ------------------------------------------------------------ ScopedTimerUs

namespace {
std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

ScopedTimerUs::ScopedTimerUs(Histogram& histogram)
    : histogram_(histogram), start_ns_(steady_now_ns()) {}

std::int64_t ScopedTimerUs::elapsed_us() const {
  return (steady_now_ns() - start_ns_) / 1000;
}

ScopedTimerUs::~ScopedTimerUs() {
  if (armed_) histogram_.observe(elapsed_us());
}

}  // namespace psf::obs
