#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <thread>

namespace psf::obs {

namespace {

thread_local SpanContext t_current;

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

namespace detail {

SpanNameStack& span_name_stack() {
  thread_local SpanNameStack stack;
  return stack;
}

namespace {

// Push/pop are always depth-symmetric: the counter tracks every open span
// even when the name array is full, so a deep stack truncates instead of
// corrupting.
inline void push_span_name(const char* name) {
  SpanNameStack& stack = span_name_stack();
  const std::uint32_t d = stack.depth.load(std::memory_order_relaxed);
  if (d < kSpanStackDepth) stack.names[d] = name;
  std::atomic_signal_fence(std::memory_order_release);
  stack.depth.store(d + 1, std::memory_order_relaxed);
}

inline void pop_span_name() {
  SpanNameStack& stack = span_name_stack();
  const std::uint32_t d = stack.depth.load(std::memory_order_relaxed);
  if (d > 0) stack.depth.store(d - 1, std::memory_order_relaxed);
}

}  // namespace
}  // namespace detail

SpanContext current_context() { return t_current; }

std::uint64_t next_id() {
  // Per-thread generator seeded from a global counter plus the thread id, so
  // two threads never share a stream; re-rolled until non-zero (0 = absent).
  static std::atomic<std::uint64_t> seeder{0x5f3759df};
  thread_local std::uint64_t state =
      seeder.fetch_add(0x9e3779b97f4a7c15ULL) ^
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::uint64_t id;
  do {
    id = splitmix64(state);
  } while (id == 0);
  return id;
}

// ------------------------------------------------------------ SpanCollector

SpanCollector& SpanCollector::instance() {
  static SpanCollector* collector = new SpanCollector();  // never destroyed
  return *collector;
}

SpanCollector::SpanCollector(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

void SpanCollector::evict_locked(SpanRecord&& victim) {
  // Boring spans die first; pinned-trace and error spans move to the
  // protected store, itself bounded (its own oldest go when it fills — even
  // interesting history must not grow without bound).
  const bool keep = victim.error || pinned_.count(victim.trace_id) != 0;
  if (!keep) {
    ++lost_;
    return;
  }
  if (retained_.size() >= kMaxRetained) {
    retained_.pop_front();
    ++lost_;
  }
  retained_.push_back(std::move(victim));
}

void SpanCollector::record(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
  } else {
    evict_locked(std::move(ring_[next_]));
    ring_[next_] = std::move(record);
  }
  next_ = (next_ + 1) % capacity_;
  ++recorded_;
}

std::vector<SpanRecord> SpanCollector::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanRecord> out;
  out.reserve(retained_.size() + ring_.size());
  out.insert(out.end(), retained_.begin(), retained_.end());
  if (ring_.size() < capacity_) {
    out.insert(out.end(), ring_.begin(), ring_.end());
  } else {
    // Full ring: `next_` is the oldest record.
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(next_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(next_));
  }
  return out;
}

void SpanCollector::pin_trace(TraceId trace_id) {
  if (trace_id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (pinned_.count(trace_id) != 0) {
    // Refresh: move to the young end of the LRU.
    auto it = std::find(pinned_order_.begin(), pinned_order_.end(), trace_id);
    if (it != pinned_order_.end()) pinned_order_.erase(it);
    pinned_order_.push_back(trace_id);
    return;
  }
  if (pinned_.size() >= kMaxPinnedTraces) {
    pinned_.erase(pinned_order_.front());
    pinned_order_.pop_front();
  }
  pinned_.insert(trace_id);
  pinned_order_.push_back(trace_id);
}

bool SpanCollector::is_pinned(TraceId trace_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pinned_.count(trace_id) != 0;
}

std::vector<SpanRecord> SpanCollector::spans_for_trace(TraceId trace_id) const {
  std::vector<SpanRecord> out;
  if (trace_id == 0) return out;
  for (SpanRecord& record : snapshot()) {
    if (record.trace_id == trace_id) out.push_back(std::move(record));
  }
  return out;
}

std::uint64_t SpanCollector::recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

std::uint64_t SpanCollector::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lost_;
}

std::size_t SpanCollector::capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

std::size_t SpanCollector::retained_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return retained_.size();
}

std::size_t SpanCollector::pinned_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pinned_.size();
}

void SpanCollector::clear(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  retained_.clear();
  pinned_.clear();
  pinned_order_.clear();
  next_ = 0;
  recorded_ = 0;
  lost_ = 0;
  if (capacity > 0) {
    capacity_ = capacity;
    ring_.reserve(capacity_);
  }
}

// --------------------------------------------------------------- ScopedSpan

ScopedSpan::ScopedSpan(const char* name)
    : name_(name),
      prev_(t_current),
      start_ns_(steady_now_ns()),
      uncaught_at_open_(std::uncaught_exceptions()) {
  ctx_.trace_id = prev_.valid() ? prev_.trace_id : next_id();
  ctx_.span_id = next_id();
  parent_id_ = prev_.valid() ? prev_.span_id : 0;
  t_current = ctx_;
  detail::push_span_name(name_);
}

ScopedSpan::~ScopedSpan() {
  detail::pop_span_name();
  t_current = prev_;
  SpanRecord record;
  record.trace_id = ctx_.trace_id;
  record.span_id = ctx_.span_id;
  record.parent_id = parent_id_;
  record.name = name_;
  record.start_ns = start_ns_;
  record.duration_ns = steady_now_ns() - start_ns_;
  // A scope unwinding through us means this span failed, whether or not the
  // code remembered to set_error() — the delta ignores exceptions that were
  // already in flight when the span opened.
  record.error =
      error_ || std::uncaught_exceptions() > uncaught_at_open_;
  SpanCollector::instance().record(std::move(record));
}

// ------------------------------------------------------------- ContextGuard

ContextGuard::ContextGuard(SpanContext remote) : prev_(t_current) {
  if (remote.valid()) t_current = remote;
}

ContextGuard::~ContextGuard() { t_current = prev_; }

// -------------------------------------------------------------- propagation

namespace {
constexpr std::string_view kMagic = "TRC1";
}

util::Bytes with_trace_header(SpanContext ctx, const util::Bytes& payload) {
  util::Bytes out;
  out.reserve(kTraceHeaderSize + payload.size());
  append_trace_header(ctx, out);
  util::append(out, payload);
  return out;
}

void append_trace_header(SpanContext ctx, util::Bytes& out) {
  util::append(out, kMagic);
  util::put_u64_be(out, ctx.trace_id);
  util::put_u64_be(out, ctx.span_id);
}

bool strip_trace_header(const util::Bytes& wire, SpanContext& ctx,
                        util::Bytes& payload) {
  if (wire.size() < kTraceHeaderSize ||
      !std::equal(kMagic.begin(), kMagic.end(), wire.begin())) {
    return false;
  }
  ctx.trace_id = util::get_u64_be(wire, 4);
  ctx.span_id = util::get_u64_be(wire, 12);
  payload.assign(wire.begin() + kTraceHeaderSize, wire.end());
  return true;
}

}  // namespace psf::obs
