// Measurement machinery shared by every psfbench workload: exact
// percentiles over raw samples, the metric catalogue and the one-line JSON
// result, deltas of the program's own psf.* counters and histograms,
// process CPU and peak RSS, the bench-side span log (Chrome trace events),
// and the coherence-bracket timer that sits in a view's hook slot.
//
// Everything here measures the program from outside: it times calls into
// public functions and reads the registry the program already keeps.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "views/cache.hpp"

namespace psfbench {

/// Steady-clock nanoseconds (the same time base as EventLoop::now_ns).
std::uint64_t now_ns();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 12.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace-event JSON ("" = not written)
  bool smoke = false;     // one set-up, ~1 s per workload, smaller fan-out
  bool swap_views = false;  // self-test: serve Member/Partner the wrong view
};

// ------------------------------------------------------------------ samples

/// Raw samples with exact nearest-rank percentiles. Values are stored as
/// float (latencies in microseconds need no more precision) so a traced
/// run can keep every call of every layer.
class Samples {
 public:
  void reserve(std::size_t n) { values_.reserve(n); }
  void add(double v) {
    values_.push_back(static_cast<float>(v));
    sorted_ = false;
  }
  void append(const Samples& other);
  std::size_t size() const { return values_.size(); }
  /// Nearest-rank percentile, p in (0, 100]; 0 when empty.
  double percentile(double p);

 private:
  std::vector<float> values_;
  bool sorted_ = true;
};

// ------------------------------------------------------------------ metrics

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics printed by an untraced run and the per-layer
/// metrics printed by a traced run, in BENCHMARK.json order. Every
/// workload prints every name; a layer a workload does not reach reads 0.
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

class Report {
 public:
  /// `unit` defaults to the catalogue's unit for `name`.
  void set(const std::string& name, double value, std::uint64_t samples,
           const std::string& unit = "");

  /// Human-readable table of every metric set, with units and sample counts.
  void print_table(std::ostream& os, const std::string& title) const;

  /// The result line: {"correct", "attempted", "failed", "metrics"} with
  /// exactly the catalogue's names (traced: per-layer, else end-to-end).
  void print_result(std::ostream& os, bool traced, bool correct,
                    std::uint64_t attempted, std::uint64_t failed) const;

  /// Every metric set, as {"metrics": {name: {value, unit, samples}}} (the
  /// layer replays' result line).
  void print_all(std::ostream& os) const;

 private:
  struct Entry {
    double value = 0;
    std::uint64_t samples = 0;
    std::string unit;
  };
  std::map<std::string, Entry> entries_;
};

/// One measured slice of a run. End-to-end metrics are medians over the
/// untraced slices, so a burst of interference from outside the process
/// moves one slice, not the result.
struct Slice {
  bool traced = false;
  double seconds = 0;
  double cpu_seconds = 0;
  std::uint64_t calls = 0;
  std::uint64_t cpu_ops = 0;  // what cpu_us_per_op divides by
  Samples call_us;            // untraced calls only
};

/// call_p50_us, calls_per_s and cpu_us_per_op (and the per-layer
/// bench.call_p90_us and bench.call_p99_us) as medians of the per-slice
/// values over `slices`' untraced slices.
void report_slices(Report& report, std::vector<Slice>& slices);

/// Repeat `setup()` at least 3 times and until a second of set-up has
/// passed (at most 15 times; once in a smoke run), then report setup_s as
/// the median duration. The caller keeps what the last call built.
template <typename Setup>
void repeat_setup(const Options& options, Report& report, Setup setup);

struct RunResult {
  Report report;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

// --------------------------------------------------------- program counters

/// Deltas of the process-wide psf.* registry since construction.
class ObsWindow {
 public:
  ObsWindow();
  std::uint64_t counter(const std::string& name) const;
  /// Bucket-count delta; percentiles interpolate inside the fixed buckets.
  psf::obs::Histogram::Snapshot histogram(const std::string& name) const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, psf::obs::Histogram::Snapshot> histograms_;
};

/// The per-layer metrics every workload reads the same way from program
/// counters over its measured window: dRBAC proof and cache work, planning,
/// coherence deltas, the VM's inline caches and fallbacks, and replay
/// rejections. `ops` is the calls completed in the window; `sessions` the
/// Psf::request sessions (0 if none).
void report_program_counters(Report& report, const ObsWindow& window,
                             std::uint64_t ops, std::uint64_t sessions);

/// Process user+system CPU seconds (getrusage).
double cpu_seconds();
/// The calling thread's CPU seconds.
double thread_cpu_seconds();
/// Peak resident set (VmHWM) in MB.
double peak_rss_mb();

double ratio(double num, double den);

/// A traced run alternates untraced and traced slices in ABBA order
/// (untraced, traced, traced, untraced, ...) so that a linear drift in the
/// workload's state cancels out of the traced-vs-untraced comparison.
/// trace_slices() is the slice count for `seconds`, a multiple of four.
int trace_slices(double seconds);
inline bool traced_slice(std::uint64_t index) {
  return index % 4 == 1 || index % 4 == 2;
}

// ---------------------------------------------------------------- tracing

/// One recorded span. Names are string literals.
struct Span {
  const char* name;
  const char* parent;  // nullptr for a root span
  std::uint64_t call;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

/// Spans written by one thread into its own buffer, merged at the end.
class SpanLog {
 public:
  explicit SpanLog(std::size_t threads);
  void add(std::size_t thread, const Span& span) {
    per_thread_[thread].push_back(span);
  }
  /// Chrome trace-event JSON ("X" events, microsecond timestamps).
  bool write_chrome(const std::string& path) const;

 private:
  std::vector<std::vector<Span>> per_thread_;
};

/// One row of the traced ledger: a layer's self time per call.
struct LedgerRow {
  const char* layer;
  Samples* self_us;
};

/// Print p50/p99 of each row's self time against the call's own p50 and
/// return the residual share |call p50 - sum of row p50s| / call p50.
double print_ledger(std::ostream& os, Samples& call_us,
                    const std::vector<LedgerRow>& rows);

// ------------------------------------------------------- coherence timing

/// Per-call accumulator for the coherence bracket, installed by whoever is
/// about to call into a view on this thread (nullptr = not tracing).
struct BracketFrame {
  std::uint64_t call = 0;
  bool sampled = false;  // keep spans for the Chrome trace
  std::uint64_t pull_ns = 0;
  std::uint64_t push_ns = 0;
  std::vector<Span> spans;
};
BracketFrame*& current_frame();

/// The view's CacheManager, as attach_cache_manager would install it, with
/// every bracket half (pull before, push after a wrapped method) timed when
/// a frame is active. Hooks re-entered from inside a coherence exchange are
/// not timed: the base class returns from them at once. Being a
/// CacheManager keeps VIG's dynamic_cast valid, so the generated coherence
/// natives behave exactly as with the base class.
class TimedCacheManager : public psf::views::CacheManager {
 public:
  using CacheManager::CacheManager;
  void before_method(psf::minilang::Instance& self,
                     const psf::minilang::MethodDef& method) override;
  void after_method(psf::minilang::Instance& self,
                    const psf::minilang::MethodDef& method) override;
};

// ------------------------------------------------------------- templates

double median_of(std::vector<double> values);

template <typename Setup>
void repeat_setup(const Options& options, Report& report, Setup setup) {
  std::vector<double> seconds;
  double total = 0;
  const std::size_t at_least = options.smoke ? 1 : 3;
  const double budget_s = options.smoke ? 0 : 1.0;
  while (seconds.size() < at_least ||
         (total < budget_s && seconds.size() < 15)) {
    const std::uint64_t t0 = now_ns();
    setup();
    seconds.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    total += seconds.back();
  }
  report.set("setup_s", median_of(seconds), seconds.size());
}

}  // namespace psfbench
