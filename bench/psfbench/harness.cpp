#include "harness.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

namespace psfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ------------------------------------------------------------------ samples

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::percentile(double p) {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values_.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values_.size()))) - 1;
  return values_[index];
}

// ------------------------------------------------------------------ metrics

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"call_p50_us", "us"}, {"calls_per_s", "1/s"}, {"cpu_us_per_op", "us"},
      {"setup_s", "s"},      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"switchboard.transport_p50_us", "us"},
      {"switchboard.transport_p99_us", "us"},
      {"switchboard.bytes_per_call", "B"},
      {"switchboard.frames_per_batch", "count"},
      {"switchboard.loop_busy_frac", "frac"},
      {"switchboard.loop_lag_p99_us", "us"},
      {"switchboard.session_open_p50_us", "us"},
      {"switchboard.handshake_p50_us", "us"},
      {"switchboard.replay_rejections", "count"},
      {"crypto.seal_unseal_p50_ns", "ns"},
      {"dispatch.handler_p50_us", "us"},
      {"dispatch.handler_p99_us", "us"},
      {"minilang.codec_p50_us", "us"},
      {"minilang.exec_p50_us", "us"},
      {"minilang.ic_hit_frac", "frac"},
      {"minilang.interp_fallbacks", "count"},
      {"views.pull_p50_us", "us"},
      {"views.pull_p99_us", "us"},
      {"views.push_p50_us", "us"},
      {"views.push_p99_us", "us"},
      {"views.delta_bytes_per_call", "B"},
      {"views.full_sync_frac", "frac"},
      {"views.origin_list_len_end", "count"},
      {"views.vig_cache_hit_frac", "frac"},
      {"psf.select_view_p50_us", "us"},
      {"psf.plan_p50_us", "us"},
      {"psf.request_unattributed_frac", "frac"},
      {"psf.session_p50_ms", "ms"},
      {"psf.session_p99_ms", "ms"},
      {"psf.sessions_per_s", "1/s"},
      {"psf.revoke_to_deny_p50_us", "us"},
      {"drbac.prove_p50_us", "us"},
      {"drbac.prove_p99_us", "us"},
      {"drbac.proofcache_hit_frac", "frac"},
      {"drbac.proofcache_invalidations_per_session", "count"},
      {"drbac.sigcache_hit_frac", "frac"},
      {"drbac.credentials_examined_per_prove", "count"},
      {"drbac.revoke_p50_us", "us"},
      {"drbac.repo_credentials_end", "count"},
      {"obs.journal_events_per_op", "count"},
      {"obs.journal_hard_drops", "count"},
      {"bench.call_p90_us", "us"},
      {"bench.call_p99_us", "us"},
      {"bench.gen_late_p99_us", "us"},
      {"bench.ledger_residual_frac", "frac"},
      {"bench.trace_overhead_pct", "%"},
      {"bench.failed_frac", "frac"},
  };
  return defs;
}

namespace {

const char* unit_of(const std::string& name) {
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& def : *defs) {
      if (name == def.name) return def.unit;
    }
  }
  return "";
}

/// JSON number with every digit the double carries; non-finite reads 0.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::set(const std::string& name, double value,
                 std::uint64_t samples, const std::string& unit) {
  entries_[name] = Entry{value, samples, unit.empty() ? unit_of(name) : unit};
}

void Report::print_table(std::ostream& os, const std::string& title) const {
  os << "== " << title << " ==\n";
  for (const auto& [name, entry] : entries_) {
    os << "  " << std::left << std::setw(44) << name << std::right
       << std::setw(16) << std::setprecision(6) << entry.value << " "
       << std::left << std::setw(6) << entry.unit << std::right
       << "  n=" << entry.samples << "\n";
  }
}

void Report::print_all(std::ostream& os) const {
  std::ostringstream line;
  line << "{\"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : entries_) {
    line << (first ? "" : ", ") << "\"" << name
         << "\": {\"value\": " << json_number(entry.value) << ", \"unit\": \""
         << entry.unit << "\", \"samples\": " << entry.samples << "}";
    first = false;
  }
  line << "}}";
  os << line.str() << std::endl;
}

void Report::print_result(std::ostream& os, bool traced, bool correct,
                          std::uint64_t attempted,
                          std::uint64_t failed) const {
  const auto& defs = traced ? per_layer_metrics() : end_to_end_metrics();
  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(attempted, 1)
       << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    auto it = entries_.find(defs[i].name);
    const double value = it == entries_.end() ? 0 : it->second.value;
    line << (i == 0 ? "" : ", ") << "\"" << defs[i].name
         << "\": {\"value\": " << json_number(value) << ", \"unit\": \""
         << defs[i].unit << "\"}";
  }
  line << "}}";
  os << line.str() << std::endl;
}

void report_slices(Report& report, std::vector<Slice>& slices) {
  std::vector<double> p50, p90, p99, rate, cpu;
  std::uint64_t samples = 0, calls = 0, cpu_ops = 0;
  for (Slice& slice : slices) {
    if (slice.traced) continue;
    p50.push_back(slice.call_us.percentile(50));
    p90.push_back(slice.call_us.percentile(90));
    p99.push_back(slice.call_us.percentile(99));
    rate.push_back(ratio(static_cast<double>(slice.calls), slice.seconds));
    cpu.push_back(ratio(slice.cpu_seconds * 1e6,
                        static_cast<double>(slice.cpu_ops)));
    samples += slice.call_us.size();
    calls += slice.calls;
    cpu_ops += slice.cpu_ops;
  }
  report.set("call_p50_us", median_of(p50), samples);
  report.set("bench.call_p90_us", median_of(p90), samples);
  report.set("bench.call_p99_us", median_of(p99), samples);
  report.set("calls_per_s", median_of(rate), calls);
  report.set("cpu_us_per_op", median_of(cpu), cpu_ops);
}

double median_of(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// --------------------------------------------------------- program counters

ObsWindow::ObsWindow() {
  for (auto& entry : psf::obs::Registry::instance().snapshot().entries) {
    using Kind = psf::obs::MetricsSnapshot::Entry::Kind;
    if (entry.kind == Kind::kCounter) {
      counters_[entry.name] = static_cast<std::uint64_t>(entry.value);
    } else if (entry.kind == Kind::kHistogram) {
      histograms_[entry.name] = std::move(entry.histogram);
    }
  }
}

std::uint64_t ObsWindow::counter(const std::string& name) const {
  const std::uint64_t now = psf::obs::counter(name).value();
  auto it = counters_.find(name);
  return now - (it == counters_.end() ? 0 : it->second);
}

psf::obs::Histogram::Snapshot ObsWindow::histogram(
    const std::string& name) const {
  psf::obs::Histogram::Snapshot delta =
      psf::obs::histogram(name).snapshot();
  auto it = histograms_.find(name);
  if (it == histograms_.end()) return delta;
  const auto& base = it->second;
  delta.count -= base.count;
  delta.sum -= base.sum;
  for (std::size_t i = 0;
       i < delta.bucket_counts.size() && i < base.bucket_counts.size(); ++i) {
    delta.bucket_counts[i] -= base.bucket_counts[i];
  }
  return delta;
}

void report_program_counters(Report& report, const ObsWindow& window,
                             std::uint64_t ops, std::uint64_t sessions) {
  auto count = [&](const char* name) {
    return static_cast<double>(window.counter(name));
  };
  auto share = [&](const char* hit, const char* miss) {
    const double hits = count(hit);
    return ratio(hits, hits + count(miss));
  };
  const auto prove = window.histogram("psf.drbac.prove_us");
  report.set("drbac.prove_p50_us", static_cast<double>(prove.percentile(50)),
             prove.count);
  report.set("drbac.prove_p99_us", static_cast<double>(prove.percentile(99)),
             prove.count);
  report.set("drbac.proofcache_hit_frac",
             share("psf.drbac.proofcache.hits", "psf.drbac.proofcache.misses"),
             prove.count);
  report.set("drbac.proofcache_invalidations_per_session",
             ratio(count("psf.drbac.proofcache.invalidations"),
                   static_cast<double>(sessions)),
             sessions);
  report.set("drbac.sigcache_hit_frac",
             share("psf.drbac.sigcache.hits", "psf.drbac.sigcache.misses"),
             prove.count);
  report.set("drbac.credentials_examined_per_prove",
             ratio(count("psf.drbac.credentials.examined"),
                   count("psf.drbac.proofs.attempted")),
             prove.count);
  const auto plan = window.histogram("psf.planner.plan_us");
  report.set("psf.plan_p50_us", static_cast<double>(plan.percentile(50)),
             plan.count);
  report.set("views.delta_bytes_per_call",
             ratio(static_cast<double>(
                       window.histogram("psf.views.cache.delta.bytes").sum),
                   static_cast<double>(ops)),
             ops);
  report.set("views.full_sync_frac",
             ratio(count("psf.views.cache.delta.full_syncs"),
                   count("psf.views.cache.pulls") +
                       count("psf.views.cache.pushes")),
             ops);
  report.set("minilang.ic_hit_frac",
             share("psf.minilang.ic_hits", "psf.minilang.ic_misses"), ops);
  report.set("minilang.interp_fallbacks",
             count("psf.minilang.interp_fallbacks"), ops);
  report.set("switchboard.replay_rejections",
             count("psf.switchboard.replay.rejections"), ops);
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

int trace_slices(double seconds) {
  return 4 * std::max(1, static_cast<int>(std::lround(seconds / 4)));
}

// ---------------------------------------------------------------- tracing

SpanLog::SpanLog(std::size_t threads) : per_thread_(threads) {}

bool SpanLog::write_chrome(const std::string& path) const {
  std::uint64_t base = UINT64_MAX;
  for (const auto& spans : per_thread_) {
    for (const Span& s : spans) base = std::min(base, s.start_ns);
  }
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  bool first = true;
  char buf[96];
  for (std::size_t tid = 0; tid < per_thread_.size(); ++tid) {
    for (const Span& s : per_thread_[tid]) {
      out << (first ? "\n" : ",\n");
      first = false;
      std::snprintf(buf, sizeof(buf), "%.3f, \"dur\": %.3f",
                    static_cast<double>(s.start_ns - base) / 1000.0,
                    static_cast<double>(s.end_ns - s.start_ns) / 1000.0);
      out << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, "
          << "\"tid\": " << tid << ", \"ts\": " << buf
          << ", \"args\": {\"call\": " << s.call << ", \"parent\": \""
          << (s.parent != nullptr ? s.parent : "") << "\"}}";
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double print_ledger(std::ostream& os, Samples& call_us,
                    const std::vector<LedgerRow>& rows) {
  const double call_p50 = call_us.percentile(50);
  os << "== ledger: self time per call (us), n=" << call_us.size() << " ==\n"
     << "  " << std::left << std::setw(18) << "layer" << std::right
     << std::setw(10) << "p50" << std::setw(10) << "p99" << std::setw(10)
     << "share" << "\n";
  double attributed = 0;
  os << std::fixed << std::setprecision(2);
  for (const LedgerRow& row : rows) {
    const double p50 = row.self_us->percentile(50);
    attributed += p50;
    os << "  " << std::left << std::setw(18) << row.layer << std::right
       << std::setw(10) << p50 << std::setw(10) << row.self_us->percentile(99)
       << std::setw(9) << 100.0 * ratio(p50, call_p50) << "%\n";
  }
  const double residual = call_p50 - attributed;
  os << "  " << std::left << std::setw(18) << "residual" << std::right
     << std::setw(10) << residual << std::setw(10) << "" << std::setw(9)
     << 100.0 * ratio(residual, call_p50) << "%\n"
     << "  " << std::left << std::setw(18) << "call" << std::right
     << std::setw(10) << call_p50 << std::setw(10) << call_us.percentile(99)
     << "\n";
  os.unsetf(std::ios::fixed);
  return ratio(std::abs(residual), call_p50);
}

// ------------------------------------------------------- coherence timing

BracketFrame*& current_frame() {
  thread_local BracketFrame* frame = nullptr;
  return frame;
}

namespace {

/// Times one outermost bracket half; records even when the half throws
/// (a revoked session's pull fails inside it).
class BracketTimer {
 public:
  BracketTimer(BracketFrame* frame, const char* name, std::uint64_t& total)
      : frame_(frame), name_(name), total_(total), start_(now_ns()) {}
  ~BracketTimer() {
    const std::uint64_t end = now_ns();
    total_ += end - start_;
    if (frame_->sampled) {
      frame_->spans.push_back({name_, "view.call", frame_->call, start_, end});
    }
  }
  BracketTimer(const BracketTimer&) = delete;
  BracketTimer& operator=(const BracketTimer&) = delete;

 private:
  BracketFrame* frame_;
  const char* name_;
  std::uint64_t& total_;
  std::uint64_t start_;
};

}  // namespace

void TimedCacheManager::before_method(psf::minilang::Instance& self,
                                      const psf::minilang::MethodDef& method) {
  BracketFrame* frame = current_frame();
  if (frame == nullptr || in_coherence()) {
    CacheManager::before_method(self, method);
    return;
  }
  BracketTimer timer(frame, "coherence.pull", frame->pull_ns);
  CacheManager::before_method(self, method);
}

void TimedCacheManager::after_method(psf::minilang::Instance& self,
                                     const psf::minilang::MethodDef& method) {
  BracketFrame* frame = current_frame();
  if (frame == nullptr || in_coherence()) {
    CacheManager::after_method(self, method);
    return;
  }
  BracketTimer timer(frame, "coherence.push", frame->push_ns);
  CacheManager::after_method(self, method);
}

}  // namespace psfbench
