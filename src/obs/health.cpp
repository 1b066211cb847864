#include "obs/health.hpp"

#include <algorithm>
#include <exception>
#include <sstream>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace psf::obs {

const char* health_level_name(HealthLevel level) {
  switch (level) {
    case HealthLevel::kOk: return "ok";
    case HealthLevel::kDegraded: return "degraded";
    case HealthLevel::kFailing: return "failing";
  }
  return "unknown";
}

HealthRegistry& HealthRegistry::instance() {
  static HealthRegistry* registry = new HealthRegistry();  // never destroyed
  return *registry;
}

HealthRegistry::Token HealthRegistry::add(std::string name, Check check) {
  std::lock_guard<std::mutex> lock(mutex_);
  const Token token = next_token_++;
  checks_.emplace(token, std::make_pair(std::move(name), std::move(check)));
  return token;
}

void HealthRegistry::remove(Token token) {
  std::lock_guard<std::mutex> lock(mutex_);
  checks_.erase(token);
}

namespace {

/// (total, bad) observations of `hist` against a threshold.
std::pair<std::uint64_t, std::uint64_t> counts_over(const Histogram& hist,
                                                    std::int64_t threshold_us) {
  const Histogram::Snapshot snap = hist.snapshot();
  std::uint64_t good = 0;
  for (std::size_t i = 0; i < snap.bounds.size(); ++i) {
    if (snap.bounds[i] <= threshold_us) good += snap.bucket_counts[i];
  }
  return {snap.count, snap.count - std::min(good, snap.count)};
}

std::uint64_t saturating_sub(std::uint64_t a, std::uint64_t b) {
  return a >= b ? a - b : a;  // b > a means the base predates a reset
}

}  // namespace

HealthRegistry::Token HealthRegistry::add_latency_objective(
    const std::string& name, const std::string& histogram_name,
    std::int64_t threshold_us) {
  Histogram& hist = histogram(histogram_name);
  hist.set_exemplar_threshold(threshold_us);
  const auto [base_total, base_bad] = counts_over(hist, threshold_us);
  return add("slo." + name, [&hist, threshold_us, base_total = base_total,
                             base_bad = base_bad] {
    const auto [now_total, now_bad] = counts_over(hist, threshold_us);
    // Saturating: Registry::reset() may zero the histogram underneath.
    const std::uint64_t total = saturating_sub(now_total, base_total);
    const std::uint64_t bad = saturating_sub(now_bad, base_bad);
    const double burn =
        total == 0 ? 0.0
                   : static_cast<double>(bad) / static_cast<double>(total) /
                         (1.0 - kObjectiveTarget);
    std::ostringstream os;
    os << "burn " << burn << " (" << bad << "/" << total << " over "
       << threshold_us << "us, target " << kObjectiveTarget * 100.0 << "%)";
    if (total < kObjectiveMinSamples) {
      return CheckResult::ok("warming up: " + os.str());
    }
    if (burn >= kObjectiveFailingBurn) return CheckResult::failing(os.str());
    if (burn >= 1.0) return CheckResult::degraded(os.str());
    return CheckResult::ok(os.str());
  });
}

HealthReport HealthRegistry::report() const {
  // Copy the checks out so a check body can add/remove registrations (e.g. a
  // teardown triggered by a probe) without deadlocking on mutex_.
  std::vector<std::pair<std::string, Check>> checks;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    checks.reserve(checks_.size());
    for (const auto& [token, entry] : checks_) checks.push_back(entry);
  }
  HealthReport report;
  report.entries.reserve(checks.size());
  for (auto& [name, check] : checks) {
    CheckResult result;
    try {
      result = check();
    } catch (const std::exception& e) {
      result = CheckResult::failing(std::string("check threw: ") + e.what());
    } catch (...) {
      result = CheckResult::failing("check threw a non-std exception");
    }
    report.overall = std::max(report.overall, result.level);
    report.entries.push_back({std::move(name), std::move(result)});
  }
  std::sort(report.entries.begin(), report.entries.end(),
            [](const HealthReport::Entry& a, const HealthReport::Entry& b) {
              return a.name < b.name;
            });
  return report;
}

std::size_t HealthRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return checks_.size();
}

void HealthRegistry::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  checks_.clear();
}

namespace {

std::string percent(double fraction) {
  std::ostringstream os;
  os << static_cast<long long>(fraction * 1000.0 + 0.5) / 10.0 << "%";
  return os.str();
}

/// Ring-drop-rate check shared by the journal and span collector: dropping a
/// little is the flight recorder working as designed; dropping most of what
/// is written means the window is too small to be useful.
CheckResult drop_rate(std::uint64_t total, std::uint64_t dropped,
                      const char* what) {
  if (total == 0) return CheckResult::ok("no " + std::string(what) + " yet");
  const double rate = static_cast<double>(dropped) / static_cast<double>(total);
  std::ostringstream os;
  os << dropped << "/" << total << " " << what << " overwritten ("
     << percent(rate) << ")";
  if (rate > 0.5) return CheckResult::failing(os.str());
  if (rate > 0.1) return CheckResult::degraded(os.str());
  return CheckResult::ok(os.str());
}

/// Cache hit-rate floor: only meaningful once the cache has seen real
/// traffic; a cold cache is OK, a busy cache missing half its lookups means
/// something (epoch churn, undersized map) is defeating it.
CheckResult hit_rate_floor(Counter& hits, Counter& misses, const char* what) {
  const std::uint64_t h = hits.value();
  const std::uint64_t m = misses.value();
  const std::uint64_t lookups = h + m;
  if (lookups < 100) {
    return CheckResult::ok(std::string(what) + " warming up (" +
                           std::to_string(lookups) + " lookups)");
  }
  const double rate = static_cast<double>(h) / static_cast<double>(lookups);
  std::ostringstream os;
  os << what << " hit rate " << percent(rate) << " over " << lookups
     << " lookups";
  if (rate < 0.5) return CheckResult::degraded(os.str());
  return CheckResult::ok(os.str());
}

}  // namespace

void install_builtin_checks() {
  static const bool installed = [] {
    HealthRegistry& registry = HealthRegistry::instance();
    registry.add("obs.journal.drop-rate", [] {
      // Key on HARD drops only: events displaced from a thread ring but
      // absorbed by the overflow ring (soft drops) are still drainable — a
      // burst the flight recorder handled is not a health problem.
      CheckResult result = drop_rate(journal::emitted(),
                                     journal::hard_dropped(),
                                     "journal events");
      const std::uint64_t soft = journal::soft_dropped();
      if (soft > 0) {
        result.reason += " (" + std::to_string(soft) +
                         " absorbed by overflow ring)";
      }
      return result;
    });
    registry.add("obs.spans.drop-rate", [] {
      const SpanCollector& spans = SpanCollector::instance();
      return drop_rate(spans.recorded(), spans.dropped(), "spans");
    });
    registry.add("drbac.sigcache.hit-rate", [] {
      return hit_rate_floor(counter("psf.drbac.sigcache.hits"),
                            counter("psf.drbac.sigcache.misses"), "sigcache");
    });
    registry.add("drbac.proofcache.hit-rate", [] {
      return hit_rate_floor(counter("psf.drbac.proofcache.hits"),
                            counter("psf.drbac.proofcache.misses"),
                            "proofcache");
    });
    registry.add("switchboard.revocation-lag", [] {
      // Every suspension (revocation or heartbeat validate failure) should
      // eventually be answered by a revalidate or a teardown. Suspensions
      // that are neither indicate a stuck revocation monitor.
      const std::uint64_t suspended =
          counter("psf.switchboard.suspensions").value();
      const std::uint64_t revalidated =
          counter("psf.switchboard.revalidations").value();
      const std::uint64_t teardowns =
          counter("psf.switchboard.teardowns").value();
      const std::uint64_t resolved = revalidated + teardowns;
      std::ostringstream os;
      os << suspended << " suspensions, " << revalidated << " revalidated, "
         << teardowns << " torn down";
      if (suspended > resolved) return CheckResult::degraded(os.str());
      return CheckResult::ok(os.str());
    });
    registry.add_latency_objective("switchboard.rpc", "psf.switchboard.rpc_us",
                                   500);
    registry.add_latency_objective("drbac.prove", "psf.drbac.prove_us", 1000);
    registry.add_latency_objective("views.sync",
                                   "psf.views.cache.pull_wait_us", 500);
    // A task posted to a loop should start within 1 ms: sustained sojourn
    // above that means the loop is saturated or a handler hogs it.
    registry.add_latency_objective("loop.lag", "psf.loop.task_sojourn_us",
                                   1000);
    return true;
  }();
  (void)installed;
}

namespace {

void append_json_escaped(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xF] << hex[c & 0xF];
        } else {
          os << c;
        }
    }
  }
}

}  // namespace

std::string health_to_json(const HealthReport& report) {
  std::ostringstream os;
  os << "{\"status\": \"" << health_level_name(report.overall)
     << "\", \"checks\": [";
  bool first = true;
  for (const HealthReport::Entry& entry : report.entries) {
    if (!first) os << ", ";
    first = false;
    os << "{\"name\": \"";
    append_json_escaped(os, entry.name);
    os << "\", \"status\": \"" << health_level_name(entry.result.level)
       << "\", \"reason\": \"";
    append_json_escaped(os, entry.result.reason);
    os << "\"}";
  }
  os << "]}";
  return os.str();
}

std::string health_to_text(const HealthReport& report) {
  std::ostringstream os;
  os << "node status: " << health_level_name(report.overall) << "\n";
  for (const HealthReport::Entry& entry : report.entries) {
    os << "  [" << health_level_name(entry.result.level) << "] " << entry.name;
    if (!entry.result.reason.empty()) os << " — " << entry.result.reason;
    os << "\n";
  }
  return os.str();
}

}  // namespace psf::obs
