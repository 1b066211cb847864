// Health plane (ISSUE 4 tentpole, health half): a process-wide registry of
// named health checks, each a closure reporting OK / DEGRADED / FAILING with
// a human-readable reason, rolled up into one node status (the worst check
// wins). Checks are registered by the layer that owns the signal —
// Switchboard registers one per live connection, install_builtin_checks()
// derives the rest from the metrics registry (journal/span drop rates, cache
// hit-rate floors, revocation-monitor lag, latency objectives) — and removed
// via their token when the owner goes away. report() never blocks a hot
// path: checks read atomics and snapshots.
//
// A latency objective ("99% of observations of histogram h are <= t us") is
// one more check, `slo.<name>`, judged by its error-budget burn rate:
// burn = (bad / total) / (1 - 0.99) over the observations since the
// objective was added. Burn < 1 is inside budget (OK), >= 1 spends it
// faster than it accrues (DEGRADED), >= 10 blows it quickly (FAILING);
// fewer than 100 observations is warming up (OK).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace psf::obs {

enum class HealthLevel { kOk = 0, kDegraded = 1, kFailing = 2 };

/// Every latency objective's target fraction, FAILING burn rate, and the
/// observations it needs before it judges at all.
inline constexpr double kObjectiveTarget = 0.99;
inline constexpr double kObjectiveFailingBurn = 10.0;
inline constexpr std::uint64_t kObjectiveMinSamples = 100;

const char* health_level_name(HealthLevel level);

struct CheckResult {
  HealthLevel level = HealthLevel::kOk;
  std::string reason;  // empty for OK is fine; always set when not OK

  static CheckResult ok(std::string reason = "") {
    return {HealthLevel::kOk, std::move(reason)};
  }
  static CheckResult degraded(std::string reason) {
    return {HealthLevel::kDegraded, std::move(reason)};
  }
  static CheckResult failing(std::string reason) {
    return {HealthLevel::kFailing, std::move(reason)};
  }
};

struct HealthReport {
  struct Entry {
    std::string name;
    CheckResult result;
  };
  HealthLevel overall = HealthLevel::kOk;  // worst entry (OK when empty)
  std::vector<Entry> entries;              // sorted by name
};

class HealthRegistry {
 public:
  using Check = std::function<CheckResult()>;
  using Token = std::uint64_t;  // 0 is never a live token

  /// The process-wide registry (what the Introspect component serves).
  static HealthRegistry& instance();

  HealthRegistry() = default;
  HealthRegistry(const HealthRegistry&) = delete;
  HealthRegistry& operator=(const HealthRegistry&) = delete;

  /// Register a named check. Names need not be unique (two connections
  /// between the same hosts each get their own row); the token identifies
  /// the registration.
  Token add(std::string name, Check check);
  void remove(Token token);

  /// Register `slo.<name>`: kObjectiveTarget of the observations `histogram`
  /// receives from now on must be <= threshold_us. Also arms the
  /// histogram's exemplar threshold there, so the observations that burn
  /// the budget are the ones whose traces get pinned. Thresholds should sit
  /// on the {1,2,5}x10^k bucket edges: a bucket counts as good iff its
  /// upper edge is <= threshold_us.
  Token add_latency_objective(const std::string& name,
                              const std::string& histogram,
                              std::int64_t threshold_us);

  /// Run every check and roll up. A check that throws reports FAILING with
  /// the exception text — a health probe must never take the node down.
  HealthReport report() const;

  std::size_t size() const;
  void clear();  // tests

 private:
  mutable std::mutex mutex_;
  std::uint64_t next_token_ = 1;
  std::map<Token, std::pair<std::string, Check>> checks_;
};

/// Register the standard process-derived checks on the global registry
/// (idempotent):
///   obs.journal.drop-rate      journal hard drops vs emitted (events the
///                              overflow ring absorbed do not count)
///   obs.spans.drop-rate        span-collector evictions vs recorded
///   drbac.sigcache.hit-rate    SignatureCache floor (needs >=100 lookups)
///   drbac.proofcache.hit-rate  ProofCache floor (needs >=100 lookups)
///   switchboard.revocation-lag suspensions not yet revalidated
/// and the latency objectives:
///   slo.switchboard.rpc  secure RPCs (psf.switchboard.rpc_us) <= 500us
///   slo.drbac.prove      delegation proofs (psf.drbac.prove_us) <= 1ms
///   slo.views.sync       coherence pulls (psf.views.cache.pull_wait_us)
///                        <= 500us
///   slo.loop.lag         event-loop task sojourns
///                        (psf.loop.task_sojourn_us) <= 1ms
void install_builtin_checks();

}  // namespace psf::obs
