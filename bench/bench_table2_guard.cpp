// Table 2 reproduction: the 17 credentials the Guards generate for the
// three-site mail scenario, plus the three authorization flows of §3.3:
//   client authorization   (Bob -> Comp.NY.Member via (2)+(11)),
//   node authorization     (Comp.SD.PC -> Mail.Node via (13)+(5)),
//   component authorization(Mail client code -> Comp.SD.Executable via
//                           (8)+(14), CPU attenuated 100 -> 80).
// Timings cover the corresponding proof constructions, cold (caches
// cleared, the Cold benchmarks) and warm (fast path, the Warm benchmarks);
// the reproduction phase writes BENCH_table2_guard.json with both, and each
// warm time also as a ratio to a reference loop timed interleaved with it
// (`*.warm_ratio`, the figure a shared host's speed does not move).
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "bench_util.hpp"
#include "drbac/engine.hpp"
#include "drbac/proof_cache.hpp"
#include "mail/scenario.hpp"

namespace {

using namespace psf;
using drbac::Principal;
using mail::Scenario;

Scenario& scenario() {
  static Scenario s = mail::build_scenario();
  return s;
}

// The warm gates' yardstick: a warm prove's kind of work on non-drbac
// types — read the clock twice, build a string key, look it up in a hash
// map under a mutex, copy out an entry of two shared_ptr vectors and an
// attribute map, move it into a result, sort one vector, bump a counter.
// Host speed moves it and the prover alike; a slower prover moves only the
// prover.
class ReferenceLoop {
 public:
  ReferenceLoop() {
    for (int i = 0; i < kKeys; ++i) {
      Entry entry;
      for (int k = 0; k < 3; ++k) {
        entry.chain.push_back(std::make_shared<const std::string>(
            "credential-" + std::to_string(i * 8 + k)));
      }
      entry.support = {entry.chain[2], entry.chain[0]};
      entry.attributes["CPU"] = "[0, 80]";
      table_.emplace(key(i), std::move(entry));
    }
  }

  void operator()() {
    const auto start = std::chrono::steady_clock::now();
    Entry hit;
    {
      std::lock_guard<std::mutex> lock(mu_);
      hit = table_.at(key(next_++ % kKeys));
    }
    Entry result{std::move(hit.chain), std::move(hit.support),
                 std::move(hit.attributes)};
    std::sort(result.support.begin(), result.support.end());
    benchmark::DoNotOptimize(result);
    elapsed_ns_.fetch_add(static_cast<std::uint64_t>(
                              (std::chrono::steady_clock::now() - start)
                                  .count()),
                          std::memory_order_relaxed);
  }

 private:
  struct Entry {
    std::vector<std::shared_ptr<const std::string>> chain, support;
    std::map<std::string, std::string> attributes;
  };
  static constexpr int kKeys = 64;
  static std::string key(int i) {
    return "entity:client-" + std::to_string(i) + "|role:Comp.NY.Member|{}";
  }

  std::mutex mu_;
  std::unordered_map<std::string, Entry> table_;
  std::atomic<std::uint64_t> elapsed_ns_{0};
  int next_ = 0;
};

// The interleaved ratio measurement. The host's speed changes on a scale
// of milliseconds (another tenant on a sibling hyperthread, a frequency
// step), and in a slow stretch the prover loses more than the reference.
// So each warm call's rounds are spread over kRatioPasses passes across all
// calls, and the figure is the lower quartile of its per-round ratios: the
// ratio in the host's fast state whenever a quarter of the rounds see it.
constexpr int kRatioPasses = 20;
constexpr int kRatioRoundsPerPass = 10;
constexpr int kRatioBlock = 20;

/// A gated warm call and the per-round ratios gathered for it.
struct WarmCall {
  std::string key;
  std::function<void()> call;
  std::vector<double> ratios;
};

/// One round: kRatioBlock calls of `flow`, then as many reference calls
/// (reversed when `reference_first`), timed back to back; returns the
/// flow's time over the reference's.
double round_ratio(const std::function<void()>& flow, ReferenceLoop& reference,
                   bool reference_first) {
  const auto block_ns = [](auto&& fn) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kRatioBlock; ++i) fn();
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  double ref_ns = reference_first ? block_ns(reference) : 0;
  const double flow_ns = block_ns(flow);
  if (!reference_first) ref_ns = block_ns(reference);
  return flow_ns / ref_ns;
}

/// The value a quarter of the way up `values` (nearest rank below).
double lower_quartile(std::vector<double> values) {
  const auto at = values.begin() + static_cast<std::ptrdiff_t>(
                                       (values.size() - 1) / 4);
  std::nth_element(values.begin(), at, values.end());
  return *at;
}

/// Gather every call's rounds, pass by pass, and add each call's
/// `<key>.warm_ratio` to the report.
void report_warm_ratios(std::vector<WarmCall>& calls, bench::Report& report) {
  ReferenceLoop reference;
  for (WarmCall& w : calls) w.call();  // the caches the calls hit are warm
  for (int pass = 0; pass < kRatioPasses; ++pass) {
    for (WarmCall& w : calls) {
      for (int round = 0; round < kRatioRoundsPerPass; ++round) {
        w.ratios.push_back(round_ratio(w.call, reference, round % 2 == 1));
      }
    }
  }
  std::cout << "  warm calls as a multiple of the reference loop:\n";
  for (const WarmCall& w : calls) {
    const double ratio = lower_quartile(w.ratios);
    report.add(w.key + ".warm_ratio", ratio, "ratio",
               kRatioPasses * kRatioRoundsPerPass * kRatioBlock);
    std::cout << "    " << w.key << ": " << ratio << "\n";
  }
}

// Cold = raw search, no cache layer (the pre-fast-path numbers).
drbac::ProveOptions cold_options() {
  drbac::ProveOptions options;
  options.use_proof_cache = false;
  options.use_signature_cache = false;
  options.parallel_verify = false;
  return options;
}

void reproduce() {
  Scenario& s = scenario();
  std::cout << "  credentials generated by the Guard modules:\n";
  for (int i = 1; i <= 17; ++i) {
    std::cout << "    (" << i << ")\t" << s.cred(i)->display() << "\n";
  }
  drbac::Engine engine(&s.psf->repository());

  std::cout << "\n  client authorization:\n";
  auto bob = engine.prove(Principal::of_entity(s.bob),
                          s.ny->role("Member"), 0);
  std::cout << "    " << bob.value().display();

  std::cout << "  node authorization (+ property mapping):\n";
  drbac::ProveOptions node_opts;
  node_opts.required = {
      {"Secure", drbac::Attribute::make_set("Secure", {"true"})},
      {"Trust", drbac::Attribute::make_range("Trust", 5, 5)}};
  auto node = engine.prove(s.psf->node(Scenario::kSdPc)->principal(),
                           s.mail->role("Node"), 0, node_opts);
  std::cout << "    " << node.value().display();

  std::cout << "  component authorization (CPU attenuation 100 -> 80):\n";
  auto component = engine.prove(s.cred(8)->subject, s.sd->role("Executable"),
                                0);
  std::cout << "    " << component.value().display();

  std::cout << "  third-party chain (Charlie is Comp.NY.Partner):\n";
  auto charlie = engine.prove(Principal::of_entity(s.charlie),
                              s.ny->role("Partner"), 0);
  std::cout << "    " << charlie.value().display();

  // ---- Cold vs. warm per flow: BENCH_table2_guard.json ----
  bench::Report report("table2_guard");
  struct Flow {
    const char* name;
    Principal subject;
    drbac::RoleRef target;
    drbac::AttributeMap required;
  };
  const std::vector<Flow> flows = {
      {"client_bob", Principal::of_entity(s.bob), s.ny->role("Member"), {}},
      {"node_sd_pc",
       s.psf->node(Scenario::kSdPc)->principal(),
       s.mail->role("Node"),
       {{"Secure", drbac::Attribute::make_set("Secure", {"true"})}}},
      {"component_attenuated",
       s.cred(8)->subject,
       s.sd->role("Executable"),
       {{"CPU", drbac::Attribute::make_range("CPU", 0, 20)}}},
      {"third_party_charlie", Principal::of_entity(s.charlie),
       s.ny->role("Partner"), {}},
  };

  drbac::Repository& repo = s.psf->repository();
  std::vector<WarmCall> warm_calls;
  std::cout << "\n  cold vs warm proof times (fast path):\n";
  for (const Flow& flow : flows) {
    const int cold_iters = bench::iterations(20);
    drbac::ProveOptions cold = cold_options();
    cold.required = flow.required;
    const double cold_us = bench::time_us(cold_iters, [&] {
      auto proof = engine.prove(flow.subject, flow.target, 0, cold);
      benchmark::DoNotOptimize(proof);
    });

    repo.proof_cache().clear();
    drbac::SignatureCache::instance().clear();
    drbac::ProveOptions warm_opts;
    warm_opts.required = flow.required;
    (void)engine.prove(flow.subject, flow.target, 0, warm_opts);
    // Smoke mode times the full 2000 calls too (about 4 ms per flow): a
    // 20-call sample of a ~2 us call reads the host's noise, not the prover.
    const int warm_iters = 2000;
    const double warm_us = bench::time_us(warm_iters, [&] {
      auto proof = engine.prove(flow.subject, flow.target, 0, warm_opts);
      benchmark::DoNotOptimize(proof);
    });

    warm_calls.push_back({std::string(flow.name) + ".prove",
                          [&engine, flow, warm_opts] {
                            auto proof = engine.prove(flow.subject,
                                                      flow.target, 0,
                                                      warm_opts);
                            benchmark::DoNotOptimize(proof);
                          },
                          {}});

    report.add(std::string(flow.name) + ".prove.cold_us", cold_us, "us",
               cold_iters);
    report.add(std::string(flow.name) + ".prove.warm_us", warm_us, "us",
               warm_iters);
    report.derived(std::string(flow.name) + ".warm_speedup",
                   warm_us > 0 ? cold_us / warm_us : 0.0);
    std::cout << "    " << flow.name << ": cold " << cold_us << " us, warm "
              << warm_us << " us\n";
  }

  // Continuous authorization: revalidate an existing proof (heartbeat
  // path), cold signatures vs. SignatureCache steady state.
  {
    auto proof = engine.prove(Principal::of_entity(s.bob),
                              s.ny->role("Member"), 0);
    const int cold_iters = bench::iterations(20);
    const double cold_us = bench::time_us(cold_iters, [&] {
      drbac::SignatureCache::instance().clear();
      benchmark::DoNotOptimize(engine.validate(proof.value(), 0));
    });
    const int warm_iters = 2000;  // full count in smoke mode too, as above
    const double warm_us = bench::time_us(warm_iters, [&] {
      benchmark::DoNotOptimize(engine.validate(proof.value(), 0));
    });
    warm_calls.push_back({"revalidation",
                          [&engine, proof] {
                            benchmark::DoNotOptimize(
                                engine.validate(proof.value(), 0));
                          },
                          {}});
    report.add("revalidation.cold_us", cold_us, "us", cold_iters);
    report.add("revalidation.warm_us", warm_us, "us", warm_iters);
    report.derived("revalidation.warm_speedup",
                   warm_us > 0 ? cold_us / warm_us : 0.0);
    std::cout << "    revalidation: cold " << cold_us << " us, warm "
              << warm_us << " us\n";
  }
  report_warm_ratios(warm_calls, report);

  report.write();
}

void BM_ClientAuthorizationBobCold(benchmark::State& state) {
  Scenario& s = scenario();
  drbac::Engine engine(&s.psf->repository());
  for (auto _ : state) {
    auto proof = engine.prove(Principal::of_entity(s.bob),
                              s.ny->role("Member"), 0, cold_options());
    benchmark::DoNotOptimize(proof);
  }
}
BENCHMARK(BM_ClientAuthorizationBobCold);

void BM_ClientAuthorizationBobWarm(benchmark::State& state) {
  Scenario& s = scenario();
  drbac::Engine engine(&s.psf->repository());
  (void)engine.prove(Principal::of_entity(s.bob), s.ny->role("Member"), 0);
  for (auto _ : state) {
    auto proof =
        engine.prove(Principal::of_entity(s.bob), s.ny->role("Member"), 0);
    benchmark::DoNotOptimize(proof);
  }
}
BENCHMARK(BM_ClientAuthorizationBobWarm);

void BM_NodeAuthorizationSdPc(benchmark::State& state) {
  Scenario& s = scenario();
  drbac::Engine engine(&s.psf->repository());
  drbac::ProveOptions opts = cold_options();
  opts.required = {{"Secure", drbac::Attribute::make_set("Secure", {"true"})}};
  for (auto _ : state) {
    auto proof = engine.prove(s.psf->node(Scenario::kSdPc)->principal(),
                              s.mail->role("Node"), 0, opts);
    benchmark::DoNotOptimize(proof);
  }
}
BENCHMARK(BM_NodeAuthorizationSdPc);

void BM_ComponentAuthorizationWithAttenuation(benchmark::State& state) {
  Scenario& s = scenario();
  drbac::Engine engine(&s.psf->repository());
  drbac::ProveOptions opts = cold_options();
  opts.required = {{"CPU", drbac::Attribute::make_range("CPU", 0, 20)}};
  for (auto _ : state) {
    auto proof =
        engine.prove(s.cred(8)->subject, s.sd->role("Executable"), 0, opts);
    benchmark::DoNotOptimize(proof);
  }
}
BENCHMARK(BM_ComponentAuthorizationWithAttenuation);

void BM_ThirdPartyChainCharlie(benchmark::State& state) {
  Scenario& s = scenario();
  drbac::Engine engine(&s.psf->repository());
  for (auto _ : state) {
    auto proof = engine.prove(Principal::of_entity(s.charlie),
                              s.ny->role("Partner"), 0, cold_options());
    benchmark::DoNotOptimize(proof);
  }
}
BENCHMARK(BM_ThirdPartyChainCharlie);

void BM_ProofRevalidation(benchmark::State& state) {
  // Continuous authorization re-checks an existing proof (heartbeat path);
  // signatures come from the SignatureCache in steady state.
  Scenario& s = scenario();
  drbac::Engine engine(&s.psf->repository());
  auto proof =
      engine.prove(Principal::of_entity(s.bob), s.ny->role("Member"), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.validate(proof.value(), 0));
  }
}
BENCHMARK(BM_ProofRevalidation);

}  // namespace

int main(int argc, char** argv) {
  return psf::bench::run(
      argc, argv, "Table 2: Guard credentials and the Sec. 3.3 flows",
      reproduce);
}
