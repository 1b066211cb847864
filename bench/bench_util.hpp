// Shared helpers for the benchmark binaries: every binary prints its paper
// reproduction first (so `./bench_*` regenerates the table), then runs the
// google-benchmark timings.
//
// Machine-readable output (ISSUE 2): benchmarks that track a perf
// trajectory write a `BENCH_<id>.json` snapshot (schema `psf-bench-v1`,
// documented in EXPERIMENTS.md) via Report. Two environment variables shape
// a run:
//   PSF_BENCH_SMOKE=1     reduced iteration counts and google-benchmark
//                         skipped — the CI bench-smoke mode; the JSON is
//                         still written (context.smoke records the mode).
//   PSF_BENCH_JSON_DIR=d  directory for BENCH_*.json (default: cwd).
#pragma once

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace psf::bench {

/// True when PSF_BENCH_SMOKE is set to a non-zero value.
inline bool smoke_mode() {
  const char* env = std::getenv("PSF_BENCH_SMOKE");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

/// Iteration count for hand-rolled measurement loops: `full` normally, a
/// token few in smoke mode (CI checks shape, not noise-free numbers).
inline int iterations(int full, int smoke = 3) {
  return smoke_mode() ? smoke : full;
}

/// Average wall-clock microseconds per call of `fn` over `iters` calls.
inline double time_us(int iters, const std::function<void()>& fn) {
  if (iters <= 0) return 0.0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
             elapsed)
             .count() /
         static_cast<double>(iters);
}

/// Heap bytes in use, summed over every malloc arena (glibc mallinfo2), so
/// allocations made on worker threads count too. Memory ledgers take deltas
/// of it; operator new is left alone so timings stay unperturbed.
inline std::size_t heap_in_use() {
#if defined(__GLIBC__)
  return mallinfo2().uordblks;
#else
  return 0;
#endif
}

/// Accumulates named measurements and writes `BENCH_<id>.json`. Every
/// future PR reads the previous snapshot as its perf baseline, so the
/// schema is append-only: new fields may be added, existing ones keep their
/// meaning.
class Report {
 public:
  explicit Report(std::string id) : id_(std::move(id)) {}

  /// Record one measurement. `unit` is free-form but "us" (microseconds per
  /// operation) is the convention; `iters` is how many operations the value
  /// was averaged over.
  void add(const std::string& name, double value, const std::string& unit,
           long iters = 1) {
    measurements_.push_back({name, value, unit, iters});
  }

  /// Record a dimensionless derived figure (a ratio such as a speedup).
  void derived(const std::string& name, double value) {
    derived_.emplace_back(name, value);
  }

  std::string json() const {
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(3);
    const auto now_s =
        std::chrono::duration_cast<std::chrono::seconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    os << "{\n";
    os << "  \"schema\": \"psf-bench-v1\",\n";
    os << "  \"bench\": \"" << id_ << "\",\n";
    os << "  \"context\": {\"unix_time\": " << now_s
       << ", \"smoke\": " << (smoke_mode() ? "true" : "false") << "},\n";
    os << "  \"measurements\": [\n";
    for (std::size_t i = 0; i < measurements_.size(); ++i) {
      const Measurement& m = measurements_[i];
      os << "    {\"name\": \"" << m.name << "\", \"value\": " << m.value
         << ", \"unit\": \"" << m.unit << "\", \"iterations\": " << m.iters
         << "}" << (i + 1 < measurements_.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"derived\": {";
    for (std::size_t i = 0; i < derived_.size(); ++i) {
      os << "\"" << derived_[i].first << "\": " << derived_[i].second
         << (i + 1 < derived_.size() ? ", " : "");
    }
    os << "}\n";
    os << "}\n";
    return os.str();
  }

  std::string path() const {
    const char* dir = std::getenv("PSF_BENCH_JSON_DIR");
    const std::string prefix =
        (dir != nullptr && *dir != '\0') ? std::string(dir) + "/" : "";
    return prefix + "BENCH_" + id_ + ".json";
  }

  /// Write the snapshot; announces the path on stdout so bench logs record
  /// where the trajectory point went.
  void write() const {
    const std::string file = path();
    std::ofstream out(file);
    out << json();
    std::cout << "\n  wrote " << file << "\n";
  }

 private:
  struct Measurement {
    std::string name;
    double value;
    std::string unit;
    long iters;
  };
  std::string id_;
  std::vector<Measurement> measurements_;
  std::vector<std::pair<std::string, double>> derived_;
};

/// Print the reproduction banner + body, then hand over to google-benchmark
/// (skipped in smoke mode — the reproduction phase already wrote the JSON
/// snapshot, which is all CI validates).
inline int run(int argc, char** argv, const std::string& title,
               const std::function<void()>& reproduce) {
  std::cout << "==================================================\n"
            << "  " << title << "\n"
            << "==================================================\n";
  reproduce();
  if (smoke_mode()) {
    std::cout << "\n-- timings skipped (PSF_BENCH_SMOKE) --\n";
    return 0;
  }
  std::cout << "\n-- timings --\n";
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace psf::bench
