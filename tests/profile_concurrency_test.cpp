// Profiler concurrency torture (ISSUE 9 satellite): wraparound-style ring
// torture with concurrent report() drains (journal_concurrency_test
// precedent), start/stop/reconfigure races against live SIGPROF timers, and
// sampling interleaved with journal drains. Run under TSan by the sanitizer
// CI matrix; the assertions here are sanity floors — the real check is the
// absence of data-race reports.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/journal.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace profile = psf::obs::profile;
namespace journal = psf::obs::journal;
using psf::obs::ScopedSpan;

namespace {

/// Every ring slot a drain returns must be internally consistent: rooted at
/// a thread frame, within depth bounds, positive count.
void expect_sane(const profile::Report& report) {
  for (const auto& entry : report.entries) {
    ASSERT_FALSE(entry.frames.empty());
    EXPECT_EQ(entry.frames[0].rfind("thread:", 0), 0u)
        << "unrooted stack: " << entry.frames[0];
    EXPECT_LE(entry.frames.size(), 1 + profile::kMaxFrames);
    EXPECT_GT(entry.count, 0u);
    for (const auto& frame : entry.frames) {
      EXPECT_FALSE(frame.empty());
    }
  }
}

}  // namespace

// Writers lap the 2048-slot ring dozens of times while drainers fold it.
// The per-slot seqlock must discard slots overwritten mid-copy rather than
// return them torn (a torn slot shows up as a garbage frame pointer, which
// the sanity walk or ASan catches).
TEST(ProfileConcurrency, WraparoundTortureWithConcurrentDrains) {
  profile::register_thread("torture-main");
  profile::clear();
  constexpr int kWriters = 4;
  constexpr std::uint64_t kSamplesPerWriter = 50'000;  // ~24 ring laps each

  const std::uint64_t samples_before = profile::report().samples;
  std::atomic<int> writers_done{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([w, &writers_done] {
      const std::string name = "torture-" + std::to_string(w);
      profile::register_thread(name.c_str());
      for (std::uint64_t i = 0; i < kSamplesPerWriter; ++i) {
        ScopedSpan outer("torture.outer");
        if ((i & 1) != 0) {
          ScopedSpan inner("torture.inner");
          profile::sample_current_thread();
        } else {
          profile::sample_current_thread();
        }
      }
      profile::unregister_thread();
      writers_done.fetch_add(1);
    });
  }
  // Two drainers fold the rings continuously while the writers lap them.
  std::atomic<std::uint64_t> drains{0};
  for (int d = 0; d < 2; ++d) {
    threads.emplace_back([&writers_done, &drains] {
      while (writers_done.load() < kWriters) {
        const profile::Report report = profile::report();
        expect_sane(report);
        profile::to_speedscope_json(report);  // exercise the formatter too
        drains.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();

  const profile::Report final_report = profile::report();
  expect_sane(final_report);
  EXPECT_EQ(final_report.samples - samples_before,
            kWriters * kSamplesPerWriter + 0u);
  EXPECT_GT(drains.load(), 0u);
}

// start/stop/start with different intervals while registered threads burn
// CPU inside spans: the timers rearm/disarm under the control mutex while
// SIGPROF handlers race the reconfiguration, and report() races both.
TEST(ProfileConcurrency, StartStopReconfigureRaceUnderLoad) {
  profile::register_thread("torture-main");
  profile::clear();
  std::atomic<bool> stop_burning{false};
  std::vector<std::thread> burners;
  for (int b = 0; b < 3; ++b) {
    burners.emplace_back([b, &stop_burning] {
      const std::string name = "burner-" + std::to_string(b);
      profile::register_thread(name.c_str());
      volatile std::uint64_t sink = 0;
      while (!stop_burning.load(std::memory_order_relaxed)) {
        ScopedSpan span("torture.burn");
        for (int i = 0; i < 20'000; ++i) {
          sink = sink + static_cast<std::uint64_t>(i);
        }
      }
      profile::unregister_thread();
    });
  }
  std::thread reporter([&stop_burning] {
    while (!stop_burning.load(std::memory_order_relaxed)) {
      expect_sane(profile::report());
      psf::obs::status_json();
    }
  });

  // Rapid-fire lifecycle churn with changing intervals. Each start() while
  // running is a live retune of every armed timer.
  const std::uint64_t intervals[] = {500, 250, 1000, 125};
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(profile::start({.interval_us = intervals[i % 4]}));
    EXPECT_EQ(profile::interval_us(), intervals[i % 4]);
    if (i % 3 == 0) profile::stop();
  }
  profile::stop();
  EXPECT_FALSE(profile::running());

  stop_burning.store(true);
  for (auto& t : burners) t.join();
  reporter.join();
  expect_sane(profile::report());
}

// The journal's per-thread rings and the profiler's per-thread rings drain
// through different seqlock implementations on the same threads; sampling
// while journal writers emit and journal drainers merge must not deadlock
// or race (SIGPROF can land inside journal::emit in production).
TEST(ProfileConcurrency, SamplingDuringJournalDrain) {
  profile::register_thread("torture-main");
  profile::clear();
  journal::reset();
  constexpr int kWriters = 3;
  constexpr std::uint64_t kIters = 20'000;

  ASSERT_TRUE(profile::start({.interval_us = 500}));
  std::atomic<int> writers_done{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([w, &writers_done] {
      const std::string name = "mixed-" + std::to_string(w);
      profile::register_thread(name.c_str());
      for (std::uint64_t i = 0; i < kIters; ++i) {
        ScopedSpan span("torture.mixed");
        journal::emit(journal::Subsystem::kObs, 95,
                      journal::tag("torture.site"), 1, i);
        profile::sample_current_thread();
      }
      profile::unregister_thread();
      writers_done.fetch_add(1);
    });
  }
  // One journal drainer, one profile drainer, both racing the writers and
  // the armed SIGPROF timers.
  threads.emplace_back([&writers_done] {
    while (writers_done.load() < kWriters) {
      const auto events = journal::drain();
      for (const auto& e : events) {
        EXPECT_LE(e.subsystem, 4u);
      }
    }
  });
  threads.emplace_back([&writers_done] {
    while (writers_done.load() < kWriters) {
      expect_sane(profile::report());
    }
  });
  for (auto& t : threads) t.join();
  profile::stop();

  EXPECT_GE(journal::emitted(), kWriters * kIters);
  const profile::Report report = profile::report();
  expect_sane(report);
  // Synchronous samples all landed (SIGPROF overlap drops are counted, not
  // corrupted — and never exceed the timer tick budget of the run).
  EXPECT_GE(report.samples, kWriters * kIters);
}
