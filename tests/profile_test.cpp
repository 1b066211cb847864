// Sampling-profiler unit tests (ISSUE 9): span-stack capture, loop-phase
// and lock-site attribution, truncation, formatting, and one real SIGPROF
// round trip. Deterministic paths go through sample_current_thread(), which
// shares the append path with the signal handler.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "util/lock_rank.hpp"

namespace profile = psf::obs::profile;
using psf::obs::ScopedSpan;

namespace {

void register_test_thread() { profile::register_thread("test-main"); }

/// The report entry for the calling test's samples, or nullptr.
const profile::Report::Entry* find_entry(const profile::Report& report,
                                         const std::string& frame) {
  for (const auto& entry : report.entries) {
    for (const auto& f : entry.frames) {
      if (f == frame) return &entry;
    }
  }
  return nullptr;
}

}  // namespace

TEST(Profile, SampleCapturesSpanStackInOrder) {
  register_test_thread();
  profile::clear();
  {
    ScopedSpan outer("profile.test.outer");
    ScopedSpan inner("profile.test.inner");
    ASSERT_TRUE(profile::sample_current_thread());
  }
  const profile::Report report = profile::report();
  const auto* entry = find_entry(report, "profile.test.inner");
  ASSERT_NE(entry, nullptr);
  // Root-first: thread, then outermost span first.
  ASSERT_GE(entry->frames.size(), 3u);
  EXPECT_EQ(entry->frames[0], "thread:test-main");
  EXPECT_EQ(entry->frames[1], "profile.test.outer");
  EXPECT_EQ(entry->frames[2], "profile.test.inner");
  EXPECT_EQ(entry->count, 1u);
}

TEST(Profile, SampleWithNoOpenSpanIsJustTheThreadRoot) {
  register_test_thread();
  profile::clear();
  ASSERT_TRUE(profile::sample_current_thread());
  const profile::Report report = profile::report();
  ASSERT_FALSE(report.entries.empty());
  EXPECT_EQ(report.entries[0].frames,
            std::vector<std::string>{"thread:test-main"});
}

TEST(Profile, LoopPhaseAppearsAsPhaseFrame) {
  register_test_thread();
  profile::clear();
  profile::set_thread_phase(profile::LoopPhase::kTaskRun);
  {
    ScopedSpan span("profile.test.phased");
    ASSERT_TRUE(profile::sample_current_thread());
  }
  profile::set_thread_phase(profile::LoopPhase::kNone);
  const profile::Report report = profile::report();
  const auto* entry = find_entry(report, "profile.test.phased");
  ASSERT_NE(entry, nullptr);
  ASSERT_GE(entry->frames.size(), 3u);
  EXPECT_EQ(entry->frames[0], "thread:test-main");
  EXPECT_EQ(entry->frames[1], "phase:task_run");
  EXPECT_EQ(entry->frames[2], "profile.test.phased");
}

TEST(Profile, LoopPhaseNamesAreStable) {
  EXPECT_STREQ(profile::loop_phase_name(profile::LoopPhase::kNone), "none");
  EXPECT_STREQ(profile::loop_phase_name(profile::LoopPhase::kPollWait),
               "poll_wait");
  EXPECT_STREQ(profile::loop_phase_name(profile::LoopPhase::kFdDispatch),
               "fd_dispatch");
  EXPECT_STREQ(profile::loop_phase_name(profile::LoopPhase::kTaskRun),
               "task_run");
  EXPECT_STREQ(profile::loop_phase_name(profile::LoopPhase::kTimerFire),
               "timer_fire");
}

namespace {

// A mutex whose first try_lock refuses, forcing RankedMutex onto its
// contended path — where the wait slot must be published — and whose
// blocking lock() then samples: the deterministic stand-in for a SIGPROF
// landing while the thread is blocked on a ranked site.
struct SampleInLockMutex {
  bool refuse_once = true;
  bool sampled_in_lock = false;
  bool try_lock() {
    if (refuse_once) {
      refuse_once = false;
      return false;
    }
    return true;
  }
  void lock() { sampled_in_lock = profile::sample_current_thread(); }
  void unlock() {}
};

}  // namespace

TEST(Profile, BlockedOnRankedLockShowsLockLeafFrame) {
  register_test_thread();
  profile::clear();
  psf::util::RankedMutex<SampleInLockMutex> mu(
      psf::util::LockRank::kRepository, "profile.test.site");
  {
    ScopedSpan span("profile.test.locker");
    mu.lock();  // try_lock refuses once -> contended path -> sample inside
    mu.unlock();
  }
  const profile::Report report = profile::report();
  const auto* entry = find_entry(report, "lock:profile.test.site");
  ASSERT_NE(entry, nullptr);
  // The lock site is the leaf, under the span that was blocked.
  EXPECT_EQ(entry->frames.back(), "lock:profile.test.site");
  EXPECT_NE(find_entry(report, "profile.test.locker"), nullptr);

  // The slot was cleared on acquisition: a fresh sample has no lock frame.
  profile::clear();
  ASSERT_TRUE(profile::sample_current_thread());
  EXPECT_EQ(find_entry(profile::report(), "lock:profile.test.site"), nullptr);
}

TEST(Profile, DeepStackTruncatesKeepingOutermostFrames) {
  register_test_thread();
  profile::clear();
  const std::uint64_t truncated_before = profile::report().truncated;
  // 20 nested spans > kMaxFrames (12) and > the 16-entry name stack.
  std::vector<std::unique_ptr<ScopedSpan>> spans;
  static const char* kNames[20] = {
      "d00", "d01", "d02", "d03", "d04", "d05", "d06", "d07", "d08", "d09",
      "d10", "d11", "d12", "d13", "d14", "d15", "d16", "d17", "d18", "d19"};
  for (const char* name : kNames) {
    spans.push_back(std::make_unique<ScopedSpan>(name));
  }
  ASSERT_TRUE(profile::sample_current_thread());
  spans.clear();  // unwind pops depth back to zero symmetrically

  const profile::Report report = profile::report();
  EXPECT_EQ(report.truncated, truncated_before + 1);
  const auto* entry = find_entry(report, "d00");
  ASSERT_NE(entry, nullptr);
  // thread root + kMaxFrames outermost spans, nothing deeper.
  EXPECT_EQ(entry->frames.size(), 1 + profile::kMaxFrames);
  EXPECT_EQ(entry->frames[1], "d00");
  EXPECT_EQ(entry->frames.back(), "d11");
  EXPECT_EQ(find_entry(report, "d12"), nullptr);

  // The symmetric pop left the stack healthy: a fresh shallow sample works.
  profile::clear();
  {
    ScopedSpan span("profile.test.after_deep");
    ASSERT_TRUE(profile::sample_current_thread());
  }
  EXPECT_NE(find_entry(profile::report(), "profile.test.after_deep"),
            nullptr);
}

TEST(Profile, FoldedTextAndSpeedscopeJsonRenderTheEntries) {
  register_test_thread();
  profile::clear();
  {
    ScopedSpan a("profile.test.fold_a");
    profile::sample_current_thread();
    profile::sample_current_thread();
  }
  {
    ScopedSpan b("profile.test.fold_b");
    profile::sample_current_thread();
  }
  const profile::Report report = profile::report();
  const std::string json = profile::to_speedscope_json(report);
  EXPECT_NE(
      json.find(
          "\"$schema\":\"https://www.speedscope.app/file-format-schema.json\""),
      std::string::npos);
  EXPECT_NE(json.find("\"type\":\"sampled\""), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"profile.test.fold_a\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"endValue\":3"), std::string::npos);
  // One weight per folded stack, highest count first.
  EXPECT_NE(json.find("\"weights\":[2,1]"), std::string::npos) << json;
}

TEST(Profile, ClearRewindsEntriesButKeepsCumulativeCounters) {
  register_test_thread();
  profile::sample_current_thread();
  const std::uint64_t total = profile::report().samples;
  ASSERT_GT(total, 0u);
  profile::clear();
  const profile::Report report = profile::report();
  EXPECT_TRUE(report.entries.empty());
  EXPECT_EQ(report.samples, total);  // counters are monotonic
}

TEST(Profile, RealTimerSamplesABusySpanAndStopsCleanly) {
  register_test_thread();
  profile::clear();
  const std::uint64_t before = profile::report().samples;
  ASSERT_TRUE(profile::start({.interval_us = 500}));
  EXPECT_TRUE(profile::running());
  EXPECT_EQ(profile::interval_us(), 500u);

  // CPU-time timers are serviced at kernel-tick granularity (~4-10 ms), so
  // burn CPU until at least two ticks worth of samples landed. Generous
  // wall deadline for sanitizer builds.
  volatile std::uint64_t sink = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::uint64_t after = before;
  while (after < before + 2 &&
         std::chrono::steady_clock::now() < deadline) {
    ScopedSpan span("profile.test.busy");
    for (int i = 0; i < 100'000; ++i) sink = sink + static_cast<std::uint64_t>(i);
    after = profile::report().samples;
  }
  profile::stop();
  EXPECT_FALSE(profile::running());
  ASSERT_GE(after, before + 2) << "no SIGPROF samples after 10s of CPU burn";

  // The busy span dominates the captured profile.
  EXPECT_NE(find_entry(profile::report(), "profile.test.busy"), nullptr);

  // Stopped means stopped: no new samples accrue while parked.
  const std::uint64_t parked = profile::report().samples;
  volatile std::uint64_t sink2 = 0;
  for (int i = 0; i < 2'000'000; ++i) {
    sink2 = sink2 + static_cast<std::uint64_t>(i);
  }
  EXPECT_EQ(profile::report().samples, parked);
}

TEST(Profile, RestartWhileRunningReconfiguresInterval) {
  register_test_thread();
  ASSERT_TRUE(profile::start({.interval_us = 1000}));
  EXPECT_EQ(profile::interval_us(), 1000u);
  ASSERT_TRUE(profile::start({.interval_us = 250}));  // reconfigure in place
  EXPECT_EQ(profile::interval_us(), 250u);
  EXPECT_TRUE(profile::running());
  profile::stop();
}

TEST(Profile, UnregisteredThreadCannotSample) {
  std::atomic<bool> sampled{true};
  std::thread t([&] { sampled.store(profile::sample_current_thread()); });
  t.join();
  EXPECT_FALSE(sampled.load());
}

TEST(Profile, EmptyReportStillRendersValidDocuments) {
  const profile::Report empty;
  const std::string json = profile::to_speedscope_json(empty);
  EXPECT_NE(json.find("\"frames\":[]"), std::string::npos);
  EXPECT_NE(json.find("\"endValue\":0"), std::string::npos);
}
