// Flight recorder + health plane (ISSUE 4 tentpole, parts a and b).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "obs/export.hpp"
#include "obs/health.hpp"
#include "obs/journal.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace psf::obs {
namespace {

namespace j = journal;

// ---------------------------------------------------------------- journal

TEST(Journal, EmitDrainRoundTripsTypedFields) {
  j::reset();
  j::emit(j::Subsystem::kSwitchboard, j::kSwEstablish, j::tag("a-host"),
          j::tag("b-host"), 777);
  j::emit(j::Subsystem::kDrbac, j::kDrEpochBump, 5, 42, 1);

  const auto events = j::drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].subsystem,
            static_cast<std::uint16_t>(j::Subsystem::kSwitchboard));
  EXPECT_EQ(events[0].code, j::kSwEstablish);
  EXPECT_EQ(events[0].args[0], j::tag("a-host"));
  EXPECT_EQ(events[0].args[1], j::tag("b-host"));
  EXPECT_EQ(events[0].args[2], 777u);
  EXPECT_EQ(events[0].args[3], 0u);  // unused arity stays zero
  EXPECT_EQ(events[1].code, j::kDrEpochBump);
  EXPECT_LE(events[0].t_ns, events[1].t_ns);
  // Same emitting thread for both.
  EXPECT_EQ(events[0].thread, events[1].thread);
}

TEST(Journal, EmitCapturesCurrentSpanContext) {
  j::reset();
  TraceId trace = 0;
  SpanId span = 0;
  {
    ScopedSpan s("test.journal");
    trace = s.context().trace_id;
    span = s.context().span_id;
    j::emit(j::Subsystem::kPsf, j::kPsRequestOk, 1);
  }
  j::emit(j::Subsystem::kPsf, j::kPsRequestFailed, 2);  // outside any span

  const auto events = j::drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].trace_id, trace);
  EXPECT_EQ(events[0].span_id, span);
  EXPECT_EQ(events[1].trace_id, 0u);
}

TEST(Journal, DrainMergesThreadsInTimeOrder) {
  j::reset();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  {
    util::ThreadPool pool(kThreads);
    std::vector<std::future<void>> done;
    for (int t = 0; t < kThreads; ++t) {
      done.push_back(pool.submit([t] {
        for (int i = 0; i < kPerThread; ++i) {
          j::emit(j::Subsystem::kObs, 99, static_cast<std::uint64_t>(t),
                  static_cast<std::uint64_t>(i));
        }
      }));
    }
    for (auto& f : done) f.get();
  }
  const auto events = j::drain();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].t_ns, events[i].t_ns) << "merge out of order";
  }
  // Each thread's own events kept their per-thread emit order.
  std::vector<std::uint64_t> next_index(kThreads, 0);
  for (const auto& e : events) {
    const auto t = static_cast<std::size_t>(e.args[0]);
    ASSERT_LT(t, next_index.size());
    EXPECT_EQ(e.args[1], next_index[t]);
    ++next_index[t];
  }
}

TEST(Journal, OverflowAbsorbsBurstWithSoftNotHardDrops) {
  j::reset();
  const std::uint64_t emitted_before = j::emitted();
  const std::uint64_t soft_before = j::soft_dropped();
  const std::uint64_t hard_before = j::hard_dropped();
  constexpr std::uint64_t kTotal = 5000;  // > one ring (4096)
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    j::emit(j::Subsystem::kObs, 99, i);
  }
  EXPECT_EQ(j::emitted() - emitted_before, kTotal);
  // The 904 events the ring displaced were absorbed by the overflow ring:
  // soft drops, still drainable. Nothing was lost for good.
  EXPECT_EQ(j::soft_dropped() - soft_before, kTotal - 4096);
  EXPECT_EQ(j::hard_dropped() - hard_before, 0u);

  const auto events = j::drain();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kTotal));
  // Every event survived, still oldest-first, no duplicates.
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    EXPECT_EQ(events[i].args[0], i);
  }
}

TEST(Journal, DisablingOverflowMakesDisplacementsHard) {
  j::reset();
  j::set_overflow_capacity(0);
  const std::uint64_t soft_before = j::soft_dropped();
  const std::uint64_t hard_before = j::hard_dropped();
  constexpr std::uint64_t kTotal = 4200;
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    j::emit(j::Subsystem::kObs, 99, i);
  }
  EXPECT_EQ(j::soft_dropped() - soft_before, 0u);
  EXPECT_EQ(j::hard_dropped() - hard_before, kTotal - 4096);

  const auto events = j::drain();
  ASSERT_EQ(events.size(), 4096u);
  // Only the ring window survives: newest 4096, oldest-first.
  EXPECT_EQ(events.front().args[0], kTotal - 4096);
  EXPECT_EQ(events.back().args[0], kTotal - 1);

  j::set_overflow_capacity(16384);  // restore the default for later tests
  EXPECT_EQ(j::overflow_capacity(), 16384u);
}

TEST(Journal, TailReturnsNewestOldestFirst) {
  j::reset();
  for (std::uint64_t i = 0; i < 10; ++i) j::emit(j::Subsystem::kObs, 99, i);
  const auto last3 = j::tail(3);
  ASSERT_EQ(last3.size(), 3u);
  EXPECT_EQ(last3[0].args[0], 7u);
  EXPECT_EQ(last3[2].args[0], 9u);
  EXPECT_EQ(j::tail(100).size(), 10u);  // n beyond size: everything
  EXPECT_TRUE(j::tail(0).empty());
}

TEST(Journal, DisabledGateSuppressesEmit) {
  j::reset();
  const std::uint64_t before = j::emitted();
  j::set_enabled(false);
  j::emit(j::Subsystem::kObs, 99, 1);
  j::set_enabled(true);
  EXPECT_EQ(j::emitted(), before);
  EXPECT_TRUE(j::drain().empty());
  j::emit(j::Subsystem::kObs, 99, 2);
  EXPECT_EQ(j::emitted(), before + 1);
}

TEST(Journal, TagIsStableAndCollisionFreeOnTaxonomyNames) {
  EXPECT_EQ(j::tag("ny-server"), j::tag("ny-server"));
  EXPECT_NE(j::tag("ny-server"), j::tag("ny-pc"));
  EXPECT_NE(j::tag(""), 0u);  // offset basis, not zero
  // FNV-1a is fixed for all time: a drain from another host must agree.
  EXPECT_EQ(j::tag("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(Journal, FormatEventNamesSubsystemAndCode) {
  j::Event e;
  e.subsystem = static_cast<std::uint16_t>(j::Subsystem::kSwitchboard);
  e.code = j::kSwReplayReject;
  e.args[0] = 17;
  e.trace_id = 0xabc;
  const std::string line = j::format_event(e);
  EXPECT_NE(line.find("Switchboard/replay-reject"), std::string::npos) << line;
  EXPECT_NE(line.find("0x11"), std::string::npos) << line;
  EXPECT_NE(line.find("trace="), std::string::npos) << line;
  // Unknown codes degrade to decimal, never crash.
  e.subsystem = 200;
  e.code = 31;
  EXPECT_NE(j::format_event(e).find("200/31"), std::string::npos);
}

TEST(Journal, DumpWritesMergedJournalToFile) {
  j::reset();
  j::emit(j::Subsystem::kViews, j::kViVigGenerate, j::tag("ViewX"));
  const std::string path = ::testing::TempDir() + "journal_dump_test.txt";
  ASSERT_TRUE(j::dump(path));
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("Views/vig-generate"), std::string::npos);
  std::remove(path.c_str());
  EXPECT_FALSE(j::dump("/nonexistent-dir/x/y/journal.txt"));
}

TEST(Journal, FaultDumpWritesBannerAndNewestEvents) {
  j::reset();
  for (std::uint64_t i = 0; i < 300; ++i) j::emit(j::Subsystem::kObs, 99, i);
  std::ostringstream os;
  j::write_fault_dump(os, 4);
  const std::string text = os.str();
  EXPECT_NE(text.find("flight recorder"), std::string::npos);
  EXPECT_NE(text.find("0x129"), std::string::npos) << text;  // 297
  EXPECT_EQ(text.find("0x7 "), std::string::npos);  // old events truncated
}

TEST(Journal, JournalJsonShape) {
  j::reset();
  j::emit(j::Subsystem::kSwitchboard, j::kSwTeardown, j::tag("a"), j::tag("b"),
          j::tag("closed"));
  const std::string json = journal_to_json(j::drain());
  EXPECT_NE(json.find("journal-v1"), std::string::npos);
  EXPECT_NE(json.find("\"subsystem\": \"Switchboard\""), std::string::npos);
  EXPECT_NE(json.find("\"event\": \"teardown\""), std::string::npos);
  EXPECT_NE(json.find("\"event_count\": 1"), std::string::npos);
}

// ----------------------------------------------------------------- health

TEST(Health, RollupIsWorstCheckAndEntriesSortByName) {
  HealthRegistry registry;
  EXPECT_EQ(registry.report().overall, HealthLevel::kOk);  // empty = OK

  registry.add("zeta", [] { return CheckResult::ok("fine"); });
  EXPECT_EQ(registry.report().overall, HealthLevel::kOk);

  registry.add("alpha", [] { return CheckResult::degraded("slow"); });
  EXPECT_EQ(registry.report().overall, HealthLevel::kDegraded);

  const auto token = registry.add("mid", [] {
    return CheckResult::failing("down");
  });
  HealthReport report = registry.report();
  EXPECT_EQ(report.overall, HealthLevel::kFailing);
  ASSERT_EQ(report.entries.size(), 3u);
  EXPECT_EQ(report.entries[0].name, "alpha");
  EXPECT_EQ(report.entries[1].name, "mid");
  EXPECT_EQ(report.entries[2].name, "zeta");
  EXPECT_EQ(report.entries[1].result.reason, "down");

  registry.remove(token);
  EXPECT_EQ(registry.report().overall, HealthLevel::kDegraded);
  EXPECT_EQ(registry.size(), 2u);
  registry.clear();
  EXPECT_EQ(registry.size(), 0u);
}

TEST(Health, ThrowingCheckReportsFailingNotTerminate) {
  HealthRegistry registry;
  registry.add("bomb", []() -> CheckResult {
    throw std::runtime_error("probe exploded");
  });
  const HealthReport report = registry.report();
  EXPECT_EQ(report.overall, HealthLevel::kFailing);
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_NE(report.entries[0].result.reason.find("probe exploded"),
            std::string::npos);
}

TEST(Health, ChecksMayMutateRegistryWithoutDeadlock) {
  HealthRegistry registry;
  HealthRegistry::Token doomed = registry.add("self-removing", [] {
    return CheckResult::ok();
  });
  registry.add("mutator", [&registry, doomed] {
    registry.remove(doomed);  // re-entrant call during report()
    return CheckResult::ok("removed a sibling");
  });
  EXPECT_EQ(registry.report().overall, HealthLevel::kOk);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(Health, DuplicateNamesGetIndependentTokens) {
  HealthRegistry registry;
  const auto t1 = registry.add("switchboard.conn.a-b",
                               [] { return CheckResult::ok(); });
  const auto t2 = registry.add("switchboard.conn.a-b", [] {
    return CheckResult::degraded("suspended");
  });
  EXPECT_NE(t1, t2);
  EXPECT_EQ(registry.report().entries.size(), 2u);
  registry.remove(t1);
  const auto report = registry.report();
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_EQ(report.entries[0].result.level, HealthLevel::kDegraded);
}

TEST(Health, BuiltinChecksInstallOnceAndReportOnQuietProcess) {
  install_builtin_checks();
  const std::size_t size = HealthRegistry::instance().size();
  install_builtin_checks();  // idempotent
  EXPECT_EQ(HealthRegistry::instance().size(), size);
  EXPECT_GE(size, 5u);  // journal/span drops, two cache floors, revocation lag

  const HealthReport report = HealthRegistry::instance().report();
  bool saw_journal = false;
  for (const auto& entry : report.entries) {
    if (entry.name == "obs.journal.drop-rate") saw_journal = true;
    // A quiet test process has no failing built-in signal.
    EXPECT_NE(entry.result.level, HealthLevel::kFailing) << entry.name;
  }
  EXPECT_TRUE(saw_journal);
}

TEST(Status, DocumentCarriesHealthRowsAndProfilerCounters) {
  HealthRegistry& registry = HealthRegistry::instance();
  const HealthRegistry::Token token = registry.add(
      "test.cache", [] { return CheckResult::degraded("cold\t\"start\""); });
  profile::register_thread("status-test");
  ASSERT_TRUE(profile::sample_current_thread());
  const std::string json = status_json();
  registry.remove(token);
  profile::unregister_thread();

  EXPECT_EQ(json.rfind("{\n  \"schema\": \"status-v1\",", 0), 0u) << json;
  // The worst row (at least this one's DEGRADED) is the node status.
  EXPECT_EQ(json.find("\"health\": {\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"test.cache\", \"status\": \"degraded\", "
                      "\"reason\": \"cold\\t\\\"start\\\"\"}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"name\": \"status-test\", \"samples\": 1, "
                      "\"truncated\": 0, \"dropped\": 0}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"profile\": {\"running\": false"), std::string::npos);
}

}  // namespace
}  // namespace psf::obs
