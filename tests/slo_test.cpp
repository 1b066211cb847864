// Latency objectives on the health plane: HealthRegistry's
// add_latency_objective() arms the histogram's exemplar threshold and
// registers an `slo.<name>` check that judges error-budget burn since the
// objective was added (target 99%, FAILING at burn 10, warming up below 100
// observations), and install_builtin_checks() adds the framework's four.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/health.hpp"
#include "obs/metrics.hpp"

namespace psf::obs {
namespace {

/// Every entry registered under `name`, counted.
std::size_t count_checks(const HealthReport& report, const std::string& name) {
  std::size_t n = 0;
  for (const auto& entry : report.entries) n += entry.name == name ? 1 : 0;
  return n;
}

/// The entry registered as `name`, or nullptr.
const HealthReport::Entry* find_check(const HealthReport& report,
                                      const std::string& name) {
  for (const auto& entry : report.entries) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

TEST(Slo, DeclareArmsExemplarThresholdAndRegistersHealthCheck) {
  HealthRegistry& health = HealthRegistry::instance();
  Histogram& h = histogram("test.slo.arm_us");
  h.set_exemplar_threshold(INT64_MAX);

  const HealthRegistry::Token token =
      health.add_latency_objective("test.arm", "test.slo.arm_us", 500);

  EXPECT_EQ(h.exemplar_threshold(), 500);
  const HealthReport report = health.report();
  const auto* check = find_check(report, "slo.test.arm");
  ASSERT_NE(check, nullptr);
  // Cold operation: warming up, OK.
  EXPECT_EQ(check->result.level, HealthLevel::kOk);
  health.remove(token);
  EXPECT_EQ(find_check(health.report(), "slo.test.arm"), nullptr);
}

TEST(Slo, BurnRateCountsObservationsAboveThreshold) {
  HealthRegistry& health = HealthRegistry::instance();
  Histogram& h = histogram("test.slo.burn_us");
  // Observations before the objective exists are not judged.
  for (int i = 0; i < 50; ++i) h.observe(5000);

  // 500us is on the decade grid, so the bucket accounting is exact.
  const HealthRegistry::Token token =
      health.add_latency_objective("test.burn", "test.slo.burn_us", 500);

  // 97 good and 2 bad: burn 2, but below kObjectiveMinSamples it only warms.
  for (int i = 0; i < 97; ++i) h.observe(10);
  h.observe(600);
  h.observe(700);
  const HealthReport warm_report = health.report();
  const auto* warming = find_check(warm_report, "slo.test.burn");
  ASSERT_NE(warming, nullptr);
  EXPECT_EQ(warming->result.level, HealthLevel::kOk);
  EXPECT_EQ(warming->result.reason.rfind("warming up: ", 0), 0u)
      << warming->result.reason;

  // The 100th: 98 good, 2 bad -> bad fraction 2%, budget 1%, burn 2.
  h.observe(10);
  const HealthReport report = health.report();
  const auto* check = find_check(report, "slo.test.burn");
  ASSERT_NE(check, nullptr);
  EXPECT_EQ(check->result.level, HealthLevel::kDegraded);
  EXPECT_NE(check->result.reason.find("burn 2 (2/100 over 500us"),
            std::string::npos)
      << check->result.reason;
  health.remove(token);
}

TEST(Slo, FailingBurnEscalatesHealthToFailing) {
  HealthRegistry& health = HealthRegistry::instance();
  Histogram& h = histogram("test.slo.failing_us");
  for (int i = 0; i < 300; ++i) h.observe(10);

  const HealthRegistry::Token token =
      health.add_latency_objective("test.failing", "test.slo.failing_us", 500);

  // Registry::reset() zeroes the histogram underneath the objective, whose
  // base (300 observations) now predates the reset: the counts since the
  // reset are judged as they are instead of underflowing.
  Registry::instance().reset();
  for (int i = 0; i < 85; ++i) h.observe(10);
  for (int i = 0; i < 15; ++i) h.observe(5000);
  // bad fraction 15%, budget 1%: burn 15 >= kObjectiveFailingBurn.
  const HealthReport report = health.report();
  const auto* check = find_check(report, "slo.test.failing");
  ASSERT_NE(check, nullptr);
  EXPECT_EQ(check->result.level, HealthLevel::kFailing);
  EXPECT_NE(check->result.reason.find("(15/100 over 500us"), std::string::npos)
      << check->result.reason;
  health.remove(token);
}

TEST(Slo, BuiltinSlosDeclareTheStandardTriple) {
  install_builtin_checks();
  install_builtin_checks();  // idempotent
  const HealthReport report = HealthRegistry::instance().report();
  for (const char* name : {"slo.switchboard.rpc", "slo.drbac.prove",
                           "slo.views.sync", "slo.loop.lag"}) {
    EXPECT_EQ(count_checks(report, name), 1u) << name;
    // A quiet process must not fail its objectives.
    const auto* check = find_check(report, name);
    ASSERT_NE(check, nullptr) << name;
    EXPECT_EQ(check->result.level, HealthLevel::kOk) << name;
  }
  EXPECT_EQ(histogram("psf.switchboard.rpc_us").exemplar_threshold(), 500);
  EXPECT_EQ(histogram("psf.drbac.prove_us").exemplar_threshold(), 1000);
  EXPECT_EQ(histogram("psf.views.cache.pull_wait_us").exemplar_threshold(),
            500);
  EXPECT_EQ(histogram("psf.loop.task_sojourn_us").exemplar_threshold(), 1000);
}

}  // namespace
}  // namespace psf::obs
