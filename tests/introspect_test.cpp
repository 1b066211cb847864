// Remote introspection served through a view (ISSUE 4 tentpole, part c):
// the Introspect component is a normal PSF service, so who sees which slice
// of the observability surface is decided by the same ACL -> view -> VIG ->
// Switchboard machinery as any other component. Admin.Monitor gets the full
// surface, Admin.Viewer a metrics+health-only view (the deep methods do not
// exist on its generated class), everyone else is denied by the ACL.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "mail/scenario.hpp"
#include "obs/journal.hpp"
#include "obs/trace.hpp"
#include "psf/introspect.hpp"

namespace psf::framework {
namespace {

using mail::Scenario;
using minilang::EvalError;
using minilang::Value;

// Scenario + installed introspection service + a little real traffic so the
// journal and span surfaces have content.
struct World {
  Scenario s = mail::build_scenario();
  Psf& psf = *s.psf;
  IntrospectOptions options;

  World() {
    options.node = Scenario::kNyServer;
    auto installed = install_introspection(psf, options);
    EXPECT_TRUE(installed.ok())
        << (installed.ok() ? "" : installed.error().message);
    auto alice = psf.request(s.request_for(s.alice, Scenario::kNyPc));
    EXPECT_TRUE(alice.ok());
    if (alice.ok()) {
      alice.value().view->call("getPhone", {Value::string("alice")});
      alice.value().connection->heartbeat();
    }
  }

  ClientRequest request_as(const std::string& who, const std::string& role) {
    Guard* admin = psf.guard(options.domain);
    ClientRequest request;
    request.client_node = Scenario::kNyPc;
    request.service = options.service_name;
    request.identity = admin->create_principal(who);
    if (!role.empty()) {
      request.credentials = {admin->grant(
          drbac::Principal::of_entity(request.identity), role)};
    }
    return request;
  }
};

TEST(Introspect, MonitorGetsFullSurfaceOverSwitchboard) {
  World w;
  auto session = w.psf.request(w.request_as("Operator", "Monitor"));
  ASSERT_TRUE(session.ok()) << session.error().message;
  EXPECT_EQ(session.value().view_name, "ViewIntrospect_Admin");
  // Genuinely remote: the view runs on the client node and reaches the
  // origin over an authenticated channel.
  EXPECT_EQ(session.value().provider_node, Scenario::kNyServer);
  EXPECT_NE(session.value().connection, nullptr);
  auto& view = *session.value().view;

  const std::string metrics = view.call("metrics_snapshot", {}).as_string();
  EXPECT_NE(metrics.find("metrics-snapshot-v1"), std::string::npos);
  EXPECT_NE(metrics.find("psf.obs.journal.events"), std::string::npos);

  const std::string health = view.call("health", {}).as_string();
  EXPECT_NE(health.find("\"status\""), std::string::npos);
  EXPECT_NE(health.find("obs.journal.drop-rate"), std::string::npos);

  const std::string tail =
      view.call("journal_tail", {Value::integer(200)}).as_string();
  EXPECT_NE(tail.find("journal-v1"), std::string::npos);
  // The workload journaled real events: at minimum VIG generations and the
  // Switchboard establishes that carried this very query.
  EXPECT_NE(tail.find("vig-generate"), std::string::npos) << tail;
  EXPECT_NE(tail.find("establish"), std::string::npos);
  EXPECT_EQ(tail.find("\"event_count\": 0"), std::string::npos);
}

TEST(Introspect, JournalTailBoundsTheWindow) {
  World w;
  auto session = w.psf.request(w.request_as("Operator", "Monitor"));
  ASSERT_TRUE(session.ok());
  const std::string three = session.value()
                                .view->call("journal_tail", {Value::integer(3)})
                                .as_string();
  EXPECT_NE(three.find("\"event_count\": 3"), std::string::npos) << three;
  // A negative n clamps to zero rather than erroring across the wire.
  const std::string none = session.value()
                               .view->call("journal_tail", {Value::integer(-5)})
                               .as_string();
  EXPECT_NE(none.find("\"event_count\": 0"), std::string::npos);
}

TEST(Introspect, SpansForTraceFiltersThroughTheView) {
  World w;
  auto session = w.psf.request(w.request_as("Operator", "Monitor"));
  ASSERT_TRUE(session.ok());
  auto& view = *session.value().view;

  // Find a real cross-host trace, then ask the remote surface for it.
  obs::TraceId trace = 0;
  for (const auto& span : obs::SpanCollector::instance().snapshot()) {
    if (span.name == "switchboard.dispatch") trace = span.trace_id;
  }
  ASSERT_NE(trace, 0u);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(trace));
  const std::string spans =
      view.call("spans_for_trace", {Value::string(hex)}).as_string();
  EXPECT_NE(spans.find("spans-v1"), std::string::npos);
  EXPECT_EQ(spans.find("\"span_count\": 0"), std::string::npos) << spans;

  // Garbage ids parse to "no trace" and return an empty, well-formed set.
  const std::string empty =
      view.call("spans_for_trace", {Value::string("not-hex!")}).as_string();
  EXPECT_NE(empty.find("\"span_count\": 0"), std::string::npos);
}

TEST(Introspect, ViewerViewOmitsTheDeepMethodsEntirely) {
  World w;
  auto session = w.psf.request(w.request_as("Auditor", "Viewer"));
  ASSERT_TRUE(session.ok()) << session.error().message;
  EXPECT_EQ(session.value().view_name, "ViewIntrospect_Basic");
  auto& view = *session.value().view;

  // The permitted half works...
  EXPECT_NE(view.call("metrics_snapshot", {}).as_string().find(
                "metrics-snapshot-v1"),
            std::string::npos);
  EXPECT_NE(view.call("health", {}).as_string().find("\"status\""),
            std::string::npos);
  // ...and the deep half is not attenuated-but-present, it is absent: the
  // generated class never had the methods, so there is nothing to bypass.
  EXPECT_THROW(view.call("journal_tail", {Value::integer(5)}), EvalError);
  EXPECT_THROW(view.call("spans_for_trace", {Value::string("0")}), EvalError);
  EXPECT_THROW(view.call("profile_status", {}), EvalError);
  EXPECT_THROW(view.call("profile_dump", {}), EvalError);
}

TEST(Introspect, MonitorSeesSloAndContentionSurfaces) {
  World w;
  auto session = w.psf.request(w.request_as("Operator", "Monitor"));
  ASSERT_TRUE(session.ok()) << session.error().message;
  auto& view = *session.value().view;

  // install_introspection installed the builtin checks, the four latency
  // objectives among them; the workload has already pushed secure RPCs
  // through psf.switchboard.rpc_us. Objectives answer as health rows.
  const std::string health = view.call("health", {}).as_string();
  for (const char* row : {"slo.switchboard.rpc", "slo.drbac.prove",
                          "slo.views.sync", "slo.loop.lag"}) {
    EXPECT_NE(health.find(std::string("{\"name\": \"") + row + "\""),
              std::string::npos)
        << row << " in " << health;
  }
  EXPECT_NE(health.find("over 500us, target 99%"), std::string::npos)
      << health;
  // There is no separate objective or contention surface to ask.
  EXPECT_THROW(view.call("slo_status", {}), EvalError);
  EXPECT_THROW(view.call("lock_contention", {}), EvalError);

  // Where callers block is the profiler's answer (lock:<site> leaf
  // frames), on the same deep interface: a status document and a
  // speedscope dump (empty profile when nothing is registered — the
  // formatters always render valid documents).
  const std::string profile = view.call("profile_status", {}).as_string();
  EXPECT_NE(profile.find("\"version\":\"profile-v1\""), std::string::npos);
  const std::string dump = view.call("profile_dump", {}).as_string();
  EXPECT_NE(dump.find("speedscope.app/file-format-schema.json"),
            std::string::npos);
}

TEST(Introspect, UncredentialedCallerIsDeniedByTheAcl) {
  World w;
  auto session = w.psf.request(w.request_as("Nobody", ""));
  ASSERT_FALSE(session.ok());
  EXPECT_NE(session.error().message.find("no access rule"), std::string::npos)
      << session.error().message;

  // A mail-domain credential is no better: the rules name Admin roles.
  ClientRequest request = w.s.request_for(w.s.alice, Scenario::kNyPc);
  request.service = w.options.service_name;
  auto alice = w.psf.request(request);
  EXPECT_FALSE(alice.ok());
}

TEST(Introspect, InstallValidatesOptionsAndIsRepeatable) {
  Scenario s = mail::build_scenario();
  IntrospectOptions bad;
  bad.node = "";
  EXPECT_FALSE(install_introspection(*s.psf, bad).ok());

  IntrospectOptions good;
  good.node = Scenario::kNyServer;
  ASSERT_TRUE(install_introspection(*s.psf, good).ok());
  // Re-defining the same service must fail cleanly, not corrupt the first.
  EXPECT_FALSE(install_introspection(*s.psf, good).ok());
  auto session = (*s.psf).request([&] {
    Guard* admin = s.psf->guard(good.domain);
    ClientRequest r;
    r.client_node = Scenario::kNyPc;
    r.service = good.service_name;
    r.identity = admin->create_principal("Op2");
    r.credentials = {
        admin->grant(drbac::Principal::of_entity(r.identity), "Monitor")};
    return r;
  }());
  EXPECT_TRUE(session.ok()) << session.error().message;
}

}  // namespace
}  // namespace psf::framework
