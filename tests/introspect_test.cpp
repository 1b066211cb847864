// Remote introspection served through a view (ISSUE 4 tentpole, part c):
// the Introspect component is a normal PSF service, so who sees which slice
// of the observability surface is decided by the same ACL -> view -> VIG ->
// Switchboard machinery as any other component. Admin.Monitor gets the full
// surface, Admin.Viewer a status-only view (the deep methods do not exist
// on its generated class), everyone else is denied by the ACL.
//
// The OperatorQuestions tests put the two questions an operator brings to
// a running node to that surface: where a slow request spent its time, and
// whether the paper's guarantees hold right now.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "mail/scenario.hpp"
#include "obs/health.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "psf/introspect.hpp"

namespace psf::framework {
namespace {

using mail::Scenario;
using minilang::EvalError;
using minilang::Value;

/// A request for the introspection service from ny-pc by a new Admin-domain
/// principal `who`, granted `role` unless it is empty.
ClientRequest operator_request(Psf& psf, const std::string& who,
                               const std::string& role) {
  Guard* admin = psf.guard(kIntrospectDomain);
  ClientRequest request;
  request.client_node = Scenario::kNyPc;
  request.service = kIntrospectService;
  request.identity = admin->create_principal(who);
  if (!role.empty()) {
    request.credentials = {
        admin->grant(drbac::Principal::of_entity(request.identity), role)};
  }
  return request;
}

/// The mail scenario's story as the operator tool runs it: three clients'
/// RPC and coherence traffic and heartbeats, then SD-Guard revokes Bob's
/// membership (credential (11)) and Bob's next call is refused.
void run_mail_scenario(Scenario& s) {
  auto alice = s.psf->request(s.request_for(s.alice, Scenario::kNyPc));
  auto bob = s.psf->request(s.request_for(s.bob, Scenario::kSdPc));
  auto charlie = s.psf->request(s.request_for(s.charlie, Scenario::kSePc));
  ASSERT_TRUE(alice.ok() && bob.ok() && charlie.ok());
  alice.value().view->call("addMeeting", {Value::string("bob")});
  bob.value().view->call(
      "sendMessage", {mail::make_message("bob", "alice", "hi", "lunch?")});
  charlie.value().view->call("getPhone", {Value::string("alice")});
  alice.value().connection->heartbeat();
  bob.value().connection->heartbeat();
  s.psf->repository().revoke(s.cred(11)->serial);
  EXPECT_THROW(bob.value().view->call("getPhone", {Value::string("alice")}),
               EvalError);
}

/// The value of the first `"key": "..."` in `text`, "" when there is none.
std::string string_field(const std::string& text, const std::string& key) {
  const std::string open = "\"" + key + "\": \"";
  const std::size_t at = text.find(open);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + open.size();
  return text.substr(begin, text.find('"', begin) - begin);
}

/// The lines of `text` that contain `needle`.
std::vector<std::string> lines_with(const std::string& text,
                                    const std::string& needle) {
  std::vector<std::string> out;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.find(needle) != std::string::npos) out.push_back(line);
  }
  return out;
}

/// The health section of a status-v1 document: the node status, and each
/// check row as (name, status, reason). Empty when the section is missing.
struct HealthSection {
  struct Row {
    std::string name, status, reason;
  };
  std::string status;
  std::vector<Row> rows;
};

HealthSection health_section(const std::string& status) {
  HealthSection out;
  const std::size_t begin = status.find("\"health\": {");
  const std::size_t end = status.find("\"metrics\": [");
  if (begin == std::string::npos || end == std::string::npos || end < begin) {
    return out;
  }
  const std::string section = status.substr(begin, end - begin);
  out.status = string_field(section, "status");  // the first is the node's
  for (const std::string& line : lines_with(section, "\"reason\": ")) {
    out.rows.push_back({string_field(line, "name"),
                        string_field(line, "status"),
                        string_field(line, "reason")});
  }
  return out;
}

// Scenario + installed introspection service + a little real traffic so the
// journal and span surfaces have content.
struct World {
  Scenario s = mail::build_scenario();
  Psf& psf = *s.psf;

  World() {
    auto installed = install_introspection(psf, Scenario::kNyServer);
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
    return operator_request(psf, who, role);
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

  const std::string status = view.call("status", {}).as_string();
  EXPECT_NE(status.find("\"schema\": \"status-v1\""), std::string::npos);
  EXPECT_NE(status.find("\"name\": \"psf.obs.journal.events\""),
            std::string::npos);
  EXPECT_NE(status.find("\"name\": \"obs.journal.drop-rate\""),
            std::string::npos);

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

  // The permitted half works, the profiler's counters included...
  const std::string status = view.call("status", {}).as_string();
  EXPECT_NE(status.find("\"schema\": \"status-v1\""), std::string::npos);
  EXPECT_NE(status.find("\"profile\": {\"running\": "), std::string::npos);
  // ...and the deep half is not attenuated-but-present, it is absent: the
  // generated class never had the methods, so there is nothing to bypass.
  EXPECT_THROW(view.call("journal_tail", {Value::integer(5)}), EvalError);
  EXPECT_THROW(view.call("spans_for_trace", {Value::string("0")}), EvalError);
  EXPECT_THROW(view.call("profile_dump", {}), EvalError);
}

TEST(Introspect, MonitorSeesSloRowsAndProfileOnTheStatusSurface) {
  World w;
  auto session = w.psf.request(w.request_as("Operator", "Monitor"));
  ASSERT_TRUE(session.ok()) << session.error().message;
  auto& view = *session.value().view;

  // install_introspection installed the builtin checks, the four latency
  // objectives among them; the workload has already pushed secure RPCs
  // through psf.switchboard.rpc_us. Objectives answer as health rows.
  const std::string status = view.call("status", {}).as_string();
  for (const char* row : {"slo.switchboard.rpc", "slo.drbac.prove",
                          "slo.views.sync", "slo.loop.lag"}) {
    EXPECT_NE(status.find(std::string("{\"name\": \"") + row + "\""),
              std::string::npos)
        << row << " in " << status;
  }
  EXPECT_NE(status.find("over 500us, target 99%"), std::string::npos)
      << status;
  // There is no separate objective, contention, metrics, health or
  // profiler-status surface to ask: status is the one document.
  for (const char* gone : {"slo_status", "lock_contention", "metrics_snapshot",
                           "health", "profile_status"}) {
    EXPECT_THROW(view.call(gone, {}), EvalError) << gone;
  }

  // Where callers block is the profiler's answer (lock:<site> leaf
  // frames), on the deep interface as a speedscope dump (an empty profile
  // when nothing is registered — the formatter always renders a valid
  // document).
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
  request.service = kIntrospectService;
  auto alice = w.psf.request(request);
  EXPECT_FALSE(alice.ok());
}

TEST(Introspect, InstallValidatesOptionsAndIsRepeatable) {
  Scenario s = mail::build_scenario();
  EXPECT_FALSE(install_introspection(*s.psf, "").ok());

  ASSERT_TRUE(install_introspection(*s.psf, Scenario::kNyServer).ok());
  // Re-defining the same service must fail cleanly, not corrupt the first.
  EXPECT_FALSE(install_introspection(*s.psf, Scenario::kNyServer).ok());
  auto session = s.psf->request(operator_request(*s.psf, "Op2", "Monitor"));
  EXPECT_TRUE(session.ok()) << session.error().message;
}

TEST(OperatorQuestions, WhereDidTheSlowRequestSpendItsTime) {
  Scenario s = mail::build_scenario();
  ASSERT_TRUE(install_introspection(*s.psf, Scenario::kNyServer).ok());
  // The operator's choice, not the product's: every secure RPC from 1 us up
  // may become its bucket's exemplar, so the slowest bucket the scenario
  // reaches links to a trace.
  obs::histogram("psf.switchboard.rpc_us").set_exemplar_threshold(1);
  run_mail_scenario(s);

  auto session =
      s.psf->request(operator_request(*s.psf, "Operator", "Monitor"));
  ASSERT_TRUE(session.ok()) << session.error().message;
  auto& view = *session.value().view;

  // The slow tail of secure RPCs names its trace...
  const std::string status = view.call("status", {}).as_string();
  const std::vector<std::string> rpc =
      lines_with(status, "{\"name\": \"psf.switchboard.rpc_us\"");
  ASSERT_EQ(rpc.size(), 1u) << status;
  const std::size_t tail = rpc[0].find("\"tail_exemplar\": {");
  ASSERT_NE(tail, std::string::npos) << rpc[0];
  const std::string trace = string_field(rpc[0].substr(tail), "trace_id");
  ASSERT_EQ(trace.size(), 16u) << rpc[0];

  // ...and the trace resolves to the spans the request passed through, a
  // tree nested by parent that crosses into the provider's dispatch.
  const std::string spans =
      view.call("spans_for_trace", {Value::string(trace)}).as_string();
  std::map<std::string, std::string> parent_of;  // span id -> parent id
  std::vector<std::string> dispatch_parents;
  for (const std::string& line : lines_with(spans, "\"span_id\": ")) {
    EXPECT_EQ(string_field(line, "trace_id"), trace) << line;
    parent_of[string_field(line, "span_id")] = string_field(line, "parent_id");
    if (string_field(line, "name") == "switchboard.dispatch") {
      dispatch_parents.push_back(string_field(line, "parent_id"));
    }
  }
  EXPECT_GE(parent_of.size(), 2u) << spans;
  ASSERT_FALSE(dispatch_parents.empty()) << spans;
  for (const std::string& parent : dispatch_parents) {
    EXPECT_EQ(parent_of.count(parent), 1u) << parent << " in " << spans;
  }
}

TEST(OperatorQuestions, AreThePaperGuaranteesHoldingRightNow) {
  Scenario s = mail::build_scenario();
  ASSERT_TRUE(install_introspection(*s.psf, Scenario::kNyServer).ok());
  // The counters are process-wide: expect one suspension more than before.
  const std::string expected_lag =
      std::to_string(obs::counter("psf.switchboard.suspensions").value() + 1) +
      " suspensions, " +
      std::to_string(obs::counter("psf.switchboard.revalidations").value()) +
      " revalidated";
  run_mail_scenario(s);  // ends with Bob's credential (11) revoked

  auto admin = s.psf->request(operator_request(*s.psf, "Operator", "Monitor"));
  auto viewer = s.psf->request(operator_request(*s.psf, "Auditor", "Viewer"));
  ASSERT_TRUE(admin.ok()) << admin.error().message;
  ASSERT_TRUE(viewer.ok()) << viewer.error().message;
  const std::string status =
      admin.value().view->call("status", {}).as_string();
  const HealthSection health = health_section(status);
  ASSERT_FALSE(health.rows.empty()) << status;

  std::map<std::string, int> rows_named;
  int worst = 0;
  for (const HealthSection::Row& row : health.rows) {
    ++rows_named[row.name];
    for (const obs::HealthLevel level :
         {obs::HealthLevel::kDegraded, obs::HealthLevel::kFailing}) {
      if (row.status == obs::health_level_name(level)) {
        worst = std::max(worst, static_cast<int>(level));
      }
    }
    // Continuous authorization: the revocation suspended Bob's end and
    // nothing has revalidated it yet.
    if (row.name == "switchboard.revocation-lag") {
      EXPECT_EQ(row.status, "degraded") << row.reason;
      EXPECT_EQ(row.reason.rfind(expected_lag, 0), 0u) << row.reason;
    }
  }
  EXPECT_EQ(rows_named["switchboard.revocation-lag"], 1);
  for (const char* slo : {"slo.switchboard.rpc", "slo.drbac.prove",
                          "slo.views.sync", "slo.loop.lag"}) {
    EXPECT_EQ(rows_named[slo], 1) << slo << " in " << status;
  }
  // The node status is its worst row.
  EXPECT_EQ(health.status,
            obs::health_level_name(static_cast<obs::HealthLevel>(worst)));

  // A Viewer reads the same verdicts: every row with its status, and the
  // node status. Reasons carry live counts that the calls themselves move.
  const HealthSection seen = health_section(
      viewer.value().view->call("status", {}).as_string());
  const auto verdicts = [](const HealthSection& h) {
    std::multiset<std::pair<std::string, std::string>> out;
    for (const auto& row : h.rows) out.insert({row.name, row.status});
    return out;
  };
  EXPECT_EQ(seen.status, health.status);
  EXPECT_EQ(verdicts(seen), verdicts(health));
}

}  // namespace
}  // namespace psf::framework
