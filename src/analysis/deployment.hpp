// Whole-deployment view analysis (DESIGN.md §4l). Where analyzer.hpp checks
// one view definition at a time, analyze_deployment() resolves *every* view
// registered for a deployment — the role→view access matrices (Table 4), the
// pinned views the planner deploys outside the Guard (replicas, caches), and
// the live dRBAC repository — in one pass, and derives cross-view facts no
// per-view pass can see:
//
//   PSA080  dead view: no provable role, no default rule, not pinned
//   PSA081  matrix gap: an access rule serves a view nobody registered
//   PSA082  shadowed grant: a role appears twice in one service's
//           first-match matrix — the later row can never be selected
//   PSA083  exposure inversion: the anonymous/default view serves a member
//           that a role-gated view of the same service removes, or serves
//           it at a strictly stronger binding (local > rmi > switchboard)
//
// Consumers: tools/psf_analyze --deployment (JSON schema "deployment-v2"),
// tests/deployment_test.cpp.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"

namespace psf::analysis {

/// Deploy-time provability of a role: could *anyone* prove it from the
/// repository's delegation chains? Same generous semantics as the PSA070
/// credential-flow pass (tags ignored, signatures/expiry unchecked,
/// revocations honored, delegation cycles terminate).
bool role_provable(const drbac::Repository& repository,
                   const drbac::RoleRef& role);

/// One view registered with the deployment. `pinned` marks views the
/// planner deploys directly (replicas, caches) — they are reachable even
/// when no access matrix serves them.
struct DeployedView {
  views::ViewDefinition def;
  bool pinned = false;
};

/// One guarded service's Table 4: ordered role→view rows, first match wins,
/// with an optional default view for clients that prove no listed role.
/// An empty `default_view` means unmatched clients are denied.
struct ServiceMatrix {
  std::string service;
  std::vector<AccessRule> rules;
  std::string default_view;
};

struct DeploymentInput {
  std::vector<DeployedView> views;
  std::vector<ServiceMatrix> services;
  const minilang::ClassRegistry* registry = nullptr;  // required
  /// Null skips provability: every role in the matrix is assumed provable
  /// (standalone analysis without deploy wiring).
  const drbac::Repository* repository = nullptr;
  bool auto_coherence = true;
};

/// Why (or why not) a view is reachable by some client.
struct ViewReachability {
  std::string view;
  bool reachable = false;
  bool pinned = false;
  bool is_default = false;               // some service's default view
  std::vector<std::string> roles;        // provable roles served this view
  std::vector<std::string> services;     // services whose matrix serves it
};

struct DeploymentResult {
  /// Full per-view analysis (every registered pass), run with the
  /// deployment's security context so PSA070 fires naturally. Input order.
  std::vector<AnalysisResult> per_view;
  /// Deployment-level findings (PSA080-083), sorted by the analyzer's
  /// stable key (code, view, where, line).
  std::vector<Diagnostic> diagnostics;
  std::vector<ViewReachability> reachability;  // input view order
  std::vector<ServiceMatrix> matrix;           // echo of the input wiring
  /// Totals across deployment-level and per-view diagnostics.
  std::size_t errors = 0;
  std::size_t warnings = 0;

  bool has_errors() const { return errors > 0; }
  /// Stable machine-readable report, schema "deployment-v2"
  /// (psf_analyze --deployment --json; golden-tested).
  std::string json() const;
};

DeploymentResult analyze_deployment(const DeploymentInput& input);

}  // namespace psf::analysis
