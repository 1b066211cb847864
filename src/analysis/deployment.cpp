#include "analysis/deployment.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "drbac/repository.hpp"
#include "util/bytes.hpp"

namespace psf::analysis {

using util::json_escape;

namespace {

// Binding strength for PSA083: a member served locally is strictly more
// privilege than the same member behind an rmi stub, which in turn beats a
// switchboard stub (encrypted, rate-limited, Guard-fronted).
int binding_rank(minilang::Binding binding) {
  switch (binding) {
    case minilang::Binding::kLocal: return 3;
    case minilang::Binding::kRmi: return 2;
    case minilang::Binding::kSwitchboard: return 1;
  }
  return 0;
}

std::string role_key(const drbac::RoleRef& role) {
  return role.entity_fp + "." + role.role;
}

struct ModeledView {
  const DeployedView* deployed = nullptr;
  ViewModel model;  // model.valid may be false (structural errors)
};

}  // namespace

DeploymentResult analyze_deployment(const DeploymentInput& input) {
  DeploymentResult result;
  result.matrix = input.services;
  const minilang::ClassRegistry& registry = *input.registry;

  // Deployment-wide security context: every service's rules, one repository.
  SecurityContext security;
  security.repository = input.repository;
  for (const ServiceMatrix& service : input.services) {
    for (const AccessRule& rule : service.rules) {
      security.rules.push_back(rule);
    }
  }

  // Resolve every view once: the full per-view analysis for the report, and
  // the bare model for the cross-view facts.
  std::vector<ModeledView> views;
  views.reserve(input.views.size());
  std::map<std::string, std::size_t> by_name;  // view name -> index
  AnalysisOptions options;
  options.auto_coherence = input.auto_coherence;
  options.security = &security;
  for (const DeployedView& deployed : input.views) {
    result.per_view.push_back(analyze(deployed.def, registry, options));
    DiagnosticSink scratch;  // structural findings already in per_view
    views.push_back(ModeledView{
        &deployed,
        build_view_model(deployed.def, registry, input.auto_coherence,
                         scratch)});
    by_name.emplace(deployed.def.name, views.size() - 1);
  }

  DiagnosticSink sink;

  // ---- Reachability, matrix gaps, shadowed grants (PSA080-082) ----
  for (const DeployedView& deployed : input.views) {
    ViewReachability reach;
    reach.view = deployed.def.name;
    reach.pinned = deployed.pinned;
    reach.reachable = deployed.pinned;
    result.reachability.push_back(reach);
  }
  auto reach_of = [&](const std::string& view) -> ViewReachability* {
    auto it = by_name.find(view);
    return it == by_name.end() ? nullptr : &result.reachability[it->second];
  };

  for (const ServiceMatrix& service : input.services) {
    std::map<std::string, std::string> first_match;  // role key -> view
    for (const AccessRule& rule : service.rules) {
      if (by_name.count(rule.view_name) == 0) {
        sink.error("PSA081", Span{rule.view_name, "access rule"},
                   "service '" + service.service + "' maps role '" +
                       rule.role.display() + "' to view '" + rule.view_name +
                       "', but no such view is registered with the "
                       "deployment (matrix gap)",
                   "register the view with the deployment, or fix the view "
                   "name in the Table 4 row");
      }
      auto [it, fresh] =
          first_match.emplace(role_key(rule.role), rule.view_name);
      if (!fresh) {
        sink.warning("PSA082", Span{rule.view_name, "access rule"},
                     "role '" + rule.role.display() + "' already matched the "
                         "earlier row serving '" + it->second +
                         "' in service '" + service.service +
                         "'; this grant is shadowed and can never be "
                         "selected (first match wins)",
                     "delete the shadowed row, or reorder the matrix so the "
                     "intended view comes first");
        continue;  // a shadowed row serves nobody: it proves no view live
      }
      const bool provable =
          input.repository == nullptr ||
          role_provable(*input.repository, rule.role);
      if (!provable) continue;  // the PSA070 pass reports the dead ACL row
      if (ViewReachability* reach = reach_of(rule.view_name)) {
        reach->reachable = true;
        reach->roles.push_back(rule.role.display());
        reach->services.push_back(service.service);
      }
    }
    if (!service.default_view.empty()) {
      if (ViewReachability* reach = reach_of(service.default_view)) {
        reach->reachable = true;
        reach->is_default = true;
        reach->services.push_back(service.service);
      } else {
        sink.error("PSA081", Span{service.default_view, "access rule"},
                   "service '" + service.service + "' falls back to default "
                       "view '" + service.default_view +
                       "', but no such view is registered with the "
                       "deployment (matrix gap)",
                   "register the view with the deployment, or fix the "
                   "default view name");
      }
    }
  }
  for (const ViewReachability& reach : result.reachability) {
    if (reach.reachable) continue;
    sink.warning("PSA080", Span{reach.view, "deployment"},
                 "view is dead: no provable role is served it by any access "
                 "matrix, it is no service's default, and it is not pinned "
                 "by the planner",
                 "add a Table 4 row (with a provable role) serving the view, "
                 "or unregister it from the deployment");
  }

  // ---- Exposure inversion against the default view (PSA083) ----
  for (const ServiceMatrix& service : input.services) {
    auto default_it = by_name.find(service.default_view);
    if (service.default_view.empty() || default_it == by_name.end()) continue;
    const ModeledView& fallback = views[default_it->second];
    if (!fallback.model.valid) continue;
    std::set<std::string> gated_seen;  // one finding per (gated view) pair
    for (const AccessRule& rule : service.rules) {
      auto gated_it = by_name.find(rule.view_name);
      if (gated_it == by_name.end()) continue;
      if (rule.view_name == service.default_view) continue;
      if (!gated_seen.insert(rule.view_name).second) continue;
      const ModeledView& gated = views[gated_it->second];
      if (!gated.model.valid) continue;
      // Views of different components expose unrelated member sets.
      if (fallback.model.represented == nullptr ||
          gated.model.represented == nullptr ||
          fallback.model.represented->name != gated.model.represented->name) {
        continue;
      }
      for (const MethodModel& method : fallback.model.methods) {
        if (method.interface_name.empty()) continue;
        if (method.visibility != minilang::Visibility::kPublic) continue;
        if (gated.model.removed.count(method.name) > 0) {
          sink.warning(
              "PSA083", Span{service.default_view, "method " + method.name},
              "default view of service '" + service.service + "' serves '" +
                  method.name + "' that role-gated view '" + rule.view_name +
                  "' removes — anonymous clients get a member credentialed "
                  "clients were denied",
              "remove the member from the default view too, or stop "
              "removing it from the gated view");
          continue;
        }
        const MethodModel* gated_method = gated.model.find(method.name);
        if (gated_method == nullptr ||
            gated_method->interface_name.empty()) {
          continue;  // not exposing the interface at all is a narrower view
        }
        if (binding_rank(method.binding) >
            binding_rank(gated_method->binding)) {
          sink.warning(
              "PSA083", Span{service.default_view, "method " + method.name},
              "default view of service '" + service.service + "' serves '" +
                  method.name + "' with " +
                  minilang::binding_name(method.binding) +
                  " binding while role-gated view '" + rule.view_name +
                  "' only serves it via " +
                  minilang::binding_name(gated_method->binding) +
                  " — anonymous clients get the stronger binding",
              "weaken the default view's interface binding, or strengthen "
              "the gated view's");
        }
      }
    }
  }

  result.diagnostics = sink.take();
  std::stable_sort(result.diagnostics.begin(), result.diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return std::tie(a.code, a.span.view, a.span.where,
                                     a.span.line) <
                            std::tie(b.code, b.span.view, b.span.where,
                                     b.span.line);
                   });
  result.errors = sink.error_count();
  result.warnings = sink.warning_count();
  for (const AnalysisResult& per_view : result.per_view) {
    result.errors += per_view.errors;
    result.warnings += per_view.warnings;
  }
  return result;
}

std::string DeploymentResult::json() const {
  std::ostringstream out;
  out << "{\"schema\":\"deployment-v2\",\"errors\":" << errors
      << ",\"warnings\":" << warnings << ",\"views\":[";
  for (std::size_t i = 0; i < reachability.size(); ++i) {
    const ViewReachability& reach = reachability[i];
    if (i != 0) out << ",";
    out << "{\"view\":\"" << json_escape(reach.view) << "\",\"reachable\":"
        << (reach.reachable ? "true" : "false")
        << ",\"pinned\":" << (reach.pinned ? "true" : "false")
        << ",\"default\":" << (reach.is_default ? "true" : "false")
        << ",\"roles\":[";
    for (std::size_t j = 0; j < reach.roles.size(); ++j) {
      if (j != 0) out << ",";
      out << "\"" << json_escape(reach.roles[j]) << "\"";
    }
    out << "],\"services\":[";
    for (std::size_t j = 0; j < reach.services.size(); ++j) {
      if (j != 0) out << ",";
      out << "\"" << json_escape(reach.services[j]) << "\"";
    }
    out << "]}";
  }
  out << "],\"matrix\":[";
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    const ServiceMatrix& service = matrix[i];
    if (i != 0) out << ",";
    out << "{\"service\":\"" << json_escape(service.service)
        << "\",\"rules\":[";
    for (std::size_t j = 0; j < service.rules.size(); ++j) {
      if (j != 0) out << ",";
      out << "{\"role\":\"" << json_escape(service.rules[j].role.display())
          << "\",\"view\":\"" << json_escape(service.rules[j].view_name)
          << "\"}";
    }
    out << "],\"default\":\"" << json_escape(service.default_view) << "\"}";
  }
  out << "],\"dead_views\":[";
  bool first = true;
  for (const ViewReachability& reach : reachability) {
    if (reach.reachable) continue;
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(reach.view) << "\"";
  }
  out << "],\"diagnostics\":[";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    if (i != 0) out << ",";
    out << diagnostics[i].json();
  }
  out << "],\"per_view\":[";
  for (std::size_t i = 0; i < per_view.size(); ++i) {
    if (i != 0) out << ",";
    out << per_view[i].json();
  }
  out << "]}";
  return out.str();
}

}  // namespace psf::analysis
