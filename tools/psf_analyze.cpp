// psf_analyze — standalone static analysis for view definitions (DESIGN.md
// §4g) and whole deployments (§4l). Per-view mode runs every registered
// analysis pass (field-reachability, use-before-init, dead-members,
// exposure, coherence, credential-flow) over one or more Table 3(b) XML
// files and reports structured diagnostics. Deployment mode resolves the
// mail application's full deployment — every registered view, the Table 4
// role→view matrices, and a deterministic demo dRBAC repository — in one
// pass and adds the cross-view findings (PSA080-083).
//
// Usage:
//   psf_analyze [--json|--sarif] <view.xml>...
//   psf_analyze [--json|--sarif] --builtin all|partner|member|anonymous|cache|replica
//   psf_analyze [--json|--sarif] --deployment [<view.xml>...] [--rule R=V]...
//
// The represented classes come from the mail application registry. Output is
// human-readable by default; --json emits stable JSON (per-view: one array;
// deployment: one "deployment-v2" object); --sarif emits a SARIF 2.1.0 log
// for code-scanning consumers (validated in CI by scripts/check_sarif.py).
//
// Exit status: 0 = no errors (warnings allowed), 1 = at least one error
// diagnostic (or unreadable/unparseable input), 2 = bad arguments.
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/deployment.hpp"
#include "drbac/credential.hpp"
#include "drbac/repository.hpp"
#include "mail/components.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "views/view_def.hpp"

namespace {

void print_usage(std::ostream& out) {
  out << "usage: psf_analyze [--json|--sarif] <view.xml>...\n"
         "       psf_analyze [--json|--sarif] --builtin "
         "all|partner|member|anonymous|cache|replica\n"
         "       psf_analyze [--json|--sarif] --deployment [<view.xml>...] "
         "[--rule ROLE=VIEW]...\n"
         "\n"
         "Static analysis for Table 3(b) view definitions: runs every\n"
         "registered pass (field-reachability, use-before-init, dead-members,\n"
         "exposure, coherence, credential-flow) and reports diagnostics.\n"
         "\n"
         "options:\n"
         "  --help        print this help and exit 0\n"
         "  --json        stable JSON: per-view mode emits one array, one\n"
         "                object per definition; --deployment emits one\n"
         "                deployment-v2 object\n"
         "  --sarif       SARIF 2.1.0 log (code-scanning upload format)\n"
         "  --builtin X   analyze a builtin mail view instead of a file\n"
         "  --deployment  whole-deployment analysis: the builtin mail\n"
         "                deployment (all five views, both Table 4 matrices,\n"
         "                a deterministic demo credential repository), plus\n"
         "                any <view.xml> files as extra registered views;\n"
         "                adds PSA080-083\n"
         "  --rule R=V    append row role R -> view V to the mail service's\n"
         "                access matrix (deployment mode; R names a Comp.NY\n"
         "                role, e.g. Member or Auditor)\n"
         "\n"
         "Exit status: 0 = no errors (warnings allowed), 1 = at least one\n"
         "error diagnostic (or unreadable input), 2 = bad arguments.\n";
}

int usage() {
  print_usage(std::cerr);
  return 2;
}

struct Input {
  std::string label;  // file path or builtin name
  std::string xml;
};

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream os;
  os << in.rdbuf();
  out = os.str();
  return true;
}

bool add_builtin(const std::string& which, std::vector<Input>& inputs) {
  using namespace psf;
  if (which == "all") {
    for (const char* each : {"partner", "member", "anonymous", "cache",
                             "replica"}) {
      add_builtin(each, inputs);
    }
    return true;
  }
  if (which == "partner") {
    inputs.push_back({which, mail::view_xml_partner()});
  } else if (which == "member") {
    inputs.push_back({which, mail::view_xml_member()});
  } else if (which == "anonymous") {
    inputs.push_back({which, mail::view_xml_anonymous()});
  } else if (which == "cache") {
    inputs.push_back({which, mail::view_xml_mail_server_cache()});
  } else if (which == "replica") {
    inputs.push_back({which, mail::view_xml_client_replica()});
  } else {
    return false;
  }
  return true;
}

/// An input that never reached the analyzer (unreadable file, XML schema
/// error), shaped like an analysis result so JSON consumers see one format.
psf::analysis::AnalysisResult input_failure(const std::string& label,
                                            const std::string& message) {
  psf::analysis::AnalysisResult result;
  result.view_name = label;
  result.errors = 1;
  result.diagnostics.push_back(psf::analysis::Diagnostic{
      psf::analysis::Severity::kError, "PSA000",
      psf::analysis::Span{label, "definition", 0}, message,
      "fix the file so it parses as a Table 3(b) <View> document"});
  return result;
}

// ---- SARIF 2.1.0 (minimal static-analysis log; scripts/check_sarif.py) ----

const char* sarif_level(psf::analysis::Severity severity) {
  switch (severity) {
    case psf::analysis::Severity::kError: return "error";
    case psf::analysis::Severity::kWarning: return "warning";
    case psf::analysis::Severity::kNote: return "note";
  }
  return "none";
}

/// One SARIF run over `diagnostics`; `uri_of_view` maps a span's view name
/// to the artifact URI shown to code-scanning UIs (the input file when the
/// definition came from one).
std::string to_sarif(
    const std::vector<psf::analysis::Diagnostic>& diagnostics,
    const std::map<std::string, std::string>& uri_of_view) {
  using psf::util::json_escape;
  std::set<std::string> codes;
  for (const auto& d : diagnostics) codes.insert(d.code);
  std::ostringstream out;
  out << "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\","
         "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":"
         "{\"name\":\"psf_analyze\",\"informationUri\":"
         "\"https://example.invalid/psf\",\"rules\":[";
  bool first = true;
  for (const std::string& code : codes) {
    if (!first) out << ",";
    first = false;
    out << "{\"id\":\"" << json_escape(code) << "\"}";
  }
  out << "]}},\"results\":[";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const auto& d = diagnostics[i];
    if (i != 0) out << ",";
    std::string text = d.span.where.empty()
                           ? d.message
                           : d.span.where + ": " + d.message;
    if (!d.hint.empty()) text += " (fix: " + d.hint + ")";
    auto uri = uri_of_view.find(d.span.view);
    out << "{\"ruleId\":\"" << json_escape(d.code) << "\",\"level\":\""
        << sarif_level(d.severity) << "\",\"message\":{\"text\":\""
        << json_escape(text) << "\"},\"locations\":[{\"physicalLocation\":"
           "{\"artifactLocation\":{\"uri\":\""
        << json_escape(uri != uri_of_view.end()
                           ? uri->second
                           : "deployment/" + d.span.view);
    out << "\"}";
    if (d.span.line > 0) {
      out << ",\"region\":{\"startLine\":" << d.span.line << "}";
    }
    out << "}}]}";
  }
  out << "]}]}";
  return out.str();
}

// ---- The builtin mail deployment (mirrors mail::build_scenario) ----

/// Deterministic demo credential repository: Comp.NY grants Member to
/// alice, Partner to bob, and Auditor to charlie. Fixed RNG seed, so runs
/// are reproducible; the Auditor role exists for exercising --rule.
struct DemoSecurity {
  psf::drbac::Entity comp;
  psf::drbac::Repository repository;

  DemoSecurity() : comp(make_comp()) {
    psf::util::Rng rng(4242);
    for (const char* grant : {"alice:Member", "bob:Partner",
                              "charlie:Auditor"}) {
      const std::string spec = grant;
      const auto colon = spec.find(':');
      psf::drbac::Entity user =
          psf::drbac::Entity::create(spec.substr(0, colon), rng);
      repository.add(psf::drbac::issue(
          comp, psf::drbac::Principal::of_entity(user),
          psf::drbac::role_of(comp, spec.substr(colon + 1)), {},
          /*assignment=*/false, /*issued_at=*/0, /*expires_at=*/0,
          repository.next_serial()));
    }
  }

  psf::drbac::RoleRef role(const std::string& name) const {
    return psf::drbac::role_of(comp, name);
  }

 private:
  static psf::drbac::Entity make_comp() {
    psf::util::Rng rng(1717);
    return psf::drbac::Entity::create("Comp.NY", rng);
  }
};

int run_deployment(const std::vector<Input>& extra_views,
                   const std::vector<std::pair<std::string, std::string>>&
                       extra_rules,
                   bool json, bool sarif) {
  using namespace psf;

  minilang::ClassRegistry registry;
  mail::register_all(registry);
  DemoSecurity security;

  analysis::DeploymentInput input;
  input.registry = &registry;
  input.repository = &security.repository;

  // The five builtin views, wired exactly like mail::build_scenario: the
  // client views behind the "mail" matrix, the server cache behind
  // "mailbox", and the replica pinned by the placement planner.
  std::map<std::string, std::string> uri_of_view;
  auto add_view = [&](const std::string& label, const std::string& xml,
                      bool pinned) -> bool {
    auto def = views::ViewDefinition::from_xml(xml);
    if (!def.ok()) {
      std::cerr << "psf_analyze: " << label
                << ": definition does not parse: " << def.error().message
                << "\n";
      return false;
    }
    uri_of_view.emplace(def.value().name, label);
    input.views.push_back(analysis::DeployedView{def.value(), pinned});
    return true;
  };
  add_view("builtin:member", mail::view_xml_member(), false);
  add_view("builtin:partner", mail::view_xml_partner(), false);
  add_view("builtin:anonymous", mail::view_xml_anonymous(), false);
  add_view("builtin:cache", mail::view_xml_mail_server_cache(), false);
  add_view("builtin:replica", mail::view_xml_client_replica(), true);
  for (const Input& extra : extra_views) {
    if (!add_view(extra.label, extra.xml, false)) return 1;
  }

  analysis::ServiceMatrix mail_service;
  mail_service.service = "mail";
  mail_service.rules = {
      {security.role("Member"), "ViewMailClient_Member"},
      {security.role("Partner"), "ViewMailClient_Partner"},
  };
  mail_service.default_view = "ViewMailClient_Anonymous";
  for (const auto& [role, view] : extra_rules) {
    mail_service.rules.push_back({security.role(role), view});
  }
  analysis::ServiceMatrix mailbox;
  mailbox.service = "mailbox";
  mailbox.rules = {{security.role("Member"), "ViewMailServer"}};
  input.services = {mail_service, mailbox};

  const analysis::DeploymentResult result = analysis::analyze_deployment(input);

  if (json) {
    std::cout << result.json() << "\n";
  } else if (sarif) {
    std::vector<analysis::Diagnostic> all = result.diagnostics;
    for (const auto& per_view : result.per_view) {
      all.insert(all.end(), per_view.diagnostics.begin(),
                 per_view.diagnostics.end());
    }
    std::cout << to_sarif(all, uri_of_view) << "\n";
  } else {
    for (const auto& reach : result.reachability) {
      std::cout << reach.view << ": "
                << (reach.reachable ? "reachable" : "DEAD");
      if (reach.pinned) std::cout << " (pinned)";
      if (reach.is_default) std::cout << " (default)";
      for (const auto& role : reach.roles) std::cout << " " << role;
      std::cout << "\n";
    }
    for (const auto& d : result.diagnostics) {
      std::cout << "  " << severity_name(d.severity) << ": " << d.display()
                << "\n";
    }
    for (std::size_t i = 0; i < result.per_view.size(); ++i) {
      for (const auto& d : result.per_view[i].diagnostics) {
        std::cout << "  " << severity_name(d.severity) << ": " << d.display()
                  << "\n";
      }
    }
    std::cout << result.reachability.size() << " view(s), " << result.errors
              << " error(s), " << result.warnings << " warning(s)\n";
  }
  return result.errors > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace psf;

  bool json = false;
  bool sarif = false;
  bool deployment = false;
  std::vector<Input> inputs;
  std::vector<std::pair<std::string, std::string>> rules;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return 0;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--sarif") {
      sarif = true;
    } else if (arg == "--deployment") {
      deployment = true;
    } else if (arg == "--rule") {
      if (i + 1 >= argc) return usage();
      const std::string rule = argv[++i];
      const auto eq = rule.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= rule.size()) {
        return usage();
      }
      rules.emplace_back(rule.substr(0, eq), rule.substr(eq + 1));
    } else if (arg == "--builtin") {
      if (i + 1 >= argc || !add_builtin(argv[++i], inputs)) return usage();
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      std::string xml;
      if (!read_file(arg, xml)) {
        std::cerr << "psf_analyze: cannot open " << arg << "\n";
        return 1;
      }
      inputs.push_back({arg, std::move(xml)});
    }
  }
  if (json && sarif) return usage();
  if (!rules.empty() && !deployment) return usage();
  if (deployment) return run_deployment(inputs, rules, json, sarif);
  if (inputs.empty()) return usage();

  minilang::ClassRegistry registry;
  mail::register_all(registry);

  std::vector<analysis::AnalysisResult> results;
  std::map<std::string, std::string> uri_of_view;
  for (const Input& input : inputs) {
    auto def = views::ViewDefinition::from_xml(input.xml);
    if (!def.ok()) {
      results.push_back(input_failure(
          input.label, "definition does not parse: " + def.error().message));
      uri_of_view.emplace(input.label, input.label);
      continue;
    }
    uri_of_view.emplace(def.value().name, input.label);
    results.push_back(analysis::analyze(def.value(), registry));
  }

  std::size_t errors = 0;
  std::size_t warnings = 0;
  if (json) {
    std::cout << "[";
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (i != 0) std::cout << ",";
      std::cout << results[i].json();
    }
    std::cout << "]\n";
  } else if (sarif) {
    std::vector<analysis::Diagnostic> all;
    for (const auto& result : results) {
      all.insert(all.end(), result.diagnostics.begin(),
                 result.diagnostics.end());
    }
    std::cout << to_sarif(all, uri_of_view) << "\n";
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    const analysis::AnalysisResult& result = results[i];
    errors += result.errors;
    warnings += result.warnings;
    if (json || sarif) continue;
    std::cout << inputs[i].label << ": view '" << result.view_name << "': "
              << result.errors << " error(s), " << result.warnings
              << " warning(s)\n";
    for (const auto& d : result.diagnostics) {
      std::cout << "  " << severity_name(d.severity) << ": " << d.display()
                << "\n";
    }
  }
  if (!json && !sarif) {
    std::cout << results.size() << " definition(s), " << errors
              << " error(s), " << warnings << " warning(s)\n";
  }
  return errors > 0 ? 1 : 0;
}
