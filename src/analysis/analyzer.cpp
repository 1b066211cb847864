#include "analysis/analyzer.hpp"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "util/bytes.hpp"

namespace psf::analysis {

using util::json_escape;

void PassRegistry::add(std::unique_ptr<Pass> pass) {
  passes_.push_back(std::move(pass));
}

const Pass* PassRegistry::find(std::string_view name) const {
  for (const auto& pass : passes_) {
    if (pass->name() == name) return pass.get();
  }
  return nullptr;
}

// Defined across the passes_*.cpp translation units.
void register_builtin_passes(PassRegistry& registry);

PassRegistry& global_pass_registry() {
  static PassRegistry* registry = [] {
    auto* r = new PassRegistry();
    register_builtin_passes(*r);
    return r;
  }();
  return *registry;
}

std::string AnalysisResult::json() const {
  std::ostringstream os;
  os << "{\"view\":\"" << json_escape(view_name) << "\""
     << ",\"errors\":" << errors << ",\"warnings\":" << warnings
     << ",\"stripped\":[";
  for (std::size_t i = 0; i < stripped.size(); ++i) {
    if (i != 0) os << ",";
    os << "\"" << json_escape(stripped[i]) << "\"";
  }
  os << "],\"diagnostics\":[";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    if (i != 0) os << ",";
    os << diagnostics[i].json();
  }
  os << "]}";
  return os.str();
}

AnalysisResult analyze(const views::ViewDefinition& def,
                       const minilang::ClassRegistry& registry,
                       const AnalysisOptions& options) {
  DiagnosticSink sink;
  const ViewModel model =
      build_view_model(def, registry, options.auto_coherence, sink);
  if (model.valid) {
    const AnalysisInput input{def, registry, model, options.security};
    const PassRegistry& passes =
        options.registry != nullptr ? *options.registry
                                    : global_pass_registry();
    for (const auto& pass : passes.passes()) {
      pass->run(input, sink);
    }
  }
  AnalysisResult result;
  result.view_name = def.name;
  result.errors = sink.error_count();
  result.warnings = sink.warning_count();
  result.diagnostics = sink.take();
  // Reports are sorted by a stable key so the JSON output is byte-identical
  // across runs and across pass-registration order; ties keep emission order.
  std::stable_sort(result.diagnostics.begin(), result.diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return std::tie(a.code, a.span.view, a.span.where,
                                     a.span.line) <
                            std::tie(b.code, b.span.view, b.span.where,
                                     b.span.line);
                   });
  if (model.valid) {
    const DeadMembers dead = compute_dead_members(model);
    for (const std::string& m : dead.methods) {
      result.stripped.push_back("method " + m);
    }
    for (const std::string& f : dead.fields) {
      result.stripped.push_back("field " + f);
    }
  }
  return result;
}

}  // namespace psf::analysis
