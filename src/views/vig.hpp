// VIG — the View Generator (paper §4.3). Takes the represented object's
// class and an XML view definition, and produces a new class for the view:
//  (1) interfaces are processed first: `local` interface methods are copied
//      from the represented class (following the inheritance chain, like
//      Javassist); `rmi`/`switchboard` methods become stub calls against the
//      original object through injected stub fields;
//  (2) added/customized methods are spliced from the XML and validated —
//      a method that references a variable not defined in the original
//      object or the method raises a diagnostic telling the programmer how
//      to rectify the XML rules;
//  (3) fields are copied because a copied method uses them, or added because
//      the XML declares them; stub and cacheManager fields are injected.
// Every method implemented by the view is bracketed by acquireImage /
// releaseImage coherence hooks. Generation is lazy: classes are cached by
// view name, so "views incur management costs proportional to their
// utility".
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "minilang/object.hpp"
#include "util/result.hpp"
#include "views/view_def.hpp"

namespace psf::views {

struct VigDiagnostic {
  std::string view;
  std::string context;  // e.g. "method addMeeting", "interface NotesI"
  std::string message;
  std::string hint;     // how to fix the XML rules
  std::string code;     // stable analysis code (PSAnnn); see DESIGN.md §4g
  bool is_error = true; // warnings are recorded but do not fail generation

  std::string display() const;
};

struct VigOptions {
  /// Synthesize default coherence handlers when the XML omits them — the
  /// paper's stated future-work extension ("supply default handlers in an
  /// automatic fashion, which can be overridden as necessary").
  bool auto_coherence = true;
  /// Reuse an already-generated class for the same view name (lazy
  /// generation cache).
  bool cache = true;
  /// Drop added members no exposed entry point can reach (the PSA035/PSA036
  /// set from analysis::compute_dead_members) so generated views stay as
  /// small as their restriction implies and coherence images shrink with
  /// them.
  bool strip = true;
};

struct VigStats {
  std::size_t generated = 0;
  std::size_t cache_hits = 0;
  /// Dead added members dropped across all generate() calls.
  std::size_t members_stripped = 0;
  /// View methods lowered to bytecode at generation time. A method the
  /// compiler cannot encode refuses the whole view instead.
  std::size_t methods_compiled = 0;
};

class Vig {
 public:
  explicit Vig(minilang::ClassRegistry* registry, VigOptions options = {});

  /// Generate the view class (or return the cached one). Validation runs
  /// through the psf::analysis engine first (every registered pass, all
  /// findings in one run); generation is refused iff any diagnostic is an
  /// error. On failure the Result carries a summary; `diagnostics()` has
  /// the full list (warnings included, also on success).
  util::Result<std::shared_ptr<minilang::ClassDef>> generate(
      const ViewDefinition& def);

  const std::vector<VigDiagnostic>& diagnostics() const { return diagnostics_; }
  const VigStats& stats() const { return stats_; }
  minilang::ClassRegistry& registry() { return *registry_; }

 private:
  minilang::ClassRegistry* registry_;
  VigOptions options_;
  std::vector<VigDiagnostic> diagnostics_;
  VigStats stats_;
};

/// Free-identifier analysis used by VIG validation (exposed for tests):
/// names used as variables / called as methods that are not parameters,
/// locals, or builtins.
struct FreeNames {
  std::vector<std::string> variables;
  std::vector<std::string> calls;
};
FreeNames collect_free_names(const std::vector<minilang::StmtPtr>& body,
                             const std::vector<std::string>& params);

}  // namespace psf::views
