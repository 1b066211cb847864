// Structured diagnostics for the psf::analysis static-analysis engine
// (DESIGN.md §4g). A Diagnostic pins a finding to a precise span — the view,
// the member ("method addMeeting", "interface NotesI", "definition"), and,
// for body-level findings, the 1-based line inside the MBody block — and
// carries a stable machine code (PSAnnn) next to the human message and the
// how-to-fix hint the paper requires VIG to produce.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace psf::analysis {

enum class Severity { kError, kWarning, kNote };

std::string severity_name(Severity severity);

/// Where a finding lives. `line` is 1-based within the method body source
/// (the MBody block); 0 means the finding is not tied to a source line.
struct Span {
  std::string view;
  std::string where;      // "method addMeeting", "interface NotesI", ...
  std::size_t line = 0;

  std::string display() const;
};

struct Diagnostic {
  Severity severity = Severity::kError;
  std::string code;       // stable machine code, e.g. "PSA020"
  Span span;
  std::string message;
  std::string hint;       // how to rectify the XML rules; may be empty

  /// `view 'V', method m:3: [PSA020] message (fix: hint)`.
  std::string display() const;

  /// One stable JSON object (keys in fixed order, strings escaped).
  std::string json() const;
};

/// Collects diagnostics for one analysis run. Passes report through the
/// sink; the analyzer owns the ordering guarantee (pass registration order,
/// then emission order within a pass — both deterministic).
class DiagnosticSink {
 public:
  void report(Diagnostic diagnostic);
  void error(std::string code, Span span, std::string message,
             std::string hint = "");
  void warning(std::string code, Span span, std::string message,
               std::string hint = "");

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  std::vector<Diagnostic> take() { return std::move(diagnostics_); }
  std::size_t error_count() const { return errors_; }
  std::size_t warning_count() const { return warnings_; }

 private:
  std::vector<Diagnostic> diagnostics_;
  std::size_t errors_ = 0;
  std::size_t warnings_ = 0;
};

}  // namespace psf::analysis
