#include "analysis/diagnostic.hpp"

#include <sstream>

#include "util/bytes.hpp"

namespace psf::analysis {

using util::json_escape;

std::string severity_name(Severity severity) {
  switch (severity) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
    case Severity::kNote: return "note";
  }
  return "unknown";
}

std::string Span::display() const {
  std::string out = "view '" + view + "', " + where;
  if (line != 0) out += ":" + std::to_string(line);
  return out;
}

std::string Diagnostic::display() const {
  std::string out = span.display() + ": [" + code + "] " + message;
  if (!hint.empty()) out += " (fix: " + hint + ")";
  return out;
}

std::string Diagnostic::json() const {
  std::ostringstream os;
  os << "{\"severity\":\"" << severity_name(severity) << "\""
     << ",\"code\":\"" << json_escape(code) << "\""
     << ",\"view\":\"" << json_escape(span.view) << "\""
     << ",\"where\":\"" << json_escape(span.where) << "\""
     << ",\"line\":" << span.line
     << ",\"message\":\"" << json_escape(message) << "\""
     << ",\"hint\":\"" << json_escape(hint) << "\"}";
  return os.str();
}

void DiagnosticSink::report(Diagnostic diagnostic) {
  if (diagnostic.severity == Severity::kError) ++errors_;
  if (diagnostic.severity == Severity::kWarning) ++warnings_;
  diagnostics_.push_back(std::move(diagnostic));
}

void DiagnosticSink::error(std::string code, Span span, std::string message,
                           std::string hint) {
  report(Diagnostic{Severity::kError, std::move(code), std::move(span),
                    std::move(message), std::move(hint)});
}

void DiagnosticSink::warning(std::string code, Span span, std::string message,
                             std::string hint) {
  report(Diagnostic{Severity::kWarning, std::move(code), std::move(span),
                    std::move(message), std::move(hint)});
}

}  // namespace psf::analysis
