#include "views/codegen.hpp"

#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "views/vig.hpp"

namespace psf::views {

using minilang::Binding;
using minilang::ClassDef;
using minilang::ClassRegistry;
using minilang::InterfaceDef;
using minilang::MethodDef;

namespace {

std::string params_list(const std::vector<std::string>& params) {
  std::ostringstream os;
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (i != 0) os << ", ";
    os << "Object " << params[i];
  }
  return os.str();
}

void emit_interface(std::ostringstream& os, const InterfaceDef& iface,
                    Binding binding) {
  os << "public interface " << iface.name;
  if (binding == Binding::kRmi) {
    os << " extends Remote";
  } else if (binding == Binding::kSwitchboard) {
    os << " extends Serializable";
  }
  os << " {\n";
  for (const auto& sig : iface.methods) {
    os << "  public Object " << sig.name << "(" << params_list(sig.params)
       << ")";
    if (binding == Binding::kRmi) os << " throws RemoteException";
    os << ";\n";
  }
  os << "}\n\n";
}

void emit_body(std::ostringstream& os, const std::string& source,
               const std::string& indent) {
  std::istringstream is(source);
  std::string line;
  while (std::getline(is, line)) {
    os << indent << line << "\n";
  }
}

bool is_coherence(const std::string& name) {
  return name == "mergeImageIntoView" || name == "mergeImageIntoObj" ||
         name == "extractImageFromView" || name == "extractImageFromObj";
}

}  // namespace

std::string generate_java_source(const ClassDef& view_class,
                                 const ClassRegistry& registry) {
  // Codegen instrumentation (psf.vig.codegen.*).
  struct CodegenMetrics {
    obs::Counter& emits = obs::counter("psf.vig.codegen.emits");
    obs::Histogram& bytes = obs::histogram("psf.vig.codegen.bytes");
    static CodegenMetrics& get() {
      static CodegenMetrics m;
      return m;
    }
  };
  CodegenMetrics& metrics = CodegenMetrics::get();
  obs::ScopedSpan span("vig.codegen");
  std::ostringstream os;

  // Interfaces first, with remote markers (Table 5 header).
  for (const auto& name : view_class.interfaces) {
    const InterfaceDef* iface = registry.find_interface(name);
    if (iface == nullptr) continue;
    auto it = view_class.interface_bindings.find(name);
    const Binding binding =
        it == view_class.interface_bindings.end() ? Binding::kLocal : it->second;
    emit_interface(os, *iface, binding);
  }

  if (!view_class.stripped_members.empty()) {
    os << "/** VIG stripped unreachable added members:";
    for (const auto& member : view_class.stripped_members) {
      os << " " << member << ";";
    }
    os << " **/\n";
  }
  os << "public class " << view_class.name;
  if (!view_class.super_name.empty()) os << " extends " << view_class.super_name;
  if (!view_class.interfaces.empty()) {
    os << " implements ";
    for (std::size_t i = 0; i < view_class.interfaces.size(); ++i) {
      if (i != 0) os << ", ";
      os << view_class.interfaces[i];
    }
  }
  os << " {\n";

  for (const auto& field : view_class.fields) {
    os << "  " << (field.type.empty() ? "Object" : field.type) << " "
       << field.name << ";\n";
  }
  os << "\n";

  // Constructor first (Table 5 order), then interface methods, then the
  // rest, coherence methods last.
  auto emit_method = [&](const MethodDef& m) {
    if (m.name == "constructor") {
      os << "  public " << view_class.name << "(" << params_list(m.params)
         << ") {\n";
      // Mirror Table 5's generated lookup preamble for remote stubs.
      for (const auto& [iface, binding] : view_class.interface_bindings) {
        if (binding == Binding::kRmi) {
          os << "    /** rmi code **/\n";
          os << "    " << stub_field_name(iface, binding) << " = (" << iface
             << ") Naming.lookup(...);\n";
        } else if (binding == Binding::kSwitchboard) {
          os << "    /** switchboard code **/\n";
          os << "    " << stub_field_name(iface, binding) << " = (" << iface
             << ") Switchboard.lookup(...);\n";
        }
      }
      os << "    /** initialize cache manager **/\n";
      os << "    cacheManager = new CacheManager(properties, name);\n";
      os << "    /** user supplied code **/\n";
      emit_body(os, m.source, "    ");
      os << "  }\n";
      return;
    }
    const std::string visibility =
        m.visibility == minilang::Visibility::kPrivate ? "private" : "public";
    os << "  " << visibility << " Object " << m.name << "("
       << params_list(m.params) << ") {";
    if (m.is_native) {
      os << " " << m.source << " }\n";
      return;
    }
    os << "\n";
    if (m.coherence_wrapped) os << "    cacheManager.acquireImage();\n";
    emit_body(os, m.source, "    ");
    if (m.coherence_wrapped) os << "    cacheManager.releaseImage();\n";
    os << "  }\n";
  };

  for (const auto& m : view_class.methods) {
    if (m.name == "constructor") emit_method(m);
  }
  for (const auto& m : view_class.methods) {
    if (m.name != "constructor" && !is_coherence(m.name)) emit_method(m);
  }
  for (const auto& m : view_class.methods) {
    if (is_coherence(m.name)) emit_method(m);
  }

  os << "}\n";
  std::string source = os.str();
  metrics.emits.inc();
  metrics.bytes.observe(static_cast<std::int64_t>(source.size()));
  return source;
}

}  // namespace psf::views
