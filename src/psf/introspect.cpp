#include "psf/introspect.hpp"

#include <cstdlib>
#include <set>
#include <stdexcept>

#include "minilang/parser.hpp"
#include "obs/export.hpp"
#include "obs/health.hpp"
#include "obs/journal.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace psf::framework {

using minilang::ClassDef;
using minilang::ClassRegistry;
using minilang::InterfaceDef;
using minilang::MethodDef;
using minilang::Value;
using minilang::Visibility;

namespace {

MethodDef native_method(const std::string& name,
                        std::vector<std::string> params,
                        const std::string& interface_name,
                        minilang::NativeFn fn) {
  MethodDef m;
  m.name = name;
  m.params = std::move(params);
  m.visibility = Visibility::kPublic;
  m.interface_name = interface_name;
  m.is_native = true;
  m.source = "/* native: obs introspection */";
  m.native = std::move(fn);
  return m;
}

/// Accepts an id as an integer or as the hex string the JSON exporters
/// produce ("001a2b...", with or without 0x). 0 on anything unparsable —
/// which matches no trace, the safe answer for a garbled remote argument.
std::uint64_t parse_trace_id(const Value& v) {
  if (v.is_int()) return static_cast<std::uint64_t>(v.as_int());
  if (!v.is_string()) return 0;
  const std::string& s = v.as_string();
  if (s.empty()) return 0;
  const char* begin = s.c_str();
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) begin += 2;
  char* end = nullptr;
  const unsigned long long id = std::strtoull(begin, &end, 16);
  if (end == nullptr || *end != '\0') return 0;
  return static_cast<std::uint64_t>(id);
}

}  // namespace

void register_introspect_components(ClassRegistry& registry) {
  InterfaceDef basic;
  basic.name = "IntrospectI";
  basic.methods = {{"status", {}}};
  registry.register_interface(basic);

  InterfaceDef deep;
  deep.name = "IntrospectDeepI";
  deep.methods = {{"journal_tail", {"n"}},
                  {"spans_for_trace", {"id"}},
                  {"profile_dump", {}}};
  registry.register_interface(deep);

  auto cls = std::make_shared<ClassDef>();
  cls->name = "Introspect";
  cls->interfaces = {"IntrospectI", "IntrospectDeepI"};
  // Stateless by design: every call reads the process-wide obs singletons,
  // so coherence images of this component are empty and replicas/views can
  // never serve stale observability data from a cache.
  {
    MethodDef ctor;
    ctor.name = "constructor";
    ctor.visibility = Visibility::kPublic;
    ctor.source = "return null;";
    auto parsed = minilang::parse_block_source(ctor.source);
    if (!parsed.ok()) {
      throw std::logic_error("Introspect constructor does not parse: " +
                             parsed.error().message);
    }
    ctor.body = std::move(parsed).take();
    cls->methods.push_back(std::move(ctor));
  }
  cls->methods.push_back(native_method(
      "status", {}, "IntrospectI", [](minilang::Instance&, std::vector<Value>) {
        return Value::string(obs::status_json());
      }));
  cls->methods.push_back(native_method(
      "journal_tail", {"n"}, "IntrospectDeepI",
      [](minilang::Instance&, std::vector<Value> args) {
        std::int64_t n = 64;
        if (!args.empty() && args[0].is_int()) n = args[0].as_int();
        if (n < 0) n = 0;
        return Value::string(obs::journal_to_json(
            obs::journal::tail(static_cast<std::size_t>(n))));
      }));
  cls->methods.push_back(native_method(
      "spans_for_trace", {"id"}, "IntrospectDeepI",
      [](minilang::Instance&, std::vector<Value> args) {
        const std::uint64_t id =
            args.empty() ? 0 : parse_trace_id(args[0]);
        return Value::string(obs::spans_to_json(
            obs::SpanCollector::instance().spans_for_trace(id)));
      }));
  cls->methods.push_back(native_method(
      "profile_dump", {}, "IntrospectDeepI",
      [](minilang::Instance&, std::vector<Value>) {
        // speedscope JSON of the current rings — the Admin-only flamegraph
        // surface; the Viewer class never had the method (attenuation by
        // construction, not by runtime check).
        return Value::string(
            obs::profile::to_speedscope_json(obs::profile::report()));
      }));
  registry.register_class(cls);
}

const std::string& introspect_view_admin_xml() {
  static const std::string xml = R"(
<View name="ViewIntrospect_Admin">
  <Represents name="Introspect"/>
  <Restricts>
    <Interface name="IntrospectI" type="switchboard"/>
    <Interface name="IntrospectDeepI" type="switchboard"/>
  </Restricts>
  <Adds_Methods>
    <MSign>constructor()</MSign>
    <MBody><![CDATA[return null;]]></MBody>
  </Adds_Methods>
</View>)";
  return xml;
}

const std::string& introspect_view_basic_xml() {
  static const std::string xml = R"(
<View name="ViewIntrospect_Basic">
  <Represents name="Introspect"/>
  <Restricts>
    <Interface name="IntrospectI" type="switchboard"/>
  </Restricts>
  <Adds_Methods>
    <MSign>constructor()</MSign>
    <MBody><![CDATA[return null;]]></MBody>
  </Adds_Methods>
</View>)";
  return xml;
}

// The ACL's roles and the CPU each placement asks for.
constexpr char kMonitorRole[] = "Monitor";  // full surface
constexpr char kViewerRole[] = "Viewer";    // status only
constexpr std::int64_t kIntrospectCpu = 5;

util::Result<std::string> install_introspection(Psf& psf, std::string node) {
  using Fail = util::Result<std::string>;
  if (node.empty()) {
    return Fail::failure("bad-options", "introspection needs a host node");
  }
  if (psf.origin_instance(kIntrospectService) != nullptr) {
    return Fail::failure("already-installed", std::string(kIntrospectService) +
                                                  " is already defined");
  }
  Guard* admin = psf.guard(kIntrospectDomain);
  if (admin == nullptr) admin = &psf.create_guard(kIntrospectDomain);

  psf.register_components(
      [](ClassRegistry& r) { register_introspect_components(r); });

  // Cross-domain placement: define_service credentials the client-view code
  // identity in the admin domain, but the planner proves it against the
  // *client node's* domain Executable role. Bridge the gap exactly like
  // Table 2 credentials (14)/(17) bridge Comp.NY.Executable into the SD/SE
  // domains: each node domain accepts the admin domain's executables.
  std::set<std::string> bridged;
  for (const NodeInfo& info : psf.node_infos()) {
    if (info.domain == kIntrospectDomain) continue;
    if (!bridged.insert(info.domain).second) continue;
    Guard* node_guard = psf.guard(info.domain);
    if (node_guard == nullptr) continue;  // nodes of guard-less domains can
                                          // never prove Executable anyway
    node_guard->issue(
        drbac::Principal::of_role(admin->entity(), "Executable"),
        node_guard->role("Executable"),
        {{"CPU", drbac::Attribute::make_cap("CPU", 100)}});
  }

  ServiceConfig config;
  config.name = kIntrospectService;
  config.domain = kIntrospectDomain;
  config.origin_node = std::move(node);
  config.origin_class = "Introspect";
  // Origin-only: observability state is per-process, so replicating the
  // component elsewhere would answer with the wrong node's state.
  config.replica_view_xml = "";
  config.access_rules = {
      {kMonitorRole, "ViewIntrospect_Admin"},
      {kViewerRole, "ViewIntrospect_Basic"},
  };
  config.default_view = "";  // no rule matched -> deny
  config.view_xml_by_name = {
      {"ViewIntrospect_Admin", introspect_view_admin_xml()},
      {"ViewIntrospect_Basic", introspect_view_basic_xml()},
  };
  config.origin_cpu = kIntrospectCpu;
  config.view_cpu = kIntrospectCpu;

  auto defined = psf.define_service(std::move(config));
  if (!defined.ok()) return defined;

  obs::install_builtin_checks();
  return defined;
}

}  // namespace psf::framework
