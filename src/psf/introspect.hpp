// Remote introspection served through a view (ISSUE 4 tentpole, part c).
//
// The node's observability state — metrics registry, health plane, flight
// recorder, span collector — is itself exposed as a PSF component
// ("Introspect"), deployed like any other service and customized per-consumer
// by a VIG-generated view: callers holding the admin domain's Monitor role
// get the full surface (IntrospectI + IntrospectDeepI) over Switchboard RPC;
// callers holding only Viewer get a metrics+health view with the deep
// interface stripped out at code-generation time (the restricted view's
// class simply has no journal_tail / spans_for_trace / profile_status /
// profile_dump methods — attenuation by construction, not by runtime
// checks); everyone else is denied by the ACL. This dogfoods the paper's
// own mechanism: the view IS the authorization boundary.
//
// All methods return JSON strings (metrics-snapshot-v1 / health /
// journal-v1 / spans-v1 / profile-v1 / speedscope documents) so any
// transport — Switchboard RPC, the obsd_query CLI, tests — consumes one
// stable format.
#pragma once

#include <cstdint>
#include <string>

#include "minilang/object.hpp"
#include "psf/framework.hpp"

namespace psf::framework {

/// Register the IntrospectI / IntrospectDeepI interfaces and the Introspect
/// component class. Idempotent per registry (re-registering overwrites with
/// identical definitions).
void register_introspect_components(minilang::ClassRegistry& registry);

/// View XML: full surface (both interfaces, switchboard-bound).
const std::string& introspect_view_admin_xml();
/// View XML: metrics + health only (IntrospectI, switchboard-bound).
const std::string& introspect_view_basic_xml();

struct IntrospectOptions {
  std::string service_name = "obs.introspect";
  /// The ACL-owning domain. Created if no Guard exists for it yet; kept
  /// separate from application domains so introspection rules never mix
  /// with application Table-4 rules.
  std::string domain = "Admin";
  /// Node hosting the Introspect origin (the node being introspected).
  std::string node;
  std::string monitor_role = "Monitor";  // full surface
  std::string viewer_role = "Viewer";    // metrics + health only
  std::int64_t origin_cpu = 5;
  std::int64_t view_cpu = 5;
};

/// Wire the introspection service into a running Psf:
///  1. creates the admin Guard (if absent),
///  2. registers the Introspect component on every node,
///  3. issues [<domain>.Executable -> <node-domain>.Executable] bridge
///     credentials so client views of the service may be placed on nodes of
///     other domains (the Table 2 credential (14)/(17) pattern),
///  4. defines the origin-only service with the Monitor/Viewer ACL
///     (default: deny),
///  5. installs the built-in health checks, latency objectives included.
/// Returns the service name. Callers then grant <domain>.Monitor /
/// <domain>.Viewer to operator principals and psf.request() as usual.
util::Result<std::string> install_introspection(Psf& psf,
                                                IntrospectOptions options);

}  // namespace psf::framework
