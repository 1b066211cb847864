// PSF facade: registrar (components + services), monitoring module, planner
// and deployment infrastructure (paper §2.1), wired to dRBAC Guards,
// VIG-generated views, and Switchboard channels.
//
// A client request flows exactly as §4.3 describes: the client's credentials
// select the subset of components usable for deployment (the ACL picks a
// view, Table 4); the planner finds a valid placement honoring QoS and
// dRBAC-expressed constraints; the run-time instantiates the view (VIG,
// lazily), issues it credentials, and connects it over secure channels.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "minilang/interp.hpp"
#include "psf/guard.hpp"
#include "psf/planner.hpp"
#include "switchboard/channel.hpp"
#include "views/cache.hpp"
#include "views/vig.hpp"

namespace psf::framework {

/// A deployment host: its own class namespace ("JVM"), VIG instance, and
/// Switchboard, plus the node's principal identity and CPU budget.
class Node {
 public:
  Node(std::string name, std::string domain, std::int64_t cpu_capacity,
       switchboard::Network* network, std::shared_ptr<util::Clock> clock,
       util::Rng& rng);

  const std::string& name() const { return name_; }
  const std::string& domain() const { return domain_; }
  const drbac::Entity& identity() const { return identity_; }
  drbac::Principal principal() const {
    return drbac::Principal::of_entity(identity_);
  }

  minilang::ClassRegistry& registry() { return registry_; }
  views::Vig& vig() { return vig_; }
  switchboard::Switchboard& board() { return board_; }

  std::int64_t cpu_capacity() const { return cpu_capacity_; }
  std::int64_t cpu_used() const { return cpu_used_; }
  bool reserve_cpu(std::int64_t amount);
  void release_cpu(std::int64_t amount);

 private:
  std::string name_;
  std::string domain_;
  drbac::Entity identity_;
  std::int64_t cpu_capacity_;
  std::int64_t cpu_used_ = 0;
  minilang::ClassRegistry registry_;
  views::Vig vig_{&registry_};
  switchboard::Switchboard board_;
};

/// Registrar entry for a deployable service.
struct ServiceConfig {
  std::string name;          // e.g. "mail"
  std::string domain;        // ACL-owning Guard, e.g. "Comp.NY"
  std::string origin_node;   // where the origin instance lives
  std::string origin_class;  // e.g. "MailServer" or "MailClient"
  std::vector<minilang::Value> origin_args;  // constructor args

  /// Replica view deployable near clients ("" = origin-only service).
  std::string replica_view_xml;

  /// Table 4: evaluated in order; first provable role wins.
  std::vector<std::pair<std::string, std::string>> access_rules;
  std::string default_view;  // for "others"; "" = deny
  std::map<std::string, std::string> view_xml_by_name;

  /// Application node policy (Table 2 rows 4-6).
  drbac::RoleRef node_policy_role;
  drbac::AttributeMap node_policy_attrs;

  std::int64_t origin_cpu = 20;
  std::int64_t replica_cpu = 20;
  std::int64_t view_cpu = 10;
  std::int64_t cipher_cpu = 5;
};

struct ClientRequest {
  drbac::Entity identity;  // the client principal (with keys)
  std::vector<drbac::DelegationPtr> credentials;
  std::string client_node;
  std::string service;
  QoS qos;
};

/// The outcome of a successful request: a live, wired client view.
struct ClientSession {
  std::string service;
  std::string view_name;
  std::string matched_role;  // "" if the default ("others") row applied
  std::string provider_node;
  Plan plan;
  std::shared_ptr<minilang::Instance> view;  // runs on the client node
  std::shared_ptr<switchboard::Connection> connection;  // client<->provider
  std::vector<std::string> deployed;  // "Component@node" labels
  QoS qos;
  std::string client_node;
  ClientRequest request;  // the originating request, kept for adaptation
};

/// Monitoring module (paper §2.1): tracks environment updates so existing
/// deployments can be re-validated and adapted.
class MonitorModule {
 public:
  struct Event {
    std::string a, b;
    switchboard::LinkProps props;
    util::SimTime at;
  };

  void record(Event event);
  const std::vector<Event>& events() const { return events_; }
  void subscribe(std::function<void(const Event&)> callback);

 private:
  std::vector<Event> events_;
  std::vector<std::function<void(const Event&)>> callbacks_;
};

class Psf {
 public:
  explicit Psf(std::uint64_t seed = 7);

  switchboard::Network& network() { return network_; }
  std::shared_ptr<util::SimClock> clock() { return clock_; }
  drbac::Repository& repository() { return repository_; }
  util::Rng& rng() { return rng_; }
  Planner& planner() { return planner_; }
  MonitorModule& monitor() { return monitor_; }

  Guard& create_guard(const std::string& domain);
  Guard* guard(const std::string& domain);

  Node& add_node(const std::string& name, const std::string& domain,
                 std::int64_t cpu_capacity = 100);
  Node* node(const std::string& name);
  std::vector<NodeInfo> node_infos() const;

  /// Register component classes on every node (current and future).
  void register_components(
      std::function<void(minilang::ClassRegistry&)> registrar);

  /// Network topology, routed through the monitoring module.
  void connect(const std::string& a, const std::string& b,
               switchboard::LinkProps props);
  void update_link(const std::string& a, const std::string& b,
                   switchboard::LinkProps props);

  /// Define a service: instantiates the origin component on its node and
  /// registers it (wrapped for remote coherence) with the node's
  /// switchboard; installs the Table 4 rules on the owning Guard.
  util::Result<std::string> define_service(ServiceConfig config);

  /// The full client flow: ACL -> plan -> deploy -> wire.
  util::Result<ClientSession> request(const ClientRequest& request);

  /// Does the session's plan still satisfy its QoS under the current
  /// network (used by adaptation examples/benches after link changes)?
  bool session_still_valid(const ClientSession& session) const;

  /// Adaptation: re-run the session's originating request against the
  /// current environment (paper §1: applications "flexibly and dynamically
  /// adapt to changes in resource availability"). The old session's channel
  /// is closed; CPU held by its client view is released for reuse.
  util::Result<ClientSession> adapt(const ClientSession& session);

  /// The origin instance behind a service (for tests and examples).
  std::shared_ptr<minilang::Instance> origin_instance(
      const std::string& service);

 private:
  // The facade serializes control-plane operations (request/define/adapt)
  // behind one mutex; data-plane traffic (view calls, channel RPC) runs
  // concurrently without it.
  std::mutex control_mutex_;

  struct ServiceRuntime {
    ServiceConfig config;
    std::shared_ptr<minilang::Instance> origin;
    drbac::Entity replica_identity;   // code identity of the replica view
    drbac::Entity view_identity;      // code identity of client views
    drbac::Entity cipher_identity;    // code identity of Encryptor/Decryptor
    drbac::Entity provider_identity;  // channel identity of the service side
    // Replica reuse: provider node -> deployed replica instance.
    std::map<std::string, std::shared_ptr<minilang::Instance>> replicas;
  };

  util::Result<std::shared_ptr<minilang::Instance>> deploy_replica(
      ServiceRuntime& service, Node& provider, const Plan& plan);

  util::Result<ClientSession> request_impl(const ClientRequest& request);

  util::Rng rng_;
  std::shared_ptr<util::SimClock> clock_;
  switchboard::Network network_;
  drbac::Repository repository_;
  Planner planner_{&network_, &repository_};
  MonitorModule monitor_;
  std::map<std::string, std::unique_ptr<Guard>> guards_;
  std::map<std::string, std::unique_ptr<Node>> nodes_;
  std::map<std::string, ServiceRuntime> services_;
  std::vector<std::function<void(minilang::ClassRegistry&)>> registrars_;
};

}  // namespace psf::framework
