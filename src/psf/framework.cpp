#include "psf/framework.hpp"

#include "drbac/proof_cache.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "psf/cipher_wiring.hpp"
#include "util/log.hpp"

namespace psf::framework {

using minilang::Value;
using switchboard::Connection;

namespace {
// Request-flow instrumentation (psf.framework.*).
struct FrameworkMetrics {
  obs::Counter& requests_ok = obs::counter("psf.framework.requests.ok");
  obs::Counter& requests_failed =
      obs::counter("psf.framework.requests.failed");
  obs::Counter& replicas_deployed =
      obs::counter("psf.framework.replicas.deployed");
  obs::Counter& adaptations = obs::counter("psf.framework.adaptations");
  obs::Histogram& request_us = obs::histogram("psf.framework.request_us");
  static FrameworkMetrics& get() {
    static FrameworkMetrics m;
    return m;
  }
};
}  // namespace

// ------------------------------------------------------------------- Node

Node::Node(std::string name, std::string domain, std::int64_t cpu_capacity,
           switchboard::Network* network, std::shared_ptr<util::Clock> clock,
           util::Rng& rng)
    : name_(std::move(name)),
      domain_(std::move(domain)),
      identity_(drbac::Entity::create(name_ + ".node", rng)),
      cpu_capacity_(cpu_capacity),
      board_(name_, network, std::move(clock)) {}

bool Node::reserve_cpu(std::int64_t amount) {
  if (cpu_used_ + amount > cpu_capacity_) return false;
  cpu_used_ += amount;
  return true;
}

void Node::release_cpu(std::int64_t amount) {
  cpu_used_ = std::max<std::int64_t>(0, cpu_used_ - amount);
}

// ---------------------------------------------------------- MonitorModule

void MonitorModule::record(Event event) {
  events_.push_back(event);
  for (const auto& callback : callbacks_) callback(event);
}

void MonitorModule::subscribe(std::function<void(const Event&)> callback) {
  callbacks_.push_back(std::move(callback));
}

// -------------------------------------------------------------------- Psf

Psf::Psf(std::uint64_t seed)
    : rng_(seed), clock_(std::make_shared<util::SimClock>()) {}

Guard& Psf::create_guard(const std::string& domain) {
  auto it = guards_.find(domain);
  if (it != guards_.end()) return *it->second;
  auto guard = std::make_unique<Guard>(domain, &repository_, rng_);
  Guard& ref = *guard;
  guards_[domain] = std::move(guard);
  return ref;
}

Guard* Psf::guard(const std::string& domain) {
  auto it = guards_.find(domain);
  return it == guards_.end() ? nullptr : it->second.get();
}

Node& Psf::add_node(const std::string& name, const std::string& domain,
                    std::int64_t cpu_capacity) {
  auto node = std::make_unique<Node>(name, domain, cpu_capacity, &network_,
                                     clock_, rng_);
  for (const auto& registrar : registrars_) registrar(node->registry());
  Node& ref = *node;
  nodes_[name] = std::move(node);
  return ref;
}

Node* Psf::node(const std::string& name) {
  auto it = nodes_.find(name);
  return it == nodes_.end() ? nullptr : it->second.get();
}

std::vector<NodeInfo> Psf::node_infos() const {
  std::vector<NodeInfo> out;
  for (const auto& [name, node] : nodes_) {
    NodeInfo info;
    info.name = node->name();
    info.domain = node->domain();
    info.principal = node->principal();
    auto it = guards_.find(node->domain());
    if (it != guards_.end()) {
      info.executable_role = it->second->role("Executable");
    }
    info.cpu_capacity = node->cpu_capacity();
    info.cpu_used = node->cpu_used();
    out.push_back(std::move(info));
  }
  return out;
}

void Psf::register_components(
    std::function<void(minilang::ClassRegistry&)> registrar) {
  for (auto& [name, node] : nodes_) registrar(node->registry());
  registrars_.push_back(std::move(registrar));
}

void Psf::connect(const std::string& a, const std::string& b,
                  switchboard::LinkProps props) {
  network_.connect(a, b, props);
  monitor_.record({a, b, props, clock_->now()});
}

void Psf::update_link(const std::string& a, const std::string& b,
                      switchboard::LinkProps props) {
  network_.set_link(a, b, props);
  monitor_.record({a, b, props, clock_->now()});
}

util::Result<std::string> Psf::define_service(ServiceConfig config) {
  using Fail = util::Result<std::string>;
  std::lock_guard<std::mutex> control(control_mutex_);
  Node* origin_node = node(config.origin_node);
  if (origin_node == nullptr) {
    return Fail::failure("bad-service",
                         "unknown origin node " + config.origin_node);
  }
  Guard* domain_guard = guard(config.domain);
  if (domain_guard == nullptr) {
    return Fail::failure("bad-service", "unknown domain " + config.domain);
  }
  if (origin_node->registry().find_class(config.origin_class) == nullptr) {
    return Fail::failure("bad-service",
                         "origin class " + config.origin_class +
                             " not registered on " + config.origin_node);
  }
  if (!origin_node->reserve_cpu(config.origin_cpu)) {
    return Fail::failure("bad-service",
                         "origin node has no CPU for " + config.origin_class);
  }

  ServiceRuntime runtime;
  runtime.config = config;
  runtime.origin = minilang::instantiate(origin_node->registry(),
                                         config.origin_class,
                                         config.origin_args);
  // Remote coherence endpoint so replica/client views can sync images.
  origin_node->board().register_service(
      "svc:" + config.name,
      std::make_shared<views::ImageEndpoint>(runtime.origin));

  // Component code identities, credentialed in the owning domain (the
  // deployment infrastructure issues the generated view its own set of
  // credentials, paper §4.3). Every client view of a service runs under
  // the one view identity, so its Deployed credential is issued once, here.
  runtime.replica_identity =
      domain_guard->create_principal(config.name + ".Replica");
  runtime.view_identity =
      domain_guard->create_principal(config.name + ".View");
  runtime.cipher_identity =
      domain_guard->create_principal(config.name + ".Cipher");
  runtime.provider_identity =
      domain_guard->create_principal(config.name + ".Provider");
  for (const auto* identity :
       {&runtime.replica_identity, &runtime.view_identity,
        &runtime.cipher_identity}) {
    domain_guard->grant(drbac::Principal::of_entity(*identity), "Executable",
                        {{"CPU", drbac::Attribute::make_cap("CPU", 100)}});
  }
  domain_guard->grant(drbac::Principal::of_entity(runtime.view_identity),
                      "Deployed", {}, clock_->now());

  // Table 4 access rules live on the Guard.
  for (const auto& [role, view] : config.access_rules) {
    domain_guard->add_access_rule(role, view);
  }
  if (!config.default_view.empty()) {
    domain_guard->set_default_view(config.default_view);
  }

  services_[config.name] = std::move(runtime);
  return config.name;
}

std::shared_ptr<minilang::Instance> Psf::origin_instance(
    const std::string& service) {
  auto it = services_.find(service);
  return it == services_.end() ? nullptr : it->second.origin;
}

util::Result<std::shared_ptr<minilang::Instance>> Psf::deploy_replica(
    ServiceRuntime& service, Node& provider, const Plan& plan) {
  using Fail = util::Result<std::shared_ptr<minilang::Instance>>;

  auto reuse = service.replicas.find(provider.name());
  if (reuse != service.replicas.end()) return reuse->second;

  auto def = views::ViewDefinition::from_xml(service.config.replica_view_xml);
  if (!def.ok()) {
    return Fail::failure("deploy", "replica view XML: " + def.error().message);
  }
  auto view_class = provider.vig().generate(def.value());
  if (!view_class.ok()) {
    return Fail::failure("deploy", view_class.error().message);
  }
  if (!provider.reserve_cpu(service.config.replica_cpu)) {
    return Fail::failure("deploy", "CPU exhausted on " + provider.name());
  }
  auto replica =
      minilang::instantiate(provider.registry(), view_class.value()->name);

  // Backend sync stub: plaintext rmi to the origin's image endpoint, with
  // the encryptor/decryptor pair spliced in when the plan says so.
  Node* origin_node = node(service.config.origin_node);
  std::shared_ptr<minilang::CallTarget> sync_stub =
      std::make_shared<switchboard::RmiStub>(&network_, provider.name(),
                                             &origin_node->board(),
                                             "svc:" + service.config.name);
  if (plan.uses_ciphers) {
    const Value key = Value::bytes(rng_.next_bytes(32));
    auto encryptor =
        minilang::instantiate(provider.registry(), "Encryptor", {key});
    auto decryptor =
        minilang::instantiate(origin_node->registry(), "Decryptor", {key});
    provider.reserve_cpu(service.config.cipher_cpu);
    origin_node->reserve_cpu(service.config.cipher_cpu);
    // Secured endpoint on the origin side.
    const std::string secured_name = "svc:" + service.config.name + ":sec:" +
                                     provider.name();
    origin_node->board().register_service(
        secured_name,
        std::make_shared<CipherEndpoint>(
            std::make_shared<views::ImageEndpoint>(service.origin),
            decryptor));
    sync_stub = std::make_shared<CipherStub>(
        std::make_shared<switchboard::RmiStub>(&network_, provider.name(),
                                               &origin_node->board(),
                                               secured_name),
        encryptor);
  }
  views::attach_cache_manager(replica, Value::object(sync_stub));

  // The replica serves downstream views: expose its own image endpoint.
  provider.board().register_service(
      "svc:" + service.config.name,
      std::make_shared<views::ImageEndpoint>(replica));

  service.replicas[provider.name()] = replica;
  FrameworkMetrics::get().replicas_deployed.inc();
  return replica;
}

util::Result<ClientSession> Psf::request(const ClientRequest& request) {
  FrameworkMetrics& metrics = FrameworkMetrics::get();
  obs::ScopedSpan span("psf.request");
  obs::ScopedTimerUs timer(metrics.request_us);
  auto result = request_impl(request);
  (result.ok() ? metrics.requests_ok : metrics.requests_failed).inc();
  if (result.ok()) {
    obs::journal::emit(obs::journal::Subsystem::kPsf,
                       obs::journal::kPsRequestOk,
                       obs::journal::tag(request.service),
                       obs::journal::tag(request.client_node),
                       obs::journal::tag(result.value().view_name));
  } else {
    obs::journal::emit(obs::journal::Subsystem::kPsf,
                       obs::journal::kPsRequestFailed,
                       obs::journal::tag(request.service),
                       obs::journal::tag(request.client_node),
                       obs::journal::tag(result.error().code));
  }
  return result;
}

util::Result<ClientSession> Psf::request_impl(const ClientRequest& request) {
  using Fail = util::Result<ClientSession>;
  std::lock_guard<std::mutex> control(control_mutex_);

  auto service_it = services_.find(request.service);
  if (service_it == services_.end()) {
    return Fail::failure("no-service", "unknown service " + request.service);
  }
  ServiceRuntime& service = service_it->second;
  Guard* domain_guard = guard(service.config.domain);
  Node* client_node = node(request.client_node);
  if (client_node == nullptr) {
    return Fail::failure("no-node", "unknown node " + request.client_node);
  }
  const util::SimTime now = clock_->now();

  // 1. Collect the client's credentials into the repository, then run the
  //    ACL (Table 4) — this is the single sign-on point. Re-presenting a
  //    credential the repository holds is a no-op there, so a reconnecting
  //    client does not disturb the proof cache.
  for (const auto& credential : request.credentials) {
    if (drbac::verify_cached(*credential)) repository_.add(credential);
  }
  auto decision = domain_guard->select_view(
      service.config.access_rules, service.config.default_view,
      drbac::Principal::of_entity(request.identity), now);
  if (!decision.ok()) {
    return Fail::failure("access-denied", decision.error().message);
  }
  const std::string view_name = decision.value().view_name;
  auto view_xml_it = service.config.view_xml_by_name.find(view_name);
  if (view_xml_it == service.config.view_xml_by_name.end()) {
    return Fail::failure("bad-service",
                         "no view definition for " + view_name);
  }

  // 2. Plan.
  PlanProblem problem;
  problem.client_node = request.client_node;
  problem.origin_node = service.config.origin_node;
  problem.client_view = view_name;
  problem.replica_view = service.config.replica_view_xml.empty()
                             ? ""
                             : "ViewMailServer";  // display label
  problem.qos = request.qos;
  problem.node_policy_role = service.config.node_policy_role;
  problem.node_policy_attrs = service.config.node_policy_attrs;
  problem.replica_component =
      drbac::Principal::of_entity(service.replica_identity);
  problem.view_component = drbac::Principal::of_entity(service.view_identity);
  problem.cipher_component =
      drbac::Principal::of_entity(service.cipher_identity);
  problem.replica_cpu = service.config.replica_cpu;
  problem.view_cpu = service.config.view_cpu;
  problem.cipher_cpu = service.config.cipher_cpu;

  auto plan = planner_.plan(problem, node_infos(), now);
  if (!plan.ok()) {
    return Fail::failure(plan.error().code, plan.error().message);
  }

  // 3. Deploy the provider side.
  Node* provider = node(plan.value().provider_node);
  std::vector<std::string> deployed;
  if (plan.value().uses_replica) {
    auto replica = deploy_replica(service, *provider, plan.value());
    if (!replica.ok()) {
      return Fail::failure(replica.error().code, replica.error().message);
    }
    deployed.push_back("ViewMailServer@" + provider->name());
    if (plan.value().uses_ciphers) {
      deployed.push_back("Encryptor@" + provider->name());
      deployed.push_back("Decryptor@" + service.config.origin_node);
    }
  }

  // 4. Secure channel client <-> provider. The provider requires exactly the
  //    role the ACL matched (or accepts anyone for the default view), so
  //    no further per-request checks are needed afterwards.
  switchboard::AuthorizationSuite client_suite;
  client_suite.identity = request.identity;
  client_suite.credentials = request.credentials;
  client_suite.authorizer =
      std::make_shared<switchboard::AcceptAllAuthorizer>();

  switchboard::AuthorizationSuite provider_suite;
  provider_suite.identity = service.provider_identity;
  if (decision.value().matched_role.empty()) {
    provider_suite.authorizer =
        std::make_shared<switchboard::AcceptAllAuthorizer>();
  } else {
    provider_suite.authorizer = std::make_shared<switchboard::RoleAuthorizer>(
        &repository_, domain_guard->role(decision.value().matched_role));
  }

  auto connection = Connection::establish(client_node->board(),
                                          provider->board(), client_suite,
                                          provider_suite, rng_);
  if (!connection.ok()) {
    return Fail::failure(connection.error().code, connection.error().message);
  }

  // 5. Generate + instantiate the client view, wire its stub fields.
  auto def = views::ViewDefinition::from_xml(view_xml_it->second);
  if (!def.ok()) {
    return Fail::failure("bad-view", def.error().message);
  }
  auto view_class = client_node->vig().generate(def.value());
  if (!view_class.ok()) {
    return Fail::failure("vig", view_class.error().message);
  }
  if (!client_node->reserve_cpu(service.config.view_cpu)) {
    return Fail::failure("deploy", "CPU exhausted on client node");
  }
  auto view =
      minilang::instantiate(client_node->registry(), view_class.value()->name);
  deployed.push_back(view_name + "@" + client_node->name());

  const std::string provider_service = "svc:" + service.config.name;
  auto channel_stub = std::make_shared<switchboard::ChannelStub>(
      connection.value(), Connection::End::kA, provider_service);
  for (const auto& [iface, binding] : view_class.value()->interface_bindings) {
    const std::string field = views::stub_field_name(iface, binding);
    if (binding == minilang::Binding::kRmi) {
      view->set_field(field,
                      Value::object(std::make_shared<switchboard::RmiStub>(
                          &network_, client_node->name(), &provider->board(),
                          provider_service)));
    } else if (binding == minilang::Binding::kSwitchboard) {
      view->set_field(field, Value::object(channel_stub));
    }
  }
  views::attach_cache_manager(view, Value::object(channel_stub));

  ClientSession session;
  session.request = request;
  session.service = request.service;
  session.view_name = view_name;
  session.matched_role = decision.value().matched_role;
  session.provider_node = provider->name();
  session.plan = std::move(plan).take();
  session.view = view;
  session.connection = connection.value();
  session.deployed = std::move(deployed);
  session.qos = request.qos;
  session.client_node = request.client_node;
  return session;
}

util::Result<ClientSession> Psf::adapt(const ClientSession& session) {
  FrameworkMetrics::get().adaptations.inc();
  {
    std::lock_guard<std::mutex> control(control_mutex_);
    if (session.connection != nullptr) {
      session.connection->close("superseded by adaptation");
    }
    // Release the old client view's CPU so the replacement fits.
    auto service_it = services_.find(session.service);
    if (service_it != services_.end()) {
      if (Node* client_node = node(session.client_node)) {
        client_node->release_cpu(service_it->second.config.view_cpu);
      }
    }
  }
  return request(session.request);
}

bool Psf::session_still_valid(const ClientSession& session) const {
  auto path = network_.path(session.client_node, session.provider_node);
  if (!path.has_value()) return false;
  if (session.qos.min_bandwidth_kbps > 0 && path->bandwidth_kbps != 0 &&
      path->bandwidth_kbps < session.qos.min_bandwidth_kbps) {
    return false;
  }
  if (session.qos.max_latency_ms > 0 &&
      path->latency / util::kMillisecond > session.qos.max_latency_ms) {
    return false;
  }
  return session.connection == nullptr || session.connection->open();
}

}  // namespace psf::framework
