// Layer replays: each runs one ledger row's inputs alone, so the row can
// be reproduced and profiled without the rest of the request path.
#include <iostream>

#include "minilang/value_codec.hpp"
#include "switchboard/channel.hpp"
#include "switchboard/reactor.hpp"
#include "workloads.hpp"

namespace psfbench {

using namespace psf;

double seal_unseal_p50_ns(std::size_t request_bytes,
                          std::size_t response_bytes, std::uint64_t seed,
                          int iterations) {
  util::Rng rng(seed);
  switchboard::Network network;
  network.connect("client-host", "server-host", {util::kMillisecond, 0, true});
  auto clock = std::make_shared<util::SimClock>();
  switchboard::Switchboard client("client-host", &network, clock);
  switchboard::Switchboard server("server-host", &network, clock);
  switchboard::AuthorizationSuite server_suite;
  server_suite.identity = drbac::Entity::create("trunk-server", rng);
  server_suite.authorizer = std::make_shared<switchboard::AcceptAllAuthorizer>();
  server.set_suite(server_suite);
  switchboard::AuthorizationSuite client_suite;
  client_suite.identity = drbac::Entity::create("trunk-client", rng);
  client_suite.authorizer = std::make_shared<switchboard::AcceptAllAuthorizer>();
  auto trunk = client.connect(server, client_suite, rng).value();

  // Both ends of one derived session, as two EventChannels would hold them.
  switchboard::SessionCrypto a(trunk->derive_session_keys(1, "data"));
  switchboard::SessionCrypto b(trunk->derive_session_keys(1, "data"));
  const util::Bytes request = rng.next_bytes(request_bytes);
  const util::Bytes response = rng.next_bytes(response_bytes);
  util::Bytes frame, plain;
  Samples ns;
  ns.reserve(static_cast<std::size_t>(iterations));
  for (int i = 0; i < iterations; ++i) {
    const std::uint64_t t0 = now_ns();
    a.seal_into(0, request.data(), request.size(), frame);
    bool ok = b.unseal_into(0, frame.data(), frame.size(), plain).ok();
    b.seal_into(1, response.data(), response.size(), frame);
    ok = ok && a.unseal_into(1, frame.data(), frame.size(), plain).ok();
    ns.add(static_cast<double>(now_ns() - t0));
    if (!ok) throw std::runtime_error("seal replay: frame did not unseal");
  }
  return ns.percentile(50);
}

namespace {

/// A sso_read-shaped getPhone call and its answer, as the bench encodes
/// them: the seal replay's default plaintext sizes.
std::pair<std::size_t, std::size_t> typical_read_sizes() {
  using minilang::Value;
  const util::Bytes request = minilang::encode_values(
      {Value::integer(1), Value::string("getPhone"),
       Value::string("user-123456")});
  const util::Bytes response = minilang::encode_values(
      {Value::integer(1), Value::boolean(true), Value::string("555-1234")});
  return {request.size(), response.size()};
}

}  // namespace

int run_layer(const std::string& layer, const Options& options) {
  Report report;
  if (layer == "seal") {
    const auto [request, response] = typical_read_sizes();
    constexpr int kIterations = 200000;
    report.set("crypto.seal_unseal_p50_ns",
               seal_unseal_p50_ns(request, response, options.seed,
                                  kIterations),
               kIterations);
    report.set("seal.request_bytes", static_cast<double>(request), 1, "B");
    report.set("seal.response_bytes", static_cast<double>(response), 1, "B");
  } else if (layer == "select_view") {
    run_select_view_layer(options, report);
  } else if (layer == "view_call") {
    run_view_call_layer(options, report);
  } else if (layer == "revoke") {
    run_revoke_layer(options, report);
  } else {
    std::cerr << "psfbench: unknown layer '" << layer
              << "' (seal, select_view, view_call, revoke)\n";
    return 2;
  }
  report.print_table(std::cout, "layer " + layer);
  report.print_all(std::cout);
  return 0;
}

}  // namespace psfbench
