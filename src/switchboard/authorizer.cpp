#include "switchboard/authorizer.hpp"

#include "drbac/proof_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace psf::switchboard {

namespace {
// Authorization decision instrumentation (psf.switchboard.authorize.*).
struct AuthorizerMetrics {
  obs::Counter& allowed = obs::counter("psf.switchboard.authorize.allow");
  obs::Counter& denied = obs::counter("psf.switchboard.authorize.deny");
  static AuthorizerMetrics& get() {
    static AuthorizerMetrics m;
    return m;
  }
};
}  // namespace

RoleAuthorizer::RoleAuthorizer(drbac::Repository* repository,
                               drbac::RoleRef required_role,
                               drbac::AttributeMap required_attributes)
    : repository_(repository),
      required_role_(std::move(required_role)),
      required_attributes_(std::move(required_attributes)) {}

util::Result<drbac::Proof> RoleAuthorizer::authorize(
    const drbac::Principal& peer,
    const std::vector<drbac::DelegationPtr>& credentials, util::SimTime now) {
  AuthorizerMetrics& metrics = AuthorizerMetrics::get();
  obs::ScopedSpan span("switchboard.authorize");
  // Collect the presented credentials (verified) into the repository. A
  // reconnecting peer re-presents the same credentials; the cached verify
  // makes the re-check a hash lookup instead of a Schnorr verify, the
  // repository ignores credentials it already holds, and the engine below
  // hits the repository's proof cache when nothing changed.
  for (const auto& credential : credentials) {
    if (!drbac::verify_cached(*credential)) {
      metrics.denied.inc();
      return util::Result<drbac::Proof>::failure(
          "bad-credential",
          "presented credential has an invalid signature: " +
              credential->display());
    }
    repository_->add(credential);
  }
  drbac::Engine engine(repository_);
  drbac::ProveOptions options;
  options.required = required_attributes_;
  auto proof = engine.prove(peer, required_role_, now, options);
  (proof.ok() ? metrics.allowed : metrics.denied).inc();
  return proof;
}

util::Result<drbac::Proof> AcceptAllAuthorizer::authorize(
    const drbac::Principal& peer,
    const std::vector<drbac::DelegationPtr>& credentials, util::SimTime now) {
  (void)credentials;
  AuthorizerMetrics::get().allowed.inc();
  drbac::Proof proof;
  proof.subject = peer;
  proof.target = drbac::RoleRef{"*", "*", "anonymous"};
  proof.proved_at = now;
  return proof;
}

}  // namespace psf::switchboard
