// Authorization suites (paper §4.3): before a Switchboard connection forms,
// each side provides its PKI identity (with private key), the dRBAC
// credentials to present to the partner, and an Authorizer object that
// evaluates the partner's credentials. Authorizers produce proofs whose
// revocation is then watched for the life of the connection (continuous
// authorization).
#pragma once

#include <memory>
#include <vector>

#include "drbac/engine.hpp"
#include "drbac/entity.hpp"
#include "util/result.hpp"

namespace psf::switchboard {

class Authorizer {
 public:
  virtual ~Authorizer() = default;

  /// Decide whether `peer`, presenting `credentials`, is authorized.
  /// Returns the dRBAC proof backing the decision.
  virtual util::Result<drbac::Proof> authorize(
      const drbac::Principal& peer,
      const std::vector<drbac::DelegationPtr>& credentials,
      util::SimTime now) = 0;

  /// The repository whose revocations invalidate proofs from this
  /// authorizer (nullptr = decisions are static).
  virtual drbac::Repository* repository() { return nullptr; }
};

/// Requires the peer to prove possession of a role (optionally with
/// attribute requirements). Presented credentials are verified and merged
/// into the domain repository before proving — dRBAC's credential
/// collection step.
class RoleAuthorizer : public Authorizer {
 public:
  RoleAuthorizer(drbac::Repository* repository, drbac::RoleRef required_role,
                 drbac::AttributeMap required_attributes = {});

  util::Result<drbac::Proof> authorize(
      const drbac::Principal& peer,
      const std::vector<drbac::DelegationPtr>& credentials,
      util::SimTime now) override;

  drbac::Repository* repository() override { return repository_; }
  const drbac::RoleRef& required_role() const { return required_role_; }

 private:
  drbac::Repository* repository_;
  drbac::RoleRef required_role_;
  drbac::AttributeMap required_attributes_;
};

/// Accepts anyone (the "others" row of the paper's Table 4 — anonymous
/// clients still get a connection, just to a restricted view).
class AcceptAllAuthorizer : public Authorizer {
 public:
  util::Result<drbac::Proof> authorize(
      const drbac::Principal& peer,
      const std::vector<drbac::DelegationPtr>& credentials,
      util::SimTime now) override;
};

/// One side's contribution to a Switchboard connection.
struct AuthorizationSuite {
  drbac::Entity identity;  // includes the private key for authentication
  std::vector<drbac::DelegationPtr> credentials;
  std::shared_ptr<Authorizer> authorizer;
};

}  // namespace psf::switchboard
