// Shared AST scans over minilang method bodies, used by the analysis passes
// and by VIG's generation mechanics (views::collect_free_names wraps
// free_refs). The linear declaration semantics — a `var` counts as declared
// for everything visited after it, in statement walk order, regardless of
// block nesting — deliberately mirror both the engine's function-scoped
// locals and VIG's historical validation walk, so the analyzer reasons about
// exactly the code generation that will happen.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "minilang/ast.hpp"

namespace psf::analysis {

/// One free name occurrence: a variable read/written (kVar) or a bare call
/// target (kCall) that is neither a parameter nor a previously walked `var`.
struct Ref {
  enum class Kind { kVar, kCall };
  Kind kind;
  std::string name;
  std::size_t line = 0;
};

/// Free-name scan in VIG walk order: for-init before target/expr before
/// body/update/else. Every occurrence is reported (not deduplicated), in
/// source order, with the line of the enclosing expression.
std::vector<Ref> free_refs(const std::vector<minilang::StmtPtr>& body,
                           const std::vector<std::string>& params);

/// Names declared with `var` anywhere in the body (any nesting depth).
std::set<std::string> local_decls(const std::vector<minilang::StmtPtr>& body);

/// Plain-identifier assignment targets: `x = ...` (not obj.f or a[i]).
struct AssignRef {
  std::string name;
  std::size_t line = 0;
};
std::vector<AssignRef> ident_assignments(
    const std::vector<minilang::StmtPtr>& body);

/// Builtin container-mutation calls whose first argument is a plain
/// identifier: push(x, ...), put(x, ...), pop(x), remove(x, ...).
struct MutationRef {
  std::string builtin;
  std::string target;
  std::size_t line = 0;
};
std::vector<MutationRef> container_mutations(
    const std::vector<minilang::StmtPtr>& body);

/// Every identifier mentioned anywhere in the body (reads, writes, call
/// arguments) — "does this body reference field X at all".
std::set<std::string> referenced_idents(
    const std::vector<minilang::StmtPtr>& body);

/// Every call target name in the body: bare calls `f(...)` plus member
/// calls `obj.m(...)` (any receiver — a deliberate over-approximation so
/// liveness analyses never report a member as dead because it is reached
/// through `this.m()` or a stored self-reference).
std::set<std::string> called_names(const std::vector<minilang::StmtPtr>& body);

/// Member-call sites `obj.m(...)` in source order (receiver expressions of
/// any shape). The deployment analyzer resolves each member name against
/// every class deployed anywhere to decide whether the site is monomorphic.
struct MemberCallRef {
  std::string member;
  std::size_t line = 0;
};
std::vector<MemberCallRef> member_calls(
    const std::vector<minilang::StmtPtr>& body);

}  // namespace psf::analysis
