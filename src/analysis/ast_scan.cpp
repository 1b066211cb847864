#include "analysis/ast_scan.hpp"

#include <functional>

namespace psf::analysis {

using minilang::Expr;
using minilang::ExprKind;
using minilang::Stmt;
using minilang::StmtKind;
using minilang::StmtPtr;

namespace {

// The common recursive frame: walk statements in VIG order, tracking the
// linearly-declared set, and hand every expression to `on_expr`.
template <typename ExprFn>
void walk_stmt(const Stmt& s, std::set<std::string>& declared, ExprFn&& on_expr);

template <typename ExprFn>
void walk_block(const std::vector<StmtPtr>& block,
                std::set<std::string>& declared, ExprFn&& on_expr) {
  for (const auto& stmt : block) walk_stmt(*stmt, declared, on_expr);
}

template <typename ExprFn>
void walk_stmt(const Stmt& s, std::set<std::string>& declared,
               ExprFn&& on_expr) {
  if (s.init) walk_stmt(*s.init, declared, on_expr);  // for-header first
  if (s.target) on_expr(*s.target, declared, /*is_assign_target=*/true);
  if (s.expr) on_expr(*s.expr, declared, /*is_assign_target=*/false);
  if (s.kind == StmtKind::kVarDecl) declared.insert(s.name);
  walk_block(s.body, declared, on_expr);
  if (s.update) walk_stmt(*s.update, declared, on_expr);
  walk_block(s.else_body, declared, on_expr);
}

std::size_t line_or(const Expr& e, std::size_t fallback) {
  return e.line != 0 ? e.line : fallback;
}

void scan_expr(const Expr& e, const std::set<std::string>& declared,
               std::size_t enclosing_line, std::vector<Ref>& out) {
  const std::size_t line = line_or(e, enclosing_line);
  switch (e.kind) {
    case ExprKind::kIdent:
      if (e.name != "this" && declared.count(e.name) == 0) {
        out.push_back(Ref{Ref::Kind::kVar, e.name, line});
      }
      return;
    case ExprKind::kCall:
      out.push_back(Ref{Ref::Kind::kCall, e.name, line});
      break;
    default:
      break;
  }
  for (const auto& child : e.children) {
    scan_expr(*child, declared, line, out);
  }
}

}  // namespace

std::vector<Ref> free_refs(const std::vector<StmtPtr>& body,
                           const std::vector<std::string>& params) {
  std::set<std::string> declared(params.begin(), params.end());
  std::vector<Ref> out;
  walk_block(body, declared,
             [&](const Expr& e, const std::set<std::string>& d, bool) {
               scan_expr(e, d, 0, out);
             });
  return out;
}

std::set<std::string> local_decls(const std::vector<StmtPtr>& body) {
  std::set<std::string> decls;
  // The walk inserts every kVarDecl name into `declared`; seed with nothing
  // and ignore expressions.
  std::set<std::string>& out = decls;
  walk_block(body, out, [](const Expr&, const std::set<std::string>&, bool) {});
  return decls;
}

std::vector<AssignRef> ident_assignments(const std::vector<StmtPtr>& body) {
  std::vector<AssignRef> out;
  std::set<std::string> declared;
  walk_block(body, declared,
             [&](const Expr& e, const std::set<std::string>&, bool target) {
               if (target && e.kind == ExprKind::kIdent && e.name != "this") {
                 out.push_back(AssignRef{e.name, e.line});
               }
             });
  return out;
}

std::vector<MutationRef> container_mutations(const std::vector<StmtPtr>& body) {
  static const std::set<std::string> kMutators = {"push", "pop", "put",
                                                  "remove"};
  std::vector<MutationRef> out;
  std::set<std::string> declared;
  // Walk every expression tree; find kCall nodes whose name is a mutator and
  // whose first argument is a plain identifier.
  std::function<void(const Expr&)> visit = [&](const Expr& e) {
    if (e.kind == ExprKind::kCall && kMutators.count(e.name) > 0 &&
        !e.children.empty() && e.children[0]->kind == ExprKind::kIdent) {
      out.push_back(MutationRef{e.name, e.children[0]->name, e.line});
    }
    for (const auto& child : e.children) visit(*child);
  };
  walk_block(body, declared,
             [&](const Expr& e, const std::set<std::string>&, bool) {
               visit(e);
             });
  return out;
}

std::set<std::string> referenced_idents(const std::vector<StmtPtr>& body) {
  std::set<std::string> out;
  std::set<std::string> declared;
  std::function<void(const Expr&)> visit = [&](const Expr& e) {
    if (e.kind == ExprKind::kIdent && e.name != "this") out.insert(e.name);
    for (const auto& child : e.children) visit(*child);
  };
  walk_block(body, declared,
             [&](const Expr& e, const std::set<std::string>&, bool) {
               visit(e);
             });
  return out;
}

std::set<std::string> called_names(const std::vector<StmtPtr>& body) {
  std::set<std::string> out;
  std::set<std::string> declared;
  std::function<void(const Expr&)> visit = [&](const Expr& e) {
    if (e.kind == ExprKind::kCall || e.kind == ExprKind::kMemberCall) {
      out.insert(e.name);
    }
    for (const auto& child : e.children) visit(*child);
  };
  walk_block(body, declared,
             [&](const Expr& e, const std::set<std::string>&, bool) {
               visit(e);
             });
  return out;
}

}  // namespace psf::analysis
