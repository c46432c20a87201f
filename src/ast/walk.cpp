#include "ast/walk.h"

namespace cgp {

const Expr* store_target(const Expr& expr) {
  if (expr.kind == NodeKind::Assign)
    return static_cast<const AssignExpr&>(expr).target.get();
  if (expr.kind == NodeKind::Unary) {
    const auto& unary = static_cast<const UnaryExpr&>(expr);
    if (is_inc_dec(unary.op)) return unary.operand.get();
  }
  return nullptr;
}

bool runs_user_code(const Expr& expr) {
  return expr.kind == NodeKind::NewObject ||
         (expr.kind == NodeKind::Call &&
          !static_cast<const CallExpr&>(expr).is_intrinsic);
}

std::string root_base(const Expr& expr) {
  const Expr* e = &expr;
  for (;;) {
    switch (e->kind) {
      case NodeKind::VarRef:
        return static_cast<const VarRef*>(e)->name;
      case NodeKind::FieldAccess:
        e = static_cast<const FieldAccess*>(e)->base.get();
        break;
      case NodeKind::Index:
        e = static_cast<const IndexExpr*>(e)->base.get();
        break;
      default:
        return {};
    }
  }
}

namespace {

auto var_ref_collector(std::set<std::string>& out) {
  return [&out](const Expr& e) {
    if (e.kind == NodeKind::VarRef)
      out.insert(static_cast<const VarRef&>(e).name);
  };
}

}  // namespace

void collect_var_refs(const Expr& expr, std::set<std::string>& out) {
  walk(expr, var_ref_collector(out));
}

void collect_var_refs(const Stmt& stmt, std::set<std::string>& out) {
  walk(stmt, var_ref_collector(out));
}

void collect_assigned_vars(const Stmt& stmt, std::set<std::string>& out) {
  walk(stmt, [&out](const Expr& e) {
    const Expr* target = store_target(e);
    if (target && target->kind == NodeKind::VarRef)
      out.insert(static_cast<const VarRef&>(*target).name);
  });
}

}  // namespace cgp
