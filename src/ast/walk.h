// Pre-order traversal of statement and expression trees.
//
// This is the one traversal for position-agnostic collectors: questions
// such as "which names does this code mention", "which variables does it
// reassign", "does it call user code" are a callback over walk(), so every
// collector sees every node position (new arguments, array lengths, domain
// bounds, assignment targets, intrinsic arguments) and none can miss one.
// Walkers that carry state per node kind stay hand-written: the Gen/Cons
// reverse analysis (gencons.h), sema, the op counter, the interpreter, the
// lowering, and the scope-aware scans of may_write.h and
// loop_independence.h.
#pragma once

#include <set>
#include <string>

#include "ast/ast.h"

namespace cgp {

/// Calls `on_expr` on `expr` and on every expression below it, parents
/// first, whatever the position (read, write, call receiver or argument,
/// allocation length, domain bound).
template <typename OnExpr>
void walk(const Expr& expr, OnExpr&& on_expr) {
  on_expr(expr);
  switch (expr.kind) {
    case NodeKind::FieldAccess:
      walk(*static_cast<const FieldAccess&>(expr).base, on_expr);
      return;
    case NodeKind::Index: {
      const auto& index = static_cast<const IndexExpr&>(expr);
      walk(*index.base, on_expr);
      for (const ExprPtr& i : index.indices) walk(*i, on_expr);
      return;
    }
    case NodeKind::Unary:
      walk(*static_cast<const UnaryExpr&>(expr).operand, on_expr);
      return;
    case NodeKind::Binary: {
      const auto& binary = static_cast<const BinaryExpr&>(expr);
      walk(*binary.lhs, on_expr);
      walk(*binary.rhs, on_expr);
      return;
    }
    case NodeKind::Assign: {
      const auto& assign = static_cast<const AssignExpr&>(expr);
      walk(*assign.target, on_expr);
      walk(*assign.value, on_expr);
      return;
    }
    case NodeKind::Call: {
      const auto& call = static_cast<const CallExpr&>(expr);
      if (call.base) walk(*call.base, on_expr);
      for (const ExprPtr& a : call.args) walk(*a, on_expr);
      return;
    }
    case NodeKind::NewObject:
      for (const ExprPtr& a : static_cast<const NewObjectExpr&>(expr).args)
        walk(*a, on_expr);
      return;
    case NodeKind::NewArray:
      walk(*static_cast<const NewArrayExpr&>(expr).length, on_expr);
      return;
    case NodeKind::RectdomainLit:
      for (const RectdomainLit::Dim& d :
           static_cast<const RectdomainLit&>(expr).dims) {
        walk(*d.lo, on_expr);
        walk(*d.hi, on_expr);
      }
      return;
    case NodeKind::Conditional: {
      const auto& cond = static_cast<const ConditionalExpr&>(expr);
      walk(*cond.cond, on_expr);
      walk(*cond.then_value, on_expr);
      walk(*cond.else_value, on_expr);
      return;
    }
    default:
      return;  // literals, VarRef
  }
}

/// Calls `on_stmt` on `stmt` and on every statement below it, and
/// `on_expr` on every expression below them, parents first.
template <typename OnStmt, typename OnExpr>
void walk(const Stmt& stmt, OnStmt&& on_stmt, OnExpr&& on_expr) {
  on_stmt(stmt);
  switch (stmt.kind) {
    case NodeKind::VarDeclStmt: {
      const auto& decl = static_cast<const VarDeclStmt&>(stmt);
      if (decl.init) walk(*decl.init, on_expr);
      return;
    }
    case NodeKind::ExprStmt:
      walk(*static_cast<const ExprStmt&>(stmt).expr, on_expr);
      return;
    case NodeKind::Block:
      for (const StmtPtr& s : static_cast<const BlockStmt&>(stmt).statements)
        walk(*s, on_stmt, on_expr);
      return;
    case NodeKind::IfStmt: {
      const auto& if_stmt = static_cast<const IfStmt&>(stmt);
      walk(*if_stmt.cond, on_expr);
      walk(*if_stmt.then_branch, on_stmt, on_expr);
      if (if_stmt.else_branch) walk(*if_stmt.else_branch, on_stmt, on_expr);
      return;
    }
    case NodeKind::WhileStmt: {
      const auto& loop = static_cast<const WhileStmt&>(stmt);
      walk(*loop.cond, on_expr);
      walk(*loop.body, on_stmt, on_expr);
      return;
    }
    case NodeKind::ForStmt: {
      const auto& loop = static_cast<const ForStmt&>(stmt);
      if (loop.init) walk(*loop.init, on_stmt, on_expr);
      if (loop.cond) walk(*loop.cond, on_expr);
      if (loop.step) walk(*loop.step, on_expr);
      walk(*loop.body, on_stmt, on_expr);
      return;
    }
    case NodeKind::ForeachStmt: {
      const auto& loop = static_cast<const ForeachStmt&>(stmt);
      walk(*loop.domain, on_expr);
      walk(*loop.body, on_stmt, on_expr);
      return;
    }
    case NodeKind::PipelinedLoopStmt: {
      const auto& loop = static_cast<const PipelinedLoopStmt&>(stmt);
      walk(*loop.domain, on_expr);
      walk(*loop.body, on_stmt, on_expr);
      return;
    }
    case NodeKind::ReturnStmt: {
      const auto& ret = static_cast<const ReturnStmt&>(stmt);
      if (ret.value) walk(*ret.value, on_expr);
      return;
    }
    default:
      return;  // break, continue
  }
}

/// walk(stmt, on_stmt, on_expr) for callers that only look at expressions.
template <typename OnExpr>
void walk(const Stmt& stmt, OnExpr&& on_expr) {
  walk(stmt, [](const Stmt&) {}, on_expr);
}

/// True when `pred` holds for some expression at or below `tree`.
template <typename Tree, typename Pred>
bool any_expr(const Tree& tree, Pred&& pred) {
  bool found = false;
  walk(tree, [&](const Expr& e) { found = found || pred(e); });
  return found;
}

/// What `expr` stores into: the target of an assignment or the operand of
/// ++/--; null for every other expression.
const Expr* store_target(const Expr& expr);

/// True when evaluating `expr` itself runs user code: a non-intrinsic call,
/// or an object allocation (its constructor).
bool runs_user_code(const Expr& expr);

/// Root variable of an lvalue chain (a[i].f -> "a"); empty when the
/// expression is not rooted at a named variable.
std::string root_base(const Expr& expr);

/// Adds every variable name mentioned at or below the node, whatever the
/// position (read, write, call receiver or argument, allocation length).
void collect_var_refs(const Expr& expr, std::set<std::string>& out);
void collect_var_refs(const Stmt& stmt, std::set<std::string>& out);

/// Adds every variable stored into as a whole (`x = ...`, `x++`) below
/// `stmt`. Declaring initializers do not count.
void collect_assigned_vars(const Stmt& stmt, std::set<std::string>& out);

}  // namespace cgp
