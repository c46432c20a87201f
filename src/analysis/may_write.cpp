#include "analysis/may_write.h"

#include <deque>

#include "ast/walk.h"

namespace cgp {

namespace {

/// Variables of the stage's statements that only ever hold a fresh
/// allocation: every declaration initializes them from a `new`, nothing
/// re-binds them, and no pre-loop binding or loop variable has the name
/// (a shadowed name could mean the binding before its declaration).
std::set<std::string> fresh_locals(const std::vector<const Stmt*>& stmts,
                                   const std::set<std::string>& outer) {
  std::set<std::string> fresh;
  std::set<std::string> rebound(outer);
  auto on_stmt = [&](const Stmt& s) {
    if (s.kind == NodeKind::VarDeclStmt) {
      const auto& decl = static_cast<const VarDeclStmt&>(s);
      const bool allocates = decl.init &&
                             (decl.init->kind == NodeKind::NewObject ||
                              decl.init->kind == NodeKind::NewArray);
      (allocates ? fresh : rebound).insert(decl.name);
    } else if (s.kind == NodeKind::ForeachStmt) {
      rebound.insert(static_cast<const ForeachStmt&>(s).var);
    }
  };
  auto on_expr = [&](const Expr& e) {
    const Expr* target = nullptr;
    if (e.kind == NodeKind::Assign) {
      target = static_cast<const AssignExpr&>(e).target.get();
    } else if (e.kind == NodeKind::Unary &&
               is_inc_dec(static_cast<const UnaryExpr&>(e).op)) {
      target = static_cast<const UnaryExpr&>(e).operand.get();
    }
    if (target && target->kind == NodeKind::VarRef)
      rebound.insert(static_cast<const VarRef*>(target)->name);
  };
  for (const Stmt* s : stmts) walk(*s, on_stmt, on_expr);
  for (const std::string& name : rebound) fresh.erase(name);
  return fresh;
}

/// What a body may store into.
struct StoreTargets {
  bool anything = false;          // a store whose target type is unknown
  std::set<std::string> classes;  // concrete classes whose fields it stores
  std::vector<TypePtr> arrays;    // array types whose elements it stores
};

/// Concrete classes a value of class-or-interface type `name` may be; an
/// empty result means the name is unknown.
std::vector<std::string> concrete_classes(const ClassRegistry& registry,
                                          const std::string& name) {
  if (registry.find(name)) return {name};
  std::vector<std::string> out;
  for (const auto& [cls, info] : registry.classes()) {
    for (const std::string& iface : info.implements)
      if (iface == name) out.push_back(cls);
  }
  return out;
}

/// Collects the stores of the stage's statements and of every method they
/// can reach.
class StoreScan {
 public:
  StoreScan(const ClassRegistry& registry, std::set<std::string> fresh)
      : registry_(registry), fresh_(std::move(fresh)) {}

  void scan_stage(const std::vector<const Stmt*>& stmts) {
    for (const Stmt* s : stmts) scan(*s, nullptr);
    while (!pending_.empty()) {
      const auto [method, cls] = pending_.front();
      pending_.pop_front();
      if (method->body) scan(*method->body, cls);
    }
  }

  const StoreTargets& targets() const { return targets_; }

 private:
  /// `self` is the class whose method body this is (null for stage code).
  void scan(const Stmt& stmt, const ClassInfo* self) {
    walk(stmt, [](const Stmt&) {}, [&](const Expr& e) { visit(e, self); });
  }

  void visit(const Expr& e, const ClassInfo* self) {
    switch (e.kind) {
      case NodeKind::Assign:
        store(*static_cast<const AssignExpr&>(e).target, self);
        return;
      case NodeKind::Unary: {
        const auto& unary = static_cast<const UnaryExpr&>(e);
        if (is_inc_dec(unary.op)) store(*unary.operand, self);
        return;
      }
      case NodeKind::Call: {
        const auto& call = static_cast<const CallExpr&>(e);
        if (call.is_intrinsic) return;
        for (const auto& [name, info] : registry_.classes()) {
          if (const MethodDecl* m = info.find_method(call.callee))
            reach(m, &info);
        }
        return;
      }
      case NodeKind::NewObject: {
        const ClassInfo* cls =
            registry_.find(static_cast<const NewObjectExpr&>(e).class_name);
        if (!cls) {
          targets_.anything = true;
        } else if (const MethodDecl* ctor = cls->constructor()) {
          reach(ctor, cls);
        }
        return;
      }
      default:
        return;
    }
  }

  void reach(const MethodDecl* method, const ClassInfo* cls) {
    if (seen_.insert(method).second) pending_.emplace_back(method, cls);
  }

  void store(const Expr& target, const ClassInfo* self) {
    switch (target.kind) {
      case NodeKind::VarRef: {
        // Stage code re-binds a frame slot; inside a method a bare field
        // name stores into the receiver (a same-named local is counted
        // too, which only errs toward copying).
        const auto& ref = static_cast<const VarRef&>(target);
        if (self && self->find_field(ref.name))
          targets_.classes.insert(self->name);
        return;
      }
      case NodeKind::FieldAccess: {
        const Expr& base = *static_cast<const FieldAccess&>(target).base;
        if (!self && is_fresh(base)) return;
        if (!base.type || !base.type->is_class()) {
          targets_.anything = true;
          return;
        }
        const std::vector<std::string> classes =
            concrete_classes(registry_, base.type->class_name());
        if (classes.empty()) targets_.anything = true;
        targets_.classes.insert(classes.begin(), classes.end());
        return;
      }
      case NodeKind::Index: {
        const Expr& base = *static_cast<const IndexExpr&>(target).base;
        if (!self && is_fresh(base)) return;
        if (!base.type || !base.type->is_array()) {
          targets_.anything = true;
          return;
        }
        targets_.arrays.push_back(base.type);
        return;
      }
      default:
        targets_.anything = true;
        return;
    }
  }

  bool is_fresh(const Expr& base) const {
    return base.kind == NodeKind::VarRef &&
           fresh_.count(static_cast<const VarRef&>(base).name) > 0;
  }

  const ClassRegistry& registry_;
  std::set<std::string> fresh_;
  StoreTargets targets_;
  std::set<const MethodDecl*> seen_;
  std::deque<std::pair<const MethodDecl*, const ClassInfo*>> pending_;
};

/// True when a store in `targets` can reach an object reachable from a
/// binding of type `declared` through field and element types.
bool may_reach(const ClassRegistry& registry, const TypePtr& declared,
               const StoreTargets& targets) {
  if (targets.anything) return true;
  std::vector<TypePtr> work{declared};
  std::set<std::string> visited;
  while (!work.empty()) {
    const TypePtr type = work.back();
    work.pop_back();
    if (!type) return true;
    if (!visited.insert(type->to_string()).second) continue;
    if (type->is_array()) {
      for (const TypePtr& stored : targets.arrays)
        if (stored->equals(*type)) return true;
      work.push_back(type->element());
    } else if (type->is_class()) {
      const std::vector<std::string> classes =
          concrete_classes(registry, type->class_name());
      if (classes.empty()) return true;
      for (const std::string& name : classes) {
        if (targets.classes.count(name)) return true;
        for (const FieldInfo& field : registry.find(name)->fields)
          work.push_back(field.type);
      }
    } else if (type->is_error() || type->kind() == Type::Kind::Null) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::set<std::string> unwritten_preloop_bindings(
    const PipelineModel& model, const std::vector<const Stmt*>& stmts) {
  std::vector<const VarDeclStmt*> bindings;
  std::set<std::string> outer{model.loop_var};
  for (const Stmt* s : model.before) {
    if (s->kind != NodeKind::VarDeclStmt) continue;
    const auto* decl = static_cast<const VarDeclStmt*>(s);
    bindings.push_back(decl);
    outer.insert(decl->name);
  }
  StoreScan scan(model.registry, fresh_locals(stmts, outer));
  scan.scan_stage(stmts);
  std::set<std::string> out;
  for (const VarDeclStmt* decl : bindings) {
    const TypePtr& type = decl->declared_type;
    if (!type || !(type->is_array() || type->is_class())) continue;
    if (!may_reach(model.registry, type, scan.targets()))
      out.insert(decl->name);
  }
  return out;
}

}  // namespace cgp
