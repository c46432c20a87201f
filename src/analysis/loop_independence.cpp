#include "analysis/loop_independence.h"

#include <deque>
#include <set>
#include <string>
#include <utility>

#include "ast/walk.h"

namespace cgp {

namespace {

const VarRef* as_var(const Expr& e) {
  return e.kind == NodeKind::VarRef ? static_cast<const VarRef*>(&e) : nullptr;
}

/// One local declaration of a scanned body.
struct Local {
  bool index = false;    // the candidate loop's variable
  bool fresh = false;    // declared from `new`
  bool rebound = false;  // assigned or ++/-- after its declaration
  bool stored = false;   // a field or element of it is stored into
};

class Rule;

/// One body, in the lexical scopes the lowering gives it: a block, a `for`
/// and a `foreach` open a scope; `if` and `while` branches do not. The
/// candidate loop's body is scanned with `self` null; a method body with
/// its class, `ctor` when its receiver is the object being constructed.
class BodyScan {
 public:
  BodyScan(Rule& rule, const ClassInfo* self, bool ctor)
      : rule_(rule), self_(self), ctor_(ctor) {
    scopes_.emplace_back();
  }

  Local& declare(const std::string& name, bool fresh) {
    Local& local = locals_.emplace_back();
    local.fresh = fresh;
    scopes_.back().emplace_back(name, &local);
    return local;
  }
  void stmt(const Stmt& s);
  /// Rejects a store through a local that can hold anything but its own
  /// fresh allocation.
  void finish();

 private:
  bool stage() const { return self_ == nullptr; }
  Local* local(const std::string& name) {
    for (auto scope = scopes_.rbegin(); scope != scopes_.rend(); ++scope) {
      for (auto it = scope->rbegin(); it != scope->rend(); ++it)
        if (it->first == name) return it->second;
    }
    return nullptr;
  }
  bool is_index(const Expr& e) {
    const VarRef* ref = as_var(e);
    const Local* l = ref ? local(ref->name) : nullptr;
    return l && l->index;
  }
  void expr(const Expr& e);
  void store(const Expr& target);

  Rule& rule_;
  const ClassInfo* self_;
  bool ctor_;
  std::deque<Local> locals_;
  std::vector<std::vector<std::pair<std::string, Local*>>> scopes_;
};

/// The rule for one candidate loop: what its body and the methods it
/// reaches store and read.
class Rule {
 public:
  Rule(const ClassRegistry& registry, const std::vector<const Stmt*>& before,
       std::size_t index)
      : registry_(registry), before_(before), index_(index) {}

  bool check(const ForeachStmt& loop) {
    const Expr& domain = *loop.domain;
    if (domain.kind != NodeKind::RectdomainLit ||
        static_cast<const RectdomainLit&>(domain).dims.size() != 1)
      return false;
    BodyScan body(*this, nullptr, false);
    body.declare(loop.var, false).index = true;
    body.stmt(*loop.body);
    body.finish();
    while (ok_ && !pending_.empty()) {
      const auto [method, cls, ctor] = pending_.front();
      pending_.pop_front();
      BodyScan scan(*this, cls, ctor);
      for (const auto& param : method->params) scan.declare(param->name, false);
      scan.stmt(*method->body);
      scan.finish();
    }
    for (const std::string& name : stored_arrays_) {
      if (misread_.count(name) || !private_array(name)) return false;
    }
    return ok_;
  }

  void reject() { ok_ = false; }
  /// A store into `name[i]` of a pre-loop array.
  void store_array(const std::string& name) { stored_arrays_.insert(name); }
  /// A read of pre-loop `name` other than `name[i]` or `name.length`.
  void misread(const std::string& name) { misread_.insert(name); }

  /// A call reaches every method of that name in any class.
  void call(const std::string& callee) {
    bool found = false;
    for (const auto& [name, info] : registry_.classes()) {
      const MethodDecl* m = info.find_method(callee);
      if (!m || !m->body) continue;
      found = true;
      reach(m, &info, false);
    }
    if (!found) reject();
  }
  void construct(const std::string& class_name) {
    const ClassInfo* cls = registry_.find(class_name);
    if (!cls) return reject();
    const MethodDecl* ctor = cls->constructor();
    if (ctor && ctor->body) reach(ctor, cls, true);
  }

 private:
  void reach(const MethodDecl* method, const ClassInfo* cls, bool ctor) {
    if (seen_.insert({method, ctor}).second)
      pending_.push_back({method, cls, ctor});
  }

  /// `name` is declared once, at the top level of `before` ahead of the
  /// loop, from `new T[...]`, and every mention of it in `before` indexes it
  /// or reads its length: nothing re-binds or aliases it.
  bool private_array(const std::string& name) const {
    const Stmt* binding = nullptr;
    for (std::size_t k = 0; k < index_; ++k) {
      if (before_[k]->kind != NodeKind::VarDeclStmt) continue;
      const auto& decl = static_cast<const VarDeclStmt&>(*before_[k]);
      if (decl.name != name) continue;
      if (binding || !decl.init || decl.init->kind != NodeKind::NewArray)
        return false;
      binding = &decl;
    }
    if (!binding) return false;
    bool ok = true;
    std::set<const Expr*> indexed;
    auto on_stmt = [&](const Stmt& s) {
      if (s.kind == NodeKind::VarDeclStmt && &s != binding &&
          static_cast<const VarDeclStmt&>(s).name == name)
        ok = false;
      if (s.kind == NodeKind::ForeachStmt &&
          static_cast<const ForeachStmt&>(s).var == name)
        ok = false;
    };
    auto on_expr = [&](const Expr& e) {
      if (e.kind == NodeKind::Index) {
        indexed.insert(static_cast<const IndexExpr&>(e).base.get());
      } else if (e.kind == NodeKind::FieldAccess &&
                 static_cast<const FieldAccess&>(e).field == "length") {
        indexed.insert(static_cast<const FieldAccess&>(e).base.get());
      } else if (const VarRef* ref = as_var(e)) {
        if (ref->name == name && !indexed.count(&e)) ok = false;
      }
    };
    for (const Stmt* s : before_) walk(*s, on_stmt, on_expr);
    return ok;
  }

  struct Pending {
    const MethodDecl* method;
    const ClassInfo* cls;
    bool ctor;
  };

  const ClassRegistry& registry_;
  const std::vector<const Stmt*>& before_;
  std::size_t index_;
  bool ok_ = true;
  std::set<std::string> stored_arrays_;
  std::set<std::string> misread_;
  std::set<std::pair<const MethodDecl*, bool>> seen_;
  std::deque<Pending> pending_;
};

void BodyScan::stmt(const Stmt& s) {
  switch (s.kind) {
    case NodeKind::VarDeclStmt: {
      const auto& decl = static_cast<const VarDeclStmt&>(s);
      if (decl.init) expr(*decl.init);
      if (Local* shadowed = local(decl.name); shadowed && shadowed->index)
        rule_.reject();
      declare(decl.name, decl.init && (decl.init->kind == NodeKind::NewObject ||
                                       decl.init->kind == NodeKind::NewArray));
      return;
    }
    case NodeKind::ExprStmt:
      expr(*static_cast<const ExprStmt&>(s).expr);
      return;
    case NodeKind::Block:
      scopes_.emplace_back();
      for (const StmtPtr& child : static_cast<const BlockStmt&>(s).statements)
        stmt(*child);
      scopes_.pop_back();
      return;
    case NodeKind::IfStmt: {
      const auto& if_stmt = static_cast<const IfStmt&>(s);
      expr(*if_stmt.cond);
      stmt(*if_stmt.then_branch);
      if (if_stmt.else_branch) stmt(*if_stmt.else_branch);
      return;
    }
    case NodeKind::WhileStmt: {
      const auto& loop = static_cast<const WhileStmt&>(s);
      expr(*loop.cond);
      stmt(*loop.body);
      return;
    }
    case NodeKind::ForStmt: {
      const auto& loop = static_cast<const ForStmt&>(s);
      scopes_.emplace_back();
      if (loop.init) stmt(*loop.init);
      if (loop.cond) expr(*loop.cond);
      if (loop.step) expr(*loop.step);
      stmt(*loop.body);
      scopes_.pop_back();
      return;
    }
    case NodeKind::ForeachStmt: {
      const auto& loop = static_cast<const ForeachStmt&>(s);
      // An element foreach binds array elements: only a range foreach may
      // nest in the candidate's body.
      if (stage() && loop.domain->kind != NodeKind::RectdomainLit)
        rule_.reject();
      expr(*loop.domain);
      scopes_.emplace_back();
      if (Local* shadowed = local(loop.var); shadowed && shadowed->index)
        rule_.reject();
      declare(loop.var, false);
      stmt(*loop.body);
      scopes_.pop_back();
      return;
    }
    case NodeKind::ReturnStmt: {
      // A return ends the candidate loop (a top-level statement of
      // `before`); inside a method it only ends the call.
      if (stage()) rule_.reject();
      const auto& ret = static_cast<const ReturnStmt&>(s);
      if (ret.value) expr(*ret.value);
      return;
    }
    case NodeKind::BreakStmt:
      if (stage()) rule_.reject();
      return;
    case NodeKind::ContinueStmt:
      return;
    default:
      rule_.reject();  // PipelinedLoop
      return;
  }
}

void BodyScan::expr(const Expr& e) {
  switch (e.kind) {
    case NodeKind::VarRef: {
      const auto& ref = static_cast<const VarRef&>(e);
      if (stage() && !local(ref.name)) rule_.misread(ref.name);
      return;
    }
    case NodeKind::FieldAccess: {
      const auto& access = static_cast<const FieldAccess&>(e);
      if (access.field == "length" && as_var(*access.base)) return;
      expr(*access.base);
      return;
    }
    case NodeKind::Index: {
      const auto& index = static_cast<const IndexExpr&>(e);
      const VarRef* base = as_var(*index.base);
      if (stage() && base && !local(base->name) && index.indices.size() == 1 &&
          is_index(*index.indices[0]))
        return;  // A[i]
      expr(*index.base);
      for (const ExprPtr& i : index.indices) expr(*i);
      return;
    }
    case NodeKind::Unary: {
      const auto& unary = static_cast<const UnaryExpr&>(e);
      if (is_inc_dec(unary.op)) {
        store(*unary.operand);
      } else {
        expr(*unary.operand);
      }
      return;
    }
    case NodeKind::Binary: {
      const auto& binary = static_cast<const BinaryExpr&>(e);
      expr(*binary.lhs);
      expr(*binary.rhs);
      return;
    }
    case NodeKind::Assign: {
      const auto& assign = static_cast<const AssignExpr&>(e);
      expr(*assign.value);
      store(*assign.target);
      return;
    }
    case NodeKind::Call: {
      const auto& call = static_cast<const CallExpr&>(e);
      if (call.base) expr(*call.base);
      for (const ExprPtr& a : call.args) expr(*a);
      if (!call.is_intrinsic) rule_.call(call.callee);
      return;
    }
    case NodeKind::NewObject: {
      const auto& alloc = static_cast<const NewObjectExpr&>(e);
      for (const ExprPtr& a : alloc.args) expr(*a);
      rule_.construct(alloc.class_name);
      return;
    }
    case NodeKind::NewArray:
      expr(*static_cast<const NewArrayExpr&>(e).length);
      return;
    case NodeKind::RectdomainLit:
      for (const RectdomainLit::Dim& d :
           static_cast<const RectdomainLit&>(e).dims) {
        expr(*d.lo);
        expr(*d.hi);
      }
      return;
    case NodeKind::Conditional: {
      const auto& cond = static_cast<const ConditionalExpr&>(e);
      expr(*cond.cond);
      expr(*cond.then_value);
      expr(*cond.else_value);
      return;
    }
    default:
      return;  // literals
  }
}

void BodyScan::store(const Expr& target) {
  switch (target.kind) {
    case NodeKind::VarRef: {
      const auto& ref = static_cast<const VarRef&>(target);
      if (Local* l = local(ref.name)) {
        if (l->index) rule_.reject();
        l->rebound = true;
      } else if (!ctor_ || !self_->find_field(ref.name)) {
        // A pre-loop binding, or a field of a receiver that existed
        // before the call.
        rule_.reject();
      }
      return;
    }
    case NodeKind::FieldAccess: {
      const VarRef* base = as_var(*static_cast<const FieldAccess&>(target).base);
      if (!base) return rule_.reject();
      if (Local* l = local(base->name)) {
        l->stored = true;
      } else if (!ctor_ || base->name != "this") {
        rule_.reject();
      }
      return;
    }
    case NodeKind::Index: {
      const auto& index = static_cast<const IndexExpr&>(target);
      const VarRef* base = as_var(*index.base);
      if (!base || index.indices.size() != 1) return rule_.reject();
      if (Local* l = local(base->name)) {
        l->stored = true;
        expr(*index.indices[0]);
      } else if (stage() && is_index(*index.indices[0])) {
        rule_.store_array(base->name);
      } else {
        rule_.reject();
      }
      return;
    }
    default:
      rule_.reject();
      return;
  }
}

void BodyScan::finish() {
  for (const Local& l : locals_)
    if (l.stored && (!l.fresh || l.rebound)) rule_.reject();
}

}  // namespace

bool independent_preloop_loop(const ClassRegistry& registry,
                              const std::vector<const Stmt*>& before,
                              std::size_t index) {
  if (index >= before.size() || before[index]->kind != NodeKind::ForeachStmt)
    return false;
  Rule rule(registry, before, index);
  return rule.check(static_cast<const ForeachStmt&>(*before[index]));
}

}  // namespace cgp
