#include "codegen/lower.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <set>
#include <thread>

#include "analysis/loop_independence.h"
#include "ast/walk.h"
#include "codegen/compiled_pipeline.h"
#include "support/chunk_pool.h"

namespace cgp {

namespace lowered {

namespace {

// The tree-walker's weights (interp.cpp); a node's count() charges the same
// amount at the same step.
constexpr int kMaxCallDepth = 256;
constexpr double kMemOp = 1.5;
constexpr double kFloatOp = 2.0;
constexpr double kIntOp = 1.0;
constexpr double kBranchOp = 1.0;

Store store_of(const TypePtr& type) {
  if (!type || !type->is_primitive()) return Store::Keep;
  switch (type->prim()) {
    case PrimKind::Int:
    case PrimKind::Long:
    case PrimKind::Byte:
      return Store::Integral;
    case PrimKind::Float:
      return Store::Float;
    case PrimKind::Double:
      return Store::Double;
    default:
      return Store::Keep;
  }
}

Intrinsic intrinsic_of(const std::string& name) {
  static const std::map<std::string, Intrinsic> kByName = {
      {"sqrt", Intrinsic::Sqrt}, {"abs", Intrinsic::Abs},
      {"min", Intrinsic::Min},   {"max", Intrinsic::Max},
      {"floor", Intrinsic::Floor}, {"ceil", Intrinsic::Ceil},
      {"pow", Intrinsic::Pow},   {"exp", Intrinsic::Exp},
      {"log", Intrinsic::Log},   {"sin", Intrinsic::Sin},
      {"cos", Intrinsic::Cos},   {"atan2", Intrinsic::Atan2},
  };
  auto it = kByName.find(name);
  return it == kByName.end() ? Intrinsic::Unknown : it->second;
}

/// True when evaluating `expr` may run code that reassigns variables or
/// drops objects (assignments, inc/dec, calls, constructors).
bool may_run_code(const cgp::Expr& expr) {
  return any_expr(expr, [](const cgp::Expr& e) {
    return store_target(e) || runs_user_code(e);
  });
}

/// Declarations a statement makes in the scope it runs in: the tree-walker
/// pushes a scope only for blocks and loops, so a declaration reached
/// through if/while branches lands in the enclosing scope.
void collect_scope_decls(const cgp::Stmt& stmt, FrameLayout& out) {
  switch (stmt.kind) {
    case NodeKind::VarDeclStmt:
      out.add(static_cast<const VarDeclStmt&>(stmt).name);
      return;
    case NodeKind::IfStmt: {
      const auto& if_stmt = static_cast<const IfStmt&>(stmt);
      collect_scope_decls(*if_stmt.then_branch, out);
      if (if_stmt.else_branch) collect_scope_decls(*if_stmt.else_branch, out);
      return;
    }
    case NodeKind::WhileStmt:
      collect_scope_decls(*static_cast<const WhileStmt&>(stmt).body, out);
      return;
    default:
      return;
  }
}

void coerce(Store store, Value& value) {
  switch (store) {
    case Store::Keep:
      return;
    case Store::Integral:
      if (const auto* d = std::get_if<double>(&value))
        value = static_cast<std::int64_t>(*d);
      return;
    case Store::Float:
      if (const auto* d = std::get_if<double>(&value)) {
        value = static_cast<double>(static_cast<float>(*d));
      } else if (const auto* i = std::get_if<std::int64_t>(&value)) {
        value = static_cast<double>(static_cast<float>(*i));
      }
      return;
    case Store::Double:
      if (const auto* i = std::get_if<std::int64_t>(&value))
        value = static_cast<double>(*i);
      return;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Program
// ---------------------------------------------------------------------------

Program::Program(const ClassRegistry& registry,
                 std::map<std::string, std::int64_t> runtime_constants)
    : registry_(&registry), constants_(std::move(runtime_constants)) {}

const Method* Program::find_method(const std::string& cls,
                                   const std::string& method) const {
  auto it = methods_.find({cls, method});
  return it == methods_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

class Lowerer {
 public:
  explicit Lowerer(Program& program) : p_(program) {}

  /// One body being lowered: the stage-level names (null inside methods),
  /// the method's class (null outside methods), and the lexical scopes of
  /// frame-slot locals.
  struct Body {
    const FrameLayout* stage = nullptr;
    const ClassCode* self = nullptr;
    std::vector<std::vector<std::pair<std::string, int>>> scopes;
    int next = 0;
    int high = 0;
  };

  const Stmt* stmt(const cgp::Stmt& s, Body& b);
  const Expr* expr(const cgp::Expr& e, Body& b);
  const Method& method(const std::string& cls, const std::string& name,
                       SourceLocation loc);
  const ClassCode& class_code(const std::string& name, SourceLocation loc);

  /// Foreach statements to lower as `parallel`.
  std::set<const cgp::Stmt*> parallel;

  /// Lowers a top-level stage statement once; later stages reuse it.
  const Stmt* top(const cgp::Stmt& s, const FrameLayout& frame, int& high) {
    auto it = top_.find(&s);
    if (it != top_.end()) return it->second;
    Body b = top_body(frame);
    const Stmt* out = stmt(s, b);
    high = std::max(high, b.high);
    top_.emplace(&s, out);
    return out;
  }
  const Expr* top(const cgp::Expr& e, const FrameLayout& frame, int& high) {
    Body b = top_body(frame);
    const Expr* out = expr(e, b);
    high = std::max(high, b.high);
    return out;
  }

 private:
  static Body top_body(const FrameLayout& frame) {
    Body b;
    b.stage = &frame;
    b.next = b.high = frame.named();
    return b;
  }
  Expr& new_expr(ExprOp op, const cgp::Node& node) {
    Expr& e = p_.exprs_.emplace_back();
    e.op = op;
    e.loc = node.location;
    return e;
  }
  Stmt& new_stmt(StmtOp op, const cgp::Node& node) {
    Stmt& s = p_.stmts_.emplace_back();
    s.op = op;
    s.loc = node.location;
    return s;
  }
  static int local(Body& b, const std::string& name) {
    for (auto scope = b.scopes.rbegin(); scope != b.scopes.rend(); ++scope) {
      for (auto it = scope->rbegin(); it != scope->rend(); ++it)
        if (it->first == name) return it->second;
    }
    return -1;
  }
  static int declare_local(Body& b, const std::string& name) {
    const int slot = b.next++;
    b.high = std::max(b.high, b.next);
    b.scopes.back().emplace_back(name, slot);
    return slot;
  }
  void push(Body& b) {
    b.scopes.emplace_back();
    saved_next_.push_back(b.next);
  }
  void pop(Body& b) {
    b.scopes.pop_back();
    b.next = saved_next_.back();
    saved_next_.pop_back();
  }
  const Expr* target(const cgp::Expr& e, Body& b) {
    if (e.kind == NodeKind::VarRef)
      return var_ref(static_cast<const VarRef&>(e), b, true);
    return expr(e, b);  // the executor's resolve() rejects non-lvalues
  }
  const Expr* runtime_constant(const VarRef& ref);
  const Expr* var_ref(const VarRef& ref, Body& b, bool target);
  const Expr* call(const CallExpr& call, Body& b);
  const Method* resolve_callee(const std::string& cls, const std::string& name,
                               SourceLocation loc);

  Program& p_;
  std::map<const cgp::Stmt*, const Stmt*> top_;
  std::vector<int> saved_next_;
};

const ClassCode& Lowerer::class_code(const std::string& name,
                                     SourceLocation loc) {
  auto found = p_.classes_.find(name);
  if (found != p_.classes_.end()) return found->second;
  const ClassInfo* info = p_.registry_->find(name);
  if (!info) throw LowerError(loc, "unknown class '" + name + "'");
  ClassCode& code = p_.classes_[name];
  code.info = info;
  for (const FieldInfo& field : info->fields)
    code.field_defaults.push_back(default_value(field.type));
  const MethodDecl* ctor = info->constructor();
  if (ctor && ctor->body) code.constructor = &method(name, name, loc);
  return code;
}

const Method& Lowerer::method(const std::string& cls, const std::string& name,
                              SourceLocation loc) {
  auto found = p_.methods_.find({cls, name});
  if (found != p_.methods_.end()) return found->second;
  const ClassCode& code = class_code(cls, loc);
  const MethodDecl* decl = code.info->find_method(name);
  if (!decl || !decl->body)
    throw LowerError(loc, "no executable method '" + cls + "::" + name + "'");
  // Registered before its body is lowered, so recursion resolves.
  Method& m = p_.methods_[{cls, name}];
  m.cls = &code;
  m.decl = decl;
  Body b;
  b.self = &code;
  push(b);
  for (const auto& param : decl->params) {
    m.params.push_back(store_of(param->type));
    declare_local(b, param->name);
  }
  for (const StmtPtr& s : decl->body->statements) m.body.push_back(stmt(*s, b));
  pop(b);
  m.frame_size = b.high;
  return m;
}

const Expr* Lowerer::runtime_constant(const VarRef& ref) {
  auto it = p_.constants_.find(ref.name);
  if (it == p_.constants_.end()) {
    Expr& e = new_expr(ExprOp::Unbound, ref);
    e.name = ref.name;
    return &e;
  }
  Expr& e = new_expr(ExprOp::Const, ref);
  e.constant = it->second;
  return &e;
}

/// Interpreter::eval / resolve_slot of a VarRef, decided once: a local, a stage
/// variable, a runtime constant (reads only), or a `this` field.
const Expr* Lowerer::var_ref(const VarRef& ref, Body& b, bool target) {
  if (!target && ref.name == "this") return &new_expr(ExprOp::This, ref);
  if (const int slot = local(b, ref.name); slot >= 0) {
    Expr& e = new_expr(ExprOp::Local, ref);
    e.slot = slot;
    return &e;
  }
  if (b.stage) {
    if (const int slot = b.stage->find(ref.name); slot >= 0) {
      Expr& e = new_expr(ExprOp::StageVar, ref);
      e.slot = slot;
      e.name = ref.name;
      if (!target && ref.is_runtime_define) e.c = runtime_constant(ref);
      return &e;
    }
  }
  if (!target && ref.is_runtime_define) return runtime_constant(ref);
  if (b.self) {
    if (const FieldInfo* field = b.self->info->find_field(ref.name)) {
      Expr& e = new_expr(ExprOp::ThisField, ref);
      e.slot = field->index;
      e.weight = kMemOp;
      e.name = ref.name;
      return &e;
    }
  }
  throw LowerError(ref.location, "undeclared variable '" + ref.name + "'");
}

const Method* Lowerer::resolve_callee(const std::string& cls,
                                      const std::string& name,
                                      SourceLocation loc) {
  const ClassInfo* info = p_.registry_->find(cls);
  if (info) return &method(cls, name, loc);
  // Receiver typed by an interface (or untyped): lower every class's
  // implementation; the executor dispatches on the receiver's class.
  for (const auto& [other, other_info] : p_.registry_->classes()) {
    const MethodDecl* decl = other_info.find_method(name);
    if (decl && decl->body) method(other, name, loc);
  }
  return nullptr;
}

const Expr* Lowerer::call(const CallExpr& call, Body& b) {
  if (call.is_intrinsic && call.base) {
    Expr& e = new_expr(ExprOp::RectAccessor, call);
    e.a = expr(*call.base, b);
    // size / lo / hi; anything else throws "bad intrinsic receiver".
    static const std::map<std::string, std::uint8_t> kAccessors = {
        {"size", 0}, {"lo", 1}, {"hi", 2}};
    auto accessor = kAccessors.find(call.callee);
    e.sub = accessor == kAccessors.end() ? 3 : accessor->second;
    return &e;
  }
  std::vector<const Expr*> args;
  for (const ExprPtr& a : call.args) args.push_back(expr(*a, b));
  if (call.is_intrinsic) {
    Expr& e = new_expr(ExprOp::CallIntrinsic, call);
    e.args = std::move(args);
    e.sub = static_cast<std::uint8_t>(intrinsic_of(call.callee));
    e.name = call.callee;
    return &e;
  }
  Expr& e = new_expr(ExprOp::Call, call);
  e.args = std::move(args);
  e.name = call.callee;
  std::string cls;
  if (call.base) {
    e.a = expr(*call.base, b);
    if (call.base->type && call.base->type->is_class())
      cls = call.base->type->class_name();
  } else {
    cls = b.self ? b.self->info->name : call.resolved_class;
  }
  e.method = resolve_callee(cls, call.callee, call.location);
  return &e;
}

const Expr* Lowerer::expr(const cgp::Expr& node, Body& b) {
  switch (node.kind) {
    case NodeKind::IntLit: {
      Expr& e = new_expr(ExprOp::Const, node);
      e.constant = static_cast<const IntLit&>(node).value;
      return &e;
    }
    case NodeKind::FloatLit: {
      Expr& e = new_expr(ExprOp::Const, node);
      e.constant = static_cast<const FloatLit&>(node).value;
      return &e;
    }
    case NodeKind::BoolLit: {
      Expr& e = new_expr(ExprOp::Const, node);
      e.constant = static_cast<const BoolLit&>(node).value;
      return &e;
    }
    case NodeKind::StringLit: {
      Expr& e = new_expr(ExprOp::Const, node);
      e.constant = static_cast<const StringLit&>(node).value;
      return &e;
    }
    case NodeKind::NullLit:
      return &new_expr(ExprOp::Const, node);
    case NodeKind::VarRef:
      return var_ref(static_cast<const VarRef&>(node), b, false);
    case NodeKind::FieldAccess: {
      const auto& access = static_cast<const FieldAccess&>(node);
      Expr& e = new_expr(ExprOp::FieldAccess, node);
      e.a = expr(*access.base, b);
      e.weight = kMemOp;
      e.name = access.field;
      e.sub = access.field == "length" ? 1 : 0;
      const TypePtr& type = access.base->type;
      if (type && type->is_class()) {
        if (const ClassInfo* info = p_.registry_->find(type->class_name())) {
          if (const FieldInfo* field = info->find_field(access.field)) {
            e.cls = &class_code(info->name, node.location);
            e.slot = field->index;
          }
        }
      }
      return &e;
    }
    case NodeKind::Index: {
      const auto& index = static_cast<const IndexExpr&>(node);
      Expr& e = new_expr(ExprOp::Index, node);
      e.a = expr(*index.base, b);
      e.b = expr(*index.indices[0], b);
      e.keep_alive = may_run_code(*index.indices[0]);
      e.weight = kMemOp + kIntOp;
      return &e;
    }
    case NodeKind::Unary: {
      const auto& unary = static_cast<const UnaryExpr&>(node);
      const ExprOp op = unary.op == UnaryOp::Neg   ? ExprOp::Neg
                        : unary.op == UnaryOp::Not ? ExprOp::Not
                                                   : ExprOp::IncDec;
      Expr& e = new_expr(op, node);
      e.sub = static_cast<std::uint8_t>(unary.op);
      if (op == ExprOp::IncDec) {
        e.a = target(*unary.operand, b);
        e.weight = kIntOp + kMemOp;
      } else {
        e.a = expr(*unary.operand, b);
        e.weight = kIntOp;
        e.weight2 = kFloatOp;  // Neg of a double
      }
      return &e;
    }
    case NodeKind::Binary: {
      const auto& binary = static_cast<const BinaryExpr&>(node);
      const ExprOp op = binary.op == BinaryOp::And  ? ExprOp::And
                        : binary.op == BinaryOp::Or ? ExprOp::Or
                                                    : ExprOp::Binary;
      Expr& e = new_expr(op, node);
      e.sub = static_cast<std::uint8_t>(binary.op);
      e.a = expr(*binary.lhs, b);
      e.b = expr(*binary.rhs, b);
      if (op != ExprOp::Binary) {
        e.weight = kBranchOp;
      } else if (is_comparison(binary.op)) {
        e.weight = kBranchOp;
        e.weight2 = kBranchOp + (kFloatOp - kIntOp);
      } else {
        const bool division =
            binary.op == BinaryOp::Div || binary.op == BinaryOp::Mod;
        e.weight = division ? 3.0 * kIntOp : kIntOp;
        e.weight2 = division ? 8.0 * kFloatOp : kFloatOp;
      }
      return &e;
    }
    case NodeKind::Assign: {
      const auto& assign = static_cast<const AssignExpr&>(node);
      Expr& e = new_expr(ExprOp::Assign, node);
      e.sub = static_cast<std::uint8_t>(assign.op);
      e.a = expr(*assign.value, b);
      e.b = target(*assign.target, b);
      e.typed = assign.target->type != nullptr;
      e.store = store_of(assign.target->type);
      e.weight = kMemOp;
      return &e;
    }
    case NodeKind::Call:
      return call(static_cast<const CallExpr&>(node), b);
    case NodeKind::NewObject: {
      const auto& alloc = static_cast<const NewObjectExpr&>(node);
      Expr& e = new_expr(ExprOp::NewObject, node);
      for (const ExprPtr& a : alloc.args) e.args.push_back(expr(*a, b));
      e.cls = &class_code(alloc.class_name, node.location);
      e.weight = 4.0 * kMemOp;
      return &e;
    }
    case NodeKind::NewArray: {
      const auto& alloc = static_cast<const NewArrayExpr&>(node);
      Expr& e = new_expr(ExprOp::NewArray, node);
      e.a = expr(*alloc.length, b);
      e.element_type = alloc.element_type;
      e.constant = default_value(alloc.element_type);
      e.weight = 4.0 * kMemOp;
      return &e;
    }
    case NodeKind::RectdomainLit: {
      const auto& lit = static_cast<const RectdomainLit&>(node);
      Expr& e = new_expr(ExprOp::RectdomainLit, node);
      if (lit.dims.size() == 1) {
        e.a = expr(*lit.dims[0].lo, b);
        e.b = expr(*lit.dims[0].hi, b);
      } else {
        e.sub = 1;  // not executable; throws when evaluated
      }
      return &e;
    }
    case NodeKind::Conditional: {
      const auto& cond = static_cast<const ConditionalExpr&>(node);
      Expr& e = new_expr(ExprOp::Conditional, node);
      e.a = expr(*cond.cond, b);
      e.b = expr(*cond.then_value, b);
      e.c = expr(*cond.else_value, b);
      e.weight = kBranchOp;
      return &e;
    }
    default:
      throw LowerError(node.location, "unexpected expression node");
  }
}

const Stmt* Lowerer::stmt(const cgp::Stmt& node, Body& b) {
  switch (node.kind) {
    case NodeKind::VarDeclStmt: {
      const auto& decl = static_cast<const VarDeclStmt&>(node);
      const bool stage_level = b.scopes.empty();
      Stmt& s = new_stmt(stage_level ? StmtOp::StageDecl : StmtOp::LocalDecl,
                         node);
      // The initializer runs before the name is bound.
      if (decl.init) s.expr = expr(*decl.init, b);
      s.default_value = default_value(decl.declared_type);
      s.store = store_of(decl.declared_type);
      s.weight = kMemOp;
      if (stage_level) {
        s.slot = b.stage ? b.stage->find(decl.name) : -1;
        if (s.slot < 0)
          throw LowerError(node.location,
                           "no stage slot for '" + decl.name + "'");
      } else {
        s.slot = declare_local(b, decl.name);
      }
      return &s;
    }
    case NodeKind::ExprStmt: {
      Stmt& s = new_stmt(StmtOp::ExprStmt, node);
      s.expr = expr(*static_cast<const ExprStmt&>(node).expr, b);
      return &s;
    }
    case NodeKind::Block: {
      Stmt& s = new_stmt(StmtOp::Block, node);
      push(b);
      for (const StmtPtr& child :
           static_cast<const BlockStmt&>(node).statements)
        s.stmts.push_back(stmt(*child, b));
      pop(b);
      return &s;
    }
    case NodeKind::IfStmt: {
      const auto& if_stmt = static_cast<const IfStmt&>(node);
      Stmt& s = new_stmt(StmtOp::If, node);
      s.weight = kBranchOp;
      s.expr = expr(*if_stmt.cond, b);
      s.body = stmt(*if_stmt.then_branch, b);
      if (if_stmt.else_branch) s.else_body = stmt(*if_stmt.else_branch, b);
      return &s;
    }
    case NodeKind::WhileStmt: {
      const auto& loop = static_cast<const WhileStmt&>(node);
      Stmt& s = new_stmt(StmtOp::While, node);
      s.weight = kBranchOp;
      s.expr = expr(*loop.cond, b);
      s.body = stmt(*loop.body, b);
      return &s;
    }
    case NodeKind::ForStmt: {
      const auto& loop = static_cast<const ForStmt&>(node);
      Stmt& s = new_stmt(StmtOp::For, node);
      s.weight = kBranchOp;
      push(b);
      if (loop.init) s.init = stmt(*loop.init, b);
      if (loop.cond) s.expr = expr(*loop.cond, b);
      if (loop.step) s.step = expr(*loop.step, b);
      s.body = stmt(*loop.body, b);
      pop(b);
      return &s;
    }
    case NodeKind::ForeachStmt: {
      const auto& loop = static_cast<const ForeachStmt&>(node);
      Stmt& s = new_stmt(StmtOp::ForeachRange, node);
      s.weight = kBranchOp + kMemOp;
      s.parallel = parallel.count(&node) > 0;
      s.expr = expr(*loop.domain, b);
      push(b);
      s.slot = declare_local(b, loop.var);
      s.body = stmt(*loop.body, b);
      pop(b);
      return &s;
    }
    case NodeKind::PipelinedLoopStmt: {
      const auto& loop = static_cast<const PipelinedLoopStmt&>(node);
      Stmt& s = new_stmt(StmtOp::PipelinedLoop, node);
      s.expr = expr(*loop.domain, b);
      push(b);
      s.slot = declare_local(b, loop.var);
      s.body = stmt(*loop.body, b);
      pop(b);
      return &s;
    }
    case NodeKind::ReturnStmt: {
      Stmt& s = new_stmt(StmtOp::Return, node);
      if (const auto& value = static_cast<const ReturnStmt&>(node).value)
        s.expr = expr(*value, b);
      return &s;
    }
    case NodeKind::BreakStmt:
      return &new_stmt(StmtOp::Break, node);
    case NodeKind::ContinueStmt:
      return &new_stmt(StmtOp::Continue, node);
    default:
      throw LowerError(node.location, "unexpected statement node");
  }
}

}  // namespace lowered

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

std::shared_ptr<const lowered::LoweredPipeline> lower_pipeline(
    const PipelineModel& model, const std::vector<StagePlan>& plans,
    const std::map<std::string, std::int64_t>& runtime_constants) {
  auto out = std::make_shared<lowered::LoweredPipeline>();
  out->program =
      std::make_unique<lowered::Program>(model.registry, runtime_constants);
  lowered::FrameLayout& frame = out->frame;

  // Every name a stage binds at its top level, whoever binds it: its own
  // statements, the codec (header items and element groups of any
  // boundary), replica adoption, the sink's carried values.
  using lowered::collect_scope_decls;
  for (const cgp::Stmt* s : model.before) collect_scope_decls(*s, frame);
  for (const cgp::Stmt* s : model.after) collect_scope_decls(*s, frame);
  for (const AtomicFilter& filter : model.filters)
    for (const cgp::Stmt* s : filter.stmts) collect_scope_decls(*s, frame);
  frame.add(model.loop_var);
  for (const std::string& name : model.after_reductions) frame.add(name);
  for (const StagePlan& plan : plans) {
    for (const cgp::Stmt* s : plan.stmts) collect_scope_decls(*s, frame);
    for (const std::string& name : plan.replicas) frame.add(name);
    for (const std::string& name : plan.carry) frame.add(name);
    for (const PackedItem& item : plan.output_layout.header)
      frame.add(item.id.base);
    for (const PackGroup& group : plan.output_layout.groups)
      frame.add(group.collection.substr(0, group.collection.find('.')));
  }

  lowered::Lowerer lower(*out->program);
  int high = frame.named();
  const int n = static_cast<int>(plans.size());
  out->stages.resize(plans.size());
  for (int s = 0; s < n; ++s) {
    const StagePlan& plan = plans[static_cast<std::size_t>(s)];
    lowered::StageCode& code = out->stages[static_cast<std::size_t>(s)];
    if (s == 0) {
      for (std::size_t k = 0; k < model.before.size(); ++k) {
        if (independent_preloop_loop(model.registry, model.before, k))
          lower.parallel.insert(model.before[k]);
      }
      for (const cgp::Stmt* stmt : model.before)
        code.before.push_back(lower.top(*stmt, frame, high));
      code.domain = lower.top(*model.loop->domain, frame, high);
    }
    for (const VarDeclStmt* decl : plan.preamble)
      code.preamble.push_back(lower.top(*decl, frame, high));
    for (const cgp::Stmt* stmt : model.before) {
      if (stmt->kind != NodeKind::VarDeclStmt) continue;
      const auto& decl = static_cast<const VarDeclStmt&>(*stmt);
      if (std::find(plan.replicas.begin(), plan.replicas.end(), decl.name) ==
          plan.replicas.end())
        continue;
      code.replicas.emplace_back(decl.name, lower.top(decl, frame, high));
    }
    for (const cgp::Stmt* stmt : plan.stmts)
      code.stmts.push_back(lower.top(*stmt, frame, high));
    for (const VarDeclStmt* decl : plan.materialize) {
      lowered::StageCode::Materialize m;
      m.slot = frame.find(decl->name);
      m.decl = lower.top(*decl, frame, high);
      if (decl->init && decl->init->kind == NodeKind::NewArray) {
        const auto& alloc = static_cast<const NewArrayExpr&>(*decl->init);
        m.length = lower.top(*alloc.length, frame, high);
        m.element_type = alloc.element_type;
      }
      code.materialize.push_back(std::move(m));
    }
    if (s == n - 1) {
      for (const cgp::Stmt* stmt : model.after)
        code.after.push_back(lower.top(*stmt, frame, high));
    }
    code.loop_var = frame.find(model.loop_var);
  }
  // Replica merges are called by name on whatever class arrives.
  for (const auto& [name, info] : model.registry.classes()) {
    const MethodDecl* merge = info.find_method("merge");
    if (merge && merge->body) lower.method(name, "merge", merge->location);
  }
  frame.size = high;
  return out;
}

std::shared_ptr<const lowered::LoweredMain> lower_main(
    const ClassRegistry& registry, const std::string& class_name,
    const std::string& method,
    const std::map<std::string, std::int64_t>& runtime_constants) {
  const ClassInfo* cls = registry.find(class_name);
  const MethodDecl* decl = cls ? cls->find_method(method) : nullptr;
  if (!decl || !decl->body)
    throw LowerError({}, "no executable method '" + class_name +
                             "::" + method + "'");
  auto out = std::make_shared<lowered::LoweredMain>();
  out->program =
      std::make_unique<lowered::Program>(registry, runtime_constants);
  for (const StmtPtr& s : decl->body->statements)
    lowered::collect_scope_decls(*s, out->frame);
  lowered::Lowerer lower(*out->program);
  int high = out->frame.named();
  for (const StmtPtr& s : decl->body->statements)
    out->body.push_back(lower.top(*s, out->frame, high));
  out->frame.size = high;
  return out;
}

// ---------------------------------------------------------------------------
// StageFrame
// ---------------------------------------------------------------------------

StageFrame::StageFrame(const lowered::FrameLayout& layout)
    : layout_(&layout),
      values_(static_cast<std::size_t>(layout.size)),
      scope_of_(static_cast<std::size_t>(layout.named()), 0) {}

bool StageFrame::has(const std::string& name) const {
  const int s = layout_->find(name);
  return s >= 0 && bound(s);
}

Value& StageFrame::slot(const std::string& name) {
  const int s = layout_->find(name);
  if (s < 0 || !bound(s))
    throw std::runtime_error("undeclared variable '" + name + "'");
  return values_[static_cast<std::size_t>(s)];
}

int StageFrame::slot_or_throw(const std::string& name) const {
  const int s = layout_->find(name);
  if (s < 0)
    throw std::logic_error("stage frame has no slot for '" + name + "'");
  return s;
}

void StageFrame::declare(const std::string& name, Value value) {
  declare_slot(slot_or_throw(name), std::move(value));
}

void StageFrame::declare_slot(int s, Value value) {
  const auto i = static_cast<std::size_t>(s);
  if (pushed_) {
    if (scope_of_[i] == 1) shadowed_.emplace_back(s, std::move(values_[i]));
    if (scope_of_[i] != 2) {
      scope_of_[i] = 2;
      packet_bound_.push_back(s);
    }
  } else {
    scope_of_[i] = 1;
  }
  values_[i] = std::move(value);
}

void StageFrame::declare_global(const std::string& name, Value value) {
  const int s = slot_or_throw(name);
  const auto i = static_cast<std::size_t>(s);
  if (scope_of_[i] != 2) {
    scope_of_[i] = 1;
    values_[i] = std::move(value);
    return;
  }
  // The packet scope hides the base binding: update (or create) the one
  // pop() restores.
  for (auto& [slot, hidden] : shadowed_) {
    if (slot == s) {
      hidden = std::move(value);
      return;
    }
  }
  shadowed_.emplace_back(s, std::move(value));
}

std::map<std::string, Value> StageFrame::flatten() const {
  std::map<std::string, Value> out;
  for (int s = 0; s < layout_->named(); ++s) {
    if (bound(s))
      out[layout_->names[static_cast<std::size_t>(s)]] =
          values_[static_cast<std::size_t>(s)];
  }
  return out;
}

void StageFrame::push() {
  if (pushed_) throw std::logic_error("stage frame: packet scope already open");
  pushed_ = true;
}

void StageFrame::pop() {
  for (int s : packet_bound_) {
    values_[static_cast<std::size_t>(s)] = std::monostate{};
    scope_of_[static_cast<std::size_t>(s)] = 0;
  }
  for (auto& [s, hidden] : shadowed_) {
    values_[static_cast<std::size_t>(s)] = std::move(hidden);
    scope_of_[static_cast<std::size_t>(s)] = 1;
  }
  packet_bound_.clear();
  shadowed_.clear();
  pushed_ = false;
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

namespace {

using LExpr = lowered::Expr;
using lowered::ExprOp;
using lowered::Intrinsic;
using LStmt = lowered::Stmt;
using lowered::StmtOp;

const Value kTrue = true;
const Value kFalse = false;

/// A value the caller keeps: moved out of the scratch it was computed in,
/// copied from storage otherwise.
Value take(const Value& v, Value& tmp) {
  if (&v == &tmp) return std::move(tmp);
  return v;
}

InterpError range_error(SourceLocation loc, std::int64_t i,
                        const ArrayVal& arr) {
  return InterpError(loc, "array index " + std::to_string(i) +
                              " out of range [base " +
                              std::to_string(arr.base_index) + ", size " +
                              std::to_string(arr.elems.size()) + ")");
}

/// Truncates the argument stack to its size at a call's start, however
/// the call exits.
struct ArgsScope {
  std::vector<Value>& args;
  std::size_t base;
  ~ArgsScope() {
    if (args.size() > base) args.resize(base);
  }
};

}  // namespace

/// Taken before a sibling operand runs, as the tree-walker holds a copy.
struct Executor::Scalar {
  std::size_t kind = 0;  // Value::index()
  union {
    std::int64_t i = 0;
    double d;
    bool b;
    const Object* obj;
  };

  bool is_double() const { return kind == 2; }
  bool is_null() const { return kind == 0; }
  const Object* object() const { return kind == 5 ? obj : nullptr; }

  static Scalar of(const Value& v) {
    Scalar s;
    s.kind = v.index();
    switch (s.kind) {
      case 1: s.i = std::get<std::int64_t>(v); break;
      case 2: s.d = std::get<double>(v); break;
      case 3: s.b = std::get<bool>(v); break;
      case 5: s.obj = std::get<std::shared_ptr<Object>>(v).get(); break;
      default: break;
    }
    return s;
  }
  static Scalar integer(std::int64_t value) {
    Scalar s;
    s.kind = 1;
    s.i = value;
    return s;
  }
  static Scalar real(double value) {
    Scalar s;
    s.kind = 2;
    s.d = value;
    return s;
  }
  static Scalar boolean(bool value) {
    Scalar s;
    s.kind = 3;
    s.b = value;
    return s;
  }

  // as_int / as_double / as_bool of the Value it was taken from.
  std::int64_t to_int() const {
    if (kind == 1) return i;
    if (kind == 2) return static_cast<std::int64_t>(d);
    if (kind == 3) return b ? 1 : 0;
    throw std::runtime_error("value is not numeric");
  }
  double to_double() const {
    if (kind == 2) return d;
    if (kind == 1) return static_cast<double>(i);
    if (kind == 3) return b ? 1.0 : 0.0;
    throw std::runtime_error("value is not numeric");
  }
  bool to_bool() const {
    if (kind == 3) return b;
    throw std::runtime_error("value is not boolean");
  }

  /// The Value it stands for, in `tmp` unless it is a boolean constant.
  const Value& value(Value& tmp) const {
    if (kind == 1) {
      tmp = i;
    } else if (kind == 2) {
      tmp = d;
    } else {
      return b ? kTrue : kFalse;
    }
    return tmp;
  }
};

Executor::Executor(const lowered::Program& program) : program_(program) {
  frames_.reserve(static_cast<std::size_t>(lowered::kMaxCallDepth) + 1);
  frames_.emplace_back();  // depth 0 is the stage frame
  receivers_.emplace_back();
  args_.reserve(16);
}

void Executor::enter(StageFrame& frame) {
  slots_ = frame.values();
  stage_ = &frame;
  self_ = nullptr;
  depth_ = 0;
}

void Executor::exec_stmts(const std::vector<const LStmt*>& stmts,
                          StageFrame& frame) {
  enter(frame);
  for (const LStmt* s : stmts) exec(*s);
}

void Executor::exec_stmt(const LStmt& stmt, StageFrame& frame) {
  enter(frame);
  exec(stmt);
}

Value Executor::eval(const LExpr& expr, StageFrame& frame) {
  enter(frame);
  Value tmp;
  return take(eval(expr, tmp), tmp);
}

void Executor::run(const lowered::LoweredMain& main, StageFrame& frame) {
  enter(frame);
  for (const LStmt* s : main.body)
    if (exec(*s) == Flow::Return) break;
}

Value Executor::call_method(const std::string& class_name,
                            const std::string& method,
                            const std::shared_ptr<Object>& receiver,
                            std::vector<Value> args) {
  if (!program_.registry().find(class_name))
    throw InterpError({}, "unknown class '" + class_name + "'");
  const lowered::Method* m = program_.find_method(class_name, method);
  if (!m)
    throw InterpError({}, "no executable method '" + class_name +
                              "::" + method + "'");
  const std::size_t base = args_.size();
  ArgsScope scope{args_, base};
  for (Value& a : args) args_.push_back(std::move(a));
  return invoke(*m, receiver, base);
}

void Executor::throw_undeclared(const LExpr& expr) const {
  throw InterpError(expr.loc, "undeclared variable '" + expr.name + "'");
}

int Executor::field_index(const Object& obj, const LExpr& expr) const {
  if (expr.cls && obj.class_name == expr.cls->info->name) return expr.slot;
  const ClassInfo* cls = program_.registry().find(obj.class_name);
  if (!cls)
    throw InterpError(expr.loc, "unknown class '" + obj.class_name + "'");
  const FieldInfo* field = cls->find_field(expr.name);
  if (!field)
    throw InterpError(expr.loc, "no field '" + expr.name + "' in '" +
                                    cls->name + "'");
  return field->index;
}

const lowered::Method& Executor::dispatch(const Object* receiver,
                                          const LExpr& call) const {
  if (call.method &&
      (!receiver || receiver->class_name == call.method->cls->info->name))
    return *call.method;
  if (!receiver && !call.method)
    throw InterpError({}, "no executable method for '" + call.name + "'");
  const std::string& cls =
      receiver ? receiver->class_name : call.method->cls->info->name;
  if (!program_.registry().find(cls))
    throw InterpError({}, "unknown class '" + cls + "'");
  const lowered::Method* m = program_.find_method(cls, call.name);
  if (!m)
    throw InterpError({}, "no executable method '" + cls + "::" + call.name +
                              "'");
  return *m;
}

Value Executor::invoke(const lowered::Method& m,
                       std::shared_ptr<Object> receiver,
                       std::size_t args_base) {
  const MethodDecl& decl = *m.decl;
  if (m.params.size() != args_.size() - args_base)
    throw InterpError(decl.location,
                      "arity mismatch calling '" + decl.name + "'");
  if (depth_ >= lowered::kMaxCallDepth)
    throw InterpError(decl.location, "call depth limit exceeded");
  count(2.0 * lowered::kBranchOp);

  const auto d = static_cast<std::size_t>(depth_ + 1);
  if (frames_.size() <= d) {
    frames_.emplace_back();
    receivers_.emplace_back();
  }
  std::vector<Value>& frame = frames_[d];
  const auto size = static_cast<std::size_t>(m.frame_size);
  if (frame.size() < size) frame.resize(size);
  for (std::size_t i = 0; i < m.params.size(); ++i) {
    frame[i] = std::move(args_[args_base + i]);
    lowered::coerce(m.params[i], frame[i]);
  }
  args_.resize(args_base);
  receivers_[d] = std::move(receiver);

  // Restores the caller's frame however the body exits, and drops this
  // frame's values so nothing outlives the call.
  struct CallScope {
    Executor& ex;
    Value* slots;
    StageFrame* stage;
    Object* self;
    std::vector<Value>& frame;
    std::size_t size;
    ~CallScope() {
      for (std::size_t i = 0; i < size; ++i) frame[i] = std::monostate{};
      ex.receivers_[static_cast<std::size_t>(ex.depth_)].reset();
      ex.slots_ = slots;
      ex.stage_ = stage;
      ex.self_ = self;
      --ex.depth_;
    }
  } scope{*this, slots_, stage_, self_, frame, size};
  ++depth_;
  slots_ = frame.data();
  stage_ = nullptr;
  self_ = receivers_[d].get();
  return_value_ = Value{};
  for (const LStmt* s : m.body)
    if (exec(*s) == Flow::Return) break;
  return return_value_;
}

std::shared_ptr<Object> Executor::construct(const lowered::ClassCode& cls,
                                            std::size_t args_base) {
  auto obj = std::make_shared<Object>();
  obj->class_name = cls.info->name;
  obj->fields = cls.field_defaults;
  if (cls.constructor) {
    invoke(*cls.constructor, obj, args_base);
  } else if (args_.size() > args_base) {
    throw InterpError({}, "class '" + cls.info->name + "' has no constructor");
  }
  return obj;
}


// ---- statements -----------------------------------------------------------

Executor::Flow Executor::exec(const LStmt& stmt) {
  using lowered::coerce;
  switch (stmt.op) {
    case StmtOp::LocalDecl: {
      Value tmp;
      Value value = stmt.expr ? take(eval(*stmt.expr, tmp), tmp)
                              : stmt.default_value;
      coerce(stmt.store, value);
      slots_[stmt.slot] = std::move(value);
      count(stmt.weight);
      return Flow::Normal;
    }
    case StmtOp::StageDecl: {
      Value tmp;
      Value value = stmt.expr ? take(eval(*stmt.expr, tmp), tmp)
                              : stmt.default_value;
      coerce(stmt.store, value);
      stage_->declare_slot(stmt.slot, std::move(value));
      count(stmt.weight);
      return Flow::Normal;
    }
    case StmtOp::ExprStmt: {
      Value tmp;
      eval(*stmt.expr, tmp);
      return Flow::Normal;
    }
    case StmtOp::Block:
      for (const LStmt* s : stmt.stmts) {
        const Flow flow = exec(*s);
        if (flow != Flow::Normal) return flow;
      }
      return Flow::Normal;
    case StmtOp::If: {
      count(stmt.weight);
      if (scalar(*stmt.expr).to_bool()) return exec(*stmt.body);
      if (stmt.else_body) return exec(*stmt.else_body);
      return Flow::Normal;
    }
    case StmtOp::While:
      while (true) {
        count(stmt.weight);
        if (!scalar(*stmt.expr).to_bool()) break;
        const Flow flow = exec(*stmt.body);
        if (flow == Flow::Break) break;
        if (flow == Flow::Return) return flow;
      }
      return Flow::Normal;
    case StmtOp::For: {
      if (stmt.init) exec(*stmt.init);
      while (true) {
        count(stmt.weight);
        if (stmt.expr && !scalar(*stmt.expr).to_bool()) break;
        const Flow flow = exec(*stmt.body);
        if (flow == Flow::Break) break;
        if (flow == Flow::Return) return flow;
        if (stmt.step) {
          Value tmp;
          eval(*stmt.step, tmp);
        }
      }
      return Flow::Normal;
    }
    case StmtOp::ForeachRange: {
      Value tmp;
      const Value domain = take(eval(*stmt.expr, tmp), tmp);
      Value& var = slots_[stmt.slot];
      if (const auto* dom = std::get_if<RectDomainVal>(&domain)) {
        var = std::int64_t{0};
        if (stmt.parallel && stage_) {
          const auto hardware =
              static_cast<std::int64_t>(std::thread::hardware_concurrency());
          const std::int64_t chunks =
              std::min(hardware, dom->size() / kMinChunk);
          if (chunks > 1) {
            run_chunks(stmt, dom->lo, dom->hi, static_cast<int>(chunks));
            return Flow::Normal;
          }
        }
        return run_range(stmt, dom->lo, dom->hi);
      }
      const auto* arr = std::get_if<std::shared_ptr<ArrayVal>>(&domain);
      if (!arr)
        throw InterpError(stmt.loc,
                          "foreach domain is neither rectdomain nor array");
      if (!*arr) throw InterpError(stmt.loc, "foreach over null array");
      var = std::monostate{};
      for (const Value& elem : (*arr)->elems) {
        count(stmt.weight);
        slots_[stmt.slot] = elem;
        const Flow flow = exec(*stmt.body);
        if (flow == Flow::Break) break;
        if (flow == Flow::Return) return flow;
      }
      return Flow::Normal;
    }
    case StmtOp::PipelinedLoop: {
      Value tmp;
      const Value& v = eval(*stmt.expr, tmp);
      const auto* dom = std::get_if<RectDomainVal>(&v);
      if (!dom)
        throw InterpError(stmt.expr->loc, "expression is not a rectdomain");
      const RectDomainVal domain = *dom;
      slots_[stmt.slot] = std::int64_t{0};
      for (std::int64_t p = domain.lo; p <= domain.hi; ++p) {
        slots_[stmt.slot] = p;
        const Flow flow = exec(*stmt.body);
        if (flow == Flow::Break) break;
        if (flow == Flow::Return) return flow;
      }
      return Flow::Normal;
    }
    case StmtOp::Return: {
      if (stmt.expr) {
        Value tmp;
        return_value_ = take(eval(*stmt.expr, tmp), tmp);
      } else {
        return_value_ = Value{};
      }
      return Flow::Return;
    }
    case StmtOp::Break:
      return Flow::Break;
    case StmtOp::Continue:
      return Flow::Continue;
  }
  throw InterpError(stmt.loc, "unexpected statement node");
}

Executor::Flow Executor::run_range(const LStmt& loop, std::int64_t lo,
                                   std::int64_t hi) {
  for (std::int64_t i = lo; i <= hi; ++i) {
    count(loop.weight);
    slots_[loop.slot] = i;
    const Flow flow = exec(*loop.body);
    if (flow == Flow::Break) break;
    if (flow == Flow::Return) return flow;
  }
  return Flow::Normal;
}

void Executor::run_chunks(const LStmt& loop, std::int64_t lo, std::int64_t hi,
                          int chunks) {
  struct Chunk {
    Chunk(const lowered::Program& program, const StageFrame& frame)
        : exec(program), frame(frame) {}
    Executor exec;
    StageFrame frame;
    std::exception_ptr error;
  };
  std::deque<Chunk> parts;
  for (int c = 0; c < chunks; ++c) parts.emplace_back(program_, *stage_);
  const std::int64_t n = hi - lo + 1;
  const std::function<void(int)> run = [&](int c) {
    Chunk& part = parts[static_cast<std::size_t>(c)];
    try {
      part.exec.enter(part.frame);
      part.exec.run_range(loop, lo + n * c / chunks,
                          lo + n * (c + 1) / chunks - 1);
    } catch (...) {
      part.error = std::current_exception();
    }
  };
  support::run_chunks(chunks, run);
  for (const Chunk& part : parts) {
    count(part.exec.ops_);
    if (part.error) std::rethrow_exception(part.error);
  }
  slots_[loop.slot] = hi;
}

// ---- expressions ----------------------------------------------------------

Value* Executor::resolve(const LExpr& target, Value& hold) {
  switch (target.op) {
    case ExprOp::Local:
      return &slots_[target.slot];
    case ExprOp::StageVar:
      if (!stage_->bound(target.slot)) throw_undeclared(target);
      return &slots_[target.slot];
    case ExprOp::ThisField:
      if (!self_) throw_undeclared(target);
      return &self_->fields[static_cast<std::size_t>(target.slot)];
    case ExprOp::FieldAccess: {
      Value tmp;
      const Value& base = eval(*target.a, tmp);
      const auto* obj = std::get_if<std::shared_ptr<Object>>(&base);
      if (!obj || !*obj)
        throw InterpError(target.loc, "field store on null/non-object value");
      Object* o = obj->get();
      const int index = field_index(*o, target);
      if (&base == &tmp) hold = std::move(tmp);
      return &o->fields[static_cast<std::size_t>(index)];
    }
    case ExprOp::Index: {
      Value tmp;
      const Value& base = eval(*target.a, tmp);
      const auto* arr = std::get_if<std::shared_ptr<ArrayVal>>(&base);
      if (!arr || !*arr)
        throw InterpError(target.loc, "index store on null/non-array");
      ArrayVal* array = arr->get();
      if (&base == &tmp) {
        hold = std::move(tmp);
      } else if (target.keep_alive) {
        hold = *arr;
      }
      const std::int64_t i = scalar(*target.b).to_int();
      const std::int64_t local = i - array->base_index;
      if (local < 0 ||
          local >= static_cast<std::int64_t>(array->elems.size()))
        throw range_error(target.loc, i, *array);
      return &array->elems[static_cast<std::size_t>(local)];
    }
    default:
      throw InterpError(target.loc, "invalid assignment target");
  }
}

const Value& Executor::eval(const LExpr& e, Value& tmp) {
  switch (e.op) {
    case ExprOp::Const:
      return e.constant;
    case ExprOp::Unbound:
      throw InterpError(e.loc, "unbound runtime constant '" + e.name + "'");
    case ExprOp::This:
      if (!self_) throw InterpError(e.loc, "'this' outside of a method");
      tmp = receivers_[static_cast<std::size_t>(depth_)];
      return tmp;
    case ExprOp::Local:
      return slots_[e.slot];
    case ExprOp::StageVar:
      if (stage_->bound(e.slot)) return slots_[e.slot];
      if (e.c) return eval(*e.c, tmp);
      throw_undeclared(e);
    case ExprOp::ThisField:
      if (!self_) throw_undeclared(e);
      count(e.weight);
      return self_->fields[static_cast<std::size_t>(e.slot)];
    case ExprOp::FieldAccess: {
      Value base_tmp;
      const Value& base = eval(*e.a, base_tmp);
      count(e.weight);
      if (const auto* arr = std::get_if<std::shared_ptr<ArrayVal>>(&base)) {
        if (!*arr) throw InterpError(e.loc, "field access on null array");
        if (e.sub == 1) {
          tmp = static_cast<std::int64_t>((*arr)->elems.size());
          return tmp;
        }
        throw InterpError(e.loc, "arrays only have 'length'");
      }
      const auto* obj = std::get_if<std::shared_ptr<Object>>(&base);
      if (!obj || !*obj)
        throw InterpError(e.loc, "field access on null/non-object");
      const Value& field =
          (*obj)->fields[static_cast<std::size_t>(field_index(**obj, e))];
      if (&base != &base_tmp) return field;
      tmp = field;  // the object lives only in base_tmp
      return tmp;
    }
    case ExprOp::Index: {
      Value base_tmp;
      const Value& base = eval(*e.a, base_tmp);
      const auto* arr = std::get_if<std::shared_ptr<ArrayVal>>(&base);
      if (!arr || !*arr) throw InterpError(e.loc, "indexing null/non-array");
      std::shared_ptr<ArrayVal> hold;
      if (e.keep_alive && &base != &base_tmp) hold = *arr;
      const ArrayVal& array = **arr;
      const std::int64_t i = scalar(*e.b).to_int();
      const std::int64_t local = i - array.base_index;
      count(e.weight);
      if (local < 0 || local >= static_cast<std::int64_t>(array.elems.size()))
        throw range_error(e.loc, i, array);
      const Value& elem = array.elems[static_cast<std::size_t>(local)];
      if (&base != &base_tmp && !hold) return elem;
      tmp = elem;
      return tmp;
    }
    case ExprOp::Neg:
    case ExprOp::Not:
    case ExprOp::And:
    case ExprOp::Or:
    case ExprOp::Binary:
      return scalar(e).value(tmp);
    case ExprOp::IncDec: {
      Value hold;
      Value* slot = resolve(*e.a, hold);
      count(e.weight);
      const auto op = static_cast<UnaryOp>(e.sub);
      const bool inc = op == UnaryOp::PreInc || op == UnaryOp::PostInc;
      const bool pre = op == UnaryOp::PreInc || op == UnaryOp::PreDec;
      if (const auto* d = std::get_if<double>(slot)) {
        const double old = *d;
        *slot = old + (inc ? 1.0 : -1.0);
        tmp = pre ? *slot : Value{old};
        return tmp;
      }
      const std::int64_t old = as_int(*slot);
      *slot = old + (inc ? 1 : -1);
      tmp = pre ? *slot : Value{old};
      return tmp;
    }
    case ExprOp::Assign: {
      Value value_tmp;
      Value value = take(eval(*e.a, value_tmp), value_tmp);
      Value hold;
      Value* slot = resolve(*e.b, hold);
      count(e.weight);
      const auto op = static_cast<AssignOp>(e.sub);
      if (op != AssignOp::Assign) {
        const bool floating = std::holds_alternative<double>(*slot) ||
                              std::holds_alternative<double>(value);
        count(floating ? lowered::kFloatOp : lowered::kIntOp);
        if (floating) {
          const double lhs = as_double(*slot);
          const double rhs = as_double(value);
          switch (op) {
            case AssignOp::AddAssign: value = lhs + rhs; break;
            case AssignOp::SubAssign: value = lhs - rhs; break;
            case AssignOp::MulAssign: value = lhs * rhs; break;
            case AssignOp::DivAssign: value = lhs / rhs; break;
            default: break;
          }
        } else {
          const std::int64_t lhs = as_int(*slot);
          const std::int64_t rhs = as_int(value);
          switch (op) {
            case AssignOp::AddAssign: value = lhs + rhs; break;
            case AssignOp::SubAssign: value = lhs - rhs; break;
            case AssignOp::MulAssign: value = lhs * rhs; break;
            case AssignOp::DivAssign:
              if (rhs == 0)
                throw InterpError(e.loc, "integer division by zero");
              value = lhs / rhs;
              break;
            default: break;
          }
        }
      }
      if (e.typed) {
        lowered::coerce(e.store, value);
      } else if (std::holds_alternative<std::int64_t>(*slot) &&
                 std::holds_alternative<double>(value)) {
        value = static_cast<std::int64_t>(std::get<double>(value));
      } else if (std::holds_alternative<double>(*slot) &&
                 std::holds_alternative<std::int64_t>(value)) {
        value = static_cast<double>(std::get<std::int64_t>(value));
      }
      if (is_null(hold)) {
        *slot = std::move(value);
        return *slot;
      }
      *slot = value;
      tmp = std::move(value);
      return tmp;
    }
    case ExprOp::RectAccessor: {
      Value base_tmp;
      const Value& base = eval(*e.a, base_tmp);
      if (const auto* dom = std::get_if<RectDomainVal>(&base)) {
        switch (e.sub) {
          case 0: tmp = dom->size(); return tmp;
          case 1: tmp = dom->lo; return tmp;
          case 2: tmp = dom->hi; return tmp;
          default: break;
        }
      }
      throw InterpError(e.loc, "bad intrinsic receiver");
    }
    case ExprOp::CallIntrinsic:
      return eval_intrinsic(e, tmp);
    case ExprOp::Call:
      return eval_call(e, tmp);
    case ExprOp::NewObject: {
      const std::size_t base = args_.size();
      ArgsScope scope{args_, base};
      for (const LExpr* a : e.args) {
        Value arg_tmp;
        args_.push_back(take(eval(*a, arg_tmp), arg_tmp));
      }
      count(e.weight);
      tmp = construct(*e.cls, base);
      return tmp;
    }
    case ExprOp::NewArray: {
      const std::int64_t n = scalar(*e.a).to_int();
      if (n < 0) throw InterpError(e.loc, "negative array length");
      auto arr = std::make_shared<ArrayVal>();
      arr->element_type = e.element_type;
      arr->elems.assign(static_cast<std::size_t>(n), e.constant);
      count(e.weight + 0.25 * static_cast<double>(n));
      tmp = std::move(arr);
      return tmp;
    }
    case ExprOp::RectdomainLit: {
      if (e.sub != 0)
        throw InterpError(e.loc, "only rank-1 rectdomains are executable");
      RectDomainVal dom;
      dom.lo = scalar(*e.a).to_int();
      dom.hi = scalar(*e.b).to_int();
      tmp = dom;
      return tmp;
    }
    case ExprOp::Conditional: {
      count(e.weight);
      return scalar(*e.a).to_bool() ? eval(*e.b, tmp) : eval(*e.c, tmp);
    }
  }
  throw InterpError(e.loc, "unexpected expression node");
}

Executor::Scalar Executor::scalar(const LExpr& e) {
  switch (e.op) {
    case ExprOp::Const:
      return Scalar::of(e.constant);
    case ExprOp::Local:
      return Scalar::of(slots_[e.slot]);
    case ExprOp::Binary:
      return eval_binary(e);
    case ExprOp::Neg: {
      const Scalar v = scalar(*e.a);
      if (v.is_double()) {
        count(e.weight2);
        return Scalar::real(-v.d);
      }
      count(e.weight);
      return Scalar::integer(-v.to_int());
    }
    case ExprOp::Not:
      count(e.weight);
      return Scalar::boolean(!scalar(*e.a).to_bool());
    case ExprOp::And:
      count(e.weight);
      if (!scalar(*e.a).to_bool()) return Scalar::boolean(false);
      return Scalar::boolean(scalar(*e.b).to_bool());
    case ExprOp::Or:
      count(e.weight);
      if (scalar(*e.a).to_bool()) return Scalar::boolean(true);
      return Scalar::boolean(scalar(*e.b).to_bool());
    default: {
      Value tmp;
      return Scalar::of(eval(e, tmp));
    }
  }
}

Executor::Scalar Executor::eval_binary(const LExpr& e) {
  const Scalar lhs = scalar(*e.a);
  const Scalar rhs = scalar(*e.b);
  const auto op = static_cast<BinaryOp>(e.sub);

  // Reference equality.
  if ((op == BinaryOp::Eq || op == BinaryOp::Ne) &&
      (lhs.kind == 5 || rhs.kind == 5 || lhs.is_null() || rhs.is_null())) {
    count(lowered::kIntOp);
    bool equal =
        lhs.object() == rhs.object() && lhs.is_null() == rhs.is_null();
    if (lhs.is_null() && rhs.is_null()) equal = true;
    return Scalar::boolean(op == BinaryOp::Eq ? equal : !equal);
  }

  const bool floating = lhs.is_double() || rhs.is_double();
  count(floating ? e.weight2 : e.weight);
  if (is_comparison(op)) {
    if (floating) {
      const double a = lhs.to_double();
      const double b = rhs.to_double();
      switch (op) {
        case BinaryOp::Eq: return Scalar::boolean(a == b);
        case BinaryOp::Ne: return Scalar::boolean(a != b);
        case BinaryOp::Lt: return Scalar::boolean(a < b);
        case BinaryOp::Gt: return Scalar::boolean(a > b);
        case BinaryOp::Le: return Scalar::boolean(a <= b);
        case BinaryOp::Ge: return Scalar::boolean(a >= b);
        default: break;
      }
    } else {
      const std::int64_t a = lhs.to_int();
      const std::int64_t b = rhs.to_int();
      switch (op) {
        case BinaryOp::Eq: return Scalar::boolean(a == b);
        case BinaryOp::Ne: return Scalar::boolean(a != b);
        case BinaryOp::Lt: return Scalar::boolean(a < b);
        case BinaryOp::Gt: return Scalar::boolean(a > b);
        case BinaryOp::Le: return Scalar::boolean(a <= b);
        case BinaryOp::Ge: return Scalar::boolean(a >= b);
        default: break;
      }
    }
    throw InterpError(e.loc, "bad comparison");
  }
  if (floating) {
    const double a = lhs.to_double();
    const double b = rhs.to_double();
    switch (op) {
      case BinaryOp::Add: return Scalar::real(a + b);
      case BinaryOp::Sub: return Scalar::real(a - b);
      case BinaryOp::Mul: return Scalar::real(a * b);
      case BinaryOp::Div: return Scalar::real(a / b);
      case BinaryOp::Mod: return Scalar::real(std::fmod(a, b));
      default: break;
    }
  } else {
    const std::int64_t a = lhs.to_int();
    const std::int64_t b = rhs.to_int();
    switch (op) {
      case BinaryOp::Add: return Scalar::integer(a + b);
      case BinaryOp::Sub: return Scalar::integer(a - b);
      case BinaryOp::Mul: return Scalar::integer(a * b);
      case BinaryOp::Div:
        if (b == 0) throw InterpError(e.loc, "division by zero");
        return Scalar::integer(a / b);
      case BinaryOp::Mod:
        if (b == 0) throw InterpError(e.loc, "modulo by zero");
        return Scalar::integer(a % b);
      default: break;
    }
  }
  throw InterpError(e.loc, "bad arithmetic");
}

const Value& Executor::eval_intrinsic(const LExpr& e, Value& tmp) {
  // The tree-walker copies every argument before it computes.
  Value args[2];
  for (std::size_t i = 0; i < e.args.size(); ++i) {
    Value arg_tmp;
    const Value& v = eval(*e.args[i], arg_tmp);
    if (i < 2) args[i] = take(v, arg_tmp);
  }
  auto arg_d = [&](std::size_t i) { return as_double(args[i]); };
  const auto fn = static_cast<Intrinsic>(e.sub);
  switch (fn) {
    case Intrinsic::Sqrt:
      count(15.0 * lowered::kFloatOp);
      tmp = std::sqrt(arg_d(0));
      return tmp;
    case Intrinsic::Abs:
      count(2.0 * lowered::kFloatOp);
      if (const auto* i = std::get_if<std::int64_t>(&args[0])) {
        tmp = std::abs(*i);
      } else {
        tmp = std::fabs(arg_d(0));
      }
      return tmp;
    case Intrinsic::Min:
    case Intrinsic::Max: {
      count(2.0 * lowered::kFloatOp);
      const bool min = fn == Intrinsic::Min;
      if (std::holds_alternative<double>(args[0]) ||
          std::holds_alternative<double>(args[1])) {
        tmp = min ? std::min(arg_d(0), arg_d(1)) : std::max(arg_d(0), arg_d(1));
      } else {
        tmp = min ? std::min(as_int(args[0]), as_int(args[1]))
                  : std::max(as_int(args[0]), as_int(args[1]));
      }
      return tmp;
    }
    case Intrinsic::Floor:
      count(2.0 * lowered::kFloatOp);
      tmp = std::floor(arg_d(0));
      return tmp;
    case Intrinsic::Ceil:
      count(2.0 * lowered::kFloatOp);
      tmp = std::ceil(arg_d(0));
      return tmp;
    default:
      break;
  }
  count(30.0 * lowered::kFloatOp);
  switch (fn) {
    case Intrinsic::Pow: tmp = std::pow(arg_d(0), arg_d(1)); return tmp;
    case Intrinsic::Exp: tmp = std::exp(arg_d(0)); return tmp;
    case Intrinsic::Log: tmp = std::log(arg_d(0)); return tmp;
    case Intrinsic::Sin: tmp = std::sin(arg_d(0)); return tmp;
    case Intrinsic::Cos: tmp = std::cos(arg_d(0)); return tmp;
    case Intrinsic::Atan2: tmp = std::atan2(arg_d(0), arg_d(1)); return tmp;
    default: break;
  }
  throw InterpError(e.loc, "unknown intrinsic '" + e.name + "'");
}

const Value& Executor::eval_call(const LExpr& e, Value& tmp) {
  const std::size_t base = args_.size();
  ArgsScope scope{args_, base};
  for (const LExpr* a : e.args) {
    Value arg_tmp;
    args_.push_back(take(eval(*a, arg_tmp), arg_tmp));
  }
  std::shared_ptr<Object> receiver;
  if (e.a) {
    Value base_tmp;
    const Value& v = eval(*e.a, base_tmp);
    const auto* obj = std::get_if<std::shared_ptr<Object>>(&v);
    if (!obj || !*obj)
      throw InterpError(e.loc, "method call on null/non-object");
    receiver = *obj;
  } else if (self_) {
    receiver = receivers_[static_cast<std::size_t>(depth_)];
  }
  const lowered::Method& m = dispatch(receiver.get(), e);
  tmp = invoke(m, std::move(receiver), base);
  return tmp;
}

}  // namespace cgp
