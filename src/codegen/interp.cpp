#include "codegen/interp.h"

#include <cmath>
#include <sstream>

#include "support/str.h"

namespace cgp {

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

std::int64_t as_int(const Value& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) return *i;
  if (const auto* d = std::get_if<double>(&v))
    return static_cast<std::int64_t>(*d);
  if (const auto* b = std::get_if<bool>(&v)) return *b ? 1 : 0;
  throw std::runtime_error("value is not numeric");
}

double as_double(const Value& v) {
  if (const auto* d = std::get_if<double>(&v)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&v))
    return static_cast<double>(*i);
  if (const auto* b = std::get_if<bool>(&v)) return *b ? 1.0 : 0.0;
  throw std::runtime_error("value is not numeric");
}

bool as_bool(const Value& v) {
  if (const auto* b = std::get_if<bool>(&v)) return *b;
  throw std::runtime_error("value is not boolean");
}

std::string value_to_string(const Value& v) {
  struct Visitor {
    std::string operator()(std::monostate) const { return "null"; }
    std::string operator()(std::int64_t i) const { return std::to_string(i); }
    std::string operator()(double d) const {
      std::ostringstream out;
      out << d;
      return out.str();
    }
    std::string operator()(bool b) const { return b ? "true" : "false"; }
    std::string operator()(const std::string& s) const { return '"' + s + '"'; }
    std::string operator()(const std::shared_ptr<Object>& o) const {
      return o ? "<" + o->class_name + ">" : "null";
    }
    std::string operator()(const std::shared_ptr<ArrayVal>& a) const {
      return a ? "<array[" + std::to_string(a->elems.size()) + "]>" : "null";
    }
    std::string operator()(const RectDomainVal& d) const {
      return "[" + std::to_string(d.lo) + ":" + std::to_string(d.hi) + "]";
    }
  };
  return std::visit(Visitor{}, v);
}

// ---------------------------------------------------------------------------
// Env
// ---------------------------------------------------------------------------

void Env::declare(const std::string& name, Value value) {
  scopes_.back()[name] = std::move(value);
}

void Env::assign(const std::string& name, Value value) {
  for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
    auto found = it->find(name);
    if (found != it->end()) {
      found->second = std::move(value);
      return;
    }
  }
  throw std::runtime_error("assignment to undeclared variable '" + name + "'");
}

bool Env::has(const std::string& name) const {
  for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
    if (it->count(name)) return true;
  }
  return false;
}

Value& Env::slot(const std::string& name) {
  for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
    auto found = it->find(name);
    if (found != it->end()) return found->second;
  }
  throw std::runtime_error("undeclared variable '" + name + "'");
}

const Value& Env::get(const std::string& name) const {
  return const_cast<Env*>(this)->slot(name);
}

std::map<std::string, Value> Env::flatten() const {
  std::map<std::string, Value> out;
  for (const auto& scope : scopes_) {
    for (const auto& [name, value] : scope) out[name] = value;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Interpreter
// ---------------------------------------------------------------------------

namespace {
constexpr int kMaxCallDepth = 256;
constexpr double kMemOp = 1.5;
constexpr double kFloatOp = 2.0;
constexpr double kIntOp = 1.0;
constexpr double kBranchOp = 1.0;

/// Coerces a value for storage into a slot of declared type `type`:
/// integral truncation, float32 rounding (Java `float` semantics — also
/// exactly what the packing codec transmits), int<->double widening.
Value coerce_store(const TypePtr& type, Value value) {
  if (!type || !type->is_primitive()) return value;
  switch (type->prim()) {
    case PrimKind::Int:
    case PrimKind::Long:
    case PrimKind::Byte:
      if (std::holds_alternative<double>(value)) {
        return static_cast<std::int64_t>(std::get<double>(value));
      }
      return value;
    case PrimKind::Float:
      if (std::holds_alternative<double>(value)) {
        return static_cast<double>(static_cast<float>(std::get<double>(value)));
      }
      if (std::holds_alternative<std::int64_t>(value)) {
        return static_cast<double>(
            static_cast<float>(std::get<std::int64_t>(value)));
      }
      return value;
    case PrimKind::Double:
      if (std::holds_alternative<std::int64_t>(value)) {
        return static_cast<double>(std::get<std::int64_t>(value));
      }
      return value;
    default:
      return value;
  }
}
}  // namespace

Interpreter::Interpreter(const ClassRegistry& registry,
                         std::map<std::string, std::int64_t> runtime_constants)
    : registry_(registry), runtime_constants_(std::move(runtime_constants)) {}

Value Interpreter::default_value(const TypePtr& type) {
  if (!type) return std::monostate{};
  if (type->is_integral()) return std::int64_t{0};
  if (type->is_floating()) return 0.0;
  if (type->is_boolean()) return false;
  if (type->is_rectdomain()) return RectDomainVal{};
  return std::monostate{};
}

const ClassInfo& Interpreter::class_info_or_throw(const std::string& name,
                                                  SourceLocation loc) const {
  const ClassInfo* info = registry_.find(name);
  if (!info) throw InterpError(loc, "unknown class '" + name + "'");
  return *info;
}

int Interpreter::field_index_or_throw(const ClassInfo& cls,
                                      const std::string& field,
                                      SourceLocation loc) const {
  const FieldInfo* info = cls.find_field(field);
  if (!info)
    throw InterpError(loc, "no field '" + field + "' in '" + cls.name + "'");
  return info->index;
}

void Interpreter::exec_stmts(const std::vector<const Stmt*>& stmts, Env& env) {
  for (const Stmt* s : stmts) exec_stmt(*s, env);
}

void Interpreter::exec_stmt(const Stmt& stmt, Env& env) {
  Flow flow = exec_flow(stmt, env);
  if (flow == Flow::Return) return;  // swallowed at top level
}

Interpreter::Flow Interpreter::exec_flow(const Stmt& stmt, Env& env) {
  switch (stmt.kind) {
    case NodeKind::VarDeclStmt: {
      const auto& decl = static_cast<const VarDeclStmt&>(stmt);
      Value value = decl.init ? eval(*decl.init, env)
                              : default_value(decl.declared_type);
      env.declare(decl.name, coerce_store(decl.declared_type, std::move(value)));
      count(kMemOp);
      return Flow::Normal;
    }
    case NodeKind::ExprStmt:
      eval(*static_cast<const ExprStmt&>(stmt).expr, env);
      return Flow::Normal;
    case NodeKind::Block: {
      env.push();
      Flow flow = Flow::Normal;
      for (const StmtPtr& s : static_cast<const BlockStmt&>(stmt).statements) {
        flow = exec_flow(*s, env);
        if (flow != Flow::Normal) break;
      }
      env.pop();
      return flow;
    }
    case NodeKind::IfStmt: {
      const auto& if_stmt = static_cast<const IfStmt&>(stmt);
      count(kBranchOp);
      if (as_bool(eval(*if_stmt.cond, env))) {
        return exec_flow(*if_stmt.then_branch, env);
      }
      if (if_stmt.else_branch) return exec_flow(*if_stmt.else_branch, env);
      return Flow::Normal;
    }
    case NodeKind::WhileStmt: {
      const auto& loop = static_cast<const WhileStmt&>(stmt);
      while (true) {
        count(kBranchOp);
        if (!as_bool(eval(*loop.cond, env))) break;
        Flow flow = exec_flow(*loop.body, env);
        if (flow == Flow::Break) break;
        if (flow == Flow::Return) return flow;
      }
      return Flow::Normal;
    }
    case NodeKind::ForStmt: {
      const auto& loop = static_cast<const ForStmt&>(stmt);
      env.push();
      if (loop.init) exec_flow(*loop.init, env);
      Flow result = Flow::Normal;
      while (true) {
        count(kBranchOp);
        if (loop.cond && !as_bool(eval(*loop.cond, env))) break;
        Flow flow = exec_flow(*loop.body, env);
        if (flow == Flow::Break) break;
        if (flow == Flow::Return) {
          result = flow;
          break;
        }
        if (loop.step) eval(*loop.step, env);
      }
      env.pop();
      return result;
    }
    case NodeKind::ForeachStmt: {
      const auto& loop = static_cast<const ForeachStmt&>(stmt);
      Value domain = eval(*loop.domain, env);
      env.push();
      Flow result = Flow::Normal;
      if (const auto* dom = std::get_if<RectDomainVal>(&domain)) {
        env.declare(loop.var, std::int64_t{0});
        for (std::int64_t i = dom->lo; i <= dom->hi; ++i) {
          count(kBranchOp + kMemOp);
          env.assign(loop.var, i);
          Flow flow = exec_flow(*loop.body, env);
          if (flow == Flow::Break) break;
          if (flow == Flow::Return) {
            result = flow;
            break;
          }
        }
      } else if (const auto* arr =
                     std::get_if<std::shared_ptr<ArrayVal>>(&domain)) {
        if (!*arr) throw InterpError(loop.location, "foreach over null array");
        env.declare(loop.var, std::monostate{});
        for (const Value& elem : (*arr)->elems) {
          count(kBranchOp + kMemOp);
          env.assign(loop.var, elem);
          Flow flow = exec_flow(*loop.body, env);
          if (flow == Flow::Break) break;
          if (flow == Flow::Return) {
            result = flow;
            break;
          }
        }
      } else {
        throw InterpError(loop.location,
                          "foreach domain is neither rectdomain nor array");
      }
      env.pop();
      return result;
    }
    case NodeKind::PipelinedLoopStmt: {
      const auto& loop = static_cast<const PipelinedLoopStmt&>(stmt);
      if (hook_ && hook_(loop, env)) return Flow::Normal;
      // Reference semantics: run the packet loop sequentially.
      RectDomainVal domain = eval_domain(*loop.domain, env);
      env.push();
      env.declare(loop.var, std::int64_t{0});
      for (std::int64_t p = domain.lo; p <= domain.hi; ++p) {
        env.assign(loop.var, p);
        Flow flow = exec_flow(*loop.body, env);
        if (flow == Flow::Break) break;
        if (flow == Flow::Return) {
          env.pop();
          return flow;
        }
      }
      env.pop();
      return Flow::Normal;
    }
    case NodeKind::ReturnStmt: {
      const auto& ret = static_cast<const ReturnStmt&>(stmt);
      return_value_ = ret.value ? eval(*ret.value, env) : Value{};
      return Flow::Return;
    }
    case NodeKind::BreakStmt:
      return Flow::Break;
    case NodeKind::ContinueStmt:
      return Flow::Continue;
    default:
      throw InterpError(stmt.location, "unexpected statement node");
  }
}

RectDomainVal Interpreter::eval_domain(const Expr& expr, Env& env) {
  Value v = eval(expr, env);
  if (const auto* dom = std::get_if<RectDomainVal>(&v)) return *dom;
  throw InterpError(expr.location, "expression is not a rectdomain");
}

Value* Interpreter::resolve_slot(const Expr& target, Env& env) {
  switch (target.kind) {
    case NodeKind::VarRef: {
      const auto& ref = static_cast<const VarRef&>(target);
      if (env.has(ref.name)) return &env.slot(ref.name);
      if (current_this_) {
        const ClassInfo& cls =
            class_info_or_throw(current_this_->class_name, target.location);
        if (const FieldInfo* field = cls.find_field(ref.name)) {
          return &current_this_->fields[static_cast<std::size_t>(field->index)];
        }
      }
      throw InterpError(target.location,
                        "undeclared variable '" + ref.name + "'");
    }
    case NodeKind::FieldAccess: {
      const auto& access = static_cast<const FieldAccess&>(target);
      Value base = eval(*access.base, env);
      auto* obj = std::get_if<std::shared_ptr<Object>>(&base);
      if (!obj || !*obj) {
        throw InterpError(target.location,
                          "field store on null/non-object value");
      }
      const ClassInfo& cls =
          class_info_or_throw((*obj)->class_name, target.location);
      int index = field_index_or_throw(cls, access.field, target.location);
      return &(*obj)->fields[static_cast<std::size_t>(index)];
    }
    case NodeKind::Index: {
      const auto& index = static_cast<const IndexExpr&>(target);
      Value base = eval(*index.base, env);
      auto* arr = std::get_if<std::shared_ptr<ArrayVal>>(&base);
      if (!arr || !*arr) {
        throw InterpError(target.location, "index store on null/non-array");
      }
      std::int64_t i = as_int(eval(*index.indices[0], env));
      std::int64_t local = i - (*arr)->base_index;
      if (local < 0 || local >= static_cast<std::int64_t>((*arr)->elems.size())) {
        throw InterpError(target.location,
                          "array index " + std::to_string(i) +
                              " out of range [base " +
                              std::to_string((*arr)->base_index) + ", size " +
                              std::to_string((*arr)->elems.size()) + ")");
      }
      return &(*arr)->elems[static_cast<std::size_t>(local)];
    }
    default:
      throw InterpError(target.location, "invalid assignment target");
  }
}

Value Interpreter::eval(const Expr& expr, Env& env) {
  switch (expr.kind) {
    case NodeKind::IntLit:
      return static_cast<const IntLit&>(expr).value;
    case NodeKind::FloatLit:
      return static_cast<const FloatLit&>(expr).value;
    case NodeKind::BoolLit:
      return static_cast<const BoolLit&>(expr).value;
    case NodeKind::StringLit:
      return static_cast<const StringLit&>(expr).value;
    case NodeKind::NullLit:
      return std::monostate{};
    case NodeKind::VarRef: {
      const auto& ref = static_cast<const VarRef&>(expr);
      if (ref.name == "this") {
        if (!current_this_)
          throw InterpError(expr.location, "'this' outside of a method");
        return current_this_;
      }
      if (env.has(ref.name)) return env.get(ref.name);
      if (ref.is_runtime_define) {
        auto it = runtime_constants_.find(ref.name);
        if (it == runtime_constants_.end()) {
          throw InterpError(expr.location,
                            "unbound runtime constant '" + ref.name + "'");
        }
        return it->second;
      }
      if (current_this_) {
        const ClassInfo& cls =
            class_info_or_throw(current_this_->class_name, expr.location);
        if (const FieldInfo* field = cls.find_field(ref.name)) {
          count(kMemOp);
          return current_this_->fields[static_cast<std::size_t>(field->index)];
        }
      }
      throw InterpError(expr.location,
                        "undeclared variable '" + ref.name + "'");
    }
    case NodeKind::FieldAccess: {
      const auto& access = static_cast<const FieldAccess&>(expr);
      Value base = eval(*access.base, env);
      count(kMemOp);
      if (auto* arr = std::get_if<std::shared_ptr<ArrayVal>>(&base)) {
        if (!*arr)
          throw InterpError(expr.location, "field access on null array");
        if (access.field == "length")
          return static_cast<std::int64_t>((*arr)->elems.size());
        throw InterpError(expr.location, "arrays only have 'length'");
      }
      auto* obj = std::get_if<std::shared_ptr<Object>>(&base);
      if (!obj || !*obj)
        throw InterpError(expr.location, "field access on null/non-object");
      const ClassInfo& cls =
          class_info_or_throw((*obj)->class_name, expr.location);
      int index = field_index_or_throw(cls, access.field, expr.location);
      return (*obj)->fields[static_cast<std::size_t>(index)];
    }
    case NodeKind::Index: {
      const auto& index = static_cast<const IndexExpr&>(expr);
      Value base = eval(*index.base, env);
      auto* arr = std::get_if<std::shared_ptr<ArrayVal>>(&base);
      if (!arr || !*arr)
        throw InterpError(expr.location, "indexing null/non-array");
      std::int64_t i = as_int(eval(*index.indices[0], env));
      std::int64_t local = i - (*arr)->base_index;
      count(kMemOp + kIntOp);
      if (local < 0 ||
          local >= static_cast<std::int64_t>((*arr)->elems.size())) {
        throw InterpError(expr.location,
                          "array index " + std::to_string(i) +
                              " out of range [base " +
                              std::to_string((*arr)->base_index) + ", size " +
                              std::to_string((*arr)->elems.size()) + ")");
      }
      return (*arr)->elems[static_cast<std::size_t>(local)];
    }
    case NodeKind::Unary: {
      const auto& unary = static_cast<const UnaryExpr&>(expr);
      if (unary.op == UnaryOp::Neg) {
        Value v = eval(*unary.operand, env);
        if (std::holds_alternative<double>(v)) {
          count(kFloatOp);
          return -std::get<double>(v);
        }
        count(kIntOp);
        return -as_int(v);
      }
      if (unary.op == UnaryOp::Not) {
        count(kIntOp);
        return !as_bool(eval(*unary.operand, env));
      }
      // Increment / decrement.
      Value* slot = resolve_slot(*unary.operand, env);
      count(kIntOp + kMemOp);
      const bool inc =
          unary.op == UnaryOp::PreInc || unary.op == UnaryOp::PostInc;
      const bool pre =
          unary.op == UnaryOp::PreInc || unary.op == UnaryOp::PreDec;
      if (std::holds_alternative<double>(*slot)) {
        double old = std::get<double>(*slot);
        *slot = old + (inc ? 1.0 : -1.0);
        return pre ? *slot : Value{old};
      }
      std::int64_t old = as_int(*slot);
      *slot = old + (inc ? 1 : -1);
      return pre ? *slot : Value{old};
    }
    case NodeKind::Binary:
      return eval_binary(static_cast<const BinaryExpr&>(expr), env);
    case NodeKind::Assign: {
      const auto& assign = static_cast<const AssignExpr&>(expr);
      Value value = eval(*assign.value, env);
      Value* slot = resolve_slot(*assign.target, env);
      count(kMemOp);
      if (assign.op != AssignOp::Assign) {
        const bool floating = std::holds_alternative<double>(*slot) ||
                              std::holds_alternative<double>(value);
        count(floating ? kFloatOp : kIntOp);
        if (floating) {
          double lhs = as_double(*slot);
          double rhs = as_double(value);
          switch (assign.op) {
            case AssignOp::AddAssign: value = lhs + rhs; break;
            case AssignOp::SubAssign: value = lhs - rhs; break;
            case AssignOp::MulAssign: value = lhs * rhs; break;
            case AssignOp::DivAssign: value = lhs / rhs; break;
            default: break;
          }
        } else {
          std::int64_t lhs = as_int(*slot);
          std::int64_t rhs = as_int(value);
          switch (assign.op) {
            case AssignOp::AddAssign: value = lhs + rhs; break;
            case AssignOp::SubAssign: value = lhs - rhs; break;
            case AssignOp::MulAssign: value = lhs * rhs; break;
            case AssignOp::DivAssign:
              if (rhs == 0)
                throw InterpError(expr.location, "integer division by zero");
              value = lhs / rhs;
              break;
            default: break;
          }
        }
      }
      // Coerce to the declared type of the target (sema typed it); fall
      // back to the slot's current representation when untyped.
      if (assign.target->type) {
        value = coerce_store(assign.target->type, std::move(value));
      } else if (std::holds_alternative<std::int64_t>(*slot) &&
                 std::holds_alternative<double>(value)) {
        value = static_cast<std::int64_t>(std::get<double>(value));
      } else if (std::holds_alternative<double>(*slot) &&
                 std::holds_alternative<std::int64_t>(value)) {
        value = static_cast<double>(std::get<std::int64_t>(value));
      }
      *slot = value;
      return value;
    }
    case NodeKind::Call:
      return eval_call(static_cast<const CallExpr&>(expr), env);
    case NodeKind::NewObject: {
      const auto& alloc = static_cast<const NewObjectExpr&>(expr);
      std::vector<Value> args;
      args.reserve(alloc.args.size());
      for (const ExprPtr& a : alloc.args) args.push_back(eval(*a, env));
      count(4.0 * kMemOp);
      return construct(alloc.class_name, std::move(args));
    }
    case NodeKind::NewArray: {
      const auto& alloc = static_cast<const NewArrayExpr&>(expr);
      std::int64_t n = as_int(eval(*alloc.length, env));
      if (n < 0) throw InterpError(expr.location, "negative array length");
      auto arr = std::make_shared<ArrayVal>();
      arr->element_type = alloc.element_type;
      arr->elems.assign(static_cast<std::size_t>(n),
                        default_value(alloc.element_type));
      count(4.0 * kMemOp + 0.25 * static_cast<double>(n));
      return arr;
    }
    case NodeKind::RectdomainLit: {
      const auto& lit = static_cast<const RectdomainLit&>(expr);
      if (lit.dims.size() != 1) {
        throw InterpError(expr.location,
                          "only rank-1 rectdomains are executable");
      }
      RectDomainVal dom;
      dom.lo = as_int(eval(*lit.dims[0].lo, env));
      dom.hi = as_int(eval(*lit.dims[0].hi, env));
      return dom;
    }
    case NodeKind::Conditional: {
      const auto& cond = static_cast<const ConditionalExpr&>(expr);
      count(kBranchOp);
      return as_bool(eval(*cond.cond, env)) ? eval(*cond.then_value, env)
                                            : eval(*cond.else_value, env);
    }
    default:
      throw InterpError(expr.location, "unexpected expression node");
  }
}

Value Interpreter::eval_binary(const BinaryExpr& expr, Env& env) {
  // Short-circuit logical operators.
  if (expr.op == BinaryOp::And) {
    count(kBranchOp);
    if (!as_bool(eval(*expr.lhs, env))) return false;
    return as_bool(eval(*expr.rhs, env));
  }
  if (expr.op == BinaryOp::Or) {
    count(kBranchOp);
    if (as_bool(eval(*expr.lhs, env))) return true;
    return as_bool(eval(*expr.rhs, env));
  }

  Value lhs = eval(*expr.lhs, env);
  Value rhs = eval(*expr.rhs, env);

  // Reference equality.
  if ((expr.op == BinaryOp::Eq || expr.op == BinaryOp::Ne) &&
      (std::holds_alternative<std::shared_ptr<Object>>(lhs) ||
       std::holds_alternative<std::shared_ptr<Object>>(rhs) ||
       is_null(lhs) || is_null(rhs))) {
    count(kIntOp);
    const auto* lo = std::get_if<std::shared_ptr<Object>>(&lhs);
    const auto* ro = std::get_if<std::shared_ptr<Object>>(&rhs);
    bool equal = (lo ? lo->get() : nullptr) == (ro ? ro->get() : nullptr) &&
                 is_null(lhs) == is_null(rhs);
    if (is_null(lhs) && is_null(rhs)) equal = true;
    return expr.op == BinaryOp::Eq ? equal : !equal;
  }

  const bool floating = std::holds_alternative<double>(lhs) ||
                        std::holds_alternative<double>(rhs);
  if (is_comparison(expr.op)) {
    count(kBranchOp + (floating ? kFloatOp - kIntOp : 0.0));
    if (floating) {
      double a = as_double(lhs);
      double b = as_double(rhs);
      switch (expr.op) {
        case BinaryOp::Eq: return a == b;
        case BinaryOp::Ne: return a != b;
        case BinaryOp::Lt: return a < b;
        case BinaryOp::Gt: return a > b;
        case BinaryOp::Le: return a <= b;
        case BinaryOp::Ge: return a >= b;
        default: break;
      }
    } else {
      std::int64_t a = as_int(lhs);
      std::int64_t b = as_int(rhs);
      switch (expr.op) {
        case BinaryOp::Eq: return a == b;
        case BinaryOp::Ne: return a != b;
        case BinaryOp::Lt: return a < b;
        case BinaryOp::Gt: return a > b;
        case BinaryOp::Le: return a <= b;
        case BinaryOp::Ge: return a >= b;
        default: break;
      }
    }
    throw InterpError(expr.location, "bad comparison");
  }

  // Division latency: float division is genuinely slow; integer div/mod by
  // small (runtime-constant) operands is strength-reduced by a compiler.
  const bool division = expr.op == BinaryOp::Div || expr.op == BinaryOp::Mod;
  count(floating ? (division ? 8.0 * kFloatOp : kFloatOp)
                 : (division ? 3.0 * kIntOp : kIntOp));
  if (floating) {
    double a = as_double(lhs);
    double b = as_double(rhs);
    switch (expr.op) {
      case BinaryOp::Add: return a + b;
      case BinaryOp::Sub: return a - b;
      case BinaryOp::Mul: return a * b;
      case BinaryOp::Div: return a / b;
      case BinaryOp::Mod: return std::fmod(a, b);
      default: break;
    }
  } else {
    std::int64_t a = as_int(lhs);
    std::int64_t b = as_int(rhs);
    switch (expr.op) {
      case BinaryOp::Add: return a + b;
      case BinaryOp::Sub: return a - b;
      case BinaryOp::Mul: return a * b;
      case BinaryOp::Div:
        if (b == 0) throw InterpError(expr.location, "division by zero");
        return a / b;
      case BinaryOp::Mod:
        if (b == 0) throw InterpError(expr.location, "modulo by zero");
        return a % b;
      default: break;
    }
  }
  throw InterpError(expr.location, "bad arithmetic");
}

Value Interpreter::eval_intrinsic(const CallExpr& expr,
                                  std::vector<Value> args) {
  const std::string& name = expr.callee;
  auto arg_d = [&](std::size_t i) { return as_double(args[i]); };
  if (name == "sqrt") {
    count(15.0 * kFloatOp);
    return std::sqrt(arg_d(0));
  }
  if (name == "abs") {
    count(2.0 * kFloatOp);
    if (std::holds_alternative<std::int64_t>(args[0]))
      return std::abs(std::get<std::int64_t>(args[0]));
    return std::fabs(arg_d(0));
  }
  if (name == "min" || name == "max") {
    count(2.0 * kFloatOp);
    const bool floating = std::holds_alternative<double>(args[0]) ||
                          std::holds_alternative<double>(args[1]);
    if (floating) {
      return name == "min" ? std::min(arg_d(0), arg_d(1))
                           : std::max(arg_d(0), arg_d(1));
    }
    return name == "min" ? std::min(as_int(args[0]), as_int(args[1]))
                         : std::max(as_int(args[0]), as_int(args[1]));
  }
  if (name == "floor") {
    count(2.0 * kFloatOp);
    return std::floor(arg_d(0));
  }
  if (name == "ceil") {
    count(2.0 * kFloatOp);
    return std::ceil(arg_d(0));
  }
  count(30.0 * kFloatOp);
  if (name == "pow") return std::pow(arg_d(0), arg_d(1));
  if (name == "exp") return std::exp(arg_d(0));
  if (name == "log") return std::log(arg_d(0));
  if (name == "sin") return std::sin(arg_d(0));
  if (name == "cos") return std::cos(arg_d(0));
  if (name == "atan2") return std::atan2(arg_d(0), arg_d(1));
  throw InterpError(expr.location, "unknown intrinsic '" + name + "'");
}

Value Interpreter::eval_call(const CallExpr& expr, Env& env) {
  // Rectdomain accessors.
  if (expr.is_intrinsic && expr.base) {
    Value base = eval(*expr.base, env);
    if (const auto* dom = std::get_if<RectDomainVal>(&base)) {
      if (expr.callee == "size") return dom->size();
      if (expr.callee == "lo") return dom->lo;
      if (expr.callee == "hi") return dom->hi;
    }
    throw InterpError(expr.location, "bad intrinsic receiver");
  }
  std::vector<Value> args;
  args.reserve(expr.args.size());
  for (const ExprPtr& a : expr.args) args.push_back(eval(*a, env));
  if (expr.is_intrinsic) return eval_intrinsic(expr, std::move(args));

  std::shared_ptr<Object> receiver;
  if (expr.base) {
    Value base = eval(*expr.base, env);
    auto* obj = std::get_if<std::shared_ptr<Object>>(&base);
    if (!obj || !*obj)
      throw InterpError(expr.location, "method call on null/non-object");
    receiver = *obj;
  } else {
    receiver = current_this_;
  }
  const std::string& cls_name =
      receiver ? receiver->class_name : expr.resolved_class;
  return call_method(cls_name, expr.callee, receiver, std::move(args));
}

Value Interpreter::call_method(const std::string& class_name,
                               const std::string& method_name,
                               const std::shared_ptr<Object>& receiver,
                               std::vector<Value> args) {
  const ClassInfo& cls = class_info_or_throw(class_name, {});
  const MethodDecl* method = cls.find_method(method_name);
  if (!method || !method->body) {
    throw InterpError({}, "no executable method '" + class_name +
                              "::" + method_name + "'");
  }
  if (method->params.size() != args.size()) {
    throw InterpError(method->location,
                      "arity mismatch calling '" + method_name + "'");
  }
  if (call_depth_ >= kMaxCallDepth)
    throw InterpError(method->location, "call depth limit exceeded");
  count(2.0 * kBranchOp);

  Env callee_env;
  for (std::size_t i = 0; i < args.size(); ++i) {
    callee_env.declare(method->params[i]->name,
                       coerce_store(method->params[i]->type,
                                    std::move(args[i])));
  }
  // Restores the caller's `this` and depth however the body exits: a throw
  // that skipped this would leave a reused interpreter resolving names
  // against a stale receiver, one level deeper per caught error.
  struct CallFrame {
    Interpreter& interp;
    std::shared_ptr<Object> saved_this;
    ~CallFrame() {
      interp.current_this_ = std::move(saved_this);
      --interp.call_depth_;
    }
  } frame{*this, current_this_};
  ++call_depth_;
  current_this_ = receiver;
  return_value_ = Value{};
  for (const StmtPtr& s : method->body->statements) {
    if (exec_flow(*s, callee_env) == Flow::Return) break;
  }
  return return_value_;
}

std::shared_ptr<Object> Interpreter::construct(const std::string& class_name,
                                               std::vector<Value> args) {
  const ClassInfo& cls = class_info_or_throw(class_name, {});
  auto obj = std::make_shared<Object>();
  obj->class_name = class_name;
  obj->fields.reserve(cls.fields.size());
  for (const FieldInfo& field : cls.fields) {
    obj->fields.push_back(default_value(field.type));
  }
  const MethodDecl* ctor = cls.constructor();
  if (ctor && ctor->body) {
    call_method(class_name, ctor->name, obj, std::move(args));
  } else if (!args.empty()) {
    throw InterpError({}, "class '" + class_name + "' has no constructor");
  }
  return obj;
}

Env Interpreter::run(const std::string& class_name,
                     const std::string& method_name) {
  const ClassInfo& cls = class_info_or_throw(class_name, {});
  const MethodDecl* method = cls.find_method(method_name);
  if (!method || !method->body) {
    throw InterpError({}, "no executable method '" + class_name +
                              "::" + method_name + "'");
  }
  Env env;
  for (const StmtPtr& s : method->body->statements) {
    if (exec_flow(*s, env) == Flow::Return) break;
  }
  return env;
}

}  // namespace cgp
