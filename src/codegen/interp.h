// Tree-walking interpreter for the cgpipe dialect.
//
// Used two ways:
//   1. reference execution of whole programs (the sequential oracle in
//      tests, benches and profile-guided decomposition);
//   2. measured operation counting — every evaluation step increments a
//      weighted op counter with the same weights as the static model, so
//      the pipeline simulator can time real executions.
// Compiled filter bodies (§5) run on the lowered slot executor in lower.h,
// which must match this interpreter's results and op counts exactly.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ast/ast.h"
#include "codegen/value.h"
#include "sema/registry.h"

namespace cgp {

/// Thrown on dialect-level runtime errors (null deref, bad index, ...).
class InterpError : public std::runtime_error {
 public:
  InterpError(SourceLocation loc, const std::string& message)
      : std::runtime_error(to_string(loc) + ": " + message), location(loc) {}
  SourceLocation location;
};

/// Name-keyed view of variable bindings: what the packet codec and the
/// section-bound resolvers read and write. Env implements it over its scope
/// maps; the lowered executor's StageFrame (codegen/lower.h) over slots
/// resolved when the pipeline plan is built.
class Bindings {
 public:
  virtual ~Bindings() = default;
  virtual bool has(const std::string& name) const = 0;
  /// The innermost binding; throws if absent.
  virtual Value& slot(const std::string& name) = 0;
  /// Binds `name` in the innermost scope.
  virtual void declare(const std::string& name, Value value) = 0;
  const Value& get(const std::string& name) const {
    return const_cast<Bindings*>(this)->slot(name);
  }
};

/// Lexical environment: a stack of scopes over named slots.
class Env final : public Bindings {
 public:
  Env() { push(); }

  void push() { scopes_.emplace_back(); }
  void pop() { scopes_.pop_back(); }

  void declare(const std::string& name, Value value) override;
  /// Assignment to an existing binding (innermost wins); throws if absent.
  void assign(const std::string& name, Value value);
  bool has(const std::string& name) const override;
  Value& slot(const std::string& name) override;
  const Value& get(const std::string& name) const;

  /// Flat snapshot of the innermost bindings (outer scopes shadowed).
  std::map<std::string, Value> flatten() const;

 private:
  std::vector<std::map<std::string, Value>> scopes_;
};

class Interpreter {
 public:
  Interpreter(const ClassRegistry& registry,
              std::map<std::string, std::int64_t> runtime_constants = {});

  void set_runtime_constant(const std::string& name, std::int64_t value) {
    runtime_constants_[name] = value;
  }

  // ---- execution ---------------------------------------------------------
  void exec_stmts(const std::vector<const Stmt*>& stmts, Env& env);
  void exec_stmt(const Stmt& stmt, Env& env);
  Value eval(const Expr& expr, Env& env);

  /// Calls Class::method with positional args; returns the return value.
  Value call_method(const std::string& class_name, const std::string& method,
                    const std::shared_ptr<Object>& receiver,
                    std::vector<Value> args);

  /// Allocates an object and runs its constructor.
  std::shared_ptr<Object> construct(const std::string& class_name,
                                    std::vector<Value> args);

  /// Runs a whole program: executes the body of `Class::method` (typically
  /// main) with a fresh environment; returns the final environment.
  Env run(const std::string& class_name, const std::string& method);

  // ---- instrumentation ---------------------------------------------------
  double ops() const { return ops_; }
  void reset_ops() { ops_ = 0.0; }
  /// Charges externally-incurred work (e.g. buffer packing) to this
  /// instance's op counter.
  void add_external_ops(double n) { ops_ += n; }

  /// Hook intercepting PipelinedLoop execution; when unset the loop runs
  /// sequentially (the reference semantics). Receives the loop and the
  /// current env; return true if handled.
  using PipelinedHook =
      std::function<bool(const PipelinedLoopStmt&, Env&)>;
  void set_pipelined_hook(PipelinedHook hook) { hook_ = std::move(hook); }

  const ClassRegistry& registry() const { return registry_; }

  /// Default value for a declared type (0 / false / null).
  static Value default_value(const TypePtr& type);

 private:
  enum class Flow { Normal, Break, Continue, Return };

  Flow exec_flow(const Stmt& stmt, Env& env);
  Value eval_binary(const BinaryExpr& expr, Env& env);
  Value eval_call(const CallExpr& expr, Env& env);
  Value eval_intrinsic(const CallExpr& expr, std::vector<Value> args);
  Value* resolve_slot(const Expr& target, Env& env);
  RectDomainVal eval_domain(const Expr& expr, Env& env);
  const ClassInfo& class_info_or_throw(const std::string& name,
                                       SourceLocation loc) const;
  int field_index_or_throw(const ClassInfo& cls, const std::string& field,
                           SourceLocation loc) const;

  void count(double n) { ops_ += n; }

  const ClassRegistry& registry_;
  std::map<std::string, std::int64_t> runtime_constants_;
  double ops_ = 0.0;
  PipelinedHook hook_;
  Value return_value_;
  std::shared_ptr<Object> current_this_;
  int call_depth_ = 0;
};

}  // namespace cgp
