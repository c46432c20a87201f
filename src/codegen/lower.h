// Lowered filter bodies: a slot-resolved executor for compiled stages.
//
// The tree-walking Interpreter (interp.h) looks every variable up by name
// in a stack of std::map scopes, copies every Value it reads, and finds
// classes, fields and intrinsics by string on every evaluation. Compiled
// stages run the same statements millions of times, so the pipeline lowers
// them once, when it is built, into a resolved tree:
//   * every local, parameter and loop variable is a frame-slot index, and
//     every top-level stage variable a slot of the StageFrame;
//   * every bare field name inside a method is a `this`-field index, every
//     FieldAccess a field index, every runtime_define_* a constant;
//   * every intrinsic is an enum and every call a pre-resolved method with
//     its frame size;
//   * every node carries its precomputed op weight.
// Reads return references into frames, objects and arrays instead of Value
// copies. The executor keeps the tree-walker's semantics exactly — results,
// error messages and locations, and the op counter: one count() per
// evaluation step with the same amount and in the same order, never folded
// across nodes — so finals and per-stage op counts (and through them every
// simulated figure) are bit-identical to the tree-walker, which stays the
// sequential oracle.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/pipeline_model.h"
#include "codegen/interp.h"

namespace cgp {

struct StagePlan;

/// A name the lowering could not resolve (or a call with no executable
/// target). Lowering never falls back to the tree-walker.
class LowerError : public std::runtime_error {
 public:
  LowerError(SourceLocation loc, const std::string& message)
      : std::runtime_error(to_string(loc) + ": lowering: " + message),
        location(loc) {}
  SourceLocation location;
};

namespace lowered {

/// How a store coerces into a slot of declared type (interp.cpp's
/// coerce_store, resolved from the type once).
enum class Store : std::uint8_t { Keep, Integral, Float, Double };

enum class Intrinsic : std::uint8_t {
  Sqrt, Abs, Min, Max, Floor, Ceil, Pow, Exp, Log, Sin, Cos, Atan2, Unknown
};

enum class ExprOp : std::uint8_t {
  Const,          // literal or bound runtime constant
  Unbound,        // unbound runtime constant: throws when evaluated
  This,
  Local,          // frame slot
  StageVar,       // StageFrame slot (bound-checked; `fallback` if unbound)
  ThisField,      // field of the method's receiver
  FieldAccess,
  Index,
  Neg,
  Not,
  IncDec,
  And,
  Or,
  Binary,
  Assign,
  RectAccessor,   // rectdomain .size() / .lo() / .hi()
  CallIntrinsic,
  Call,
  NewObject,
  NewArray,
  RectdomainLit,
  Conditional,
};

struct Method;
struct ClassCode;

struct Expr {
  ExprOp op = ExprOp::Const;
  SourceLocation loc;
  std::uint8_t sub = 0;  // BinaryOp / UnaryOp / AssignOp / Intrinsic / accessor
  Store store = Store::Keep;
  bool typed = false;       // Assign: the target carries a sema type
  bool keep_alive = false;  // Index: evaluating the index may drop the array
  int slot = -1;            // Local/StageVar slot, field index
  double weight = 0.0;      // op weight charged by this node
  double weight2 = 0.0;     // Binary: the weight when an operand is floating
  const Expr* a = nullptr;  // base / operand / lhs / cond / assigned value
  const Expr* b = nullptr;  // index / rhs / then / assignment target
  const Expr* c = nullptr;  // else / StageVar fallback
  std::vector<const Expr*> args;
  Value constant;                   // Const
  const ClassCode* cls = nullptr;   // class a field index was resolved in
  const Method* method = nullptr;   // Call target
  TypePtr element_type;             // NewArray
  std::string name;                 // names for error messages and dispatch
};

enum class StmtOp : std::uint8_t {
  LocalDecl,  // declaration into a frame slot
  StageDecl,  // declaration into the StageFrame's current scope
  ExprStmt,
  Block,
  If,
  While,
  For,
  ForeachRange,  // foreach over a rectdomain or array
  PipelinedLoop,
  Return,
  Break,
  Continue,
};

struct Stmt {
  StmtOp op = StmtOp::ExprStmt;
  SourceLocation loc;
  Store store = Store::Keep;
  int slot = -1;               // declared / loop variable slot
  double weight = 0.0;         // op weight charged by this node
  const Expr* expr = nullptr;  // init / expression / cond / domain / value
  const Expr* step = nullptr;  // for step
  const Stmt* init = nullptr;  // for init
  const Stmt* body = nullptr;  // loop body / then branch
  const Stmt* else_body = nullptr;
  std::vector<const Stmt*> stmts;  // block
  Value default_value;             // declaration without initializer
  /// ForeachRange: a pre-loop loop whose iterations the independence rule
  /// (analysis/loop_independence.h) lets run on several threads.
  bool parallel = false;
};

struct Method {
  const ClassCode* cls = nullptr;
  const MethodDecl* decl = nullptr;
  std::vector<Store> params;  // slot i holds parameter i
  int frame_size = 0;
  std::vector<const Stmt*> body;
};

/// Per-class data the executor needs without a registry lookup.
struct ClassCode {
  const ClassInfo* info = nullptr;
  std::vector<Value> field_defaults;
  const Method* constructor = nullptr;  // null when none is executable
};

/// Name -> slot table of a StageFrame: every top-level stage variable gets
/// one slot; slots past `named` hold nested locals.
struct FrameLayout {
  std::map<std::string, int> slots;
  std::vector<std::string> names;  // by slot, for the named ones
  int size = 0;

  int find(const std::string& name) const {
    auto it = slots.find(name);
    return it == slots.end() ? -1 : it->second;
  }
  int add(const std::string& name) {
    auto [it, inserted] = slots.emplace(name, size);
    if (inserted) {
      names.push_back(name);
      ++size;
    }
    return it->second;
  }
  int named() const { return static_cast<int>(names.size()); }
};

/// Owns lowered nodes and the method table; immutable once built, so every
/// copy of every stage shares one.
class Program {
 public:
  Program(const ClassRegistry& registry,
          std::map<std::string, std::int64_t> runtime_constants);
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  const ClassRegistry& registry() const { return *registry_; }
  const Method* find_method(const std::string& cls,
                            const std::string& method) const;

 private:
  friend class Lowerer;

  const ClassRegistry* registry_;
  std::map<std::string, std::int64_t> constants_;
  std::deque<Expr> exprs_;
  std::deque<Stmt> stmts_;
  std::map<std::string, ClassCode> classes_;
  std::map<std::pair<std::string, std::string>, Method> methods_;
};

/// The lowered lists one compiled stage runs, parallel to its StagePlan.
struct StageCode {
  std::vector<const Stmt*> before;    // source stage: pre-loop setup
  const Expr* domain = nullptr;       // source stage: the packet domain
  std::vector<const Stmt*> preamble;  // parallel to StagePlan::preamble
  /// Replica accumulator declarations, in `before` order.
  std::vector<std::pair<std::string, const Stmt*>> replicas;
  std::vector<const Stmt*> stmts;     // parallel to StagePlan::stmts
  struct Materialize {
    int slot = -1;
    const Stmt* decl = nullptr;
    const Expr* length = nullptr;  // NewArray initializers only
    TypePtr element_type;
  };
  std::vector<Materialize> materialize;  // parallel to StagePlan::materialize
  std::vector<const Stmt*> after;        // sink stage: post-loop code
  int loop_var = -1;
};

/// A whole compiled pipeline, lowered once when it is run.
struct LoweredPipeline {
  std::unique_ptr<Program> program;
  FrameLayout frame;  // shared by every stage's StageFrame
  std::vector<StageCode> stages;
};

/// A lowered method body run as a whole program (Interpreter::run).
struct LoweredMain {
  std::unique_ptr<Program> program;
  FrameLayout frame;
  std::vector<const Stmt*> body;
};

}  // namespace lowered

/// Lowers the lists every stage of `plans` runs, plus every method they
/// reach. Throws LowerError on a name it cannot resolve.
std::shared_ptr<const lowered::LoweredPipeline> lower_pipeline(
    const PipelineModel& model, const std::vector<StagePlan>& plans,
    const std::map<std::string, std::int64_t>& runtime_constants);

/// Lowers the body of `class_name::method` for whole-program execution
/// (the differential tests' counterpart of Interpreter::run).
std::shared_ptr<const lowered::LoweredMain> lower_main(
    const ClassRegistry& registry, const std::string& class_name,
    const std::string& method,
    const std::map<std::string, std::int64_t>& runtime_constants = {});

/// Top-level variables of a lowered stage: one slot per name of the shared
/// FrameLayout, plus nested-local slots. Models the tree-walker's two
/// stage scopes exactly: the base scope (setup, replicas, carried values)
/// and one pushed packet scope, whose declarations shadow base bindings
/// until pop() restores them. The name-keyed Bindings view is what the
/// codec, section resolvers, snapshots and sink finals use.
class StageFrame final : public Bindings {
 public:
  explicit StageFrame(const lowered::FrameLayout& layout);

  bool has(const std::string& name) const override;
  Value& slot(const std::string& name) override;
  void declare(const std::string& name, Value value) override;
  /// Binds `name` in the base scope, under any packet-scope binding.
  void declare_global(const std::string& name, Value value);
  /// Innermost bindings by name (Env::flatten).
  std::map<std::string, Value> flatten() const;

  void push();
  void pop();

  bool bound(int s) const {
    return scope_of_[static_cast<std::size_t>(s)] != 0;
  }
  void declare_slot(int s, Value value);
  Value* values() { return values_.data(); }

 private:
  int slot_or_throw(const std::string& name) const;

  const lowered::FrameLayout* layout_;
  std::vector<Value> values_;
  /// Per named slot: 0 unbound, 1 base scope, 2 packet scope.
  std::vector<std::uint8_t> scope_of_;
  bool pushed_ = false;
  std::vector<int> packet_bound_;
  /// Base bindings hidden by packet-scope ones, restored by pop().
  std::vector<std::pair<int, Value>> shadowed_;
};

/// Runs lowered code. One per stage copy (it owns the op counter and the
/// call frames); the Program it runs is shared read-only.
///
/// A `parallel` range loop of stage code with at least 2 * kMinChunk
/// iterations runs in contiguous chunks on min(hardware threads,
/// n / kMinChunk) threads: the calling thread runs chunk 0, the process's
/// chunk pool (support/chunk_pool.h) the rest. Each chunk has its own
/// Executor and a copy of the StageFrame (arrays and objects are shared by
/// pointer). When every chunk has returned, their op counts are added in
/// chunk order, so ops() equals the sequential count exactly (every weight
/// is a multiple of 1/4); the loop variable ends at the domain's upper
/// bound; and if chunks threw, the lowest chunk's error is rethrown, which
/// is the error the sequential loop would have hit first.
class Executor {
 public:
  static constexpr std::int64_t kMinChunk = 4096;

  explicit Executor(const lowered::Program& program);

  /// Top-level statements: a `return` ends only its own statement, as in
  /// Interpreter::exec_stmts.
  void exec_stmts(const std::vector<const lowered::Stmt*>& stmts,
                  StageFrame& frame);
  void exec_stmt(const lowered::Stmt& stmt, StageFrame& frame);
  Value eval(const lowered::Expr& expr, StageFrame& frame);

  /// Calls Class::method on `receiver` by name (replica merges).
  Value call_method(const std::string& class_name, const std::string& method,
                    const std::shared_ptr<Object>& receiver,
                    std::vector<Value> args);

  /// Interpreter::run: the body runs until a top-level return.
  void run(const lowered::LoweredMain& main, StageFrame& frame);

  double ops() const { return ops_; }
  void reset_ops() { ops_ = 0.0; }
  void add_external_ops(double n) { ops_ += n; }

 private:
  enum class Flow { Normal, Break, Continue, Return };
  /// What an operator reads of a Value: its alternative and payload.
  struct Scalar;

  Flow exec(const lowered::Stmt& stmt);
  /// Iterations lo..hi of a ForeachRange, on this executor.
  Flow run_range(const lowered::Stmt& loop, std::int64_t lo, std::int64_t hi);
  /// Iterations lo..hi of a parallel ForeachRange, in `chunks` chunks.
  void run_chunks(const lowered::Stmt& loop, std::int64_t lo, std::int64_t hi,
                  int chunks);
  const Value& eval(const lowered::Expr& expr, Value& tmp);
  /// Evaluates an operand to the part operators read, without building a
  /// Value for arithmetic intermediates.
  Scalar scalar(const lowered::Expr& expr);
  Scalar eval_binary(const lowered::Expr& expr);
  const Value& eval_intrinsic(const lowered::Expr& expr, Value& tmp);
  const Value& eval_call(const lowered::Expr& expr, Value& tmp);
  void enter(StageFrame& frame);
  Value* resolve(const lowered::Expr& target, Value& hold);
  int field_index(const Object& obj, const lowered::Expr& expr) const;
  const lowered::Method& dispatch(const Object* receiver,
                                  const lowered::Expr& call) const;
  Value invoke(const lowered::Method& method, std::shared_ptr<Object> receiver,
               std::size_t args_base);
  std::shared_ptr<Object> construct(const lowered::ClassCode& cls,
                                    std::size_t args_base);
  [[noreturn]] void throw_undeclared(const lowered::Expr& expr) const;

  void count(double n) { ops_ += n; }

  const lowered::Program& program_;
  double ops_ = 0.0;
  Value return_value_;
  // The active frame: slot array, the StageFrame when running stage code
  // (null inside methods), and the receiver.
  Value* slots_ = nullptr;
  StageFrame* stage_ = nullptr;
  Object* self_ = nullptr;
  int depth_ = 0;
  /// Method frames by call depth; each inner vector keeps its buffer when
  /// the outer one grows, so slot pointers into it stay valid.
  std::vector<std::vector<Value>> frames_;
  std::vector<std::shared_ptr<Object>> receivers_;  // by call depth
  std::vector<Value> args_;  // evaluated call arguments, as a stack
};

}  // namespace cgp
