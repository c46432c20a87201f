#include "analysis/stage_class.h"

#include <map>

#include "ast/walk.h"

namespace cgp {
namespace {

/// Mutation facts gathered from one filter's statements.
struct WriteFacts {
  std::set<std::string> written;  // root bases of stores / inc-dec / calls
  bool unknown_call = false;      // unqualified non-intrinsic call seen
};

/// Per-loop-body declaration facts shared by all filters.
struct DeclFacts {
  std::set<std::string> declared;              // every loop-body VarDecl name
  std::map<std::string, std::string> aliases;  // ref decl -> init root base
};

void collect_decls(const Stmt& stmt, DeclFacts& facts) {
  auto on_stmt = [&facts](const Stmt& s) {
    if (s.kind == NodeKind::ForeachStmt)
      facts.declared.insert(static_cast<const ForeachStmt&>(s).var);
    if (s.kind != NodeKind::VarDeclStmt) return;
    const auto& decl = static_cast<const VarDeclStmt&>(s);
    facts.declared.insert(decl.name);
    // `Tri t = tris[j]` binds t as an alias of tris' storage: writes
    // through t must be attributed to tris, not to the local name.
    if (decl.init && decl.declared_type && decl.declared_type->is_reference() &&
        decl.init->kind != NodeKind::NewObject &&
        decl.init->kind != NodeKind::NewArray) {
      std::string root = root_base(*decl.init);
      if (!root.empty() && root != decl.name)
        facts.aliases.emplace(decl.name, root);
    }
  };
  walk(stmt, on_stmt, [](const Expr&) {});
}

void collect_writes(const Stmt& stmt, WriteFacts& facts) {
  auto note = [&facts](const Expr& target) {
    std::string root = root_base(target);
    if (!root.empty()) facts.written.insert(root);
  };
  walk(stmt, [&](const Expr& e) {
    if (const Expr* target = store_target(e)) note(*target);
    if (e.kind == NodeKind::Call) {
      const auto& call = static_cast<const CallExpr&>(e);
      if (call.base) {
        // A method may mutate its receiver; assume it does.
        note(*call.base);
      } else if (!call.is_intrinsic) {
        // An unqualified call can reach enclosing-class fields that this
        // walk cannot see; give up on replicating the filter.
        facts.unknown_call = true;
      }
      // Reference-typed actuals may be mutated by the callee.
      for (const ExprPtr& arg : call.args)
        if (!call.is_intrinsic && arg->type && arg->type->is_reference())
          note(*arg);
    } else if (e.kind == NodeKind::NewObject) {
      for (const ExprPtr& arg : static_cast<const NewObjectExpr&>(e).args)
        if (arg->type && arg->type->is_reference()) note(*arg);
    }
  });
}

std::string join_names(const std::set<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

}  // namespace

const char* stage_class_name(StageClass cls) {
  return cls == StageClass::kParallel ? "parallel" : "sequential";
}

std::vector<char> PipelineClassification::parallel_flags() const {
  std::vector<char> flags;
  flags.reserve(filters.size());
  for (const FilterClassification& f : filters)
    flags.push_back(f.parallel() ? 1 : 0);
  return flags;
}

std::string PipelineClassification::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < filters.size(); ++i) {
    out += 'f';
    out += std::to_string(i + 1);
    out += ": " + filters[i].reason + "\n";
  }
  return out;
}

PipelineClassification classify_filters(const PipelineModel& model) {
  // Declarations anywhere in the loop body are per-packet: every packet
  // re-materializes them, so copies never share an instance — even when the
  // declaring filter is upstream of the writing one (the value travels with
  // the packet via ReqComm).
  DeclFacts decls;
  for (const AtomicFilter& filter : model.filters)
    for (const Stmt* stmt : filter.stmts) collect_decls(*stmt, decls);

  std::set<std::string> reductions;
  for (const auto& [name, decl] : model.reduction_decls)
    reductions.insert(name);

  PipelineClassification result;
  result.filters.reserve(model.filters.size());
  for (const AtomicFilter& filter : model.filters) {
    WriteFacts writes;
    for (const Stmt* stmt : filter.stmts) collect_writes(*stmt, writes);

    FilterClassification verdict;
    if (writes.unknown_call) {
      verdict.cls = StageClass::kSequential;
      verdict.reason = "sequential (call with unbounded effects)";
      result.filters.push_back(std::move(verdict));
      continue;
    }
    for (const std::string& raw : writes.written) {
      // Chase alias bindings (`Tri t = tris[j]`) to the underlying storage;
      // the chain is acyclic because an alias init precedes the decl.
      std::string name = raw;
      for (int hops = 0; hops < 16; ++hops) {
        auto it = decls.aliases.find(name);
        if (it == decls.aliases.end()) break;
        name = it->second;
      }
      if (reductions.count(name)) {
        verdict.reduction_writes.insert(name);
        continue;
      }
      if (decls.declared.count(name) || name == model.loop_var) continue;
      verdict.carried_writes.insert(name);
    }
    if (verdict.carried_writes.empty()) {
      verdict.cls = StageClass::kParallel;
      verdict.reason = verdict.reduction_writes.empty()
                           ? "parallel (stateless)"
                           : "parallel (reductions: " +
                                 join_names(verdict.reduction_writes) + ")";
    } else {
      verdict.cls = StageClass::kSequential;
      verdict.reason =
          "sequential (carries: " + join_names(verdict.carried_writes) + ")";
    }
    result.filters.push_back(std::move(verdict));
  }
  return result;
}

}  // namespace cgp
