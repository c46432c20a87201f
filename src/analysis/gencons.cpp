#include "analysis/gencons.h"

#include <algorithm>
#include <cassert>

#include "ast/walk.h"
#include "support/str.h"

namespace cgp {

namespace {

/// Maximum interprocedural analysis depth; beyond it we fall back to the
/// conservative summary (everything reachable consumed, nothing generated).
constexpr std::size_t kMaxCallDepth = 16;

/// Symbols excluded from Cons when they appear in polynomials: internal
/// loop symbols, runtime-bound configuration, and collection-length
/// metadata (carried implicitly with the collection itself).
bool excluded_symbol(const std::string& s) {
  return !s.empty() && (s[0] == '%' || starts_with(s, "runtime_define_") ||
                        starts_with(s, "len("));
}

/// p restricted to monomials containing `sym`, with one occurrence of sym
/// factored out; nullopt when sym appears with degree > 1.
std::optional<SymPoly> coefficient_of(const SymPoly& p, const std::string& sym) {
  SymPoly coeff;
  for (const auto& [mono, c] : p.terms()) {
    int count = static_cast<int>(
        std::count(mono.symbols.begin(), mono.symbols.end(), sym));
    if (count == 0) continue;
    if (count > 1) return std::nullopt;
    SymPoly term(c);
    for (const std::string& s : mono.symbols) {
      if (s == sym) continue;
      term *= SymPoly::symbol(s);
    }
    coeff += term;
  }
  return coeff;
}

/// Sign of a polynomial under the domain assumption "all symbols >= 0":
/// +1 nonnegative, -1 nonpositive, 0 unknown/mixed.
int domain_sign(const SymPoly& p) {
  bool any_pos = false;
  bool any_neg = false;
  for (const auto& [mono, c] : p.terms()) {
    (c > 0 ? any_pos : any_neg) = true;
  }
  if (!any_neg) return +1;
  if (!any_pos) return -1;
  return 0;
}

/// Substitutes sym with the extremizing endpoint of [lo, hi]: the minimum of
/// p over sym when want_min, else the maximum. Requires p affine in sym with
/// sign-determinable coefficient; nullopt otherwise.
std::optional<SymPoly> monotone_substitute(const SymPoly& p,
                                           const std::string& sym,
                                           const SymPoly& lo, const SymPoly& hi,
                                           bool want_min) {
  std::optional<SymPoly> coeff = coefficient_of(p, sym);
  if (!coeff) return std::nullopt;
  if (coeff->is_zero()) return p;
  int sign = domain_sign(*coeff);
  if (sign == 0) return std::nullopt;
  bool take_lo = (sign > 0) == want_min;
  return p.substitute(sym, take_lo ? lo : hi);
}

bool section_mentions(const RectSection& section,
                      const std::set<std::string>& symbols) {
  for (const Interval& iv : section.dims()) {
    for (const std::string& s : iv.lo.symbols())
      if (symbols.count(s)) return true;
    for (const std::string& s : iv.hi.symbols())
      if (symbols.count(s)) return true;
  }
  return false;
}

bool section_mentions(const RectSection& section, const std::string& symbol) {
  std::set<std::string> one{symbol};
  return section_mentions(section, one);
}

}  // namespace

std::string GenConsAnalyzer::fresh_name(const std::string& base) const {
  return "%" + base + "#" + std::to_string(fresh_counter_++);
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

SegmentSets GenConsAnalyzer::analyze_segment(
    const std::vector<const Stmt*>& stmts, const ClassInfo* enclosing_class) {
  Context ctx;
  ctx.current_class = enclosing_class;
  ctx.rename_decls = false;
  SegmentSets sets;
  analyze_stmts_reverse(stmts, ctx, sets);
  // Top-level copy-propagated scalars become the segment's scalar_defs,
  // consumed by the ReqComm propagation.
  sets.scalar_defs = ctx.scalar_renames;
  return sets;
}

void substitute_symbol(ValueSet& set, const std::string& symbol,
                       const SymPoly& value) {
  ValueSet out;
  for (const auto& [id, entry] : set.items()) {
    if (!entry.section) {
      out.add(id, entry);
      continue;
    }
    bool touched = false;
    std::vector<Interval> dims;
    for (const Interval& iv : entry.section->dims()) {
      Interval updated = iv;
      for (SymPoly* poly : {&updated.lo, &updated.hi}) {
        for (const std::string& sym : poly->symbols()) {
          if (sym == symbol) {
            *poly = poly->substitute(symbol, value);
            touched = true;
            break;
          }
        }
      }
      dims.push_back(std::move(updated));
    }
    if (touched) {
      out.add(id, ValueEntry{entry.type, RectSection(std::move(dims))});
    } else {
      out.add(id, entry);
    }
  }
  set = std::move(out);
}

// ---------------------------------------------------------------------------
// Statement traversal
// ---------------------------------------------------------------------------

void GenConsAnalyzer::prescan_decls(const std::vector<const Stmt*>& stmts,
                                    Context& ctx) {
  // Names assigned anywhere in this list invalidate copy-propagation of
  // polynomials that mention them.
  std::set<std::string> assigned;
  for (const Stmt* s : stmts) collect_assigned_vars(*s, assigned);

  for (const Stmt* s : stmts) {
    if (s->kind != NodeKind::VarDeclStmt) continue;
    const auto& decl = static_cast<const VarDeclStmt&>(*s);
    // Reference-typed locals initialized from a resolvable location become
    // aliases: `Tri t = tris[j]` makes `t.x` mean `tris[j].x`.
    if (decl.declared_type &&
        (decl.declared_type->is_class() || decl.declared_type->is_array()) &&
        decl.init && !assigned.count(decl.name)) {
      LocRef target = resolve_loc(*decl.init, ctx);
      if (target.valid && target.precise) {
        ctx.renames[decl.name] = target;
        ctx.alias_decls.insert(decl.name);
        continue;
      }
    }
    std::string canonical = decl.name;
    if (ctx.rename_decls) {
      canonical = fresh_name(decl.name);
      LocRef renamed;
      renamed.valid = true;
      renamed.id = ValueId{canonical, {}};
      renamed.type = decl.declared_type;
      ctx.renames[decl.name] = renamed;
    }
    ctx.locals.insert(canonical);

    if (!decl.init) continue;
    // Copy-propagate integral decls whose value is an affine function of
    // stable symbols: this is how `int base = p * sz; arr[base + i]`
    // becomes the packet-relative section the paper relies on.
    if (decl.declared_type && decl.declared_type->is_integral() &&
        !assigned.count(decl.name)) {
      std::optional<SymPoly> poly = to_poly(*decl.init, ctx);
      if (poly) {
        bool stable = true;
        for (const std::string& sym : poly->symbols()) {
          if (assigned.count(sym)) {
            stable = false;
            break;
          }
        }
        if (stable) ctx.scalar_renames[decl.name] = *poly;
      }
    }
    if (decl.declared_type && decl.declared_type->is_rectdomain() &&
        decl.declared_type->rank() == 1 && !assigned.count(decl.name)) {
      std::optional<Interval> iv = domain_interval(*decl.init, ctx);
      if (iv) ctx.domain_bindings[decl.name] = RectSection({*iv});
    }
  }
}

void GenConsAnalyzer::analyze_stmts_reverse(
    const std::vector<const Stmt*>& stmts, Context& ctx, SegmentSets& sets) {
  prescan_decls(stmts, ctx);
  for (auto it = stmts.rbegin(); it != stmts.rend(); ++it) {
    analyze_stmt_reverse(**it, ctx, sets);
  }
}

void GenConsAnalyzer::analyze_stmt_reverse(const Stmt& stmt, Context& ctx,
                                           SegmentSets& sets) {
  switch (stmt.kind) {
    case NodeKind::VarDeclStmt: {
      const auto& decl = static_cast<const VarDeclStmt&>(stmt);
      if (ctx.alias_decls.count(decl.name)) {
        // Alias binding: the declaration itself neither defines nor
        // consumes data (index expressions are loop-internal).
        break;
      }
      LocRef loc;
      auto renamed = ctx.renames.find(decl.name);
      if (renamed != ctx.renames.end()) {
        loc = renamed->second;
      } else {
        loc.valid = true;
        loc.id = ValueId{decl.name, {}};
        loc.type = decl.declared_type;
        loc.reduction_root = reduction_globals_.count(decl.name) > 0;
      }
      record_def(loc, sets);
      if (decl.init) {
        if (decl.init->kind == NodeKind::NewObject) {
          record_ctor_effects(static_cast<const NewObjectExpr&>(*decl.init),
                              loc, ctx, sets);
        } else if (decl.init->kind == NodeKind::NewArray) {
          record_uses(*static_cast<const NewArrayExpr&>(*decl.init).length,
                      ctx, sets);
        } else {
          record_uses(*decl.init, ctx, sets);
        }
      }
      break;
    }
    case NodeKind::ExprStmt: {
      const Expr& e = *static_cast<const ExprStmt&>(stmt).expr;
      record_uses(e, ctx, sets);
      break;
    }
    case NodeKind::Block: {
      const auto& block = static_cast<const BlockStmt&>(stmt);
      Context child = ctx;
      child.rename_decls = true;
      child.locals.clear();
      std::vector<const Stmt*> inner;
      inner.reserve(block.statements.size());
      for (const StmtPtr& s : block.statements) inner.push_back(s.get());
      SegmentSets sub;
      analyze_stmts_reverse(inner, child, sub);
      strip_locals(sub, child.locals);
      ctx.saw_jump = ctx.saw_jump || child.saw_jump;
      // Unconditional straight-line merge.
      sets.cons.remove_covered_all(sub.gen);
      sets.gen.add_all(sub.gen);
      sets.cons.add_all(sub.cons);
      sets.reductions.insert(sub.reductions.begin(), sub.reductions.end());
      break;
    }
    case NodeKind::IfStmt:
      analyze_conditional(static_cast<const IfStmt&>(stmt), ctx, sets);
      break;
    case NodeKind::WhileStmt: {
      const auto& loop = static_cast<const WhileStmt&>(stmt);
      analyze_loop(*loop.body, "", std::nullopt, std::nullopt, ctx, sets);
      record_uses(*loop.cond, ctx, sets);
      break;
    }
    case NodeKind::ForStmt: {
      const auto& loop = static_cast<const ForStmt&>(stmt);
      // Canonical form: for (int i = e0; i < e1; i++) — anything else
      // degrades to while-style (unknown bounds).
      std::string var;
      std::optional<Interval> bounds;
      bool var_is_local = false;
      bool stride_one = false;
      const Expr* init_value = nullptr;
      if (loop.init) {
        if (loop.init->kind == NodeKind::VarDeclStmt) {
          const auto& d = static_cast<const VarDeclStmt&>(*loop.init);
          var = d.name;
          var_is_local = true;
          init_value = d.init.get();
        } else if (loop.init->kind == NodeKind::ExprStmt) {
          const Expr& e = *static_cast<const ExprStmt&>(*loop.init).expr;
          if (e.kind == NodeKind::Assign) {
            const auto& a = static_cast<const AssignExpr&>(e);
            if (a.op == AssignOp::Assign &&
                a.target->kind == NodeKind::VarRef) {
              var = static_cast<const VarRef&>(*a.target).name;
              init_value = a.value.get();
            }
          }
        }
      }
      if (!var.empty() && init_value && loop.cond &&
          loop.cond->kind == NodeKind::Binary) {
        const auto& cond = static_cast<const BinaryExpr&>(*loop.cond);
        bool lt = cond.op == BinaryOp::Lt;
        bool le = cond.op == BinaryOp::Le;
        if ((lt || le) && cond.lhs->kind == NodeKind::VarRef &&
            static_cast<const VarRef&>(*cond.lhs).name == var) {
          std::optional<SymPoly> lo = to_poly(*init_value, ctx);
          std::optional<SymPoly> hi = to_poly(*cond.rhs, ctx);
          if (lo && hi) {
            bounds = Interval{*lo, lt ? (*hi - SymPoly(1)) : *hi};
          }
        }
      }
      if (loop.step) {
        if (loop.step->kind == NodeKind::Unary) {
          const auto& u = static_cast<const UnaryExpr&>(*loop.step);
          stride_one = (u.op == UnaryOp::PreInc || u.op == UnaryOp::PostInc) &&
                       u.operand->kind == NodeKind::VarRef &&
                       static_cast<const VarRef&>(*u.operand).name == var;
        } else if (loop.step->kind == NodeKind::Assign) {
          const auto& a = static_cast<const AssignExpr&>(*loop.step);
          if (a.op == AssignOp::AddAssign &&
              a.target->kind == NodeKind::VarRef &&
              static_cast<const VarRef&>(*a.target).name == var &&
              a.value->kind == NodeKind::IntLit) {
            stride_one = static_cast<const IntLit&>(*a.value).value == 1;
          }
        }
      }
      // The body must not reassign the induction variable.
      std::set<std::string> body_assigned;
      collect_assigned_vars(*loop.body, body_assigned);
      bool canonical = !var.empty() && bounds && stride_one &&
                       !body_assigned.count(var);

      Context iter_ctx = ctx;
      if (!canonical) {
        // Unknown bounds / stride: the induction variable still shadows any
        // outer binding, and accesses indexed by it are unstable.
        analyze_loop(*loop.body, var, std::nullopt, std::nullopt, ctx, sets);
      } else {
        analyze_loop(*loop.body, var, bounds, std::nullopt, iter_ctx, sets);
        ctx.saw_jump = ctx.saw_jump || iter_ctx.saw_jump;
      }
      // Loop header effects: bound expressions are consumed; the induction
      // variable, if declared outside, is defined by the loop.
      if (loop.cond) {
        if (canonical) {
          // e1's symbols only; `var` itself is internal.
          const auto& cond = static_cast<const BinaryExpr&>(*loop.cond);
          record_uses(*cond.rhs, ctx, sets);
        } else {
          record_uses(*loop.cond, ctx, sets);
        }
      }
      if (init_value) record_uses(*init_value, ctx, sets);
      if (!var.empty() && !var_is_local) {
        LocRef loc;
        loc.valid = true;
        loc.id = ValueId{var, {}};
        loc.type = Type::primitive(PrimKind::Int);
        record_def(loc, sets);
      }
      break;
    }
    case NodeKind::ForeachStmt: {
      const auto& loop = static_cast<const ForeachStmt&>(stmt);
      const TypePtr& domain_type = loop.domain->type;
      if (domain_type && domain_type->is_array()) {
        LocRef collection = resolve_loc(*loop.domain, ctx);
        if (collection.valid) {
          analyze_loop(*loop.body, loop.var, std::nullopt, collection, ctx,
                       sets);
          // Iterating a collection consumes its shape.
          LocRef len = collection;
          len.id.steps.push_back("length");
          len.type = Type::primitive(PrimKind::Int);
          len.section.reset();
          record_use_of_loc(len, sets);
        } else {
          // Cannot name the collection: consume the domain expression and
          // analyze the body conservatively (no gen).
          Context child = ctx;
          child.rename_decls = true;
          child.locals.clear();
          SegmentSets sub;
          std::vector<const Stmt*> body{loop.body.get()};
          analyze_stmts_reverse(body, child, sub);
          strip_locals(sub, child.locals);
          for (const auto& [id, entry] : sub.cons.items()) {
            sets.cons.add(id, ValueEntry{entry.type, std::nullopt});
          }
          record_uses(*loop.domain, ctx, sets);
        }
      } else {
        std::optional<Interval> bounds = domain_interval(*loop.domain, ctx);
        analyze_loop(*loop.body, loop.var, bounds, std::nullopt, ctx, sets);
        record_uses(*loop.domain, ctx, sets);
      }
      break;
    }
    case NodeKind::PipelinedLoopStmt:
      diags_.error(stmt.location, "analysis",
                   "nested PipelinedLoop inside a code segment is not "
                   "supported");
      break;
    case NodeKind::ReturnStmt: {
      const auto& ret = static_cast<const ReturnStmt&>(stmt);
      if (ret.value) record_uses(*ret.value, ctx, sets);
      break;
    }
    case NodeKind::BreakStmt:
    case NodeKind::ContinueStmt:
      ctx.saw_jump = true;
      break;
    default:
      diags_.error(stmt.location, "analysis",
                   "unexpected node in statement position");
  }
}

void GenConsAnalyzer::analyze_conditional(const IfStmt& stmt, Context& ctx,
                                          SegmentSets& sets) {
  // §4.2: "the set Gen(s) cannot be added to the set Gen(b), since the
  // statements in the block s are enclosed in a conditional." Cons(s) joins
  // Cons(b); values both defined and used inside s never surface.
  auto analyze_branch = [&](const Stmt& branch) {
    Context child = ctx;
    child.rename_decls = true;
    child.locals.clear();
    child.saw_jump = false;
    SegmentSets sub;
    std::vector<const Stmt*> stmts{&branch};
    analyze_stmts_reverse(stmts, child, sub);
    strip_locals(sub, child.locals);
    ctx.saw_jump = ctx.saw_jump || child.saw_jump;
    return sub;
  };
  SegmentSets then_sets = analyze_branch(*stmt.then_branch);
  sets.cons.add_all(then_sets.cons);
  sets.reductions.insert(then_sets.reductions.begin(), then_sets.reductions.end());
  if (stmt.else_branch) {
    SegmentSets else_sets = analyze_branch(*stmt.else_branch);
    sets.cons.add_all(else_sets.cons);
    sets.reductions.insert(else_sets.reductions.begin(),
                            else_sets.reductions.end());
  }
  record_uses(*stmt.cond, ctx, sets);
}

void GenConsAnalyzer::analyze_loop(const Stmt& body, const std::string& loop_var,
                                   const std::optional<Interval>& bounds,
                                   const std::optional<LocRef>& collection,
                                   Context& ctx, SegmentSets& sets) {
  Context child = ctx;
  child.rename_decls = true;
  child.locals.clear();
  child.saw_jump = false;
  std::string symbol;
  if (!loop_var.empty()) {
    IterBinding binding;
    if (collection) {
      binding.element_of = true;
      binding.collection = *collection;
    } else {
      symbol = fresh_name(loop_var);
      binding.symbol = symbol;
    }
    child.iters[loop_var] = binding;
  }

  SegmentSets sub;
  std::vector<const Stmt*> stmts;
  if (body.kind == NodeKind::Block) {
    for (const StmtPtr& s : static_cast<const BlockStmt&>(body).statements)
      stmts.push_back(s.get());
  } else {
    stmts.push_back(&body);
  }
  analyze_stmts_reverse(stmts, child, sub);
  strip_locals(sub, child.locals);
  ctx.saw_jump = ctx.saw_jump || false;  // loop contains its own jumps

  // Scalars mutated inside the loop have iteration-dependent values; any
  // section mentioning them is unstable.
  std::set<std::string> unstable;
  for (const auto& [id, entry] : sub.gen.items()) {
    if (id.steps.empty() && entry.type && entry.type->is_integral()) {
      unstable.insert(id.base);
    }
  }
  widen_unstable(sub, unstable);

  if (!symbol.empty()) {
    if (bounds) {
      substitute_loop_var(sub, symbol, bounds->lo, bounds->hi);
    } else {
      widen_unstable(sub, {symbol});
    }
  }

  // §4.2 assumes loops run at least one iteration, so Gen(s) is a must-set;
  // a break/continue in the body makes coverage partial, so only Cons
  // survives in that case.
  bool must = !child.saw_jump;
  if (must) {
    sets.cons.remove_covered_all(sub.gen);
    sets.gen.add_all(sub.gen);
  }
  sets.cons.add_all(sub.cons);
  sets.reductions.insert(sub.reductions.begin(), sub.reductions.end());
}

// ---------------------------------------------------------------------------
// Expression effects
// ---------------------------------------------------------------------------

void GenConsAnalyzer::record_def(const LocRef& loc, SegmentSets& sets) {
  if (!loc.valid) return;
  if (loc.reduction_root) {
    sets.reductions.insert(loc.id.base);
    return;
  }
  if (!loc.precise) return;
  ValueEntry entry{loc.type, loc.section};
  sets.cons.remove_covered(loc.id, entry);
  sets.gen.add(loc.id, entry);
}

void GenConsAnalyzer::record_use_of_loc(const LocRef& loc, SegmentSets& sets) {
  if (!loc.valid) return;
  if (loc.reduction_root) {
    sets.reductions.insert(loc.id.base);
    return;
  }
  ValueEntry entry{loc.type, loc.precise ? loc.section : std::nullopt};
  sets.cons.add(loc.id, entry);
}

void GenConsAnalyzer::record_assign(const AssignExpr& assign, Context& ctx,
                                    SegmentSets& sets) {
  LocRef loc = resolve_loc(*assign.target, ctx);
  record_def(loc, sets);
  if (assign.op != AssignOp::Assign) {
    // Compound assignment also reads the previous value.
    record_use_of_loc(loc, sets);
  }
  if (!loc.valid) {
    // Untracked target: the write is dropped from Gen (sound — more data is
    // communicated), but whatever the target expression evaluates is used.
    if (assign.target->kind == NodeKind::FieldAccess) {
      record_uses(*static_cast<const FieldAccess&>(*assign.target).base, ctx,
                  sets);
    } else if (assign.target->kind == NodeKind::Index) {
      const auto& index = static_cast<const IndexExpr&>(*assign.target);
      record_uses(*index.base, ctx, sets);
      for (const ExprPtr& i : index.indices) record_uses(*i, ctx, sets);
    }
  } else if (assign.target->kind == NodeKind::Index) {
    // Index expressions are evaluated even when the write is tracked.
    const auto& index = static_cast<const IndexExpr&>(*assign.target);
    for (const ExprPtr& i : index.indices) record_uses(*i, ctx, sets);
  }
  if (assign.value->kind == NodeKind::NewObject) {
    record_ctor_effects(static_cast<const NewObjectExpr&>(*assign.value),
                        loc.valid ? std::optional<LocRef>(loc) : std::nullopt,
                        ctx, sets);
  } else if (assign.value->kind == NodeKind::NewArray) {
    record_uses(*static_cast<const NewArrayExpr&>(*assign.value).length, ctx,
                sets);
  } else {
    record_uses(*assign.value, ctx, sets);
  }
}

void GenConsAnalyzer::record_uses(const Expr& expr, Context& ctx,
                                  SegmentSets& sets) {
  switch (expr.kind) {
    case NodeKind::IntLit:
    case NodeKind::FloatLit:
    case NodeKind::BoolLit:
    case NodeKind::StringLit:
    case NodeKind::NullLit:
      return;
    case NodeKind::VarRef: {
      const auto& ref = static_cast<const VarRef&>(expr);
      if (ref.is_runtime_define) return;  // configuration, not data
      auto iter = ctx.iters.find(ref.name);
      if (iter != ctx.iters.end()) {
        if (iter->second.element_of) {
          // The whole element is consumed (e.g. stored or passed around).
          LocRef loc = iter->second.collection;
          loc.id.steps.push_back(kElemStep);
          loc.type = loc.type && loc.type->is_array() ? loc.type->element()
                                                      : ref.type;
          record_use_of_loc(loc, sets);
        }
        return;  // index variables are internal
      }
      auto scalar = ctx.scalar_renames.find(ref.name);
      if (scalar != ctx.scalar_renames.end()) {
        for (const std::string& sym : scalar->second.symbols()) {
          if (excluded_symbol(sym)) continue;
          // Dotted symbols are field paths; the root object's own access
          // records cover them.
          if (sym.find('.') != std::string::npos) continue;
          LocRef loc;
          loc.valid = true;
          loc.id = ValueId{sym, {}};
          loc.type = Type::primitive(PrimKind::Int);
          record_use_of_loc(loc, sets);
        }
        return;
      }
      LocRef loc = resolve_loc(expr, ctx);
      record_use_of_loc(loc, sets);
      return;
    }
    case NodeKind::FieldAccess: {
      LocRef loc = resolve_loc(expr, ctx);
      if (loc.valid) {
        record_use_of_loc(loc, sets);
      } else {
        record_uses(*static_cast<const FieldAccess&>(expr).base, ctx, sets);
      }
      return;
    }
    case NodeKind::Index: {
      const auto& index = static_cast<const IndexExpr&>(expr);
      LocRef loc = resolve_loc(expr, ctx);
      if (loc.valid) {
        record_use_of_loc(loc, sets);
      } else {
        record_uses(*index.base, ctx, sets);
      }
      for (const ExprPtr& i : index.indices) record_uses(*i, ctx, sets);
      return;
    }
    case NodeKind::Unary: {
      const auto& unary = static_cast<const UnaryExpr&>(expr);
      if (unary.op == UnaryOp::PreInc || unary.op == UnaryOp::PreDec ||
          unary.op == UnaryOp::PostInc || unary.op == UnaryOp::PostDec) {
        LocRef loc = resolve_loc(*unary.operand, ctx);
        record_def(loc, sets);
        record_use_of_loc(loc, sets);
        return;
      }
      record_uses(*unary.operand, ctx, sets);
      return;
    }
    case NodeKind::Binary: {
      const auto& binary = static_cast<const BinaryExpr&>(expr);
      record_uses(*binary.lhs, ctx, sets);
      record_uses(*binary.rhs, ctx, sets);
      return;
    }
    case NodeKind::Assign:
      record_assign(static_cast<const AssignExpr&>(expr), ctx, sets);
      return;
    case NodeKind::Call:
      record_call_effects(static_cast<const CallExpr&>(expr), ctx, sets);
      return;
    case NodeKind::NewObject:
      record_ctor_effects(static_cast<const NewObjectExpr&>(expr),
                          std::nullopt, ctx, sets);
      return;
    case NodeKind::NewArray:
      record_uses(*static_cast<const NewArrayExpr&>(expr).length, ctx, sets);
      return;
    case NodeKind::RectdomainLit: {
      const auto& lit = static_cast<const RectdomainLit&>(expr);
      for (const auto& dim : lit.dims) {
        record_uses(*dim.lo, ctx, sets);
        record_uses(*dim.hi, ctx, sets);
      }
      return;
    }
    case NodeKind::Conditional: {
      const auto& cond = static_cast<const ConditionalExpr&>(expr);
      record_uses(*cond.cond, ctx, sets);
      record_uses(*cond.then_value, ctx, sets);
      record_uses(*cond.else_value, ctx, sets);
      return;
    }
    default:
      return;
  }
}

void GenConsAnalyzer::record_call_effects(const CallExpr& call, Context& ctx,
                                          SegmentSets& sets) {
  if (call.is_intrinsic) {
    if (call.base) record_uses(*call.base, ctx, sets);
    for (const ExprPtr& arg : call.args) record_uses(*arg, ctx, sets);
    return;
  }

  std::optional<LocRef> receiver;
  if (call.base) {
    LocRef loc = resolve_loc(*call.base, ctx);
    if (loc.valid) {
      receiver = loc;
    } else {
      record_uses(*call.base, ctx, sets);
    }
  } else if (ctx.renames.count("this")) {
    receiver = ctx.renames.at("this");
  }

  std::vector<LocRef> actual_locs;
  std::vector<std::optional<SymPoly>> actual_polys;
  for (const ExprPtr& arg : call.args) {
    actual_locs.push_back(resolve_loc(*arg, ctx));
    actual_polys.push_back(to_poly(*arg, ctx));
  }

  const ClassInfo* cls = registry_.find(call.resolved_class);
  const MethodDecl* method = cls ? cls->find_method(call.callee) : nullptr;

  auto conservative = [&]() {
    if (receiver) {
      LocRef whole = *receiver;
      whole.precise = true;
      record_use_of_loc(whole, sets);
    }
    for (std::size_t i = 0; i < call.args.size(); ++i) {
      if (actual_locs[i].valid) {
        record_use_of_loc(actual_locs[i], sets);
      } else {
        record_uses(*call.args[i], ctx, sets);
      }
    }
  };

  if (!method || !method->body) {
    conservative();
    return;
  }

  // Primitive-typed arguments are consumed at the call site by value:
  // their expressions evaluate here whether or not the callee reads them.
  for (std::size_t i = 0; i < call.args.size(); ++i) {
    const TypePtr& pt = method->params.size() > i
                            ? method->params[i]->type
                            : nullptr;
    if (pt && pt->is_primitive()) record_uses(*call.args[i], ctx, sets);
  }

  SegmentSets callee =
      analyze_callee(*cls, *method, receiver, actual_locs, actual_polys, ctx);
  sets.cons.remove_covered_all(callee.gen);
  sets.gen.add_all(callee.gen);
  sets.cons.add_all(callee.cons);
  sets.reductions.insert(callee.reductions.begin(), callee.reductions.end());
}

void GenConsAnalyzer::record_ctor_effects(const NewObjectExpr& alloc,
                                          const std::optional<LocRef>& target,
                                          Context& ctx, SegmentSets& sets) {
  if (target) record_def(*target, sets);
  const ClassInfo* cls = registry_.find(alloc.class_name);
  const MethodDecl* ctor = cls ? cls->constructor() : nullptr;
  std::vector<LocRef> actual_locs;
  std::vector<std::optional<SymPoly>> actual_polys;
  for (const ExprPtr& arg : alloc.args) {
    actual_locs.push_back(resolve_loc(*arg, ctx));
    actual_polys.push_back(to_poly(*arg, ctx));
  }
  if (!cls || !ctor || !ctor->body) {
    for (const ExprPtr& arg : alloc.args) record_uses(*arg, ctx, sets);
    return;
  }
  for (std::size_t i = 0; i < alloc.args.size(); ++i) {
    const TypePtr& pt =
        ctor->params.size() > i ? ctor->params[i]->type : nullptr;
    if (pt && pt->is_primitive()) record_uses(*alloc.args[i], ctx, sets);
  }
  // Analyze the constructor with `this` bound to the target (or to a fresh
  // unobservable object when the allocation is anonymous).
  std::optional<LocRef> this_loc = target;
  std::string anon_name;
  if (!this_loc) {
    anon_name = fresh_name("this");
    LocRef fresh;
    fresh.valid = true;
    fresh.id = ValueId{anon_name, {}};
    fresh.type = Type::class_type(alloc.class_name);
    this_loc = fresh;
  }
  SegmentSets callee =
      analyze_callee(*cls, *ctor, this_loc, actual_locs, actual_polys, ctx);
  if (!anon_name.empty()) {
    std::set<std::string> anon{anon_name};
    strip_locals(callee, anon);
  }
  sets.cons.remove_covered_all(callee.gen);
  sets.gen.add_all(callee.gen);
  sets.cons.add_all(callee.cons);
  sets.reductions.insert(callee.reductions.begin(), callee.reductions.end());
}

SegmentSets GenConsAnalyzer::analyze_callee(
    const ClassInfo& cls, const MethodDecl& method,
    const std::optional<LocRef>& receiver,
    const std::vector<LocRef>& actual_locs,
    const std::vector<std::optional<SymPoly>>& actual_polys,
    Context& caller_ctx) {
  (void)caller_ctx;  // reserved for alias context refinement
  const std::string key = cls.name + "::" + method.name;
  SegmentSets result;
  bool recursive =
      std::find(call_stack_.begin(), call_stack_.end(), key) !=
      call_stack_.end();
  if (recursive || call_stack_.size() >= kMaxCallDepth) {
    // Conservative summary: everything reachable is consumed, nothing
    // provably generated.
    if (receiver && receiver->valid) {
      if (receiver->reduction_root) {
        result.reductions.insert(receiver->id.base);
      } else {
        ValueEntry entry{receiver->type, std::nullopt};
        result.cons.add(receiver->id, entry);
      }
    }
    for (const LocRef& loc : actual_locs) {
      if (!loc.valid) continue;
      if (loc.reduction_root) {
        result.reductions.insert(loc.id.base);
      } else {
        result.cons.add(loc.id, ValueEntry{loc.type, std::nullopt});
      }
    }
    return result;
  }

  call_stack_.push_back(key);
  ++contexts_analyzed_;

  Context ctx;
  ctx.current_class = &cls;
  ctx.rename_decls = true;
  if (receiver && receiver->valid) {
    ctx.renames["this"] = *receiver;
  } else {
    std::string anon = fresh_name("this");
    LocRef fresh;
    fresh.valid = true;
    fresh.id = ValueId{anon, {}};
    fresh.type = Type::class_type(cls.name);
    ctx.renames["this"] = fresh;
    ctx.locals.insert(anon);
  }
  for (std::size_t i = 0; i < method.params.size(); ++i) {
    const Param& param = *method.params[i];
    const bool have_loc = i < actual_locs.size() && actual_locs[i].valid;
    const bool have_poly = i < actual_polys.size() &&
                           actual_polys[i].has_value();
    if (param.type && param.type->is_integral() && have_poly) {
      ctx.scalar_renames[param.name] = *actual_polys[i];
    } else if (have_loc) {
      ctx.renames[param.name] = actual_locs[i];
    } else {
      std::string anon = fresh_name(param.name);
      LocRef fresh;
      fresh.valid = true;
      fresh.id = ValueId{anon, {}};
      fresh.type = param.type;
      ctx.renames[param.name] = fresh;
      ctx.locals.insert(anon);
    }
  }

  std::vector<const Stmt*> stmts;
  for (const StmtPtr& s : method.body->statements) stmts.push_back(s.get());
  analyze_stmts_reverse(stmts, ctx, result);
  strip_locals(result, ctx.locals);

  call_stack_.pop_back();
  return result;
}

// ---------------------------------------------------------------------------
// Location / polynomial resolution
// ---------------------------------------------------------------------------

LocRef GenConsAnalyzer::resolve_loc(const Expr& expr, Context& ctx) const {
  LocRef invalid;
  switch (expr.kind) {
    case NodeKind::VarRef: {
      const auto& ref = static_cast<const VarRef&>(expr);
      if (ref.is_runtime_define) return invalid;
      auto iter = ctx.iters.find(ref.name);
      if (iter != ctx.iters.end()) {
        if (!iter->second.element_of) return invalid;  // index value
        LocRef loc = iter->second.collection;
        loc.id.steps.push_back(kElemStep);
        loc.type = loc.type && loc.type->is_array() ? loc.type->element()
                                                    : ref.type;
        return loc;
      }
      auto renamed = ctx.renames.find(ref.name);
      if (renamed != ctx.renames.end()) return renamed->second;
      if (ctx.scalar_renames.count(ref.name)) return invalid;  // value only
      if (ref.name != "this" && ctx.current_class) {
        if (const FieldInfo* field = ctx.current_class->find_field(ref.name)) {
          auto this_it = ctx.renames.find("this");
          if (this_it != ctx.renames.end()) {
            LocRef loc = this_it->second;
            loc.id.steps.push_back(field->name);
            loc.type = field->type;
            return loc;
          }
          return invalid;
        }
      }
      LocRef loc;
      loc.valid = true;
      loc.id = ValueId{ref.name, {}};
      loc.type = ref.type;
      loc.reduction_root = reduction_globals_.count(ref.name) > 0;
      return loc;
    }
    case NodeKind::FieldAccess: {
      const auto& access = static_cast<const FieldAccess&>(expr);
      LocRef base = resolve_loc(*access.base, ctx);
      if (!base.valid) return invalid;
      base.id.steps.push_back(access.field);
      base.type = access.type;
      return base;
    }
    case NodeKind::Index: {
      const auto& index = static_cast<const IndexExpr&>(expr);
      if (index.indices.size() != 1) return invalid;
      LocRef base = resolve_loc(*index.base, ctx);
      if (!base.valid) return invalid;
      if (base.id.elementwise()) return invalid;  // one "[]" level supported
      base.id.steps.push_back(kElemStep);
      base.type = index.type;
      // Mutable lookup is fine: to_poly only reads the context.
      std::optional<SymPoly> poly = to_poly(*index.indices[0], ctx);
      if (poly) {
        base.section = RectSection::dim1(*poly, *poly);
      } else {
        base.section.reset();
        base.precise = false;
      }
      return base;
    }
    default:
      return invalid;
  }
}

std::optional<SymPoly> GenConsAnalyzer::to_poly(const Expr& expr,
                                                Context& ctx) const {
  switch (expr.kind) {
    case NodeKind::IntLit:
      return SymPoly(static_cast<const IntLit&>(expr).value);
    case NodeKind::VarRef: {
      const auto& ref = static_cast<const VarRef&>(expr);
      auto iter = ctx.iters.find(ref.name);
      if (iter != ctx.iters.end()) {
        if (iter->second.element_of) return std::nullopt;
        return SymPoly::symbol(iter->second.symbol);
      }
      auto scalar = ctx.scalar_renames.find(ref.name);
      if (scalar != ctx.scalar_renames.end()) return scalar->second;
      auto renamed = ctx.renames.find(ref.name);
      if (renamed != ctx.renames.end()) {
        const LocRef& loc = renamed->second;
        if (loc.valid && loc.id.steps.empty() && loc.type &&
            loc.type->is_integral()) {
          return SymPoly::symbol(loc.id.base);
        }
        return std::nullopt;
      }
      if (!ref.type || !ref.type->is_integral()) return std::nullopt;
      // Unqualified fields of the enclosing class resolve through `this`,
      // yielding a dotted symbol (e.g. "zbuf.w").
      if (ctx.current_class && ctx.current_class->find_field(ref.name) &&
          ctx.renames.count("this")) {
        LocRef loc = resolve_loc(ref, ctx);
        if (loc.valid && loc.precise && !loc.id.elementwise()) {
          return SymPoly::symbol(loc.id.to_string());
        }
        return std::nullopt;
      }
      return SymPoly::symbol(ref.name);
    }
    case NodeKind::FieldAccess: {
      const auto& access = static_cast<const FieldAccess&>(expr);
      LocRef loc = resolve_loc(expr, ctx);
      if (loc.valid && access.field == "length") {
        return SymPoly::symbol("len(" + loc.id.to_string() + ")");
      }
      if (loc.valid && loc.precise && loc.type && loc.type->is_integral() &&
          !loc.id.elementwise()) {
        return SymPoly::symbol(loc.id.to_string());
      }
      return std::nullopt;
    }
    case NodeKind::Unary: {
      const auto& unary = static_cast<const UnaryExpr&>(expr);
      if (unary.op != UnaryOp::Neg) return std::nullopt;
      std::optional<SymPoly> inner = to_poly(*unary.operand, ctx);
      if (!inner) return std::nullopt;
      return -*inner;
    }
    case NodeKind::Binary: {
      const auto& binary = static_cast<const BinaryExpr&>(expr);
      std::optional<SymPoly> lhs = to_poly(*binary.lhs, ctx);
      std::optional<SymPoly> rhs = to_poly(*binary.rhs, ctx);
      if (!lhs || !rhs) return std::nullopt;
      switch (binary.op) {
        case BinaryOp::Add: return *lhs + *rhs;
        case BinaryOp::Sub: return *lhs - *rhs;
        case BinaryOp::Mul: return *lhs * *rhs;
        case BinaryOp::Div: {
          std::optional<std::int64_t> a = lhs->constant_value();
          std::optional<std::int64_t> b = rhs->constant_value();
          if (a && b && *b != 0 && *a % *b == 0) return SymPoly(*a / *b);
          return std::nullopt;
        }
        default: return std::nullopt;
      }
    }
    default:
      return std::nullopt;
  }
}

std::optional<Interval> GenConsAnalyzer::domain_interval(const Expr& domain,
                                                         Context& ctx) const {
  if (domain.kind == NodeKind::RectdomainLit) {
    const auto& lit = static_cast<const RectdomainLit&>(domain);
    if (lit.dims.size() != 1) return std::nullopt;
    std::optional<SymPoly> lo = to_poly(*lit.dims[0].lo, ctx);
    std::optional<SymPoly> hi = to_poly(*lit.dims[0].hi, ctx);
    if (!lo || !hi) return std::nullopt;
    return Interval{*lo, *hi};
  }
  if (domain.kind == NodeKind::VarRef) {
    const auto& ref = static_cast<const VarRef&>(domain);
    auto it = ctx.domain_bindings.find(ref.name);
    if (it != ctx.domain_bindings.end() && it->second.rank() == 1) {
      return it->second.dims()[0];
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Set surgery
// ---------------------------------------------------------------------------

void GenConsAnalyzer::substitute_loop_var(SegmentSets& sets,
                                          const std::string& symbol,
                                          const SymPoly& lo,
                                          const SymPoly& hi) {
  auto substitute_in = [&](ValueSet& set, bool is_gen) {
    ValueSet::Map rebuilt;
    for (auto& [id, entry] : set.items_mutable()) {
      if (!entry.section || !section_mentions(*entry.section, symbol)) {
        rebuilt.emplace(id, entry);
        continue;
      }
      std::vector<Interval> dims;
      bool ok = true;
      for (const Interval& iv : entry.section->dims()) {
        std::optional<SymPoly> new_lo =
            monotone_substitute(iv.lo, symbol, lo, hi, /*want_min=*/true);
        std::optional<SymPoly> new_hi =
            monotone_substitute(iv.hi, symbol, lo, hi, /*want_min=*/false);
        if (!new_lo || !new_hi) {
          ok = false;
          break;
        }
        dims.push_back(Interval{std::move(*new_lo), std::move(*new_hi)});
      }
      if (ok) {
        rebuilt.emplace(id, ValueEntry{entry.type, RectSection(dims)});
      } else if (!is_gen) {
        rebuilt.emplace(id, ValueEntry{entry.type, std::nullopt});
      }
      // Gen entries that cannot be widened precisely are dropped (sound:
      // under-approximating Gen only increases communication).
    }
    ValueSet out;
    for (auto& [id, entry] : rebuilt) out.add(id, entry);
    set = std::move(out);
  };
  substitute_in(sets.gen, /*is_gen=*/true);
  substitute_in(sets.cons, /*is_gen=*/false);
}

void GenConsAnalyzer::widen_unstable(SegmentSets& sets,
                                     const std::set<std::string>& bad_symbols) {
  if (bad_symbols.empty()) return;
  ValueSet new_gen;
  for (const auto& [id, entry] : sets.gen.items()) {
    if (entry.section && section_mentions(*entry.section, bad_symbols)) {
      continue;  // dropped from the must-set
    }
    new_gen.add(id, entry);
  }
  sets.gen = std::move(new_gen);
  for (auto& [id, entry] : sets.cons.items_mutable()) {
    if (entry.section && section_mentions(*entry.section, bad_symbols)) {
      entry.section.reset();  // widened to the whole location
    }
  }
}

void GenConsAnalyzer::strip_locals(SegmentSets& sets,
                                   const std::set<std::string>& locals) {
  if (locals.empty()) return;
  auto strip = [&](ValueSet& set) {
    ValueSet out;
    for (const auto& [id, entry] : set.items()) {
      if (locals.count(id.base)) continue;
      out.add(id, entry);
    }
    set = std::move(out);
  };
  strip(sets.gen);
  strip(sets.cons);
  // Sections mentioning stripped names are also unstable outside the scope.
  widen_unstable(sets, locals);
}

}  // namespace cgp
