// Gen/Cons and ReqComm unit tests (§4.2).
#include <gtest/gtest.h>

#include "analysis/gencons.h"
#include "parser/parser.h"
#include "sema/sema.h"

namespace cgp {
namespace {

struct Fixture {
  std::unique_ptr<Program> program;
  ClassRegistry registry;
  DiagnosticEngine diags;
  const MethodDecl* method = nullptr;
};

/// Parses a program whose class `A` has method `f`; analysis targets f's
/// top-level statements.
Fixture prepare(std::string_view source) {
  Fixture f;
  f.program = Parser::parse(source, f.diags);
  Sema sema(*f.program, f.diags);
  SemaResult result = sema.run();
  EXPECT_TRUE(result.ok) << f.diags.render();
  f.registry = std::move(result.registry);
  for (const auto& cls : f.program->classes) {
    if (const MethodDecl* m = f.registry.find(cls->name)->find_method("f"))
      f.method = m;
  }
  EXPECT_NE(f.method, nullptr);
  return f;
}

std::vector<const Stmt*> stmts_of(const Fixture& f) {
  std::vector<const Stmt*> out;
  for (const StmtPtr& s : f.method->body->statements) out.push_back(s.get());
  return out;
}

bool has(const ValueSet& set, const std::string& rendered) {
  for (const auto& [id, entry] : set.items()) {
    if (id.to_string() == rendered) return true;
  }
  return false;
}

std::string section_of(const ValueSet& set, const std::string& rendered) {
  for (const auto& [id, entry] : set.items()) {
    if (id.to_string() == rendered) {
      return entry.section ? entry.section->to_string() : "<whole>";
    }
  }
  return "<absent>";
}

TEST(GenCons, StraightLineAssignment) {
  Fixture f = prepare(R"(
    class A {
      void f(int a, int b) {
        int x = a + b;
        int y = x * 2;
      }
    }
  )");
  GenConsAnalyzer analyzer(f.registry, f.diags);
  SegmentSets sets = analyzer.analyze_segment(stmts_of(f));
  EXPECT_TRUE(has(sets.gen, "x"));
  EXPECT_TRUE(has(sets.gen, "y"));
  EXPECT_TRUE(has(sets.cons, "a"));
  EXPECT_TRUE(has(sets.cons, "b"));
  EXPECT_FALSE(has(sets.cons, "x")) << sets.cons.to_string();
}

TEST(GenCons, SelfUpdateIsBothGenAndCons) {
  Fixture f = prepare(R"(
    class A {
      void f(int x) {
        x = x + 1;
      }
    }
  )");
  GenConsAnalyzer analyzer(f.registry, f.diags);
  SegmentSets sets = analyzer.analyze_segment(stmts_of(f));
  EXPECT_TRUE(has(sets.gen, "x"));
  EXPECT_TRUE(has(sets.cons, "x"));
}

TEST(GenCons, ConditionalBlocksGen) {
  // §4.2: Gen(s) of a conditional does NOT join Gen(b); Cons(s) does.
  Fixture f = prepare(R"(
    class A {
      void f(int c, int v) {
        int x = 0;
        if (c > 0) {
          x = v;
        }
      }
    }
  )");
  GenConsAnalyzer analyzer(f.registry, f.diags);
  SegmentSets sets = analyzer.analyze_segment(stmts_of(f));
  // x IS generated by the unconditional decl, v consumed inside conditional.
  EXPECT_TRUE(has(sets.gen, "x"));
  EXPECT_TRUE(has(sets.cons, "v"));
  EXPECT_TRUE(has(sets.cons, "c"));
}

TEST(GenCons, ConditionalOnlyDefNotInGen) {
  Fixture f = prepare(R"(
    class A {
      void f(int c, int v, int w) {
        if (c > 0) {
          w = v;
        }
      }
    }
  )");
  GenConsAnalyzer analyzer(f.registry, f.diags);
  SegmentSets sets = analyzer.analyze_segment(stmts_of(f));
  EXPECT_FALSE(has(sets.gen, "w"));
  EXPECT_TRUE(has(sets.cons, "v"));
}

TEST(GenCons, DefinedAndUsedInsideConditionalStaysInternal) {
  // "a variable that is both defined and used in the block s does not get
  // added to the Cons(b) set."
  Fixture f = prepare(R"(
    class A {
      void f(int c) {
        if (c > 0) {
          int t = 5;
          int u = t + 1;
        }
      }
    }
  )");
  GenConsAnalyzer analyzer(f.registry, f.diags);
  SegmentSets sets = analyzer.analyze_segment(stmts_of(f));
  EXPECT_FALSE(has(sets.cons, "t"));
  EXPECT_FALSE(has(sets.cons, "u"));
}

TEST(GenCons, ForeachSectionsFromLoopBounds) {
  Fixture f = prepare(R"(
    class A {
      void f(double[] src, double[] dst, int n) {
        foreach (i in [0 : n - 1]) {
          dst[i] = src[i] * 2.0;
        }
      }
    }
  )");
  GenConsAnalyzer analyzer(f.registry, f.diags);
  SegmentSets sets = analyzer.analyze_segment(stmts_of(f));
  EXPECT_EQ(section_of(sets.gen, "dst[]"), "[0:n - 1]");
  EXPECT_EQ(section_of(sets.cons, "src[]"), "[0:n - 1]");
  EXPECT_TRUE(has(sets.cons, "n"));
}

TEST(GenCons, AffineIndexSections) {
  Fixture f = prepare(R"(
    class A {
      void f(double[] src, double[] dst, int n, int base) {
        foreach (i in [base : base + n - 1]) {
          dst[i - base] = src[i];
        }
      }
    }
  )");
  GenConsAnalyzer analyzer(f.registry, f.diags);
  SegmentSets sets = analyzer.analyze_segment(stmts_of(f));
  EXPECT_EQ(section_of(sets.gen, "dst[]"), "[0:n - 1]");
  EXPECT_EQ(section_of(sets.cons, "src[]"), "[base:base + n - 1]");
}

TEST(GenCons, CanonicalForLoopSections) {
  Fixture f = prepare(R"(
    class A {
      void f(double[] dst, int n) {
        for (int i = 0; i < n; i++) {
          dst[i] = 1.0;
        }
      }
    }
  )");
  GenConsAnalyzer analyzer(f.registry, f.diags);
  SegmentSets sets = analyzer.analyze_segment(stmts_of(f));
  EXPECT_EQ(section_of(sets.gen, "dst[]"), "[0:n - 1]");
}

TEST(GenCons, NonCanonicalForDropsGen) {
  Fixture f = prepare(R"(
    class A {
      void f(double[] dst, int n) {
        for (int i = 0; i < n; i += 2) {
          dst[i] = 1.0;
        }
      }
    }
  )");
  GenConsAnalyzer analyzer(f.registry, f.diags);
  SegmentSets sets = analyzer.analyze_segment(stmts_of(f));
  // Stride 2 does not cover [0, n-1]: must NOT claim a full-gen.
  EXPECT_FALSE(has(sets.gen, "dst[]"));
}

TEST(GenCons, InductionReassignedInAnyPositionDropsGen) {
  // A canonical-looking `for` whose body also reassigns the induction
  // variable does not cover [0:n-1], so Gen must not claim `dst[]`.
  const char* const kReassignments[] = {
      "aux[i = i + 1] = 0.0;",  // inside a store target
      "foreach (j in [0 : (i = i + 1)]) { aux[j] = 0.0; }",
      "double[] tmp = new double[i = i + 1]; aux[0] = tmp.length;",
  };
  for (const char* reassign : kReassignments) {
    Fixture f = prepare(R"(
      class A {
        void f(double[] dst, double[] aux, int n) {
          for (int i = 0; i < n; i++) {
            dst[i] = 1.0;
            )" + std::string(reassign) + R"(
          }
        }
      }
    )");
    GenConsAnalyzer analyzer(f.registry, f.diags);
    SegmentSets sets = analyzer.analyze_segment(stmts_of(f));
    EXPECT_FALSE(has(sets.gen, "dst[]")) << reassign;
  }
}

TEST(GenCons, CompactionLoopIsSound) {
  // The idiom the apps use: writes through a mutated counter are dropped
  // from Gen; the array decl still generates the whole variable.
  Fixture f = prepare(R"(
    class P { float v; }
    class A {
      void f(P[] input, int n) {
        P[] selected = new P[n];
        int count = 0;
        for (int i = 0; i < n; i++) {
          P q = input[i];
          if (q.v > 0.5) {
            selected[count] = q;
            count = count + 1;
          }
        }
      }
    }
  )");
  GenConsAnalyzer analyzer(f.registry, f.diags);
  SegmentSets sets = analyzer.analyze_segment(stmts_of(f));
  EXPECT_TRUE(has(sets.gen, "selected"));
  EXPECT_TRUE(has(sets.gen, "count"));
  EXPECT_EQ(section_of(sets.cons, "input[].v"), "[0:n - 1]");
}

TEST(GenCons, ElementAliasTracksFields) {
  Fixture f = prepare(R"(
    class P { float x; float y; }
    class A {
      void f(P[] ps, int n) {
        foreach (i in [0 : n - 1]) {
          P q = ps[i];
          q.x = q.y * 2.0;
        }
      }
    }
  )");
  GenConsAnalyzer analyzer(f.registry, f.diags);
  SegmentSets sets = analyzer.analyze_segment(stmts_of(f));
  EXPECT_EQ(section_of(sets.gen, "ps[].x"), "[0:n - 1]");
  EXPECT_EQ(section_of(sets.cons, "ps[].y"), "[0:n - 1]");
  EXPECT_FALSE(has(sets.cons, "ps[].x"));
}

TEST(GenCons, InterproceduralRenaming) {
  Fixture f = prepare(R"(
    class P { float x; float y; }
    class A {
      void scale(P q, float k) {
        q.x = q.x * k;
      }
      void f(P target, float factor) {
        scale(target, factor);
      }
    }
  )");
  GenConsAnalyzer analyzer(f.registry, f.diags);
  SegmentSets sets = analyzer.analyze_segment(stmts_of(f));
  EXPECT_TRUE(has(sets.gen, "target.x"));
  EXPECT_TRUE(has(sets.cons, "target.x"));  // self-update reads it
  EXPECT_TRUE(has(sets.cons, "factor"));
  EXPECT_FALSE(has(sets.cons, "target.y"));  // untouched field
  EXPECT_GE(analyzer.contexts_analyzed(), 1u);
}

TEST(GenCons, ContextSensitivity) {
  // The same callee analyzed at two sites with different actuals.
  Fixture f = prepare(R"(
    class P { float x; }
    class A {
      void bump(P q) { q.x = q.x + 1.0; }
      void f(P a, P b) {
        bump(a);
        bump(b);
      }
    }
  )");
  GenConsAnalyzer analyzer(f.registry, f.diags);
  SegmentSets sets = analyzer.analyze_segment(stmts_of(f));
  EXPECT_TRUE(has(sets.gen, "a.x"));
  EXPECT_TRUE(has(sets.gen, "b.x"));
  EXPECT_EQ(analyzer.contexts_analyzed(), 2u);
}

TEST(GenCons, RecursionFallsBackConservatively) {
  Fixture f = prepare(R"(
    class P { float x; }
    class A {
      void spin(P q) { spin(q); }
      void f(P a) { spin(a); }
    }
  )");
  GenConsAnalyzer analyzer(f.registry, f.diags);
  SegmentSets sets = analyzer.analyze_segment(stmts_of(f));
  // Conservative: a consumed (whole), nothing proven generated.
  EXPECT_TRUE(has(sets.cons, "a"));
  EXPECT_FALSE(has(sets.gen, "a.x"));
}

TEST(GenCons, ReductionGlobalsExcluded) {
  Fixture f = prepare(R"(
    interface Reducinterface { }
    class Acc implements Reducinterface {
      double total;
      void add(double v) { total = total + v; }
    }
    class A {
      void f(Acc acc, double[] xs, int n) {
        foreach (i in [0 : n - 1]) {
          acc.add(xs[i]);
        }
      }
    }
  )");
  GenConsAnalyzer analyzer(f.registry, f.diags);
  analyzer.set_reduction_globals({"acc"});
  SegmentSets sets = analyzer.analyze_segment(stmts_of(f));
  EXPECT_EQ(sets.reductions.count("acc"), 1u);
  EXPECT_FALSE(has(sets.cons, "acc.total"));
  EXPECT_FALSE(has(sets.gen, "acc.total"));
  EXPECT_EQ(section_of(sets.cons, "xs[]"), "[0:n - 1]");
}

TEST(GenCons, ReductionClassLocalIsOrdinaryData) {
  Fixture f = prepare(R"(
    interface Reducinterface { }
    class Acc implements Reducinterface {
      double total;
      void add(double v) { total = total + v; }
    }
    class A {
      void f(Acc acc, double v) {
        acc.add(v);
      }
    }
  )");
  GenConsAnalyzer analyzer(f.registry, f.diags);
  // No reduction globals declared: acc is plain data here.
  SegmentSets sets = analyzer.analyze_segment(stmts_of(f));
  EXPECT_TRUE(has(sets.gen, "acc.total"));
  EXPECT_TRUE(sets.reductions.empty());
}

TEST(GenCons, ReqCommEquation) {
  // ReqComm(f1) = ReqComm(f2) - Gen(b) + Cons(b)
  ValueSet next;
  next.add(ValueId{"x", {}}, ValueEntry{Type::primitive(PrimKind::Int), {}});
  next.add(ValueId{"y", {}}, ValueEntry{Type::primitive(PrimKind::Int), {}});
  ValueSet gen;
  gen.add(ValueId{"x", {}}, ValueEntry{Type::primitive(PrimKind::Int), {}});
  ValueSet cons;
  cons.add(ValueId{"z", {}}, ValueEntry{Type::primitive(PrimKind::Int), {}});
  ValueSet result = ValueSet::req_comm(next, gen, cons);
  EXPECT_FALSE(result.contains(ValueId{"x", {}}));
  EXPECT_TRUE(result.contains(ValueId{"y", {}}));
  EXPECT_TRUE(result.contains(ValueId{"z", {}}));
}

TEST(GenCons, ReqCommSkipBoundaryInvariant) {
  // §4.2's key observation: ReqComm(f1) stays correct when the middle
  // boundary is NOT chosen. Merging two adjacent segments must produce the
  // same ReqComm as propagating through them separately.
  Fixture f = prepare(R"(
    class A {
      void f(double[] src, int n) {
        double[] mid = new double[n];
        foreach (i in [0 : n - 1]) {
          mid[i] = src[i] * 2.0;
        }
        double[] dst = new double[n];
        foreach (j in [0 : n - 1]) {
          dst[j] = mid[j] + 1.0;
        }
      }
    }
  )");
  std::vector<const Stmt*> all = stmts_of(f);
  ASSERT_EQ(all.size(), 4u);
  std::vector<const Stmt*> first(all.begin(), all.begin() + 2);
  std::vector<const Stmt*> second(all.begin() + 2, all.end());

  GenConsAnalyzer analyzer(f.registry, f.diags);
  SegmentSets b1 = analyzer.analyze_segment(first);
  SegmentSets b2 = analyzer.analyze_segment(second);
  SegmentSets merged = analyzer.analyze_segment(all);

  ValueSet final_needs;  // dst consumed afterwards
  final_needs.add(
      ValueId{"dst", {kElemStep}},
      ValueEntry{Type::primitive(PrimKind::Double),
                 RectSection::dim1(SymPoly(0), SymPoly::symbol("n") - 1)});

  ValueSet via_two = ValueSet::req_comm(
      ValueSet::req_comm(final_needs, b2.gen, b2.cons), b1.gen, b1.cons);
  ValueSet via_one = ValueSet::req_comm(final_needs, merged.gen, merged.cons);
  EXPECT_EQ(via_two.to_string(), via_one.to_string());
}

TEST(GenCons, WholeObjectDefCoversFieldUse) {
  ValueSet cons;
  cons.add(ValueId{"obj", {"field"}},
           ValueEntry{Type::primitive(PrimKind::Int), {}});
  ValueSet gen;
  gen.add(ValueId{"obj", {}}, ValueEntry{Type::class_type("T"), {}});
  cons.remove_covered_all(gen);
  EXPECT_TRUE(cons.empty());
}

TEST(GenCons, SectionedDefCoversNarrowerUse) {
  ValueSet cons;
  cons.add(ValueId{"a", {kElemStep}},
           ValueEntry{Type::primitive(PrimKind::Int),
                      RectSection::dim1(SymPoly(2), SymPoly(5))});
  ValueSet gen;
  gen.add(ValueId{"a", {kElemStep}},
          ValueEntry{Type::primitive(PrimKind::Int),
                     RectSection::dim1(SymPoly(0), SymPoly(9))});
  cons.remove_covered_all(gen);
  EXPECT_TRUE(cons.empty());
}

TEST(GenCons, PartialDefDoesNotCover) {
  ValueSet cons;
  cons.add(ValueId{"a", {kElemStep}},
           ValueEntry{Type::primitive(PrimKind::Int),
                      RectSection::dim1(SymPoly(0), SymPoly(9))});
  ValueSet gen;
  gen.add(ValueId{"a", {kElemStep}},
          ValueEntry{Type::primitive(PrimKind::Int),
                     RectSection::dim1(SymPoly(0), SymPoly(4))});
  cons.remove_covered_all(gen);
  EXPECT_FALSE(cons.empty());
}

TEST(GenCons, NormalizeDropsSubsumedEntries) {
  ValueSet set;
  set.add(ValueId{"c", {kElemStep}},
          ValueEntry{Type::class_type("Cube"),
                     RectSection::dim1(SymPoly(0), SymPoly(9))});
  set.add(ValueId{"c", {kElemStep, "v0"}},
          ValueEntry{Type::primitive(PrimKind::Float),
                     RectSection::dim1(SymPoly(0), SymPoly(9))});
  set.normalize();
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.contains(ValueId{"c", {kElemStep}}));
}

TEST(GenCons, RuntimeConstantsNotConsumed) {
  Fixture f = prepare(R"(
    class A {
      void f(double[] xs) {
        double v = xs[runtime_define_index * 2];
      }
    }
  )");
  GenConsAnalyzer analyzer(f.registry, f.diags);
  SegmentSets sets = analyzer.analyze_segment(stmts_of(f));
  EXPECT_FALSE(has(sets.cons, "runtime_define_index"));
}

TEST(GenCons, NestedClassFieldPaths) {
  Fixture f = prepare(R"(
    class Inner { float v; }
    class Outer { Inner inner; float w; }
    class A {
      void f(Outer o) {
        o.inner.v = o.w * 2.0;
      }
    }
  )");
  GenConsAnalyzer analyzer(f.registry, f.diags);
  SegmentSets sets = analyzer.analyze_segment(stmts_of(f));
  EXPECT_TRUE(has(sets.gen, "o.inner.v"));
  EXPECT_TRUE(has(sets.cons, "o.w"));
  EXPECT_FALSE(has(sets.cons, "o.inner.v"));
}

TEST(GenCons, CtorEffectsRenameToTarget) {
  Fixture f = prepare(R"(
    class P {
      float x;
      P(float seed) { x = seed * 2.0; }
    }
    class A {
      void f(float s) {
        P p = new P(s);
      }
    }
  )");
  GenConsAnalyzer analyzer(f.registry, f.diags);
  SegmentSets sets = analyzer.analyze_segment(stmts_of(f));
  EXPECT_TRUE(has(sets.gen, "p"));
  EXPECT_TRUE(has(sets.cons, "s"));
  EXPECT_FALSE(has(sets.cons, "p.x"));
}

TEST(GenCons, ScalarDefSubstitution) {
  // substitute_symbol rewrites sections over a defined scalar.
  ValueSet set;
  SymPoly base = SymPoly::symbol("base");
  set.add(ValueId{"a", {kElemStep}},
          ValueEntry{Type::primitive(PrimKind::Float),
                     RectSection::dim1(base, base + 9)});
  substitute_symbol(set, "base", SymPoly::symbol("p") * 10);
  const ValueEntry* entry = set.find(ValueId{"a", {kElemStep}});
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->section->to_string(), "[10*p:10*p + 9]");
}

TEST(GenCons, ElementReceiverMethodCall) {
  Fixture f = prepare(R"(
    class P {
      float x; float y;
      void flip() { x = y; }
    }
    class A {
      void f(P[] ps, int n) {
        foreach (i in [0 : n - 1]) {
          P q = ps[i];
          q.flip();
        }
      }
    }
  )");
  GenConsAnalyzer analyzer(f.registry, f.diags);
  SegmentSets sets = analyzer.analyze_segment(stmts_of(f));
  EXPECT_EQ(section_of(sets.gen, "ps[].x"), "[0:n - 1]");
  EXPECT_EQ(section_of(sets.cons, "ps[].y"), "[0:n - 1]");
}

TEST(GenCons, WhileLoopConservative) {
  Fixture f = prepare(R"(
    class A {
      void f(double[] xs, int n) {
        int i = 0;
        while (i < n) {
          xs[i] = 0.0;
          i = i + 1;
        }
      }
    }
  )");
  GenConsAnalyzer analyzer(f.registry, f.diags);
  SegmentSets sets = analyzer.analyze_segment(stmts_of(f));
  // Sections indexed by the mutated scalar are unstable: the write must not
  // claim a full-array Gen.
  const ValueEntry* gen_entry = sets.gen.find(ValueId{"xs", {kElemStep}});
  EXPECT_EQ(gen_entry, nullptr);
}

TEST(GenCons, BreakInLoopDowngradesGen) {
  Fixture f = prepare(R"(
    class A {
      void f(double[] xs, int n) {
        foreach (i in [0 : n - 1]) {
          xs[i] = 1.0;
          if (i > 3) { break; }
        }
      }
    }
  )");
  GenConsAnalyzer analyzer(f.registry, f.diags);
  SegmentSets sets = analyzer.analyze_segment(stmts_of(f));
  EXPECT_FALSE(has(sets.gen, "xs[]"));
}

}  // namespace
}  // namespace cgp
