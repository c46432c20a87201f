// Loop fission tests (§4.1): boundary exposure inside foreach loops.
#include <gtest/gtest.h>

#include "analysis/fission.h"
#include "codegen/interp.h"
#include "parser/parser.h"
#include "sema/sema.h"

namespace cgp {
namespace {

struct Fixture {
  std::unique_ptr<Program> program;
  DiagnosticEngine diags;
  PipelinedLoopStmt* loop = nullptr;
};

Fixture prepare(std::string_view source) {
  Fixture f;
  f.program = Parser::parse(source, f.diags);
  Sema sema(*f.program, f.diags);
  SemaResult result = sema.run();
  EXPECT_TRUE(result.ok) << f.diags.render();
  // find the pipelined loop
  for (auto& cls : f.program->classes) {
    for (auto& m : cls->methods) {
      if (!m->body) continue;
      for (StmtPtr& s : m->body->statements) {
        if (s->kind == NodeKind::PipelinedLoopStmt) {
          f.loop = static_cast<PipelinedLoopStmt*>(s.get());
        }
      }
    }
  }
  EXPECT_NE(f.loop, nullptr);
  return f;
}

int count_foreach(const Stmt& stmt) {
  if (stmt.kind == NodeKind::ForeachStmt) {
    const auto& fe = static_cast<const ForeachStmt&>(stmt);
    return 1 + count_foreach(*fe.body);
  }
  if (stmt.kind == NodeKind::Block) {
    int total = 0;
    for (const StmtPtr& s : static_cast<const BlockStmt&>(stmt).statements)
      total += count_foreach(*s);
    return total;
  }
  return 0;
}

/// Runs main() sequentially and returns a named scalar result.
double run_and_get(Program& program, const std::string& name) {
  DiagnosticEngine diags;
  Sema sema(program, diags);
  SemaResult result = sema.run();
  EXPECT_TRUE(result.ok) << diags.render();
  Interpreter interp(result.registry, {{"runtime_define_np", 2}});
  Env env = interp.run("A", "main");
  return as_double(env.get(name));
}

TEST(Fission, SplitsAtConditional) {
  Fixture f = prepare(R"(
    class A {
      void main() {
        double[] xs = new double[100];
        double[] ys = new double[100];
        PipelinedLoop (p in [0 : runtime_define_np - 1]) {
          foreach (i in [0 : 99]) {
            double v = xs[i] * 2.0;
            if (v > 1.0) {
              ys[i] = v;
            }
            xs[i] = v + 1.0;
          }
        }
      }
    }
  )");
  FissionStats stats = fission_pipelined_body(*f.loop, f.diags);
  EXPECT_EQ(stats.loops_fissioned, 1);
  EXPECT_EQ(stats.pieces_created, 3);  // pre, conditional, post
  EXPECT_EQ(count_foreach(*f.loop->body), 3);
}

TEST(Fission, SplitsAtCall) {
  Fixture f = prepare(R"(
    class A {
      double g(double v) { return v * 3.0; }
      void main() {
        double[] xs = new double[10];
        PipelinedLoop (p in [0 : runtime_define_np - 1]) {
          foreach (i in [0 : 9]) {
            double a = xs[i] + 1.0;
            double b = g(a);
            xs[i] = b;
          }
        }
      }
    }
  )");
  FissionStats stats = fission_pipelined_body(*f.loop, f.diags);
  EXPECT_EQ(stats.loops_fissioned, 1);
  EXPECT_GE(stats.pieces_created, 2);
}

TEST(Fission, NoSplitWhenNoBoundary) {
  Fixture f = prepare(R"(
    class A {
      void main() {
        double[] xs = new double[10];
        PipelinedLoop (p in [0 : runtime_define_np - 1]) {
          foreach (i in [0 : 9]) {
            double v = xs[i];
            xs[i] = v * 2.0;
          }
        }
      }
    }
  )");
  FissionStats stats = fission_pipelined_body(*f.loop, f.diags);
  EXPECT_EQ(stats.loops_fissioned, 0);
  EXPECT_EQ(count_foreach(*f.loop->body), 1);
}

TEST(Fission, SingleStatementConditionalBodyNotSplit) {
  Fixture f = prepare(R"(
    class A {
      void main() {
        double[] xs = new double[10];
        PipelinedLoop (p in [0 : runtime_define_np - 1]) {
          foreach (i in [0 : 9]) {
            if (xs[i] > 0.5) {
              xs[i] = 0.0;
            }
          }
        }
      }
    }
  )");
  FissionStats stats = fission_pipelined_body(*f.loop, f.diags);
  EXPECT_EQ(stats.loops_fissioned, 0);
}

TEST(Fission, PreservesSemanticsWithScalarExpansion) {
  const char* source = R"(
    class A {
      double g(double v) { return v * 0.5; }
      void main() {
        double[] xs = new double[64];
        foreach (i in [0 : 63]) { xs[i] = i * 0.25; }
        double checksum = 0.0;
        PipelinedLoop (p in [0 : runtime_define_np - 1]) {
          foreach (i in [0 : 63]) {
            double t = xs[i] + 1.0;
            double u = g(t);
            xs[i] = u + t;
          }
        }
        foreach (i in [0 : 63]) { checksum = checksum + xs[i]; }
      }
    }
  )";
  // Oracle: run unfissioned.
  Fixture original = prepare(source);
  double expected = run_and_get(*original.program, "checksum");

  // Fission, re-check, run again: same result.
  Fixture fissioned = prepare(source);
  FissionStats stats = fission_pipelined_body(*fissioned.loop, fissioned.diags);
  EXPECT_EQ(stats.loops_fissioned, 1);
  EXPECT_GE(stats.locals_expanded + stats.locals_rematerialized, 1);
  double actual = run_and_get(*fissioned.program, "checksum");
  EXPECT_NEAR(actual, expected, 1e-9);
}

/// Fissions `source` and expects the loop to split and `checksum` to match
/// the unfissioned program's.
void expect_fission_matches_oracle(const char* source) {
  Fixture original = prepare(source);
  const double expected = run_and_get(*original.program, "checksum");
  Fixture fissioned = prepare(source);
  FissionStats stats = fission_pipelined_body(*fissioned.loop, fissioned.diags);
  EXPECT_EQ(stats.loops_fissioned, 1);
  EXPECT_NEAR(run_and_get(*fissioned.program, "checksum"), expected, 1e-9);
}

TEST(Fission, PreservesSemanticsWhenLocalReassignedInAllocation) {
  // `v` is reassigned inside a constructor argument, so the later piece
  // must read the stored value, not re-derive `v` from its initializer.
  expect_fission_matches_oracle(R"(
    class B {
      double w;
      B(double x) { w = x; }
    }
    class A {
      void main() {
        double[] xs = new double[8];
        double[] ys = new double[8];
        foreach (i in [0 : 7]) { xs[i] = i * 0.25; }
        double checksum = 0.0;
        PipelinedLoop (p in [0 : runtime_define_np - 1]) {
          foreach (i in [0 : 7]) {
            double v = xs[i] + 1.0;
            B b = new B(v = 7.0);
            ys[i] = v + b.w;
          }
        }
        foreach (i in [0 : 7]) { checksum = checksum + ys[i]; }
      }
    }
  )");
}

/// A loop whose local `k` is reassigned by `reassign` (spliced into the
/// first piece) and read after a call splits the body.
std::string reassigned_local_program(const std::string& reassign) {
  return R"(
    class A {
      double g(double v) { return v * 0.5; }
      void main() {
        double[] xs = new double[8];
        double[] ys = new double[8];
        double[] ws = new double[8];
        foreach (i in [0 : 7]) { xs[i] = i * 0.25; }
        double checksum = 0.0;
        PipelinedLoop (p in [0 : runtime_define_np - 1]) {
          foreach (i in [0 : 7]) {
            int k = i;
            )" + reassign + R"(
            double u = g(xs[i]);
            ys[i] = u + k;
          }
        }
        foreach (i in [0 : 7]) { checksum = checksum + ys[i] + ws[i]; }
      }
    }
  )";
}

TEST(Fission, PreservesSemanticsWhenLocalReassignedInAnyPosition) {
  const char* const kReassignments[] = {
      "ws[k = 0] = 1.0;",  // inside a store target
      "foreach (j in [0 : (k = 0)]) { ws[i] = ws[i] + 1.0; }",
      "double[] tmp = new double[k = 1]; ws[i] = tmp.length;",
  };
  for (const char* reassign : kReassignments) {
    SCOPED_TRACE(reassign);
    expect_fission_matches_oracle(reassigned_local_program(reassign).c_str());
  }
}

TEST(Fission, ElementIterationNormalized) {
  const char* source = R"(
    class P { double v; double w; }
    class A {
      double g(double x) { return x + 10.0; }
      void main() {
        P[] ps = new P[16];
        foreach (i in [0 : 15]) {
          P q = new P();
          q.v = i * 1.0;
          ps[i] = q;
        }
        double checksum = 0.0;
        PipelinedLoop (p in [0 : runtime_define_np - 1]) {
          foreach (t in ps) {
            double a = t.v * 2.0;
            double b = g(a);
            t.w = b;
          }
        }
        foreach (i in [0 : 15]) { checksum = checksum + ps[i].w; }
      }
    }
  )";
  Fixture original = prepare(source);
  double expected = run_and_get(*original.program, "checksum");

  Fixture fissioned = prepare(source);
  FissionStats stats = fission_pipelined_body(*fissioned.loop, fissioned.diags);
  EXPECT_EQ(stats.loops_fissioned, 1);
  double actual = run_and_get(*fissioned.program, "checksum");
  EXPECT_NEAR(actual, expected, 1e-9);
}

TEST(Fission, PurityChecks) {
  DiagnosticEngine diags;
  auto program = Parser::parse(R"(
    class A {
      int n() { return 3; }
      void f(double[] xs, int k) {
        double a = xs[k] + 1.0;
      }
    }
  )", diags);
  Sema sema(*program, diags);
  sema.run();
  const auto& decl = static_cast<const VarDeclStmt&>(
      *program->classes[0]->methods[1]->body->statements[0]);
  EXPECT_TRUE(is_pure_expr(*decl.init));
}

TEST(Fission, SplitterDetection) {
  DiagnosticEngine diags;
  auto program = Parser::parse(R"(
    class A {
      int g() { return 1; }
      void f(int c) {
        int x = 1 + 2;
        int y = g();
        if (c > 0) { int z = 0; }
        double s = sqrt(g() * 1.0);
        double r = sqrt(x * 1.0);
      }
    }
  )", diags);
  Sema sema(*program, diags);
  sema.run();
  const auto& stmts = program->classes[0]->methods[1]->body->statements;
  EXPECT_FALSE(is_piece_splitter(*stmts[0]));
  EXPECT_TRUE(is_piece_splitter(*stmts[1]));   // contains a call
  EXPECT_TRUE(is_piece_splitter(*stmts[2]));   // conditional
  EXPECT_TRUE(is_piece_splitter(*stmts[3]));   // a call inside an intrinsic
  EXPECT_FALSE(is_piece_splitter(*stmts[4]));  // an intrinsic alone
}

}  // namespace
}  // namespace cgp
