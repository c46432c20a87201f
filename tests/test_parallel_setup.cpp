// Parallel source setup: the independence rule for pre-loop `foreach`
// loops (analysis/loop_independence.h), its marking in lower_pipeline, and
// the executor that runs a marked loop in chunks on several threads. Every
// chunked run must match the sequential oracle exactly: finals, op counts,
// and the first error with its message and location.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/loop_independence.h"
#include "apps/app_configs.h"
#include "codegen/interp.h"
#include "codegen/lower.h"
#include "codegen/serialize.h"
#include "driver/compiler.h"
#include "parser/parser.h"
#include "sema/sema.h"

namespace cgp {
namespace {

// ---- the rule --------------------------------------------------------------

/// A program whose pre-loop code ends with the candidate
/// `foreach (i in [0 : n - 1]) { body }`, after `setup`.
std::string rule_program(const std::string& body,
                         const std::string& setup = "") {
  return R"(
interface Reducinterface { }
class Cell {
  int v;
  Cell(int x) { v = x; }
  void bump() { v = v + 1; }
  int get() { return v; }
}
class Acc implements Reducinterface {
  long total;
  Acc() { total = 0; }
  void add(int x) { total = total + x; }
  void merge(Acc other) { total = total + other.total; }
}
class Helper {
  int seen;
  int twice(int x) { int y = x * 2; return y; }
  void fill(int[] out) { out[0] = 1; }
  int remember(int x) { seen = x; return x; }
}
class Par {
  void main() {
    int n = runtime_define_num_items;
    int npackets = runtime_define_num_packets;
    int psize = n / npackets;
    int[] a = new int[n];
    int[] b = new int[n];
    Cell[] cells = new Cell[n];
    Cell shared = new Cell(0);
    Acc acc = new Acc();
    Helper h = new Helper();
    long sum = 0;
)" + setup + R"(
    foreach (i in [0 : n - 1]) {
)" + body + R"(
    }
    PipelinedLoop (p in [0 : npackets - 1]) {
      int base = p * psize;
      foreach (i in [base : base + psize - 1]) {
        acc.add(a[i] + b[i]);
      }
    }
    long result = acc.total;
  }
}
)";
}

struct Model {
  std::unique_ptr<Program> ast;
  PipelineModel model;
};

Model model_of(const std::string& source) {
  Model m;
  DiagnosticEngine diags;
  m.ast = Parser::parse(source, diags);
  m.model = build_pipeline_model(*m.ast, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.render();
  return m;
}

/// Top-level foreach statements of `before`, by index.
std::vector<std::size_t> foreach_indices(const PipelineModel& model) {
  std::vector<std::size_t> out;
  for (std::size_t k = 0; k < model.before.size(); ++k)
    if (model.before[k]->kind == NodeKind::ForeachStmt) out.push_back(k);
  return out;
}

bool independent(const std::string& body, const std::string& setup = "") {
  const Model m = model_of(rule_program(body, setup));
  const std::vector<std::size_t> loops = foreach_indices(m.model);
  EXPECT_FALSE(loops.empty());
  if (loops.empty()) return false;
  return independent_preloop_loop(m.model.registry, m.model.before,
                                  loops.back());
}

TEST(LoopIndependence, AcceptsPrivateElementStores) {
  EXPECT_TRUE(independent("a[i] = i * 3; b[i] = a[i] + 1;"));
}

TEST(LoopIndependence, AcceptsFreshObjectsAndReadOnlyMethods) {
  EXPECT_TRUE(independent(R"(
      Cell c = new Cell(i);
      c.v = c.v + h.twice(i);
      cells[i] = c;
      int[] t = new int[2];
      t[1] = c.get();
      a[i] = t[1] + shared.get();)"));
}

TEST(LoopIndependence, AcceptsReadsOfUnwrittenArraysAnywhere) {
  EXPECT_TRUE(independent(R"(
      int j = i;
      if (i > 0) { j = i - 1; }
      for (int k = 0; k < 3; k++) { j = j + b[k]; }
      a[i] = b[j % n] + a.length;)"));
}

TEST(LoopIndependence, RejectsScalarAccumulator) {
  EXPECT_FALSE(independent("sum = sum + i; a[i] = i;"));
}

TEST(LoopIndependence, RejectsNeighbourReadOfAWrittenArray) {
  EXPECT_FALSE(independent("if (i > 0) { a[i] = a[i - 1] + 1; }"));
}

TEST(LoopIndependence, RejectsNeighbourWrite) {
  EXPECT_FALSE(independent("if (i + 1 < n) { a[i + 1] = i; }"));
}

TEST(LoopIndependence, RejectsWriteThroughAnAlias) {
  EXPECT_FALSE(independent("alias[i] = i;", "    int[] alias = a;\n"));
  // The alias makes `a` itself unsafe to split even when written directly.
  EXPECT_FALSE(independent("a[i] = i;", "    int[] alias = a;\n"));
  EXPECT_FALSE(independent("int[] t = a; t[i] = i;"));
}

TEST(LoopIndependence, RejectsPreloopObjectFieldWrite) {
  EXPECT_FALSE(independent("shared.v = i; a[i] = i;"));
}

TEST(LoopIndependence, RejectsReductionUpdate) {
  EXPECT_FALSE(independent("acc.add(i); a[i] = i;"));
}

TEST(LoopIndependence, RejectsMethodsThatWriteParametersOrReceivers) {
  EXPECT_FALSE(independent("h.fill(b); a[i] = i;"));
  EXPECT_FALSE(independent("a[i] = h.remember(i);"));
  EXPECT_FALSE(independent("Cell c = new Cell(i); c.bump(); cells[i] = c;"));
}

TEST(LoopIndependence, RejectsBreakAndReturn) {
  EXPECT_FALSE(independent("if (i > 5) { break; } a[i] = i;"));
  EXPECT_FALSE(independent("if (i > 5) { return; } a[i] = i;"));
}

TEST(LoopIndependence, RejectsElementForeach) {
  EXPECT_FALSE(independent("foreach (x in b) { a[i] = a[i] + x; }"));
}

/// The dataset synthesis loops of the paper apps.
struct AppLoop {
  apps::AppConfig config;
  bool parallel;  // the rule accepts its synthesis loop
};

std::vector<AppLoop> app_loops() {
  return {{apps::isosurface_zbuffer_config(false), true},
          {apps::isosurface_active_pixels_config(false), true},
          {apps::knn_config(3), false},
          {apps::vmscope_config(false), true}};
}

TEST(LoopIndependence, AcceptsThePaperSynthesisLoops) {
  for (const AppLoop& app : app_loops()) {
    if (!app.parallel) continue;
    const Model m = model_of(app.config.source);
    const std::vector<std::size_t> loops = foreach_indices(m.model);
    ASSERT_EQ(loops.size(), 1u) << app.config.name;
    EXPECT_TRUE(independent_preloop_loop(m.model.registry, m.model.before,
                                         loops[0]))
        << app.config.name;
  }
}

// ---- lowering and execution ------------------------------------------------

CompileResult compile_app(const apps::AppConfig& config) {
  CompileOptions options;
  options.env = EnvironmentSpec::paper_cluster(1);
  options.runtime_constants = config.runtime_constants;
  options.size_bindings = config.size_bindings;
  options.n_packets = config.n_packets;
  CompileResult result = compile_pipeline(config.source, options);
  EXPECT_TRUE(result.ok) << config.name << ": " << result.diagnostics;
  return result;
}

std::shared_ptr<const lowered::LoweredPipeline> lower(
    const CompileResult& result) {
  const PipelineCompiler compiler = result.make_runner(
      result.decomposition.placement, EnvironmentSpec::paper_cluster(1));
  return lower_pipeline(result.model, compiler.plans(),
                        result.runtime_constants);
}

TEST(ParallelSetup, LowerPipelineMarksThePaperSynthesisLoops) {
  for (const AppLoop& app : app_loops()) {
    const CompileResult result = compile_app(app.config);
    ASSERT_TRUE(result.ok);
    const auto code = lower(result);
    int foreach_loops = 0;
    int marked = 0;
    for (const lowered::Stmt* s : code->stages[0].before) {
      if (s->op == lowered::StmtOp::ForeachRange) ++foreach_loops;
      if (s->parallel) ++marked;
    }
    EXPECT_EQ(marked, app.parallel ? 1 : 0) << app.config.name;
    // knn synthesizes its points with a sequential LCG `for`.
    EXPECT_EQ(foreach_loops, app.parallel ? 1 : 0) << app.config.name;
  }
}

/// Above the split threshold: n = 3 * kMinChunk + 5 items of fresh objects,
/// method results and doubles. `bad` makes iterations `bad_lo` and
/// `bad_hi` read out of range.
const std::int64_t kItems = 3 * Executor::kMinChunk + 5;

std::string setup_program(bool bad = false, std::int64_t bad_lo = 0,
                          std::int64_t bad_hi = 0) {
  const std::string index =
      bad ? "(i == " + std::to_string(bad_lo) + " || i == " +
                std::to_string(bad_hi) + ") ? n + i : i"
          : "i";
  return R"(
interface Reducinterface { }
class Pt {
  double x; double y;
  Pt(double x0) { x = x0; y = 0.0; }
}
class Acc implements Reducinterface {
  double total;
  Acc() { total = 0.0; }
  void add(double v) { total = total + v; }
  void merge(Acc other) { total = total + other.total; }
}
class Big {
  double wave(int x) {
    double t = x * 0.01;
    return sin(t) * 3.0 + t;
  }
  void main() {
    int n = runtime_define_num_items;
    int npackets = runtime_define_num_packets;
    int psize = n / npackets;
    double[] z = new double[n];
    double[] w = new double[n];
    Pt[] pts = new Pt[n];
    foreach (i in [0 : n - 1]) {
      Pt q = new Pt(i * 0.25);
      q.y = wave(i);
      double[] t = new double[2];
      t[0] = q.x + q.y;
      t[1] = z[)" + index + R"(] + w[i];
      pts[i] = q;
      w[i] = t[0] * 0.5 + t[1] + (i % 7);
    }
    Acc acc = new Acc();
    PipelinedLoop (p in [0 : npackets - 1]) {
      int base = p * psize;
      foreach (i in [base : base + psize - 1]) {
        // Whole numbers: the sum is exact in any merge order.
        acc.add(floor((w[i] + pts[i].y) * 16.0));
      }
    }
    double result = acc.total;
  }
}
)";
}

/// The source stage's only top-level foreach.
const lowered::Stmt& synthesis_loop(const lowered::LoweredPipeline& code) {
  for (const lowered::Stmt* s : code.stages[0].before)
    if (s->op == lowered::StmtOp::ForeachRange) return *s;
  throw std::logic_error("no pre-loop foreach");
}

const std::map<std::string, std::int64_t> kSetupConstants = {
    {"runtime_define_num_items", kItems},
    {"runtime_define_num_packets", 5},
};

CompileResult compile_setup_program(const std::string& source) {
  CompileOptions options;
  options.env = EnvironmentSpec::paper_cluster(1);
  options.runtime_constants = kSetupConstants;
  options.size_bindings = {{"n", kItems},
                           {"npackets", 5},
                           {"psize", kItems / 5},
                           {"len(z)", kItems},
                           {"len(w)", kItems},
                           {"len(pts)", kItems}};
  options.n_packets = 5;
  CompileResult result = compile_pipeline(source, options);
  EXPECT_TRUE(result.ok) << result.diagnostics;
  return result;
}

struct Checked {
  std::unique_ptr<Program> ast;
  ClassRegistry registry;
};

Checked check(const std::string& source) {
  Checked c;
  DiagnosticEngine diags;
  c.ast = Parser::parse(source, diags);
  Sema sema(*c.ast, diags);
  SemaResult result = sema.run();
  EXPECT_TRUE(result.ok) << diags.render();
  c.registry = std::move(result.registry);
  return c;
}

std::vector<unsigned char> bytes_of(const Value& value) {
  dc::Buffer buffer;
  write_value(buffer, value);
  const auto* data = reinterpret_cast<const unsigned char*>(buffer.data());
  return {data, data + buffer.size()};
}

void expect_finals_match_oracle(dc::TransportBackend backend) {
  const std::string source = setup_program();
  const Checked checked = check(source);
  Interpreter oracle(checked.registry, kSetupConstants);
  const Value want = oracle.run("Big", "main").flatten().at("result");

  const CompileResult result = compile_setup_program(source);
  ASSERT_TRUE(result.ok);
  ASSERT_TRUE(synthesis_loop(*lower(result)).parallel);
  dc::RunnerConfig transport;
  transport.backend = backend;
  for (int width : {1, 2}) {
    const PipelineRunResult run =
        result
            .make_runner(result.decomposition.placement,
                         EnvironmentSpec::paper_cluster(width), {}, transport)
            .run();
    ASSERT_TRUE(run.completed) << run.error;
    EXPECT_EQ(bytes_of(run.finals.at("result")), bytes_of(want))
        << "width " << width << ": "
        << value_to_string(run.finals.at("result")) << " vs "
        << value_to_string(want);
  }
}

TEST(ParallelSetup, FinalsMatchOracleThread) {
  expect_finals_match_oracle(dc::TransportBackend::kThread);
}

TEST(ParallelSetup, FinalsMatchOracleProc) {
  expect_finals_match_oracle(dc::TransportBackend::kProc);
}

/// The executor's ops and bindings over the source stage's `before` list
/// against the tree-walker's up to the PipelinedLoop.
void expect_setup_matches_tree_walker(const CompileResult& result,
                                      const std::string& what) {
  Interpreter tree(result.model.registry, result.runtime_constants);
  Env env;
  tree.exec_stmts(result.model.before, env);

  const auto code = lower(result);
  Executor exec(*code->program);
  StageFrame frame(code->frame);
  exec.exec_stmts(code->stages[0].before, frame);

  EXPECT_TRUE(exec.ops() == tree.ops())
      << what << ": ops " << exec.ops() << " vs " << tree.ops();
  const std::map<std::string, Value> want = env.flatten();
  const std::map<std::string, Value> got = frame.flatten();
  ASSERT_EQ(got.size(), want.size()) << what;
  for (const auto& [name, value] : want) {
    ASSERT_TRUE(got.count(name)) << what << ": " << name;
    EXPECT_EQ(bytes_of(got.at(name)), bytes_of(value)) << what << ": " << name;
  }
}

TEST(ParallelSetup, ExecutorOpsOverSetupEqualTreeWalker) {
  const CompileResult big = compile_setup_program(setup_program());
  ASSERT_TRUE(big.ok);
  expect_setup_matches_tree_walker(big, "setup program");
  const CompileResult iso =
      compile_app(apps::isosurface_zbuffer_config(false));
  ASSERT_TRUE(iso.ok);
  expect_setup_matches_tree_walker(iso, "isosurface-zbuffer");
}

/// Two iterations in different chunks read out of range: the error is the
/// lower iteration's, with the oracle's message and location.
TEST(ParallelSetup, LowestChunkErrorIsTheOraclesError) {
  const std::int64_t lo = Executor::kMinChunk / 2;
  const std::int64_t hi = kItems - 3;
  const std::string source = setup_program(true, lo, hi);
  const Checked checked = check(source);
  Interpreter oracle(checked.registry, kSetupConstants);
  std::string want;
  SourceLocation want_location;
  try {
    oracle.run("Big", "main");
  } catch (const InterpError& e) {
    want = e.what();
    want_location = e.location;
  }
  ASSERT_NE(want.find("array index " + std::to_string(kItems + lo)),
            std::string::npos)
      << want;

  const CompileResult result = compile_setup_program(source);
  ASSERT_TRUE(result.ok);
  const auto code = lower(result);
  ASSERT_TRUE(synthesis_loop(*code).parallel);
  Executor exec(*code->program);
  StageFrame frame(code->frame);
  try {
    exec.exec_stmts(code->stages[0].before, frame);
    ADD_FAILURE() << "setup did not throw";
  } catch (const InterpError& e) {
    EXPECT_EQ(std::string(e.what()), want);
    EXPECT_EQ(e.location, want_location);
  }

  try {
    result
        .make_runner(result.decomposition.placement,
                     EnvironmentSpec::paper_cluster(1))
        .run();
    ADD_FAILURE() << "pipeline did not throw";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace cgp
