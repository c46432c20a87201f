// Property-based tests (parameterized sweeps) over the compiler's core
// invariants:
//   * SymPoly ring axioms on random polynomials;
//   * §4.2's boundary-skip invariant: ReqComm computed through a boundary
//     equals ReqComm computed across merged segments, on generated
//     programs;
//   * DP optimality vs brute force across (n, m) grids;
//   * codec round-trips across element counts and section shapes;
//   * end-to-end result equality across all placements x widths;
//   * generated pipelines with control flow and reductions: the oracle,
//     the compiled pipeline and the lowered executor agree on results and
//     per-stage op counts; from seed 300 on, with generated pre-loop
//     foreach loops above the executor's split threshold, whose parallel
//     marking must match the class the generator drew.
#include <gtest/gtest.h>

#include "analysis/gencons.h"
#include "analysis/loop_independence.h"
#include "apps/app_configs.h"
#include "codegen/interp.h"
#include "codegen/lower.h"
#include "codegen/serialize.h"
#include "codegen/packing.h"
#include "decomp/decompose.h"
#include "driver/compiler.h"
#include "parser/parser.h"
#include "sema/sema.h"
#include "support/rng.h"

namespace cgp {
namespace {

// ---------------------------------------------------------------------------
// SymPoly ring axioms
// ---------------------------------------------------------------------------

class SymPolyProperty : public ::testing::TestWithParam<std::uint64_t> {};

SymPoly random_poly(Rng& rng, int depth = 0) {
  switch (rng.next_below(depth > 2 ? 2 : 5)) {
    case 0:
      return SymPoly(rng.next_int(-9, 9));
    case 1: {
      const char* symbols[] = {"x", "y", "z", "n"};
      return SymPoly::symbol(symbols[rng.next_below(4)]);
    }
    case 2:
      return random_poly(rng, depth + 1) + random_poly(rng, depth + 1);
    case 3:
      return random_poly(rng, depth + 1) - random_poly(rng, depth + 1);
    default:
      return random_poly(rng, depth + 1) * random_poly(rng, depth + 1);
  }
}

TEST_P(SymPolyProperty, RingAxiomsAndEvalHomomorphism) {
  Rng rng(GetParam());
  SymPoly a = random_poly(rng);
  SymPoly b = random_poly(rng);
  SymPoly c = random_poly(rng);

  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ(a * b, b * a);
  EXPECT_EQ((a + b) + c, a + (b + c));
  EXPECT_EQ((a * b) * c, a * (b * c));
  EXPECT_EQ(a * (b + c), a * b + a * c);
  EXPECT_TRUE((a - a).is_zero());
  EXPECT_EQ(a + SymPoly(0), a);
  EXPECT_EQ(a * SymPoly(1), a);

  // Evaluation is a ring homomorphism.
  std::map<std::string, std::int64_t> env = {
      {"x", rng.next_int(-5, 5)},
      {"y", rng.next_int(-5, 5)},
      {"z", rng.next_int(-5, 5)},
      {"n", rng.next_int(-5, 5)},
  };
  auto ev = [&](const SymPoly& p) { return *p.evaluate(env); };
  EXPECT_EQ(ev(a + b), ev(a) + ev(b));
  EXPECT_EQ(ev(a * b), ev(a) * ev(b));
  EXPECT_EQ(ev(a - c), ev(a) - ev(c));

  // Substitution commutes with evaluation.
  SymPoly substituted = a.substitute("x", b);
  std::map<std::string, std::int64_t> env2 = env;
  env2["x"] = ev(b);
  EXPECT_EQ(*substituted.evaluate(env), *a.evaluate(env2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymPolyProperty,
                         ::testing::Range<std::uint64_t>(1, 33));

// ---------------------------------------------------------------------------
// §4.2 boundary-skip invariant on generated programs
// ---------------------------------------------------------------------------

class ReqCommSkipProperty : public ::testing::TestWithParam<std::uint64_t> {};

/// Statement shapes the stage generator may draw.
enum class Shapes {
  StraightLine,  // element-wise producer/consumer wiring only
  ControlFlow,   // plus if/else, nested foreach/for, break, and method
                 // calls on a Reducinterface accumulator `acc`
};

/// One generated foreach stage over arrays v0..v{n_arrays-1} of length
/// `len`, indented by `pad`.
std::string random_stage(Rng& rng, int n_arrays, const std::string& len,
                         Shapes shapes, const std::string& pad) {
  const std::string dst = "v" + std::to_string(rng.next_below(n_arrays));
  const std::string a = "v" + std::to_string(rng.next_below(n_arrays));
  const std::string b = "v" + std::to_string(rng.next_below(n_arrays));
  const std::string head = pad + "foreach (i in [0 : " + len + " - 1]) {\n";
  const std::string in = pad + "  ";
  const int kind =
      shapes == Shapes::StraightLine ? 0 : static_cast<int>(rng.next_below(5));
  switch (kind) {
    case 1:  // if/else
      return head + in + "if (" + a + "[i] > 1.25) {\n" + in + "  " + dst +
             "[i] = " + a + "[i] - 0.75;\n" + in + "} else {\n" + in + "  " +
             dst + "[i] = " + b + "[i] * 0.5 + 1.0;\n" + in + "}\n" + pad +
             "}\n";
    case 2: {  // nested foreach with a local accumulator
      const std::string k = std::to_string(1 + rng.next_below(4));
      return head + in + "double s = 0.0;\n" + in + "foreach (k in [0 : " +
             k + "]) {\n" + in + "  s = s + " + a + "[i] * k + " + b +
             "[i];\n" + in + "}\n" + in + dst + "[i] = s * 0.25;\n" + pad +
             "}\n";
    }
    case 3:  // nested for with break
      return head + in + "double t = " + a + "[i];\n" + in +
             "for (int k = 0; k < 6; k++) {\n" + in +
             "  if (t > 3.0) { break; }\n" + in + "  t = t * 1.25 + 0.5;\n" +
             in + "}\n" + in + dst + "[i] = t;\n" + pad + "}\n";
    case 4:  // reduction through a method call
      return head + in + "acc.add(" + a + "[i] - " + b + "[i]);\n" + pad +
             "}\n";
    default:
      return head + in + dst + "[i] = " + a + "[i] * 1.5 + " + b + "[i];\n" +
             pad + "}\n";
  }
}

/// Generates a straight-line sequence of foreach stages with random
/// producer/consumer wiring over a pool of arrays.
std::string random_stage_program(Rng& rng, int stages) {
  std::string body;
  int n_arrays = 3 + static_cast<int>(rng.next_below(3));
  for (int a = 0; a < n_arrays; ++a) {
    body += "    double[] v" + std::to_string(a) + " = new double[n];\n";
  }
  for (int s = 0; s < stages; ++s)
    body += random_stage(rng, n_arrays, "n", Shapes::StraightLine, "    ");
  return "class A {\n  void f(int n, double[] out) {\n" + body +
         "    foreach (i in [0 : n - 1]) { out[i] = v0[i]; }\n  }\n}\n";
}

TEST_P(ReqCommSkipProperty, MergedSegmentsGiveSameReqComm) {
  Rng rng(GetParam());
  const int stages = 2 + static_cast<int>(rng.next_below(4));
  std::string source = random_stage_program(rng, stages);
  DiagnosticEngine diags;
  auto program = Parser::parse(source, diags);
  Sema sema(*program, diags);
  SemaResult sr = sema.run();
  ASSERT_TRUE(sr.ok) << diags.render() << "\n" << source;

  const MethodDecl* method = sr.registry.find("A")->find_method("f");
  std::vector<const Stmt*> stmts;
  for (const StmtPtr& s : method->body->statements) stmts.push_back(s.get());

  GenConsAnalyzer analyzer(sr.registry, diags);
  // Final needs: `out` whole.
  ValueSet final_needs;
  final_needs.add(ValueId{"out", {kElemStep}},
                  ValueEntry{Type::primitive(PrimKind::Double), std::nullopt});

  // Propagate ReqComm per-statement (every boundary selected)...
  ValueSet per_stmt = final_needs;
  for (auto it = stmts.rbegin(); it != stmts.rend(); ++it) {
    SegmentSets sets = analyzer.analyze_segment({*it});
    per_stmt = ValueSet::req_comm(per_stmt, sets.gen, sets.cons);
  }
  // ...and with a random subset of boundaries (merged segments).
  ValueSet merged = final_needs;
  std::size_t index = stmts.size();
  while (index > 0) {
    std::size_t take = 1 + rng.next_below(3);
    std::size_t begin = index > take ? index - take : 0;
    std::vector<const Stmt*> segment(stmts.begin() +
                                         static_cast<std::ptrdiff_t>(begin),
                                     stmts.begin() +
                                         static_cast<std::ptrdiff_t>(index));
    SegmentSets sets = analyzer.analyze_segment(segment);
    merged = ValueSet::req_comm(merged, sets.gen, sets.cons);
    index = begin;
  }
  EXPECT_EQ(per_stmt.to_string(), merged.to_string()) << source;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReqCommSkipProperty,
                         ::testing::Range<std::uint64_t>(100, 140));

// ---------------------------------------------------------------------------
// DP optimality across (n, m)
// ---------------------------------------------------------------------------

class DpOptimality
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DpOptimality, MatchesBruteForce) {
  auto [n_filters, stages] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n_filters * 131 + stages));
  for (int trial = 0; trial < 10; ++trial) {
    DecompositionInput input;
    for (int i = 0; i < n_filters; ++i) {
      input.task_ops.push_back(rng.next_double(1.0, 1e4));
      input.boundary_bytes.push_back(rng.next_double(1.0, 1e4));
    }
    input.input_bytes = rng.next_double(1.0, 1e4);
    input.source_io_ops = rng.next_double(0.0, 1e4);
    input.env = EnvironmentSpec::uniform(stages, rng.next_double(1e2, 1e4),
                                         rng.next_double(1e2, 1e4));
    DecompositionResult dp = decompose_dp(input);
    DecompositionResult brute =
        decompose_bruteforce(input, Objective::PerPacketLatency);
    EXPECT_NEAR(dp.cost, brute.cost, 1e-9 * std::max(1.0, brute.cost));
    EXPECT_NEAR(decompose_dp_cost_only(input), dp.cost,
                1e-9 * std::max(1.0, dp.cost));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DpOptimality,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                       ::testing::Values(2, 3, 4, 5)));

// ---------------------------------------------------------------------------
// Codec round-trips across shapes
// ---------------------------------------------------------------------------

class CodecProperty : public ::testing::TestWithParam<int> {};

TEST_P(CodecProperty, RoundTripPreservesSectionContents) {
  const int n = GetParam();
  ClassRegistry registry;
  ClassInfo point;
  point.name = "P";
  point.fields = {FieldInfo{"a", Type::primitive(PrimKind::Float), 0},
                  FieldInfo{"b", Type::primitive(PrimKind::Int), 1},
                  FieldInfo{"c", Type::primitive(PrimKind::Double), 2}};
  registry.add(point);

  Rng rng(static_cast<std::uint64_t>(n) + 7);
  auto arr = std::make_shared<ArrayVal>();
  for (int i = 0; i < n; ++i) {
    auto obj = std::make_shared<Object>();
    obj->class_name = "P";
    obj->fields = {
        Value{static_cast<double>(static_cast<float>(rng.next_double()))},
        Value{rng.next_int(-1000, 1000)}, Value{rng.next_double()}};
    arr->elems.push_back(obj);
  }

  const std::int64_t lo = rng.next_int(0, n - 1);
  const std::int64_t hi = rng.next_int(lo, n - 1);
  ValueSet req;
  for (const char* field : {"a", "b", "c"}) {
    req.add(ValueId{"ps", {kElemStep, field}},
            ValueEntry{registry.find("P")->find_field(field)->type,
                       RectSection::dim1(SymPoly(lo), SymPoly(hi))});
  }
  req.add(ValueId{"count", {}}, ValueEntry{Type::primitive(PrimKind::Long), {}});

  PackingLayout layout = plan_packing(req, {req}, registry);
  PacketCodec codec(registry, layout);
  Env sender;
  sender.declare("ps", arr);
  sender.declare("count", Value{static_cast<std::int64_t>(n)});
  dc::Buffer buffer;
  codec.pack(sender, [](const std::string&) { return std::nullopt; }, buffer);

  Env receiver;
  codec.unpack(buffer, receiver);
  const auto& out = std::get<std::shared_ptr<ArrayVal>>(receiver.get("ps"));
  ASSERT_EQ(out->base_index, lo);
  ASSERT_EQ(static_cast<std::int64_t>(out->elems.size()), hi - lo + 1);
  for (std::int64_t i = lo; i <= hi; ++i) {
    const auto& a = std::get<std::shared_ptr<Object>>(
        arr->elems[static_cast<std::size_t>(i)]);
    const auto& b = std::get<std::shared_ptr<Object>>(
        out->elems[static_cast<std::size_t>(i - lo)]);
    for (int f = 0; f < 3; ++f) {
      EXPECT_NEAR(as_double(a->fields[static_cast<std::size_t>(f)]),
                  as_double(b->fields[static_cast<std::size_t>(f)]), 1e-6)
          << "element " << i << " field " << f;
    }
  }
  EXPECT_EQ(as_int(receiver.get("count")), n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CodecProperty,
                         ::testing::Values(1, 2, 7, 33, 256, 1000));

// ---------------------------------------------------------------------------
// End-to-end: all placements x widths preserve results (knn, small scale)
// ---------------------------------------------------------------------------

struct E2ECase {
  int width;
  int cut_a;  // last filter on stage 0
  int cut_b;  // last filter on stage <= 1
};

class PipelinePlacementProperty : public ::testing::TestWithParam<E2ECase> {};

TEST_P(PipelinePlacementProperty, KnnInvariantUnderPlacementAndWidth) {
  const E2ECase param = GetParam();
  static apps::AppConfig config = [] {
    apps::AppConfig c = apps::knn_config(5);
    // Shrink for the sweep.
    c.runtime_constants["runtime_define_num_points"] = 4096;
    c.runtime_constants["runtime_define_num_packets"] = 8;
    c.size_bindings["npoints"] = 4096;
    c.size_bindings["psize"] = 512;
    c.size_bindings["len(pts)"] = 4096;
    c.size_bindings["len(dists)"] = 512;
    c.n_packets = 8;
    return c;
  }();
  static const double expected = [] {
    DiagnosticEngine diags;
    auto program = Parser::parse(config.source, diags);
    Sema sema(*program, diags);
    SemaResult sr = sema.run();
    Interpreter interp(sr.registry, config.runtime_constants);
    Env env = interp.run("Knn", "main");
    return as_double(env.get("dsum"));
  }();

  CompileOptions options;
  options.env = EnvironmentSpec::paper_cluster(param.width);
  options.runtime_constants = config.runtime_constants;
  options.size_bindings = config.size_bindings;
  options.n_packets = config.n_packets;
  CompileResult result = compile_pipeline(config.source, options);
  ASSERT_TRUE(result.ok) << result.diagnostics;

  const int n_filters = static_cast<int>(result.model.filters.size());
  Placement placement;
  for (int f = 0; f < n_filters; ++f) {
    int stage = f <= param.cut_a ? 0 : (f <= param.cut_b ? 1 : 2);
    placement.unit_of_filter.push_back(stage);
  }
  PipelineRunResult run =
      result.make_runner(placement, options.env).run();
  ASSERT_TRUE(run.finals.count("dsum"));
  EXPECT_NEAR(as_double(run.finals.at("dsum")), expected,
              1e-6 * std::max(1.0, std::abs(expected)))
      << placement.to_string() << " width " << param.width;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelinePlacementProperty,
    ::testing::Values(E2ECase{1, -1, -1}, E2ECase{1, -1, 0}, E2ECase{1, 0, 0},
                      E2ECase{1, 0, 1}, E2ECase{1, 1, 1}, E2ECase{1, 1, 2},
                      E2ECase{2, 0, 1}, E2ECase{2, -1, 2}, E2ECase{4, 0, 0},
                      E2ECase{4, 1, 1}));

// ---------------------------------------------------------------------------
// Generated pipelines: oracle vs compiled pipeline vs lowered executor
// ---------------------------------------------------------------------------

/// Pre-loop setup drawn for the parallel-setup seeds: `m` points and
/// weights, above the executor's split threshold, filled by generated range
/// foreach loops over [0 : m - 1], each drawn independent (the rule must
/// split it) or not (a carried value, a neighbour access, a pre-loop
/// object's field, a reduction-style method or a break: it must stay
/// sequential). A sequential digest of every element feeds `data`.
struct PreloopDraw {
  std::string setup;              // statements before `data`
  std::string fill;               // added to each `data[i]`
  std::vector<bool> independent;  // per top-level foreach, in order
};

const std::int64_t kSetupItems = 3 * Executor::kMinChunk + 17;

PreloopDraw random_preloop(Rng& rng) {
  PreloopDraw out;
  std::string& t = out.setup;
  t += "    int m = runtime_define_setup_items;\n"
       "    double[] aux = new double[m];\n"
       "    Pt[] pts = new Pt[m];\n"
       "    Box box = new Box();\n"
       "    foreach (i in [0 : m - 1]) {\n"
       "      Pt q = new Pt(i * 0.25);\n"
       "      q.y = wave(i);\n"
       "      pts[i] = q;\n"
       "      aux[i] = (i % 11) * 0.5;\n"
       "    }\n";
  out.independent.push_back(true);
  const int loops = 1 + static_cast<int>(rng.next_below(3));
  for (int k = 0; k < loops; ++k) {
    const bool independent = rng.next_below(2) == 0;
    const std::string c = std::to_string(1 + rng.next_below(9));
    std::string body;
    if (independent) {
      switch (rng.next_below(5)) {
        case 0:
          body = "aux[i] = aux[i] * 0.5 + (i % " + c + ") * 0.25;";
          break;
        case 1:
          body = "Pt q = new Pt(aux[i]); q.y = pts[i].y + wave(i + " + c +
                 "); pts[i] = q;";
          break;
        case 2:
          body = "double s = 0.0; for (int k = 0; k < " + c +
                 "; k++) { s = s + k * 0.5; } aux[i] = aux[i] + s;";
          break;
        case 3:
          body = "if (i % " + c + " == 0) { aux[i] = -aux[i]; } else { " +
                 "aux[i] = aux[i] + pts[i].x; }";
          break;
        default:
          body = "double[] tmp = new double[2]; tmp[0] = i; tmp[1] = aux[i]; "
                 "aux[i] = tmp[0] * 0.125 + tmp[1];";
          break;
      }
    } else {
      const std::string carry = "carry" + std::to_string(k);
      switch (rng.next_below(6)) {
        case 0:
          body = "if (i > 0) { aux[i] = aux[i] + aux[i - 1] * 0.5; }";
          break;
        case 1:
          t += "    double " + carry + " = 0.0;\n";
          body = carry + " = " + carry + " * 0.5 + aux[i]; aux[i] = " + carry +
                 ";";
          break;
        case 2:
          body = "box.total = box.total * 0.5 + aux[i]; aux[i] = box.total;";
          break;
        case 3:
          body = "box.add(aux[i]); aux[i] = aux[i] + box.total * 0.001;";
          break;
        case 4:
          body = "if (i + 1 < m) { aux[i + 1] = aux[i] * 0.5 + " + c +
                 ".0; }";
          break;
        default:
          body = "if (aux[i] > " + c + "0.0) { break; } aux[i] = aux[i] * 2.0;";
          break;
      }
    }
    t += "    foreach (i in [0 : m - 1]) {\n      " + body + "\n    }\n";
    out.independent.push_back(independent);
  }
  t += "    double digest = 0.0;\n"
       "    for (int k = 0; k < m; k++) {\n"
       "      digest = digest + aux[k] * ((k % 7) + 1) + pts[k].x - pts[k].y;\n"
       "    }\n";
  out.fill = " + aux[(i * 37) % m] * 0.001 + digest * 0.000000001";
  out.independent.push_back(true);  // the `data` fill reads aux anywhere
  return out;
}

/// A whole dialect program around generated stages: a data host fills
/// `data`, each packet seeds v0 from its slice, runs `stages` generated
/// foreach stages (ControlFlow shapes), and reduces into `acc`. With
/// `preloop`, a generated pre-loop setup (drawn after the stages) feeds
/// `data`.
std::string random_pipeline_program(Rng& rng, int stages,
                                    PreloopDraw* preloop = nullptr) {
  const int n_arrays = 2 + static_cast<int>(rng.next_below(3));
  std::string body;
  for (int a = 0; a < n_arrays; ++a)
    body += "      double[] v" + std::to_string(a) + " = new double[psize];\n";
  body +=
      "      foreach (i in [base : base + psize - 1]) {\n"
      "        v0[i - base] = data[i];\n"
      "      }\n";
  for (int s = 0; s < stages; ++s)
    body += random_stage(rng, n_arrays, "psize", Shapes::ControlFlow, "      ");
  body +=
      "      foreach (j in [0 : psize - 1]) {\n"
      "        acc.add(v0[j] + v" + std::to_string(n_arrays - 1) + "[j]);\n"
      "      }\n";
  std::string classes;
  std::string methods;
  if (preloop) {
    *preloop = random_preloop(rng);
    classes =
        "class Pt {\n"
        "  double x; double y;\n"
        "  Pt(double x0) { x = x0; y = 0.0; }\n"
        "}\n"
        "class Box {\n"
        "  double total;\n"
        "  void add(double v) { total = total * 0.5 + v; }\n"
        "}\n";
    methods =
        "  double wave(int x) {\n"
        "    double t = x * 0.01;\n"
        "    return sin(t) * 3.0 + t;\n"
        "  }\n";
  }
  return R"(
interface Reducinterface { }
class Acc implements Reducinterface {
  double total;
  int hits;
  Acc() { total = 0.0; hits = 0; }
  void add(double v) {
    total = total + v;
    if (v > 2.0) { hits = hits + 1; }
  }
  void merge(Acc other) { total = total + other.total; hits = hits + other.hits; }
}
)" + classes + "class Gen {\n" + methods + R"(  void main() {
    int n = runtime_define_num_items;
    int npackets = runtime_define_num_packets;
    int psize = n / npackets;
)" + (preloop ? preloop->setup : "") + R"(    double[] data = new double[n];
    foreach (i in [0 : n - 1]) { data[i] = (i % 13) * 0.375)" +
         (preloop ? preloop->fill : "") + R"(; }
    Acc acc = new Acc();
    PipelinedLoop (p in [0 : npackets - 1]) {
      int base = p * psize;
)" + body + R"(    }
    double result = acc.total;
    int hits = acc.hits;
  }
}
)";
}

std::vector<unsigned char> serialized(const Value& value) {
  dc::Buffer buffer;
  write_value(buffer, value);
  const auto* data = reinterpret_cast<const unsigned char*>(buffer.data());
  return std::vector<unsigned char>(data, data + buffer.size());
}

/// Per-stage op counts of the plans' statement lists executed in one
/// sequential environment: the pre-loop code, then every packet through
/// every stage's statements in order. Each stage keeps its own running
/// counter, charged like a compiled stage: setup is free, and the data
/// stage pays `source_io_ops` per packet before its statements.
std::vector<double> walk_stages_tree(const CompileResult& compiled,
                                     const std::vector<StagePlan>& plans,
                                     double source_io_ops) {
  const PipelineModel& model = compiled.model;
  std::vector<Interpreter> stages(
      plans.size(), Interpreter(model.registry, compiled.runtime_constants));
  Env env;
  stages.front().exec_stmts(model.before, env);
  const Value domain = stages.front().eval(*model.loop->domain, env);
  stages.front().reset_ops();
  const auto& dom = std::get<RectDomainVal>(domain);
  for (std::int64_t p = dom.lo; p <= dom.hi; ++p) {
    env.push();
    env.declare(model.loop_var, p);
    stages.front().add_external_ops(source_io_ops);
    for (std::size_t s = 0; s < plans.size(); ++s)
      stages[s].exec_stmts(plans[s].stmts, env);
    env.pop();
  }
  std::vector<double> ops;
  for (const Interpreter& interp : stages) ops.push_back(interp.ops());
  return ops;
}

std::vector<double> walk_stages_lowered(const CompileResult& compiled,
                                        const std::vector<StagePlan>& plans,
                                        double source_io_ops) {
  const PipelineModel& model = compiled.model;
  const auto code = lower_pipeline(model, plans, compiled.runtime_constants);
  std::vector<Executor> stages(plans.size(), Executor(*code->program));
  StageFrame frame(code->frame);
  const lowered::StageCode& source = code->stages.front();
  stages.front().exec_stmts(source.before, frame);
  const Value domain = stages.front().eval(*source.domain, frame);
  stages.front().reset_ops();
  const auto& dom = std::get<RectDomainVal>(domain);
  for (std::int64_t p = dom.lo; p <= dom.hi; ++p) {
    frame.push();
    frame.declare(model.loop_var, p);
    stages.front().add_external_ops(source_io_ops);
    for (std::size_t s = 0; s < plans.size(); ++s)
      stages[s].exec_stmts(code->stages[s].stmts, frame);
    frame.pop();
  }
  std::vector<double> ops;
  for (const Executor& exec : stages) ops.push_back(exec.ops());
  return ops;
}

class GeneratedPipelineProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

/// Seeds from here on also draw a pre-loop setup (random_preloop).
constexpr std::uint64_t kFirstPreloopSeed = 300;

TEST_P(GeneratedPipelineProperty, OracleCompiledAndLoweredAgree) {
  Rng rng(GetParam());
  const int stages = 2 + static_cast<int>(rng.next_below(4));
  PreloopDraw preloop;
  const bool with_preloop = GetParam() >= kFirstPreloopSeed;
  const std::string source =
      random_pipeline_program(rng, stages, with_preloop ? &preloop : nullptr);
  const std::int64_t items = 96, packets = 6, psize = items / packets;

  DiagnosticEngine diags;
  auto program = Parser::parse(source, diags);
  Sema sema(*program, diags);
  SemaResult sr = sema.run();
  ASSERT_TRUE(sr.ok) << diags.render() << "\n" << source;
  CompileOptions options;
  options.env = EnvironmentSpec::paper_cluster(1);
  options.runtime_constants = {{"runtime_define_num_items", items},
                               {"runtime_define_num_packets", packets}};
  if (with_preloop)
    options.runtime_constants["runtime_define_setup_items"] = kSetupItems;
  options.size_bindings = {{"n", items}, {"npackets", packets},
                           {"psize", psize}, {"base", 0},
                           {"len(data)", items}};
  for (int a = 0; a < 5; ++a)
    options.size_bindings["len(v" + std::to_string(a) + ")"] = psize;
  options.n_packets = packets;
  CompileResult compiled = compile_pipeline(source, options);
  ASSERT_TRUE(compiled.ok) << compiled.diagnostics << "\n" << source;

  Interpreter oracle(sr.registry, options.runtime_constants);
  const std::map<std::string, Value> want = oracle.run("Gen", "main").flatten();

  if (with_preloop) {
    // The rule splits exactly the loops drawn independent, and the lowered
    // setup counts the tree-walker's ops and builds its bindings.
    const PipelineModel& model = compiled.model;
    const auto code = lower_pipeline(
        model,
        compiled.make_runner(compiled.decomposition.placement, options.env)
            .plans(),
        compiled.runtime_constants);
    std::vector<bool> marked;
    for (std::size_t k = 0; k < model.before.size(); ++k) {
      if (model.before[k]->kind != NodeKind::ForeachStmt) continue;
      marked.push_back(independent_preloop_loop(model.registry, model.before,
                                                k));
      EXPECT_EQ(code->stages[0].before[k]->parallel, marked.back())
          << "before[" << k << "]\n" << source;
    }
    EXPECT_EQ(marked, preloop.independent) << source;

    Interpreter tree(model.registry, compiled.runtime_constants);
    Env env;
    tree.exec_stmts(model.before, env);
    Executor exec(*code->program);
    StageFrame frame(code->frame);
    exec.exec_stmts(code->stages[0].before, frame);
    EXPECT_TRUE(exec.ops() == tree.ops())
        << exec.ops() << " vs " << tree.ops() << "\n" << source;
    EXPECT_EQ(serialized(frame.flatten().at("digest")),
              serialized(env.flatten().at("digest")))
        << source;
  }

  // The compiled pipeline under the compiler's placement delivers the
  // oracle's results, bit for bit.
  const PipelineRunResult run =
      compiled.make_runner(compiled.decomposition.placement, options.env)
          .run();
  for (const char* key : {"result", "hits"}) {
    ASSERT_TRUE(run.finals.count(key)) << key << "\n" << source;
    EXPECT_EQ(serialized(run.finals.at(key)), serialized(want.at(key)))
        << key << " = " << value_to_string(run.finals.at(key)) << " vs "
        << value_to_string(want.at(key)) << "\n" << source;
  }

  // Every stage's statements count the same ops under the lowered executor
  // as under the tree-walker.
  const std::vector<StagePlan> plans =
      compiled.make_runner(compiled.decomposition.placement, options.env)
          .plans();
  const double io = compiled.decomp_input.source_io_ops;
  const std::vector<double> tree = walk_stages_tree(compiled, plans, io);
  EXPECT_EQ(walk_stages_lowered(compiled, plans, io), tree) << source;

  // With every filter on the data stage and the codec charged nothing, the
  // compiled source stage's measured ops are exactly that sequential walk.
  Placement on_source = compiled.decomposition.placement;
  std::fill(on_source.unit_of_filter.begin(), on_source.unit_of_filter.end(),
            0);
  on_source.replicas.clear();
  PackCost free_codec;
  free_codec.ops_per_byte = 0.0;
  free_codec.ops_per_buffer = 0.0;
  free_codec.passthrough_ops_per_byte = 0.0;
  PipelineCompiler runner =
      compiled.make_runner(on_source, options.env, free_codec);
  const std::vector<double> source_walk =
      walk_stages_tree(compiled, runner.plans(), io);
  const PipelineRunResult all_on_source = runner.run();
  EXPECT_TRUE(all_on_source.stage_ops.front() == source_walk.front())
      << all_on_source.stage_ops.front() << " vs " << source_walk.front()
      << "\n" << source;
  EXPECT_EQ(serialized(all_on_source.finals.at("result")),
            serialized(want.at("result")))
      << source;
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedPipelineProperty,
                         ::testing::Range<std::uint64_t>(200, 216));
INSTANTIATE_TEST_SUITE_P(PreloopSeeds, GeneratedPipelineProperty,
                         ::testing::Range<std::uint64_t>(kFirstPreloopSeed,
                                                         kFirstPreloopSeed +
                                                             12));

}  // namespace
}  // namespace cgp
