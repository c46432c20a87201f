// Source setup sharing: the may-write rule that decides which pre-loop
// bindings the source stage's copies share by pointer
// (analysis/may_write.h), and the compiled pipeline that synthesizes the
// setup once per process and builds every source copy's frame from it.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "analysis/may_write.h"
#include "apps/app_configs.h"
#include "codegen/interp.h"
#include "codegen/serialize.h"
#include "driver/compiler.h"
#include "parser/parser.h"
#include "sema/sema.h"

namespace cgp {
namespace {

/// A program whose pre-loop code builds `cells` (objects) and `arr` (ints);
/// `body` is the PipelinedLoop body. `result` sums what the body adds.
std::string program(const std::string& body, const std::string& setup = "") {
  return R"(
interface Reducinterface { }
class Cell {
  int v;
  void bump() { v = v + 1; }
  int get() { return v; }
}
class Acc implements Reducinterface {
  long total;
  Acc() { total = 0; }
  void add(int x) { total = total + x; }
  void merge(Acc other) { total = total + other.total; }
}
class Share {
  void main() {
    int n = runtime_define_num_items;
    int npackets = runtime_define_num_packets;
    int psize = n / npackets;
    Cell[] cells = new Cell[n];
    int[] arr = new int[n];
    foreach (i in [0 : n - 1]) {
      Cell c = new Cell();
      c.v = i * 3;
      cells[i] = c;
      arr[i] = i;
    }
)" + setup + R"(
    Acc acc = new Acc();
    PipelinedLoop (p in [0 : npackets - 1]) {
      int base = p * psize;
)" + body + R"(
    }
    long result = acc.total;
  }
}
)";
}

/// unwritten_preloop_bindings over the whole packet body.
std::set<std::string> unwritten(const std::string& body) {
  DiagnosticEngine diags;
  std::unique_ptr<Program> ast = Parser::parse(program(body), diags);
  PipelineModel model = build_pipeline_model(*ast, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.render();
  std::vector<const Stmt*> stmts;
  for (const AtomicFilter& f : model.filters)
    stmts.insert(stmts.end(), f.stmts.begin(), f.stmts.end());
  return unwritten_preloop_bindings(model, stmts);
}

using Names = std::set<std::string>;

TEST(MayWrite, ReadOnlyCodeSharesEveryDataset) {
  EXPECT_EQ(unwritten(R"(
      foreach (i in [base : base + psize - 1]) {
        acc.add(cells[i].get() + arr[i]);
      })"),
            (Names{"arr", "cells"}));
}

TEST(MayWrite, WriteThroughAnAliasBlocksSharing) {
  EXPECT_EQ(unwritten(R"(
      foreach (i in [base : base + psize - 1]) {
        Cell c = cells[i];
        c.v = c.v + 1;
        acc.add(c.v);
      })"),
            (Names{"arr"}));
}

TEST(MayWrite, WriteInsideAMethodOnAPreloopReceiverBlocksSharing) {
  EXPECT_EQ(unwritten(R"(
      foreach (i in [base : base + psize - 1]) {
        cells[i].bump();
        acc.add(arr[i]);
      })"),
            (Names{"arr"}));
}

TEST(MayWrite, DirectIndexStoreBlocksSharing) {
  EXPECT_EQ(unwritten(R"(
      foreach (i in [base : base + psize - 1]) {
        arr[i] = arr[i] + 1;
        acc.add(arr[i]);
      })"),
            (Names{"cells"}));
}

TEST(MayWrite, RebindingAFreshLocalBlocksSharing) {
  EXPECT_EQ(unwritten(R"(
      int[] t = new int[psize];
      t = arr;
      t[base] = 5;
      acc.add(t[base]);)"),
            (Names{"cells"}));
}

TEST(MayWrite, StoreIntoAFreshPacketLocalArrayKeepsSharing) {
  EXPECT_EQ(unwritten(R"(
      int[] t = new int[psize];
      foreach (i in [base : base + psize - 1]) {
        t[i - base] = arr[i] + cells[i].get();
      }
      foreach (j in [0 : psize - 1]) {
        acc.add(t[j]);
      })"),
            (Names{"arr", "cells"}));
}

/// The four paper apps: the rule clears each big dataset even against the
/// whole packet body, and the compiled source stage shares it at width 2
/// while its reduction replicas stay per copy.
TEST(MayWrite, PaperAppsShareTheirDatasets) {
  struct Case {
    apps::AppConfig config;
    std::string dataset;
    std::string replica;
  };
  const Case cases[] = {
      {apps::isosurface_zbuffer_config(false), "cubes", "zbuf"},
      {apps::isosurface_active_pixels_config(false), "cubes", "zbuf"},
      {apps::knn_config(3), "pts", "res"},
      {apps::vmscope_config(false), "img", "result"},
  };
  for (const Case& c : cases) {
    CompileOptions options;
    options.env = EnvironmentSpec::paper_cluster(2);
    options.runtime_constants = c.config.runtime_constants;
    options.size_bindings = c.config.size_bindings;
    options.n_packets = c.config.n_packets;
    CompileResult result = compile_pipeline(c.config.source, options);
    ASSERT_TRUE(result.ok) << c.config.name << ": " << result.diagnostics;
    std::vector<const Stmt*> body;
    for (const AtomicFilter& f : result.model.filters)
      body.insert(body.end(), f.stmts.begin(), f.stmts.end());
    EXPECT_EQ(unwritten_preloop_bindings(result.model, body).count(c.dataset),
              1u)
        << c.config.name;
    const PipelineCompiler compiler =
        result.make_runner(result.decomposition.placement, options.env);
    const std::set<std::string>& shared = compiler.plans()[0].shared_setup;
    EXPECT_EQ(shared.count(c.dataset), 1u) << c.config.name;
    EXPECT_EQ(shared.count(c.replica), 0u) << c.config.name;
  }
}

// ---- the compiled pipeline ---------------------------------------------

const std::map<std::string, std::int64_t> kConstants = {
    {"runtime_define_num_items", 64},
    {"runtime_define_num_packets", 8},
};

/// A source stage that writes through an alias into the pre-loop array.
/// Each packet touches its own cells once, so the sequential result is
/// reproduced exactly only if every source copy (and every restart of one)
/// starts from the pristine setup.
const char* kAliasBody = R"(
      foreach (i in [base : base + psize - 1]) {
        Cell c = cells[i];
        c.v = c.v + 1;
        acc.add(c.v);
      })";

Value oracle_result(const std::string& source) {
  DiagnosticEngine diags;
  auto ast = Parser::parse(source, diags);
  Sema sema(*ast, diags);
  SemaResult checked = sema.run();
  EXPECT_TRUE(checked.ok) << diags.render();
  Interpreter interp(checked.registry, kConstants);
  return interp.run("Share", "main").flatten().at("result");
}

CompileResult compile_width2(const std::string& source) {
  CompileOptions options;
  options.env = EnvironmentSpec::paper_cluster(2);
  options.runtime_constants = kConstants;
  options.size_bindings = {{"n", 64}, {"npackets", 8}, {"psize", 8}};
  options.n_packets = 8;
  CompileResult result = compile_pipeline(source, options);
  EXPECT_TRUE(result.ok) << result.diagnostics;
  return result;
}

/// Every filter on the source stage: its two copies run the whole body.
PipelineCompiler source_heavy_runner(const CompileResult& result,
                                     dc::TransportBackend backend) {
  Placement placement;
  placement.unit_of_filter.assign(result.model.filters.size(), 0);
  dc::RunnerConfig transport;
  transport.backend = backend;
  return result.make_runner(placement, EnvironmentSpec::paper_cluster(2), {},
                            transport);
}

std::vector<unsigned char> bytes_of(const Value& value) {
  dc::Buffer buffer;
  write_value(buffer, value);
  const auto* data = reinterpret_cast<const unsigned char*>(buffer.data());
  return {data, data + buffer.size()};
}

void expect_alias_writes_conform(dc::TransportBackend backend) {
  const std::string source = program(kAliasBody);
  const Value oracle = oracle_result(source);
  CompileResult result = compile_width2(source);
  ASSERT_TRUE(result.ok);
  PipelineCompiler compiler = source_heavy_runner(result, backend);
  EXPECT_EQ(compiler.plans()[0].shared_setup.count("cells"), 0u);
  EXPECT_EQ(compiler.plans()[0].shared_setup.count("arr"), 1u);
  const PipelineRunResult first = compiler.run();
  ASSERT_TRUE(first.completed) << first.error;
  EXPECT_EQ(first.stage_replicas[0], 2);
  // Setup time is its own layer, on every backend.
  EXPECT_GT(first.stage_metrics[0].setup_seconds, 0.0);
  EXPECT_EQ(bytes_of(first.finals.at("result")), bytes_of(oracle))
      << value_to_string(first.finals.at("result")) << " vs "
      << value_to_string(oracle);
  const PipelineRunResult second = compiler.run();
  ASSERT_TRUE(second.completed) << second.error;
  EXPECT_EQ(bytes_of(second.finals.at("result")),
            bytes_of(first.finals.at("result")));
}

TEST(SourceSetupSharing, AliasWritesAtWidth2MatchOracleThread) {
  expect_alias_writes_conform(dc::TransportBackend::kThread);
}

TEST(SourceSetupSharing, AliasWritesAtWidth2MatchOracleProc) {
  expect_alias_writes_conform(dc::TransportBackend::kProc);
}

TEST(SourceSetupSharing, RestartedSourceCopyStartsFromPristineSetupThread) {
  const std::string source = program(kAliasBody);
  const Value oracle = oracle_result(source);
  CompileResult result = compile_width2(source);
  ASSERT_TRUE(result.ok);
  PipelineCompiler compiler =
      source_heavy_runner(result, dc::TransportBackend::kThread);
  dc::FaultPolicy policy;
  policy.action = dc::FaultAction::kRestartCopy;
  compiler.set_fault_policy(policy);
  // Copy 0 dies emitting its third packet, after that packet's writes: the
  // restarted instance recomputes its whole share from the setup.
  compiler.set_packet_hook([](const std::string& group, int copy, int attempt,
                              std::int64_t packet, dc::Buffer*) {
    if (group == "stage0" && copy == 0 && attempt == 0 && packet == 2)
      throw std::runtime_error("injected source fault");
  });
  const PipelineRunResult run = compiler.run();
  ASSERT_TRUE(run.completed) << run.error;
  ASSERT_EQ(run.faults.size(), 1u);
  EXPECT_EQ(bytes_of(run.finals.at("result")), bytes_of(oracle))
      << value_to_string(run.finals.at("result")) << " vs "
      << value_to_string(oracle);
}

/// `before` fails (index out of range) for every copy: the copy that ran
/// the synthesis and the copy waiting on it both report the error.
const char* kThrowingSetup = R"(
    int bad = arr[n + 5];
)";

TEST(SourceSetupSharing, SetupErrorReachesEveryCopyThread) {
  CompileResult result =
      compile_width2(program(kAliasBody, kThrowingSetup));
  ASSERT_TRUE(result.ok);
  {
    PipelineCompiler compiler =
        source_heavy_runner(result, dc::TransportBackend::kThread);
    dc::FaultPolicy policy;
    policy.action = dc::FaultAction::kRestartCopy;
    policy.max_retries = 0;
    compiler.set_fault_policy(policy);
    const PipelineRunResult run = compiler.run();
    EXPECT_FALSE(run.completed);
    std::set<int> failed_copies;
    for (const support::FaultRecord& fault : run.faults) {
      EXPECT_EQ(fault.group, "stage0");
      EXPECT_NE(fault.what.find("out of range"), std::string::npos)
          << fault.what;
      failed_copies.insert(fault.copy);
    }
    EXPECT_EQ(failed_copies, (std::set<int>{0, 1}));
  }
  PipelineCompiler fail_fast =
      source_heavy_runner(result, dc::TransportBackend::kThread);
  EXPECT_THROW(fail_fast.run(), std::exception);
}

}  // namespace
}  // namespace cgp
