// Replication ablation (ROADMAP item 1): measured effect of per-stage
// transparent replication on a pipeline whose hot stage is stateless. The
// tiny app is scaled until the per-packet work dwarfs the link costs, then
// each replica count in {1, 2, 4} x transport batch in {1, 64} runs for
// real on the threaded runtime (exact per-packet ops and communicated
// bytes) and is timed on the paper's cluster model by the discrete-event
// simulator — the same real-run/simulated-time substitution the figure
// benches use (DESIGN.md §5), which is what makes replica speedups
// observable on a single-core container. A final section lets the
// decomposition DP choose the plan itself (--max-replicas=4 equivalent)
// and compares it against the best single-copy decomposition. Emits
// BENCH_replication.json (schema cgpipe-bench-replication-v1) for the CI
// bench-smoke artifact; the acceptance bar is a DP-chosen r > 1 whose
// measured (simulated) throughput beats the best single-copy cell.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "apps/app_configs.h"
#include "driver/compiler.h"
#include "driver/simulate.h"
#include "support/json.h"

namespace {

using namespace cgp;

constexpr std::int64_t kItems = 1 << 20;
constexpr std::int64_t kPackets = 16;

const int kReplicas[] = {1, 2, 4};
const std::size_t kBatches[] = {1, 64};

CompileResult compile_tiny(int max_replicas, CompileOptions& options) {
  apps::AppConfig config = apps::tiny_config(kItems, kPackets);
  options = CompileOptions{};
  options.env = EnvironmentSpec::paper_cluster(1);
  options.runtime_constants = config.runtime_constants;
  options.size_bindings = config.size_bindings;
  options.n_packets = config.n_packets;
  options.max_replicas = max_replicas;
  if (max_replicas > 1)
    options.replication_overhead_sec = options.env.links.front().latency_sec;
  CompileResult result = compile_pipeline(config.source, options);
  if (!result.ok) {
    std::fprintf(stderr, "compile failed:\n%s\n", result.diagnostics.c_str());
    std::exit(1);
  }
  return result;
}

struct Cell {
  int replicas = 0;
  std::size_t batch = 0;
  std::string placement;
  double wall_seconds = 0.0;
  double simulated_seconds = 0.0;
  double packets_per_sec = 0.0;  // on the simulated cluster
};

Cell run_cell(const CompileResult& result, const CompileOptions& options,
              const Placement& placement, int replicas, std::size_t batch) {
  Cell cell;
  cell.replicas = replicas;
  cell.batch = batch;
  cell.placement = placement.to_string();
  dc::RunnerConfig transport;
  transport.batch_size = batch;
  const auto start = std::chrono::steady_clock::now();
  PipelineRunResult run =
      result.make_runner(placement, options.env, {}, transport).run();
  cell.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (!run.completed) {
    std::fprintf(stderr, "run failed: %s\n", run.error.c_str());
    std::exit(1);
  }
  cell.simulated_seconds = simulate_run(run, options.env);
  cell.packets_per_sec =
      static_cast<double>(run.packets) / cell.simulated_seconds;
  return cell;
}

/// The sweep placement: the single-copy decomposition with `r` transparent
/// copies forced onto every classifier-approved non-sink stage.
Placement forced_plan(const CompileResult& result, int replicas) {
  Placement placement = result.decomposition.placement;
  const std::vector<char> flags = result.classification.parallel_flags();
  const std::size_t stages = result.decomp_input.env.units.size();
  placement.replicas.assign(stages, 1);
  if (replicas <= 1) {
    placement.replicas.clear();
    return placement;
  }
  for (std::size_t s = 0; s + 1 < stages; ++s) {
    bool parallel = true;
    for (std::size_t i = 0; i < flags.size(); ++i) {
      if (placement.unit_of_filter[i] == static_cast<int>(s) && !flags[i])
        parallel = false;
    }
    if (parallel) placement.replicas[s] = replicas;
  }
  return placement;
}

void sweep_and_emit() {
  CompileOptions single_options;
  CompileResult single = compile_tiny(/*max_replicas=*/1, single_options);
  CompileOptions dp_options;
  CompileResult planned = compile_tiny(/*max_replicas=*/4, dp_options);

  std::printf(
      "=== Replication ablation (tiny app, %lld items, %lld packets, "
      "width-1 cluster) ===\n",
      static_cast<long long>(kItems), static_cast<long long>(kPackets));
  std::printf("%-9s %-7s %-32s %10s %10s %12s\n", "replicas", "batch",
              "placement", "wall(s)", "sim(s)", "pkts/s(sim)");

  std::vector<Cell> cells;
  double best_single_sim = 1e30;
  for (int replicas : kReplicas) {
    Placement placement = forced_plan(single, replicas);
    for (std::size_t batch : kBatches) {
      Cell cell = run_cell(single, single_options, placement, replicas, batch);
      std::printf("%-9d %-7zu %-32s %10.4f %10.4f %12.0f\n", cell.replicas,
                  cell.batch, cell.placement.c_str(), cell.wall_seconds,
                  cell.simulated_seconds, cell.packets_per_sec);
      if (replicas == 1 && cell.simulated_seconds < best_single_sim)
        best_single_sim = cell.simulated_seconds;
      cells.push_back(cell);
    }
  }

  // The DP's own choice under a budget of 4.
  const Placement& dp_plan = planned.decomposition.placement;
  Cell dp_cell = run_cell(planned, dp_options, dp_plan,
                          /*replicas=*/0, /*batch=*/1);
  const double speedup = best_single_sim / dp_cell.simulated_seconds;
  std::printf(
      "\nDP plan (budget 4): %s — simulated %.4f s vs best single-copy "
      "%.4f s => %.2fx\n\n",
      dp_plan.to_string().c_str(), dp_cell.simulated_seconds, best_single_sim,
      speedup);

  support::Json::Array cell_array;
  for (const Cell& cell : cells) {
    support::Json obj{support::Json::Object{}};
    obj.set("replicas", support::Json(cell.replicas));
    obj.set("batch_size", support::Json(cell.batch));
    obj.set("placement", support::Json(cell.placement));
    obj.set("wall_seconds", support::Json(cell.wall_seconds));
    obj.set("simulated_seconds", support::Json(cell.simulated_seconds));
    obj.set("packets_per_sec", support::Json(cell.packets_per_sec));
    cell_array.emplace_back(std::move(obj));
  }
  support::Json dp_obj{support::Json::Object{}};
  dp_obj.set("placement", support::Json(dp_plan.to_string()));
  dp_obj.set("replicated", support::Json(dp_plan.replicated()));
  dp_obj.set("simulated_seconds", support::Json(dp_cell.simulated_seconds));
  dp_obj.set("best_single_copy_seconds", support::Json(best_single_sim));
  dp_obj.set("speedup_vs_best_single_copy", support::Json(speedup));
  support::Json root{support::Json::Object{}};
  root.set("schema", support::Json("cgpipe-bench-replication-v1"));
  root.set("app", support::Json("tiny"));
  root.set("items", support::Json(kItems));
  root.set("packets", support::Json(kPackets));
  root.set("cells", support::Json(std::move(cell_array)));
  root.set("dp_plan", support::Json(std::move(dp_obj)));

  std::ofstream out("BENCH_replication.json");
  out << support::Json(std::move(root)).dump(2) << "\n";
  std::printf("wrote BENCH_replication.json\n\n");

  if (!dp_plan.replicated() || speedup <= 1.0) {
    std::fprintf(stderr,
                 "acceptance failure: DP plan %s (replicated=%d) speedup "
                 "%.3fx\n",
                 dp_plan.to_string().c_str(), dp_plan.replicated() ? 1 : 0,
                 speedup);
    std::exit(1);
  }
}

void BM_ReplicatedRun(benchmark::State& state) {
  const int replicas = static_cast<int>(state.range(0));
  CompileOptions options;
  CompileResult result = compile_tiny(/*max_replicas=*/1, options);
  Placement placement = forced_plan(result, replicas);
  for (auto _ : state) {
    PipelineRunResult run =
        result.make_runner(placement, options.env, {}, {}).run();
    benchmark::DoNotOptimize(run.packets);
  }
}
BENCHMARK(BM_ReplicatedRun)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  sweep_and_emit();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
