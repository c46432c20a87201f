// Consistent-cut overhead under replication (the replica-aware
// exactly-once tentpole): throughput of a replicated source -> stateful
// mid -> stateful sink pipeline with run-level checkpoint cuts, swept
// over replicas {1, 2, 4} x checkpoint_interval {0, 16, 64}. Interval 0
// is the cut-free baseline; the other cells pay the full durable cut
// protocol — in-band marker broadcast to every copy, per-copy barrier
// alignment, per-copy snapshot parts, and the fsync'd atomic save of the
// v2 checkpoint file. Each cut's cost is dominated by that durable save,
// so the headline metric is the derived per-cut latency
//     (t_cell - t_baseline) / cuts
// which must stay flat as replica width grows (a cut that serialized
// per-copy alignment would scale with copies) and under 5 ms at interval
// 64. Emits BENCH_chaos.json (schema cgpipe-bench-chaos-v1) for the CI
// bench-smoke artifact.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "datacutter/runner.h"
#include "support/json.h"

namespace {

using namespace cgp;
using namespace cgp::dc;

constexpr std::size_t kStreamCapacity = 64;
constexpr std::size_t kBatch = 4;
constexpr std::size_t kPayload = 256;
constexpr std::int64_t kBuffers = 60000;
constexpr int kRepeats = 5;

const int kReplicas[] = {1, 2, 4};
const std::size_t kIntervals[] = {0, 16, 64};

class PayloadSource : public Filter {
 public:
  PayloadSource(std::int64_t n, std::size_t bytes) : n_(n), bytes_(bytes) {}
  void process(FilterContext& ctx) override {
    const std::vector<std::byte> scratch(bytes_, std::byte{0x5a});
    for (std::int64_t i = 0; i < n_; ++i) {
      if (i % ctx.copy_count() != ctx.copy_index()) continue;
      Buffer b = ctx.acquire_buffer(bytes_);
      b.write_bytes(scratch.data(), bytes_);
      ctx.emit(std::move(b));
    }
  }

 private:
  std::int64_t n_;
  std::size_t bytes_;
};

/// Stateful relay: forwards every packet and carries a running byte total,
/// so each copy contributes a real snapshot part to every cut.
class CountingRelay : public Filter {
 public:
  void process(FilterContext& ctx) override {
    while (auto b = ctx.read()) {
      bytes_ += static_cast<std::int64_t>(b->size());
      ctx.emit(std::move(*b));
    }
  }
  bool snapshot_state(Buffer& out) override {
    out.write<std::int64_t>(bytes_);
    return true;
  }
  void restore_state(Buffer& in) override { bytes_ = in.read<std::int64_t>(); }

 private:
  std::int64_t bytes_ = 0;
};

class CountingSink : public Filter {
 public:
  void process(FilterContext& ctx) override {
    while (auto b = ctx.read()) {
      bytes_ += static_cast<std::int64_t>(b->size());
      count_ += 1;
      benchmark::DoNotOptimize(bytes_);
      ctx.recycle(std::move(*b));
    }
  }
  bool snapshot_state(Buffer& out) override {
    out.write<std::int64_t>(bytes_);
    out.write<std::int64_t>(count_);
    return true;
  }
  void restore_state(Buffer& in) override {
    bytes_ = in.read<std::int64_t>();
    count_ = in.read<std::int64_t>();
  }

 private:
  std::int64_t bytes_ = 0;
  std::int64_t count_ = 0;
};

struct Cell {
  int replicas = 1;
  std::size_t interval = 0;
  double seconds = 0.0;
  double buffers_per_sec = 0.0;
  std::int64_t cuts = 0;
  std::int64_t parts = 0;
};

Cell run_cell(int replicas, std::size_t interval) {
  Cell cell;
  cell.replicas = replicas;
  cell.interval = interval;
  cell.seconds = 1e30;
  const std::string path = "bench_chaos_cut_" + std::to_string(replicas) +
                           "_" + std::to_string(interval) + ".json";
  for (int rep = 0; rep < kRepeats; ++rep) {
    std::vector<FilterGroup> groups;
    groups.push_back({"source",
                      [] {
                        return std::make_unique<PayloadSource>(kBuffers,
                                                               kPayload);
                      },
                      replicas, 0});
    groups.push_back(
        {"mid", [] { return std::make_unique<CountingRelay>(); }, replicas,
         1});
    groups.push_back(
        {"sink", [] { return std::make_unique<CountingSink>(); }, replicas,
         2});
    RunnerConfig config;
    config.stream_capacity = kStreamCapacity;
    config.batch_size = kBatch;
    config.checkpoint_interval = interval;
    if (interval > 0) config.checkpoint_path = path;
    FaultPolicy policy;
    policy.action = FaultAction::kRestartCopy;
    PipelineRunner runner(std::move(groups), config, policy);
    const auto start = std::chrono::steady_clock::now();
    RunStats stats = runner.run();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (seconds < cell.seconds) {
      cell.seconds = seconds;
      cell.cuts = 0;
      cell.parts = 0;
      for (const support::CheckpointRecord& c : stats.checkpoints) {
        if (c.group != "run") continue;
        cell.cuts += 1;
        cell.parts += c.parts;
      }
    }
  }
  std::remove(path.c_str());
  cell.buffers_per_sec = static_cast<double>(kBuffers) / cell.seconds;
  return cell;
}

void sweep_and_emit() {
  std::printf(
      "=== Consistent-cut overhead (replicated src->mid->sink, payload %zu "
      "B, %lld buffers, batch %zu, best of %d) ===\n",
      kPayload, static_cast<long long>(kBuffers), kBatch, kRepeats);
  std::printf("%-10s %-10s %12s %14s %8s %8s\n", "replicas", "interval",
              "time(s)", "buffers/s", "cuts", "parts");
  std::vector<Cell> cells;
  for (int replicas : kReplicas) {
    for (std::size_t interval : kIntervals) {
      Cell cell = run_cell(replicas, interval);
      std::printf("%-10d %-10zu %12.4f %14.0f %8lld %8lld\n", cell.replicas,
                  cell.interval, cell.seconds, cell.buffers_per_sec,
                  static_cast<long long>(cell.cuts),
                  static_cast<long long>(cell.parts));
      cells.push_back(cell);
    }
  }

  // Acceptance summary: per-cut latency at interval 64, per replica width
  // — (t_cell - t_baseline) / cuts. The bar is the worst case staying
  // under 5 ms and, critically, flat in replica width: the barrier aligns
  // all copies of every stage on the same marker, so a protocol that
  // serialized per-copy work would show the cost growing with copies.
  support::Json::Array cut_array;
  double worst_cut_ms = 0.0;
  for (int replicas : kReplicas) {
    double baseline_s = 0.0;
    const Cell* at_64 = nullptr;
    for (const Cell& cell : cells) {
      if (cell.replicas != replicas) continue;
      if (cell.interval == 0) baseline_s = cell.seconds;
      if (cell.interval == 64) at_64 = &cell;
    }
    const double cut_ms =
        (at_64 != nullptr && at_64->cuts > 0)
            ? 1000.0 * (at_64->seconds - baseline_s) /
                  static_cast<double>(at_64->cuts)
            : 0.0;
    worst_cut_ms = std::max(worst_cut_ms, cut_ms);
    std::printf(
        "replicas %d: %.3f ms per durable cut at interval 64 (%lld cuts, "
        "%lld parts)\n",
        replicas, cut_ms,
        static_cast<long long>(at_64 != nullptr ? at_64->cuts : 0),
        static_cast<long long>(at_64 != nullptr ? at_64->parts : 0));
    support::Json obj{support::Json::Object{}};
    obj.set("replicas", support::Json(replicas));
    obj.set("cut_ms_at_interval_64", support::Json(cut_ms));
    cut_array.emplace_back(std::move(obj));
  }
  std::printf("\n");

  support::Json::Array cell_array;
  for (const Cell& cell : cells) {
    support::Json obj{support::Json::Object{}};
    obj.set("replicas", support::Json(cell.replicas));
    obj.set("checkpoint_interval", support::Json(cell.interval));
    obj.set("buffers", support::Json(kBuffers));
    obj.set("seconds", support::Json(cell.seconds));
    obj.set("buffers_per_sec", support::Json(cell.buffers_per_sec));
    obj.set("cuts", support::Json(cell.cuts));
    obj.set("parts", support::Json(cell.parts));
    cell_array.emplace_back(std::move(obj));
  }
  support::Json summary{support::Json::Object{}};
  summary.set("cut_costs", support::Json(std::move(cut_array)));
  summary.set("worst_cut_ms_at_interval_64", support::Json(worst_cut_ms));
  support::Json root{support::Json::Object{}};
  root.set("schema", support::Json("cgpipe-bench-chaos-v1"));
  root.set("pipeline", support::Json("source->mid->sink, uniform replicas"));
  root.set("payload_bytes", support::Json(kPayload));
  root.set("stream_capacity", support::Json(kStreamCapacity));
  root.set("batch_size", support::Json(kBatch));
  root.set("repeats", support::Json(kRepeats));
  root.set("cells", support::Json(std::move(cell_array)));
  root.set("summary", support::Json(std::move(summary)));

  std::ofstream out("BENCH_chaos.json");
  out << support::Json(std::move(root)).dump(2) << "\n";
  std::printf("wrote BENCH_chaos.json\n\n");
}

void BM_ConsistentCut(benchmark::State& state) {
  const auto replicas = static_cast<int>(state.range(0));
  const auto interval = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_cell(replicas, interval).buffers_per_sec);
  }
}
BENCHMARK(BM_ConsistentCut)
    ->Args({4, 0})
    ->Args({4, 64})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  sweep_and_emit();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
