// Checkpoint-overhead ablation (ISSUE 5): throughput of a source ->
// stateful-sink pipeline under restart-copy, swept over
// checkpoint_interval x payload size. Interval 0 is the no-checkpoint
// baseline; tight intervals snapshot the sink's state every few packets
// and show the serialization cost, loose intervals amortize it away.
// Emits the sweep as BENCH_checkpoint.json (schema
// cgpipe-bench-checkpoint-v1) for the CI bench-smoke artifact; the
// acceptance bar is <= 5% throughput loss at interval >= 64 versus the
// uncheckpointed baseline.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <vector>

#include "datacutter/runner.h"
#include "support/json.h"

namespace {

using namespace cgp;
using namespace cgp::dc;

constexpr std::size_t kStreamCapacity = 64;
constexpr std::size_t kBatch = 4;
constexpr int kRepeats = 5;
constexpr std::size_t kHistogramBins = 64;

const std::size_t kPayloads[] = {256, 4096};
const std::size_t kIntervals[] = {0, 1, 4, 16, 64, 256};

std::int64_t buffers_for(std::size_t payload) {
  // Enough traffic that per-snapshot cost is visible at interval 1 and a
  // cell runs long enough (tens of ms) for best-of-N to beat scheduler
  // noise, while the whole sweep stays inside the bench-smoke budget.
  return payload <= 256 ? 150000 : 100000;
}

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

/// A sink with genuinely checkpointable state: running byte totals plus a
/// size histogram, all serialized on every snapshot — the realistic cost a
/// stateful reduction stage pays per checkpoint.
class AccumulatingSink : public Filter {
 public:
  void process(FilterContext& ctx) override {
    while (auto b = ctx.read()) {
      bytes_ += static_cast<std::int64_t>(b->size());
      count_ += 1;
      histogram_[b->size() % kHistogramBins] += 1;
      benchmark::DoNotOptimize(bytes_);
      ctx.recycle(std::move(*b));
    }
  }
  bool snapshot_state(Buffer& out) override {
    out.write<std::int64_t>(bytes_);
    out.write<std::int64_t>(count_);
    for (std::int64_t bin : histogram_) out.write<std::int64_t>(bin);
    return true;
  }
  void restore_state(Buffer& in) override {
    bytes_ = in.read<std::int64_t>();
    count_ = in.read<std::int64_t>();
    for (std::int64_t& bin : histogram_) bin = in.read<std::int64_t>();
  }

 private:
  std::int64_t bytes_ = 0;
  std::int64_t count_ = 0;
  std::int64_t histogram_[kHistogramBins] = {};
};

struct Cell {
  std::size_t payload = 0;
  std::size_t interval = 0;
  std::int64_t buffers = 0;
  double seconds = 0.0;
  double buffers_per_sec = 0.0;
  double mb_per_sec = 0.0;
  std::int64_t checkpoints = 0;
};

Cell run_cell(std::size_t payload, std::size_t interval) {
  const std::int64_t buffers = buffers_for(payload);
  Cell cell;
  cell.payload = payload;
  cell.interval = interval;
  cell.buffers = buffers;
  cell.seconds = 1e30;
  for (int rep = 0; rep < kRepeats; ++rep) {
    std::vector<FilterGroup> groups;
    groups.push_back({"source",
                      [buffers, payload] {
                        return std::make_unique<PayloadSource>(buffers,
                                                               payload);
                      },
                      1, 0});
    groups.push_back(
        {"sink", [] { return std::make_unique<AccumulatingSink>(); }, 1, 1});
    RunnerConfig config;
    config.stream_capacity = kStreamCapacity;
    config.batch_size = kBatch;
    config.checkpoint_interval = interval;
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
      cell.checkpoints = stats.group_metrics[1].checkpoints;
    }
  }
  cell.buffers_per_sec = static_cast<double>(buffers) / cell.seconds;
  cell.mb_per_sec = cell.buffers_per_sec *
                    static_cast<double>(payload) / (1024.0 * 1024.0);
  return cell;
}

void sweep_and_emit() {
  std::printf(
      "=== Checkpoint overhead (source->stateful sink, restart-copy, "
      "batch %zu, best of %d) ===\n",
      kBatch, kRepeats);
  std::printf("%-10s %-10s %-10s %12s %14s %12s %12s\n", "payload",
              "interval", "buffers", "time(s)", "buffers/s", "MB/s",
              "checkpoints");
  std::vector<Cell> cells;
  for (std::size_t payload : kPayloads) {
    for (std::size_t interval : kIntervals) {
      Cell cell = run_cell(payload, interval);
      std::printf("%-10zu %-10zu %-10lld %12.4f %14.0f %12.1f %12lld\n",
                  cell.payload, cell.interval,
                  static_cast<long long>(cell.buffers), cell.seconds,
                  cell.buffers_per_sec, cell.mb_per_sec,
                  static_cast<long long>(cell.checkpoints));
      cells.push_back(cell);
    }
  }

  // Acceptance summary: throughput loss at interval 64 vs interval 0, per
  // payload; the bar is the worst case staying within 5%.
  support::Json::Array overhead_array;
  double worst_overhead = 0.0;
  for (std::size_t payload : kPayloads) {
    double baseline = 0.0;
    double at_64 = 0.0;
    for (const Cell& cell : cells) {
      if (cell.payload != payload) continue;
      if (cell.interval == 0) baseline = cell.buffers_per_sec;
      if (cell.interval == 64) at_64 = cell.buffers_per_sec;
    }
    const double overhead =
        baseline > 0.0 ? 1.0 - at_64 / baseline : 0.0;
    worst_overhead = std::max(worst_overhead, overhead);
    std::printf(
        "payload %zu B: interval 64 runs at %.1f%% of the uncheckpointed "
        "throughput (%.2f%% overhead)\n",
        payload, baseline > 0.0 ? 100.0 * at_64 / baseline : 0.0,
        100.0 * overhead);
    support::Json obj{support::Json::Object{}};
    obj.set("payload_bytes", support::Json(payload));
    obj.set("overhead_at_interval_64", support::Json(overhead));
    overhead_array.emplace_back(std::move(obj));
  }
  std::printf("\n");

  support::Json::Array cell_array;
  for (const Cell& cell : cells) {
    support::Json obj{support::Json::Object{}};
    obj.set("payload_bytes", support::Json(cell.payload));
    obj.set("checkpoint_interval", support::Json(cell.interval));
    obj.set("buffers", support::Json(cell.buffers));
    obj.set("seconds", support::Json(cell.seconds));
    obj.set("buffers_per_sec", support::Json(cell.buffers_per_sec));
    obj.set("mb_per_sec", support::Json(cell.mb_per_sec));
    obj.set("checkpoints", support::Json(cell.checkpoints));
    cell_array.emplace_back(std::move(obj));
  }
  support::Json summary{support::Json::Object{}};
  summary.set("overheads", support::Json(std::move(overhead_array)));
  summary.set("worst_overhead_at_interval_64", support::Json(worst_overhead));
  support::Json root{support::Json::Object{}};
  root.set("schema", support::Json("cgpipe-bench-checkpoint-v1"));
  root.set("pipeline", support::Json("source->stateful-sink"));
  root.set("stream_capacity", support::Json(kStreamCapacity));
  root.set("batch_size", support::Json(kBatch));
  root.set("repeats", support::Json(kRepeats));
  root.set("cells", support::Json(std::move(cell_array)));
  root.set("summary", support::Json(std::move(summary)));

  std::ofstream out("BENCH_checkpoint.json");
  out << support::Json(std::move(root)).dump(2) << "\n";
  std::printf("wrote BENCH_checkpoint.json\n\n");
}

void BM_Checkpoint(benchmark::State& state) {
  const auto payload = static_cast<std::size_t>(state.range(0));
  const auto interval = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_cell(payload, interval).buffers_per_sec);
  }
}
BENCHMARK(BM_Checkpoint)
    ->Args({256, 0})
    ->Args({256, 64})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  sweep_and_emit();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
