// Transport ablation (ISSUE 4): raw DataCutter stream throughput swept
// over batch_size x payload size on a source -> relay -> sink pipeline
// with buffer pooling enabled. Small payloads are dominated by the
// per-buffer lock/wakeup cost, which packet batching amortizes; large
// payloads are memcpy-bound and batching is neutral. Emits the sweep as
// BENCH_transport.json (schema cgpipe-bench-transport-v1) for the CI
// bench-smoke artifact; the acceptance bar is >= 2x throughput at the
// smallest payload with batch_size >= 16 versus unbatched.
#include <benchmark/benchmark.h>

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
constexpr int kRepeats = 3;

const std::size_t kPayloads[] = {8, 256, 4096, 65536};
const std::size_t kBatches[] = {1, 4, 16, 64};

std::int64_t buffers_for(std::size_t payload) {
  // Keep each cell's data volume meaningful but the sweep fast: lots of
  // tiny buffers (the contended regime), fewer large ones.
  if (payload <= 256) return 200000;
  if (payload <= 4096) return 50000;
  return 6000;
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

class Relay : public Filter {
 public:
  void process(FilterContext& ctx) override {
    while (auto b = ctx.read()) ctx.emit(std::move(*b));
  }
};

class ConsumingSink : public Filter {
 public:
  void process(FilterContext& ctx) override {
    while (auto b = ctx.read()) {
      benchmark::DoNotOptimize(b->size());
      ctx.recycle(std::move(*b));
    }
  }
};

struct Cell {
  std::size_t payload = 0;
  std::size_t batch = 0;
  std::int64_t buffers = 0;
  double seconds = 0.0;
  double buffers_per_sec = 0.0;
  double mb_per_sec = 0.0;
  double pool_hit_rate = 0.0;
};

Cell run_cell(std::size_t payload, std::size_t batch) {
  const std::int64_t buffers = buffers_for(payload);
  Cell cell;
  cell.payload = payload;
  cell.batch = batch;
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
    groups.push_back({"relay", [] { return std::make_unique<Relay>(); }, 1, 1});
    groups.push_back(
        {"sink", [] { return std::make_unique<ConsumingSink>(); }, 1, 2});
    RunnerConfig config;
    config.stream_capacity = kStreamCapacity;
    config.batch_size = batch;
    PipelineRunner runner(std::move(groups), config);
    const auto start = std::chrono::steady_clock::now();
    RunStats stats = runner.run();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (seconds < cell.seconds) {
      cell.seconds = seconds;
      cell.pool_hit_rate = stats.pool.hit_rate();
    }
  }
  cell.buffers_per_sec = static_cast<double>(buffers) / cell.seconds;
  cell.mb_per_sec = cell.buffers_per_sec *
                    static_cast<double>(payload) / (1024.0 * 1024.0);
  return cell;
}

void sweep_and_emit() {
  std::printf(
      "=== Transport ablation (source->relay->sink, capacity %zu, pooled, "
      "best of %d) ===\n",
      kStreamCapacity, kRepeats);
  std::printf("%-10s %-8s %-10s %12s %14s %12s %10s\n", "payload", "batch",
              "buffers", "time(s)", "buffers/s", "MB/s", "pool hit");
  std::vector<Cell> cells;
  for (std::size_t payload : kPayloads) {
    for (std::size_t batch : kBatches) {
      Cell cell = run_cell(payload, batch);
      std::printf("%-10zu %-8zu %-10lld %12.4f %14.0f %12.1f %9.1f%%\n",
                  cell.payload, cell.batch,
                  static_cast<long long>(cell.buffers), cell.seconds,
                  cell.buffers_per_sec, cell.mb_per_sec,
                  100.0 * cell.pool_hit_rate);
      cells.push_back(cell);
    }
  }

  // Acceptance summary: smallest payload, best batch >= 16 vs batch == 1.
  double unbatched = 0.0;
  double best_batched = 0.0;
  std::size_t best_batch = 0;
  for (const Cell& cell : cells) {
    if (cell.payload != kPayloads[0]) continue;
    if (cell.batch == 1) unbatched = cell.buffers_per_sec;
    if (cell.batch >= 16 && cell.buffers_per_sec > best_batched) {
      best_batched = cell.buffers_per_sec;
      best_batch = cell.batch;
    }
  }
  const double speedup = unbatched > 0.0 ? best_batched / unbatched : 0.0;
  std::printf(
      "\nsmallest payload (%zu B): batch %zu gives %.2fx the unbatched "
      "throughput\n\n",
      kPayloads[0], best_batch, speedup);

  support::Json::Array cell_array;
  for (const Cell& cell : cells) {
    support::Json obj{support::Json::Object{}};
    obj.set("payload_bytes", support::Json(cell.payload));
    obj.set("batch_size", support::Json(cell.batch));
    obj.set("buffers", support::Json(cell.buffers));
    obj.set("seconds", support::Json(cell.seconds));
    obj.set("buffers_per_sec", support::Json(cell.buffers_per_sec));
    obj.set("mb_per_sec", support::Json(cell.mb_per_sec));
    obj.set("pool_hit_rate", support::Json(cell.pool_hit_rate));
    cell_array.emplace_back(std::move(obj));
  }
  support::Json summary{support::Json::Object{}};
  summary.set("smallest_payload_bytes", support::Json(kPayloads[0]));
  summary.set("best_batch", support::Json(best_batch));
  summary.set("speedup_vs_unbatched", support::Json(speedup));
  support::Json root{support::Json::Object{}};
  root.set("schema", support::Json("cgpipe-bench-transport-v1"));
  root.set("pipeline", support::Json("source->relay->sink"));
  root.set("stream_capacity", support::Json(kStreamCapacity));
  root.set("repeats", support::Json(kRepeats));
  root.set("cells", support::Json(std::move(cell_array)));
  root.set("summary", support::Json(std::move(summary)));

  std::ofstream out("BENCH_transport.json");
  out << support::Json(std::move(root)).dump(2) << "\n";
  std::printf("wrote BENCH_transport.json\n\n");
}

void BM_Transport(benchmark::State& state) {
  const auto payload = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_cell(payload, batch).buffers_per_sec);
  }
}
BENCHMARK(BM_Transport)
    ->Args({8, 1})
    ->Args({8, 16})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  sweep_and_emit();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
