#include "datacutter/runner.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "datacutter/checkpoint.h"
#include "datacutter/runner_internal.h"

namespace cgp::dc {

namespace {

using detail::Clock;
using detail::seconds_since;

/// The default transport tuning with one stream capacity.
RunnerConfig with_capacity(std::size_t stream_capacity) {
  RunnerConfig config;
  config.stream_capacity = stream_capacity;
  return config;
}

/// Validates a resume checkpoint against the pipeline's stage list and
/// replica counts. Returns an empty string on match; otherwise a
/// side-by-side diff of expected vs. checkpointed stages × replicas,
/// ready to be thrown.
std::string resume_mismatch_diff(const std::vector<FilterGroup>& groups,
                                 const RunCheckpoint& cut) {
  const std::size_t n_groups = groups.size();
  bool ok = true;
  if (cut.source_copies.size() != static_cast<std::size_t>(groups[0].copies))
    ok = false;
  if (!cut.group_copies.empty()) {
    if (cut.group_copies.size() != n_groups) ok = false;
    for (std::size_t gi = 0; ok && gi < n_groups; ++gi)
      if (cut.group_copies[gi] != groups[gi].copies) ok = false;
  }
  // The file must hold exactly one part per (consuming group, copy).
  std::map<std::string, std::set<int>> parts;
  std::vector<std::string> file_order;  // first-appearance order
  for (const StageSnapshot& s : cut.stages) {
    if (parts.find(s.group) == parts.end()) file_order.push_back(s.group);
    if (!parts[s.group].insert(s.copy).second) ok = false;  // duplicate part
  }
  if (file_order.size() != n_groups - 1) ok = false;
  for (std::size_t gi = 1; gi < n_groups; ++gi) {
    const auto it = parts.find(groups[gi].name);
    if (it == parts.end()) {
      ok = false;
      continue;
    }
    if (it->second.size() != static_cast<std::size_t>(groups[gi].copies)) {
      ok = false;
      continue;
    }
    for (int c = 0; c < groups[gi].copies; ++c)
      if (it->second.count(c) == 0) ok = false;
  }
  if (ok) return {};

  // Side-by-side diff: one row per stage, expected on the left, the
  // checkpoint's record on the right, mismatching rows flagged.
  const auto row_label = [](const std::string& name, std::size_t copies) {
    return name + " x" + std::to_string(copies);
  };
  std::vector<std::string> left, right;
  std::vector<bool> bad;
  const std::size_t rows = std::max(n_groups, file_order.size() + 1);
  for (std::size_t r = 0; r < rows; ++r) {
    std::string l = "(missing)";
    std::string rr = "(missing)";
    bool mismatch = false;
    if (r < n_groups)
      l = row_label(groups[r].name,
                    static_cast<std::size_t>(groups[r].copies));
    if (r == 0) {
      rr = row_label("(source)", cut.source_copies.size());
      mismatch = cut.source_copies.size() !=
                 static_cast<std::size_t>(groups[0].copies);
    } else if (r - 1 < file_order.size()) {
      const std::string& name = file_order[r - 1];
      rr = row_label(name, parts[name].size());
      mismatch = r >= n_groups || name != groups[r].name ||
                 parts[name].size() !=
                     static_cast<std::size_t>(groups[r].copies);
    } else {
      mismatch = true;
    }
    if (r >= n_groups) mismatch = true;
    left.push_back(std::move(l));
    right.push_back(std::move(rr));
    bad.push_back(mismatch);
  }
  std::size_t width = std::string("pipeline").size();
  for (const std::string& l : left) width = std::max(width, l.size());
  std::ostringstream msg;
  msg << "PipelineRunner: resume checkpoint does not match the pipeline "
         "(stages x replicas):\n";
  msg << "     " << "pipeline" << std::string(width - 8 + 4, ' ')
      << "checkpoint";
  for (std::size_t r = 0; r < rows; ++r) {
    msg << '\n'
        << (bad[r] ? "  != " : "     ") << left[r]
        << std::string(width - left[r].size() + 4, ' ') << right[r];
  }
  return msg.str();
}

}  // namespace

const char* FaultPolicy::action_name(FaultAction action) {
  switch (action) {
    case FaultAction::kFailFast:
      return "fail-fast";
    case FaultAction::kRestartCopy:
      return "restart-copy";
    case FaultAction::kDropPacket:
      return "drop-packet";
  }
  return "fail-fast";
}

std::optional<FaultAction> FaultPolicy::parse_action(std::string_view name) {
  if (name == "fail-fast") return FaultAction::kFailFast;
  if (name == "restart-copy") return FaultAction::kRestartCopy;
  if (name == "drop-packet") return FaultAction::kDropPacket;
  return std::nullopt;
}

std::int64_t RunStats::total_retries() const {
  std::int64_t n = 0;
  for (const support::FilterMetrics& m : group_metrics) n += m.retries;
  return n;
}

std::int64_t RunStats::total_dropped_packets() const {
  std::int64_t n = 0;
  for (const support::FilterMetrics& m : group_metrics)
    n += m.dropped_packets;
  return n;
}

support::PipelineTrace RunStats::trace() const {
  support::PipelineTrace trace;
  trace.wall_seconds = wall_seconds;
  trace.filters = group_metrics;
  trace.links = link_metrics;
  trace.faults = faults;
  trace.fault_policy = fault_policy;
  trace.batch_size = batch_size;
  trace.pool = pool;
  trace.stage_replicas = group_copies;
  trace.checkpoints = checkpoints;
  trace.respawns = respawns;
  trace.heartbeats = heartbeats;
  trace.degraded = degraded;
  trace.completed = completed;
  trace.error = error;
  if (!group_metrics.empty()) trace.packets = group_metrics.front().packets_out;
  return trace;
}

PipelineRunner::PipelineRunner(std::vector<FilterGroup> groups,
                               std::size_t stream_capacity,
                               FaultPolicy policy)
    : PipelineRunner(std::move(groups), with_capacity(stream_capacity),
                     policy) {}

PipelineRunner::PipelineRunner(std::vector<FilterGroup> groups,
                               RunnerConfig config, FaultPolicy policy)
    : groups_(std::move(groups)), config_(config), policy_(policy) {
  if (config_.stream_capacity == 0) config_.stream_capacity = 1;
  if (config_.batch_size == 0) config_.batch_size = 1;
  if (groups_.empty())
    throw std::invalid_argument("PipelineRunner: empty pipeline");
  for (const FilterGroup& g : groups_) {
    if (!g.factory)
      throw std::invalid_argument("PipelineRunner: group '" + g.name +
                                  "' has no factory");
    if (g.copies < 1)
      throw std::invalid_argument("PipelineRunner: group '" + g.name +
                                  "' has non-positive copy count");
  }
}

RunStats PipelineRunner::run() {
  RunOutcome outcome = run_supervised();
  if (outcome.error) std::rethrow_exception(outcome.error);
  return std::move(outcome.stats);
}

RunOutcome PipelineRunner::run_supervised() {
  // Run-level checkpointing captures a consistent cut via markers on the
  // FIFO chain. The streams barrier-merge each marker across producer
  // copies and broadcast it to consumer copies, so the cut stays aligned
  // on the same prefix even when stages are transparently replicated.
  // Self-healing restores from cuts the collector keeps in memory, so
  // markers must flow even without a checkpoint file (with interval 0 a
  // respawn restarts from scratch instead — legal, just slower).
  const bool run_ckpt =
      !config_.checkpoint_path.empty() || config_.resume != nullptr ||
      (config_.self_heal() && config_.checkpoint_interval > 0);
  if (run_ckpt) {
    if (!config_.checkpoint_path.empty() && config_.checkpoint_interval == 0)
      throw std::invalid_argument(
          "PipelineRunner: run-level checkpointing requires a checkpoint "
          "interval > 0");
    if (config_.resume) {
      const std::string diff = resume_mismatch_diff(groups_, *config_.resume);
      if (!diff.empty()) throw std::invalid_argument(diff);
    }
  }
  if (config_.backend != TransportBackend::kThread) {
    if (policy_.stage_timeout_seconds > 0.0 &&
        config_.heartbeat_seconds <= 0.0)
      throw std::invalid_argument(
          "PipelineRunner: the no-progress watchdog (stage timeout) on a "
          "process backend requires heartbeats — per-copy progress "
          "counters live inside worker processes, so the supervisor can "
          "only sample them from the heartbeat stream (set "
          "heartbeat_seconds / --heartbeat-ms)");
    // A single-group pipeline has no cross-group links: nothing to put a
    // process boundary on, so it runs in-process under every backend.
    if (groups_.size() > 1) return run_multiprocess(run_ckpt);
  }
  return run_threaded(run_ckpt);
}

RunOutcome PipelineRunner::run_threaded(bool run_ckpt) {
  const std::size_t n_groups = groups_.size();
  std::vector<std::unique_ptr<Stream>> streams;
  streams.reserve(n_groups - 1);
  for (std::size_t i = 0; i + 1 < n_groups; ++i) {
    auto stream = std::make_unique<Stream>(config_.stream_capacity);
    stream->set_producers(groups_[i].copies);
    stream->set_consumers(groups_[i + 1].copies);
    streams.push_back(std::move(stream));
  }
  // One pool per run, shared by every copy: storage released downstream is
  // recycled into the batches upstream builds next. Threads join before the
  // pool goes out of scope.
  std::optional<BufferPool> pool;
  if (config_.pool_buffers_per_class > 0) {
    pool.emplace(config_.pool_buffers_per_class);
    // Align retention to this run's batch geometry so batched recycle
    // bursts stay in the freelists instead of being discarded (and then
    // miss-allocated moments later). The runner knows the whole shape:
    // links, stream capacity, batch size, and the widest replica fan.
    int max_copies = 1;
    for (const FilterGroup& g : groups_) max_copies = std::max(max_copies, g.copies);
    pool->set_geometry(n_groups > 0 ? n_groups - 1 : 0,
                       config_.stream_capacity, config_.batch_size,
                       static_cast<std::size_t>(max_copies));
  }

  RunOutcome outcome;
  RunStats& stats = outcome.stats;
  stats.group_counters.resize(n_groups);
  stats.group_metrics.resize(n_groups);
  stats.fault_policy = FaultPolicy::action_name(policy_.action);
  for (std::size_t gi = 0; gi < n_groups; ++gi) {
    stats.group_copies.push_back(groups_[gi].copies);
    stats.group_metrics[gi].name = groups_[gi].name;
  }

  const auto start = Clock::now();
  // Stats, first error, teardown signal and the run-level cut collector
  // (each marker id accumulates one part per copy of every group;
  // completed cuts are persisted atomically and surfaced as records).
  detail::RunState state(stats, groups_, config_.checkpoint_path, start);
  std::vector<detail::LiveGroup> group_live(n_groups);
  for (std::size_t gi = 0; gi < n_groups; ++gi)
    group_live[gi].live.store(groups_[gi].copies, std::memory_order_relaxed);
  auto abort_all = [&] {
    for (const auto& stream : streams) stream->abort();
    state.teardown.signal();
  };

  // ---- watchdog ----------------------------------------------------------
  detail::StopSignal run_done;
  std::thread watchdog;
  if (policy_.stage_timeout_seconds > 0.0) {
    watchdog = std::thread([&] {
      const double poll = std::max(policy_.stage_timeout_seconds / 4.0, 0.001);
      detail::StallWatchdog rule(n_groups, policy_.stage_timeout_seconds);
      while (!run_done.wait_for(poll)) {
        const auto stalled = rule.scan([&](std::size_t gi) {
          const GroupRuntime& rt = group_live[gi].runtime;
          return detail::StallWatchdog::Sample{
              group_live[gi].live.load(std::memory_order_relaxed),
              rt.progress.load(std::memory_order_relaxed),
              rt.waiting.load(std::memory_order_relaxed)};
        });
        if (!stalled) continue;
        state.fail_stalled(*stalled, policy_.stage_timeout_seconds);
        abort_all();
        break;
      }
    });
  }

  // ---- supervised copies (detail::run_copy) ------------------------------
  std::vector<detail::CopyWorld> worlds;
  for (std::size_t gi = 0; gi < n_groups; ++gi) {
    detail::CopyWorld& world =
        worlds.emplace_back(copy_world(config_, gi, run_ckpt, start));
    world.pool = pool ? &*pool : nullptr;
    world.group_live = &group_live[gi];
    state.wire(world, gi);
    world.abort_all = abort_all;
  }
  std::vector<std::thread> threads;
  for (std::size_t gi = 0; gi < n_groups; ++gi) {
    for (int copy = 0; copy < groups_[gi].copies; ++copy) {
      threads.emplace_back([&, gi, copy] {
        Stream* input = gi == 0 ? nullptr : streams[gi - 1].get();
        Stream* output = gi + 1 < n_groups ? streams[gi].get() : nullptr;
        detail::run_copy(worlds[gi], copy, input, output);
      });
    }
  }
  for (std::thread& t : threads) t.join();
  if (watchdog.joinable()) {
    run_done.signal();
    watchdog.join();
  }
  stats.wall_seconds = seconds_since(start);

  for (const auto& stream : streams) {
    support::LinkMetrics lm = stream->metrics();
    lm.transport = "thread";  // v7: in-process queue, nothing on a wire
    stats.link_metrics.push_back(lm);
  }
  stats.batch_size = static_cast<std::int64_t>(config_.batch_size);
  if (pool) stats.pool = pool->metrics();
  outcome.error = state.first_error();
  stats.completed = !outcome.error;
  outcome.disposition =
      outcome.error ? RunOutcome::kFailed : RunOutcome::kComplete;
  return outcome;
}

detail::CopyWorld PipelineRunner::copy_world(const RunnerConfig& config,
                                             std::size_t gi, bool run_ckpt,
                                             Clock::time_point start) const {
  detail::CopyWorld world;
  world.config = &config;
  world.policy = &policy_;
  world.group = &groups_[gi];
  world.gi = gi;
  world.run_ckpt = run_ckpt;
  world.start = start;
  world.packet_hook = &hook_;
  world.checkpoint_hook = &checkpoint_hook_;
  world.marker_hook = &marker_hook_;
  return world;
}

}  // namespace cgp::dc
