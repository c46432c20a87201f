// Pipeline runner: places a chain of logical filters, creates the streams
// between consecutive groups, spawns one thread per transparent copy, and
// runs the DataCutter work cycle (init -> process -> finalize) to
// completion. Instrumented: per-link buffer/byte counts and per-group
// operation counts feed the pipeline simulator.
//
// Fault tolerance (docs/ROBUSTNESS.md): each copy runs under a supervisor
// that catches filter exceptions and applies the configured FaultPolicy —
// tear the run down (fail-fast), restart the copy and replay the in-flight
// packet (restart-copy), or discard the poisoned packet (drop-packet) —
// with bounded consecutive retries and exponential backoff. A watchdog
// thread flags stages that stop making progress. run_supervised() always
// returns the assembled RunStats, carrying the error instead of discarding
// the run's telemetry.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "datacutter/filter.h"
#include "datacutter/transport.h"

namespace cgp::dc {

enum class FaultAction {
  kFailFast,     // any filter exception aborts the whole run (the default)
  kRestartCopy,  // fresh instance, in-flight packet replayed
  kDropPacket,   // fresh instance, poisoned packet discarded
};

struct FaultPolicy {
  FaultAction action = FaultAction::kFailFast;
  /// Bound on *consecutive* fruitless restarts of one copy: a failed
  /// attempt that made no progress (popped no new packet, delivered
  /// nothing) consumes one; any progress resets the count. Exceeding it
  /// declares the copy dead.
  int max_retries = 3;
  /// Exponential backoff between restarts of the same copy.
  double backoff_initial_seconds = 0.0005;
  double backoff_multiplier = 2.0;
  double backoff_max_seconds = 0.05;
  /// Watchdog: a stage with live, non-waiting copies that moves no buffer
  /// for this long is declared stalled and the run is torn down (0
  /// disables). Blocked stream waits are exempt — a starved or
  /// backpressured stage is idle, not hung. The thread backend samples
  /// every max(timeout/4, 1 ms); the process backends sample the
  /// heartbeat mirrors.
  double stage_timeout_seconds = 0.0;

  static const char* action_name(FaultAction action);
  /// Parses "fail-fast" | "restart-copy" | "drop-packet".
  static std::optional<FaultAction> parse_action(std::string_view name);
};

/// Fault-injection hook type: invoked once per packet with the group name,
/// copy index, restart attempt, per-copy packet ordinal, and the buffer
/// about to be handed to (or sent by) the filter. May mutate the buffer,
/// sleep, or throw. See support/faultinject.h for the standard
/// implementation.
using PacketHook = std::function<void(const std::string& group, int copy,
                                      int attempt, std::int64_t packet,
                                      Buffer* buffer)>;

/// Checkpoint fault-injection hook: invoked immediately before a copy
/// snapshots its filter state, with the per-copy checkpoint ordinal.
/// Throwing models a fault mid-snapshot (the previous snapshot must
/// survive). See support/faultinject.h (`group:throw@ckpt`).
using CheckpointHook = std::function<void(const std::string& group, int copy,
                                          int attempt,
                                          std::int64_t checkpoint)>;

/// Run-level marker fault-injection hook: invoked on a specific copy the
/// moment a cut marker reaches it (consumers) or is injected by it
/// (sources), with the marker's cut id. Throwing models a fault exactly at
/// the cut boundary — the supervisor must still register the copy's part
/// (unusable) and forward the marker so neither the cut collector nor
/// downstream copies wedge. See support/faultinject.h (`group:throw@markN`).
using MarkerHook = std::function<void(const std::string& group, int copy,
                                      int attempt, std::int64_t marker_id)>;

struct RunCheckpoint;  // datacutter/checkpoint.h
namespace detail {
struct CopyWorld;  // datacutter/runner_internal.h
}

/// Transport configuration for one runner (docs/PERFORMANCE.md): stream
/// depth, producer-side packet coalescing, and buffer-storage recycling.
struct RunnerConfig {
  /// Bounded depth of every inter-group stream (backpressure window).
  std::size_t stream_capacity = 16;
  /// Producer-side coalescing factor: each copy accumulates up to this
  /// many packets and enqueues them as one batch (one lock acquisition,
  /// one consumer wakeup). 1 reproduces per-packet transport exactly.
  std::size_t batch_size = 1;
  /// Freelist depth per power-of-two size class of the run's BufferPool;
  /// 0 disables pooling and every packet allocates fresh storage.
  std::size_t pool_buffers_per_class = 64;
  /// Exactly-once stateful recovery (docs/ROBUSTNESS.md): under
  /// restart-copy, snapshot every consuming copy's filter state each time
  /// this many packets have been consumed since the last snapshot; a
  /// restarted instance restores the snapshot and replays only the packets
  /// after it, so accumulated state (reduction replicas, carried scalars)
  /// survives the fault. 0 disables checkpointing (legacy in-flight-replay
  /// recovery only).
  std::size_t checkpoint_interval = 0;
  /// Run-level checkpointing: when non-empty, a consistent cut of the
  /// whole pipeline (per-source-copy progress + a snapshot part from every
  /// copy of every consuming stage) is persisted to this file, atomically
  /// and durably, each time a source copy has delivered
  /// checkpoint_interval packets of its share. Replicated stages are fully
  /// supported: markers are barrier-merged across producer copies and
  /// broadcast to consumer copies, so every part aligns on the same
  /// marker. Requires checkpoint_interval > 0.
  std::string checkpoint_path;
  /// Resume an aborted run from this previously saved cut (see
  /// load_checkpoint): each source copy skips the packets the cut covers
  /// for it, and every consuming copy starts from its recorded per-copy
  /// state, so the resumed run's delivered multiset matches an
  /// uninterrupted one exactly. The pipeline's stage names and replica
  /// counts must match the checkpoint's (validated with a side-by-side
  /// diff on mismatch). Borrowed pointer; must outlive the run.
  const RunCheckpoint* resume = nullptr;
  /// Execution substrate (docs/PERFORMANCE.md, backend selection):
  /// kThread runs every stage group as threads of this process over
  /// in-process queues; kProc and kTcp fork one worker process per
  /// non-sink stage group and move packets through shared-memory rings or
  /// loopback TCP sockets. The sink group always runs in the supervisor
  /// process (its finals are in-memory results). A single-group pipeline
  /// has no links and runs in-process under every backend. Markers,
  /// checkpoint cuts, fault policies, and run telemetry flow through all
  /// three; on the process backends the no-progress watchdog
  /// (stage_timeout_seconds) additionally requires heartbeat_seconds > 0
  /// so the supervisor can observe worker progress remotely.
  TransportBackend backend = TransportBackend::kThread;
  /// Per-link shared-memory ring capacity in bytes (proc backend). Frames
  /// larger than the ring stream through in chunks; the ring bounds
  /// memory, not frame size.
  std::size_t ring_bytes = 1 << 20;
  /// Self-healing (docs/ROBUSTNESS.md, self-healing runs): on the process
  /// backends, a worker that dies organically (SIGKILL, crash, or
  /// supervisor liveness-kill after a heartbeat lapse) is respawned up to
  /// this many times per worker, the whole topology rolling back to the
  /// last in-run consistent cut held in memory by the collector (with
  /// checkpoint_interval > 0; otherwise the respawn restarts the run from
  /// scratch — still exactly-once, just slower). Budget exhausted means
  /// the run ends degraded: surviving stages drain to a partial result.
  /// 0 disables (a worker death is fatal, the pre-self-healing behavior).
  /// Ignored on the thread backend. The supervisor re-invokes the process
  /// hook with the respawned worker's fresh pid.
  int worker_restarts = 0;
  /// Liveness heartbeat interval: every worker sends a kHeartbeat frame on
  /// its status channel this often, carrying its progress counters. The
  /// supervisor SIGKILLs (and, under worker_restarts, respawns) a worker
  /// silent for max(4x this, 50 ms). Also the sampling feed that makes
  /// stage_timeout_seconds legal on process backends. 0 disables.
  double heartbeat_seconds = 0.0;
  /// Grace between an abort broadcast and the reaper's SIGKILL escalation
  /// of workers that have not exited on their own.
  std::int64_t teardown_grace_ms = 2000;

  /// Whether worker death triggers in-run resurrection instead of run
  /// failure (process backends with a restart budget).
  bool self_heal() const {
    return worker_restarts > 0 && backend != TransportBackend::kThread;
  }
};

struct RunStats {
  /// Indexed by group: the StageCounters its filters reported, summed
  /// over copies and over in-process copy restarts. On the process
  /// backends a worker group's counters cross in its end-of-run telemetry;
  /// under self-healing each group's counters are the final attempt's (a
  /// rolled-back source re-executes every packet of its share, so summing
  /// attempts would count its work twice).
  std::vector<StageCounters> group_counters;
  /// Transparent copies each group was configured with (serialized as the
  /// cgpipe-trace-v4 stage_replicas array).
  std::vector<int> group_copies;
  double wall_seconds = 0.0;
  /// Observability: per-group counters aggregated over transparent copies
  /// (packets/bytes in and out, busy vs. stall time, per-packet
  /// latency summaries) and per-link queue telemetry (occupancy high-water
  /// mark, producer/consumer blocked time).
  std::vector<support::FilterMetrics> group_metrics;
  std::vector<support::LinkMetrics> link_metrics;
  /// Fault-tolerance surface: every fault the supervisor observed, the
  /// policy in force, and whether the run reached normal end-of-stream.
  std::vector<support::FaultRecord> faults;
  std::string fault_policy;
  /// Transport telemetry: the configured coalescing factor and the run's
  /// buffer-pool counters (zeroed when pooling was disabled).
  std::int64_t batch_size = 1;
  support::PoolMetrics pool;
  /// Run-level consistent cuts completed during the run (empty unless
  /// run-level checkpointing was enabled).
  std::vector<support::CheckpointRecord> checkpoints;
  /// Self-healing surface (trace v8): one record per worker resurrection
  /// with its MTTR, heartbeat liveness telemetry per stage, and whether
  /// the run ended degraded (restart budget exhausted; surviving stages
  /// drained to a partial result).
  std::vector<support::RespawnRecord> respawns;
  std::vector<support::HeartbeatMetrics> heartbeats;
  bool degraded = false;
  bool completed = true;
  std::string error;  // first fatal condition; empty on success

  /// Sum of supervisor retries / dropped packets over all groups.
  std::int64_t total_retries() const;
  std::int64_t total_dropped_packets() const;

  /// Assembles the serializable trace record (see support/metrics.h).
  support::PipelineTrace trace() const;
};

/// Result of a supervised run: the stats are always populated — partial
/// metrics survive a failed run — and the first fatal error (if any) rides
/// along instead of being thrown away.
struct RunOutcome {
  /// How the run ended. kDegraded is the self-healing middle ground: the
  /// restart budget ran out, so the surviving stages drained to a partial
  /// result instead of the run aborting — error stays null (the partial
  /// result stands; nothing should be rethrown) but completed is false.
  enum Disposition { kComplete, kDegraded, kFailed };

  RunStats stats;
  std::exception_ptr error;  // null when the pipeline completed or degraded
  Disposition disposition = kComplete;
  bool ok() const { return error == nullptr; }
  bool degraded() const { return disposition == kDegraded; }
};

class PipelineRunner {
 public:
  explicit PipelineRunner(std::vector<FilterGroup> groups,
                          std::size_t stream_capacity = 16,
                          FaultPolicy policy = {});
  PipelineRunner(std::vector<FilterGroup> groups, RunnerConfig config,
                 FaultPolicy policy = {});

  void set_fault_policy(const FaultPolicy& policy) { policy_ = policy; }
  const FaultPolicy& fault_policy() const { return policy_; }
  const RunnerConfig& config() const { return config_; }
  /// Installs a per-packet fault-injection hook applied to every copy.
  void set_packet_hook(PacketHook hook) { hook_ = std::move(hook); }
  /// Installs a pre-snapshot fault-injection hook (see CheckpointHook).
  void set_checkpoint_hook(CheckpointHook hook) {
    checkpoint_hook_ = std::move(hook);
  }
  /// Installs a run-level marker fault-injection hook (see MarkerHook).
  void set_marker_hook(MarkerHook hook) { marker_hook_ = std::move(hook); }
  /// Observer of worker processes the multi-process backends fork: called
  /// in the supervisor with (group index, pid) right after each launch.
  /// Lets harnesses (chaos tests) target a specific worker with signals.
  using ProcessHook = std::function<void(std::size_t group_index, long pid)>;
  void set_process_hook(ProcessHook hook) { process_hook_ = std::move(hook); }
  /// Runs the pipeline to completion on real threads; throws the first
  /// fatal error (fail-fast fault, all copies of a stage dead, watchdog),
  /// discarding stats. Prefer run_supervised() to keep them.
  RunStats run();

  /// Runs the pipeline under the fault policy. Never throws on filter
  /// failure: the outcome carries the assembled stats (including partial
  /// metrics of a failed run) plus the first fatal error, if any.
  RunOutcome run_supervised();

 private:
  /// Thread backend: every group as threads of this process (historical
  /// path; also serves single-group pipelines under any backend).
  RunOutcome run_threaded(bool run_ckpt);
  /// proc/tcp backends: one worker process per non-sink group, the sink
  /// and the cut collector in this process (runner_proc.cpp).
  RunOutcome run_multiprocess(bool run_ckpt);
  /// One rollback-recovery attempt of run_multiprocess.
  class ProcAttempt;
  /// A copy world for group `gi` with the run constants every backend
  /// sets alike (config, policy, group, epoch, hooks); the caller adds the
  /// group's live state and the callbacks of its execution substrate.
  detail::CopyWorld copy_world(const RunnerConfig& config, std::size_t gi,
                               bool run_ckpt,
                               std::chrono::steady_clock::time_point start)
      const;

  std::vector<FilterGroup> groups_;
  RunnerConfig config_;
  FaultPolicy policy_;
  PacketHook hook_;
  CheckpointHook checkpoint_hook_;
  MarkerHook marker_hook_;
  ProcessHook process_hook_;
};

}  // namespace cgp::dc
