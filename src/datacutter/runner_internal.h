// Shared internals of the pipeline runner, split out so the thread backend
// (runner.cpp) and the multi-process backends (runner_proc.cpp) run the
// exact same per-copy supervisor and cut collector. A worker process hosts
// one stage group: it builds a CopyWorld whose callbacks write control
// messages to the supervisor process instead of touching shared state
// directly, and runs the identical run_copy() the thread backend runs.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "datacutter/checkpoint.h"
#include "datacutter/filter.h"
#include "datacutter/runner.h"

namespace cgp::dc::detail {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Latched stop flag with an interruptible sleep: the run teardown signal
/// that wakes copies parked in retry backoff (so an abort never waits out
/// an exponential-backoff sleep), and the stop of the periodic threads
/// (thread-backend watchdog, worker heartbeat sender).
class StopSignal {
 public:
  void signal() {
    {
      std::lock_guard lock(mutex_);
      stopped_ = true;
    }
    cv_.notify_all();
  }
  /// Sleeps up to `seconds`, returning early once signalled. True when
  /// the signal has fired.
  bool wait_for(double seconds) {
    std::unique_lock lock(mutex_);
    return cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                        [&] { return stopped_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopped_ = false;
};

/// One group's live state on the side of the process boundary where its
/// copies run: the progress/waiting counters the stall watchdog samples,
/// the count of copies still running, and the once-per-group notice flag
/// for a filter that cannot snapshot its state.
struct LiveGroup {
  GroupRuntime runtime;
  std::atomic<int> live{0};
  std::atomic<bool> warned_no_snapshot{false};
};

/// Everything one supervised copy needs from its surrounding run. The
/// callbacks are the seams between execution substrates: in the
/// supervisor process they lock run-local state (RunState::wire), in a
/// worker process they serialize control messages to the supervisor.
/// PipelineRunner::copy_world fills the run constants.
struct CopyWorld {
  const RunnerConfig* config = nullptr;
  const FaultPolicy* policy = nullptr;
  const FilterGroup* group = nullptr;  // this copy's group
  std::size_t gi = 0;                  // group index within the pipeline
  bool run_ckpt = false;               // run-level cuts enabled
  Clock::time_point start;             // run epoch for fault/cut stamps
  const PacketHook* packet_hook = nullptr;
  const CheckpointHook* checkpoint_hook = nullptr;
  const MarkerHook* marker_hook = nullptr;
  BufferPool* pool = nullptr;
  LiveGroup* group_live = nullptr;
  /// Run teardown: signalled on abort and when a whole stage dies; the
  /// retry backoff sleeps on it. The caller brackets the sleep with the
  /// runtime's waiting counter so the watchdog treats it like a blocked
  /// stream wait.
  StopSignal* teardown = nullptr;

  std::function<void(const StageCounters&)> add_counters;
  std::function<void(const support::FilterMetrics&)> merge_metrics;
  std::function<void(support::FaultRecord)> record_fault;
  std::function<void(std::exception_ptr, const std::string&)> set_error;
  std::function<void()> abort_all;
  /// Cut-collector seams (no-ops when run_ckpt is false).
  std::function<void(std::int64_t id, std::size_t gi, int copy,
                     std::vector<std::byte> state, bool usable,
                     std::int64_t delivered)>
      submit_part;
  std::function<void(std::size_t gi, int copy, bool usable,
                     std::int64_t delivered)>
      register_terminal;
};

/// Runs one transparent copy of one group to completion under the fault
/// policy: the full supervisor loop (checkpointed recovery, marker
/// handling, restart gap repair, bounded retries with backoff, terminal
/// registration, close/retire bookkeeping). Identical on every backend.
void run_copy(const CopyWorld& world, int copy, Stream* input,
              Stream* output);

/// Run-level consistent-cut collector (docs/ROBUSTNESS.md): accumulates
/// one part per (group, copy) per cut id, persists each completed cut
/// atomically, and emits the trace records. Thread-safe; lives in the
/// supervisor (thread mode: this process; proc/tcp: the parent, fed by
/// control-channel messages from the workers).
class CutCollector {
 public:
  /// `retain_cuts` keeps the newest usable completed cut in memory (see
  /// take_latest_cut) — the restore source for in-run worker resurrection,
  /// which must work with no checkpoint file configured at all.
  CutCollector(const std::vector<FilterGroup>& groups,
               std::string checkpoint_path, Clock::time_point start,
               bool retain_cuts = false);

  /// A live part: a source copy's delivered mark (gi == 0) or a consumer
  /// copy's state snapshot.
  void submit_part(std::int64_t id, std::size_t gi, int copy,
                   std::vector<std::byte> state, bool usable,
                   std::int64_t delivered);
  /// A copy that will contribute no further live parts (finished or died):
  /// stands in on every pending and future cut.
  void register_terminal(std::size_t gi, int copy, bool usable,
                         std::int64_t delivered);
  /// Drains the trace records of parts and completed cuts, in event order.
  std::vector<support::CheckpointRecord> take_records();
  /// The newest usable completed cut (retain_cuts only); nullopt when no
  /// usable cut completed. Moves it out — call once, at end of run.
  std::optional<RunCheckpoint> take_latest_cut();

 private:
  struct PendingCut {
    RunCheckpoint cut;
    std::set<std::pair<std::size_t, int>> have;
    double injected_at = -1.0;
    bool usable = true;
  };
  struct Terminal {
    bool usable = true;
    std::int64_t delivered = 0;
  };

  void init_cut_locked(PendingCut& pc, std::int64_t id);
  void apply_part_locked(PendingCut& pc, std::size_t gi, int copy,
                         std::vector<std::byte>&& state, bool usable,
                         std::int64_t delivered);
  std::optional<support::CheckpointRecord> complete_locked(std::int64_t id,
                                                           PendingCut& pc);

  const std::vector<FilterGroup>& groups_;
  const std::string checkpoint_path_;
  const Clock::time_point start_;
  const bool retain_cuts_;
  std::optional<RunCheckpoint> latest_cut_;
  std::size_t consuming_parts_ = 0;
  std::size_t total_parts_ = 0;
  std::vector<std::size_t> stage_slot_;
  std::mutex mutex_;
  std::map<std::int64_t, PendingCut> pending_cuts_;
  std::map<std::pair<std::size_t, int>, Terminal> terminals_;
  std::vector<support::CheckpointRecord> records_;
};

/// The no-progress watchdog rule, shared by the thread backend's watchdog
/// thread and the process backends' reaper (which samples the heartbeat
/// mirrors): a stage with live copies that has moved no buffer for the
/// timeout is stalled — unless every live copy is parked in a stream wait
/// (starved or backpressured is idle, not hung). Callers sample at their
/// own cadence.
class StallWatchdog {
 public:
  struct Sample {
    int alive = 0;  // live copies; <= 0 means the stage cannot stall
    std::int64_t progress = 0;
    int waiting = 0;
  };
  StallWatchdog(std::size_t n_groups, double timeout_seconds);
  /// Feeds one sample of every group; returns the first group stalled
  /// past the timeout, if any.
  std::optional<std::size_t> scan(
      const std::function<Sample(std::size_t gi)>& sample);

 private:
  double timeout_;
  std::vector<std::int64_t> last_progress_;
  std::vector<Clock::time_point> stalled_since_;
  std::vector<char> stalled_;
};

/// The supervisor side of one run (thread backend) or one attempt
/// (process backends): the stats under one mutex, the first fatal error,
/// the teardown signal, and the cut collector. Copies running in this
/// process report into it through wire(); worker control messages land
/// in the same calls.
class RunState {
 public:
  RunState(RunStats& stats, const std::vector<FilterGroup>& groups,
           std::string checkpoint_path, Clock::time_point start,
           bool retain_cuts = false);

  void record_fault(support::FaultRecord fault);
  /// Keeps the first fatal error (and its text in stats.error).
  void set_error(std::exception_ptr error, const std::string& message);
  void submit_part(std::int64_t id, std::size_t gi, int copy,
                   std::vector<std::byte> state, bool usable,
                   std::int64_t delivered);
  void register_terminal(std::size_t gi, int copy, bool usable,
                         std::int64_t delivered);
  void add_counters(std::size_t gi, const StageCounters& counters);
  void merge_metrics(std::size_t gi, const support::FilterMetrics& metrics);
  /// The watchdog's verdict on group gi: counts and records the fault and
  /// sets the run error. The caller tears the run down.
  void fail_stalled(std::size_t gi, double timeout_seconds);
  std::exception_ptr first_error();
  /// Points a copy world of group gi at this state: every reporting
  /// callback but abort_all, which is backend-specific.
  void wire(CopyWorld& world, std::size_t gi);

  StopSignal teardown;
  CutCollector collector;

 private:
  void drain_cut_records();

  RunStats& stats_;
  const std::vector<FilterGroup>& groups_;
  const Clock::time_point start_;
  std::mutex mutex_;
  std::exception_ptr first_error_;
};

}  // namespace cgp::dc::detail
