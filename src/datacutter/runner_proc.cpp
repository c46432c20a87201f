// Multi-process backends of the pipeline runner (proc: shared-memory
// rings; tcp: loopback sockets). Topology: one worker process per
// non-sink stage group, forked BEFORE the supervisor creates any thread;
// the sink group and the run-level cut collector stay in the supervisor
// process, because the sink's finals are in-memory results.
//
// Each cross-process link is bridged by a pump pair around the worker's
// local Stream: the producer side pops (batched) from its local output
// stream and sends frames, the consumer side receives frames and pushes
// into its local input stream — so every copy runs the exact same
// detail::run_copy() supervisor the thread backend runs, and the Stream
// invariants (marker barriers, batch atomicity, close/abort semantics)
// hold unchanged inside every process.
//
// Control plane: per worker, one status pipe (worker -> supervisor) and
// one command pipe (supervisor -> worker), carrying the same frame codec
// as the data links; the Buffer tag names the message. Workers are
// forked, so they inherit the whole run description (stage plan,
// transport geometry, restore cut); a worker announces itself with a
// bodyless ready ACK. During the run the worker streams cut parts,
// terminals, faults, fatal errors, and periodic kHeartbeat liveness
// frames; at exit it sends its telemetry: the group's StageCounters and a
// cgpipe-trace-v9 fragment (support/metrics.h) holding the stage metrics,
// the producer-side link metrics with the wire counters of both
// endpoints, and the pool counters. Faults travel as trace fragments too.
//
// Teardown discipline: a fatal fault aborts the failing worker's channel
// ends, and every pump that observes an aborted or truncated channel
// aborts its own worker's other end — the abort cascades along the chain
// in both directions, reproducing the thread backend's abort-everything
// semantics without a central coordinator. A worker that dies without a
// word (SIGKILL) is caught by the supervisor's reaper, which aborts the
// rings it retained handles to, aborts the sink channel, and broadcasts
// abort commands, so no survivor blocks forever on a peer that is gone.
//
// Self-healing (docs/ROBUSTNESS.md, self-healing runs): with a restart
// budget (RunnerConfig::worker_restarts), run_multiprocess becomes a
// rollback-recovery loop. Each attempt tears all the way down to a
// single-threaded supervisor (so the next fork stays TSan-legal), then
// re-forks the whole topology, restores every stage from the newest
// in-run consistent cut the collector kept in memory, and replays the
// post-cut packets — a worker that dies organically (chaos SIGKILL,
// crash, supervisor liveness-kill after a heartbeat lapse) costs one
// rollback, not the run, and the exactly-once multiset guarantee holds
// because the cut protocol already makes resume-from-cut exact. On an
// organic death the sink's stream is quiesced — not aborted — so the
// queued prefix drains; when the budget runs out the run therefore still
// ends with the surviving stages' partial result (RunOutcome::kDegraded)
// instead of nothing.
#include <errno.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "datacutter/checkpoint.h"
#include "datacutter/runner.h"
#include "datacutter/runner_internal.h"
#include "datacutter/shm_ring.h"
#include "datacutter/tcp_channel.h"
#include "datacutter/transport.h"
#include "support/metrics.h"

namespace cgp::dc {

namespace {

using detail::Clock;
using detail::seconds_since;

// ---- control-plane messages -----------------------------------------------
// Each message is one kData frame whose Buffer tag is the message type.
enum ControlTag : std::uint32_t {
  kMsgAck = 2,       // worker -> supervisor: ready (bodyless)
  kMsgPart = 3,      // worker -> supervisor: one cut part
  kMsgTerminal = 4,  // worker -> supervisor: copy contributes no more
  kMsgFault = 5,     // worker -> supervisor: one FaultRecord
  kMsgFatal = 6,     // worker -> supervisor: first fatal error text
  kMsgStats = 7,     // worker -> supervisor: end-of-run telemetry
  kMsgAbort = 9,     // supervisor -> worker: tear the run down
};

void put_string(Buffer& b, const std::string& s) {
  b.write<std::uint64_t>(s.size());
  if (!s.empty()) b.write_bytes(s.data(), s.size());
}

std::string get_string(Buffer& b) {
  const auto n = static_cast<std::size_t>(b.read<std::uint64_t>());
  std::string s(n, '\0');
  if (n > 0) b.read_bytes(s.data(), n);
  return s;
}

void put_blob(Buffer& b, const std::vector<std::byte>& bytes) {
  b.write<std::uint64_t>(bytes.size());
  if (!bytes.empty()) b.write_bytes(bytes.data(), bytes.size());
}

std::vector<std::byte> get_blob(Buffer& b) {
  const auto n = static_cast<std::size_t>(b.read<std::uint64_t>());
  std::vector<std::byte> bytes(n);
  if (n > 0) b.read_bytes(bytes.data(), n);
  return bytes;
}

// Run metrics cross the control plane as cgpipe-trace-v9 fragments, so
// the trace serializer is their only codec.
void put_trace(Buffer& b, const support::PipelineTrace& fragment) {
  put_string(b, support::trace_to_json(fragment, 0));
}

support::PipelineTrace get_trace(Buffer& b) {
  return support::trace_from_json(get_string(b));
}

void put_counters(Buffer& b, const StageCounters& c) {
  b.write<double>(c.ops);
  b.write<double>(c.replica_ops);
  b.write<std::int64_t>(c.packet_bytes);
  b.write<std::int64_t>(c.replica_bytes);
  b.write<std::int64_t>(c.packets);
}

StageCounters get_counters(Buffer& b) {
  StageCounters c;
  c.ops = b.read<double>();
  c.replica_ops = b.read<double>();
  c.packet_bytes = b.read<std::int64_t>();
  c.replica_bytes = b.read<std::int64_t>();
  c.packets = b.read<std::int64_t>();
  return c;
}

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Mutex-serialized control sender: copies, pumps, the heartbeat thread,
// and the epilogue all write messages to the same channel.
class ControlWriter {
 public:
  explicit ControlWriter(std::shared_ptr<ByteChannel> channel)
      : link_(std::move(channel)) {}

  bool send(std::uint32_t tag, Buffer&& body) {
    body.set_tag(tag);
    std::lock_guard lock(mutex_);
    return link_.send(Frame::data(std::move(body)));
  }
  /// Raw frame send, for non-kData control traffic (heartbeats).
  bool send_frame(const Frame& frame) {
    std::lock_guard lock(mutex_);
    return link_.send(frame);
  }
  void close_write() {
    std::lock_guard lock(mutex_);
    link_.close_write();
  }

 private:
  std::mutex mutex_;
  FrameLink link_;
};

// Receives one link's frames into a local Stream, enforcing the wire
// protocol (markers arrive alone; Close closes). Returns true on a clean
// Close; false when the link ended without one (peer aborted or died) —
// the stream is then aborted so local consumers never wait on data that
// cannot come, unless `quiesce_on_unclean` asks for a drainable end
// instead: the supervisor's sink pump passes true under self-healing so
// the queued prefix survives an organic worker death (Stream::quiesce).
bool pump_link_into_stream(FrameLink& link, Stream& stream,
                           bool quiesce_on_unclean = false) {
  bool saw_close = false;
  for (;;) {
    std::optional<Frame> frame = link.recv();
    if (!frame) break;
    switch (frame->kind) {
      case FrameKind::kData:
        stream.push(std::move(frame->buffers.front()));
        break;
      case FrameKind::kBatch:
        stream.push_batch(frame->buffers);
        break;
      case FrameKind::kMarker:
        stream.push_marker(frame->marker_id);
        break;
      case FrameKind::kClose:
        saw_close = true;
        stream.close();
        break;
      case FrameKind::kHeartbeat:
        break;  // liveness is control-plane traffic; ignore on data links
    }
  }
  if (!saw_close) {
    if (quiesce_on_unclean)
      stream.quiesce();
    else
      stream.abort();
  }
  return saw_close;
}

// Sends a local output Stream's traffic over a link: data popped in
// batches of the configured coalescing factor (one frame per batch),
// markers — which pop_batch always delivers alone — as Marker frames,
// end-of-stream as a Close frame. Sent buffers' storage is recycled into
// the worker's pool so upstream packing stays allocation-free. A failed
// send means the peer is gone or the run is tearing down: the caller's
// abort callback cascades the teardown.
template <typename AbortFn>
void pump_stream_into_link(Stream& stream, FrameLink& link,
                           std::size_t batch_size, BufferPool* pool,
                           const AbortFn& abort_all) {
  std::vector<Buffer> batch;
  for (;;) {
    batch.clear();
    const std::size_t n = stream.pop_batch(batch, batch_size, 0);
    if (n == 0) break;  // closed and drained, or aborted
    bool ok;
    if (n == 1 && batch.front().tag() == kCheckpointMarkerTag) {
      ok = link.send(Frame::marker(batch.front().peek_at<std::int64_t>(0)));
    } else {
      Frame frame = n == 1 ? Frame::data(std::move(batch.front()))
                           : Frame::batch(std::move(batch));
      ok = link.send(frame);
      if (pool)
        for (Buffer& b : frame.buffers) pool->recycle(std::move(b));
    }
    if (!ok) {
      abort_all();
      break;
    }
  }
  link.send(Frame::close());
  link.close_write();
}

// ---- worker process -------------------------------------------------------

// Ignores SIGPIPE for the duration of the run and restores the caller's
// disposition afterwards: a dead peer must surface as EPIPE / a failed
// write, never a signal, but library code must not permanently rewrite an
// embedding application's signal handling. Sockets already use
// MSG_NOSIGNAL; this covers the control-plane pipes. Workers inherit the
// ignore across fork — which is what they need — and _exit before the
// guard unwinds.
class ScopedIgnoreSigpipe {
 public:
  ScopedIgnoreSigpipe() {
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    sigemptyset(&ignore.sa_mask);
    installed_ = ::sigaction(SIGPIPE, &ignore, &saved_) == 0;
  }
  ~ScopedIgnoreSigpipe() {
    if (installed_) ::sigaction(SIGPIPE, &saved_, nullptr);
  }
  ScopedIgnoreSigpipe(const ScopedIgnoreSigpipe&) = delete;
  ScopedIgnoreSigpipe& operator=(const ScopedIgnoreSigpipe&) = delete;

 private:
  struct sigaction saved_ {};
  bool installed_ = false;
};

struct WorkerSetup {
  detail::CopyWorld world;  // run constants (PipelineRunner::copy_world)
  std::shared_ptr<ByteChannel> in_chan;   // proc: ring (null for gi == 0)
  std::shared_ptr<ByteChannel> out_chan;  // proc: ring; tcp: connected
  TcpListener* in_listener = nullptr;     // tcp, gi > 0: accept here
  int out_port = -1;                      // tcp: link gi's listener port
  std::shared_ptr<FdChannel> status_chan;
  std::shared_ptr<FdChannel> command_chan;
};

[[noreturn]] void worker_main(WorkerSetup setup) {
  detail::CopyWorld& world = setup.world;
  const std::size_t gi = world.gi;
  const FilterGroup& group = *world.group;
  const RunnerConfig& config = *world.config;
  ControlWriter status(setup.status_chan);

  const auto fatal_exit = [&](const std::string& message, int code) {
    Buffer b;
    put_string(b, message);
    status.send(kMsgFatal, std::move(b));
    status.close_write();
    ::_exit(code);
  };

  try {
    // Everything else about the run this worker inherited across fork.
    status.send(kMsgAck, Buffer());

    // Shared progress counters, declared before the heartbeat thread so
    // liveness frames can carry them from the very first beat.
    detail::LiveGroup live;
    live.live.store(group.copies, std::memory_order_relaxed);
    const GroupRuntime& runtime = live.runtime;

    // Liveness heartbeats: from the ready ACK until the telemetry
    // epilogue, a dedicated thread sends kHeartbeat frames carrying the
    // group's progress counters. Started before the tcp connect/accept
    // below on purpose — a worker wedged in a handshake whose peer died
    // must look silent to the supervisor's lapse monitor, not merely slow.
    detail::StopSignal hb_stop;
    std::thread hb_thread;
    if (config.heartbeat_seconds > 0.0) {
      hb_thread = std::thread([&] {
        for (std::int64_t seq = 0;; ++seq) {
          const bool sent = status.send_frame(Frame::heartbeat(
              seq, steady_now_ns(),
              runtime.progress.load(std::memory_order_relaxed),
              runtime.waiting.load(std::memory_order_relaxed),
              live.live.load(std::memory_order_relaxed)));
          if (!sent) break;  // supervisor gone; the reaper owns us now
          if (hb_stop.wait_for(config.heartbeat_seconds)) break;
        }
      });
    }
    const auto stop_heartbeats = [&] {
      if (!hb_thread.joinable()) return;
      hb_stop.signal();
      hb_thread.join();
    };

    // Data endpoints: on tcp, connect the output first (the listener was
    // bound before fork, so the connection queues even before the
    // consumer accepts), then accept the input on the inherited listener.
    // The accept watches the command pipe: if the upstream worker dies
    // before connecting, the supervisor's abort broadcast (or its own
    // death closing the pipe) is the only wakeup this worker will get —
    // the command reader thread does not exist yet.
    if (config.backend == TransportBackend::kTcp) {
      setup.out_chan = tcp_connect_loopback(setup.out_port);
      if (gi > 0) {
        setup.in_chan =
            setup.in_listener->accept_one(setup.command_chan->fd());
        if (!setup.in_chan)
          fatal_exit("worker '" + group.name +
                         "': run aborted before its input connected",
                     4);
      }
    }
    std::optional<FrameLink> in_link;
    if (gi > 0) in_link.emplace(setup.in_chan);
    FrameLink out_link(setup.out_chan);
    FrameLink command(setup.command_chan);

    // Local streams around the process boundary: the recv pump is the
    // single producer of the input stream, the send pump the single
    // consumer of the output stream; the group's copies sit in between
    // exactly as they would in the thread backend.
    std::optional<Stream> local_in;
    if (gi > 0) {
      local_in.emplace(config.stream_capacity);
      local_in->set_producers(1);
      local_in->set_consumers(group.copies);
    }
    Stream local_out(config.stream_capacity);
    local_out.set_producers(group.copies);
    local_out.set_consumers(1);

    std::optional<BufferPool> pool;
    if (config.pool_buffers_per_class > 0) {
      pool.emplace(config.pool_buffers_per_class);
      pool->set_geometry(gi > 0 ? 2 : 1, config.stream_capacity,
                         config.batch_size,
                         static_cast<std::size_t>(group.copies));
    }

    std::mutex state_mutex;
    StageCounters counters;
    support::FilterMetrics metrics;
    metrics.name = group.name;
    bool error_recorded = false;

    detail::StopSignal teardown;
    const auto abort_all = [&] {
      if (local_in) local_in->abort();
      local_out.abort();
      if (in_link) in_link->abort();
      out_link.abort();
      teardown.signal();
    };
    const auto set_error = [&](std::exception_ptr, const std::string& what) {
      bool report = false;
      {
        std::lock_guard lock(state_mutex);
        if (!error_recorded) {
          error_recorded = true;
          report = true;
        }
      }
      if (report) {
        Buffer b;
        put_string(b, what);
        status.send(kMsgFatal, std::move(b));
      }
    };

    world.pool = pool ? &*pool : nullptr;
    world.group_live = &live;
    world.teardown = &teardown;
    world.add_counters = [&](const StageCounters& c) {
      std::lock_guard lock(state_mutex);
      counters.merge(c);
    };
    world.merge_metrics = [&](const support::FilterMetrics& m) {
      std::lock_guard lock(state_mutex);
      metrics.merge(m);
    };
    world.record_fault = [&](support::FaultRecord fault) {
      support::PipelineTrace fragment;
      fragment.faults.push_back(std::move(fault));
      Buffer b;
      put_trace(b, fragment);
      status.send(kMsgFault, std::move(b));
    };
    world.set_error = set_error;
    world.abort_all = abort_all;
    world.submit_part = [&](std::int64_t id, std::size_t pgi, int copy,
                            std::vector<std::byte> state, bool usable,
                            std::int64_t delivered) {
      Buffer b;
      b.write<std::int64_t>(id);
      b.write<std::uint64_t>(pgi);
      b.write<std::int64_t>(copy);
      b.write<std::uint8_t>(usable ? 1 : 0);
      b.write<std::int64_t>(delivered);
      put_blob(b, state);
      status.send(kMsgPart, std::move(b));
    };
    world.register_terminal = [&](std::size_t pgi, int copy, bool usable,
                                  std::int64_t delivered) {
      Buffer b;
      b.write<std::uint64_t>(pgi);
      b.write<std::int64_t>(copy);
      b.write<std::uint8_t>(usable ? 1 : 0);
      b.write<std::int64_t>(delivered);
      status.send(kMsgTerminal, std::move(b));
    };

    std::thread recv_pump;
    if (gi > 0)
      recv_pump = std::thread([&] {
        const bool clean = pump_link_into_stream(*in_link, *local_in);
        if (!in_link->error().empty())
          set_error(std::make_exception_ptr(
                        std::runtime_error(in_link->error())),
                    in_link->error());
        // Ended without a Close: the upstream aborted or died. Cascade so
        // our own downstream does not wait for data that cannot come.
        if (!clean) abort_all();
      });
    std::thread send_pump([&] {
      pump_stream_into_link(local_out, out_link, config.batch_size,
                            pool ? &*pool : nullptr, abort_all);
    });
    std::thread command_reader([&] {
      for (;;) {
        std::optional<Frame> frame = command.recv();
        if (!frame) break;
        if (frame->kind == FrameKind::kData &&
            frame->buffers.front().tag() == kMsgAbort)
          abort_all();
      }
    });

    std::vector<std::thread> copies;
    for (int copy = 0; copy < group.copies; ++copy)
      copies.emplace_back([&, copy] {
        detail::run_copy(world, copy, local_in ? &*local_in : nullptr,
                         &local_out);
      });
    for (std::thread& t : copies) t.join();
    send_pump.join();
    if (recv_pump.joinable()) recv_pump.join();
    stop_heartbeats();

    // End-of-run telemetry: [StageCounters][trace fragment]. The fragment
    // holds the stage metrics; the output link's stream counters with the
    // send-side wire counters; for gi > 0, a second link entry carrying
    // only the input endpoint's receive wait; and the pool counters.
    {
      support::PipelineTrace fragment;
      Buffer b;
      {
        std::lock_guard lock(state_mutex);
        put_counters(b, counters);
        fragment.filters.push_back(metrics);
      }
      support::LinkMetrics out_metrics = local_out.metrics();
      const TransportCounters sent = out_link.counters();
      out_metrics.frames = sent.frames;
      out_metrics.wire_bytes = sent.wire_bytes;
      out_metrics.send_wait_seconds = sent.send_wait_seconds;
      fragment.links.push_back(out_metrics);
      if (in_link) {
        support::LinkMetrics in_metrics;
        in_metrics.recv_wait_seconds = in_link->counters().recv_wait_seconds;
        fragment.links.push_back(in_metrics);
      }
      if (pool) fragment.pool = pool->metrics();
      put_trace(b, fragment);
      status.send(kMsgStats, std::move(b));
    }
    status.close_write();
    // _exit: the command reader may still be parked in a read, and gtest
    // in the forked image must not re-run exit handlers.
    ::_exit(0);
  } catch (const std::exception& e) {
    fatal_exit(std::string("worker '") + group.name + "': " + e.what(), 1);
  } catch (...) {
    fatal_exit("worker '" + group.name + "': unknown fatal error", 1);
  }
  ::_exit(1);  // unreachable; fatal_exit never returns
}

// ---- self-healing attempt bookkeeping -------------------------------------

// One organic worker death: a candidate for resurrection (SIGKILL, crash,
// or supervisor liveness-kill), as opposed to a nonzero exit or a
// teardown-escalation kill, which stay fatal.
struct WorkerDeath {
  std::size_t wi = 0;
  std::string cause;
  double at_seconds = 0.0;  // against the run epoch
};

// What one rollback-recovery attempt hands the heal loop: its telemetry,
// how it ended, which workers died organically, and the newest usable
// in-run cut the next attempt restores from.
struct AttemptResult {
  RunStats stats;
  std::exception_ptr error;
  std::vector<WorkerDeath> organic;
  double handshake_done = 0.0;       // run-relative: all ready ACKs in
  std::optional<RunCheckpoint> cut;  // newest usable in-run cut
  std::vector<char> have_stats;
};

// Per-worker heartbeat mirror, written by that worker's control reader
// and sampled by the reaper's lapse/stall monitors.
struct HeartbeatState {
  std::atomic<std::int64_t> last_beat_ns{0};
  std::atomic<std::int64_t> progress{0};
  std::atomic<std::int64_t> waiting{0};
  std::atomic<int> live{0};
  std::atomic<std::int64_t> beats{0};
  std::atomic<std::int64_t> latency_sum_ns{0};
  std::atomic<std::int64_t> latency_max_ns{0};
};

void fold_link_metrics(support::LinkMetrics& into,
                       const support::LinkMetrics& from) {
  into.buffers += from.buffers;
  into.bytes += from.bytes;
  into.batches += from.batches;
  into.capacity = std::max(into.capacity, from.capacity);
  into.occupancy_high_water =
      std::max(into.occupancy_high_water, from.occupancy_high_water);
  into.dropped_buffers += from.dropped_buffers;
  into.producer_block_seconds += from.producer_block_seconds;
  into.consumer_block_seconds += from.consumer_block_seconds;
  into.transport = from.transport;
  into.frames += from.frames;
  into.wire_bytes += from.wire_bytes;
  into.send_wait_seconds += from.send_wait_seconds;
  into.recv_wait_seconds += from.recv_wait_seconds;
}

// Folds one attempt's telemetry into the run's merged stats. Counters
// sum (every attempt's traffic is real traffic), high-water marks take
// the max, and event lists (faults, checkpoints, heartbeats) append —
// completion/error disposition is the heal loop's decision, not folded.
// Stage counters are the final attempt's (see RunStats::group_counters).
void fold_attempt_stats(RunStats& into, RunStats&& from) {
  into.group_counters = std::move(from.group_counters);
  for (std::size_t gi = 0; gi < into.group_metrics.size(); ++gi)
    into.group_metrics[gi].merge(from.group_metrics[gi]);
  // An attempt that failed during startup assembled no links.
  if (into.link_metrics.empty()) {
    into.link_metrics = std::move(from.link_metrics);
  } else if (!from.link_metrics.empty()) {
    for (std::size_t li = 0; li < into.link_metrics.size(); ++li)
      fold_link_metrics(into.link_metrics[li], from.link_metrics[li]);
  }
  for (auto& fault : from.faults) into.faults.push_back(std::move(fault));
  for (auto& rec : from.checkpoints)
    into.checkpoints.push_back(std::move(rec));
  into.pool.merge(from.pool);
  for (auto& hb : from.heartbeats) {
    const auto it =
        std::find_if(into.heartbeats.begin(), into.heartbeats.end(),
                     [&](const support::HeartbeatMetrics& m) {
                       return m.group == hb.group;
                     });
    if (it == into.heartbeats.end())
      into.heartbeats.push_back(std::move(hb));
    else
      it->merge(hb);
  }
  into.batch_size = from.batch_size;
}

void init_group_stats(RunStats& stats, const std::vector<FilterGroup>& groups) {
  stats.group_counters.resize(groups.size());
  stats.group_metrics.resize(groups.size());
  for (std::size_t gi = 0; gi < groups.size(); ++gi)
    stats.group_metrics[gi].name = groups[gi].name;
}

}  // namespace

// ---- one attempt ------------------------------------------------------------

// One full topology bring-up, run, and teardown, in four phases: spawn
// (fork every worker), await_ready (ready ACKs and the supervisor's own
// data endpoint), sink_and_monitor (control readers, reaper, the sink
// group), and assemble (the attempt's stats). By the end of run() this
// process is single-threaded again (every thread joined, every worker
// reaped), which is what makes the next attempt's forks TSan-legal.
class PipelineRunner::ProcAttempt {
 public:
  ProcAttempt(const PipelineRunner& runner, const RunnerConfig& config,
              bool run_ckpt, Clock::time_point run_start, AttemptResult& out)
      : runner_(runner),
        groups_(runner.groups_),
        config_(config),
        run_ckpt_(run_ckpt),
        run_start_(run_start),
        heal_(config.self_heal()),
        out_(out),
        stats_(out.stats),
        n_workers_(groups_.size() - 1),
        sink_gi_(groups_.size() - 1),
        rings_(n_workers_),
        listeners_(n_workers_),
        workers_(n_workers_),
        hb_(n_workers_),
        reports_(n_workers_),
        sink_stream_(config.stream_capacity),
        state_(out.stats, groups_, config.checkpoint_path, run_start, heal_),
        escalated_(n_workers_, 0),
        lapse_killed_(n_workers_, 0),
        lapse_after_(std::max(4.0 * config.heartbeat_seconds, 0.05)) {
    init_group_stats(stats_, groups_);
    out_.have_stats.assign(n_workers_, 0);
    sink_stream_.set_producers(1);
    sink_stream_.set_consumers(groups_[sink_gi_].copies);
    sink_live_.live.store(groups_[sink_gi_].copies,
                          std::memory_order_relaxed);
  }

  void run() {
    spawn();
    if (!await_ready()) return;
    sink_and_monitor();
    assemble();
  }

 private:
  struct WorkerHandle {
    pid_t pid = -1;
    bool reaped = false;
    std::shared_ptr<FdChannel> status_chan;  // worker -> supervisor
    std::unique_ptr<ControlWriter> command;  // supervisor -> worker
    std::unique_ptr<FrameLink> status;
  };
  // Per-worker end-of-run telemetry, filled by that worker's control
  // reader thread and consumed only after the reader joined.
  struct WorkerReport {
    bool have_stats = false;
    StageCounters counters;
    support::PipelineTrace telemetry;  // the worker's trace fragment
  };

  void spawn();
  bool await_ready();
  bool connect_sink();
  void sink_and_monitor();
  void read_control(std::size_t wi);
  void reap();
  void assemble();

  void kill_all_forked();
  bool worker_killed() const;
  void probe_startup_deaths();
  void fail_startup(const std::string& message);
  void global_teardown(bool preserve_sink);

  const PipelineRunner& runner_;
  const std::vector<FilterGroup>& groups_;
  const RunnerConfig& config_;
  const bool run_ckpt_;
  const Clock::time_point run_start_;
  const bool heal_;
  AttemptResult& out_;
  RunStats& stats_;
  const std::size_t n_workers_;  // == number of links
  const std::size_t sink_gi_;

  // Link endpoints, created before any fork so both endpoint processes
  // inherit them: rings as shared mappings, listeners as bound sockets.
  std::vector<std::shared_ptr<ShmRing>> rings_;
  std::vector<std::unique_ptr<TcpListener>> listeners_;
  std::vector<WorkerHandle> workers_;
  // Heartbeat mirrors, one per worker: the control readers write them,
  // the reaper's lapse and stall monitors sample them.
  std::vector<HeartbeatState> hb_;
  std::vector<WorkerReport> reports_;

  // The supervisor's own data endpoint (the consumer end of the last
  // link) feeding the in-process sink group.
  std::shared_ptr<ByteChannel> sink_chan_;
  std::optional<FrameLink> sink_link_;
  Stream sink_stream_;
  detail::LiveGroup sink_live_;
  detail::RunState state_;
  std::atomic<bool> abort_broadcast_{false};
  std::vector<char> escalated_;
  std::vector<char> lapse_killed_;
  const double lapse_after_;
};

void PipelineRunner::ProcAttempt::kill_all_forked() {
  for (WorkerHandle& w : workers_)
    if (w.pid > 0 && !w.reaped) {
      ::kill(w.pid, SIGKILL);
      int st = 0;
      while (::waitpid(w.pid, &st, 0) < 0 && errno == EINTR) {
      }
      w.reaped = true;
    }
}

// Fork every worker before this process creates a single thread (fork in
// a multithreaded supervisor is undefined enough that TSan rejects it
// outright). Children never return from worker_main.
void PipelineRunner::ProcAttempt::spawn() {
  const bool tcp = config_.backend == TransportBackend::kTcp;
  for (std::size_t i = 0; i < n_workers_; ++i) {
    if (tcp)
      listeners_[i] = std::make_unique<TcpListener>();
    else
      rings_[i] = ShmRing::create(config_.ring_bytes);
  }
  std::vector<int> parent_fds;  // supervisor pipe ends forked so far
  for (std::size_t wi = 0; wi < n_workers_; ++wi) {
    int status_pipe[2];
    int command_pipe[2];
    if (::pipe(status_pipe) != 0 || ::pipe(command_pipe) != 0) {
      kill_all_forked();
      throw std::system_error(errno, std::generic_category(),
                              "run_multiprocess: pipe");
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      kill_all_forked();
      throw std::system_error(errno, std::generic_category(),
                              "run_multiprocess: fork");
    }
    if (pid == 0) {
      ::close(status_pipe[0]);
      ::close(command_pipe[1]);
      // Supervisor-side ends of earlier workers' pipes: holding duplicate
      // command-pipe write ends would keep a sibling's EOF from ever
      // firing until this whole cohort exits, and the descriptors are
      // dead weight in every worker.
      for (const int fd : parent_fds) ::close(fd);
      WorkerSetup setup;
      setup.world = runner_.copy_world(config_, wi, run_ckpt_, run_start_);
      if (tcp) {
        if (wi > 0) setup.in_listener = listeners_[wi - 1].get();
        setup.out_port = listeners_[wi]->port();
      } else {
        if (wi > 0) setup.in_chan = rings_[wi - 1];
        setup.out_chan = rings_[wi];
      }
      // Link endpoints this worker is not a party to: it reads link wi-1
      // and writes link wi (by port number on tcp — only the input-side
      // listener descriptor is used after fork).
      for (std::size_t li = 0; li < n_workers_; ++li) {
        const bool input = wi > 0 && li == wi - 1;
        if (rings_[li] && li != wi && !input) rings_[li].reset();
        if (listeners_[li] && !input) listeners_[li]->close();
      }
      setup.status_chan =
          std::make_shared<FdChannel>(status_pipe[1], FdChannel::Kind::kPipe);
      setup.command_chan =
          std::make_shared<FdChannel>(command_pipe[0], FdChannel::Kind::kPipe);
      worker_main(std::move(setup));  // never returns
    }
    ::close(status_pipe[1]);
    ::close(command_pipe[0]);
    parent_fds.push_back(status_pipe[0]);
    parent_fds.push_back(command_pipe[1]);
    WorkerHandle& w = workers_[wi];
    w.pid = pid;
    w.status_chan =
        std::make_shared<FdChannel>(status_pipe[0], FdChannel::Kind::kPipe);
    w.status = std::make_unique<FrameLink>(w.status_chan);
    w.command = std::make_unique<ControlWriter>(std::make_shared<FdChannel>(
        command_pipe[1], FdChannel::Kind::kPipe));
    if (runner_.process_hook_)
      runner_.process_hook_(wi, static_cast<long>(pid));
  }
}

// A startup failure may itself be an organic death (the chaos sniper does
// not wait for the handshake): sweep the corpses before the
// indiscriminate SIGKILL so a self-healing run can tell resurrection
// candidates from collateral.
void PipelineRunner::ProcAttempt::probe_startup_deaths() {
  if (!heal_) return;
  for (std::size_t wi = 0; wi < n_workers_; ++wi) {
    WorkerHandle& w = workers_[wi];
    if (w.pid <= 0 || w.reaped) continue;
    int st = 0;
    if (::waitpid(w.pid, &st, WNOHANG) != w.pid) continue;
    w.reaped = true;
    if (WIFSIGNALED(st))
      out_.organic.push_back({wi,
                              "worker process for stage '" +
                                  groups_[wi].name + "' died (signal " +
                                  std::to_string(WTERMSIG(st)) +
                                  ") during startup",
                              seconds_since(run_start_)});
  }
}

void PipelineRunner::ProcAttempt::fail_startup(const std::string& message) {
  probe_startup_deaths();
  kill_all_forked();
  stats_.error = message;
  stats_.completed = false;
  out_.error = std::make_exception_ptr(std::runtime_error(message));
  out_.handshake_done = seconds_since(run_start_);
}

// Whether some worker already died of a signal. Peeks without reaping, so
// the corpse is still there for whoever classifies it.
bool PipelineRunner::ProcAttempt::worker_killed() const {
  for (const WorkerHandle& w : workers_) {
    siginfo_t info{};
    if (::waitid(P_PID, static_cast<id_t>(w.pid), &info,
                 WEXITED | WNOHANG | WNOWAIT) == 0 &&
        info.si_pid == w.pid &&
        (info.si_code == CLD_KILLED || info.si_code == CLD_DUMPED))
      return true;
  }
  return false;
}

// Still single-threaded: every worker's ready ACK, then the supervisor's
// own data endpoint. Workers start on their own after fork, so one killed
// right after launch may have ACKed first; under self-healing such a
// death still fails the startup, before any thread exists. False when the
// attempt failed to start.
bool PipelineRunner::ProcAttempt::await_ready() {
  for (std::size_t wi = 0; wi < n_workers_; ++wi) {
    std::optional<Frame> ack = workers_[wi].status->recv();
    if (!ack || ack->kind != FrameKind::kData ||
        ack->buffers.front().tag() != kMsgAck) {
      fail_startup("run_multiprocess: worker for stage '" + groups_[wi].name +
                   "' never reported ready");
      return false;
    }
  }
  if (heal_ && worker_killed()) {
    fail_startup("run_multiprocess: a worker process died during startup");
    return false;
  }
  out_.handshake_done = seconds_since(run_start_);
  // The lapse clock starts at handshake so a worker that never beats at
  // all is caught.
  const std::int64_t now_ns = steady_now_ns();
  for (HeartbeatState& h : hb_)
    h.last_beat_ns.store(now_ns, std::memory_order_relaxed);
  if (!connect_sink()) return false;
  sink_link_.emplace(sink_chan_);
  return true;
}

// On tcp the accept runs before the reaper thread exists, so it probes
// worker liveness itself: a worker that dies before the last worker's
// connect arrives must fail the run, not wedge this thread on a
// connection that will never come.
bool PipelineRunner::ProcAttempt::connect_sink() {
  if (config_.backend == TransportBackend::kProc) {
    sink_chan_ = rings_.back();
    return true;
  }
  std::string abnormal_death;
  std::string peer_gone;
  const auto worker_died = [&] {
    for (std::size_t wi = 0; wi < n_workers_; ++wi) {
      WorkerHandle& w = workers_[wi];
      if (w.reaped) continue;
      int st = 0;
      if (::waitpid(w.pid, &st, WNOHANG) != w.pid) continue;
      w.reaped = true;
      const std::string who =
          "worker process for stage '" + groups_[wi].name + "' ";
      if (WIFSIGNALED(st)) {
        abnormal_death = who + "died (signal " +
                         std::to_string(WTERMSIG(st)) +
                         ") before the pipeline connected";
        if (heal_)
          out_.organic.push_back(
              {wi, abnormal_death, seconds_since(run_start_)});
      } else if (WIFEXITED(st) && WEXITSTATUS(st) != 0) {
        abnormal_death = who + "exited with status " +
                         std::to_string(WEXITSTATUS(st)) +
                         " before the pipeline connected";
      } else if (wi + 1 == n_workers_) {
        // The peer that must connect here is gone. If its connection is
        // already queued it exited after a (tiny) complete run and the
        // accept's final poll picks it up; otherwise nothing ever will.
        peer_gone = who + "exited before connecting its output";
      }
    }
    return !abnormal_death.empty() || !peer_gone.empty();
  };
  sink_chan_ = listeners_.back()->accept_one(-1, worker_died);
  if (!abnormal_death.empty()) {
    fail_startup("run_multiprocess: " + abnormal_death);
    return false;
  }
  if (!sink_chan_) {
    fail_startup("run_multiprocess: " + peer_gone);
    return false;
  }
  return true;
}

// Whole-run teardown, used when a worker dies without a word: silent
// death cannot cascade through the data plane on its own (a SIGKILLed
// ring endpoint leaves the ring open), so the supervisor aborts the rings
// it retained, its own sink channel, the sink stream, and broadcasts
// abort commands for the socket links it holds no end of.
// `preserve_sink` is the self-healing variant: the sink stream is
// quiesced instead of aborted, so its queued prefix stays deliverable —
// the basis of both the degraded partial result and the rollback (the
// sink's cut part reflects what it actually consumed).
void PipelineRunner::ProcAttempt::global_teardown(bool preserve_sink) {
  if (abort_broadcast_.exchange(true)) return;
  for (const std::shared_ptr<ShmRing>& ring : rings_)
    if (ring) ring->abort();
  sink_chan_->abort();
  for (WorkerHandle& w : workers_) w.command->send(kMsgAbort, Buffer());
  if (preserve_sink)
    sink_stream_.quiesce();
  else
    sink_stream_.abort();
  state_.teardown.signal();
}

void PipelineRunner::ProcAttempt::read_control(std::size_t wi) {
  WorkerReport& report = reports_[wi];
  for (;;) {
    std::optional<Frame> frame = workers_[wi].status->recv();
    if (!frame) break;
    if (frame->kind == FrameKind::kHeartbeat) {
      HeartbeatState& h = hb_[wi];
      const std::int64_t now_ns = steady_now_ns();
      h.last_beat_ns.store(now_ns, std::memory_order_relaxed);
      h.progress.store(frame->hb_progress, std::memory_order_relaxed);
      h.waiting.store(frame->hb_waiting, std::memory_order_relaxed);
      h.live.store(static_cast<int>(frame->hb_live),
                   std::memory_order_relaxed);
      h.beats.fetch_add(1, std::memory_order_relaxed);
      // Single writer per mirror: plain load/modify/store suffices.
      const std::int64_t lat =
          std::max<std::int64_t>(0, now_ns - frame->hb_send_ns);
      h.latency_sum_ns.store(
          h.latency_sum_ns.load(std::memory_order_relaxed) + lat,
          std::memory_order_relaxed);
      if (lat > h.latency_max_ns.load(std::memory_order_relaxed))
        h.latency_max_ns.store(lat, std::memory_order_relaxed);
      continue;
    }
    if (frame->kind != FrameKind::kData) continue;
    Buffer& body = frame->buffers.front();
    try {
      switch (body.tag()) {
        case kMsgPart: {
          const std::int64_t id = body.read<std::int64_t>();
          const auto gi = static_cast<std::size_t>(body.read<std::uint64_t>());
          const int copy = static_cast<int>(body.read<std::int64_t>());
          const bool usable = body.read<std::uint8_t>() != 0;
          const std::int64_t delivered = body.read<std::int64_t>();
          state_.submit_part(id, gi, copy, get_blob(body), usable, delivered);
          break;
        }
        case kMsgTerminal: {
          const auto gi = static_cast<std::size_t>(body.read<std::uint64_t>());
          const int copy = static_cast<int>(body.read<std::int64_t>());
          const bool usable = body.read<std::uint8_t>() != 0;
          const std::int64_t delivered = body.read<std::int64_t>();
          state_.register_terminal(gi, copy, usable, delivered);
          break;
        }
        case kMsgFault:
          for (support::FaultRecord& fault : get_trace(body).faults)
            state_.record_fault(std::move(fault));
          break;
        case kMsgFatal: {
          const std::string what = get_string(body);
          state_.set_error(std::make_exception_ptr(std::runtime_error(what)),
                           what);
          break;
        }
        case kMsgStats: {
          report.counters = get_counters(body);
          report.telemetry = get_trace(body);
          // The shape the worker writes: one filter; the output link,
          // plus the input endpoint's receive wait when wi > 0.
          if (report.telemetry.filters.size() != 1 ||
              report.telemetry.links.size() != (wi > 0 ? 2u : 1u))
            throw std::runtime_error("unexpected telemetry shape");
          report.have_stats = true;
          break;
        }
        default:
          break;  // unknown control message: skip, never wedge
      }
    } catch (const std::exception& e) {
      // A malformed message fails the run; it must not escape the reader
      // thread.
      const std::string what = "worker '" + groups_[wi].name +
                               "': malformed control message: " + e.what();
      state_.set_error(std::make_exception_ptr(std::runtime_error(what)),
                       what);
    }
  }
}

// Reaper: polls (never waitpid(-1): the host process may own unrelated
// children) so an out-of-order death is noticed within milliseconds. It
// is also the liveness authority: a worker silent past the heartbeat
// lapse window is SIGKILLed (then classified as a lapse death when
// reaped), and with heartbeats on it runs the no-progress watchdog over
// the heartbeat mirrors. Once an abort has been broadcast, workers that
// still have not exited after the teardown grace are SIGKILLed: a worker
// wedged mid-teardown must never keep the reaper — and with it the whole
// run — from converging. Escalation kills are flagged so they are never
// mistaken for organic deaths.
void PipelineRunner::ProcAttempt::reap() {
  const double timeout = runner_.policy_.stage_timeout_seconds;
  std::optional<detail::StallWatchdog> watchdog;
  if (timeout > 0.0) watchdog.emplace(groups_.size(), timeout);
  std::size_t remaining = 0;
  for (const WorkerHandle& w : workers_)
    if (!w.reaped) ++remaining;
  bool escalation_armed = false;
  Clock::time_point abort_seen{};
  std::int64_t last_monitor_ns = -1;
  while (remaining > 0) {
    bool reaped_any = false;
    for (std::size_t wi = 0; wi < n_workers_; ++wi) {
      WorkerHandle& w = workers_[wi];
      if (w.reaped) continue;
      int st = 0;
      if (::waitpid(w.pid, &st, WNOHANG) != w.pid) continue;
      w.reaped = true;
      --remaining;
      reaped_any = true;
      if (WIFSIGNALED(st)) {
        if (escalated_[wi]) continue;  // our own teardown kill
        std::ostringstream msg;
        msg << "worker process for stage '" << groups_[wi].name << "' ";
        if (lapse_killed_[wi])
          msg << "was killed after a heartbeat lapse (silent for more than "
              << lapse_after_ << "s)";
        else
          msg << "died (signal " << WTERMSIG(st) << ")";
        if (heal_) {
          // Resurrection candidate: preserve the sink's queued prefix and
          // let the heal loop roll back and respawn. The reaper is the
          // only concurrent writer of `organic`; the heal loop reads it
          // after every thread joined.
          out_.organic.push_back({wi, msg.str(), seconds_since(run_start_)});
          global_teardown(true);
        } else {
          state_.set_error(
              std::make_exception_ptr(std::runtime_error(msg.str())),
              msg.str());
          global_teardown(false);
        }
      } else if (WIFEXITED(st) && WEXITSTATUS(st) != 0) {
        std::ostringstream msg;
        msg << "worker process for stage '" << groups_[wi].name
            << "' exited with status " << WEXITSTATUS(st);
        state_.set_error(
            std::make_exception_ptr(std::runtime_error(msg.str())),
            msg.str());
        global_teardown(false);
      }
    }
    if (reaped_any) continue;
    if (abort_broadcast_.load(std::memory_order_relaxed)) {
      if (!escalation_armed) {
        escalation_armed = true;
        abort_seen = Clock::now();
      } else if (seconds_since(abort_seen) >
                 static_cast<double>(config_.teardown_grace_ms) / 1e3) {
        for (std::size_t wi = 0; wi < n_workers_; ++wi)
          if (!workers_[wi].reaped) {
            escalated_[wi] = 1;
            ::kill(workers_[wi].pid, SIGKILL);
          }
      }
    } else if (config_.heartbeat_seconds > 0.0) {
      // Lapse monitor: a worker whose heartbeats stopped is wedged or
      // half-dead in a way the data plane cannot see (e.g. a stuck
      // syscall). Kill it crisply; the reap above classifies the corpse,
      // and under self-healing it gets resurrected.
      const std::int64_t now_ns = steady_now_ns();
      // Self-stall guard: a monitor that just lost the CPU for a sizable
      // slice of the window cannot tell a silent worker from its own
      // starvation — beats may be parked in pipes the control readers
      // have not drained yet. Skip this round's verdicts and let them
      // land (loaded single-core hosts and sanitizer slowdowns hit this
      // constantly).
      const bool monitor_stalled =
          last_monitor_ns >= 0 &&
          static_cast<double>(now_ns - last_monitor_ns) / 1e9 >
              lapse_after_ / 2.0;
      last_monitor_ns = now_ns;
      for (std::size_t wi = 0; !monitor_stalled && wi < n_workers_; ++wi) {
        WorkerHandle& w = workers_[wi];
        if (w.reaped || lapse_killed_[wi]) continue;
        const std::int64_t last =
            hb_[wi].last_beat_ns.load(std::memory_order_relaxed);
        if (static_cast<double>(now_ns - last) / 1e9 > lapse_after_) {
          lapse_killed_[wi] = 1;
          ::kill(w.pid, SIGKILL);
        }
      }
      // Stall watchdog over the heartbeat mirrors, with the sink group
      // sampled in-process.
      if (watchdog) {
        const auto stalled = watchdog->scan([&](std::size_t gi) {
          using Sample = detail::StallWatchdog::Sample;
          if (gi == sink_gi_) {
            const GroupRuntime& rt = sink_live_.runtime;
            return Sample{sink_live_.live.load(std::memory_order_relaxed),
                          rt.progress.load(std::memory_order_relaxed),
                          rt.waiting.load(std::memory_order_relaxed)};
          }
          // A finished worker's mirror is frozen at its last beat (often
          // still showing live copies): a corpse can't stall.
          if (workers_[gi].reaped) return Sample{};
          const HeartbeatState& h = hb_[gi];
          return Sample{
              h.live.load(std::memory_order_relaxed),
              h.progress.load(std::memory_order_relaxed),
              static_cast<int>(h.waiting.load(std::memory_order_relaxed))};
        });
        if (stalled) {
          state_.fail_stalled(*stalled, timeout);
          global_teardown(false);
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void PipelineRunner::ProcAttempt::sink_and_monitor() {
  std::optional<BufferPool> pool;
  if (config_.pool_buffers_per_class > 0) {
    pool.emplace(config_.pool_buffers_per_class);
    pool->set_geometry(1, config_.stream_capacity, config_.batch_size,
                       static_cast<std::size_t>(groups_[sink_gi_].copies));
  }

  std::vector<std::thread> control_readers;
  for (std::size_t wi = 0; wi < n_workers_; ++wi)
    control_readers.emplace_back([this, wi] { read_control(wi); });
  std::thread reaper([this] { reap(); });
  std::thread sink_pump([this] {
    // An unclean end already quiesced/aborted the sink stream.
    (void)pump_link_into_stream(*sink_link_, sink_stream_, heal_);
    if (!sink_link_->error().empty()) {
      state_.set_error(
          std::make_exception_ptr(std::runtime_error(sink_link_->error())),
          sink_link_->error());
      global_teardown(heal_);
    }
  });

  detail::CopyWorld world =
      runner_.copy_world(config_, sink_gi_, run_ckpt_, run_start_);
  world.pool = pool ? &*pool : nullptr;
  world.group_live = &sink_live_;
  state_.wire(world, sink_gi_);
  world.abort_all = [this] { global_teardown(false); };
  std::vector<std::thread> sink_copies;
  for (int copy = 0; copy < groups_[sink_gi_].copies; ++copy)
    sink_copies.emplace_back([&, copy] {
      detail::run_copy(world, copy, &sink_stream_, nullptr);
    });

  for (std::thread& t : sink_copies) t.join();
  sink_pump.join();
  reaper.join();
  for (std::thread& t : control_readers) t.join();
  if (pool) stats_.pool.merge(pool->metrics());
}

void PipelineRunner::ProcAttempt::assemble() {
  stats_.wall_seconds = seconds_since(run_start_);
  for (std::size_t wi = 0; wi < n_workers_; ++wi) {
    WorkerReport& report = reports_[wi];
    support::LinkMetrics link;
    if (report.have_stats) {
      stats_.group_counters[wi] = report.counters;
      stats_.group_metrics[wi].merge(report.telemetry.filters.front());
      stats_.pool.merge(report.telemetry.pool);
      link = report.telemetry.links.front();
    }
    link.transport = backend_name(config_.backend);
    if (wi + 1 == n_workers_)
      link.recv_wait_seconds = sink_link_->counters().recv_wait_seconds;
    else if (reports_[wi + 1].have_stats)
      link.recv_wait_seconds =
          reports_[wi + 1].telemetry.links.back().recv_wait_seconds;
    stats_.link_metrics.push_back(link);
    out_.have_stats[wi] = report.have_stats ? 1 : 0;
  }
  stats_.batch_size = static_cast<std::int64_t>(config_.batch_size);
  for (std::size_t wi = 0; wi < n_workers_; ++wi) {
    const std::int64_t beats = hb_[wi].beats.load(std::memory_order_relaxed);
    if (beats <= 0) continue;
    support::HeartbeatMetrics m;
    m.group = groups_[wi].name;
    m.beats = beats;
    m.max_latency_seconds =
        static_cast<double>(
            hb_[wi].latency_max_ns.load(std::memory_order_relaxed)) /
        1e9;
    m.sum_latency_seconds =
        static_cast<double>(
            hb_[wi].latency_sum_ns.load(std::memory_order_relaxed)) /
        1e9;
    stats_.heartbeats.push_back(std::move(m));
  }
  out_.cut = state_.collector.take_latest_cut();
  out_.error = state_.first_error();
  stats_.completed = !out_.error;
}

// ---- the heal loop ----------------------------------------------------------

RunOutcome PipelineRunner::run_multiprocess(bool run_ckpt) {
  ScopedIgnoreSigpipe sigpipe_guard;
  const std::size_t n_workers = groups_.size() - 1;  // >= 1 (dispatch)

  // One epoch for the whole run: every attempt's fault stamps, cut
  // records, and respawn records are offsets from here, so a healed run's
  // timeline reads as one run, not a stack of restarts.
  const auto run_start = Clock::now();

  RunOutcome outcome;
  RunStats& merged = outcome.stats;
  init_group_stats(merged, groups_);
  merged.fault_policy = FaultPolicy::action_name(policy_.action);
  for (const FilterGroup& g : groups_) merged.group_copies.push_back(g.copies);

  // Rollback-recovery state carried across attempts: the cut the next
  // attempt restores from (seeded by an explicit --resume, then advanced
  // to each attempt's newest in-run cut), per-worker restart budgets, and
  // the respawn records whose MTTR the next handshake completes.
  std::optional<RunCheckpoint> restore;
  if (config_.resume) restore = *config_.resume;
  std::vector<int> restarts_used(n_workers, 0);
  std::vector<support::RespawnRecord> pending;

  for (;;) {
    RunnerConfig attempt_config = config_;
    attempt_config.resume = restore ? &*restore : nullptr;
    AttemptResult r;
    ProcAttempt(*this, attempt_config, run_ckpt, run_start, r).run();

    // The respawns the previous wave scheduled are recovered the moment
    // the replacement topology reported ready: stamp their MTTR.
    for (support::RespawnRecord& rec : pending) {
      rec.mttr_seconds = std::max(0.0, r.handshake_done - rec.at_seconds);
      merged.respawns.push_back(std::move(rec));
    }
    pending.clear();

    const std::string attempt_error_text = r.stats.error;
    fold_attempt_stats(merged, std::move(r.stats));

    // A death between a worker's final telemetry and its exit is not a
    // failure: if the attempt produced no error and every worker's stats
    // arrived, the pipeline finished — a corpse found afterwards must not
    // trigger a pointless full re-run.
    const bool all_stats =
        std::all_of(r.have_stats.begin(), r.have_stats.end(),
                    [](char have) { return have != 0; });
    const bool attempt_complete = !r.error && all_stats;
    const bool want_respawn = !r.organic.empty() && !attempt_complete;
    bool exhausted = false;
    for (const WorkerDeath& d : r.organic)
      if (restarts_used[d.wi] >= config_.worker_restarts) exhausted = true;

    if (want_respawn && exhausted) {
      // Budget exhausted: graceful degradation. The sink stream was
      // quiesced, so whatever the surviving stages delivered stands as a
      // partial result; error stays null so nothing rethrows it away.
      for (const WorkerDeath& d : r.organic) {
        support::FaultRecord fault;
        fault.group = groups_[d.wi].name;
        fault.copy = -1;
        fault.what = d.cause;
        fault.resolution = support::FaultResolution::kCopyDead;
        fault.attempt = restarts_used[d.wi];
        fault.at_seconds = d.at_seconds;
        merged.faults.push_back(std::move(fault));
      }
      merged.degraded = true;
      merged.completed = false;
      merged.error = "self-heal: restart budget (" +
                     std::to_string(config_.worker_restarts) +
                     ") exhausted for stage '" +
                     groups_[r.organic.front().wi].name +
                     "'; surviving stages drained to a partial result";
      outcome.disposition = RunOutcome::kDegraded;
      break;
    }
    if (!want_respawn) {
      outcome.error = r.error;
      outcome.disposition =
          r.error ? RunOutcome::kFailed : RunOutcome::kComplete;
      merged.completed = !r.error;
      merged.error = r.error ? attempt_error_text : "";
      break;
    }

    // Respawn wave: roll the restore point forward to the attempt's
    // newest usable cut (keep the previous one if none completed), charge
    // each dead worker's budget, record the incident, and back off.
    if (r.cut) restore = std::move(r.cut);
    double delay = 0.0;
    for (const WorkerDeath& d : r.organic) {
      const int restart = ++restarts_used[d.wi];
      std::ostringstream what;
      what << d.cause << "; respawning (restart " << restart << " of "
           << config_.worker_restarts << ", ";
      if (restore)
        what << "rolling back to cut " << restore->id << ")";
      else
        what << "restarting from scratch)";
      support::FaultRecord fault;
      fault.group = groups_[d.wi].name;
      fault.copy = -1;
      fault.what = what.str();
      fault.resolution = support::FaultResolution::kRespawnedWorker;
      fault.attempt = restart;
      fault.at_seconds = d.at_seconds;
      merged.faults.push_back(std::move(fault));
      support::RespawnRecord rec;
      rec.group = groups_[d.wi].name;
      rec.worker = static_cast<int>(d.wi);
      rec.restart = restart;
      rec.cut_id = restore ? restore->id : -1;
      rec.at_seconds = d.at_seconds;
      rec.cause = d.cause;
      pending.push_back(std::move(rec));
      double backoff = policy_.backoff_initial_seconds;
      for (int i = 1; i < restart; ++i)
        backoff = std::min(backoff * policy_.backoff_multiplier,
                           policy_.backoff_max_seconds);
      delay = std::max(delay, std::min(backoff, policy_.backoff_max_seconds));
    }
    if (delay > 0.0)
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
  }

  merged.wall_seconds = seconds_since(run_start);
  merged.batch_size = static_cast<std::int64_t>(config_.batch_size);
  return outcome;
}

}  // namespace cgp::dc
