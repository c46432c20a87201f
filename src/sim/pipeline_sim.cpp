#include "sim/pipeline_sim.h"

#include <algorithm>
#include <cassert>

namespace cgp {

SimResult simulate_pipeline(const EnvironmentSpec& env,
                            const std::vector<PacketTrace>& packets,
                            const SimEpilogue* epilogue) {
  assert(env.valid());
  const int m = env.stages();
  SimResult result;
  result.stage_busy.assign(static_cast<std::size_t>(m), 0.0);
  result.link_busy.assign(static_cast<std::size_t>(m - 1), 0.0);

  // free_at time per resource instance.
  std::vector<std::vector<double>> copy_free(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    copy_free[static_cast<std::size_t>(i)].assign(
        static_cast<std::size_t>(env.units[static_cast<std::size_t>(i)].copies),
        0.0);
  }
  std::vector<std::vector<double>> lane_free(static_cast<std::size_t>(m - 1));
  for (int k = 0; k < m - 1; ++k) {
    lane_free[static_cast<std::size_t>(k)].assign(
        static_cast<std::size_t>(env.links[static_cast<std::size_t>(k)].lanes),
        0.0);
  }

  double makespan = 0.0;
  for (std::size_t p = 0; p < packets.size(); ++p) {
    const PacketTrace& trace = packets[p];
    assert(static_cast<int>(trace.stage_ops.size()) == m);
    assert(static_cast<int>(trace.link_bytes.size()) == m - 1);
    double t = 0.0;  // packet clock
    for (int i = 0; i < m; ++i) {
      const ComputeUnit& unit = env.units[static_cast<std::size_t>(i)];
      double& free_at =
          copy_free[static_cast<std::size_t>(i)]
                   [p % static_cast<std::size_t>(unit.copies)];
      const double service =
          trace.stage_ops[static_cast<std::size_t>(i)] / unit.power_ops_per_sec;
      const double start = std::max(t, free_at);
      t = start + service;
      free_at = t;
      result.stage_busy[static_cast<std::size_t>(i)] += service;
      if (i < m - 1) {
        const Link& link = env.links[static_cast<std::size_t>(i)];
        double& lane =
            lane_free[static_cast<std::size_t>(i)]
                     [p % static_cast<std::size_t>(link.lanes)];
        const double comm =
            link.latency_sec + trace.link_bytes[static_cast<std::size_t>(i)] /
                                   link.bandwidth_bytes_per_sec;
        const double comm_start = std::max(t, lane);
        t = comm_start + comm;
        lane = t;
        result.link_busy[static_cast<std::size_t>(i)] += comm;
      }
    }
    makespan = std::max(makespan, t);
  }

  // Epilogue: each copy finishes its residual work, then pushes its
  // end-of-run payload downstream; the handoff serializes on the link lanes
  // and the downstream copies.
  if (epilogue) {
    for (int i = 0; i < m; ++i) {
      const ComputeUnit& unit = env.units[static_cast<std::size_t>(i)];
      const double extra_ops =
          i < static_cast<int>(epilogue->per_copy_stage_ops.size())
              ? epilogue->per_copy_stage_ops[static_cast<std::size_t>(i)]
              : 0.0;
      const double extra_bytes =
          i < static_cast<int>(epilogue->per_copy_link_bytes.size())
              ? epilogue->per_copy_link_bytes[static_cast<std::size_t>(i)]
              : 0.0;
      for (int c = 0; c < unit.copies; ++c) {
        double& free_at =
            copy_free[static_cast<std::size_t>(i)][static_cast<std::size_t>(c)];
        if (extra_ops > 0.0) {
          const double service = extra_ops / unit.power_ops_per_sec;
          free_at += service;
          result.stage_busy[static_cast<std::size_t>(i)] += service;
        }
        double t = free_at;
        if (i < m - 1 && extra_bytes > 0.0) {
          const Link& link = env.links[static_cast<std::size_t>(i)];
          double& lane = lane_free[static_cast<std::size_t>(i)]
                                  [static_cast<std::size_t>(c) %
                                   static_cast<std::size_t>(link.lanes)];
          const double comm =
              link.latency_sec + extra_bytes / link.bandwidth_bytes_per_sec;
          const double start = std::max(t, lane);
          t = start + comm;
          lane = t;
          result.link_busy[static_cast<std::size_t>(i)] += comm;
          // Downstream consumption of the payload.
          if (i + 1 < m) {
            const ComputeUnit& next = env.units[static_cast<std::size_t>(i + 1)];
            double& next_free =
                copy_free[static_cast<std::size_t>(i + 1)]
                         [static_cast<std::size_t>(c) %
                          static_cast<std::size_t>(next.copies)];
            next_free = std::max(next_free, t);
          }
        }
        makespan = std::max(makespan, t);
      }
    }
    // Account for downstream stages waking after epilogue handoffs.
    for (int i = 0; i < m; ++i) {
      for (double f : copy_free[static_cast<std::size_t>(i)]) {
        makespan = std::max(makespan, f);
      }
    }
  }

  result.total_time = makespan;

  // Bottleneck: highest utilization resource.
  double best = -1.0;
  for (int i = 0; i < m; ++i) {
    double util = result.stage_busy[static_cast<std::size_t>(i)] /
                  env.units[static_cast<std::size_t>(i)].copies;
    if (util > best) {
      best = util;
      result.bottleneck_index = i;
      result.bottleneck_is_link = false;
      result.bottleneck_name = env.units[static_cast<std::size_t>(i)].name;
    }
  }
  for (int k = 0; k < m - 1; ++k) {
    double util = result.link_busy[static_cast<std::size_t>(k)] /
                  env.links[static_cast<std::size_t>(k)].lanes;
    if (util > best) {
      best = util;
      result.bottleneck_index = k;
      result.bottleneck_is_link = true;
      std::string name = "L";
      name += std::to_string(k + 1);
      result.bottleneck_name = std::move(name);
    }
  }
  return result;
}

std::vector<PacketTrace> uniform_trace(std::int64_t n_packets,
                                       std::vector<double> stage_ops,
                                       std::vector<double> link_bytes) {
  PacketTrace trace;
  trace.stage_ops = std::move(stage_ops);
  trace.link_bytes = std::move(link_bytes);
  return std::vector<PacketTrace>(static_cast<std::size_t>(n_packets), trace);
}

}  // namespace cgp
