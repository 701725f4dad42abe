#include "testkit/graph/executor.h"

#include <algorithm>

#include "common/string_util.h"
#include "testkit/graph/builder.h"
#include "sim/collective.h"

namespace malleus {
namespace testkit {
namespace graph {

namespace {

double CommSeconds(const Op& op, const topo::ClusterSpec& cluster) {
  switch (op.kind) {
    case OpKind::kP2pTransfer:
      return sim::P2pSeconds(cluster, op.devices[0], op.devices[1],
                             op.bytes);
    case OpKind::kReduceScatter:
      return sim::ReduceScatterSeconds(cluster, op.devices, op.bytes);
    case OpKind::kAllGather:
      return sim::AllGatherSeconds(cluster, op.devices, op.bytes);
    default:
      return 0.0;
  }
}

}  // namespace

Result<ExecutionResult> ExecuteGraph(const Graph& g,
                                     const topo::ClusterSpec& cluster,
                                     const std::vector<double>& rates) {
  MALLEUS_RETURN_NOT_OK(g.Validate());
  ExecutionResult result;
  result.finish_seconds.assign(g.size(), -1.0);

  // Per-device issue queues and positions.
  std::map<topo::GpuId, size_t> pos;
  std::map<topo::GpuId, double> busy;
  std::vector<topo::GpuId> devices;
  for (const Op& op : g.ops()) {
    for (topo::GpuId d : op.devices) {
      if (pos.emplace(d, 0).second) {
        busy[d] = 0.0;
        devices.push_back(d);
        if (d < 0 || d >= static_cast<int>(rates.size()) || rates[d] <= 0) {
          return Status::InvalidArgument(
              StrFormat("op uses device %d with no effective rate", d));
        }
      }
    }
  }

  auto deps_done = [&](const Op& op, double* ready) {
    double r = 0.0;
    for (OpId dep : op.deps) {
      if (result.finish_seconds[dep] < 0) return false;
      r = std::max(r, result.finish_seconds[dep]);
    }
    *ready = r;
    return true;
  };

  int remaining = g.size();
  std::vector<bool> done(g.size(), false);

  while (remaining > 0) {
    bool progressed = false;

    // Asynchronous ops (P2P) complete as soon as their deps do.
    for (const Op& op : g.ops()) {
      if (done[op.id] || op.OccupiesDevices()) continue;
      double ready = 0.0;
      if (!deps_done(op, &ready)) continue;
      result.finish_seconds[op.id] = ready + CommSeconds(op, cluster);
      done[op.id] = true;
      --remaining;
      progressed = true;
    }

    // Device-occupying ops execute in queue order; a multi-device op needs
    // to be at the front of every participant's queue.
    for (topo::GpuId d : devices) {
      const std::vector<OpId>& queue = g.DeviceQueue(d);
      while (pos[d] < queue.size()) {
        const Op& op = g.op(queue[pos[d]]);
        bool at_front_everywhere = true;
        for (topo::GpuId other : op.devices) {
          const std::vector<OpId>& oq = g.DeviceQueue(other);
          if (pos[other] >= oq.size() || oq[pos[other]] != op.id) {
            at_front_everywhere = false;
            break;
          }
        }
        if (!at_front_everywhere) break;
        double ready = 0.0;
        if (!deps_done(op, &ready)) break;

        double start = ready;
        for (topo::GpuId member : op.devices) {
          start = std::max(start, busy[member]);
        }
        double duration = 0.0;
        if (op.IsCompute()) {
          double worst_rate = 0.0;
          for (topo::GpuId member : op.devices) {
            worst_rate = std::max(worst_rate, rates[member]);
          }
          duration = op.base_seconds * worst_rate;
        } else {
          duration = CommSeconds(op, cluster);
        }
        const double finish = start + duration;
        result.finish_seconds[op.id] = finish;
        done[op.id] = true;
        --remaining;
        progressed = true;
        for (topo::GpuId member : op.devices) {
          busy[member] = finish;
          ++pos[member];
        }
      }
    }

    if (!progressed) {
      return Status::Internal(
          "graph execution deadlocked: inconsistent collective issue order "
          "across participants (see S5.1)");
    }
  }

  for (const auto& [d, t] : busy) {
    result.device_busy_seconds[d] = t;
    result.makespan_seconds = std::max(result.makespan_seconds, t);
  }
  for (double f : result.finish_seconds) {
    result.makespan_seconds = std::max(result.makespan_seconds, f);
  }
  return result;
}

Result<double> SimulateStepViaGraph(const topo::ClusterSpec& cluster,
                                    const model::CostModel& cost,
                                    const plan::ParallelPlan& p,
                                    const straggler::Situation& situation,
                                    double timing_noise_stddev, Rng* rng) {
  MALLEUS_RETURN_NOT_OK(p.Validate(cluster, cost));
  Result<Graph> g = BuildStepGraph(p, cost);
  MALLEUS_RETURN_NOT_OK(g.status());

  std::vector<double> rates(cluster.num_gpus(), 0.0);
  for (topo::GpuId gpu : p.ActiveGpus()) {
    if (situation.IsFailed(gpu)) {
      return Status::Unavailable(StrFormat("GPU %d is unresponsive", gpu));
    }
    double jitter = 1.0;
    if (rng != nullptr && timing_noise_stddev > 0) {
      jitter = std::max(0.5, 1.0 + rng->Normal(0.0, timing_noise_stddev));
    }
    rates[gpu] = situation.rate(gpu) * jitter;
  }
  Result<ExecutionResult> exec = ExecuteGraph(*g, cluster, rates);
  MALLEUS_RETURN_NOT_OK(exec.status());
  return exec->makespan_seconds;
}

}  // namespace graph
}  // namespace testkit
}  // namespace malleus
