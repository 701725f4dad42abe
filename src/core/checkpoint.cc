#include "core/checkpoint.h"

#include <algorithm>

#include "common/logging.h"
#include "core/sharding.h"
#include "sim/restart.h"

namespace malleus {
namespace core {

namespace {

// Visits every (layer, owner interval) of every replica plus the optimizer
// shard owners; the callbacks receive (gpu, bytes).
template <typename WeightsFn, typename OptimizerFn>
Status VisitStateOwners(const plan::ParallelPlan& p,
                        const model::CostModel& cost, WeightsFn on_weights,
                        OptimizerFn on_optimizer) {
  const int dp = p.dp_degree();
  const int num_layers = cost.spec().num_layers;
  const double weight_bytes = 2.0 * cost.spec().ParamsPerLayer();
  const double optimizer_bytes =
      model::kShardedBytesPerParam * cost.spec().ParamsPerLayer();

  for (int layer = 0; layer < num_layers; ++layer) {
    // Weight intervals per replica.
    std::vector<std::vector<OwnedInterval>> owners(dp);
    int tp_max = 0;
    for (int i = 0; i < dp; ++i) {
      Result<std::vector<OwnedInterval>> o = LayerWeightOwners(p, i, layer);
      MALLEUS_RETURN_NOT_OK(o.status());
      owners[i] = std::move(o).ValueOrDie();
      tp_max = std::max(tp_max, static_cast<int>(owners[i].size()));
    }
    for (int i = 0; i < dp; ++i) {
      for (const OwnedInterval& iv : owners[i]) {
        on_weights(i, iv.gpu, (iv.end - iv.begin) * weight_bytes);
      }
    }
    // Optimizer slices: DP x TPmax pieces. Striding by layer spreads the
    // ownership over every replica even when dp > tp_max.
    for (int slice = 0; slice < tp_max; ++slice) {
      const int replica = (layer * tp_max + slice) % dp;
      const double lo = static_cast<double>(slice) / tp_max;
      // The GPU of `replica` whose weight interval contains this slice.
      topo::GpuId owner = -1;
      for (const OwnedInterval& iv : owners[replica]) {
        if (lo >= iv.begin - 1e-12 && lo < iv.end) owner = iv.gpu;
      }
      MALLEUS_CHECK_GE(owner, 0);
      on_optimizer(owner, optimizer_bytes / tp_max);
    }
  }
  return Status::OK();
}

}  // namespace

Result<CheckpointIoPlan> PlanCheckpointSave(const plan::ParallelPlan& p,
                                            const model::CostModel& cost) {
  CheckpointIoPlan io;
  MALLEUS_RETURN_NOT_OK(VisitStateOwners(
      p, cost,
      [&](int replica, topo::GpuId gpu, double bytes) {
        // Weights are replicated across DP; replica 0 writes them once.
        if (replica != 0) return;
        io.bytes_per_gpu[gpu] += bytes;
        io.total_bytes += bytes;
      },
      [&](topo::GpuId gpu, double bytes) {
        io.bytes_per_gpu[gpu] += bytes;
        io.total_bytes += bytes;
      }));
  return io;
}

Result<CheckpointIoPlan> PlanCheckpointLoad(const plan::ParallelPlan& p,
                                            const model::CostModel& cost) {
  CheckpointIoPlan io;
  MALLEUS_RETURN_NOT_OK(VisitStateOwners(
      p, cost,
      [&](int replica, topo::GpuId gpu, double bytes) {
        // Every replica reads its weights back.
        (void)replica;
        io.bytes_per_gpu[gpu] += bytes;
        io.total_bytes += bytes;
      },
      [&](topo::GpuId gpu, double bytes) {
        io.bytes_per_gpu[gpu] += bytes;
        io.total_bytes += bytes;
      }));
  return io;
}

double CheckpointIoSeconds(const CheckpointIoPlan& io,
                           const topo::ClusterSpec& cluster) {
  std::map<topo::NodeId, double> node_bytes;
  for (const auto& [gpu, bytes] : io.bytes_per_gpu) {
    node_bytes[cluster.NodeOf(gpu)] += bytes;
  }
  double worst = 0.0;
  for (const auto& [node, bytes] : node_bytes) {
    worst = std::max(worst, bytes / (sim::kPerNodeIoGbps * 1e9));
  }
  return worst;
}

}  // namespace core
}  // namespace malleus
