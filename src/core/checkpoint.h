// Sharded checkpointing: which GPU writes / reads which model-state slice.
//
// Checkpoints follow the ZeRO-1 ownership of S5.1: bf16 weights are written
// once (by replica 0's TP interval owners) and the fp32 optimizer shards by
// their unique owner GPUs, so save traffic is spread across the cluster.
// On recovery (paper S5.1: unresponsive GPUs force a reload), every GPU of
// the *new* plan reads exactly the slices it will own. I/O cost is
// bottlenecked by the busiest node's share of the aggregate bandwidth.

#ifndef MALLEUS_CORE_CHECKPOINT_H_
#define MALLEUS_CORE_CHECKPOINT_H_

#include <map>

#include "common/result.h"
#include "model/cost_model.h"
#include "plan/plan.h"
#include "topology/cluster.h"

namespace malleus {
namespace core {

/// Per-GPU byte volumes of a checkpoint operation.
struct CheckpointIoPlan {
  std::map<topo::GpuId, double> bytes_per_gpu;
  double total_bytes = 0.0;
};

/// Plans a checkpoint *save* of the states materialized by `p`:
/// bf16 weights once + fp32 optimizer shards by owner.
Result<CheckpointIoPlan> PlanCheckpointSave(const plan::ParallelPlan& p,
                                            const model::CostModel& cost);

/// Plans a checkpoint *load* into `p`: every GPU reads the weight intervals
/// of its stages (per replica) and its optimizer shards.
Result<CheckpointIoPlan> PlanCheckpointLoad(const plan::ParallelPlan& p,
                                            const model::CostModel& cost);

/// Wall time of executing an I/O plan: per node, the sum of its GPUs'
/// bytes over the node's storage bandwidth (sim::kPerNodeIoGbps, the
/// bandwidth restarts are priced with); nodes proceed in parallel.
double CheckpointIoSeconds(const CheckpointIoPlan& io,
                           const topo::ClusterSpec& cluster);

}  // namespace core
}  // namespace malleus

#endif  // MALLEUS_CORE_CHECKPOINT_H_
