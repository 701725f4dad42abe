// ZeRO-1 model-state sharding with non-uniform TP degrees (paper S5.1).
//
// For a layer whose TP degree differs across pipelines, the states are
// sharded into DP x TPmax slices and each GPU in pipeline i owns
// TPmax / TP_i of them. We represent ownership as fractional intervals of
// the layer's parameter tensor, which makes both the non-uniform gradient
// synchronization pairing and the migration diff straightforward.

#ifndef MALLEUS_CORE_SHARDING_H_
#define MALLEUS_CORE_SHARDING_H_

#include <vector>

#include "common/result.h"
#include "plan/plan.h"

namespace malleus {
namespace core {

/// Ownership of a fraction [begin, end) of one layer's parameters.
struct OwnedInterval {
  topo::GpuId gpu = -1;
  double begin = 0.0;
  double end = 0.0;
};

/// Weight ownership of `layer` (0-based) inside pipeline `pipeline_index`:
/// the hosting stage's group splits [0, 1) evenly among its GPUs.
/// Returns InvalidArgument if the layer is out of range.
Result<std::vector<OwnedInterval>> LayerWeightOwners(
    const plan::ParallelPlan& p, int pipeline_index, int layer);

}  // namespace core
}  // namespace malleus

#endif  // MALLEUS_CORE_SHARDING_H_
