// Builds the execution graph of one training step from a ParallelPlan:
// 1F1B-ordered per-stage compute, inter-stage P2P transfers, the ZeRO-1
// per-slice reduce-scatter / optimizer / all-gather tail in the globally
// consistent (layer, slice) order, per Figure 6 and S5.1.

#ifndef MALLEUS_TESTKIT_GRAPH_BUILDER_H_
#define MALLEUS_TESTKIT_GRAPH_BUILDER_H_

#include <utility>
#include <vector>

#include "common/result.h"
#include "testkit/graph/graph.h"
#include "model/cost_model.h"
#include "plan/plan.h"

namespace malleus {
namespace testkit {
namespace graph {

struct BuildOptions {
  bool include_p2p = true;
  bool include_grad_sync = true;
  /// Effective HBM bandwidth used for the optimizer-update duration.
  double optimizer_bytes_per_second = 2e12;
};

/// Materializes one step of `p`. The plan is assumed valid; ops are emitted
/// in a topological order that also matches every stage's 1F1B issue order
/// and every GPU's collective call order.
Result<Graph> BuildStepGraph(const plan::ParallelPlan& p,
                             const model::CostModel& cost,
                             const BuildOptions& options = BuildOptions());

/// The number of reduce-scatter calls GPU `gpu` must issue for `layer`
/// under plan `p`: TPmax / TP_i slices (paper Figure 6). Returns 0 when the
/// GPU does not hold the layer.
int SliceCountForGpu(const plan::ParallelPlan& p, topo::GpuId gpu, int layer);

/// \brief Deadlock-free ordering of the per-slice collective calls.
///
/// When TP degrees differ across pipelines, a GPU owning several slices
/// participates in several reduce-scatter rings per layer; all
/// participants must issue the calls for a given slice index in the same
/// global order or the rings deadlock. The canonical order is ascending
/// (layer, slice), the order BuildStepGraph emits; this helper
/// materializes it for one GPU so tests can verify the property.
std::vector<std::pair<int, int>> CollectiveCallOrder(
    const plan::ParallelPlan& p, topo::GpuId gpu);

}  // namespace graph
}  // namespace testkit
}  // namespace malleus

#endif  // MALLEUS_TESTKIT_GRAPH_BUILDER_H_
