// Builds the execution graph of one training step from a ParallelPlan:
// 1F1B-ordered per-stage compute, inter-stage P2P transfers, the ZeRO-1
// per-slice reduce-scatter / optimizer / all-gather tail in the globally
// consistent (layer, slice) order, per Figure 6 and S5.1.

#ifndef MALLEUS_TESTKIT_GRAPH_BUILDER_H_
#define MALLEUS_TESTKIT_GRAPH_BUILDER_H_

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

}  // namespace graph
}  // namespace testkit
}  // namespace malleus

#endif  // MALLEUS_TESTKIT_GRAPH_BUILDER_H_
