// Discrete-event execution of an operator graph on the simulated cluster.
//
// Devices execute their queued ops strictly in issue order; a collective
// runs when it reaches the front of *every* participant's queue (so an
// inconsistent issue order across participants deadlocks - exactly the
// hazard S5.1's canonical call order exists to prevent, and the executor
// detects it). P2P transfers are asynchronous copies that delay consumers
// without occupying the compute stream.

#ifndef MALLEUS_TESTKIT_GRAPH_EXECUTOR_H_
#define MALLEUS_TESTKIT_GRAPH_EXECUTOR_H_

#include <map>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "testkit/graph/graph.h"
#include "model/cost_model.h"
#include "plan/plan.h"
#include "straggler/situation.h"
#include "topology/cluster.h"

namespace malleus {
namespace testkit {
namespace graph {

/// Outcome of executing a graph.
struct ExecutionResult {
  double makespan_seconds = 0.0;
  /// Finish time of every op.
  std::vector<double> finish_seconds;
  /// Busy-until time per device.
  std::map<topo::GpuId, double> device_busy_seconds;
};

/// Executes `g` with the given per-GPU effective straggling rates
/// (rate <= 0 entries mean "device unused"). Compute ops are stretched by
/// the slowest participant's rate; communication is rate-independent.
/// Returns Status::Internal on a collective-order deadlock.
Result<ExecutionResult> ExecuteGraph(const Graph& g,
                                     const topo::ClusterSpec& cluster,
                                     const std::vector<double>& rates);

/// Convenience wrapper mirroring sim::SimulateStep: builds the step graph
/// of `p` and executes it under `situation` (with kernel jitter from rng).
/// This is the high-fidelity counterpart of the analytic simulator; tests
/// cross-validate the two.
Result<double> SimulateStepViaGraph(const topo::ClusterSpec& cluster,
                                    const model::CostModel& cost,
                                    const plan::ParallelPlan& p,
                                    const straggler::Situation& situation,
                                    double timing_noise_stddev, Rng* rng);

}  // namespace graph
}  // namespace testkit
}  // namespace malleus

#endif  // MALLEUS_TESTKIT_GRAPH_EXECUTOR_H_
