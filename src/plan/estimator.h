// Closed-form step-time estimation (the paper's S4.2 cost model). This is
// what the planner optimizes and what Table 3 reports as R_est; the
// discrete-event simulator (src/sim) provides the "actual" time R_actual.

#ifndef MALLEUS_PLAN_ESTIMATOR_H_
#define MALLEUS_PLAN_ESTIMATOR_H_

#include <vector>

#include "model/cost_model.h"
#include "net/fabric.h"
#include "plan/plan.h"
#include "straggler/situation.h"
#include "topology/cluster.h"

namespace malleus {
namespace plan {

/// Estimated timing of one training step under a plan.
struct StepEstimate {
  /// Full pipeline model: T_i = (m_i - 1) * max_j t_{i,j} + sum_j t_{i,j}.
  double step_seconds = 0.0;
  /// Simplified planner objective: T_i ~= m_i * max_j t_{i,j}.
  double simplified_seconds = 0.0;
  /// Per-pipeline times (full model).
  std::vector<double> pipeline_seconds;
};

/// Evaluates the paper's cost model for `p` under `situation`.
/// Stages with zero layers contribute no time.
StepEstimate EstimateStep(const ParallelPlan& p, const model::CostModel& cost,
                          const straggler::Situation& situation);

/// t_{i,j} = y_{i,j} * l_{i,j} * tau(b) for one stage.
double StageTimePerMicrobatch(const Stage& stage, int micro_batch_size,
                              const model::CostModel& cost,
                              const straggler::Situation& situation);

/// One stage's ZeRO-1 gradient-sync ring: the representative GPU of every
/// stage whose layer range overlaps this one's, across all pipelines.
/// This is plan structure, not simulation: the peers and byte volumes are
/// fully determined by the plan, the cost model, and the cluster. The step
/// simulator plays these rings through its fabric; the estimator prices
/// them in closed form.
struct GradSyncRing {
  std::vector<topo::GpuId> peers;
  double bytes_per_gpu = 0.0;  // bf16 gradients out + parameters back.
  double hop_latency = 0.0;    // Worst peer latency from the owner.
  int pipeline = 0;
  int stage = 0;
};

/// The grad-sync rings of `p` (one per non-empty stage; empty when DP = 1).
std::vector<GradSyncRing> CollectGradSyncRings(
    const ParallelPlan& p, const model::CostModel& cost,
    const topo::ClusterSpec& cluster);

/// Closed-form duration of one grad-sync ring at DP degree `dp_degree`:
/// (dp-1)/dp of the per-GPU traffic at the ring's bottleneck bandwidth
/// (topo::GroupBottleneckBandwidth) plus the 2*dp hop-latency charge.
/// EstimateGradSyncSeconds and the analytic step simulator both use it.
double AnalyticRingSeconds(const GradSyncRing& ring, int dp_degree,
                           const topo::ClusterSpec& cluster);

/// Estimated duration of the ZeRO-1 gradient-sync phase of one step (the
/// max over rings; rings run concurrently). With `kAnalytic` each ring is
/// priced in isolation at its group's bottleneck bandwidth — this is what
/// the planner's inner loop assumes and stays cheap enough for solver use.
/// With `kFlow` all rings are submitted to one contention-aware
/// net::FlowSim, so rings crossing the same node NIC split its bandwidth;
/// use this to audit how optimistic the analytic assumption is for a
/// candidate plan before adopting it.
double EstimateGradSyncSeconds(const ParallelPlan& p,
                               const model::CostModel& cost,
                               const topo::ClusterSpec& cluster,
                               net::NetModel model);

}  // namespace plan
}  // namespace malleus

#endif  // MALLEUS_PLAN_ESTIMATOR_H_
