// Megatron-LM-style baseline: static uniform 3D parallelism (DP x TP x PP),
// tuned once for the healthy cluster, optionally with the manual
// remove-straggler-nodes-and-restart strategy of S7.1 ("w/ Restart").

#ifndef MALLEUS_BASELINES_MEGATRON_H_
#define MALLEUS_BASELINES_MEGATRON_H_

#include <set>

#include "common/rng.h"
#include "core/trace_driver.h"
#include "model/cost_model.h"
#include "net/fabric.h"
#include "plan/plan.h"

namespace malleus {
namespace baselines {

struct MegatronOptions {
  /// Remove nodes hosting stragglers and restart with a re-tuned uniform
  /// configuration (the paper's "Megatron-LM w/ Restart"), at the default
  /// sim::RestartCostConfig (80 s framework init + checkpoint I/O).
  bool with_restart = false;
  /// How the simulated steps price communication.
  net::NetModel net_model = net::DefaultNetModel();
  uint64_t seed = 1;
};

class MegatronBaseline : public core::TrainingFramework {
 public:
  MegatronBaseline(const topo::ClusterSpec& cluster,
                   const model::CostModel& cost, MegatronOptions options);

  std::string name() const override;
  Status Initialize(int64_t global_batch) override;
  Result<core::StepReport> OnSituationChange(
      const straggler::Situation& situation) override;
  Result<core::StepReport> Step(
      const straggler::Situation& situation) override;

 private:
  /// Nodes that currently host at least one straggler.
  std::set<topo::NodeId> StragglerNodes(
      const straggler::Situation& situation) const;

  const topo::ClusterSpec& cluster_;
  const model::CostModel& cost_;
  MegatronOptions options_;
  int64_t global_batch_ = 0;
  plan::ParallelPlan plan_;
  std::set<topo::NodeId> excluded_nodes_;
  Rng rng_;
};

}  // namespace baselines
}  // namespace malleus

#endif  // MALLEUS_BASELINES_MEGATRON_H_
