// Oobleck-style fault-tolerant baseline (paper S7.2, Figure 8).
//
// Oobleck precomputes a limited set of pipeline *templates* (one per node
// count) and recovers from failures by re-instantiating a template. Treating
// stragglers as faults, it can live-migrate only when the straggler-free
// node count shrinks to another templated count; re-adding recovered nodes
// or falling off the template range forces a full restart. Its templates
// also carry a constant fault-tolerance efficiency overhead even with no
// stragglers (the paper measures 1.82-2.49x of Malleus' step time).
//
// The calibration is fixed (oobleck.cc): a 1.9x template overhead fitted to
// Figure 8, templates for 2 or more nodes, the default restart cost, the
// process-default net model and jitter seed 3.

#ifndef MALLEUS_BASELINES_OOBLECK_H_
#define MALLEUS_BASELINES_OOBLECK_H_

#include <map>
#include <set>

#include "common/rng.h"
#include "core/executor.h"
#include "core/trace_driver.h"
#include "model/cost_model.h"
#include "plan/plan.h"

namespace malleus {
namespace baselines {

class OobleckBaseline : public core::TrainingFramework {
 public:
  OobleckBaseline(const topo::ClusterSpec& cluster,
                  const model::CostModel& cost);

  std::string name() const override { return "Oobleck"; }
  Status Initialize(int64_t global_batch) override;
  Result<core::StepReport> OnSituationChange(
      const straggler::Situation& situation) override;
  Result<core::StepReport> Step(
      const straggler::Situation& situation) override;

  /// Whether the last transition required a restart (for Figure 8).
  bool last_transition_restarted() const { return last_restarted_; }

 private:
  /// Instantiates the template for the given straggler-free nodes.
  Result<plan::ParallelPlan> TemplateFor(
      const std::set<topo::NodeId>& excluded) const;

  const topo::ClusterSpec& cluster_;
  const model::CostModel& cost_;
  int64_t global_batch_ = 0;
  core::Executor executor_;
  std::set<topo::NodeId> excluded_nodes_;
  bool last_restarted_ = false;
  Rng rng_;
};

}  // namespace baselines
}  // namespace malleus

#endif  // MALLEUS_BASELINES_OOBLECK_H_
