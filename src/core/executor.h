// The executor (paper S3.2, S5.1): instantiates plans on the (simulated)
// cluster and migrates model states when the planner produces a new plan.

#ifndef MALLEUS_CORE_EXECUTOR_H_
#define MALLEUS_CORE_EXECUTOR_H_

#include "common/result.h"
#include "core/migration.h"
#include "model/cost_model.h"
#include "plan/plan.h"
#include "topology/cluster.h"

namespace malleus {
namespace core {

/// Outcome of applying a new plan.
struct MigrationReport {
  double seconds = 0.0;
  double bytes = 0.0;
  int num_transfers = 0;
  /// True when the new plan was identical and nothing moved.
  bool no_op = false;
};

class Executor {
 public:
  /// `net_model` prices migration traffic: analytic endpoint serialization
  /// or the contention-aware flow fabric (see net/fabric.h).
  Executor(const topo::ClusterSpec& cluster, const model::CostModel& cost,
           net::NetModel net_model = net::DefaultNetModel())
      : cluster_(cluster), cost_(cost), net_model_(net_model) {}

  /// Installs the initial plan (cold start; no data movement is charged).
  Status Install(plan::ParallelPlan p);

  /// Prices a migration from the current plan to `p` without committing
  /// it: exactly what Migrate(p) would charge. An identical plan prices as
  /// a no-op; a plan the states cannot be diffed into is an error.
  Result<MigrationReport> PriceMigration(const plan::ParallelPlan& p) const;

  /// Migrates the model states from the current plan to `p` on the fly,
  /// charging PriceMigration(p).
  Result<MigrationReport> Migrate(plan::ParallelPlan p);

  /// Re-installs after a failure recovery: states come from the checkpoint,
  /// not from peers, so no migration traffic is charged.
  Status Reload(plan::ParallelPlan p);

  bool installed() const { return installed_; }
  const plan::ParallelPlan& current_plan() const { return plan_; }

 private:
  const topo::ClusterSpec& cluster_;
  const model::CostModel& cost_;
  net::NetModel net_model_ = net::NetModel::kAnalytic;
  plan::ParallelPlan plan_;
  bool installed_ = false;
};

}  // namespace core
}  // namespace malleus

#endif  // MALLEUS_CORE_EXECUTOR_H_
