#include "baselines/oobleck.h"

#include <algorithm>

#include "common/string_util.h"
#include "core/migration.h"
#include "net/fabric.h"
#include "plan/uniform.h"
#include "sim/pipeline_sim.h"
#include "sim/restart.h"

namespace malleus {
namespace baselines {

namespace {

/// Step-time multiplier of the fault-tolerant pipeline templates.
constexpr double kTemplateOverhead = 1.9;
/// Minimum nodes a template may use (smaller counts are not templated).
constexpr int kMinTemplateNodes = 2;
/// Seed of the simulated kernel jitter.
constexpr uint64_t kSeed = 3;

}  // namespace

OobleckBaseline::OobleckBaseline(const topo::ClusterSpec& cluster,
                                 const model::CostModel& cost)
    : cluster_(cluster), cost_(cost), rng_(kSeed) {}

Result<plan::ParallelPlan> OobleckBaseline::TemplateFor(
    const std::set<topo::NodeId>& excluded) const {
  const int nodes = cluster_.num_nodes() - static_cast<int>(excluded.size());
  if (nodes < kMinTemplateNodes) {
    return Status::NotFound(
        StrFormat("no pipeline template for %d nodes", nodes));
  }
  std::vector<topo::GpuId> gpus;
  for (topo::NodeId n = 0; n < cluster_.num_nodes(); ++n) {
    if (excluded.count(n) != 0) continue;
    for (topo::GpuId g : cluster_.GpusOnNode(n)) gpus.push_back(g);
  }
  Result<plan::ParallelPlan> tuned = plan::TuneUniformPlan(
      cluster_, cost_, gpus, global_batch_, /*max_micro_batch=*/4,
      /*allow_uneven_data=*/true);
  if (!tuned.ok()) {
    return Status::NotFound(
        StrFormat("no feasible template for %d nodes", nodes));
  }
  return tuned;
}

Status OobleckBaseline::Initialize(int64_t global_batch) {
  global_batch_ = global_batch;
  excluded_nodes_.clear();
  last_restarted_ = false;
  Result<plan::ParallelPlan> t = TemplateFor({});
  if (!t.ok()) return t.status();
  plan_ = std::move(t).ValueOrDie();
  return Status::OK();
}

Result<core::StepReport> OobleckBaseline::OnSituationChange(
    const straggler::Situation& situation) {
  core::StepReport report;
  last_restarted_ = false;
  std::set<topo::NodeId> bad;
  for (topo::GpuId g : situation.Stragglers()) {
    bad.insert(cluster_.NodeOf(g));
  }
  if (bad == excluded_nodes_) return report;

  Result<plan::ParallelPlan> next = TemplateFor(bad);
  // Live migration only works when shedding nodes onto an existing
  // template; re-integrating recovered nodes (or leaving the template
  // range) requires a restart. "Shedding" means the excluded set grows
  // monotonically - any recovered node forces the restart path.
  const bool shrinking =
      bad.size() > excluded_nodes_.size() &&
      std::includes(bad.begin(), bad.end(), excluded_nodes_.begin(),
                    excluded_nodes_.end());
  if (next.ok() && shrinking) {
    Result<core::MigrationPlan> migration =
        core::ComputeMigration(plan_, *next, cost_);
    if (migration.ok()) {
      report.migration_seconds = core::MigrationSeconds(
          *migration, cluster_, net::DefaultNetModel());
      plan_ = std::move(next).ValueOrDie();
      excluded_nodes_ = bad;
      return report;
    }
  }

  // Restart path.
  last_restarted_ = true;
  if (!next.ok()) {
    // No template excludes all stragglers; fall back to the full cluster
    // (stragglers included) after the restart.
    next = TemplateFor({});
    if (!next.ok()) return next.status();
    excluded_nodes_.clear();
  } else {
    excluded_nodes_ = bad;
  }
  plan_ = std::move(next).ValueOrDie();
  const int alive_nodes =
      cluster_.num_nodes() - static_cast<int>(excluded_nodes_.size());
  report.recovery_seconds =
      sim::RestartSeconds(cost_.CheckpointBytes(), alive_nodes);
  return report;
}

Result<core::StepReport> OobleckBaseline::Step(
    const straggler::Situation& situation) {
  Result<sim::StepResult> step = sim::SimulateStep(
      cluster_, cost_, plan_, situation, sim::SimOptions(), &rng_);
  if (!step.ok()) return step.status();
  core::StepReport report;
  report.step_seconds = step->step_seconds * kTemplateOverhead;
  return report;
}

}  // namespace baselines
}  // namespace malleus
