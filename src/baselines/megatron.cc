#include "baselines/megatron.h"

#include "common/string_util.h"
#include "plan/uniform.h"
#include "sim/pipeline_sim.h"
#include "sim/restart.h"

namespace malleus {
namespace baselines {

MegatronBaseline::MegatronBaseline(const topo::ClusterSpec& cluster,
                                   const model::CostModel& cost,
                                   MegatronOptions options)
    : cluster_(cluster),
      cost_(cost),
      options_(options),
      rng_(options.seed) {}

std::string MegatronBaseline::name() const {
  return options_.with_restart ? "Megatron-LM w/ Restart"
                               : "Megatron-LM w/o Restart";
}

Status MegatronBaseline::Initialize(int64_t global_batch) {
  global_batch_ = global_batch;
  excluded_nodes_.clear();
  Result<plan::ParallelPlan> tuned = plan::TuneUniformPlan(
      cluster_, cost_, cluster_.AllGpus(), global_batch,
      /*max_micro_batch=*/4, /*allow_uneven_data=*/false);
  if (!tuned.ok()) return tuned.status();
  plan_ = std::move(tuned).ValueOrDie();
  return Status::OK();
}

std::set<topo::NodeId> MegatronBaseline::StragglerNodes(
    const straggler::Situation& situation) const {
  std::set<topo::NodeId> nodes;
  for (topo::GpuId g : situation.Stragglers()) {
    nodes.insert(cluster_.NodeOf(g));
  }
  return nodes;
}

Result<TransitionReport> MegatronBaseline::OnSituationChange(
    const straggler::Situation& situation) {
  TransitionReport report;
  if (!options_.with_restart) {
    report.description = "static plan kept";
    return report;
  }
  const std::set<topo::NodeId> bad = StragglerNodes(situation);
  if (bad == excluded_nodes_) {
    report.description = "node set unchanged";
    return report;
  }
  // Remove (or re-add) whole nodes, re-tune manually, restart the task.
  std::vector<topo::GpuId> gpus;
  int alive_nodes = 0;
  for (topo::NodeId n = 0; n < cluster_.num_nodes(); ++n) {
    if (bad.count(n) != 0) continue;
    ++alive_nodes;
    for (topo::GpuId g : cluster_.GpusOnNode(n)) gpus.push_back(g);
  }
  if (gpus.empty()) {
    return Status::Unavailable("every node hosts a straggler");
  }
  // The paper bumps the global batch when it stops dividing evenly; we model
  // the equivalent by allowing an uneven (round-robin) remainder.
  Result<plan::ParallelPlan> tuned = plan::TuneUniformPlan(
      cluster_, cost_, gpus, global_batch_, /*max_micro_batch=*/4,
      /*allow_uneven_data=*/true);
  if (!tuned.ok()) return tuned.status();
  plan_ = std::move(tuned).ValueOrDie();
  excluded_nodes_ = bad;
  report.restart_seconds =
      sim::RestartSeconds(cost_.CheckpointBytes(), alive_nodes);
  report.description = StrFormat("restarted on %d nodes", alive_nodes);
  return report;
}

Result<double> MegatronBaseline::StepSeconds(
    const straggler::Situation& situation) {
  sim::SimOptions sim_options;
  sim_options.net_model = options_.net_model;
  Result<sim::StepResult> step = sim::SimulateStep(
      cluster_, cost_, plan_, situation, sim_options, &rng_);
  if (!step.ok()) return step.status();
  return step->step_seconds;
}

}  // namespace baselines
}  // namespace malleus
