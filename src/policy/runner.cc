#include "policy/runner.h"

#include <map>
#include <set>
#include <string>
#include <utility>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/migration.h"
#include "sim/restart.h"

namespace malleus {
namespace policy {

namespace {

// Fixed constants of the predicted-amortized-cost model (see runner.h).
// Re-plan latency for a situation signature never seen before (cold
// solver caches) and for one seen before (warm); representative of the
// measured cold/warm Plan() times at 64 GPUs (BENCH_planner_scaling).
constexpr double kColdReplanSeconds = 0.5;
constexpr double kWarmReplanSeconds = 0.02;
// Delta re-plans through the island memo re-solve only the touched
// islands; priced as this fraction of the full re-plan latency.
constexpr double kDeltaReplanFraction = 0.25;
// Amortization horizon: predicted cost = transition + horizon * step.
// Roughly the expected iterations until the next event.
constexpr double kHorizonIterations = 50.0;

// Canonical situation fingerprint: every rate at full precision. This keys
// the runner's cold/warm re-plan memo (see the determinism contract in
// runner.h).
std::string SitSignature(const straggler::Situation& situation) {
  std::string sig;
  for (double rate : situation.rates()) {
    sig += StrFormat("%.17g,", rate);
  }
  return sig;
}

bool UsesFailedGpu(const plan::ParallelPlan& p,
                   const straggler::Situation& situation) {
  for (topo::GpuId g : p.ActiveGpus()) {
    if (situation.IsFailed(g)) return true;
  }
  return false;
}

// The standby-promotion candidate: swap the worst degraded active GPU with
// the lowest-id healthy inactive GPU on the same node (TP groups are
// intra-node, so the swap preserves every structural invariant except
// possibly memory, which Validate re-checks).
Result<plan::ParallelPlan> PromotePlan(const topo::ClusterSpec& cluster,
                                       const model::CostModel& cost,
                                       const plan::ParallelPlan& current,
                                       const straggler::Situation& situation) {
  const std::vector<topo::GpuId> active = current.ActiveGpus();
  topo::GpuId worst = -1;
  double worst_rate = 1.0 + 1e-9;
  for (topo::GpuId g : active) {
    const double rate = situation.rate(g);
    if (rate > worst_rate) {
      worst = g;
      worst_rate = rate;
    }
  }
  if (worst < 0) {
    return Status::NotFound("no degraded active GPU to demote");
  }
  const std::set<topo::GpuId> active_set(active.begin(), active.end());
  topo::GpuId standby = -1;
  for (topo::GpuId g : cluster.GpusOnNode(cluster.NodeOf(worst))) {
    if (active_set.count(g) != 0) continue;
    if (situation.rate(g) > 1.0 + 1e-9) continue;  // Straggling or failed.
    standby = g;
    break;
  }
  if (standby < 0) {
    return Status::NotFound("no healthy same-node standby");
  }
  plan::ParallelPlan promoted = current;
  for (plan::Pipeline& pipeline : promoted.pipelines) {
    for (plan::Stage& stage : pipeline.stages) {
      for (topo::GpuId& g : stage.group.gpus) {
        if (g == worst) g = standby;
      }
    }
  }
  bool swapped_standby = false;
  for (topo::GpuId& g : promoted.standby_gpus) {
    if (g == standby) {
      g = worst;  // The demoted GPU takes the promoted one's standby slot.
      swapped_standby = true;
    }
  }
  if (!swapped_standby) promoted.standby_gpus.push_back(worst);
  MALLEUS_RETURN_NOT_OK(promoted.Validate(cluster, cost));
  return promoted;
}

double MigrationCost(const plan::ParallelPlan& from,
                     const plan::ParallelPlan& to,
                     const topo::ClusterSpec& cluster,
                     const model::CostModel& cost, net::NetModel net_model) {
  Result<core::MigrationPlan> migration =
      core::ComputeMigration(from, to, cost);
  if (!migration.ok()) return 0.0;
  return core::MigrationSeconds(*migration, cluster, net_model);
}

}  // namespace

Result<DynamicRunResult> RunDynamic(const topo::ClusterSpec& cluster,
                                    const model::CostModel& cost,
                                    const straggler::Situation& initial,
                                    const EventTrace& trace,
                                    int64_t global_batch,
                                    const PolicySelector& selector,
                                    const DynamicRunOptions& options) {
  if (initial.num_gpus() != cluster.num_gpus()) {
    return Status::InvalidArgument("situation does not match cluster");
  }
  DynamicRunResult result;
  result.trace_iterations = trace.iterations;

  const core::Planner planner(cluster, cost);
  // A degraded initial situation on a larger cluster must not hit the flat
  // sweep (auto island selection keeps it flat through 8 nodes, which is
  // explosive under mixed rates); route it through half-cluster islands.
  core::PlannerOptions initial_opts = options.planner;
  if (initial_opts.island_nodes == 0 && cluster.num_nodes() > 4) {
    bool degraded = false;
    for (topo::GpuId g = 0; g < initial.num_gpus(); ++g) {
      if (initial.IsStraggler(g) || initial.IsFailed(g)) {
        degraded = true;
        break;
      }
    }
    if (degraded) initial_opts.island_nodes = cluster.num_nodes() / 2;
  }
  Result<core::PlanResult> initial_plan =
      planner.Replan(initial, global_batch, initial_opts);
  if (!initial_plan.ok()) {
    return Status(initial_plan.status().code(),
                  "no initial plan: " + initial_plan.status().message());
  }
  plan::ParallelPlan current = std::move(initial_plan->plan);

  // Noise-free simulation makes segment step times exact, memoizable and
  // byte-reproducible; the trace recorder stays off (the run log is the
  // dynamic mode's observable).
  sim::SimOptions sim_options = options.sim;
  sim_options.timing_noise_stddev = 0.0;
  sim_options.trace = nullptr;
  std::map<std::string, double> sim_memo;
  const auto step_seconds_of =
      [&](const plan::ParallelPlan& p,
          const straggler::Situation& s) -> Result<double> {
    const std::string key = p.Signature() + "|" + SitSignature(s);
    const auto it = sim_memo.find(key);
    if (it != sim_memo.end()) return it->second;
    Rng rng(0x6D616C6C657573ULL);  // Fixed seed; the noise stddev is 0.
    Result<sim::StepResult> sim_result =
        sim::SimulateStep(cluster, cost, p, s, sim_options, &rng);
    if (!sim_result.ok()) return sim_result.status();
    sim_memo.emplace(key, sim_result->step_seconds);
    return sim_result->step_seconds;
  };

  const straggler::Situation healthy(cluster.num_gpus());
  Result<double> healthy_step = step_seconds_of(current, healthy);
  if (!healthy_step.ok()) return healthy_step.status();
  result.healthy_step_seconds = *healthy_step;

  const auto record = [&](const core::StepReport& report) {
    if (options.run_log != nullptr) {
      options.run_log->Record("dynamic", report);
    }
    result.training_seconds += report.step_seconds;
    result.transition_seconds += report.migration_seconds +
                                 report.recovery_seconds +
                                 report.planning_overflow_seconds;
  };

  // Simulates the event-free segment [cur, until); false on early stop.
  straggler::Situation situation = initial;
  int64_t cur = 0;
  const auto run_segment = [&](int64_t until) -> bool {
    const int64_t len = until - cur;
    if (len <= 0) return true;
    Result<double> step = step_seconds_of(current, situation);
    if (!step.ok()) {
      result.stop_reason =
          "segment simulation failed: " + step.status().message();
      return false;
    }
    core::StepReport report;
    report.step_seconds = *step * static_cast<double>(len);
    report.note = StrFormat("segment x%lld @%.17g s/iter",
                            static_cast<long long>(len), *step);
    record(report);
    result.iterations_run += len;
    cur = until;
    return true;
  };

  std::set<std::string> seen_situations;
  seen_situations.insert(SitSignature(initial));

  // Re-plans keep the current plan's DP degree (paper footnote 2) and fall
  // back to the planner's own DP search when capacity loss rules it out.
  const auto replan_on_islands = [&](int island_nodes) {
    core::PlannerOptions opts = options.planner;
    opts.dp_degree = current.dp_degree();
    opts.island_nodes = island_nodes;
    return planner.Replan(situation, global_batch, opts);
  };

  for (const ClusterEvent& event : trace.events) {
    if (!run_segment(event.iteration)) break;
    ApplyEvent(cluster, event, &situation);
    const std::string sig = SitSignature(situation);
    const bool cold = seen_situations.count(sig) == 0;
    const double replan_latency =
        cold ? kColdReplanSeconds : kWarmReplanSeconds;

    ActionEstimates estimates{};
    plan::ParallelPlan candidates[kNumPolicyActions];

    // tolerate: the current plan, if it still runs on live GPUs only.
    if (!UsesFailedGpu(current, situation)) {
      Result<double> step = step_seconds_of(current, situation);
      if (step.ok()) {
        estimates[0] = {true, 0.0, *step};
        candidates[0] = current;
      }
    }
    // promote: swap in a healthy same-node standby; priced by the actual
    // state migration the swap implies.
    Result<plan::ParallelPlan> promoted =
        PromotePlan(cluster, cost, current, situation);
    if (promoted.ok() && !UsesFailedGpu(*promoted, situation)) {
      Result<double> step = step_seconds_of(*promoted, situation);
      if (step.ok()) {
        estimates[1] = {true,
                        MigrationCost(current, *promoted, cluster, cost,
                                      sim_options.net_model),
                        *step};
        candidates[1] = std::move(*promoted);
      }
    }
    // delta: re-plan through small islands (the hier memo re-solves only
    // touched islands), then migrate. Islands shrink with cluster size so
    // the delta candidate stays cheaper — and coarser — than the full
    // re-plan's decomposition.
    const int nodes = cluster.num_nodes();
    if (nodes >= 4 && nodes % 2 == 0) {
      const int delta_island = nodes >= 8 ? nodes / 4 : nodes / 2;
      Result<core::PlanResult> planned = replan_on_islands(delta_island);
      if (planned.ok() && !UsesFailedGpu(planned->plan, situation)) {
        Result<double> step = step_seconds_of(planned->plan, situation);
        if (step.ok()) {
          estimates[2] = {
              true,
              kDeltaReplanFraction * replan_latency +
                  MigrationCost(current, planned->plan, cluster, cost,
                                sim_options.net_model),
              *step};
          candidates[2] = std::move(planned->plan);
        }
      }
    }
    // replan: the global re-plan, then migrate. Flat where tractable
    // (<= 4 nodes); beyond that the flat sweep under mixed-rate degraded
    // situations is combinatorially explosive (tens of seconds per solve
    // at 8 nodes), so the full re-plan goes through the whole-cluster
    // hierarchical decomposition with half-cluster islands — measured
    // equal-or-better plan quality at a small fraction of the latency.
    // restart reuses this plan but pays checkpoint I/O + framework
    // re-init instead of migration.
    const int replan_island = nodes <= 4 ? -1 : nodes / 2;
    Result<core::PlanResult> replanned = replan_on_islands(replan_island);
    if (replanned.ok() && !UsesFailedGpu(replanned->plan, situation)) {
      Result<double> step = step_seconds_of(replanned->plan, situation);
      if (step.ok()) {
        estimates[3] = {true,
                        replan_latency +
                            MigrationCost(current, replanned->plan, cluster,
                                          cost, sim_options.net_model),
                        *step};
        candidates[3] = replanned->plan;
        int alive_nodes = 0;
        for (topo::NodeId n = 0; n < nodes; ++n) {
          bool any_live = false;
          for (topo::GpuId g : cluster.GpusOnNode(n)) {
            if (!situation.IsFailed(g)) any_live = true;
          }
          if (any_live) ++alive_nodes;
        }
        if (alive_nodes > 0) {
          // After a fail-stop the dead GPUs' state is gone and cannot be
          // saved; charging the full save+init+load RestartSeconds there
          // would double-count the checkpoint I/O (the save leg re-prices
          // the load of state that already sits in the checkpoint). The
          // failure path pays load + init only.
          const bool after_failure = event.kind == EventKind::kFail ||
                                     event.kind == EventKind::kNodeFail;
          const double restart_io =
              after_failure
                  ? sim::RestartAfterFailureSeconds(cost.CheckpointBytes(),
                                                    alive_nodes)
                  : sim::RestartSeconds(cost.CheckpointBytes(), alive_nodes);
          estimates[4] = {true, replan_latency + restart_io, *step};
          candidates[4] = std::move(replanned->plan);
        }
      }
    }
    seen_situations.insert(sig);

    int first_feasible = -1;
    for (int a = 0; a < kNumPolicyActions; ++a) {
      if (estimates[a].feasible) {
        first_feasible = a;
        break;
      }
    }
    if (first_feasible < 0) {
      result.stop_reason = "no feasible action for event " + event.ToString();
      break;
    }
    PolicyAction action =
        selector.Select(estimates, event, kHorizonIterations);
    if (!estimates[static_cast<int>(action)].feasible) {
      action = static_cast<PolicyAction>(first_feasible);
    }
    const int a = static_cast<int>(action);
    const bool plan_changed =
        candidates[a].Signature() != current.Signature();
    if (action != PolicyAction::kTolerate) {
      current = std::move(candidates[a]);
    }

    core::StepReport transition;
    transition.note = event.ToString() + std::string(" -> ") +
                      PolicyActionName(action);
    switch (action) {
      case PolicyAction::kTolerate:
        break;
      case PolicyAction::kPromote:
        transition.migration_seconds = estimates[a].transition_seconds;
        break;
      case PolicyAction::kDeltaReplan:
      case PolicyAction::kReplan: {
        const double latency = action == PolicyAction::kDeltaReplan
                                   ? kDeltaReplanFraction * replan_latency
                                   : replan_latency;
        transition.replanned = true;
        transition.planning_seconds = latency;
        transition.planning_overflow_seconds = latency;
        transition.migration_seconds =
            estimates[a].transition_seconds - latency;
        break;
      }
      case PolicyAction::kRestart:
        transition.replanned = true;
        transition.planning_seconds = replan_latency;
        transition.planning_overflow_seconds = replan_latency;
        transition.recovery_seconds =
            estimates[a].transition_seconds - replan_latency;
        break;
    }
    if (plan_changed && action != PolicyAction::kTolerate) {
      transition.plan_signature = current.Signature();
    }
    record(transition);

    EventAudit audit;
    audit.iteration = event.iteration;
    audit.kind = event.kind;
    audit.action = action;
    audit.uses_failed_gpu = UsesFailedGpu(current, situation);
    audit.plan_valid =
        current.Validate(cluster, cost).ok() && !audit.uses_failed_gpu;
    audit.transition_seconds = estimates[a].transition_seconds;
    audit.step_seconds_after = estimates[a].step_seconds;
    audit.plan_signature = current.Signature();
    audit.predicted_cost_chosen =
        estimates[a].PredictedCost(kHorizonIterations);
    audit.predicted_cost_tolerate =
        estimates[0].PredictedCost(kHorizonIterations);
    audit.tolerate_feasible = estimates[0].feasible;
    result.audits.push_back(std::move(audit));
    ++result.action_counts[a];
    ++result.events_applied;
  }

  if (result.stop_reason.empty()) run_segment(trace.iterations);

  result.wall_seconds = result.training_seconds + result.transition_seconds;
  result.goodput =
      result.wall_seconds > 0.0
          ? static_cast<double>(result.iterations_run) *
                result.healthy_step_seconds / result.wall_seconds
          : 1.0;
  return result;
}

}  // namespace policy
}  // namespace malleus
