#include "policy/runner.h"

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/migration.h"
#include "core/trace_driver.h"
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

// The policy engine's run as the trace driver's framework. Each
// event-free segment is one memoized report; each change point prices the
// five actions, asks the selector once and executes its choice. The k-th
// change point is the k-th event of `trace` (see EventTimeline), which
// supplies the event the selector and the restart pricing see.
class PolicyRun : public core::TrainingFramework {
 public:
  PolicyRun(const topo::ClusterSpec& cluster, const model::CostModel& cost,
            const straggler::Situation& initial, const EventTrace& trace,
            const PolicySelector& selector, const DynamicRunOptions& options,
            DynamicRunResult* result)
      : cluster_(cluster),
        cost_(cost),
        initial_(initial),
        trace_(trace),
        selector_(selector),
        options_(options),
        result_(result),
        planner_(cluster, cost),
        sim_options_(options.sim) {
    // Noise-free simulation makes segment step times exact, memoizable and
    // byte-reproducible; the trace recorder stays off (the run log is the
    // dynamic mode's observable).
    sim_options_.timing_noise_stddev = 0.0;
    sim_options_.trace = nullptr;
    seen_situations_.insert(SitSignature(initial));
  }

  std::string name() const override { return selector_.name(); }

  // Plans for the initial situation and prices the goodput numeraire.
  Status Initialize(int64_t global_batch) override {
    global_batch_ = global_batch;
    // A degraded initial situation on a larger cluster must not hit the
    // flat sweep (auto island selection keeps it flat through 8 nodes,
    // which is explosive under mixed rates); route it through half-cluster
    // islands.
    core::PlannerOptions initial_opts = options_.planner;
    if (initial_opts.island_nodes == 0 && cluster_.num_nodes() > 4) {
      bool degraded = false;
      for (topo::GpuId g = 0; g < initial_.num_gpus(); ++g) {
        if (initial_.IsStraggler(g) || initial_.IsFailed(g)) {
          degraded = true;
          break;
        }
      }
      if (degraded) initial_opts.island_nodes = cluster_.num_nodes() / 2;
    }
    Result<core::PlanResult> initial_plan =
        planner_.Replan(initial_, global_batch, initial_opts);
    if (!initial_plan.ok()) {
      return Status(initial_plan.status().code(),
                    "no initial plan: " + initial_plan.status().message());
    }
    current_ = std::move(initial_plan->plan);
    MALLEUS_ASSIGN_OR_RETURN(
        result_->healthy_step_seconds,
        StepSecondsOf(current_, straggler::Situation(cluster_.num_gpus())));
    return Status::OK();
  }

  Result<core::StepReport> Step(
      const straggler::Situation& situation) override {
    core::StepReport report;
    MALLEUS_ASSIGN_OR_RETURN(report.step_seconds,
                             StepSecondsOf(current_, situation));
    return report;
  }

  // The segment's iterations are identical: one report covers them all.
  Status Advance(const straggler::Situation& situation, int64_t iterations,
                 std::vector<core::StepReport>* reports) override {
    MALLEUS_ASSIGN_OR_RETURN(core::StepReport report, Step(situation));
    const double step = report.step_seconds;
    report.step_seconds = step * static_cast<double>(iterations);
    report.note = StrFormat("segment x%lld @%.17g s/iter",
                            static_cast<long long>(iterations), step);
    Record(report);
    reports->push_back(std::move(report));
    return Status::OK();
  }

  Result<core::StepReport> OnSituationChange(
      const straggler::Situation& situation) override {
    const ClusterEvent& event = trace_.events[next_event_++];
    const std::string sig = SitSignature(situation);
    const bool cold = seen_situations_.count(sig) == 0;
    const double replan_latency =
        cold ? kColdReplanSeconds : kWarmReplanSeconds;

    // Per action: its estimate, its plan and the report that charges it. An
    // estimate's transition_seconds is its report's TransitionSeconds(), so
    // the run charges exactly what the selector was priced.
    ActionEstimates estimates{};
    plan::ParallelPlan candidates[kNumPolicyActions];
    core::StepReport charges[kNumPolicyActions];
    auto offer = [&](PolicyAction action, plan::ParallelPlan candidate,
                     double step, core::StepReport charge) {
      const int i = static_cast<int>(action);
      estimates[i] = {true, charge.TransitionSeconds(), step};
      candidates[i] = std::move(candidate);
      charges[i] = std::move(charge);
    };

    // tolerate: the current plan, if it still runs on live GPUs only.
    if (!UsesFailedGpu(current_, situation)) {
      Result<double> step = StepSecondsOf(current_, situation);
      if (step.ok()) offer(PolicyAction::kTolerate, current_, *step, {});
    }
    // Re-plans overlap the step the current plan still runs (S5.3); when it
    // cannot run, nothing hides the planner.
    const ActionEstimate& tolerate = estimates[0];
    const double overlapped_step = tolerate.feasible ? tolerate.step_seconds
                                                     : 0.0;
    // promote: swap in a healthy same-node standby; priced by the actual
    // state migration the swap implies.
    Result<plan::ParallelPlan> promoted =
        PromotePlan(cluster_, cost_, current_, situation);
    if (promoted.ok() && !UsesFailedGpu(*promoted, situation)) {
      Result<double> step = StepSecondsOf(*promoted, situation);
      if (step.ok()) {
        core::StepReport charge;
        charge.migration_seconds = MigrationCost(
            current_, *promoted, cluster_, cost_, sim_options_.net_model);
        offer(PolicyAction::kPromote, std::move(*promoted), *step,
              std::move(charge));
      }
    }
    // delta: re-plan through small islands (the hier memo re-solves only
    // touched islands), then migrate. Islands shrink with cluster size so
    // the delta candidate stays cheaper — and coarser — than the full
    // re-plan's decomposition.
    const int nodes = cluster_.num_nodes();
    if (nodes >= 4 && nodes % 2 == 0) {
      const int delta_island = nodes >= 8 ? nodes / 4 : nodes / 2;
      Result<core::PlanResult> planned =
          ReplanOnIslands(situation, delta_island);
      if (planned.ok() && !UsesFailedGpu(planned->plan, situation)) {
        Result<double> step = StepSecondsOf(planned->plan, situation);
        if (step.ok()) {
          core::StepReport charge;
          core::ChargeReplanning(kDeltaReplanFraction * replan_latency,
                                 overlapped_step, &charge);
          charge.migration_seconds =
              MigrationCost(current_, planned->plan, cluster_, cost_,
                            sim_options_.net_model);
          offer(PolicyAction::kDeltaReplan, std::move(planned->plan), *step,
                std::move(charge));
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
    Result<core::PlanResult> replanned =
        ReplanOnIslands(situation, replan_island);
    if (replanned.ok() && !UsesFailedGpu(replanned->plan, situation)) {
      Result<double> step = StepSecondsOf(replanned->plan, situation);
      if (step.ok()) {
        core::StepReport replan;
        core::ChargeReplanning(replan_latency, overlapped_step, &replan);
        core::StepReport restart = replan;
        replan.migration_seconds =
            MigrationCost(current_, replanned->plan, cluster_, cost_,
                          sim_options_.net_model);
        offer(PolicyAction::kReplan, replanned->plan, *step,
              std::move(replan));
        int alive_nodes = 0;
        for (topo::NodeId n = 0; n < nodes; ++n) {
          bool any_live = false;
          for (topo::GpuId g : cluster_.GpusOnNode(n)) {
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
          restart.recovery_seconds =
              after_failure
                  ? sim::RestartAfterFailureSeconds(cost_.CheckpointBytes(),
                                                    alive_nodes)
                  : sim::RestartSeconds(cost_.CheckpointBytes(), alive_nodes);
          offer(PolicyAction::kRestart, std::move(replanned->plan), *step,
                std::move(restart));
        }
      }
    }
    seen_situations_.insert(sig);

    int first_feasible = -1;
    for (int a = 0; a < kNumPolicyActions; ++a) {
      if (estimates[a].feasible) {
        first_feasible = a;
        break;
      }
    }
    if (first_feasible < 0) {
      return Status::Infeasible("no feasible action for event " +
                                event.ToString());
    }
    PolicyAction action =
        selector_.Select(estimates, event, kHorizonIterations);
    if (!estimates[static_cast<int>(action)].feasible) {
      action = static_cast<PolicyAction>(first_feasible);
    }
    const int a = static_cast<int>(action);
    const bool plan_changed =
        candidates[a].Signature() != current_.Signature();
    if (action != PolicyAction::kTolerate) {
      current_ = std::move(candidates[a]);
    }

    core::StepReport transition = std::move(charges[a]);
    transition.note = event.ToString() + std::string(" -> ") +
                      PolicyActionName(action);
    if (plan_changed) transition.plan_signature = current_.Signature();
    Record(transition);

    EventAudit audit;
    audit.iteration = event.iteration;
    audit.kind = event.kind;
    audit.action = action;
    audit.uses_failed_gpu = UsesFailedGpu(current_, situation);
    audit.plan_valid =
        current_.Validate(cluster_, cost_).ok() && !audit.uses_failed_gpu;
    audit.transition_seconds = estimates[a].transition_seconds;
    audit.step_seconds_after = estimates[a].step_seconds;
    audit.plan_signature = current_.Signature();
    audit.predicted_cost_chosen =
        estimates[a].PredictedCost(kHorizonIterations);
    audit.predicted_cost_tolerate =
        estimates[0].PredictedCost(kHorizonIterations);
    audit.tolerate_feasible = estimates[0].feasible;
    result_->audits.push_back(std::move(audit));
    ++result_->action_counts[a];
    ++result_->events_applied;
    return transition;
  }

 private:
  Result<double> StepSecondsOf(const plan::ParallelPlan& p,
                               const straggler::Situation& s) {
    const std::string key = p.Signature() + "|" + SitSignature(s);
    const auto it = sim_memo_.find(key);
    if (it != sim_memo_.end()) return it->second;
    Rng rng(0x6D616C6C657573ULL);  // Fixed seed; the noise stddev is 0.
    Result<sim::StepResult> sim_result =
        sim::SimulateStep(cluster_, cost_, p, s, sim_options_, &rng);
    if (!sim_result.ok()) return sim_result.status();
    sim_memo_.emplace(key, sim_result->step_seconds);
    return sim_result->step_seconds;
  }

  // Re-plans keep the current plan's DP degree (paper footnote 2) and fall
  // back to the planner's own DP search when capacity loss rules it out.
  Result<core::PlanResult> ReplanOnIslands(
      const straggler::Situation& situation, int island_nodes) const {
    core::PlannerOptions opts = options_.planner;
    opts.dp_degree = current_.dp_degree();
    opts.island_nodes = island_nodes;
    return planner_.Replan(situation, global_batch_, opts);
  }

  void Record(const core::StepReport& report) const {
    if (options_.run_log != nullptr) {
      options_.run_log->Record("dynamic", report);
    }
  }

  const topo::ClusterSpec& cluster_;
  const model::CostModel& cost_;
  const straggler::Situation& initial_;
  const EventTrace& trace_;
  const PolicySelector& selector_;
  const DynamicRunOptions& options_;
  DynamicRunResult* result_;
  const core::Planner planner_;
  sim::SimOptions sim_options_;
  std::map<std::string, double> sim_memo_;
  std::set<std::string> seen_situations_;
  plan::ParallelPlan current_;
  int64_t global_batch_ = 0;
  size_t next_event_ = 0;
};

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
  PolicyRun run(cluster, cost, initial, trace, selector, options, &result);
  MALLEUS_RETURN_NOT_OK(run.Initialize(global_batch));
  const core::DriveResult drive =
      core::Drive(&run, EventTimeline(cluster, initial, trace),
                  result.healthy_step_seconds);
  result.iterations_run = drive.iterations_run;
  result.training_seconds = drive.training_seconds;
  result.transition_seconds = drive.transition_seconds;
  result.wall_seconds = drive.wall_seconds;
  result.goodput = drive.goodput;
  if (!drive.stop.ok()) result.stop_reason = drive.stop.message();
  return result;
}

}  // namespace policy
}  // namespace malleus
