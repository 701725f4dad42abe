#include "policy/runner.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "core/engine.h"
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
// the policy actor's cold/warm re-plan memo (see the determinism contract
// in runner.h).
std::string SitSignature(const straggler::Situation& situation) {
  std::string sig;
  for (double rate : situation.rates()) {
    sig += StrFormat("%.17g,", rate);
  }
  return sig;
}

// The standby-promotion candidate: swap the worst degraded active GPU with
// the lowest-id healthy inactive GPU on the same node (TP groups are
// intra-node, so the swap preserves every structural invariant except
// possibly memory, which pricing its step re-checks through Validate).
Result<plan::ParallelPlan> PromotePlan(const topo::ClusterSpec& cluster,
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
  return promoted;
}

// The policy as the engine's actor: at the k-th change point, the k-th
// event of `trace` (see EventTimeline), it prices the five actions against
// the engine, asks the selector once and returns the chosen move.
class PolicyActor : public core::EngineActor {
 public:
  PolicyActor(const topo::ClusterSpec& cluster, const model::CostModel& cost,
              const straggler::Situation& initial, const EventTrace& trace,
              const PolicySelector& selector,
              const core::PlannerOptions& planner, DynamicRunResult* result)
      : cluster_(cluster),
        cost_(cost),
        trace_(trace),
        selector_(selector),
        planner_(planner),
        result_(result) {
    seen_situations_.insert(SitSignature(initial));
  }

  Result<core::EngineMove> Act(const core::MalleusEngine& engine,
                               const straggler::Situation& situation,
                               double installed_step_seconds) override {
    const ClusterEvent& event = trace_.events[next_event_++];
    const std::string sig = SitSignature(situation);
    const double replan_latency = seen_situations_.count(sig) == 0
                                      ? kColdReplanSeconds
                                      : kWarmReplanSeconds;

    // Per action: its estimate and the move that charges it. An estimate's
    // transition_seconds is its move's TransitionSeconds(), so the run
    // charges exactly what the selector was priced.
    ActionEstimates estimates{};
    core::EngineMove moves[kNumPolicyActions];
    auto offer = [&](PolicyAction action, double step,
                     core::EngineMove move) {
      const int i = static_cast<int>(action);
      estimates[i] = {true, move.report.TransitionSeconds(), step};
      moves[i] = std::move(move);
    };
    // A migration to `p`, charged at the executor's price: feasible when
    // `p` trains on live GPUs only and the states diff into it. Returns
    // `p`'s step, or 0 when it cannot train.
    auto offer_migration = [&](PolicyAction action, plan::ParallelPlan p,
                               core::StepReport charge) -> double {
      const Result<double> step = engine.PriceStep(p, situation);
      if (!step.ok()) return 0.0;
      Result<core::MigrationReport> migration =
          engine.executor().PriceMigration(p);
      if (migration.ok()) {
        charge.migration_seconds = migration->seconds;
        offer(action, *step, {std::move(p), false, std::move(charge)});
      }
      return *step;
    };

    // tolerate: the current plan, if it still runs on live GPUs only.
    // Re-plans overlap the step it runs meanwhile (S5.3); when it cannot
    // run, nothing hides the planner.
    if (installed_step_seconds > 0.0) {
      offer(PolicyAction::kTolerate, installed_step_seconds,
            {engine.current_plan(), false, {}});
    }
    // promote: swap in a healthy same-node standby; priced by the actual
    // state migration the swap implies.
    Result<plan::ParallelPlan> promoted =
        PromotePlan(cluster_, engine.current_plan(), situation);
    if (promoted.ok()) {
      offer_migration(PolicyAction::kPromote, std::move(*promoted), {});
    }
    // delta: re-plan through small islands (the hier memo re-solves only
    // touched islands), then migrate. Islands shrink with cluster size so
    // the delta candidate stays cheaper — and coarser — than the full
    // re-plan's decomposition.
    const int nodes = cluster_.num_nodes();
    if (nodes >= 4 && nodes % 2 == 0) {
      core::PlannerOptions delta = planner_;
      delta.island_nodes = nodes >= 8 ? nodes / 4 : nodes / 2;
      Result<core::PlanResult> planned = engine.Replan(situation, delta);
      if (planned.ok()) {
        core::StepReport charge;
        core::ChargeReplanning(kDeltaReplanFraction * replan_latency,
                               installed_step_seconds, &charge);
        offer_migration(PolicyAction::kDeltaReplan, std::move(planned->plan),
                        std::move(charge));
      }
    }
    // replan: the global re-plan, then migrate. Flat up to 4 nodes; above,
    // the flat sweep under mixed-rate situations takes tens of seconds, so
    // it runs on half-cluster islands (equal-or-better plans, DESIGN.md
    // §16). restart reuses this plan but pays checkpoint I/O + framework
    // re-init instead of migration.
    core::PlannerOptions global = planner_;
    global.island_nodes = nodes <= 4 ? -1 : nodes / 2;
    Result<core::PlanResult> replanned = engine.Replan(situation, global);
    if (replanned.ok()) {
      core::StepReport replan;
      core::ChargeReplanning(replan_latency, installed_step_seconds, &replan);
      core::StepReport restart = replan;
      const double step =
          offer_migration(PolicyAction::kReplan, replanned->plan, replan);
      if (step > 0.0) {
        int alive_nodes = 0;
        for (topo::NodeId n = 0; n < nodes; ++n) {
          const std::vector<topo::GpuId> gpus = cluster_.GpusOnNode(n);
          alive_nodes += std::any_of(
              gpus.begin(), gpus.end(),
              [&](topo::GpuId g) { return !situation.IsFailed(g); });
        }
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
        offer(PolicyAction::kRestart, step,
              {std::move(replanned->plan), true, std::move(restart)});
      }
    }
    seen_situations_.insert(sig);

    const auto first_feasible =
        std::find_if(estimates.begin(), estimates.end(),
                     [](const ActionEstimate& e) { return e.feasible; });
    if (first_feasible == estimates.end()) {
      return Status::Infeasible("no feasible action for event " +
                                event.ToString());
    }
    PolicyAction action =
        selector_.Select(estimates, event, kHorizonIterations);
    if (!estimates[static_cast<int>(action)].feasible) {
      action = static_cast<PolicyAction>(first_feasible - estimates.begin());
    }
    const int a = static_cast<int>(action);
    core::EngineMove move = std::move(moves[a]);
    move.report.note = event.ToString() + std::string(" -> ") +
                       PolicyActionName(action);

    // The engine installs move.plan once it commits the move.
    const std::vector<topo::GpuId> active = move.plan.ActiveGpus();
    const bool uses_failed_gpu =
        std::any_of(active.begin(), active.end(),
                    [&](topo::GpuId g) { return situation.IsFailed(g); });
    result_->audits.push_back({
        .iteration = event.iteration,
        .kind = event.kind,
        .action = action,
        .plan_valid =
            move.plan.Validate(cluster_, cost_).ok() && !uses_failed_gpu,
        .uses_failed_gpu = uses_failed_gpu,
        .transition_seconds = estimates[a].transition_seconds,
        .step_seconds_after = estimates[a].step_seconds,
        .plan_signature = move.plan.Signature(),
        .predicted_cost_chosen = estimates[a].PredictedCost(kHorizonIterations),
        .predicted_cost_tolerate =
            estimates[0].PredictedCost(kHorizonIterations),
        .tolerate_feasible = estimates[0].feasible,
    });
    ++result_->action_counts[a];
    ++result_->events_applied;
    return move;
  }

 private:
  const topo::ClusterSpec& cluster_;
  const model::CostModel& cost_;
  const EventTrace& trace_;
  const PolicySelector& selector_;
  const core::PlannerOptions& planner_;
  DynamicRunResult* result_;
  std::set<std::string> seen_situations_;
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
  PolicyActor actor(cluster, cost, initial, trace, selector, options.planner,
                    &result);
  // Noise-free, so segment step times are exact; the run log, not a trace
  // recorder, is the dynamic mode's observable.
  core::EngineOptions engine_options{options.planner, options.sim};
  engine_options.sim.timing_noise_stddev = 0.0;
  engine_options.sim.trace = nullptr;
  core::MalleusEngine engine(cluster, cost, engine_options,
                             core::Observer::kTruth, &actor);

  // A degraded initial situation on a larger cluster must not hit the flat
  // sweep (auto island selection keeps it flat through 8 nodes, which is
  // explosive under mixed rates); route it through half-cluster islands.
  core::PlannerOptions initial_opts = options.planner;
  if (initial_opts.island_nodes == 0 && cluster.num_nodes() > 4 &&
      !initial.Stragglers().empty()) {  // A failed GPU straggles too.
    initial_opts.island_nodes = cluster.num_nodes() / 2;
  }
  Result<core::PlanResult> initial_plan =
      engine.planner().Replan(initial, global_batch, initial_opts);
  if (!initial_plan.ok()) {
    return Status(initial_plan.status().code(),
                  "no initial plan: " + initial_plan.status().message());
  }
  MALLEUS_RETURN_NOT_OK(
      engine.InitializeWithPlan(std::move(initial_plan->plan)));
  MALLEUS_ASSIGN_OR_RETURN(
      result.healthy_step_seconds,
      engine.PriceStep(engine.current_plan(),
                       straggler::Situation(cluster.num_gpus())));

  const core::DriveResult drive =
      core::Drive(&engine, EventTimeline(cluster, initial, trace),
                  result.healthy_step_seconds);
  // The run log: each change's transition, then its steps.
  core::RunLog* log = options.run_log;
  for (size_t i = 0; log != nullptr && i < drive.segments.size(); ++i) {
    if (i > 0) log->Record("dynamic", drive.segments[i].transition);
    for (const core::StepReport& step : drive.segments[i].steps) {
      log->Record("dynamic", step);
    }
  }
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
