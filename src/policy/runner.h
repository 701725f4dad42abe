// The dynamic run: plays an event trace (policy/events.h, EventTimeline)
// through the one trace driver (core::Drive) over a core::MalleusEngine
// that observes the truth and acts through the policy. The engine holds
// the plan, runs each event-free segment as one noise-free report,
// `segment xN @s s/iter`, and commits each chosen move through its
// executor. At each event the policy actor prices the five candidate
// actions (policy/policy.h) against the engine, calls Select exactly once,
// right after pricing, and returns the choice. Re-plan latency is charged
// by core::ChargeReplanning and migrations at the executor's price, so
// each event charges its estimate's transition_seconds.
// DynamicRunResult's iterations, seconds, goodput and stop reason are the
// driver's ledger.
//
// Determinism contract: RunDynamic is a pure function of its arguments.
// Step times are noise-free, the planner is bit-identical at any thread
// count, and re-plan latency is priced from the policy actor's own memo
// of seen situation signatures (cold on first sight, warm after) with
// fixed constants (runner.cc), which no caller has needed to change. The
// planner cache's hit/miss counters may vary run to run under thread
// racing, so the cache makes planner calls fast but does not price them.

#ifndef MALLEUS_POLICY_RUNNER_H_
#define MALLEUS_POLICY_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/planner.h"
#include "core/run_log.h"
#include "model/cost_model.h"
#include "policy/events.h"
#include "policy/policy.h"
#include "sim/pipeline_sim.h"
#include "straggler/situation.h"
#include "topology/cluster.h"

namespace malleus {
namespace policy {

struct DynamicRunOptions {
  /// Planner knobs. dp_degree applies to the initial plan only; every
  /// later re-plan keeps the current plan's DP degree through
  /// core::Planner::Replan (paper footnote 2), which falls back to the
  /// planner's own DP search when capacity loss makes it infeasible.
  core::PlannerOptions planner;
  /// Simulator knobs; timing noise is forced to 0 so segment step times
  /// are exact.
  sim::SimOptions sim;
  /// When set, the run records one StepReport per segment and per event,
  /// in timeline order under the phase "dynamic", after the drive;
  /// replaying the same trace twice yields byte-identical logs.
  core::RunLog* run_log = nullptr;
};

/// What the runner decided (and verified) for one applied event.
struct EventAudit {
  int64_t iteration = 0;
  EventKind kind = EventKind::kStraggle;
  PolicyAction action = PolicyAction::kTolerate;
  /// Engine-state validity after applying the action: the installed plan
  /// passes Validate and schedules work on no failed GPU.
  bool plan_valid = false;
  bool uses_failed_gpu = false;
  double transition_seconds = 0.0;
  double step_seconds_after = 0.0;
  std::string plan_signature;
  /// Predicted amortized costs backing the choice (for the property test
  /// "adaptive never exceeds tolerate's bound").
  double predicted_cost_chosen = 0.0;
  double predicted_cost_tolerate = 0.0;
  bool tolerate_feasible = false;
};

/// Outcome of one dynamic run.
struct DynamicRunResult {
  int64_t iterations_run = 0;    ///< Iterations actually simulated.
  int64_t trace_iterations = 0;  ///< Iterations the trace spans.
  double wall_seconds = 0.0;     ///< training + transition, exactly.
  double training_seconds = 0.0;
  double transition_seconds = 0.0;
  /// Step time of the initial plan on an all-healthy cluster; the
  /// goodput numeraire.
  double healthy_step_seconds = 0.0;
  /// Cumulative goodput: healthy-equivalent work per wall-second,
  /// iterations_run * healthy_step_seconds / wall_seconds. 1.0 means the
  /// run was as productive as an undisturbed cluster; in (0, 1] normally.
  double goodput = 0.0;
  int events_applied = 0;
  /// Actions taken, indexed by PolicyAction.
  int action_counts[kNumPolicyActions] = {0, 0, 0, 0, 0};
  std::vector<EventAudit> audits;
  /// Empty when the run completed; otherwise why it stopped early (e.g.
  /// no feasible action after an event).
  std::string stop_reason;
};

/// Runs `trace` over (cluster, cost) with `selector` deciding each event.
/// `initial` is the situation before any event (usually all-healthy) and
/// must match the cluster. Fails only when no initial plan exists; event
/// handling degrades to an early stop with `stop_reason` instead.
Result<DynamicRunResult> RunDynamic(const topo::ClusterSpec& cluster,
                                    const model::CostModel& cost,
                                    const straggler::Situation& initial,
                                    const EventTrace& trace,
                                    int64_t global_batch,
                                    const PolicySelector& selector,
                                    const DynamicRunOptions& options);

}  // namespace policy
}  // namespace malleus

#endif  // MALLEUS_POLICY_RUNNER_H_
