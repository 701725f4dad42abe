// The per-event action space of the online fault-tolerance engine and the
// pluggable selectors that choose from it.
//
// For every cluster event the runner (policy/runner.h) prices five
// candidate actions and hands the estimates to a PolicySelector:
//
//   tolerate  keep the current plan and ride out the degradation
//   promote   swap the worst degraded active GPU with a healthy same-node
//             standby (S5.2 elastic re-inclusion, migration-priced)
//   delta     delta re-plan through the hierarchical island memo
//             (core/hier.h), then migrate
//   replan    global re-plan + migration (paper S4/S5.1): flat up to 4
//             nodes, half-cluster islands above that
//   restart   re-plan, then reload everyone from the latest checkpoint
//             (sim/restart.h) instead of migrating
//
// Each estimate carries a one-off transition cost and the steady-state
// step time afterwards; PredictedCost amortizes over a fixed horizon
// (Chameleon's "predicted amortized cost", arXiv 2508.21613). The
// `adaptive` selector takes the feasible argmin; the five fixed selectors
// always pick their namesake action when it is feasible.

#ifndef MALLEUS_POLICY_POLICY_H_
#define MALLEUS_POLICY_POLICY_H_

#include <array>
#include <memory>
#include <string>

#include "common/result.h"
#include "policy/events.h"

namespace malleus {
namespace policy {

/// The action space, in deterministic tie-break order (lower wins ties).
enum class PolicyAction {
  kTolerate = 0,
  kPromote = 1,
  kDeltaReplan = 2,
  kReplan = 3,
  kRestart = 4,
};

inline constexpr int kNumPolicyActions = 5;

/// Stable lowercase name, e.g. "tolerate"; used by logs and golden files.
const char* PolicyActionName(PolicyAction action);

/// Predicted outcome of taking one action in response to one event.
struct ActionEstimate {
  /// False when the action cannot be taken (e.g. tolerate with the current
  /// plan running on a failed GPU, promote with no healthy same-node
  /// standby, or a planner failure). Infeasible estimates are never
  /// selected.
  bool feasible = false;
  /// One-off cost: migration or checkpoint I/O, plus the re-plan latency
  /// that overflows the step the current plan runs meanwhile
  /// (core::ChargeReplanning). Exactly what the run charges if chosen.
  double transition_seconds = 0.0;
  /// Steady-state per-iteration step time after the action.
  double step_seconds = 0.0;

  /// Amortized cost of the action over the next `horizon` iterations.
  double PredictedCost(double horizon_iterations) const {
    return transition_seconds + horizon_iterations * step_seconds;
  }
};

/// Estimates for all five actions, indexed by PolicyAction.
using ActionEstimates = std::array<ActionEstimate, kNumPolicyActions>;

/// \brief Chooses one action per event from the priced candidates.
class PolicySelector {
 public:
  virtual ~PolicySelector() = default;

  /// The selector's registry name ("adaptive", "tolerate", ...).
  virtual const std::string& name() const = 0;

  /// Picks an action. At least one estimate is guaranteed feasible (the
  /// runner aborts the run otherwise); selectors must return a feasible
  /// action and must be deterministic functions of their arguments.
  virtual PolicyAction Select(const ActionEstimates& estimates,
                              const ClusterEvent& event,
                              double horizon_iterations) const = 0;
};

/// Selector registry: "adaptive" (feasible argmin of PredictedCost, ties
/// to the lowest action index) or a fixed policy by action name
/// ("tolerate", "promote", "delta", "replan", "restart") that falls back
/// to the cheapest feasible action when its namesake is infeasible.
Result<std::unique_ptr<PolicySelector>> MakeSelector(const std::string& name);

/// All registry names, in a fixed order: adaptive first, then the fixed
/// policies in action order. Benchmarks and golden snapshots iterate this.
const std::array<std::string, kNumPolicyActions + 1>& SelectorNames();

}  // namespace policy
}  // namespace malleus

#endif  // MALLEUS_POLICY_POLICY_H_
