// The property-oracle engine: machine-checked invariants of the
// planner/estimator/simulator stack, evaluated on one scenario.
//
// Three oracle families (ISSUE 5 / DESIGN.md §11):
//
//   differential — two implementations that must agree exactly:
//     differential.planner-threads   Plan() at 1 worker == Plan() at 4
//     differential.solve-cache       cache off == cold cache == warm cache
//     differential.net-model         flow grad-sync >= analytic, equal when
//                                    no two flows share a fabric link
//     differential.validate-lint     ParallelPlan::Validate verdict ==
//                                    error-level lint verdict, on the
//                                    chosen plan and on broken mutants
//     differential.sim-replay        the noisy simulator replayed with the
//                                    same Rng seed is bit-identical (under
//                                    OracleOptions::sim_net_model)
//     differential.flowsim-incremental  the incremental max–min FlowSim ==
//                                    the from-scratch reference bitwise
//                                    (outcomes, makespan, link usage) on
//                                    the plan's grad-sync lowering
//     differential.replan-fallback   Planner::Replan pinned to the chosen
//                                    plan's DP returns that plan; pinned
//                                    above the group count it falls back
//                                    to the unpinned plan
//
//   metamorphic — a known input transformation with a known output bound:
//     metamorphic.straggler-monotone-plan    worsening one GPU's rate never
//                                            improves a FIXED plan's
//                                            estimate (exact)
//     metamorphic.straggler-monotone-replan  re-planning under the worse
//                                            rates still succeeds
//                                            (feasibility is
//                                            rate-independent) and the new
//                                            plan obeys the same exact
//                                            fixed-plan monotonicity
//     metamorphic.standby-monotone           adding a node keeps the
//                                            cluster plannable, and a node
//                                            of FAILED newcomers is
//                                            bitwise-equivalent to no node
//                                            at all
//     metamorphic.bandwidth-scaling          scaling every link bandwidth
//                                            by k scales zero-latency comm
//                                            terms by exactly 1/k
//     whatif.remove-straggler-monotone       the what-if engine's fixed-plan
//                                            replay under the analytic model
//                                            never gets SLOWER when an
//                                            injected straggler is removed
//                                            (1F1B event times are monotone
//                                            in task durations; analytic
//                                            only — max–min sharing under
//                                            the flow model is not provably
//                                            monotone)
//
//   simulator invariants:
//     sim.invariants            finite, nonnegative span times; step time
//                               dominates every pipeline; flow >= analytic
//     sim.event-graph           every 1F1B schedule is well-formed and
//                               deadlock-free (lint::LintEventGraph)
//     net.flow-conservation     FlowSim moves exactly the bytes the
//                               grad-sync lowering submitted; no link
//                               carries negative bytes or overcommits
//
//   dynamic (scenarios with a `dynamic = { ... }` block; malleus::policy):
//     dynamic.engine-state-valid   after every applied cluster event the
//                                  installed plan validates and schedules
//                                  no failed GPU, whatever action the
//                                  adaptive selector chose
//     dynamic.goodput-conservation wall == training + transition exactly
//                                  across policy switches; goodput finite
//                                  and nonnegative; a run with no stop
//                                  reason covers the whole trace
//
// An unplannable scenario (infeasible cluster/model combination) is NOT a
// violation: the planner oracles then check that the failure itself is
// deterministic across thread counts and cache modes, and the rest skip.

#ifndef MALLEUS_TESTKIT_ORACLE_H_
#define MALLEUS_TESTKIT_ORACLE_H_

#include <string>
#include <vector>

#include "net/fabric.h"
#include "scenario/scenario.h"

namespace malleus {
namespace testkit {

struct OracleOptions {
  /// Net model the noisy simulator invariant pass runs under (both models
  /// are always covered by the noise-free differential pass).
  net::NetModel sim_net_model = net::NetModel::kAnalytic;
  /// Test hook: deliberately mis-report the perturbed estimate in
  /// metamorphic.straggler-monotone-plan so the violation -> minimize ->
  /// repro -> replay path can be exercised end to end (malleus_fuzz
  /// --inject=perturb-estimate).
  bool inject_perturb_estimate = false;
};

struct Violation {
  std::string oracle;   ///< e.g. "differential.planner-threads".
  std::string message;  ///< Human-readable describing the disagreement.
};

struct OracleOutcome {
  /// Whether the base scenario resolved and planned at all.
  bool resolved = false;
  bool planned = false;
  /// The planner/resolver error when not (not a violation by itself).
  std::string error;
  /// Oracles that actually ran (for coverage accounting in the report).
  std::vector<std::string> oracles_run;
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
};

/// Runs every applicable oracle on `spec`. Deterministic: identical specs
/// and options produce identical outcomes (including message text).
OracleOutcome RunOracles(const scenario::ScenarioSpec& spec,
                         const OracleOptions& options = {});

}  // namespace testkit
}  // namespace malleus

#endif  // MALLEUS_TESTKIT_ORACLE_H_
