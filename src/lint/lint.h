// malleus::lint — the analysis passes.
//
// Three artifact layers are analyzed (see DESIGN.md §10 for the full
// diagnostic-code table and severity policy):
//
//   Plans      — the structural invariants (error level; shared with
//                ParallelPlan::Validate via plan/plan_checks.h) plus
//                warn-level quality passes: stage compute imbalance under
//                the live Situation, razor-edge memory headroom, healthy
//                GPUs parked on standby, TP groups mixing straggling
//                rates, and micro-batch/DP divisibility waste.
//   Scenarios  — cluster shape and interconnect sanity, and situation
//                rate ranges against the fitted x = 1 + 1.44k straggler
//                model. The scenario-file semantic checks (model/phase
//                names, GPU ranges, duplicate straggler ids) are
//                scenario::CheckScenario, which ResolveScenario enforces.
//   Event/flow — topological feasibility of 1F1B schedules (a deadlocked
//                schedule is a lint error, not a hung simulation) and
//                flow-conservation audits of net::FlowSim results.
//
// All passes append to a DiagnosticSink and never fail; "can't analyze"
// (e.g. quality passes over a structurally broken plan) means the pass
// skips itself, since the structural errors are already in the sink.

#ifndef MALLEUS_LINT_LINT_H_
#define MALLEUS_LINT_LINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "lint/diagnostic.h"
#include "model/cost_model.h"
#include "net/flow_sim.h"
#include "plan/plan.h"
#include "plan/plan_checks.h"
#include "scenario/scenario.h"
#include "sim/pipeline_sim.h"
#include "straggler/situation.h"
#include "topology/cluster.h"

namespace malleus {
namespace lint {

// ----- Diagnostic codes beyond the structural plan checks --------------
// (the plan.* error codes live in plan/plan_checks.h).

inline constexpr char kLintPlanStageImbalance[] = "plan.stage-imbalance";
inline constexpr char kLintPlanMemoryHeadroom[] = "plan.memory-headroom";
inline constexpr char kLintPlanHealthyStandby[] = "plan.healthy-standby";
inline constexpr char kLintPlanMixedTpRates[] = "plan.mixed-tp-rates";
inline constexpr char kLintPlanUnevenData[] = "plan.uneven-data";

inline constexpr char kLintClusterEmpty[] = "cluster.empty";
inline constexpr char kLintClusterBadBandwidth[] = "cluster.bad-bandwidth";
inline constexpr char kLintClusterNoUsableMemory[] =
    "cluster.no-usable-memory";

inline constexpr char kLintSituationSizeMismatch[] =
    "situation.size-mismatch";

// The scenario.* codes and the situation.* codes the scenario checks share
// with LintSituation live with the checks in scenario/scenario.h.
using scenario::kLintScenarioDuplicateStraggler;
using scenario::kLintScenarioDynamicInvalidValue;
using scenario::kLintScenarioDynamicSaturated;
using scenario::kLintScenarioFabricFieldIgnored;
using scenario::kLintScenarioGpuOutOfRange;
using scenario::kLintScenarioInvalidValue;
using scenario::kLintScenarioUnknownFabric;
using scenario::kLintScenarioUnknownModel;
using scenario::kLintScenarioUnknownPhase;
using scenario::kLintSituationBadRate;
using scenario::kLintSituationFailedGpu;
using scenario::kLintSituationRateAboveFit;

inline constexpr char kLintGraphMalformedSchedule[] =
    "graph.malformed-schedule";
inline constexpr char kLintGraphDeadlock[] = "graph.deadlock";

inline constexpr char kLintNetNegativeLinkBytes[] =
    "net.negative-link-bytes";
inline constexpr char kLintNetVolumeMismatch[] = "net.volume-mismatch";
inline constexpr char kLintNetLinkOvercommit[] = "net.link-overcommit";

// ----- Quality-pass thresholds -----------------------------------------

/// plan.stage-imbalance fires when max/min per-micro-batch stage time
/// within a pipeline exceeds this ratio: the slowest stage gates every
/// 1F1B slot, so 25% imbalance is ~25% wasted compute on the fast stages.
inline constexpr double kStageImbalanceRatio = 1.25;

/// plan.memory-headroom fires below this fraction of free capacity; a
/// few-percent margin leaves re-planning no feasible moves (§5.3).
inline constexpr double kMemoryHeadroomFraction = 0.10;

/// plan.mixed-tp-rates fires when a TP group's fastest and slowest member
/// rates differ by more than this ratio (y = rho * max x drags the whole
/// group to its slowest member, wasting the healthy GPUs).
inline constexpr double kMixedTpRateRatio = 1.05;

// ----- Pass registry ---------------------------------------------------

struct PassInfo {
  const char* code;
  Severity severity;
  const char* summary;
};

/// Every diagnostic code the engine can emit, with its severity and a
/// one-line summary. Sorted by code. Used by `malleus_lint --list` and
/// kept in sync with DESIGN.md §10 by tests.
const std::vector<PassInfo>& Passes();

// ----- Plan passes -----------------------------------------------------

/// Runs the structural (error-level) checks and, when they pass and a
/// `situation` is provided, the warn-level quality passes. `situation`
/// may be null: situation-dependent passes are then skipped.
void LintPlan(const plan::ParallelPlan& p, const topo::ClusterSpec& cluster,
              const model::CostModel& cost,
              const straggler::Situation* situation, DiagnosticSink* sink);

/// Just the warn-level quality passes (callers that already validated).
void LintPlanQuality(const plan::ParallelPlan& p,
                     const topo::ClusterSpec& cluster,
                     const model::CostModel& cost,
                     const straggler::Situation& situation,
                     DiagnosticSink* sink);

// ----- Scenario / cluster passes ---------------------------------------

/// Cluster shape and interconnect sanity.
void LintCluster(const topo::ClusterSpec& cluster, DiagnosticSink* sink);

/// Situation vs. cluster: size, rate range against the fitted straggler
/// model (x = 1 + 1.44k, levels 0..8), failed (unreachable) GPUs.
void LintSituation(const topo::ClusterSpec& cluster,
                   const straggler::Situation& situation,
                   DiagnosticSink* sink);

// ----- Event-graph / flow passes ---------------------------------------

/// Checks that `per_stage[j]` is a complete, topologically feasible 1F1B
/// task order for a pipeline of per_stage.size() stages over `num_micro`
/// micro-batches: every (fwd, bwd) x micro appears exactly once per stage
/// (graph.malformed-schedule) and playback reaches completion under the
/// 1F1B dependencies — fwd needs the upstream fwd, bwd needs the
/// downstream bwd and the same-stage fwd (graph.deadlock).
void LintPipelineSchedule(
    const std::vector<std::vector<sim::StageTask>>& per_stage,
    int64_t num_micro, const std::string& location_prefix,
    DiagnosticSink* sink);

/// Builds each pipeline's 1F1B schedule (sim::Build1F1BSchedule) and lints
/// it. Skips pipelines whose structure is too broken to schedule.
void LintEventGraph(const plan::ParallelPlan& p, DiagnosticSink* sink);

/// Flow-level audit data extracted from a completed FlowSim run (or
/// hand-built in tests).
struct FlowAudit {
  double total_flow_bytes = 0.0;
  std::vector<double> link_bytes;
  std::vector<double> link_peak_utilization;
  std::vector<std::string> link_names;
};

/// Snapshot of a completed FlowSim for auditing.
FlowAudit AuditFlowSim(const net::FlowSim& sim);

/// Conservation checks: per-link bytes must be finite and >= 0
/// (net.negative-link-bytes), per-link peak utilization must not exceed
/// capacity (net.link-overcommit), and the flows' byte sum must match the
/// collective lowering's expected volume within `rel_tolerance`
/// (net.volume-mismatch).
void LintFlowConservation(const FlowAudit& audit, double expected_bytes,
                          double rel_tolerance, DiagnosticSink* sink);

}  // namespace lint
}  // namespace malleus

#endif  // MALLEUS_LINT_LINT_H_
