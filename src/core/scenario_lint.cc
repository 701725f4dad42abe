#include "core/scenario_lint.h"

#include <cstdint>
#include <vector>

#include "core/planner.h"
#include "lint/lint.h"
#include "model/cost_model.h"
#include "net/fabric.h"
#include "net/flow_sim.h"
#include "plan/estimator.h"
#include "scenario/scenario.h"

namespace malleus {
namespace core {

namespace {

// The situation the planner-dependent passes run under: the custom overlay
// when the file defines one, else the first trace phase, else all-healthy.
Result<straggler::Situation> PlanningSituation(
    const scenario::ResolvedScenario& resolved) {
  if (resolved.has_overlay) return resolved.overlay;
  if (!resolved.trace.empty()) {
    return straggler::Situation::Canonical(resolved.cluster,
                                           resolved.trace.front().id);
  }
  return straggler::Situation(resolved.cluster.num_gpus());
}

}  // namespace

Status LintScenarioFile(const std::string& path,
                        const ScenarioLintOptions& options,
                        lint::DiagnosticSink* sink) {
  MALLEUS_ASSIGN_OR_RETURN(scenario::ScenarioSpec spec,
                           scenario::LoadScenarioFile(path));
  return LintScenarioSpec(spec, options, sink);
}

Status LintScenarioSpec(const scenario::ScenarioSpec& spec,
                        const ScenarioLintOptions& options,
                        lint::DiagnosticSink* sink) {
  scenario::CheckScenario(spec, sink);
  if (sink->HasErrors()) return Status::OK();  // Resolution would re-fail.

  MALLEUS_ASSIGN_OR_RETURN(scenario::ResolvedScenario resolved,
                           scenario::ResolveScenario(spec));
  lint::LintCluster(resolved.cluster, sink);
  if (resolved.has_overlay) {
    lint::LintSituation(resolved.cluster, resolved.overlay, sink);
  }
  for (const straggler::TracePhase& phase : resolved.trace) {
    Result<straggler::Situation> situation =
        straggler::Situation::Canonical(resolved.cluster, phase.id);
    if (situation.ok()) {
      lint::LintSituation(resolved.cluster, *situation, sink);
    }
  }
  if (sink->HasErrors() || !options.with_plan) return Status::OK();

  const model::CostModel cost(resolved.spec, resolved.cluster.gpu());
  MALLEUS_ASSIGN_OR_RETURN(straggler::Situation situation,
                           PlanningSituation(resolved));
  const Planner planner(resolved.cluster, cost);
  MALLEUS_ASSIGN_OR_RETURN(PlanResult planned,
                           planner.Plan(situation, spec.batch));
  // The planner already ran LintPlan + LintEventGraph on its winner.
  sink->Merge(planned.diagnostics);

  // Flow audit: play the plan's ZeRO-1 grad-sync rings through the fabric
  // simulator and check conservation against the submitted volume.
  const std::vector<plan::GradSyncRing> rings =
      plan::CollectGradSyncRings(planned.plan, cost, resolved.cluster);
  if (!rings.empty()) {
    const double dp = static_cast<double>(planned.plan.dp_degree());
    const net::Fabric fabric(resolved.cluster);
    net::FlowSim flow_sim(fabric);
    double expected_bytes = 0.0;
    for (const plan::GradSyncRing& ring : rings) {
      const double bytes_per_hop = ring.bytes_per_gpu * ((dp - 1.0) / dp);
      const std::vector<int64_t> ids =
          net::SubmitRing(&flow_sim, ring.peers, bytes_per_hop,
                          /*start_seconds=*/0.0,
                          2.0 * dp * ring.hop_latency);
      expected_bytes += static_cast<double>(ids.size()) * bytes_per_hop;
    }
    flow_sim.Run();
    lint::LintFlowConservation(lint::AuditFlowSim(flow_sim), expected_bytes,
                               /*rel_tolerance=*/1e-6, sink);
  }
  return Status::OK();
}

}  // namespace core
}  // namespace malleus
