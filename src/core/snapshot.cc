#include "core/snapshot.h"

#include "common/rng.h"
#include "common/string_util.h"
#include "plan/estimator.h"
#include "sim/pipeline_sim.h"

namespace malleus {
namespace core {

namespace {

// Simulates one noise-free step under `model`; the Rng is consumed only by
// the (disabled) jitter, so the result is a pure function of its inputs.
double DeterministicStepSeconds(const plan::ParallelPlan& p,
                                const topo::ClusterSpec& cluster,
                                const model::CostModel& cost,
                                const straggler::Situation& situation,
                                net::NetModel model) {
  sim::SimOptions opts;
  opts.timing_noise_stddev = 0.0;
  opts.net_model = model;
  Rng rng(0);
  Result<sim::StepResult> step =
      sim::SimulateStep(cluster, cost, p, situation, opts, &rng);
  if (!step.ok()) return -1.0;  // Rendered as-is: a drift into failure diffs.
  return step->step_seconds;
}

}  // namespace

std::string PlanResultSnapshot(const PlanResult& result,
                               const topo::ClusterSpec& cluster,
                               const model::CostModel& cost,
                               const straggler::Situation& situation) {
  std::string out;
  out += StrFormat("chosen_tp = %d\n", result.chosen_tp);
  out += StrFormat("estimate.objective_seconds = %s\n",
                   JsonNumber(result.estimated_seconds).c_str());
  out += StrFormat("estimate.full_step_seconds = %s\n",
                   JsonNumber(result.estimated_full_seconds).c_str());
  const plan::StepEstimate est =
      plan::EstimateStep(result.plan, cost, situation);
  out += StrFormat("estimate.pipeline_model_seconds = %s\n",
                   JsonNumber(est.step_seconds).c_str());
  for (net::NetModel m : {net::NetModel::kAnalytic, net::NetModel::kFlow}) {
    out += StrFormat(
        "gradsync.%s_seconds = %s\n", net::NetModelName(m),
        JsonNumber(plan::EstimateGradSyncSeconds(result.plan, cost, cluster, m))
            .c_str());
  }
  for (net::NetModel m : {net::NetModel::kAnalytic, net::NetModel::kFlow}) {
    out += StrFormat(
        "sim.%s_step_seconds = %s\n", net::NetModelName(m),
        JsonNumber(DeterministicStepSeconds(result.plan, cluster, cost,
                                            situation, m))
            .c_str());
  }
  out += StrFormat("plan.signature = %s\n", result.plan.Signature().c_str());
  out += "plan:\n";
  // Indent the Table-4-style rendering so a golden file reads as blocks.
  const std::string rendered = result.plan.ToString();
  size_t pos = 0;
  while (pos < rendered.size()) {
    size_t eol = rendered.find('\n', pos);
    if (eol == std::string::npos) eol = rendered.size();
    out += "  " + rendered.substr(pos, eol - pos) + "\n";
    pos = eol + 1;
  }
  return out;
}

}  // namespace core
}  // namespace malleus
