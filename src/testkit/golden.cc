#include "testkit/golden.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "core/planner.h"
#include "core/snapshot.h"
#include "model/cost_model.h"
#include "policy/events.h"
#include "policy/policy.h"
#include "policy/runner.h"

namespace malleus {
namespace testkit {

Result<std::string> RenderGoldenSnapshot(
    const scenario::ScenarioSpec& spec) {
  Result<scenario::ResolvedScenario> resolved =
      scenario::ResolveScenario(spec);
  if (!resolved.ok()) return resolved.status();
  const topo::ClusterSpec& cluster = resolved->cluster;
  const model::CostModel cost(resolved->spec, cluster.gpu());

  // The situations the scenario implies, labeled and deduplicated in
  // first-appearance order (re-planning an already-seen phase would only
  // duplicate bytes). Shared with the what-if engine so both enumerate
  // identically.
  Result<std::vector<scenario::LabeledSituation>> situations =
      scenario::ImpliedSituations(*resolved);
  if (!situations.ok()) return situations.status();

  std::string out;
  out += "# malleus golden snapshot (regenerate: malleus_golden "
         "--update-golden)\n";
  out += "== scenario ==\n";
  out += scenario::SerializeScenario(spec);
  const core::Planner planner(cluster, cost);
  core::PlannerOptions options;
  options.num_threads = 1;
  for (const auto& [label, situation] : *situations) {
    out += StrFormat("== situation %s ==\n", label.c_str());
    const Result<core::PlanResult> result =
        planner.Plan(situation, spec.batch, options);
    if (!result.ok()) {
      out += StrFormat("plan failed: %s\n",
                       result.status().ToString().c_str());
      continue;
    }
    out += core::PlanResultSnapshot(*result, cluster, cost, situation);
  }

  // Dynamic scenarios additionally pin the generated event trace and one
  // full policy run per registered selector, so a drift in the trace
  // generator, the action pricing, or any selector's choices shows up as
  // a byte diff. Wall-clock never enters: every number below is derived
  // from the deterministic noise-free simulator and fixed cost constants.
  if (spec.dynamic.enabled) {
    const policy::EventTrace trace = policy::GenerateEventTrace(
        cluster, spec.dynamic, resolved->event_seed);
    out += "== dynamic trace ==\n";
    out += StrFormat("iterations %lld, events %zu\n",
                     static_cast<long long>(trace.iterations),
                     trace.events.size());
    constexpr size_t kMaxEventLines = 200;
    for (size_t i = 0; i < trace.events.size() && i < kMaxEventLines; ++i) {
      out += trace.events[i].ToString() + "\n";
    }
    if (trace.events.size() > kMaxEventLines) {
      out += StrFormat("... (%zu more events)\n",
                       trace.events.size() - kMaxEventLines);
    }

    for (const std::string& name : policy::SelectorNames()) {
      out += StrFormat("== dynamic policy %s ==\n", name.c_str());
      Result<std::unique_ptr<policy::PolicySelector>> selector =
          policy::MakeSelector(name);
      if (!selector.ok()) {
        out += StrFormat("selector failed: %s\n",
                         selector.status().ToString().c_str());
        continue;
      }
      policy::DynamicRunOptions dyn_options;
      dyn_options.planner.num_threads = 1;
      const Result<policy::DynamicRunResult> run = policy::RunDynamic(
          cluster, cost, resolved->overlay, trace, spec.batch, **selector,
          dyn_options);
      if (!run.ok()) {
        out += StrFormat("dynamic run failed: %s\n",
                         run.status().ToString().c_str());
        continue;
      }
      out += StrFormat("iterations run     : %lld of %lld\n",
                       static_cast<long long>(run->iterations_run),
                       static_cast<long long>(run->trace_iterations));
      out += StrFormat("events applied     : %d\n", run->events_applied);
      std::string actions;
      for (int a = 0; a < policy::kNumPolicyActions; ++a) {
        if (a > 0) actions += ", ";
        actions += StrFormat(
            "%s %d",
            policy::PolicyActionName(static_cast<policy::PolicyAction>(a)),
            run->action_counts[a]);
      }
      out += StrFormat("actions            : %s\n", actions.c_str());
      out += StrFormat("training seconds   : %.17g\n", run->training_seconds);
      out += StrFormat("transition seconds : %.17g\n",
                       run->transition_seconds);
      out += StrFormat("wall seconds       : %.17g\n", run->wall_seconds);
      out += StrFormat("goodput            : %.17g\n", run->goodput);
      if (!run->stop_reason.empty()) {
        out += StrFormat("stopped early      : %s\n",
                         run->stop_reason.c_str());
      }
    }
  }
  return out;
}

}  // namespace testkit
}  // namespace malleus
