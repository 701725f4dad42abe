// Online fault-tolerance policy bench: four canned 64-GPU dynamic
// scenarios (flapping stragglers, correlated node failures, diurnal
// contention, and a mixed regime), each driven through the policy
// engine's six selectors (adaptive + five fixed policies) via
// policy::RunDynamic and, segment-wise over the same event trace, through
// the Megatron-LM (with restarts), DeepSpeed (with restarts) and
// Oobleck-style baselines.
//
// Two verdicts gate the exit code:
//   - determinism: the adaptive run's obs run log is byte-identical at
//     planner threads 1 and 4 on every scenario;
//   - adaptivity: adaptive cumulative goodput is >= the best fixed policy
//     on at least 3 of the 4 scenarios.
//
// Emits BENCH_policy.json (see bench::WriteBenchJson) with per-scenario
// per-selector goodput/wall/action counts, the baseline goodputs, and
// both verdicts.

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/deepspeed.h"
#include "baselines/megatron.h"
#include "baselines/oobleck.h"
#include "bench_util.h"
#include "core/run_log.h"
#include "policy/events.h"
#include "policy/policy.h"
#include "policy/runner.h"
#include "scenario/scenario.h"
#include "straggler/situation.h"

namespace malleus {
namespace bench {
namespace {

struct DynamicCase {
  std::string label;
  scenario::DynamicSpec dynamic;
};

// The four canned regimes of the policy evaluation, all on the 64-GPU
// cluster (8 A800 nodes) training the 32B model. Rates are per GPU per
// iteration; every spec carries its own seed so the traces are stable
// regardless of harness changes.
std::vector<DynamicCase> CannedCases() {
  std::vector<DynamicCase> cases;
  {
    DynamicCase c;
    c.label = "flapping";
    c.dynamic.enabled = true;
    c.dynamic.iterations = 400;
    c.dynamic.straggle_rate = 0.0005;
    c.dynamic.recover_iters = 25;
    c.dynamic.flap_prob = 0.9;
    c.dynamic.flap_period = 10;
    c.dynamic.max_level = 3;
    c.dynamic.seed = 101;
    cases.push_back(c);
  }
  {
    DynamicCase c;
    c.label = "correlated_failure";
    c.dynamic.enabled = true;
    c.dynamic.iterations = 400;
    c.dynamic.straggle_rate = 0.0003;
    c.dynamic.fail_rate = 0.0001;
    c.dynamic.node_fail_rate = 0.0006;
    c.dynamic.recover_iters = 80;
    c.dynamic.max_level = 2;
    c.dynamic.seed = 202;
    cases.push_back(c);
  }
  {
    DynamicCase c;
    c.label = "diurnal";
    c.dynamic.enabled = true;
    c.dynamic.iterations = 400;
    c.dynamic.straggle_rate = 0.0015;
    c.dynamic.recover_iters = 40;
    c.dynamic.diurnal_amplitude = 1.0;
    c.dynamic.diurnal_period = 100;
    c.dynamic.max_level = 4;
    c.dynamic.seed = 303;
    cases.push_back(c);
  }
  {
    DynamicCase c;
    c.label = "mixed";
    c.dynamic.enabled = true;
    c.dynamic.iterations = 400;
    c.dynamic.straggle_rate = 0.0004;
    c.dynamic.fail_rate = 0.0001;
    c.dynamic.node_fail_rate = 0.00015;
    c.dynamic.recover_iters = 40;
    c.dynamic.flap_prob = 0.25;
    c.dynamic.flap_period = 20;
    c.dynamic.diurnal_amplitude = 0.5;
    c.dynamic.diurnal_period = 100;
    c.dynamic.max_level = 3;
    c.dynamic.seed = 404;
    cases.push_back(c);
  }
  return cases;
}

struct SelectorOutcome {
  std::string name;
  double goodput = 0.0;
  double wall_seconds = 0.0;
  double transition_seconds = 0.0;
  int events_applied = 0;
  int action_counts[policy::kNumPolicyActions] = {0, 0, 0, 0, 0};
  bool ok = false;
  std::string error;
};

struct BaselineOutcome {
  std::string name;
  double goodput = 0.0;
  double wall_seconds = 0.0;
  bool stalled = false;  ///< Hit an infeasible situation and stopped.
};

// Drives one TrainingFramework segment-wise through the event trace: the
// framework steps at its current configuration until the next event, then
// sees the new situation (and pays any restart/migration it reports).
// Goodput uses the framework's own healthy step time as the numeraire, so
// template overheads (Oobleck) count against it exactly as in the paper.
BaselineOutcome DriveBaseline(baselines::TrainingFramework& framework,
                              const topo::ClusterSpec& cluster,
                              const policy::EventTrace& trace,
                              int64_t global_batch) {
  BaselineOutcome out;
  out.name = framework.name();
  straggler::Situation situation(cluster.num_gpus());
  if (!framework.Initialize(global_batch).ok()) {
    out.stalled = true;
    return out;
  }
  const Result<double> healthy = framework.StepSeconds(situation);
  if (!healthy.ok() || !std::isfinite(*healthy) || *healthy <= 0.0) {
    out.stalled = true;
    return out;
  }
  double wall = 0.0;
  int64_t at = 0;
  auto advance = [&](int64_t until) -> bool {
    if (until <= at) return true;
    const Result<double> step = framework.StepSeconds(situation);
    if (!step.ok() || !std::isfinite(*step)) return false;
    wall += static_cast<double>(until - at) * *step;
    at = until;
    return true;
  };
  for (const policy::ClusterEvent& event : trace.events) {
    if (!advance(event.iteration)) {
      out.stalled = true;
      return out;
    }
    policy::ApplyEvent(cluster, event, &situation);
    const Result<baselines::TransitionReport> transition =
        framework.OnSituationChange(situation);
    if (!transition.ok()) {
      out.stalled = true;
      return out;
    }
    wall += transition->restart_seconds + transition->migration_seconds;
  }
  if (!advance(trace.iterations)) {
    out.stalled = true;
    return out;
  }
  out.wall_seconds = wall;
  out.goodput =
      wall > 0.0 ? static_cast<double>(trace.iterations) * *healthy / wall
                 : 0.0;
  return out;
}

SelectorOutcome RunSelector(const std::string& name,
                            const topo::ClusterSpec& cluster,
                            const model::CostModel& cost,
                            const policy::EventTrace& trace,
                            int64_t global_batch, int planner_threads,
                            std::string* run_log_jsonl) {
  SelectorOutcome out;
  out.name = name;
  Result<std::unique_ptr<policy::PolicySelector>> selector =
      policy::MakeSelector(name);
  if (!selector.ok()) {
    out.error = selector.status().ToString();
    return out;
  }
  straggler::Situation healthy(cluster.num_gpus());
  core::RunLog run_log;
  policy::DynamicRunOptions options;
  options.planner.num_threads = planner_threads;
  if (run_log_jsonl != nullptr) options.run_log = &run_log;
  Result<policy::DynamicRunResult> run = policy::RunDynamic(
      cluster, cost, healthy, trace, global_batch, **selector, options);
  if (!run.ok()) {
    out.error = run.status().ToString();
    return out;
  }
  if (!run->stop_reason.empty()) {
    out.error = "stopped early: " + run->stop_reason;
    return out;
  }
  out.ok = true;
  out.goodput = run->goodput;
  out.wall_seconds = run->wall_seconds;
  out.transition_seconds = run->transition_seconds;
  out.events_applied = run->events_applied;
  for (int a = 0; a < policy::kNumPolicyActions; ++a) {
    out.action_counts[a] = run->action_counts[a];
  }
  if (run_log_jsonl != nullptr) *run_log_jsonl = run_log.ToJsonl();
  return out;
}

void WriteActionCounts(const int counts[policy::kNumPolicyActions],
                       JsonWriter* json) {
  json->BeginObject();
  for (int a = 0; a < policy::kNumPolicyActions; ++a) {
    json->Key(policy::PolicyActionName(static_cast<policy::PolicyAction>(a)))
        .Int(counts[a]);
  }
  json->EndObject();
}

int Run() {
  const topo::ClusterSpec cluster = topo::ClusterSpec::A800Cluster(8);
  const model::CostModel cost(model::ModelSpec::Llama32B(),
                              topo::GpuSpec());
  const int64_t global_batch = 64;
  const std::vector<DynamicCase> cases = CannedCases();
  const auto selector_names = policy::SelectorNames();

  int adaptive_wins = 0;
  bool deterministic = true;
  // Each case's summary precedes its per-selector rows, and the run's
  // precedes every case, so the nested arrays render first and are
  // spliced in as finished values.
  JsonWriter scenarios_json;
  scenarios_json.BeginArray();

  for (const DynamicCase& c : cases) {
    const uint64_t seed = c.dynamic.seed != 0 ? c.dynamic.seed : 1;
    const policy::EventTrace trace =
        policy::GenerateEventTrace(cluster, c.dynamic, seed);
    std::printf("\n== %s: %zu event(s) over %lld iterations ==\n",
                c.label.c_str(), trace.events.size(),
                static_cast<long long>(trace.iterations));

    double adaptive_goodput = 0.0;
    double best_fixed_goodput = 0.0;
    std::string best_fixed;
    JsonWriter selectors_json;
    selectors_json.BeginArray();
    for (const std::string& name : selector_names) {
      std::string log1;
      const SelectorOutcome outcome = RunSelector(
          name, cluster, cost, trace, global_batch, /*planner_threads=*/1,
          name == "adaptive" ? &log1 : nullptr);
      if (!outcome.ok) {
        std::printf("  %-10s FAILED: %s\n", name.c_str(),
                    outcome.error.c_str());
      } else {
        std::printf("  %-10s goodput %.4f  wall %10.1f s  transitions "
                    "%8.1f s\n",
                    name.c_str(), outcome.goodput, outcome.wall_seconds,
                    outcome.transition_seconds);
      }
      if (name == "adaptive") {
        adaptive_goodput = outcome.goodput;
        // Determinism gate: the same trace at planner threads 4 must
        // produce a byte-identical obs run log.
        std::string log4;
        const SelectorOutcome redo = RunSelector(
            name, cluster, cost, trace, global_batch,
            /*planner_threads=*/4, &log4);
        if (!redo.ok || log4 != log1) {
          deterministic = false;
          std::printf("  %-10s NOT thread-deterministic\n", name.c_str());
        }
      } else if (outcome.ok && outcome.goodput > best_fixed_goodput) {
        best_fixed_goodput = outcome.goodput;
        best_fixed = name;
      }
      JsonWriter& row = selectors_json.BeginObject();
      row.Key("name").String(name).Key("ok").Bool(outcome.ok);
      row.Key("goodput").Fixed(outcome.goodput, 6);
      row.Key("wall_seconds").Fixed(outcome.wall_seconds, 3);
      row.Key("transition_seconds").Fixed(outcome.transition_seconds, 3);
      row.Key("events").Int(outcome.events_applied);
      WriteActionCounts(outcome.action_counts, &row.Key("actions"));
      row.EndObject();
    }
    selectors_json.EndArray();

    // The competitor frameworks over the same trace, segment-wise.
    JsonWriter baselines_json;
    baselines_json.BeginArray();
    {
      std::vector<std::unique_ptr<baselines::TrainingFramework>> frameworks;
      {
        baselines::MegatronOptions o;
        o.with_restart = true;
        frameworks.push_back(std::make_unique<baselines::MegatronBaseline>(
            cluster, cost, o));
      }
      {
        baselines::DeepSpeedOptions o;
        o.with_restart = true;
        frameworks.push_back(std::make_unique<baselines::DeepSpeedBaseline>(
            cluster, cost, o));
      }
      frameworks.push_back(
          std::make_unique<baselines::OobleckBaseline>(cluster, cost));
      for (const auto& framework : frameworks) {
        const BaselineOutcome outcome =
            DriveBaseline(*framework, cluster, trace, global_batch);
        if (outcome.stalled) {
          std::printf("  %-22s stalled\n", outcome.name.c_str());
        } else {
          std::printf("  %-22s goodput %.4f  wall %10.1f s\n",
                      outcome.name.c_str(), outcome.goodput,
                      outcome.wall_seconds);
        }
        JsonWriter& row = baselines_json.BeginObject();
        row.Key("name").String(outcome.name);
        row.Key("stalled").Bool(outcome.stalled);
        row.Key("goodput").Fixed(outcome.goodput, 6);
        row.Key("wall_seconds").Fixed(outcome.wall_seconds, 3).EndObject();
      }
    }
    baselines_json.EndArray();

    const bool adaptive_won = adaptive_goodput + 1e-9 >= best_fixed_goodput;
    if (adaptive_won) ++adaptive_wins;
    std::printf("  adaptive %.4f vs best fixed (%s) %.4f -> %s\n",
                adaptive_goodput, best_fixed.c_str(), best_fixed_goodput,
                adaptive_won ? "win" : "loss");

    JsonWriter& row = scenarios_json.BeginObject();
    row.Key("label").String(c.label);
    row.Key("events").Uint(trace.events.size());
    row.Key("iterations").Int(trace.iterations);
    row.Key("adaptive_goodput").Fixed(adaptive_goodput, 6);
    row.Key("best_fixed").String(best_fixed);
    row.Key("best_fixed_goodput").Fixed(best_fixed_goodput, 6);
    row.Key("adaptive_win").Bool(adaptive_won);
    row.Key("selectors").Raw(selectors_json.str());
    row.Key("baselines").Raw(baselines_json.str()).EndObject();
  }
  scenarios_json.EndArray();

  const bool adaptive_ok = adaptive_wins >= 3;
  std::printf("\nadaptive wins %d of %zu scenario(s); thread-deterministic: "
              "%s\n",
              adaptive_wins, cases.size(), deterministic ? "yes" : "NO");

  JsonWriter json = BeginBenchJson();
  json.Key("bench").String("policy").Key("cluster").String("A800x8");
  json.Key("model").String("32b").Key("adaptive_wins").Int(adaptive_wins);
  json.Key("scenario_count").Uint(cases.size());
  json.Key("adaptive_ok").Bool(adaptive_ok);
  json.Key("deterministic").Bool(deterministic);
  json.Key("scenarios").Raw(scenarios_json.str());
  WriteBenchJson("policy", std::move(json));
  DumpBenchMetrics("policy");
  return adaptive_ok && deterministic ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace malleus

int main() { return malleus::bench::Run(); }
