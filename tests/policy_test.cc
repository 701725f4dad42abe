// Tests for malleus::policy: event-trace generation determinism, the
// five-action cost model, the adaptive selector's optimality bound, the
// dynamic run loop's goodput accounting and its re-plan overflow rule,
// run-log byte-reproducibility, the re-plan fallback after node loss, the
// restart-after-failure pricing the policy engine relies on, and the
// Select-once-per-event contract.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/planner.h"
#include "core/run_log.h"
#include "obs/metrics.h"
#include "policy/events.h"
#include "policy/policy.h"
#include "policy/runner.h"
#include "scenario/scenario.h"
#include "sim/restart.h"
#include "testkit/run_summary.h"

namespace malleus {
namespace policy {
namespace {

class PolicyTest : public ::testing::Test {
 protected:
  scenario::DynamicSpec MixedSpec() const {
    scenario::DynamicSpec dynamic;
    dynamic.enabled = true;
    dynamic.iterations = 300;
    dynamic.straggle_rate = 0.002;
    dynamic.fail_rate = 0.0004;
    dynamic.node_fail_rate = 0.0002;
    dynamic.recover_iters = 40;
    dynamic.flap_prob = 0.5;
    dynamic.flap_period = 15;
    dynamic.diurnal_amplitude = 0.8;
    dynamic.diurnal_period = 100;
    dynamic.max_level = 3;
    return dynamic;
  }

  DynamicRunOptions RunOptions(core::RunLog* log = nullptr) const {
    DynamicRunOptions options;
    options.run_log = log;
    return options;
  }

  Result<DynamicRunResult> RunTrace(const EventTrace& trace,
                                    const std::string& selector_name,
                                    const DynamicRunOptions& options) const {
    Result<std::unique_ptr<PolicySelector>> selector =
        MakeSelector(selector_name);
    MALLEUS_CHECK_OK(selector.status());
    return RunDynamic(cluster_, cost_,
                      straggler::Situation(cluster_.num_gpus()), trace, 64,
                      **selector, options);
  }

  topo::ClusterSpec cluster_ = topo::ClusterSpec::A800Cluster(4);
  model::CostModel cost_{model::ModelSpec::Llama32B(), topo::GpuSpec()};
};

bool TracesEqual(const EventTrace& a, const EventTrace& b) {
  if (a.iterations != b.iterations) return false;
  if (a.events.size() != b.events.size()) return false;
  for (size_t i = 0; i < a.events.size(); ++i) {
    const ClusterEvent& x = a.events[i];
    const ClusterEvent& y = b.events[i];
    if (x.iteration != y.iteration || x.kind != y.kind || x.gpu != y.gpu ||
        x.node != y.node || x.level != y.level || x.rate != y.rate ||
        x.flap != y.flap) {
      return false;
    }
  }
  return true;
}

TEST_F(PolicyTest, TraceGenerationIsBitDeterministic) {
  const scenario::DynamicSpec dynamic = MixedSpec();
  const EventTrace a = GenerateEventTrace(cluster_, dynamic, 20260809);
  const EventTrace b = GenerateEventTrace(cluster_, dynamic, 20260809);
  EXPECT_TRUE(TracesEqual(a, b));
  EXPECT_GT(a.events.size(), 0u) << "rates too low to exercise anything";
  // A different seed must (for these rates) produce a different stream.
  const EventTrace c = GenerateEventTrace(cluster_, dynamic, 1);
  EXPECT_FALSE(TracesEqual(a, c));
  // Events arrive in iteration order and inside the horizon.
  int64_t last = 0;
  for (const ClusterEvent& event : a.events) {
    EXPECT_GE(event.iteration, last);
    EXPECT_LT(event.iteration, dynamic.iterations);
    last = event.iteration;
  }
}

TEST_F(PolicyTest, TraceFeasibilityGuardKeepsHalfTheClusterAlive) {
  scenario::DynamicSpec dynamic = MixedSpec();
  dynamic.straggle_rate = 0.0;
  dynamic.fail_rate = 0.05;       // Aggressive fail-stop pressure.
  dynamic.node_fail_rate = 0.01;  // Plus correlated node failures.
  dynamic.recover_iters = 0;      // Never heals.
  const EventTrace trace = GenerateEventTrace(cluster_, dynamic, 7);
  straggler::Situation situation(cluster_.num_gpus());
  for (const ClusterEvent& event : trace.events) {
    ApplyEvent(cluster_, event, &situation);
  }
  int alive = 0;
  for (topo::GpuId g = 0; g < cluster_.num_gpus(); ++g) {
    if (!situation.IsFailed(g)) ++alive;
  }
  EXPECT_GE(alive, cluster_.num_gpus() / 2);
}

TEST_F(PolicyTest, RunIsBitDeterministicAtAnyThreadCount) {
  const EventTrace trace =
      GenerateEventTrace(cluster_, MixedSpec(), 20260809);
  core::RunLog log1, log4;
  DynamicRunOptions opt1 = RunOptions(&log1);
  opt1.planner.num_threads = 1;
  DynamicRunOptions opt4 = RunOptions(&log4);
  opt4.planner.num_threads = 4;
  Result<DynamicRunResult> r1 = RunTrace(trace, "adaptive", opt1);
  Result<DynamicRunResult> r4 = RunTrace(trace, "adaptive", opt4);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r4.ok()) << r4.status().ToString();
  EXPECT_EQ(r1->wall_seconds, r4->wall_seconds);
  EXPECT_EQ(r1->goodput, r4->goodput);
  EXPECT_EQ(log1.ToJsonl(), log4.ToJsonl());
  EXPECT_EQ(log1.ToCsv(), log4.ToCsv());
}

TEST_F(PolicyTest, AdaptiveNeverExceedsTolerateBound) {
  const EventTrace trace =
      GenerateEventTrace(cluster_, MixedSpec(), 20260809);
  Result<DynamicRunResult> result =
      RunTrace(trace, "adaptive", RunOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->events_applied, 0);
  for (const EventAudit& audit : result->audits) {
    if (!audit.tolerate_feasible) continue;
    // Tolerate's realized cost over the horizon IS its predicted cost
    // (the simulator is noise-free), so the argmin property must hold
    // exactly: the chosen action never prices above riding it out.
    EXPECT_LE(audit.predicted_cost_chosen, audit.predicted_cost_tolerate)
        << "event @" << audit.iteration << " chose "
        << PolicyActionName(audit.action);
  }
}

TEST_F(PolicyTest, EngineStateStaysValidAfterEveryEvent) {
  const EventTrace trace =
      GenerateEventTrace(cluster_, MixedSpec(), 20260809);
  for (const std::string& name : SelectorNames()) {
    Result<DynamicRunResult> result = RunTrace(trace, name, RunOptions());
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    for (const EventAudit& audit : result->audits) {
      EXPECT_TRUE(audit.plan_valid)
          << name << " event @" << audit.iteration;
      EXPECT_FALSE(audit.uses_failed_gpu)
          << name << " event @" << audit.iteration;
    }
  }
}

TEST_F(PolicyTest, GoodputNonNegativeAndMonotoneInHealedEvents) {
  // Two hand-built traces, identical except the second heals the
  // straggler halfway: healing must never lower cumulative goodput.
  EventTrace degraded;
  degraded.iterations = 120;
  ClusterEvent straggle;
  straggle.iteration = 10;
  straggle.kind = EventKind::kStraggle;
  straggle.gpu = 9;
  straggle.level = 3;
  straggle.rate = straggler::RateForLevel(3);
  degraded.events.push_back(straggle);

  EventTrace healed = degraded;
  ClusterEvent recover;
  recover.iteration = 60;
  recover.kind = EventKind::kRecover;
  recover.gpu = 9;
  healed.events.push_back(recover);

  for (const std::string& name : {std::string("tolerate"),
                                  std::string("adaptive")}) {
    Result<DynamicRunResult> slow = RunTrace(degraded, name, RunOptions());
    Result<DynamicRunResult> fast = RunTrace(healed, name, RunOptions());
    ASSERT_TRUE(slow.ok()) << slow.status().ToString();
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    EXPECT_GE(slow->goodput, 0.0);
    EXPECT_GE(fast->goodput, 0.0);
    EXPECT_LE(fast->goodput, 1.0 + 1e-9);
    EXPECT_GE(fast->goodput, slow->goodput) << name;
  }
}

TEST_F(PolicyTest, ReplayingTheSameTraceYieldsByteIdenticalRunLogs) {
  const EventTrace trace =
      GenerateEventTrace(cluster_, MixedSpec(), 20260809);
  std::string first_jsonl, first_csv;
  for (int run = 0; run < 2; ++run) {
    core::RunLog log;
    Result<DynamicRunResult> result =
        RunTrace(trace, "adaptive", RunOptions(&log));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (run == 0) {
      first_jsonl = log.ToJsonl();
      first_csv = log.ToCsv();
      EXPECT_FALSE(first_jsonl.empty());
    } else {
      EXPECT_EQ(log.ToJsonl(), first_jsonl);
      EXPECT_EQ(log.ToCsv(), first_csv);
    }
  }
}

TEST_F(PolicyTest, GoodputConservationAcrossPolicySwitches) {
  const EventTrace trace =
      GenerateEventTrace(cluster_, MixedSpec(), 20260809);
  for (const std::string& name : SelectorNames()) {
    Result<DynamicRunResult> result = RunTrace(trace, name, RunOptions());
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    // Wall time decomposes exactly (same additions, no rounding slack).
    EXPECT_EQ(result->wall_seconds,
              result->training_seconds + result->transition_seconds)
        << name;
    EXPECT_GE(result->goodput, 0.0) << name;
    EXPECT_LE(result->iterations_run, result->trace_iterations) << name;
    if (result->stop_reason.empty()) {
      EXPECT_EQ(result->iterations_run, result->trace_iterations) << name;
    }
  }
}

// Wraps a selector and records what each Select call saw.
class CountingSelector : public PolicySelector {
 public:
  explicit CountingSelector(std::unique_ptr<PolicySelector> inner)
      : inner_(std::move(inner)) {}
  const std::string& name() const override { return inner_->name(); }
  PolicyAction Select(const ActionEstimates& estimates,
                      const ClusterEvent& event,
                      double horizon_iterations) const override {
    calls_.push_back({estimates, event, horizon_iterations});
    return inner_->Select(estimates, event, horizon_iterations);
  }

  struct Call {
    ActionEstimates estimates;
    ClusterEvent event;
    double horizon_iterations = 0.0;
  };
  const std::vector<Call>& calls() const { return calls_; }

 private:
  std::unique_ptr<PolicySelector> inner_;
  mutable std::vector<Call> calls_;
};

// The Select contract per-event timing depends on: one call per applied
// event, in event order, after all five actions (tolerate included) are
// priced.
TEST_F(PolicyTest, SelectRunsOncePerAppliedEventAfterPricing) {
  const EventTrace trace =
      GenerateEventTrace(cluster_, MixedSpec(), 20260809);
  Result<std::unique_ptr<PolicySelector>> adaptive = MakeSelector("adaptive");
  ASSERT_TRUE(adaptive.ok()) << adaptive.status();
  const CountingSelector selector(std::move(*adaptive));
  Result<DynamicRunResult> result =
      RunDynamic(cluster_, cost_, straggler::Situation(cluster_.num_gpus()),
                 trace, 64, selector, RunOptions());
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_GT(result->events_applied, 0);
  ASSERT_EQ(selector.calls().size(),
            static_cast<size_t>(result->events_applied));
  ASSERT_EQ(result->audits.size(), selector.calls().size());
  for (size_t i = 0; i < selector.calls().size(); ++i) {
    const CountingSelector::Call& call = selector.calls()[i];
    const EventAudit& audit = result->audits[i];
    EXPECT_EQ(call.event.iteration, audit.iteration) << i;
    EXPECT_EQ(call.event.kind, audit.kind) << i;
    // Tolerate was priced before the call: what Select saw is what the
    // audit recorded, and only a fail-stop can make it infeasible.
    const ActionEstimate& tolerate = call.estimates[0];
    EXPECT_EQ(tolerate.feasible, audit.tolerate_feasible) << i;
    if (call.event.kind != EventKind::kFail &&
        call.event.kind != EventKind::kNodeFail) {
      EXPECT_TRUE(tolerate.feasible) << call.event.ToString();
    }
    if (tolerate.feasible) {
      EXPECT_GT(tolerate.step_seconds, 0.0) << call.event.ToString();
      EXPECT_EQ(tolerate.PredictedCost(call.horizon_iterations),
                audit.predicted_cost_tolerate)
          << call.event.ToString();
    }
  }
}

TEST_F(PolicyTest, SelectorRegistry) {
  for (const std::string& name : SelectorNames()) {
    Result<std::unique_ptr<PolicySelector>> selector = MakeSelector(name);
    ASSERT_TRUE(selector.ok()) << name;
    EXPECT_EQ((*selector)->name(), name);
  }
  EXPECT_FALSE(MakeSelector("coinflip").ok());
}

TEST_F(PolicyTest, FixedSelectorsFallBackWhenInfeasible) {
  ActionEstimates estimates{};
  estimates[static_cast<int>(PolicyAction::kTolerate)] = {true, 0.0, 2.0};
  estimates[static_cast<int>(PolicyAction::kReplan)] = {true, 10.0, 1.0};
  ClusterEvent event;
  // "promote" is infeasible here: it must fall back to the cheapest
  // feasible action, deterministically.
  Result<std::unique_ptr<PolicySelector>> promote = MakeSelector("promote");
  ASSERT_TRUE(promote.ok());
  const PolicyAction fallback =
      (*promote)->Select(estimates, event, /*horizon_iterations=*/50.0);
  EXPECT_TRUE(estimates[static_cast<int>(fallback)].feasible);
  // With horizon 50: replan costs 10 + 50 = 60, tolerate 100 -> replan.
  EXPECT_EQ(fallback, PolicyAction::kReplan);
  // A fixed selector whose action is feasible always takes it.
  Result<std::unique_ptr<PolicySelector>> tolerate =
      MakeSelector("tolerate");
  ASSERT_TRUE(tolerate.ok());
  EXPECT_EQ((*tolerate)->Select(estimates, event, 50.0),
            PolicyAction::kTolerate);
}

TEST_F(PolicyTest, NodeLossFallsBackToTheUnpinnedPlan) {
  // 8x8 starts at DP 8. Losing three whole nodes leaves too few groups for
  // 8 pipelines: the re-plan keeps no pinned degree and adopts the plan of
  // the planner's own DP search (DP 4 here), not a degree walked down one
  // pinned solve at a time (DP 6).
  const topo::ClusterSpec cluster = topo::ClusterSpec::A800Cluster(8);
  EventTrace trace;
  trace.iterations = 40;
  for (topo::NodeId node : {4, 5, 6}) {
    ClusterEvent fail;
    fail.iteration = 20;
    fail.kind = EventKind::kNodeFail;
    fail.node = node;
    trace.events.push_back(fail);
  }
  straggler::Situation after(cluster.num_gpus());
  for (const ClusterEvent& event : trace.events) {
    ApplyEvent(cluster, event, &after);
  }
  // The runner's island sizes on 8 nodes: delta re-plans through 2-node
  // islands, full re-plans through half-cluster ones.
  for (const auto& [name, island_nodes] :
       {std::pair<std::string, int>{"delta", 2}, {"replan", 4}}) {
    obs::MetricsRegistry metrics;
    obs::MetricsScope scope(&metrics);
    Result<std::unique_ptr<PolicySelector>> selector = MakeSelector(name);
    MALLEUS_CHECK_OK(selector.status());
    Result<DynamicRunResult> result =
        RunDynamic(cluster, cost_, straggler::Situation(cluster.num_gpus()),
                   trace, 64, **selector, RunOptions());
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    ASSERT_TRUE(result->stop_reason.empty()) << name;
    ASSERT_EQ(result->audits.size(), 3u) << name;
    EXPECT_GT(metrics.GetCounter("planner.replan_fallbacks")->Value(), 0.0)
        << name;

    core::PlannerOptions unpinned;
    unpinned.island_nodes = island_nodes;
    Result<core::PlanResult> expected =
        core::Planner(cluster, cost_).Plan(after, 64, unpinned);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    EXPECT_EQ(result->audits.back().plan_signature,
              expected->plan.Signature())
        << name;
  }
}

// Re-plans are charged by the engine's rule (S5.3): the planner overlaps
// the step the current plan still runs, so a straggle answered by a
// re-plan stalls nothing, while a fail-stop on an active GPU stops that
// plan and stalls training for the whole latency. Either way the run
// charges exactly what it priced.
TEST_F(PolicyTest, ReplanOverflowFollowsTheEngineRule) {
  ClusterEvent straggle;
  straggle.iteration = 10;
  straggle.kind = EventKind::kStraggle;
  straggle.gpu = 3;
  straggle.level = 2;
  straggle.rate = straggler::RateForLevel(2);
  ClusterEvent fail;
  fail.iteration = 20;
  fail.kind = EventKind::kFail;
  fail.gpu = 12;
  for (const std::vector<ClusterEvent>& events :
       {std::vector<ClusterEvent>{straggle}, std::vector<ClusterEvent>{fail},
        std::vector<ClusterEvent>{straggle, fail}}) {
    EventTrace trace;
    trace.iterations = 30;
    trace.events = events;
    core::RunLog log;
    Result<DynamicRunResult> result =
        RunTrace(trace, "replan", RunOptions(&log));
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_TRUE(result->stop_reason.empty()) << result->stop_reason;
    ASSERT_EQ(result->audits.size(), events.size());
    double priced = 0.0;
    for (const EventAudit& audit : result->audits) {
      EXPECT_EQ(audit.action, PolicyAction::kReplan);
      priced += audit.transition_seconds;
    }
    EXPECT_NEAR(result->transition_seconds, priced, 1e-9);
    if (events.size() != 1) continue;

    std::vector<double> planning;
    for (const core::RunEvent& event : log.events()) {
      if (event.type == core::RunEventType::kReplan) {
        planning.push_back(event.seconds);
      }
    }
    ASSERT_EQ(planning.size(), 1u);
    EXPECT_GT(planning[0], 0.0);
    const double overflow = testkit::Summarize(log).planning_overflow_seconds;
    if (events[0].kind == EventKind::kStraggle) {
      // The current plan's straggling step is at least its healthy one.
      ASSERT_TRUE(result->audits[0].tolerate_feasible);
      ASSERT_GT(result->healthy_step_seconds, planning[0]);
      EXPECT_EQ(overflow, 0.0);
    } else {
      ASSERT_FALSE(result->audits[0].tolerate_feasible);
      EXPECT_EQ(overflow, planning[0]);
    }
  }
}

TEST_F(PolicyTest, RestartPricingUsesFailurePathAfterFailures) {
  // The policy engine's restart action must price fail-stop events with
  // RestartAfterFailureSeconds (load + init), not the planned-restart
  // save + init + load — see RestartTest.RestartAfterFailureDoesNot
  // DoubleCountLoad for the accounting identity.
  const double bytes = cost_.CheckpointBytes();
  EXPECT_LT(sim::RestartAfterFailureSeconds(bytes, 4),
            sim::RestartSeconds(bytes, 4));
  EXPECT_NEAR(sim::RestartSeconds(bytes, 4),
              sim::RestartAfterFailureSeconds(bytes, 4) +
                  bytes / (sim::kPerNodeIoGbps * 1e9 * 4),
              1e-9);
}

}  // namespace
}  // namespace policy
}  // namespace malleus
