// Tests for testkit/graph: graph structure, step-graph construction (1F1B
// order, ZeRO-1 collective tail), deadlock detection, and cross-validation
// of the graph executor against the analytic pipeline simulator.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "plan/estimator.h"
#include "plan/uniform.h"
#include "sim/pipeline_sim.h"
#include "testkit/graph/builder.h"
#include "testkit/graph/executor.h"

namespace malleus {
namespace testkit {
namespace graph {
namespace {

class GraphTest : public ::testing::Test {
 protected:
  plan::ParallelPlan Uniform(int dp, int tp, int pp, int64_t batch = 64) {
    plan::UniformConfig cfg;
    cfg.dp = dp;
    cfg.tp = tp;
    cfg.pp = pp;
    cfg.global_batch = batch;
    std::vector<topo::GpuId> all = cluster_.AllGpus();
    std::vector<topo::GpuId> gpus(all.begin(), all.begin() + dp * tp * pp);
    Result<plan::ParallelPlan> p =
        plan::BuildUniformPlan(cluster_, cost_, gpus, cfg);
    MALLEUS_CHECK_OK(p.status());
    return std::move(p).ValueOrDie();
  }

  std::vector<double> HealthyRates() {
    std::vector<double> r(cluster_.num_gpus(), 1.0);
    return r;
  }

  topo::ClusterSpec cluster_ = topo::ClusterSpec::A800Cluster(4);
  model::CostModel cost_{model::ModelSpec::Llama32B(), topo::GpuSpec()};
};

TEST_F(GraphTest, GraphAddAssignsDenseIdsAndQueues) {
  Graph g;
  Op a;
  a.kind = OpKind::kForward;
  a.devices = {0, 1};
  a.base_seconds = 1.0;
  const OpId ida = g.Add(a);
  Op b;
  b.kind = OpKind::kBackward;
  b.devices = {0};
  b.deps = {ida};
  b.base_seconds = 2.0;
  const OpId idb = g.Add(b);
  EXPECT_EQ(ida, 0);
  EXPECT_EQ(idb, 1);
  EXPECT_EQ(g.DeviceQueue(0), (std::vector<OpId>{0, 1}));
  EXPECT_EQ(g.DeviceQueue(1), (std::vector<OpId>{0}));
  EXPECT_TRUE(g.DeviceQueue(7).empty());
  EXPECT_TRUE(g.Validate().ok());
}

TEST_F(GraphTest, ValidateRejectsForwardDeps) {
  Graph g;
  Op a;
  a.devices = {0};
  a.deps = {0};  // Self/forward dependency.
  g.Add(a);
  EXPECT_FALSE(g.Validate().ok());
}

TEST_F(GraphTest, StepGraphHasExpectedOpCounts) {
  const plan::ParallelPlan p = Uniform(2, 4, 4);
  Result<Graph> g = BuildStepGraph(p, cost_);
  ASSERT_TRUE(g.ok()) << g.status();
  const GraphStats stats = g->Stats();
  // Compute: dp * pp * m * 2 (+ one optimizer per GPU).
  EXPECT_EQ(stats.num_compute, 2 * 4 * 32 * 2 + 32);
  // P2P: per pipeline, (pp - 1) hops for fwd and for bwd, per micro-batch.
  EXPECT_EQ(stats.num_p2p, 2 * 2 * 3 * 32);
  // Collectives: L layers x TPmax slices x (RS + AG).
  EXPECT_EQ(stats.num_collectives, 60 * 4 * 2);
}

TEST_F(GraphTest, StepGraphComputeTimeMatchesCostModel) {
  const plan::ParallelPlan p = Uniform(2, 4, 4);
  Result<Graph> g = BuildStepGraph(p, cost_);
  ASSERT_TRUE(g.ok());
  // Total healthy compute seconds = dp * m * L * rho_4 * tau.
  const double expected =
      2.0 * 32 * 60 * cost_.Rho(4) * cost_.TauSeconds(1);
  EXPECT_NEAR(g->Stats().total_flops_seconds, expected + 32 * 1e-3,
              expected * 0.05);
}

TEST_F(GraphTest, CollectiveTailOrderedByLayerSlice) {
  const plan::ParallelPlan p = Uniform(2, 4, 4);
  Result<Graph> g = BuildStepGraph(p, cost_);
  ASSERT_TRUE(g.ok());
  // Within each GPU's queue, reduce-scatters appear in ascending
  // (layer, slice) order - the deadlock-free canonical order of S5.1.
  for (topo::GpuId gpu : p.ActiveGpus()) {
    std::pair<int, int> prev = {-1, -1};
    for (OpId id : g->DeviceQueue(gpu)) {
      const Op& op = g->op(id);
      if (op.kind != OpKind::kReduceScatter) continue;
      const std::pair<int, int> cur = {op.layer, op.slice};
      EXPECT_LT(prev, cur);
      prev = cur;
    }
  }
}

TEST_F(GraphTest, ExecuteHealthyMatchesAnalyticSimulator) {
  const plan::ParallelPlan p = Uniform(2, 4, 4);
  const straggler::Situation healthy(cluster_.num_gpus());
  Result<double> via_graph = SimulateStepViaGraph(
      cluster_, cost_, p, healthy, /*timing_noise_stddev=*/0.0, nullptr);
  ASSERT_TRUE(via_graph.ok()) << via_graph.status();

  Rng rng(1);
  sim::SimOptions opts;
  opts.timing_noise_stddev = 0.0;
  Result<sim::StepResult> analytic =
      sim::SimulateStep(cluster_, cost_, p, healthy, opts, &rng);
  ASSERT_TRUE(analytic.ok());
  // The two models differ in grad-sync details; compute dominates, so the
  // step times must agree closely.
  EXPECT_NEAR(*via_graph, analytic->step_seconds,
              analytic->step_seconds * 0.1);
}

TEST_F(GraphTest, ExecuteStragglerMatchesAnalyticSimulator) {
  const plan::ParallelPlan p = Uniform(2, 4, 4);
  straggler::Situation s(cluster_.num_gpus());
  s.SetLevel(0, 2);
  Result<double> via_graph =
      SimulateStepViaGraph(cluster_, cost_, p, s, 0.0, nullptr);
  ASSERT_TRUE(via_graph.ok());
  Rng rng(2);
  sim::SimOptions opts;
  opts.timing_noise_stddev = 0.0;
  Result<sim::StepResult> analytic =
      sim::SimulateStep(cluster_, cost_, p, s, opts, &rng);
  ASSERT_TRUE(analytic.ok());
  EXPECT_NEAR(*via_graph, analytic->step_seconds,
              analytic->step_seconds * 0.1);
}

TEST_F(GraphTest, ExecuteNonUniformPlanWithMixedTpDegrees) {
  // A Figure 6(b)-style plan: TP 4 replica + TP 2+2 replica.
  plan::ParallelPlan p;
  p.micro_batch_size = 1;
  p.global_batch = 64;
  plan::Pipeline p0;
  p0.num_microbatches = 32;
  p0.stages = {{{{0, 1, 2, 3}}, 30}, {{{4, 5, 6, 7}}, 30}};
  plan::Pipeline p1;
  p1.num_microbatches = 32;
  p1.stages = {{{{8, 9}}, 15}, {{{10, 11}}, 15},
               {{{12, 13}}, 15}, {{{14, 15}}, 15}};
  p.pipelines = {p0, p1};

  Result<Graph> g = BuildStepGraph(p, cost_);
  ASSERT_TRUE(g.ok()) << g.status();
  Result<ExecutionResult> exec =
      ExecuteGraph(*g, cluster_, HealthyRates());
  ASSERT_TRUE(exec.ok()) << exec.status();
  EXPECT_GT(exec->makespan_seconds, 0.0);
  // A TP-2 GPU participates in 2 slices per layer (Figure 6b).
  int rs_count = 0;
  for (OpId id : g->DeviceQueue(8)) {
    if (g->op(id).kind == OpKind::kReduceScatter) ++rs_count;
  }
  EXPECT_EQ(rs_count, 15 * 2);
}

TEST_F(GraphTest, SharedDeviceOpsKeepConsistentRelativeOrder) {
  // The canonical (layer, slice) issue order of S5.1 translates into a
  // structural guarantee here: because Graph::Add appends to every
  // participant's queue in one global insertion order, any two ops sharing
  // a device appear in the *same* relative order on all shared devices -
  // the inversion that would deadlock real NCCL rings is unconstructible.
  const plan::ParallelPlan p = Uniform(2, 4, 4);
  Result<Graph> g = BuildStepGraph(p, cost_);
  ASSERT_TRUE(g.ok());
  for (topo::GpuId gpu : p.ActiveGpus()) {
    const std::vector<OpId>& queue = g->DeviceQueue(gpu);
    for (size_t i = 1; i < queue.size(); ++i) {
      EXPECT_LT(queue[i - 1], queue[i]);
    }
  }
  // And the executor indeed drains such a graph to completion.
  Result<ExecutionResult> exec =
      ExecuteGraph(*g, cluster_, HealthyRates());
  ASSERT_TRUE(exec.ok()) << exec.status();
  for (double f : exec->finish_seconds) EXPECT_GE(f, 0.0);
}

TEST_F(GraphTest, ExecuteScalesWithStragglerRate) {
  const plan::ParallelPlan p = Uniform(1, 4, 4);
  Result<Graph> g = BuildStepGraph(p, cost_);
  ASSERT_TRUE(g.ok());
  std::vector<double> rates = HealthyRates();
  Result<ExecutionResult> base = ExecuteGraph(*g, cluster_, rates);
  ASSERT_TRUE(base.ok());
  rates[0] = 2.0;
  Result<ExecutionResult> slow = ExecuteGraph(*g, cluster_, rates);
  ASSERT_TRUE(slow.ok());
  const double ratio = slow->makespan_seconds / base->makespan_seconds;
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 2.2);
}

TEST_F(GraphTest, ExecutorRejectsMissingRates) {
  const plan::ParallelPlan p = Uniform(1, 4, 2);
  Result<Graph> g = BuildStepGraph(p, cost_);
  ASSERT_TRUE(g.ok());
  std::vector<double> rates(cluster_.num_gpus(), 0.0);  // All unusable.
  EXPECT_FALSE(ExecuteGraph(*g, cluster_, rates).ok());
}

TEST_F(GraphTest, FailedGpuSignalsUnavailable) {
  const plan::ParallelPlan p = Uniform(2, 4, 4);
  straggler::Situation s(cluster_.num_gpus());
  s.Fail(0);
  Result<double> r = SimulateStepViaGraph(cluster_, cost_, p, s, 0.0,
                                          nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable());
}

}  // namespace
}  // namespace graph
}  // namespace testkit
}  // namespace malleus
