// Tests for src/sim: collective cost models, 1F1B discrete-event execution
// properties, gradient synchronization, restart costs, and failure
// signaling.

#include <gtest/gtest.h>

#include <cmath>

#include "model/cost_model.h"
#include "plan/estimator.h"
#include "plan/uniform.h"
#include "sim/collective.h"
#include "sim/pipeline_sim.h"
#include "sim/restart.h"

namespace malleus {
namespace sim {
namespace {

class CollectiveTest : public ::testing::Test {
 protected:
  topo::ClusterSpec cluster_ = topo::ClusterSpec::A800Cluster(2);
};

TEST_F(CollectiveTest, BottleneckBandwidth) {
  EXPECT_DOUBLE_EQ(topo::GroupBottleneckBandwidth(cluster_, {0, 1, 2}), 400e9);
  EXPECT_DOUBLE_EQ(topo::GroupBottleneckBandwidth(cluster_, {0, 8}), 200e9);
}

TEST_F(CollectiveTest, RingCollectiveScaling) {
  // reduce-scatter over n GPUs moves (n-1)/n of the bytes per link.
  const double t2 = ReduceScatterSeconds(cluster_, {0, 1}, 1e9);
  const double t8 =
      ReduceScatterSeconds(cluster_, {0, 1, 2, 3, 4, 5, 6, 7}, 1e9);
  EXPECT_GT(t8, t2);
  EXPECT_LT(t8, 2 * t2);
  EXPECT_DOUBLE_EQ(ReduceScatterSeconds(cluster_, {0}, 1e9), 0.0);
  // All-reduce = reduce-scatter + all-gather.
  EXPECT_DOUBLE_EQ(AllReduceSeconds(cluster_, {0, 1}, 1e9),
                   ReduceScatterSeconds(cluster_, {0, 1}, 1e9) +
                       AllGatherSeconds(cluster_, {0, 1}, 1e9));
}

TEST_F(CollectiveTest, P2pRespectsTopology) {
  EXPECT_LT(P2pSeconds(cluster_, 0, 1, 1e9), P2pSeconds(cluster_, 0, 8, 1e9));
  EXPECT_DOUBLE_EQ(P2pSeconds(cluster_, 3, 3, 1e9), 0.0);
}

TEST_F(CollectiveTest, BatchedSendRecvSerializesEndpoints) {
  // Two disjoint intra-node transfers run in parallel; two transfers out of
  // the same GPU serialize.
  const double disjoint = BatchedSendRecvSeconds(
      cluster_, {{0, 1, 1e9}, {2, 3, 1e9}});
  const double shared = BatchedSendRecvSeconds(
      cluster_, {{0, 1, 1e9}, {0, 2, 1e9}});
  EXPECT_LT(disjoint, shared);
}

TEST_F(CollectiveTest, BatchedSendRecvSharesNodeNic) {
  // Cross-node transfers from different GPUs of one node share the NIC.
  const double t = BatchedSendRecvSeconds(
      cluster_, {{0, 8, 1e9}, {1, 9, 1e9}});
  EXPECT_GT(t, 2e9 / 200e9 * 0.99);
}

TEST_F(CollectiveTest, EmptyTransferListIsFree) {
  EXPECT_DOUBLE_EQ(BatchedSendRecvSeconds(cluster_, {}), 0.0);
  EXPECT_DOUBLE_EQ(BatchedSendRecvSeconds(cluster_, {{0, 0, 1e9}}), 0.0);
}

TEST_F(CollectiveTest, BatchedSendRecvDegenerateInputs) {
  // packs <= 0 means "no rounds": nothing can move, regardless of the
  // transfer list.
  EXPECT_DOUBLE_EQ(
      BatchedSendRecvSeconds(cluster_, {{0, 1, 1e9}}, /*packs=*/0), 0.0);
  EXPECT_DOUBLE_EQ(
      BatchedSendRecvSeconds(cluster_, {{0, 1, 1e9}}, /*packs=*/-3), 0.0);
  // Zero-byte transfers contribute nothing, alone or mixed with self-moves.
  EXPECT_DOUBLE_EQ(
      BatchedSendRecvSeconds(cluster_, {{0, 1, 0.0}, {2, 2, 1e9}}), 0.0);
  // The flow model honors the same conventions.
  const net::Fabric fabric(cluster_);
  EXPECT_DOUBLE_EQ(
      BatchedSendRecvSecondsFlow(fabric, {{0, 1, 1e9}}, /*packs=*/0), 0.0);
  EXPECT_DOUBLE_EQ(BatchedSendRecvSecondsFlow(fabric, {}, /*packs=*/1), 0.0);
  EXPECT_DOUBLE_EQ(
      BatchedSendRecvSecondsFlow(fabric, {{0, 1, 0.0}, {2, 2, 1e9}}), 0.0);
}

TEST_F(CollectiveTest, BottleneckBandwidthDegenerateGroups) {
  // Documented convention: empty and single-GPU groups move no inter-GPU
  // bytes; report the fastest (intra-node NVLink) bandwidth so degenerate
  // groups never dominate a bottleneck computation.
  EXPECT_DOUBLE_EQ(topo::GroupBottleneckBandwidth(cluster_, {}), 400e9);
  EXPECT_DOUBLE_EQ(topo::GroupBottleneckBandwidth(cluster_, {9}), 400e9);
}

TEST(RestartTest, CostComposition) {
  RestartCostConfig cfg;
  const double load = CheckpointLoadSeconds(100e9, 2, cfg);
  EXPECT_NEAR(load, 100e9 / (2 * 2e9), 1e-9);
  EXPECT_NEAR(RestartSeconds(100e9, 2, cfg),
              2 * load + cfg.framework_init_seconds, 1e-9);
  // More I/O nodes -> faster.
  EXPECT_LT(RestartSeconds(100e9, 8, cfg), RestartSeconds(100e9, 2, cfg));
}

TEST(RestartTest, RestartAfterFailureDoesNotDoubleCountLoad) {
  // Regression for the restart-cost audit: a restart that follows a
  // failure (or a failed migration) cannot save the lost state, so it
  // pays init + one load. Charging RestartSeconds there would re-price
  // the checkpoint I/O as an impossible save — exactly one load more.
  RestartCostConfig cfg;
  const double load = CheckpointLoadSeconds(100e9, 4, cfg);
  const double after_failure = RestartAfterFailureSeconds(100e9, 4, cfg);
  EXPECT_NEAR(after_failure, load + cfg.framework_init_seconds, 1e-9);
  EXPECT_NEAR(RestartSeconds(100e9, 4, cfg), after_failure + load, 1e-9);
  // Never cheaper than a bare reload, never as dear as a planned restart.
  EXPECT_GT(after_failure, load);
  EXPECT_LT(after_failure, RestartSeconds(100e9, 4, cfg));
}

class StepSimTest : public ::testing::Test {
 protected:
  plan::ParallelPlan MakePlan(int dp, int tp, int pp) {
    plan::UniformConfig cfg;
    cfg.dp = dp;
    cfg.tp = tp;
    cfg.pp = pp;
    cfg.global_batch = 64;
    Result<plan::ParallelPlan> p =
        plan::BuildUniformPlan(cluster_, cost_, Gpus(dp * tp * pp), cfg);
    MALLEUS_CHECK_OK(p.status());
    return std::move(p).ValueOrDie();
  }

  std::vector<topo::GpuId> Gpus(int n) {
    std::vector<topo::GpuId> all = cluster_.AllGpus();
    return {all.begin(), all.begin() + n};
  }

  double Step(const plan::ParallelPlan& p, const straggler::Situation& s,
              double noise = 0.0) {
    Rng rng(17);
    SimOptions opts;
    opts.timing_noise_stddev = noise;
    Result<StepResult> r = SimulateStep(cluster_, cost_, p, s, opts, &rng);
    MALLEUS_CHECK_OK(r.status());
    return r->step_seconds;
  }

  topo::ClusterSpec cluster_ = topo::ClusterSpec::A800Cluster(4);
  model::CostModel cost_{model::ModelSpec::Llama32B(), topo::GpuSpec()};
};

TEST_F(StepSimTest, MatchesClosedFormWithinBubbleModel) {
  const plan::ParallelPlan p = MakePlan(2, 4, 4);
  const straggler::Situation healthy(cluster_.num_gpus());
  SimOptions opts;
  opts.timing_noise_stddev = 0.0;
  opts.include_p2p = false;
  opts.include_grad_sync = false;
  Rng rng(1);
  Result<StepResult> r = SimulateStep(cluster_, cost_, p, healthy, opts, &rng);
  ASSERT_TRUE(r.ok());
  const plan::StepEstimate est = plan::EstimateStep(p, cost_, healthy);
  // The closed form (m-1)*max + sum is exact for uniform 1F1B without
  // communication.
  EXPECT_NEAR(r->step_seconds, est.step_seconds, est.step_seconds * 0.02);
}

TEST_F(StepSimTest, StragglerSlowsStepProportionally) {
  const plan::ParallelPlan p = MakePlan(2, 4, 4);
  const straggler::Situation healthy(cluster_.num_gpus());
  straggler::Situation s(cluster_.num_gpus());
  s.SetRate(0, 2.0);
  const double ratio = Step(p, s) / Step(p, healthy);
  // One straggling stage slows its pipeline by ~2x; the other pipeline is
  // unaffected but the step waits for the slowest.
  EXPECT_GT(ratio, 1.8);
  EXPECT_LT(ratio, 2.1);
}

TEST_F(StepSimTest, PipelineWithoutStragglerUnaffected) {
  const plan::ParallelPlan p = MakePlan(2, 4, 4);
  straggler::Situation s(cluster_.num_gpus());
  s.SetRate(0, 3.0);  // GPU 0 is in pipeline 0.
  Rng rng(3);
  SimOptions opts;
  opts.timing_noise_stddev = 0.0;
  Result<StepResult> r = SimulateStep(cluster_, cost_, p, s, opts, &rng);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->pipeline_seconds.size(), 2u);
  EXPECT_GT(r->pipeline_seconds[0], 2.5 * r->pipeline_seconds[1]);
}

TEST_F(StepSimTest, MeasuredRatesReflectTruth) {
  const plan::ParallelPlan p = MakePlan(2, 4, 4);
  straggler::Situation s(cluster_.num_gpus());
  s.SetRate(5, 2.5);
  Rng rng(4);
  SimOptions opts;
  Result<StepResult> r = SimulateStep(cluster_, cost_, p, s, opts, &rng);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->measured_rates[5], 2.5, 0.2);
  EXPECT_NEAR(r->measured_rates[0], 1.0, 0.1);
}

TEST_F(StepSimTest, InactiveGpusReportNoMeasurement) {
  const plan::ParallelPlan p = MakePlan(2, 4, 2);  // 16 of 32 GPUs.
  const straggler::Situation healthy(cluster_.num_gpus());
  Rng rng(5);
  SimOptions opts;
  Result<StepResult> r = SimulateStep(cluster_, cost_, p, healthy, opts, &rng);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->measured_rates[0], 0.0);
  EXPECT_DOUBLE_EQ(r->measured_rates[31], 0.0);
}

TEST_F(StepSimTest, FailedActiveGpuSignalsUnavailable) {
  const plan::ParallelPlan p = MakePlan(2, 4, 4);
  straggler::Situation s(cluster_.num_gpus());
  s.Fail(0);
  Rng rng(6);
  SimOptions opts;
  Result<StepResult> r = SimulateStep(cluster_, cost_, p, s, opts, &rng);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable());
}

TEST_F(StepSimTest, GradSyncGrowsWithDp) {
  const plan::ParallelPlan dp2 = MakePlan(2, 4, 4);
  const plan::ParallelPlan dp4 = MakePlan(4, 4, 2);
  const straggler::Situation healthy(cluster_.num_gpus());
  Rng rng(7);
  SimOptions opts;
  opts.timing_noise_stddev = 0.0;
  Result<StepResult> r2 =
      SimulateStep(cluster_, cost_, dp2, healthy, opts, &rng);
  Result<StepResult> r4 =
      SimulateStep(cluster_, cost_, dp4, healthy, opts, &rng);
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(r4.ok());
  EXPECT_GT(r2->grad_sync_seconds, 0.0);
  EXPECT_GT(r4->grad_sync_seconds, r2->grad_sync_seconds * 0.9);
}

TEST_F(StepSimTest, DeeperPipelinesPayMoreBubble) {
  // Same resources, same TP: PP8/DP1 vs PP4/DP2 - with few micro-batches
  // the deeper pipeline pays a larger warm-up/cool-down share.
  const plan::ParallelPlan deep = MakePlan(1, 4, 8);
  const plan::ParallelPlan wide = MakePlan(2, 4, 4);
  const straggler::Situation healthy(cluster_.num_gpus());
  const double t_deep = Step(deep, healthy);
  const double t_wide = Step(wide, healthy);
  EXPECT_GT(t_deep, t_wide);
}

TEST_F(StepSimTest, NoiseIsBoundedAndSeedStable) {
  const plan::ParallelPlan p = MakePlan(2, 4, 4);
  const straggler::Situation healthy(cluster_.num_gpus());
  Rng a(42), b(42);
  SimOptions opts;
  Result<StepResult> ra = SimulateStep(cluster_, cost_, p, healthy, opts, &a);
  Result<StepResult> rb = SimulateStep(cluster_, cost_, p, healthy, opts, &b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_DOUBLE_EQ(ra->step_seconds, rb->step_seconds);
}

}  // namespace
}  // namespace sim
}  // namespace malleus
