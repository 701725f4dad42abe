// Tests for src/plan: plan validation invariants, the closed-form step
// estimator, uniform-plan construction, and tuning.

#include <gtest/gtest.h>

#include "model/cost_model.h"
#include "plan/estimator.h"
#include "plan/plan.h"
#include "plan/uniform.h"
#include "straggler/situation.h"
#include "topology/cluster.h"

namespace malleus {
namespace plan {
namespace {

class PlanTest : public ::testing::Test {
 protected:
  ParallelPlan MakeValidPlan() {
    UniformConfig cfg;
    cfg.dp = 2;
    cfg.tp = 4;
    cfg.pp = 4;
    cfg.micro_batch_size = 1;
    cfg.global_batch = 64;
    Result<ParallelPlan> p =
        BuildUniformPlan(cluster_, cost_, cluster_.AllGpus(), cfg);
    MALLEUS_CHECK_OK(p.status());
    return std::move(p).ValueOrDie();
  }

  topo::ClusterSpec cluster_ = topo::ClusterSpec::A800Cluster(4);
  model::CostModel cost_{model::ModelSpec::Llama32B(), topo::GpuSpec()};
};

TEST_F(PlanTest, UniformPlanValidates) {
  const ParallelPlan p = MakeValidPlan();
  EXPECT_TRUE(p.Validate(cluster_, cost_).ok());
  EXPECT_EQ(p.dp_degree(), 2);
  EXPECT_EQ(p.ActiveGpus().size(), 32u);
  for (const Pipeline& pipe : p.pipelines) {
    EXPECT_EQ(pipe.TotalLayers(), 60);
    EXPECT_EQ(pipe.num_microbatches, 32);
  }
}

TEST_F(PlanTest, ValidationCatchesLayerMismatch) {
  ParallelPlan p = MakeValidPlan();
  p.pipelines[0].stages[0].num_layers -= 1;
  EXPECT_FALSE(p.Validate(cluster_, cost_).ok());
}

TEST_F(PlanTest, ValidationCatchesDataMismatch) {
  ParallelPlan p = MakeValidPlan();
  p.pipelines[1].num_microbatches += 1;
  EXPECT_FALSE(p.Validate(cluster_, cost_).ok());
}

TEST_F(PlanTest, ValidationCatchesDuplicateGpu) {
  ParallelPlan p = MakeValidPlan();
  p.pipelines[0].stages[0].group.gpus[0] =
      p.pipelines[0].stages[1].group.gpus[0];
  EXPECT_FALSE(p.Validate(cluster_, cost_).ok());
}

TEST_F(PlanTest, ValidationCatchesCrossNodeTpGroup) {
  ParallelPlan p = MakeValidPlan();
  // Swap one GPU into a group on a different node.
  p.pipelines[0].stages[0].group.gpus[0] = 12;
  p.pipelines[0].stages[3].group.gpus.back() = 0;
  EXPECT_FALSE(p.Validate(cluster_, cost_).ok());
}

TEST_F(PlanTest, ValidationCatchesBadTpDegree) {
  ParallelPlan p = MakeValidPlan();
  p.pipelines[0].stages[0].group.gpus.pop_back();  // Size 3.
  EXPECT_FALSE(p.Validate(cluster_, cost_).ok());
}

TEST_F(PlanTest, ValidationCatchesMemoryOverflow) {
  // One stage takes all 60 layers on a single small group.
  ParallelPlan p = MakeValidPlan();
  Pipeline& pipe = p.pipelines[0];
  pipe.stages[0].num_layers = 60;
  for (size_t j = 1; j < pipe.stages.size(); ++j) {
    pipe.stages[j].num_layers = 0;
  }
  Status st = p.Validate(cluster_, cost_);
  EXPECT_TRUE(st.IsResourceExhausted()) << st;
}

TEST_F(PlanTest, SignatureDetectsChanges) {
  const ParallelPlan a = MakeValidPlan();
  ParallelPlan b = a;
  EXPECT_EQ(a.Signature(), b.Signature());
  b.pipelines[0].num_microbatches -= 1;
  b.pipelines[1].num_microbatches += 1;
  EXPECT_NE(a.Signature(), b.Signature());
  ParallelPlan c = a;
  c.activation_checkpointing = true;
  EXPECT_NE(a.Signature(), c.Signature());
}

TEST_F(PlanTest, GroupRateUsesSlowestMember) {
  const ParallelPlan p = MakeValidPlan();
  straggler::Situation s(cluster_.num_gpus());
  s.SetRate(0, 3.0);
  const TpGroup& g = p.pipelines[0].stages[0].group;
  ASSERT_EQ(g.gpus[0], 0);
  EXPECT_DOUBLE_EQ(g.Rate(cost_, s), cost_.Rho(4) * 3.0);
}

TEST_F(PlanTest, EstimatorHealthyMatchesHandComputation) {
  const ParallelPlan p = MakeValidPlan();
  const straggler::Situation healthy(cluster_.num_gpus());
  const StepEstimate est = EstimateStep(p, cost_, healthy);
  const double t_stage = cost_.Rho(4) * 15 * cost_.TauSeconds(1);
  EXPECT_NEAR(est.simplified_seconds, 32 * t_stage, 1e-9);
  EXPECT_NEAR(est.step_seconds, 31 * t_stage + 4 * t_stage, 1e-9);
  ASSERT_EQ(est.pipeline_seconds.size(), 2u);
  EXPECT_NEAR(est.pipeline_seconds[0], est.pipeline_seconds[1], 1e-9);
}

TEST_F(PlanTest, EstimatorSlowsWithStraggler) {
  const ParallelPlan p = MakeValidPlan();
  const straggler::Situation healthy(cluster_.num_gpus());
  straggler::Situation s(cluster_.num_gpus());
  s.SetLevel(0, 2);
  EXPECT_GT(EstimateStep(p, cost_, s).step_seconds,
            EstimateStep(p, cost_, healthy).step_seconds * 2.0);
}

TEST_F(PlanTest, EstimatorAcOverhead) {
  ParallelPlan p = MakeValidPlan();
  const straggler::Situation healthy(cluster_.num_gpus());
  const double base = EstimateStep(p, cost_, healthy).step_seconds;
  p.activation_checkpointing = true;
  EXPECT_NEAR(EstimateStep(p, cost_, healthy).step_seconds,
              base * model::kAcComputeOverhead, 1e-9);
}

TEST_F(PlanTest, UniformBuilderRejectsBadConfigs) {
  UniformConfig cfg;
  cfg.dp = 3;
  cfg.tp = 4;
  cfg.pp = 4;  // 48 GPUs needed, 32 given.
  EXPECT_FALSE(
      BuildUniformPlan(cluster_, cost_, cluster_.AllGpus(), cfg).ok());
  cfg = UniformConfig{};
  cfg.dp = 2;
  cfg.tp = 3;  // Invalid TP degree.
  cfg.pp = 2;
  const std::vector<topo::GpuId> all = cluster_.AllGpus();
  const std::vector<topo::GpuId> twelve(all.begin(), all.begin() + 12);
  EXPECT_FALSE(BuildUniformPlan(cluster_, cost_, twelve, cfg).ok());
}

TEST_F(PlanTest, UniformBuilderUnevenLayers) {
  // 60 layers over 7 stages: remainder goes to the later stages.
  const topo::ClusterSpec big = topo::ClusterSpec::A800Cluster(7);
  UniformConfig cfg;
  cfg.dp = 2;
  cfg.tp = 4;
  cfg.pp = 7;
  cfg.global_batch = 64;
  Result<ParallelPlan> p = BuildUniformPlan(big, cost_, big.AllGpus(), cfg);
  ASSERT_TRUE(p.ok()) << p.status();
  const auto& stages = p->pipelines[0].stages;
  EXPECT_EQ(stages[0].num_layers, 8);
  EXPECT_EQ(stages.back().num_layers, 9);
  EXPECT_EQ(p->pipelines[0].TotalLayers(), 60);
}

TEST_F(PlanTest, UniformBuilderUnevenDataNeedsOptIn) {
  UniformConfig cfg;
  cfg.dp = 2;
  cfg.tp = 4;
  cfg.pp = 4;
  cfg.global_batch = 63;  // 63 micro-batches over DP 2.
  EXPECT_FALSE(
      BuildUniformPlan(cluster_, cost_, cluster_.AllGpus(), cfg).ok());
  cfg.allow_uneven_data = true;
  Result<ParallelPlan> p =
      BuildUniformPlan(cluster_, cost_, cluster_.AllGpus(), cfg);
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p->pipelines[0].num_microbatches +
                p->pipelines[1].num_microbatches,
            63);
}

TEST_F(PlanTest, TunedPlanIsValidAndUsesAllGpus) {
  Result<ParallelPlan> p =
      TuneUniformPlan(cluster_, cost_, cluster_.AllGpus(), 64);
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_TRUE(p->Validate(cluster_, cost_).ok());
  EXPECT_EQ(p->ActiveGpus().size(), 32u);
}

TEST_F(PlanTest, TuningPrefersNoAcWhenMemoryAllows) {
  Result<ParallelPlan> p =
      TuneUniformPlan(cluster_, cost_, cluster_.AllGpus(), 64);
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p->activation_checkpointing);
}

TEST_F(PlanTest, TuningFallsBackToAcUnderMemoryPressure) {
  // 32B on a single node only fits with activation checkpointing.
  const topo::ClusterSpec one = topo::ClusterSpec::A800Cluster(1);
  Result<ParallelPlan> p = TuneUniformPlan(one, cost_, one.AllGpus(), 64,
                                           /*max_micro_batch=*/1,
                                           /*allow_uneven_data=*/true);
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_TRUE(p->activation_checkpointing);
}

TEST_F(PlanTest, ValidationCatchesEmptyPlan) {
  ParallelPlan p;
  p.pipelines.clear();
  const Status st = p.Validate(cluster_, cost_);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "plan has no pipelines");
}

TEST_F(PlanTest, ValidationCatchesDuplicateGpuAcrossPipelines) {
  ParallelPlan p = MakeValidPlan();
  // Reuse a GPU from the *other* pipeline (same node, so only the reuse
  // check can fire, not the intra-node TP constraint).
  p.pipelines[0].stages[0].group.gpus[0] =
      p.pipelines[1].stages[0].group.gpus[0];
  const Status st = p.Validate(cluster_, cost_);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("used more than once"), std::string::npos)
      << st;
}

TEST_F(PlanTest, ValidationCatchesBatchSumMismatch) {
  // sum(m_i) * b == B must hold against B itself, not just the m_i split.
  ParallelPlan p = MakeValidPlan();
  p.global_batch = 100;  // 64 micro-batches x 1 != 100.
  const Status st = p.Validate(cluster_, cost_);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("global batch"), std::string::npos) << st;
}

TEST_F(PlanTest, ValidationCatchesNonPowerOfTwoTp) {
  for (int bad_size : {3, 5, 6, 7}) {
    ParallelPlan p = MakeValidPlan();
    std::vector<topo::GpuId>& gpus = p.pipelines[0].stages[0].group.gpus;
    // Grow/shrink the group within node 0 (GPUs 0-7; stage 1 owns 4-7).
    gpus.clear();
    for (int g = 0; g < bad_size; ++g) gpus.push_back(g);
    p.pipelines[0].stages[1].group.gpus.clear();
    p.pipelines[0].stages[1].group.gpus.push_back(7);
    const Status st = p.Validate(cluster_, cost_);
    EXPECT_FALSE(st.ok()) << "tp=" << bad_size;
  }
}

TEST_F(PlanTest, SignatureOfEmptyAndDegeneratePlans) {
  // Signature must be total: change detection runs before validation.
  ParallelPlan empty;
  empty.pipelines.clear();
  const std::string sig = empty.Signature();
  EXPECT_FALSE(sig.empty());
  EXPECT_EQ(sig, empty.Signature());  // Deterministic.

  ParallelPlan other;
  other.pipelines.clear();
  other.micro_batch_size = 2;
  EXPECT_NE(sig, other.Signature());

  // Standby-only difference is visible too.
  ParallelPlan a = MakeValidPlan();
  ParallelPlan b = a;
  b.standby_gpus.push_back(31);
  EXPECT_NE(a.Signature(), b.Signature());
}

TEST_F(PlanTest, SignatureMatchesHandWrittenStrings) {
  ParallelPlan p;
  p.micro_batch_size = 2;
  Pipeline a;
  a.num_microbatches = 12;
  a.stages = {Stage{TpGroup{{0, 1}}, 30}, Stage{TpGroup{{10, 11}}, 30}};
  Pipeline b;
  b.num_microbatches = 20;
  b.stages = {Stage{TpGroup{{123}}, 60}};
  p.pipelines = {a, b};
  EXPECT_EQ(p.Signature(), "b2|m12[l30(0,1,)l30(10,11,)]m20[l60(123,)]");

  // Standby GPUs, in plan order, after the pipelines.
  p.standby_gpus = {1024, 7};
  EXPECT_EQ(p.Signature(),
            "b2|m12[l30(0,1,)l30(10,11,)]m20[l60(123,)]s(1024,7,)");

  // Activation checkpointing marks the micro-batch; 64-bit micro-batch
  // counts print in full.
  p.activation_checkpointing = true;
  p.pipelines = {b};
  p.pipelines[0].num_microbatches = int64_t{12345678901};
  p.standby_gpus.clear();
  EXPECT_EQ(p.Signature(), "b2ac|m12345678901[l60(123,)]");
}

using PlanDeathTest = PlanTest;

TEST_F(PlanDeathTest, StageMemoryRejectsBadPipelineIndex) {
  const ParallelPlan p = MakeValidPlan();
  EXPECT_DEATH(StageMemoryBytesPerGpu(p, -1, 0, cost_), "out of range");
  EXPECT_DEATH(StageMemoryBytesPerGpu(p, 2, 0, cost_), "out of range");
}

TEST_F(PlanDeathTest, StageMemoryRejectsBadStageIndex) {
  const ParallelPlan p = MakeValidPlan();
  EXPECT_DEATH(StageMemoryBytesPerGpu(p, 0, -1, cost_), "out of range");
  EXPECT_DEATH(StageMemoryBytesPerGpu(p, 0, 4, cost_), "out of range");
}

TEST_F(PlanTest, StageMemoryInRangeIsFinitePositive) {
  const ParallelPlan p = MakeValidPlan();
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 4; ++j) {
      const double bytes = StageMemoryBytesPerGpu(p, i, j, cost_);
      EXPECT_GT(bytes, 0.0) << i << "," << j;
      EXPECT_LT(bytes, static_cast<double>(cost_.gpu().UsableBytes()));
    }
  }
}

}  // namespace
}  // namespace plan
}  // namespace malleus
