// End-to-end integration tests: the headline claims of the paper, checked
// on the simulated substrate.
//   1. Malleus ~= Megatron when healthy (S7.1 protocol note).
//   2. One straggler roughly halves the baselines' speed; Malleus stays
//      within a modest factor of its healthy speed (S1 columns of Table 2).
//   3. Malleus achieves >= ~85% of the theoretic optimum across situations
//      (Table 3, allowing simulator slack).
//   4. The full trace runs through detection, re-planning and migration
//      with bounded transition cost (Figure 7 behaviour).

#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/deepspeed.h"
#include "baselines/megatron.h"
#include "baselines/trace_runner.h"
#include "core/engine.h"

namespace malleus {
namespace {

using straggler::Situation;
using straggler::SituationId;

class IntegrationTest : public ::testing::Test {
 protected:
  topo::ClusterSpec cluster_ = topo::ClusterSpec::A800Cluster(4);
  model::CostModel cost_{model::ModelSpec::Llama32B(), topo::GpuSpec()};
};

TEST_F(IntegrationTest, MalleusMatchesMegatronWhenHealthy) {
  core::MalleusEngine malleus_fw(cluster_, cost_);
  baselines::MegatronBaseline megatron(cluster_, cost_,
                                       baselines::MegatronOptions());
  ASSERT_TRUE(malleus_fw.Initialize(64).ok());
  ASSERT_TRUE(megatron.Initialize(64).ok());
  const Situation healthy(cluster_.num_gpus());
  double malleus_t = 0.0, megatron_t = 0.0;
  for (int i = 0; i < 4; ++i) {
    malleus_t = malleus_fw.Step(healthy)->TotalSeconds();
    megatron_t = megatron.Step(healthy)->TotalSeconds();
  }
  EXPECT_NEAR(malleus_t, megatron_t, 0.1 * megatron_t);
}

TEST_F(IntegrationTest, SingleStragglerDoublesBaselinesNotMalleus) {
  const Situation healthy(cluster_.num_gpus());
  Result<Situation> s1 = Situation::Canonical(cluster_, SituationId::kS1);
  ASSERT_TRUE(s1.ok());

  auto steady = [&](core::TrainingFramework* fw,
                    const Situation& s) {
    double t = 0.0;
    for (int i = 0; i < 5; ++i) t = fw->Step(s)->TotalSeconds();
    return t;
  };

  baselines::MegatronBaseline megatron(cluster_, cost_,
                                       baselines::MegatronOptions());
  ASSERT_TRUE(megatron.Initialize(64).ok());
  const double mg_base = steady(&megatron, healthy);
  const double mg_slow = steady(&megatron, *s1);
  EXPECT_GT(mg_slow / mg_base, 1.7);  // Paper: ~2x at S1.

  baselines::DeepSpeedBaseline ds(cluster_, cost_,
                                  baselines::DeepSpeedOptions());
  ASSERT_TRUE(ds.Initialize(64).ok());
  EXPECT_GT(steady(&ds, *s1) / steady(&ds, healthy), 1.6);

  core::MalleusEngine fw(cluster_, cost_);
  ASSERT_TRUE(fw.Initialize(64).ok());
  const double ml_base = steady(&fw, healthy);
  const double ml_slow = steady(&fw, *s1);  // Adapts within these steps.
  EXPECT_LT(ml_slow / ml_base, 1.35);  // Paper: 1.05-1.16x.
  EXPECT_LT(ml_slow, mg_slow / 1.5);
}

TEST_F(IntegrationTest, NearTheoreticOptimumAcrossSituations) {
  core::MalleusEngine fw(cluster_, cost_);
  ASSERT_TRUE(fw.Initialize(64).ok());
  const Situation healthy(cluster_.num_gpus());
  double base = 0.0;
  for (int i = 0; i < 4; ++i) base = fw.Step(healthy)->TotalSeconds();

  for (SituationId id : {SituationId::kS1, SituationId::kS2,
                         SituationId::kS3, SituationId::kS4}) {
    Result<Situation> s = Situation::Canonical(cluster_, id);
    ASSERT_TRUE(s.ok());
    double t = 0.0;
    for (int i = 0; i < 6; ++i) t = fw.Step(*s)->TotalSeconds();
    const double optimal = base * s->TheoreticSlowdown();
    // >= ~80% of the theoretic optimum (paper: >= 90% on real hardware;
    // the simulated substrate adds bubble/sync slack on 32 GPUs).
    EXPECT_LT(t / optimal, 1.25) << straggler::SituationName(id);
    // Back to healthy before the next situation.
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(fw.Step(healthy).ok());
  }
}

TEST_F(IntegrationTest, FullTraceAdaptationIsBounded) {
  core::MalleusEngine engine(cluster_, cost_);
  ASSERT_TRUE(engine.Initialize(64).ok());
  double worst_migration = 0.0;
  int replans = 0;
  for (const auto& phase : straggler::StandardTrace(6)) {
    Result<Situation> truth = Situation::Canonical(cluster_, phase.id);
    ASSERT_TRUE(truth.ok());
    for (int i = 0; i < phase.steps; ++i) {
      Result<core::StepReport> r = engine.Step(*truth);
      ASSERT_TRUE(r.ok()) << r.status();
      worst_migration = std::max(worst_migration, r->migration_seconds);
      if (r->replanned) ++replans;
      // Planning always hides behind training here (S5.3).
      EXPECT_DOUBLE_EQ(r->planning_overflow_seconds, 0.0);
    }
  }
  // Each situation change is detected at least once...
  EXPECT_GE(replans, 6);
  // ...without thrashing (spurious re-plans on noise),
  EXPECT_LE(replans, 20);
  // and migrations stay in the paper's few-seconds regime.
  EXPECT_GT(worst_migration, 0.0);
  EXPECT_LT(worst_migration, 30.0);
}

TEST_F(IntegrationTest, GraduallyWorseningStragglerTracked) {
  core::MalleusEngine engine(cluster_, cost_);
  ASSERT_TRUE(engine.Initialize(64).ok());
  const Situation healthy(cluster_.num_gpus());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(engine.Step(healthy).ok());
  // Rate creeps up level by level; each >5% shift triggers adaptation and
  // the step time stays bounded by the theoretic impact.
  for (int level = 1; level <= 3; ++level) {
    Situation s(cluster_.num_gpus());
    s.SetLevel(0, level);
    double t = 0.0;
    for (int i = 0; i < 4; ++i) t = engine.Step(s)->step_seconds;
    EXPECT_LT(t, 16.0) << "level " << level;  // Healthy ~9.5-10s.
  }
}

}  // namespace
}  // namespace malleus
