// Tests for core/executor and core/engine: plan installation and migration
// accounting, the self-detecting re-planning loop, overlap accounting,
// failure recovery, and elastic re-inclusion.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/engine.h"
#include "core/executor.h"
#include "core/planner.h"
#include "obs/metrics.h"

namespace malleus {
namespace core {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  plan::ParallelPlan PlanFor(const straggler::Situation& s) {
    Planner planner(cluster_, cost_);
    Result<PlanResult> r = planner.Plan(s, 64);
    MALLEUS_CHECK_OK(r.status());
    return std::move(r->plan);
  }

  topo::ClusterSpec cluster_ = topo::ClusterSpec::A800Cluster(4);
  model::CostModel cost_{model::ModelSpec::Llama32B(), topo::GpuSpec()};
};

TEST_F(ExecutorTest, MigrateBeforeInstallFails) {
  Executor ex(cluster_, cost_);
  EXPECT_FALSE(ex.installed());
  Result<MigrationReport> r =
      ex.Migrate(PlanFor(straggler::Situation(cluster_.num_gpus())));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsFailedPrecondition());
}

TEST_F(ExecutorTest, InstallThenNoOpMigrate) {
  Executor ex(cluster_, cost_);
  const straggler::Situation healthy(cluster_.num_gpus());
  plan::ParallelPlan p = PlanFor(healthy);
  ASSERT_TRUE(ex.Install(p).ok());
  Result<MigrationReport> r = ex.Migrate(p);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->no_op);
  EXPECT_DOUBLE_EQ(r->seconds, 0.0);
}

TEST_F(ExecutorTest, MigrateToStragglerPlanCharges) {
  Executor ex(cluster_, cost_);
  const straggler::Situation healthy(cluster_.num_gpus());
  ASSERT_TRUE(ex.Install(PlanFor(healthy)).ok());
  straggler::Situation s(cluster_.num_gpus());
  s.SetLevel(0, 3);
  Result<MigrationReport> r = ex.Migrate(PlanFor(s));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->no_op);
  EXPECT_GT(r->bytes, 0.0);
  EXPECT_GT(r->seconds, 0.0);
  EXPECT_GT(r->num_transfers, 0);
}

TEST_F(ExecutorTest, InstallRejectsInvalidPlan) {
  Executor ex(cluster_, cost_);
  plan::ParallelPlan bad = PlanFor(straggler::Situation(cluster_.num_gpus()));
  bad.pipelines[0].num_microbatches += 1;
  EXPECT_FALSE(ex.Install(bad).ok());
}

class EngineTest : public ::testing::Test {
 protected:
  topo::ClusterSpec cluster_ = topo::ClusterSpec::A800Cluster(4);
  model::CostModel cost_{model::ModelSpec::Llama32B(), topo::GpuSpec()};
};

TEST_F(EngineTest, StepBeforeInitializeFails) {
  MalleusEngine engine(cluster_, cost_);
  straggler::Situation healthy(cluster_.num_gpus());
  EXPECT_FALSE(engine.Step(healthy).ok());
}

TEST_F(EngineTest, HealthySteadyStateDoesNotReplan) {
  MalleusEngine engine(cluster_, cost_);
  ASSERT_TRUE(engine.Initialize(64).ok());
  straggler::Situation healthy(cluster_.num_gpus());
  for (int i = 0; i < 5; ++i) {
    Result<StepReport> r = engine.Step(healthy);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_FALSE(r->replanned);
    EXPECT_DOUBLE_EQ(r->migration_seconds, 0.0);
  }
}

TEST_F(EngineTest, DetectsStragglerAndAdapts) {
  MalleusEngine engine(cluster_, cost_);
  ASSERT_TRUE(engine.Initialize(64).ok());
  const int initial_dp = engine.current_plan().dp_degree();
  straggler::Situation healthy(cluster_.num_gpus());
  double base = 0.0;
  for (int i = 0; i < 3; ++i) base = engine.Step(healthy)->step_seconds;

  straggler::Situation s(cluster_.num_gpus());
  s.SetLevel(0, 3);
  // First straggling step runs the stale plan and triggers re-planning.
  Result<StepReport> hit = engine.Step(s);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->replanned);
  EXPECT_GT(hit->step_seconds, 2.0 * base);
  // Subsequent steps run the adapted plan: far better than the stale plan.
  double adapted = 0.0;
  for (int i = 0; i < 3; ++i) adapted = engine.Step(s)->step_seconds;
  EXPECT_LT(adapted, 1.6 * base);
  // Adapted plan keeps the DP degree (footnote 2).
  EXPECT_EQ(engine.current_plan().dp_degree(), initial_dp);
}

TEST_F(EngineTest, NodeLossFallsBackToTheUnpinnedDpThenPinsIt) {
  obs::MetricsRegistry metrics;
  obs::MetricsScope scope(&metrics);
  MalleusEngine engine(cluster_, cost_);
  ASSERT_TRUE(engine.Initialize(64).ok());
  const int initial_dp = engine.current_plan().dp_degree();

  // Two whole nodes die: the initial DP degree no longer fits, so the
  // recovery re-plan falls back to the planner's own DP search.
  straggler::Situation failed(cluster_.num_gpus());
  for (int node : {2, 3}) {
    for (topo::GpuId g : cluster_.GpusOnNode(node)) failed.Fail(g);
  }
  Result<StepReport> recovered = engine.Step(failed);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(recovered->replanned);
  EXPECT_GT(metrics.GetCounter("planner.replan_fallbacks")->Value(), 0.0);
  const int new_dp = engine.current_plan().dp_degree();
  EXPECT_NE(new_dp, initial_dp);
  Result<PlanResult> unpinned =
      Planner(cluster_, cost_).Plan(engine.profiler().Estimated(), 64);
  ASSERT_TRUE(unpinned.ok()) << unpinned.status();
  EXPECT_EQ(new_dp, unpinned->plan.dp_degree());

  // The next straggler re-plan pins the new degree without falling back.
  const double fallbacks =
      metrics.GetCounter("planner.replan_fallbacks")->Value();
  straggler::Situation slow = failed;
  slow.SetLevel(0, 3);
  bool replanned = false;
  for (int i = 0; i < 3 && !replanned; ++i) {
    Result<StepReport> r = engine.Step(slow);
    ASSERT_TRUE(r.ok()) << r.status();
    replanned = r->replanned;
  }
  EXPECT_TRUE(replanned);
  EXPECT_EQ(engine.current_plan().dp_degree(), new_dp);
  EXPECT_EQ(metrics.GetCounter("planner.replan_fallbacks")->Value(),
            fallbacks);
}

TEST_F(EngineTest, PlanningOverlappedWithTraining) {
  MalleusEngine engine(cluster_, cost_);
  ASSERT_TRUE(engine.Initialize(64).ok());
  straggler::Situation s(cluster_.num_gpus());
  s.SetLevel(0, 1);
  Result<StepReport> r = engine.Step(s);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->replanned);
  // Planning is fast here, so it hides entirely behind the step (S5.3).
  EXPECT_GT(r->planning_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r->planning_overflow_seconds, 0.0);
}

TEST_F(EngineTest, RecoversWhenStragglerDisappears) {
  MalleusEngine engine(cluster_, cost_);
  ASSERT_TRUE(engine.Initialize(64).ok());
  straggler::Situation healthy(cluster_.num_gpus());
  double base = 0.0;
  for (int i = 0; i < 3; ++i) base = engine.Step(healthy)->step_seconds;
  straggler::Situation s(cluster_.num_gpus());
  s.SetLevel(0, 8);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(engine.Step(s).ok());
  // Heavy straggler should be off the plan (standby).
  const auto active = engine.current_plan().ActiveGpus();
  EXPECT_EQ(std::count(active.begin(), active.end(), 0), 0);
  // Back to normal: the standby probe sees the recovery and the planner
  // re-includes GPU 0 within a couple of steps.
  double recovered = 0.0;
  for (int i = 0; i < 4; ++i) recovered = engine.Step(healthy)->step_seconds;
  const auto active2 = engine.current_plan().ActiveGpus();
  EXPECT_EQ(std::count(active2.begin(), active2.end(), 0), 1);
  EXPECT_NEAR(recovered, base, 0.1 * base);
}

TEST_F(EngineTest, FailureRecoveryViaCheckpoint) {
  MalleusEngine engine(cluster_, cost_);
  ASSERT_TRUE(engine.Initialize(64).ok());
  straggler::Situation failed(cluster_.num_gpus());
  failed.Fail(2);
  Result<StepReport> r = engine.Step(failed);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GT(r->recovery_seconds, 0.0);
  EXPECT_TRUE(r->replanned);
  const auto active = engine.current_plan().ActiveGpus();
  EXPECT_EQ(std::count(active.begin(), active.end(), 2), 0);
  // Training continues normally afterwards.
  Result<StepReport> next = engine.Step(failed);
  ASSERT_TRUE(next.ok());
  EXPECT_DOUBLE_EQ(next->recovery_seconds, 0.0);
}

TEST_F(EngineTest, InitializeWithUserPlan) {
  MalleusEngine engine(cluster_, cost_);
  Planner planner(cluster_, cost_);
  Result<PlanResult> p =
      planner.Plan(straggler::Situation(cluster_.num_gpus()), 64);
  ASSERT_TRUE(p.ok());
  const std::string sig = p->plan.Signature();
  ASSERT_TRUE(engine.InitializeWithPlan(std::move(p->plan)).ok());
  EXPECT_EQ(engine.current_plan().Signature(), sig);
  straggler::Situation healthy(cluster_.num_gpus());
  EXPECT_TRUE(engine.Step(healthy).ok());
}

}  // namespace
}  // namespace core
}  // namespace malleus
