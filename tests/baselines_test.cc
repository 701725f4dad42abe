// Tests for src/baselines: Megatron (static + restart), DeepSpeed (analytic
// ZeRO-3 model + config tuner), Oobleck (template migration vs restart),
// the Malleus engine as a framework, and the trace runner.

#include <gtest/gtest.h>

#include <memory>

#include "baselines/deepspeed.h"
#include "baselines/megatron.h"
#include "baselines/oobleck.h"
#include "baselines/trace_runner.h"
#include "common/file_util.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "net/fabric.h"

namespace malleus {
namespace baselines {
namespace {

class BaselinesTest : public ::testing::Test {
 protected:
  straggler::Situation Healthy() {
    return straggler::Situation(cluster_.num_gpus());
  }
  straggler::Situation WithStraggler(int gpu, int level) {
    straggler::Situation s(cluster_.num_gpus());
    s.SetLevel(gpu, level);
    return s;
  }

  topo::ClusterSpec cluster_ = topo::ClusterSpec::A800Cluster(4);
  model::CostModel cost_{model::ModelSpec::Llama32B(), topo::GpuSpec()};
};

TEST_F(BaselinesTest, MegatronStaticSuffersFromStraggler) {
  MegatronBaseline m(cluster_, cost_, MegatronOptions());
  ASSERT_TRUE(m.Initialize(64).ok());
  const double base = m.Step(Healthy())->TotalSeconds();
  Result<core::StepReport> t = m.OnSituationChange(WithStraggler(0, 3));
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ(t->recovery_seconds, 0.0);  // Static: nothing happens.
  const double slow = m.Step(WithStraggler(0, 3))->TotalSeconds();
  EXPECT_GT(slow, 3.0 * base);  // ~5.3x straggler dominates the pipeline.
}

TEST_F(BaselinesTest, MegatronRestartExcludesNodeAndPaysOverhead) {
  MegatronOptions opts;
  opts.with_restart = true;
  MegatronBaseline m(cluster_, cost_, opts);
  ASSERT_TRUE(m.Initialize(64).ok());
  const double base = m.Step(Healthy())->TotalSeconds();
  Result<core::StepReport> t = m.OnSituationChange(WithStraggler(0, 3));
  ASSERT_TRUE(t.ok());
  EXPECT_GT(t->recovery_seconds, 60.0);  // Checkpoint + init + reload.
  EXPECT_DOUBLE_EQ(t->step_seconds, 0.0);  // A change point trains nothing.
  const double after = m.Step(WithStraggler(0, 3))->TotalSeconds();
  // Runs straggler-free on 3 of 4 nodes: slower than 4 nodes but far
  // better than dragging the straggler along.
  EXPECT_GT(after, base);
  EXPECT_LT(after, 2.0 * base);
  // Re-admitting the node needs another restart.
  Result<core::StepReport> back = m.OnSituationChange(Healthy());
  ASSERT_TRUE(back.ok());
  EXPECT_GT(back->recovery_seconds, 60.0);
}

TEST_F(BaselinesTest, MegatronRestartNoOpWhenNodeSetUnchanged) {
  MegatronOptions opts;
  opts.with_restart = true;
  MegatronBaseline m(cluster_, cost_, opts);
  ASSERT_TRUE(m.Initialize(64).ok());
  ASSERT_TRUE(m.OnSituationChange(WithStraggler(0, 1)).ok());
  Result<core::StepReport> again = m.OnSituationChange(WithStraggler(0, 3));
  ASSERT_TRUE(again.ok());
  EXPECT_DOUBLE_EQ(again->recovery_seconds, 0.0);
}

TEST_F(BaselinesTest, DeepSpeedGloballySensitiveToOneStraggler) {
  DeepSpeedBaseline d(cluster_, cost_, DeepSpeedOptions());
  ASSERT_TRUE(d.Initialize(64).ok());
  const double base = d.Step(Healthy())->TotalSeconds();
  const double slow = d.Step(WithStraggler(5, 1))->TotalSeconds();
  // One level-1 straggler roughly doubles the step (paper: ~2x).
  EXPECT_GT(slow, 1.6 * base);
  EXPECT_LT(slow, 2.6 * base);
}

TEST_F(BaselinesTest, DeepSpeedCoLocatedStragglersCompound) {
  DeepSpeedBaseline d(cluster_, cost_, DeepSpeedOptions());
  ASSERT_TRUE(d.Initialize(64).ok());
  straggler::Situation one = WithStraggler(0, 1);
  straggler::Situation node(cluster_.num_gpus());
  for (int g = 0; g < 8; ++g) node.SetLevel(g, 1);
  EXPECT_GT(d.Step(node)->TotalSeconds(),
            1.8 * d.Step(one)->TotalSeconds());
}

TEST_F(BaselinesTest, DeepSpeedMfuGrowsWithModelScale) {
  DeepSpeedBaseline small(cluster_, cost_, DeepSpeedOptions());
  const model::CostModel big_cost(model::ModelSpec::Llama110B(),
                                  topo::GpuSpec());
  DeepSpeedBaseline big(cluster_, big_cost, DeepSpeedOptions());
  // Paper Table 2: 29.6% (32B) vs 52.9% (110B).
  EXPECT_LT(small.HealthyMfu(), 0.35);
  EXPECT_GT(big.HealthyMfu(), 0.45);
}

TEST_F(BaselinesTest, DeepSpeedTunerRespectsMemory) {
  DeepSpeedBaseline d(cluster_, cost_, DeepSpeedOptions());
  ASSERT_TRUE(d.Initialize(64).ok());
  Result<DeepSpeedConfig> full = d.TuneConfig(32);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->dp * full->sp, 32);
  // 8 GPUs: ZeRO-3 states balloon per GPU; AC becomes mandatory.
  Result<DeepSpeedConfig> small = d.TuneConfig(8);
  ASSERT_TRUE(small.ok()) << small.status();
  EXPECT_TRUE(small->activation_ckpt);
}

TEST_F(BaselinesTest, OobleckOverheadEvenWhenHealthy) {
  OobleckBaseline o(cluster_, cost_);
  MegatronBaseline m(cluster_, cost_, MegatronOptions());
  ASSERT_TRUE(o.Initialize(64).ok());
  ASSERT_TRUE(m.Initialize(64).ok());
  EXPECT_GT(o.Step(Healthy())->TotalSeconds(),
            1.5 * m.Step(Healthy())->TotalSeconds());
}

TEST_F(BaselinesTest, OobleckMigratesOnNodeLossRestartsOnRecovery) {
  OobleckBaseline o(cluster_, cost_);
  ASSERT_TRUE(o.Initialize(64).ok());
  // Losing a node: template exists -> migration.
  Result<core::StepReport> lose = o.OnSituationChange(WithStraggler(0, 2));
  ASSERT_TRUE(lose.ok());
  EXPECT_GT(lose->migration_seconds, 0.0);
  EXPECT_DOUBLE_EQ(lose->recovery_seconds, 0.0);
  EXPECT_FALSE(o.last_transition_restarted());
  // Node recovers: re-integration needs a restart.
  Result<core::StepReport> recover = o.OnSituationChange(Healthy());
  ASSERT_TRUE(recover.ok());
  EXPECT_GT(recover->recovery_seconds, 0.0);
  EXPECT_TRUE(o.last_transition_restarted());
}

TEST_F(BaselinesTest, OobleckRestartsWhenTemplateMissing) {
  OobleckBaseline o(cluster_, cost_);
  ASSERT_TRUE(o.Initialize(64).ok());
  // Stragglers on 3 of 4 nodes: the 1-node template does not exist.
  straggler::Situation s(cluster_.num_gpus());
  s.SetLevel(0, 1);
  s.SetLevel(8, 2);
  s.SetLevel(16, 3);
  Result<core::StepReport> t = o.OnSituationChange(s);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(o.last_transition_restarted());
}

TEST_F(BaselinesTest, MalleusAdapterRunsTrace) {
  core::MalleusEngine fw(cluster_, cost_);
  const auto trace = straggler::StandardTrace(/*steps_per_phase=*/4);
  Result<std::vector<PhaseStats>> stats =
      RunTrace(&fw, cluster_, trace, 64);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_EQ(stats->size(), trace.size());
  for (const PhaseStats& p : *stats) {
    EXPECT_EQ(p.step_seconds.size(), 4u);
    EXPECT_GT(p.mean_step_seconds, 0.0);
  }
}

TEST_F(BaselinesTest, TraceRunnerExcludesTransientSteps) {
  MegatronBaseline m(cluster_, cost_, MegatronOptions());
  TraceRunOptions opts;
  opts.warmup_steps = 2;
  Result<std::vector<PhaseStats>> stats = RunTrace(
      &m, cluster_, {{straggler::SituationId::kNormal, 5}}, 64, opts);
  ASSERT_TRUE(stats.ok());
  const PhaseStats& p = stats->front();
  double tail_mean = 0.0;
  for (size_t i = 2; i < 5; ++i) tail_mean += p.step_seconds[i];
  tail_mean /= 3.0;
  EXPECT_NEAR(p.mean_step_seconds, tail_mean, 1e-12);
}

TEST_F(BaselinesTest, TraceRunnerRejectsPhasesWithoutSteps) {
  for (int steps : {0, -1}) {
    MegatronBaseline m(cluster_, cost_, MegatronOptions());
    Result<std::vector<PhaseStats>> stats =
        RunTrace(&m, cluster_,
                 {{straggler::SituationId::kNormal, 2},
                  {straggler::SituationId::kS1, steps}},
                 64);
    ASSERT_FALSE(stats.ok());
    EXPECT_TRUE(stats.status().IsInvalidArgument()) << stats.status();
    EXPECT_NE(stats.status().message().find("phase 1"), std::string::npos)
        << stats.status();
  }
}

// Figure 7 protocol on 32B / 4x8 for every framework of Table 2 plus
// Oobleck: per phase, the mean step time, the transition overheads and
// every step time (the warm-up steps carry Malleus' detect-and-migrate
// transient). Pins the baselines' calibration constants, the restart
// costs and the engine's profiler/re-plan loop at 9 significant digits.
// Every framework prices communication with the process-default net model,
// so there is one golden per model.
std::string RenderFig7Golden(const topo::ClusterSpec& cluster,
                             const model::CostModel& cost) {
  core::EngineOptions engine;
  engine.planning_seconds_override = 0.02;  // Wall time stays out.
  std::vector<std::unique_ptr<core::TrainingFramework>> frameworks;
  frameworks.push_back(
      std::make_unique<core::MalleusEngine>(cluster, cost, engine));
  for (bool restart : {false, true}) {
    MegatronOptions megatron;
    megatron.with_restart = restart;
    frameworks.push_back(
        std::make_unique<MegatronBaseline>(cluster, cost, megatron));
    DeepSpeedOptions deepspeed;
    deepspeed.with_restart = restart;
    frameworks.push_back(
        std::make_unique<DeepSpeedBaseline>(cluster, cost, deepspeed));
  }
  frameworks.push_back(std::make_unique<OobleckBaseline>(cluster, cost));

  const auto trace = straggler::StandardTrace(/*steps_per_phase=*/5);
  std::string out;
  for (const auto& framework : frameworks) {
    out += framework->name() + "\n";
    Result<std::vector<PhaseStats>> phases =
        RunTrace(framework.get(), cluster, trace, 64);
    if (!phases.ok()) {
      out += "  failed: " + phases.status().ToString() + "\n";
      continue;
    }
    for (const PhaseStats& p : *phases) {
      out += StrFormat("  %s mean=%s restart=%s migration=%s steps=",
                       straggler::SituationName(p.situation),
                       JsonNumber(p.mean_step_seconds).c_str(),
                       JsonNumber(p.restart_seconds).c_str(),
                       JsonNumber(p.migration_seconds).c_str());
      for (size_t s = 0; s < p.step_seconds.size(); ++s) {
        out += (s == 0 ? "" : ",") + JsonNumber(p.step_seconds[s]);
      }
      out += "\n";
    }
  }
  return out;
}

// On a mismatch the current rendering is written to TempDir(); copy it over
// the golden only for a deliberate behavior change.
TEST_F(BaselinesTest, Fig7GoldenPinsAllFiveFrameworks) {
  const std::string rendered = RenderFig7Golden(cluster_, cost_);
  const std::string name = StrFormat(
      "fig7_frameworks_%s", net::NetModelName(net::DefaultNetModel()));
  const std::string golden_path =
      std::string(MALLEUS_GOLDEN_DIR) + "/" + name + ".golden";
  Result<std::string> golden = ReadFileBytes(golden_path);
  if (!golden.ok() || *golden != rendered) {
    const std::string actual_path = ::testing::TempDir() + "/" + name;
    ASSERT_TRUE(WriteFileBytes(actual_path, rendered).ok());
    ADD_FAILURE() << golden_path << " differs from the rendering written to "
                  << actual_path;
  }
}

}  // namespace
}  // namespace baselines
}  // namespace malleus
