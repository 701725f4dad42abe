// Tests for malleus::lint: the diagnostics engine (sink semantics and the
// text/JSON/SARIF renderers) and every analysis pass — one positive and
// one negative case per diagnostic code.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/engine.h"
#include "lint/diagnostic.h"
#include "lint/lint.h"
#include "model/cost_model.h"
#include "net/fabric.h"
#include "net/flow_sim.h"
#include "obs/metrics.h"
#include "plan/plan.h"
#include "plan/plan_checks.h"
#include "plan/uniform.h"
#include "scenario/scenario.h"
#include "sim/pipeline_sim.h"
#include "straggler/situation.h"
#include "topology/cluster.h"

namespace malleus {
namespace lint {
namespace {

// True iff any diagnostic `sink` collected carries `code`.
bool HasCode(const DiagnosticSink& sink, const std::string& code) {
  return std::any_of(sink.diagnostics().begin(), sink.diagnostics().end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

class LintTest : public ::testing::Test {
 protected:
  // dp=2 x tp=4 x pp=4 over all 32 GPUs, b=1, B=64 (the plan_test shape).
  plan::ParallelPlan MakeValidPlan() {
    plan::UniformConfig cfg;
    cfg.dp = 2;
    cfg.tp = 4;
    cfg.pp = 4;
    cfg.micro_batch_size = 1;
    cfg.global_batch = 64;
    Result<plan::ParallelPlan> p =
        plan::BuildUniformPlan(cluster_, cost_, cluster_.AllGpus(), cfg);
    MALLEUS_CHECK_OK(p.status());
    return std::move(p).ValueOrDie();
  }

  // Same shape on the first 16 GPUs only, leaving 16-31 free for standby.
  plan::ParallelPlan MakeSubsetPlan() {
    plan::UniformConfig cfg;
    cfg.dp = 1;
    cfg.tp = 4;
    cfg.pp = 4;
    cfg.micro_batch_size = 1;
    cfg.global_batch = 64;
    const std::vector<topo::GpuId> all = cluster_.AllGpus();
    const std::vector<topo::GpuId> half(all.begin(), all.begin() + 16);
    Result<plan::ParallelPlan> p =
        plan::BuildUniformPlan(cluster_, cost_, half, cfg);
    MALLEUS_CHECK_OK(p.status());
    return std::move(p).ValueOrDie();
  }

  // Structural codes: asserts the valid plan is free of `code` and the
  // mutated plan carries it.
  template <typename Mutate>
  void ExpectStructuralCode(const char* code, Mutate mutate) {
    DiagnosticSink clean;
    plan::LintPlanStructure(MakeValidPlan(), cluster_, cost_, &clean);
    EXPECT_FALSE(HasCode(clean, code)) << code;
    EXPECT_FALSE(clean.HasErrors());

    plan::ParallelPlan p = MakeValidPlan();
    mutate(&p);
    DiagnosticSink sink;
    plan::LintPlanStructure(p, cluster_, cost_, &sink);
    EXPECT_TRUE(HasCode(sink, code)) << code << "\n" << RenderText(sink);
    EXPECT_TRUE(sink.HasErrors());
    // Validate agrees: the same mutation rejects the plan.
    EXPECT_FALSE(p.Validate(cluster_, cost_).ok()) << code;
  }

  topo::ClusterSpec cluster_ = topo::ClusterSpec::A800Cluster(4);
  model::CostModel cost_{model::ModelSpec::Llama32B(), topo::GpuSpec()};
  straggler::Situation healthy_{32};
};

// ----- Sink + renderers ------------------------------------------------

TEST_F(LintTest, SinkCountsBySeverity) {
  DiagnosticSink sink;
  EXPECT_TRUE(sink.empty());
  sink.Report(Severity::kError, "t.err", "loc", "boom");
  sink.Report(Severity::kWarn, "t.warn", "", "meh");
  sink.Report(Severity::kNote, "t.note", "", "fyi");
  EXPECT_EQ(sink.size(), 3u);
  EXPECT_EQ(sink.num_errors(), 1);
  EXPECT_EQ(sink.num_warnings(), 1);
  EXPECT_EQ(sink.num_notes(), 1);
  EXPECT_TRUE(sink.HasErrors());
  EXPECT_TRUE(HasCode(sink, "t.warn"));
  EXPECT_FALSE(HasCode(sink, "t.missing"));
}

TEST_F(LintTest, SinkMergeAppends) {
  DiagnosticSink a, b;
  a.Report(Severity::kError, "t.a", "", "x");
  b.Report(Severity::kWarn, "t.b", "", "y");
  a.Merge(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.num_errors(), 1);
  EXPECT_EQ(a.num_warnings(), 1);
  EXPECT_TRUE(HasCode(a, "t.b"));
}

TEST_F(LintTest, SinkFailFastShouldStop) {
  DiagnosticSink sink;
  sink.set_fail_fast(true);
  EXPECT_FALSE(sink.ShouldStop());
  sink.Report(Severity::kWarn, "t.w", "", "warn does not stop");
  EXPECT_FALSE(sink.ShouldStop());
  sink.Report(Severity::kError, "t.e", "", "error stops");
  EXPECT_TRUE(sink.ShouldStop());
}

TEST_F(LintTest, DiagnosticToStringFormat) {
  Diagnostic d;
  d.code = "plan.gpu-reused";
  d.severity = Severity::kError;
  d.location = "pipeline[0].stage[1]";
  d.message = "GPU 3 used more than once";
  EXPECT_EQ(d.ToString(),
            "error[plan.gpu-reused] pipeline[0].stage[1]: "
            "GPU 3 used more than once");
  d.location.clear();
  EXPECT_EQ(d.ToString(),
            "error[plan.gpu-reused]: GPU 3 used more than once");
}

TEST_F(LintTest, RenderTextSummaryLine) {
  DiagnosticSink sink;
  EXPECT_EQ(RenderText(sink), "no diagnostics\n");
  sink.Report(Severity::kError, "t.a", "here", "first");
  sink.Report(Severity::kWarn, "t.b", "", "second");
  const std::string text = RenderText(sink);
  EXPECT_NE(text.find("error[t.a] here: first"), std::string::npos) << text;
  EXPECT_NE(text.find("1 error, 1 warning, 0 notes"), std::string::npos)
      << text;
}

TEST_F(LintTest, RenderJsonShape) {
  DiagnosticSink sink;
  sink.Report(Severity::kWarn, "plan.memory-headroom",
              "pipeline[1].stage[0]", "only 4.2% headroom",
              {{"headroom_pct", "4.2"}});
  const std::string json = RenderJson(sink);
  EXPECT_NE(json.find("\"code\":\"plan.memory-headroom\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"severity\":\"warn\""), std::string::npos);
  EXPECT_NE(json.find("\"location\":\"pipeline[1].stage[0]\""),
            std::string::npos);
  EXPECT_NE(json.find("\"headroom_pct\":\"4.2\""), std::string::npos);
  EXPECT_NE(json.find("\"errors\":0"), std::string::npos);
  EXPECT_NE(json.find("\"warnings\":1"), std::string::npos);
}

TEST_F(LintTest, RenderSarifShape) {
  DiagnosticSink sink;
  sink.Report(Severity::kError, "plan.gpu-reused", "pipeline[0].stage[1]",
              "GPU 3 used more than once", {{"gpu", "3"}});
  sink.Report(Severity::kWarn, "plan.stage-imbalance", "pipeline[0]",
              "stage times span 2x");
  const std::string sarif = RenderSarif(sink, "run.scenario");
  EXPECT_NE(sarif.find("https://json.schemastore.org/sarif-2.1.0.json"),
            std::string::npos)
      << sarif;
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\":\"malleus-lint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"id\":\"plan.gpu-reused\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\":\"plan.gpu-reused\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"level\":\"error\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\":\"warning\""), std::string::npos);
  EXPECT_NE(
      sarif.find("\"fullyQualifiedName\":\"pipeline[0].stage[1]\""),
      std::string::npos);
  EXPECT_NE(sarif.find("run.scenario"), std::string::npos);
}

TEST_F(LintTest, RecordDiagnosticMetrics) {
  auto& registry = obs::MetricsRegistry::Global();
  const double errors_before =
      registry.GetCounter("lint.errors")->Value();
  const double code_before =
      registry.GetCounter("lint.diagnostics.t.metric-probe")->Value();
  DiagnosticSink sink;
  sink.Report(Severity::kError, "t.metric-probe", "", "x");
  sink.Report(Severity::kError, "t.metric-probe", "", "y");
  RecordDiagnosticMetrics(sink);
  EXPECT_DOUBLE_EQ(registry.GetCounter("lint.errors")->Value(),
                   errors_before + 2);
  EXPECT_DOUBLE_EQ(
      registry.GetCounter("lint.diagnostics.t.metric-probe")->Value(),
      code_before + 2);
}

TEST_F(LintTest, PassRegistryCoversEveryCode) {
  const std::vector<PassInfo>& passes = Passes();
  EXPECT_GE(passes.size(), 30u);
  // Sorted and unique by code.
  for (size_t i = 1; i < passes.size(); ++i) {
    EXPECT_LT(std::string(passes[i - 1].code), passes[i].code);
  }
  const auto has = [&](const char* code) {
    for (const PassInfo& p : passes) {
      if (std::string(p.code) == code) return true;
    }
    return false;
  };
  for (const char* code :
       {plan::kLintPlanNoPipelines, plan::kLintPlanBadMicroBatch,
        plan::kLintPlanDuplicateStandby, plan::kLintPlanEmptyPipeline,
        plan::kLintPlanNoMicrobatches, plan::kLintPlanLayerCoverage,
        plan::kLintPlanEmptyStage, plan::kLintPlanBadTpDegree,
        plan::kLintPlanNegativeLayers, plan::kLintPlanInvalidGpu,
        plan::kLintPlanTpSpansNodes, plan::kLintPlanGpuReused,
        plan::kLintPlanMemoryCapacity, plan::kLintPlanBatchCoverage,
        kLintPlanStageImbalance, kLintPlanMemoryHeadroom,
        kLintPlanHealthyStandby, kLintPlanMixedTpRates, kLintPlanUnevenData,
        kLintClusterEmpty, kLintClusterBadBandwidth,
        kLintClusterNoUsableMemory, kLintSituationSizeMismatch,
        kLintSituationBadRate, kLintSituationRateAboveFit,
        kLintSituationFailedGpu, kLintScenarioUnknownModel,
        kLintScenarioUnknownPhase, kLintScenarioInvalidValue,
        kLintScenarioGpuOutOfRange, kLintScenarioDuplicateStraggler,
        kLintScenarioUnknownFabric, kLintScenarioFabricFieldIgnored,
        kLintScenarioDynamicInvalidValue, kLintScenarioDynamicSaturated,
        kLintGraphMalformedSchedule, kLintGraphDeadlock,
        kLintNetNegativeLinkBytes, kLintNetVolumeMismatch,
        kLintNetLinkOvercommit}) {
    EXPECT_TRUE(has(code)) << code;
  }
}

// ----- Structural plan checks (one code each) --------------------------

TEST_F(LintTest, PlanNoPipelines) {
  ExpectStructuralCode(plan::kLintPlanNoPipelines, [](plan::ParallelPlan* p) {
    p->pipelines.clear();
  });
}

TEST_F(LintTest, PlanBadMicroBatch) {
  ExpectStructuralCode(plan::kLintPlanBadMicroBatch,
                       [](plan::ParallelPlan* p) { p->micro_batch_size = 0; });
}

TEST_F(LintTest, PlanDuplicateStandby) {
  DiagnosticSink clean;
  plan::ParallelPlan subset = MakeSubsetPlan();
  subset.standby_gpus = {16, 17};
  plan::LintPlanStructure(subset, cluster_, cost_, &clean);
  EXPECT_FALSE(HasCode(clean, plan::kLintPlanDuplicateStandby));

  subset.standby_gpus = {16, 16};
  DiagnosticSink sink;
  plan::LintPlanStructure(subset, cluster_, cost_, &sink);
  EXPECT_TRUE(HasCode(sink, plan::kLintPlanDuplicateStandby));
  EXPECT_FALSE(subset.Validate(cluster_, cost_).ok());
}

TEST_F(LintTest, PlanEmptyPipeline) {
  ExpectStructuralCode(plan::kLintPlanEmptyPipeline,
                       [](plan::ParallelPlan* p) {
                         p->pipelines[0].stages.clear();
                       });
}

TEST_F(LintTest, PlanNoMicrobatches) {
  ExpectStructuralCode(plan::kLintPlanNoMicrobatches,
                       [](plan::ParallelPlan* p) {
                         p->pipelines[0].num_microbatches = 0;
                       });
}

TEST_F(LintTest, PlanLayerCoverage) {
  ExpectStructuralCode(plan::kLintPlanLayerCoverage,
                       [](plan::ParallelPlan* p) {
                         p->pipelines[0].stages[0].num_layers -= 1;
                       });
}

TEST_F(LintTest, PlanEmptyStage) {
  ExpectStructuralCode(plan::kLintPlanEmptyStage, [](plan::ParallelPlan* p) {
    p->pipelines[0].stages[0].group.gpus.clear();
  });
}

TEST_F(LintTest, PlanBadTpDegree) {
  ExpectStructuralCode(plan::kLintPlanBadTpDegree, [](plan::ParallelPlan* p) {
    p->pipelines[0].stages[0].group.gpus.pop_back();  // Size 3.
  });
}

TEST_F(LintTest, PlanNegativeLayers) {
  ExpectStructuralCode(plan::kLintPlanNegativeLayers,
                       [](plan::ParallelPlan* p) {
                         // Keep the pipeline total intact so only the
                         // negative count fires.
                         p->pipelines[0].stages[0].num_layers = -1;
                         p->pipelines[0].stages[1].num_layers += 16;
                       });
}

TEST_F(LintTest, PlanInvalidGpu) {
  ExpectStructuralCode(plan::kLintPlanInvalidGpu, [](plan::ParallelPlan* p) {
    p->pipelines[0].stages[0].group.gpus[0] = 999;
  });
}

TEST_F(LintTest, PlanTpSpansNodes) {
  ExpectStructuralCode(plan::kLintPlanTpSpansNodes,
                       [](plan::ParallelPlan* p) {
                         p->pipelines[0].stages[0].group.gpus[0] = 12;
                       });
}

TEST_F(LintTest, PlanGpuReused) {
  ExpectStructuralCode(plan::kLintPlanGpuReused, [](plan::ParallelPlan* p) {
    // Stage 1's first GPU is on the same node, so only reuse fires.
    p->pipelines[0].stages[0].group.gpus[0] =
        p->pipelines[0].stages[1].group.gpus[0];
  });
}

TEST_F(LintTest, PlanMemoryCapacity) {
  ExpectStructuralCode(plan::kLintPlanMemoryCapacity,
                       [](plan::ParallelPlan* p) {
                         plan::Pipeline& pipe = p->pipelines[0];
                         pipe.stages[0].num_layers = 60;
                         for (size_t j = 1; j < pipe.stages.size(); ++j) {
                           pipe.stages[j].num_layers = 0;
                         }
                       });
}

TEST_F(LintTest, PlanBatchCoverage) {
  ExpectStructuralCode(plan::kLintPlanBatchCoverage,
                       [](plan::ParallelPlan* p) {
                         p->pipelines[1].num_microbatches += 1;
                       });
}

TEST_F(LintTest, CollectAllModeReportsMultipleErrors) {
  plan::ParallelPlan p = MakeValidPlan();
  p.micro_batch_size = 0;
  p.pipelines[0].stages[0].num_layers -= 1;
  DiagnosticSink sink;  // Collect-all (no fail-fast).
  plan::LintPlanStructure(p, cluster_, cost_, &sink);
  EXPECT_TRUE(HasCode(sink, plan::kLintPlanBadMicroBatch));
  EXPECT_TRUE(HasCode(sink, plan::kLintPlanLayerCoverage));
  EXPECT_GE(sink.num_errors(), 2);
  // Fail-fast mode stops at the first.
  DiagnosticSink fast;
  fast.set_fail_fast(true);
  plan::LintPlanStructure(p, cluster_, cost_, &fast);
  EXPECT_EQ(fast.num_errors(), 1);
}

TEST_F(LintTest, ValidateMatchesFirstDiagnostic) {
  // Validate's Status must be byte-for-byte the fail-fast first finding.
  const auto check = [&](plan::ParallelPlan p) {
    DiagnosticSink fast;
    fast.set_fail_fast(true);
    plan::LintPlanStructure(p, cluster_, cost_, &fast);
    ASSERT_TRUE(fast.HasErrors());
    const Status expected =
        plan::StatusFromPlanDiagnostic(fast.diagnostics().front());
    const Status actual = p.Validate(cluster_, cost_);
    EXPECT_EQ(actual.code(), expected.code());
    EXPECT_EQ(actual.message(), expected.message());
  };
  plan::ParallelPlan a = MakeValidPlan();
  a.pipelines.clear();
  check(a);
  plan::ParallelPlan b = MakeValidPlan();
  b.pipelines[0].stages[0].group.gpus[0] =
      b.pipelines[1].stages[0].group.gpus[0];
  check(b);
  plan::ParallelPlan c = MakeValidPlan();
  c.pipelines[0].num_microbatches += 3;
  check(c);
}

// ----- Plan quality passes ---------------------------------------------

TEST_F(LintTest, PlanStageImbalance) {
  const plan::ParallelPlan p = MakeValidPlan();
  DiagnosticSink clean;
  LintPlanQuality(p, cluster_, cost_, healthy_, &clean);
  EXPECT_FALSE(HasCode(clean, kLintPlanStageImbalance));

  straggler::Situation skew(cluster_.num_gpus());
  skew.SetRate(0, 3.0);  // Stage 0 of pipeline 0 runs 3x slower.
  DiagnosticSink sink;
  LintPlanQuality(p, cluster_, cost_, skew, &sink);
  EXPECT_TRUE(HasCode(sink, kLintPlanStageImbalance)) << RenderText(sink);
  EXPECT_FALSE(sink.HasErrors());  // Warn-level only.
}

TEST_F(LintTest, PlanMemoryHeadroom) {
  const plan::ParallelPlan p = MakeValidPlan();
  DiagnosticSink clean;
  LintPlanQuality(p, cluster_, cost_, healthy_, &clean);
  EXPECT_FALSE(HasCode(clean, kLintPlanMemoryHeadroom));

  // Shrink the GPU so the same plan sits ~5% under capacity.
  const double used = plan::StageMemoryBytesPerGpu(p, 0, 0, cost_);
  topo::GpuSpec tight;
  tight.memory_bytes =
      tight.reserved_bytes + static_cast<uint64_t>(used * 1.05);
  const model::CostModel tight_cost(model::ModelSpec::Llama32B(), tight);
  DiagnosticSink sink;
  LintPlanQuality(p, cluster_, tight_cost, healthy_, &sink);
  EXPECT_TRUE(HasCode(sink, kLintPlanMemoryHeadroom)) << RenderText(sink);
}

TEST_F(LintTest, PlanHealthyStandby) {
  plan::ParallelPlan p = MakeSubsetPlan();
  p.standby_gpus = {16};
  straggler::Situation straggling(cluster_.num_gpus());
  straggling.SetLevel(16, 2);  // Standby for cause: it is a straggler.
  DiagnosticSink clean;
  LintPlanQuality(p, cluster_, cost_, straggling, &clean);
  EXPECT_FALSE(HasCode(clean, kLintPlanHealthyStandby));

  DiagnosticSink sink;
  LintPlanQuality(p, cluster_, cost_, healthy_, &sink);
  EXPECT_TRUE(HasCode(sink, kLintPlanHealthyStandby)) << RenderText(sink);
}

TEST_F(LintTest, PlanMixedTpRates) {
  const plan::ParallelPlan p = MakeValidPlan();
  DiagnosticSink clean;
  LintPlanQuality(p, cluster_, cost_, healthy_, &clean);
  EXPECT_FALSE(HasCode(clean, kLintPlanMixedTpRates));

  straggler::Situation mixed(cluster_.num_gpus());
  mixed.SetRate(0, 2.0);  // GPU 0 shares a TP group with healthy 1, 2, 3.
  DiagnosticSink sink;
  LintPlanQuality(p, cluster_, cost_, mixed, &sink);
  EXPECT_TRUE(HasCode(sink, kLintPlanMixedTpRates)) << RenderText(sink);
}

TEST_F(LintTest, PlanUnevenData) {
  plan::ParallelPlan p = MakeValidPlan();
  DiagnosticSink clean;
  LintPlanQuality(p, cluster_, cost_, healthy_, &clean);
  EXPECT_FALSE(HasCode(clean, kLintPlanUnevenData));

  // Equal bottlenecks (healthy, identical pipelines) but m = 31 vs 33.
  p.pipelines[0].num_microbatches = 31;
  p.pipelines[1].num_microbatches = 33;
  DiagnosticSink sink;
  LintPlanQuality(p, cluster_, cost_, healthy_, &sink);
  EXPECT_TRUE(HasCode(sink, kLintPlanUnevenData)) << RenderText(sink);
}

TEST_F(LintTest, LintPlanSkipsQualityOnStructuralErrors) {
  plan::ParallelPlan p = MakeValidPlan();
  p.micro_batch_size = 0;  // Structurally broken.
  DiagnosticSink sink;
  LintPlan(p, cluster_, cost_, &healthy_, &sink);
  EXPECT_TRUE(sink.HasErrors());
  EXPECT_EQ(sink.num_warnings(), 0);
}

// ----- Cluster / situation / scenario passes ---------------------------

TEST_F(LintTest, ClusterEmpty) {
  DiagnosticSink clean;
  LintCluster(cluster_, &clean);
  EXPECT_TRUE(clean.empty()) << RenderText(clean);

  DiagnosticSink sink;
  LintCluster(topo::ClusterSpec(), &sink);
  EXPECT_TRUE(HasCode(sink, kLintClusterEmpty));
}

TEST_F(LintTest, ClusterBadBandwidth) {
  topo::LinkSpec link;
  link.inter_node_gbps = 0.0;
  const topo::ClusterSpec broken(4, 8, topo::GpuSpec(), link);
  DiagnosticSink sink;
  LintCluster(broken, &sink);
  EXPECT_TRUE(HasCode(sink, kLintClusterBadBandwidth));

  // A single-node cluster never crosses the inter-node fabric, so the
  // same link spec is fine there.
  DiagnosticSink single;
  LintCluster(topo::ClusterSpec(1, 8, topo::GpuSpec(), link), &single);
  EXPECT_FALSE(HasCode(single, kLintClusterBadBandwidth));
}

TEST_F(LintTest, ClusterNoUsableMemory) {
  topo::GpuSpec gpu;
  gpu.memory_bytes = 1ULL << 30;
  gpu.reserved_bytes = 4096ULL << 20;  // Reserve swallows everything.
  DiagnosticSink sink;
  LintCluster(topo::ClusterSpec(4, 8, gpu), &sink);
  EXPECT_TRUE(HasCode(sink, kLintClusterNoUsableMemory));
}

TEST_F(LintTest, SituationSizeMismatch) {
  DiagnosticSink clean;
  LintSituation(cluster_, healthy_, &clean);
  EXPECT_TRUE(clean.empty());

  DiagnosticSink sink;
  LintSituation(cluster_, straggler::Situation(8), &sink);
  EXPECT_TRUE(HasCode(sink, kLintSituationSizeMismatch));
}

TEST_F(LintTest, SituationBadRate) {
  straggler::Situation s(cluster_.num_gpus());
  s.SetRate(3, 0.5);  // Below 1: faster than healthy is not a slowdown.
  DiagnosticSink sink;
  LintSituation(cluster_, s, &sink);
  EXPECT_TRUE(HasCode(sink, kLintSituationBadRate));

  s.SetRate(3, 1.0);
  DiagnosticSink clean;
  LintSituation(cluster_, s, &clean);
  EXPECT_FALSE(HasCode(clean, kLintSituationBadRate));
}

TEST_F(LintTest, SituationRateAboveFit) {
  straggler::Situation s(cluster_.num_gpus());
  s.SetRate(3, 20.0);  // Beyond level 8 (x = 12.52).
  DiagnosticSink sink;
  LintSituation(cluster_, s, &sink);
  EXPECT_TRUE(HasCode(sink, kLintSituationRateAboveFit));
  EXPECT_FALSE(sink.HasErrors());  // Extrapolation is a warning.

  s.SetRate(3, straggler::RateForLevel(8));
  DiagnosticSink clean;
  LintSituation(cluster_, s, &clean);
  EXPECT_FALSE(HasCode(clean, kLintSituationRateAboveFit));
}

TEST_F(LintTest, SituationFailedGpu) {
  straggler::Situation s(cluster_.num_gpus());
  s.Fail(7);
  DiagnosticSink sink;
  LintSituation(cluster_, s, &sink);
  EXPECT_TRUE(HasCode(sink, kLintSituationFailedGpu));
  EXPECT_FALSE(sink.HasErrors());  // A note, not an error.
  EXPECT_EQ(sink.num_notes(), 1);
}

TEST_F(LintTest, ScenarioUnknownModel) {
  scenario::ScenarioSpec spec;
  DiagnosticSink clean;
  scenario::CheckScenario(spec, &clean);
  EXPECT_TRUE(clean.empty()) << RenderText(clean);

  spec.model = "13b";
  DiagnosticSink sink;
  scenario::CheckScenario(spec, &sink);
  EXPECT_TRUE(HasCode(sink, kLintScenarioUnknownModel));
}

TEST_F(LintTest, ScenarioUnknownPhase) {
  scenario::ScenarioSpec spec;
  spec.phases = {"normal", "s9"};
  DiagnosticSink sink;
  scenario::CheckScenario(spec, &sink);
  EXPECT_TRUE(HasCode(sink, kLintScenarioUnknownPhase));

  spec.phases = {"normal", "s6"};
  DiagnosticSink clean;
  scenario::CheckScenario(spec, &clean);
  EXPECT_FALSE(HasCode(clean, kLintScenarioUnknownPhase));
}

TEST_F(LintTest, ScenarioInvalidValue) {
  scenario::ScenarioSpec spec;
  spec.batch = 0;
  spec.net_model = "carrier-pigeon";
  DiagnosticSink sink;
  scenario::CheckScenario(spec, &sink);
  EXPECT_TRUE(HasCode(sink, kLintScenarioInvalidValue));
  EXPECT_GE(sink.num_errors(), 2);  // Both findings, one pass.
}

TEST_F(LintTest, ScenarioUnknownFabric) {
  scenario::ScenarioSpec spec;
  spec.fabric = "torus";
  DiagnosticSink sink;
  scenario::CheckScenario(spec, &sink);
  EXPECT_TRUE(HasCode(sink, kLintScenarioUnknownFabric));
  EXPECT_TRUE(sink.HasErrors());

  scenario::ScenarioSpec ok;
  ok.fabric = "fat-tree";
  ok.nodes = 4;
  ok.nodes_per_pod = 2;
  DiagnosticSink clean;
  scenario::CheckScenario(ok, &clean);
  EXPECT_TRUE(clean.empty()) << RenderText(clean);
}

TEST_F(LintTest, ScenarioFabricFieldValidation) {
  // Fat-tree with a pod size that does not divide the nodes: error.
  scenario::ScenarioSpec bad_pod;
  bad_pod.fabric = "fat-tree";
  bad_pod.nodes = 4;
  bad_pod.nodes_per_pod = 3;
  DiagnosticSink pod_sink;
  scenario::CheckScenario(bad_pod, &pod_sink);
  EXPECT_TRUE(HasCode(pod_sink, kLintScenarioInvalidValue));

  // Fat-tree without a pod size: error.
  scenario::ScenarioSpec no_pod;
  no_pod.fabric = "fat-tree";
  DiagnosticSink no_pod_sink;
  scenario::CheckScenario(no_pod, &no_pod_sink);
  EXPECT_TRUE(HasCode(no_pod_sink, kLintScenarioInvalidValue));

  // Oversubscription below 1 on a hierarchical fabric: error.
  scenario::ScenarioSpec bad_oversub;
  bad_oversub.fabric = "rail";
  bad_oversub.oversubscription = 0.5;
  DiagnosticSink oversub_sink;
  scenario::CheckScenario(bad_oversub, &oversub_sink);
  EXPECT_TRUE(HasCode(oversub_sink, kLintScenarioInvalidValue));

  // Fields that do not apply to the chosen kind: warn, not error.
  scenario::ScenarioSpec stray;
  stray.fabric = "flat";
  stray.nodes_per_pod = 2;
  stray.oversubscription = 4.0;
  DiagnosticSink stray_sink;
  scenario::CheckScenario(stray, &stray_sink);
  EXPECT_TRUE(HasCode(stray_sink, kLintScenarioFabricFieldIgnored));
  EXPECT_FALSE(stray_sink.HasErrors());
}

TEST_F(LintTest, ScenarioDynamicInvalidValue) {
  // A well-formed dynamic block lints clean.
  scenario::ScenarioSpec ok;
  ok.dynamic.enabled = true;
  ok.dynamic.straggle_rate = 0.002;
  ok.dynamic.fail_rate = 0.0002;
  ok.dynamic.recover_iters = 40;
  DiagnosticSink clean;
  scenario::CheckScenario(ok, &clean);
  EXPECT_TRUE(clean.empty()) << RenderText(clean);

  scenario::ScenarioSpec spec;
  spec.dynamic.enabled = true;
  spec.dynamic.iterations = 0;
  spec.dynamic.straggle_rate = 1.5;
  spec.dynamic.max_level = 9;
  DiagnosticSink sink;
  scenario::CheckScenario(spec, &sink);
  EXPECT_TRUE(HasCode(sink, kLintScenarioDynamicInvalidValue));
  EXPECT_GE(sink.num_errors(), 3);  // All three findings, one pass.

  // NaN rates are invalid, not silently in-range.
  scenario::ScenarioSpec nan_spec;
  nan_spec.dynamic.enabled = true;
  nan_spec.dynamic.fail_rate = std::nan("");
  DiagnosticSink nan_sink;
  scenario::CheckScenario(nan_spec, &nan_sink);
  EXPECT_TRUE(HasCode(nan_sink, kLintScenarioDynamicInvalidValue));
}

TEST_F(LintTest, ScenarioDynamicSaturated) {
  // 32 GPUs, per-GPU straggle probability 0.05/iter, mean heal 100 iters:
  // ~160 expected concurrent faults >> 16 = num_gpus / 2.
  scenario::ScenarioSpec spec;
  spec.dynamic.enabled = true;
  spec.dynamic.straggle_rate = 0.05;
  spec.dynamic.recover_iters = 100;
  DiagnosticSink sink;
  scenario::CheckScenario(spec, &sink);
  EXPECT_TRUE(HasCode(sink, kLintScenarioDynamicSaturated));
  EXPECT_FALSE(sink.HasErrors());  // A warning, not an error.

  spec.dynamic.straggle_rate = 0.001;
  spec.dynamic.recover_iters = 50;
  DiagnosticSink clean;
  scenario::CheckScenario(spec, &clean);
  EXPECT_FALSE(HasCode(clean, kLintScenarioDynamicSaturated));
}

TEST_F(LintTest, ScenarioGpuOutOfRange) {
  scenario::ScenarioSpec spec;  // 4 x 8 = 32 GPUs.
  scenario::StragglerEntry entry;
  entry.gpu = 99;
  entry.level = 2;
  spec.stragglers = {entry};
  DiagnosticSink sink;
  scenario::CheckScenario(spec, &sink);
  EXPECT_TRUE(HasCode(sink, kLintScenarioGpuOutOfRange));

  spec.stragglers[0].gpu = 31;
  DiagnosticSink clean;
  scenario::CheckScenario(spec, &clean);
  EXPECT_FALSE(HasCode(clean, kLintScenarioGpuOutOfRange));
}

TEST_F(LintTest, ScenarioDuplicateStraggler) {
  scenario::ScenarioSpec spec;
  scenario::StragglerEntry a, b;
  a.gpu = 3;
  a.level = 1;
  b.gpu = 3;
  b.level = 2;
  spec.stragglers = {a, b};
  DiagnosticSink sink;
  scenario::CheckScenario(spec, &sink);
  EXPECT_TRUE(HasCode(sink, kLintScenarioDuplicateStraggler));

  spec.stragglers[1].gpu = 4;
  DiagnosticSink clean;
  scenario::CheckScenario(spec, &clean);
  EXPECT_FALSE(HasCode(clean, kLintScenarioDuplicateStraggler));
}

TEST_F(LintTest, ScenarioRateAndLevelRanges) {
  scenario::ScenarioSpec spec;
  scenario::StragglerEntry bad_rate, high_level;
  bad_rate.gpu = 1;
  bad_rate.is_rate = true;
  bad_rate.rate = 0.25;
  high_level.gpu = 2;
  high_level.level = 9;
  spec.stragglers = {bad_rate, high_level};
  DiagnosticSink sink;
  scenario::CheckScenario(spec, &sink);
  EXPECT_TRUE(HasCode(sink, kLintSituationBadRate));
  EXPECT_TRUE(HasCode(sink, kLintSituationRateAboveFit));
}

// ----- Event-graph passes ----------------------------------------------

TEST_F(LintTest, Built1F1BSchedulesAreClean) {
  for (int pp : {1, 2, 4, 8}) {
    const int64_t m = 8;
    std::vector<std::vector<sim::StageTask>> per_stage(pp);
    for (int j = 0; j < pp; ++j) {
      per_stage[j] = sim::Build1F1BSchedule(j, pp, m);
    }
    DiagnosticSink sink;
    LintPipelineSchedule(per_stage, m, "pipeline[0]", &sink);
    EXPECT_TRUE(sink.empty()) << "pp=" << pp << "\n" << RenderText(sink);
  }
}

TEST_F(LintTest, GraphMalformedSchedule) {
  // pp=1, m=2 but micro-batch 1's backward is missing.
  std::vector<std::vector<sim::StageTask>> per_stage(1);
  per_stage[0] = {{true, 0}, {false, 0}, {true, 1}};
  DiagnosticSink sink;
  LintPipelineSchedule(per_stage, 2, "", &sink);
  EXPECT_TRUE(HasCode(sink, kLintGraphMalformedSchedule));
  // No deadlock piled on top: playback of a non-permutation is skipped.
  EXPECT_FALSE(HasCode(sink, kLintGraphDeadlock));
}

TEST_F(LintTest, GraphDeadlock) {
  // A complete permutation that orders the backward before its own
  // forward: topologically impossible.
  std::vector<std::vector<sim::StageTask>> per_stage(1);
  per_stage[0] = {{false, 0}, {true, 0}};
  DiagnosticSink sink;
  LintPipelineSchedule(per_stage, 1, "pipeline[2]", &sink);
  EXPECT_TRUE(HasCode(sink, kLintGraphDeadlock)) << RenderText(sink);
  EXPECT_EQ(sink.diagnostics().front().location, "pipeline[2].stage[0]");
}

TEST_F(LintTest, GraphCrossStageDeadlock) {
  // Two stages; stage 1 demands micro 1's forward before stage 0 has
  // produced it — stage orders that cannot interleave.
  std::vector<std::vector<sim::StageTask>> per_stage(2);
  per_stage[0] = {{true, 0}, {false, 0}, {true, 1}, {false, 1}};
  per_stage[1] = {{true, 1}, {false, 1}, {true, 0}, {false, 0}};
  DiagnosticSink sink;
  LintPipelineSchedule(per_stage, 2, "", &sink);
  EXPECT_TRUE(HasCode(sink, kLintGraphDeadlock)) << RenderText(sink);
}

TEST_F(LintTest, LintEventGraphOnValidPlan) {
  DiagnosticSink sink;
  LintEventGraph(MakeValidPlan(), &sink);
  EXPECT_TRUE(sink.empty()) << RenderText(sink);
}

// ----- Flow-conservation passes ----------------------------------------

TEST_F(LintTest, FlowAuditOfRealRunIsClean) {
  const net::Fabric fabric(cluster_);
  net::FlowSim sim(fabric);
  net::Flow flow;
  flow.src = 0;
  flow.dst = 9;  // Cross-node: exercises NVLink ports and both NICs.
  flow.bytes = 1 << 20;
  sim.Submit(flow);
  sim.Run();
  const FlowAudit audit = AuditFlowSim(sim);
  EXPECT_DOUBLE_EQ(audit.total_flow_bytes, 1 << 20);
  EXPECT_EQ(audit.link_bytes.size(),
            static_cast<size_t>(fabric.num_links()));
  DiagnosticSink sink;
  LintFlowConservation(audit, 1 << 20, 1e-6, &sink);
  EXPECT_TRUE(sink.empty()) << RenderText(sink);
}

TEST_F(LintTest, NetNegativeLinkBytes) {
  FlowAudit audit;
  audit.total_flow_bytes = 100.0;
  audit.link_bytes = {-5.0};
  audit.link_peak_utilization = {0.5};
  audit.link_names = {"gpu0.out"};
  DiagnosticSink sink;
  LintFlowConservation(audit, 100.0, 1e-6, &sink);
  EXPECT_TRUE(HasCode(sink, kLintNetNegativeLinkBytes));
}

TEST_F(LintTest, NetLinkOvercommit) {
  FlowAudit audit;
  audit.total_flow_bytes = 100.0;
  audit.link_bytes = {100.0};
  audit.link_peak_utilization = {1.5};  // 150% of capacity.
  audit.link_names = {"node0.nic.out"};
  DiagnosticSink sink;
  LintFlowConservation(audit, 100.0, 1e-6, &sink);
  EXPECT_TRUE(HasCode(sink, kLintNetLinkOvercommit));

  audit.link_peak_utilization = {1.0};  // Saturated is legal.
  DiagnosticSink clean;
  LintFlowConservation(audit, 100.0, 1e-6, &clean);
  EXPECT_FALSE(HasCode(clean, kLintNetLinkOvercommit));
}

TEST_F(LintTest, NetVolumeMismatch) {
  FlowAudit audit;
  audit.total_flow_bytes = 90.0;
  DiagnosticSink sink;
  LintFlowConservation(audit, 100.0, 1e-6, &sink);
  EXPECT_TRUE(HasCode(sink, kLintNetVolumeMismatch));

  audit.total_flow_bytes = 100.0;
  DiagnosticSink clean;
  LintFlowConservation(audit, 100.0, 1e-6, &clean);
  EXPECT_FALSE(HasCode(clean, kLintNetVolumeMismatch));
}

// ----- Engine integration ----------------------------------------------

TEST_F(LintTest, EngineRefusesErrorPlans) {
  core::MalleusEngine engine(cluster_, cost_);
  plan::ParallelPlan broken = MakeValidPlan();
  broken.pipelines[0].stages[0].group.gpus[0] =
      broken.pipelines[1].stages[0].group.gpus[0];  // GPU reused.
  const Status refused = engine.InitializeWithPlan(std::move(broken));
  EXPECT_FALSE(refused.ok());
  EXPECT_NE(refused.message().find("plan refused"), std::string::npos)
      << refused.ToString();
  EXPECT_NE(refused.message().find(plan::kLintPlanGpuReused),
            std::string::npos)
      << refused.ToString();

  // And accepts a clean plan.
  core::MalleusEngine ok_engine(cluster_, cost_);
  EXPECT_TRUE(ok_engine.InitializeWithPlan(MakeValidPlan()).ok());
}

}  // namespace
}  // namespace lint
}  // namespace malleus
