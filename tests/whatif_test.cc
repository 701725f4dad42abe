// Tests for the what-if attribution engine and its recorded-run plumbing:
// bundle round-trips (and the Status — never a crash — on truncated,
// edited or manifest-less bundles), the counterfactual grammar, the
// planner's forced_tp constraint, scenario::ImpliedSituations, and the
// engine itself — determinism across thread counts, injected-straggler
// attribution, and error-row isolation.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "core/planner.h"
#include "obs/bundle.h"
#include "obs/report.h"
#include "scenario/counterfactual.h"
#include "scenario/scenario.h"
#include "whatif/whatif.h"

namespace malleus {
namespace {

// A per-test scratch directory under the ctest working dir.
std::string ScratchDir(const std::string& name) {
  static std::mt19937_64 rng(::testing::UnitTest::GetInstance()->random_seed());
  const std::string dir =
      "whatif_test_scratch_" + name + "_" + std::to_string(rng());
  return dir;
}

bool WriteFileAt(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  return static_cast<bool>(out);
}

std::string ReadFileAt(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  return content;
}

obs::RunBundle MakeBundle() {
  obs::RunBundle bundle;
  bundle.producer = "whatif_test";
  bundle.files.push_back({"run.scenario", "model = tiny\nnodes = 1\n"});
  bundle.files.push_back({"snapshot.txt", "plan.signature = deadbeef\n"});
  bundle.files.push_back({"trace.json", "{\"traceEvents\":[]}\n"});
  return bundle;
}

TEST(RunBundleTest, RoundTripsByteIdentically) {
  const std::string dir = ScratchDir("roundtrip");
  const obs::RunBundle bundle = MakeBundle();
  ASSERT_TRUE(obs::WriteRunBundle(dir, bundle).ok());

  Result<obs::RunBundle> loaded = obs::LoadRunBundle(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->producer, "whatif_test");
  ASSERT_EQ(loaded->files.size(), bundle.files.size());
  for (const obs::BundleFile& f : bundle.files) {
    const std::string* content = loaded->Find(f.name);
    ASSERT_NE(content, nullptr) << f.name;
    EXPECT_EQ(*content, f.content) << f.name;
  }
  EXPECT_EQ(obs::BundleContentHash(*loaded), obs::BundleContentHash(bundle));

  // Re-writing the loaded bundle reproduces every file byte for byte —
  // the manifest included.
  const std::string dir2 = ScratchDir("roundtrip2");
  ASSERT_TRUE(obs::WriteRunBundle(dir2, *loaded).ok());
  EXPECT_EQ(ReadFileAt(dir + "/MANIFEST"), ReadFileAt(dir2 + "/MANIFEST"));
  for (const obs::BundleFile& f : bundle.files) {
    EXPECT_EQ(ReadFileAt(dir + "/" + f.name),
              ReadFileAt(dir2 + "/" + f.name))
        << f.name;
  }
}

TEST(RunBundleTest, ContentHashIsOrderInsensitive) {
  obs::RunBundle a = MakeBundle();
  obs::RunBundle b;
  b.producer = a.producer;
  for (auto it = a.files.rbegin(); it != a.files.rend(); ++it) {
    b.files.push_back(*it);
  }
  EXPECT_EQ(obs::BundleContentHash(a), obs::BundleContentHash(b));
}

TEST(RunBundleTest, TruncatedMemberFailsWithStatus) {
  const std::string dir = ScratchDir("truncated");
  ASSERT_TRUE(obs::WriteRunBundle(dir, MakeBundle()).ok());
  ASSERT_TRUE(WriteFileAt(dir + "/trace.json", "{\"traceEv"));

  Result<obs::RunBundle> loaded = obs::LoadRunBundle(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("trace.json"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(RunBundleTest, EditedMemberFailsWithStatus) {
  // Same size, different bytes: only the hash catches it.
  const std::string dir = ScratchDir("edited");
  obs::RunBundle bundle = MakeBundle();
  ASSERT_TRUE(obs::WriteRunBundle(dir, bundle).ok());
  std::string edited = bundle.files[0].content;
  edited[0] = 'M';
  ASSERT_EQ(edited.size(), bundle.files[0].content.size());
  ASSERT_TRUE(WriteFileAt(dir + "/" + bundle.files[0].name, edited));

  Result<obs::RunBundle> loaded = obs::LoadRunBundle(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find(bundle.files[0].name),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(RunBundleTest, MissingMemberFailsWithStatus) {
  const std::string dir = ScratchDir("missing");
  ASSERT_TRUE(obs::WriteRunBundle(dir, MakeBundle()).ok());
  ASSERT_EQ(std::remove((dir + "/snapshot.txt").c_str()), 0);

  Result<obs::RunBundle> loaded = obs::LoadRunBundle(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("snapshot.txt"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(RunBundleTest, MissingManifestFailsWithStatus) {
  const std::string dir = ScratchDir("nomanifest");
  ASSERT_TRUE(obs::WriteRunBundle(dir, MakeBundle()).ok());
  ASSERT_EQ(std::remove((dir + "/MANIFEST").c_str()), 0);
  EXPECT_FALSE(obs::LoadRunBundle(dir).ok());
}

TEST(RunBundleTest, GarbageManifestFailsWithStatus) {
  const std::string dir = ScratchDir("garbage");
  ASSERT_TRUE(obs::WriteRunBundle(dir, MakeBundle()).ok());
  ASSERT_TRUE(WriteFileAt(dir + "/MANIFEST", "\x7f\x45\x4c\x46 not a manifest"));
  EXPECT_FALSE(obs::LoadRunBundle(dir).ok());
}

TEST(RunBundleTest, ManifestNumbersMustBeWhole) {
  const std::string dir = ScratchDir("manifest_numbers");
  ASSERT_TRUE(obs::WriteRunBundle(dir, MakeBundle()).ok());
  const std::string manifest = ReadFileAt(dir + "/MANIFEST");
  ASSERT_TRUE(obs::LoadRunBundle(dir).ok());
  const auto edited = [&](const std::string& from, const std::string& to) {
    std::string text = manifest;
    const size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) text.replace(at, from.size(), to);
    return text;
  };
  ASSERT_TRUE(
      WriteFileAt(dir + "/MANIFEST", edited("version = 1\n", "version = 1abc\n")));
  Result<obs::RunBundle> loaded = obs::LoadRunBundle(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("bad version '1abc'"),
            std::string::npos)
      << loaded.status().ToString();
  const size_t size_at = manifest.find(" size=");
  ASSERT_NE(size_at, std::string::npos);
  const size_t digits_end = manifest.find(' ', size_at + 6);
  const std::string size_field = manifest.substr(size_at, digits_end - size_at);
  ASSERT_TRUE(WriteFileAt(dir + "/MANIFEST",
                          edited(size_field, size_field + "junk")));
  loaded = obs::LoadRunBundle(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("malformed file entry"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(RunBundleTest, NonexistentDirectoryFailsWithStatus) {
  EXPECT_FALSE(obs::LoadRunBundle("no/such/bundle/dir").ok());
}

TEST(CounterfactualTest, LabelsRoundTripThroughParse) {
  const char* lines[] = {
      "remove_straggler gpu=9",
      "dampen_straggler gpu=3 factor=0.5",
      "scale_nic factor=2",
      "scale_nvlink factor=0.25",
      "force_tp tp=8",
      "add_standby_node nodes=2",
      "net_model model=flow",
  };
  for (const char* line : lines) {
    Result<scenario::Counterfactual> cf = scenario::ParseCounterfactual(line);
    ASSERT_TRUE(cf.ok()) << line << ": " << cf.status().ToString();
    EXPECT_EQ(cf->Label(), line);
    Result<scenario::Counterfactual> again =
        scenario::ParseCounterfactual(cf->Label());
    ASSERT_TRUE(again.ok()) << cf->Label();
    EXPECT_EQ(again->Label(), cf->Label());
  }
}

TEST(CounterfactualTest, GridParserSkipsCommentsAndRejectsBadLines) {
  Result<std::vector<scenario::Counterfactual>> grid =
      scenario::ParseCounterfactualGrid(
          "# header comment\n"
          "\n"
          "remove_straggler gpu=1  # trailing comment\n"
          "force_tp tp=4\n");
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();
  ASSERT_EQ(grid->size(), 2u);
  EXPECT_EQ((*grid)[0].Label(), "remove_straggler gpu=1");
  EXPECT_EQ((*grid)[1].Label(), "force_tp tp=4");

  Result<std::vector<scenario::Counterfactual>> bad =
      scenario::ParseCounterfactualGrid("remove_straggler gpu=1\nbogus\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("2"), std::string::npos)
      << bad.status().ToString();
}

TEST(CounterfactualTest, NumbersMustFitTheirField) {
  for (const char* line :
       {"remove_straggler gpu=4294967296", "remove_straggler gpu=9abc",
        "dampen_straggler gpu=1 factor=nan", "scale_nic factor=inf",
        "scale_nvlink factor=1e400", "force_tp tp=4294967304",
        "add_standby_node nodes=+1", "remove_straggler gpu=1 gpu=2"}) {
    Result<scenario::Counterfactual> cf = scenario::ParseCounterfactual(line);
    EXPECT_TRUE(cf.status().IsInvalidArgument())
        << line << " parsed as " << (cf.ok() ? cf->Label() : "");
  }
  Result<scenario::Counterfactual> wide =
      scenario::ParseCounterfactual("remove_straggler gpu=4294967296");
  EXPECT_NE(wide.status().message().find("out of range"), std::string::npos)
      << wide.status().ToString();
}

TEST(CounterfactualTest, DefaultGridCoversEveryKindDeterministically) {
  const topo::ClusterSpec cluster = topo::ClusterSpec::A800Cluster(2);
  straggler::Situation situation(cluster.num_gpus());
  situation.SetRate(0, 3.0);
  const std::vector<scenario::Counterfactual> grid =
      scenario::DefaultCounterfactualGrid(cluster, situation,
                                          net::NetModel::kAnalytic);
  const std::vector<scenario::Counterfactual> again =
      scenario::DefaultCounterfactualGrid(cluster, situation,
                                          net::NetModel::kAnalytic);
  ASSERT_EQ(grid.size(), again.size());
  bool seen[7] = {};
  for (size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid[i].Label(), again[i].Label()) << i;
    seen[static_cast<int>(grid[i].kind)] = true;
  }
  for (int k = 0; k < 7; ++k) {
    EXPECT_TRUE(seen[k]) << "kind " << k << " missing from default grid";
  }

  // The full grid dampens every GPU, tripling the dampen rows.
  scenario::DefaultGridOptions full;
  full.dampen_all_gpus = true;
  EXPECT_GT(scenario::DefaultCounterfactualGrid(cluster, situation,
                                                net::NetModel::kAnalytic,
                                                full)
                .size(),
            grid.size());
}

scenario::ScenarioSpec TinyStragglerSpec() {
  scenario::ScenarioSpec spec;
  spec.model = "tiny";
  spec.nodes = 2;
  spec.gpus_per_node = 8;
  spec.batch = 32;
  spec.steps = 2;
  scenario::StragglerEntry entry;
  entry.gpu = 3;
  entry.rate = 2.5;
  entry.is_rate = true;
  spec.stragglers.push_back(entry);
  spec.source = "tiny-straggler-spec";
  return spec;
}

// A RecordedRun built straight from `spec`, without a bundle.
Result<whatif::RecordedRun> RecordedRunFromSpec(
    const scenario::ScenarioSpec& spec) {
  whatif::RecordedRun run;
  run.spec = spec;
  MALLEUS_ASSIGN_OR_RETURN(run.resolved, scenario::ResolveScenario(spec));
  run.source = spec.source;
  return run;
}

TEST(ImpliedSituationsTest, OverlayWinsThenPhasesThenNormal) {
  // Overlay: the custom straggler list is the one situation.
  Result<scenario::ResolvedScenario> overlay =
      scenario::ResolveScenario(TinyStragglerSpec());
  ASSERT_TRUE(overlay.ok()) << overlay.status().ToString();
  Result<std::vector<scenario::LabeledSituation>> situations =
      scenario::ImpliedSituations(*overlay);
  ASSERT_TRUE(situations.ok());
  ASSERT_EQ(situations->size(), 1u);
  EXPECT_EQ((*situations)[0].label, "overlay");
  EXPECT_DOUBLE_EQ((*situations)[0].situation.rate(3), 2.5);

  // Phases: deduplicated in first-appearance order.
  scenario::ScenarioSpec phased;
  phased.model = "tiny";
  phased.nodes = 2;
  phased.phases = {"normal", "s1", "normal", "s1"};
  Result<scenario::ResolvedScenario> resolved =
      scenario::ResolveScenario(phased);
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  situations = scenario::ImpliedSituations(*resolved);
  ASSERT_TRUE(situations.ok());
  ASSERT_EQ(situations->size(), 2u);
  EXPECT_EQ((*situations)[0].label, "Normal");
  EXPECT_EQ((*situations)[1].label, "S1");

  // Neither: the healthy "Normal".
  scenario::ScenarioSpec bare;
  bare.model = "tiny";
  bare.nodes = 1;
  resolved = scenario::ResolveScenario(bare);
  ASSERT_TRUE(resolved.ok());
  situations = scenario::ImpliedSituations(*resolved);
  ASSERT_TRUE(situations.ok());
  ASSERT_EQ(situations->size(), 1u);
  EXPECT_EQ((*situations)[0].label, "Normal");
  EXPECT_TRUE((*situations)[0].situation.Stragglers().empty());
}

TEST(ForcedTpTest, PinsThePlannerToOneDegree) {
  const topo::ClusterSpec cluster = topo::ClusterSpec::A800Cluster(2);
  const model::CostModel cost(model::ModelSpec::Tiny(), cluster.gpu());
  core::Planner planner(cluster, cost);
  straggler::Situation healthy(cluster.num_gpus());

  core::PlannerOptions free_opts;
  free_opts.num_threads = 1;
  Result<core::PlanResult> free_plan = planner.Plan(healthy, 32, free_opts);
  ASSERT_TRUE(free_plan.ok()) << free_plan.status().ToString();

  for (int tp : {1, 2, 4, 8}) {
    core::PlannerOptions opts;
    opts.num_threads = 1;
    opts.forced_tp = tp;
    Result<core::PlanResult> pinned = planner.Plan(healthy, 32, opts);
    ASSERT_TRUE(pinned.ok()) << "tp=" << tp << ": "
                             << pinned.status().ToString();
    EXPECT_EQ(pinned->chosen_tp, tp);
    for (const plan::Pipeline& pipe : pinned->plan.pipelines) {
      for (int s = 0; s < pipe.num_stages(); ++s) {
        EXPECT_EQ(pipe.stages[s].group.size(), tp) << "tp=" << tp;
      }
    }
    // The free plan can never be worse than any pinned plan.
    EXPECT_LE(free_plan->estimated_seconds,
              pinned->estimated_seconds * (1.0 + 1e-9))
        << "tp=" << tp;
  }
}

TEST(ForcedTpTest, RejectsInvalidDegrees) {
  const topo::ClusterSpec cluster = topo::ClusterSpec::A800Cluster(1);
  const model::CostModel cost(model::ModelSpec::Tiny(), cluster.gpu());
  core::Planner planner(cluster, cost);
  straggler::Situation healthy(cluster.num_gpus());

  core::PlannerOptions opts;
  opts.forced_tp = 3;  // Not a power-of-two degree.
  EXPECT_FALSE(planner.Plan(healthy, 32, opts).ok());

  // Valid degree that exceeds the node width.
  const topo::ClusterSpec narrow(2, 4, cluster.gpu(), cluster.link());
  const model::CostModel narrow_cost(model::ModelSpec::Tiny(), narrow.gpu());
  core::Planner narrow_planner(narrow, narrow_cost);
  straggler::Situation narrow_healthy(narrow.num_gpus());
  core::PlannerOptions wide;
  wide.forced_tp = 8;
  EXPECT_FALSE(narrow_planner.Plan(narrow_healthy, 32, wide).ok());
}

TEST(WhatIfEngineTest, ReplayDecomposesStepIntoSpans) {
  Result<whatif::RecordedRun> run =
      RecordedRunFromSpec(TinyStragglerSpec());
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  const topo::ClusterSpec& cluster = run->resolved.cluster;
  const model::CostModel cost(run->resolved.spec, cluster.gpu());
  core::Planner planner(cluster, cost);
  Result<scenario::LabeledSituation> analyzed =
      whatif::AnalyzedSituation(*run);
  ASSERT_TRUE(analyzed.ok());
  core::PlannerOptions opts;
  opts.num_threads = 1;
  Result<core::PlanResult> plan =
      planner.Plan(analyzed->situation, run->spec.batch, opts);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  Result<whatif::ReplayResult> replay = whatif::ReplayPlanStep(
      cluster, cost, plan->plan, analyzed->situation,
      net::NetModel::kAnalytic, run->spec.seed);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_GT(replay->step_seconds, 0.0);
  EXPECT_GT(replay->compute_span_seconds, 0.0);
  EXPECT_GT(replay->sync_span_seconds, 0.0);

  // Replays are deterministic: same inputs, same seconds.
  Result<whatif::ReplayResult> again = whatif::ReplayPlanStep(
      cluster, cost, plan->plan, analyzed->situation,
      net::NetModel::kAnalytic, run->spec.seed);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(replay->step_seconds, again->step_seconds);
  EXPECT_EQ(replay->compute_span_seconds, again->compute_span_seconds);
}

TEST(WhatIfEngineTest, ReportBytesAreThreadCountInvariant) {
  Result<whatif::RecordedRun> run =
      RecordedRunFromSpec(TinyStragglerSpec());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  Result<scenario::LabeledSituation> analyzed =
      whatif::AnalyzedSituation(*run);
  ASSERT_TRUE(analyzed.ok());
  const std::vector<scenario::Counterfactual> grid =
      scenario::DefaultCounterfactualGrid(run->resolved.cluster,
                                          analyzed->situation,
                                          run->resolved.net_model);
  ASSERT_GE(grid.size(), 20u);

  whatif::WhatIfOptions serial;
  serial.num_threads = 1;
  Result<obs::AttributionReport> a = whatif::RunWhatIf(*run, grid, serial);
  ASSERT_TRUE(a.ok()) << a.status().ToString();

  whatif::WhatIfOptions parallel;
  parallel.num_threads = 4;
  Result<obs::AttributionReport> b = whatif::RunWhatIf(*run, grid, parallel);
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  EXPECT_EQ(obs::RenderAttributionJson(*a), obs::RenderAttributionJson(*b));
  EXPECT_EQ(obs::RenderAttributionCsv(*a), obs::RenderAttributionCsv(*b));
  EXPECT_EQ(obs::RenderAttributionText(*a, 0),
            obs::RenderAttributionText(*b, 0));
}

TEST(WhatIfEngineTest, InjectedStragglerOutranksHealthyRemovals) {
  Result<whatif::RecordedRun> run =
      RecordedRunFromSpec(TinyStragglerSpec());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  Result<scenario::LabeledSituation> analyzed =
      whatif::AnalyzedSituation(*run);
  ASSERT_TRUE(analyzed.ok());
  const std::vector<scenario::Counterfactual> grid =
      scenario::DefaultCounterfactualGrid(run->resolved.cluster,
                                          analyzed->situation,
                                          run->resolved.net_model);

  Result<obs::AttributionReport> report = whatif::RunWhatIf(*run, grid, {});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->baseline_step_seconds, 0.0);

  // Among straggler-removal rows, the injected straggler (GPU 3) must rank
  // first with positive attribution; healthy GPUs attribute ~0.
  const obs::AttributionRow* injected = nullptr;
  for (const obs::AttributionRow& row : report->rows) {
    if (row.kind != "remove_straggler") continue;
    if (injected == nullptr) injected = &row;
    if (row.cause != "remove_straggler gpu=3") {
      EXPECT_NEAR(row.attributed_seconds, 0.0, 1e-9) << row.cause;
    }
  }
  ASSERT_NE(injected, nullptr);
  EXPECT_EQ(injected->cause, "remove_straggler gpu=3");
  EXPECT_GT(injected->attributed_seconds, 0.0);
  EXPECT_TRUE(injected->error.empty()) << injected->error;
}

TEST(WhatIfEngineTest, BadGridRowCarriesErrorAndRanksLast) {
  Result<whatif::RecordedRun> run =
      RecordedRunFromSpec(TinyStragglerSpec());
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  Result<std::vector<scenario::Counterfactual>> grid =
      scenario::ParseCounterfactualGrid(
          "remove_straggler gpu=3\n"
          "remove_straggler gpu=999\n");  // Outside the 16-GPU cluster.
  ASSERT_TRUE(grid.ok());

  Result<obs::AttributionReport> report = whatif::RunWhatIf(*run, *grid, {});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->rows.size(), 2u);
  EXPECT_TRUE(report->rows[0].error.empty());
  EXPECT_EQ(report->rows[1].cause, "remove_straggler gpu=999");
  EXPECT_FALSE(report->rows[1].error.empty());
  EXPECT_NE(report->rows[1].error.find("999"), std::string::npos);
  EXPECT_EQ(report->rows[1].attributed_seconds, 0.0);
}

TEST(WhatIfEngineTest, SnapshotSignatureMismatchIsRejected) {
  Result<whatif::RecordedRun> run =
      RecordedRunFromSpec(TinyStragglerSpec());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  run->snapshot_text = "plan.signature = 0000000000000000\n";

  Result<std::vector<scenario::Counterfactual>> grid =
      scenario::ParseCounterfactualGrid("remove_straggler gpu=3\n");
  ASSERT_TRUE(grid.ok());
  Result<obs::AttributionReport> report = whatif::RunWhatIf(*run, *grid, {});
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().ToString().find("signature"), std::string::npos)
      << report.status().ToString();
}

TEST(WhatIfEngineTest, LoadRecordedRunRequiresScenarioMember) {
  obs::RunBundle bundle;
  bundle.producer = "whatif_test";
  bundle.files.push_back({"trace.json", "{}"});
  EXPECT_FALSE(whatif::LoadRecordedRun(bundle).ok());

  bundle.files.push_back(
      {"run.scenario", scenario::SerializeScenario(TinyStragglerSpec())});
  Result<whatif::RecordedRun> run = whatif::LoadRecordedRun(bundle, "dir");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->source, "dir");
  EXPECT_EQ(run->spec.model, "tiny");
  EXPECT_TRUE(run->snapshot_text.empty());
}

}  // namespace
}  // namespace malleus
